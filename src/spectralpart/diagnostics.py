"""Structural diagnostics for spectral clustering.

Every guarantee the pipeline leans on is made measurable here: closeness of
degree-weighted block indicators to their eigenspace projections, near-
orthonormality of the change-of-basis rows, predicted k-means centers and
costs, the cost floor for merging below k clusters, and the exact
small-graph constants (best disjoint k-tuple, best k-way partition, minimal
average conductance, inter-connection constant), read from tables over all
vertex subsets.

Each inequality is emitted as a CheckRecord carrying the measured left side,
the bound, a pass flag with absolute tolerance 1e-9, and whether the bound's
gap precondition held; unmet-precondition records are "not applicable" and
never count as failures. Gap-dependent bounds are evaluated with the
GapReport of the supplied reference partition, whose psi = lambda_{k+1} /
(its average conductance) is exactly the quantity the bounds are proved from,
so an applicable failing check indicates an implementation bug, not a noisy
instance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, GapError, InputError, NumericError, SpanCollapseError
from .graph import (Graph, Partition, block_conductances, match_partitions,
                    sym_diff_volume, volume)
from .kmeans import separation_ratio
from .linalg import BRUTEFORCE_MAX_N, EigenSystem, _partition_layers, _split_blocks, _splits
from .spectral import Embedding, exact_embedding

#: Absolute slack added on top of every bound before calling a check failed.
CHECK_TOL = 1e-9
#: Smallest singular value of the indicator-coefficient matrix we accept.
SPAN_CONDITION_TOL = 1e-8
#: Largest number of optimal k-tuples the brute-force constants list.
OPTIMAL_TUPLES_MAX = 100_000
#: Largest number of partition completions inter_connection enumerates.
INTERCONNECT_MAX_WORK = 20_000_000

_GAP_SCALE = 20 ** 4          # psi = _GAP_SCALE * k^3 / delta
_ROW_GRAM_SCALE = 10 ** 4     # psi = _ROW_GRAM_SCALE * k^3 / eps^2
_VOLUME_BOUND_SCALE = 10 ** 3  # volume bound alpha * delta / (10^3 k)


# ---------------------------------------------------------------------------
# Indicator vectors and coefficient matrices
# ---------------------------------------------------------------------------

def characteristic_vectors(g: Graph, p: Partition) -> np.ndarray:
    """Unit degree-weighted indicator vector of each block, as columns.

    Column i is D^{1/2} 1_{P_i} / sqrt(volume(P_i)); columns are orthonormal
    because supports are disjoint. The identity "Laplacian quadratic form =
    block conductance" is verified to 1e-9 as a self-check.
    """
    if p.n != g.n:
        raise InputError("partition does not cover this graph")
    if np.any(p.labels < 0):
        raise InputError("characteristic vectors need a full partition")
    sqrt_d = np.sqrt(g.degrees.astype(float))
    vols = np.array([volume(g, p.labels == i) for i in range(p.k)], dtype=float)
    gbar = np.zeros((g.n, p.k))
    for i in range(p.k):
        mask = p.labels == i
        gbar[mask, i] = sqrt_d[mask] / math.sqrt(vols[i])
    phis = [float(f) for f in block_conductances(g, p)]
    inv_sqrt_d = 1.0 / sqrt_d
    u, v = g.edges[:, 0], g.edges[:, 1]
    for i in range(p.k):
        x = gbar[:, i] * inv_sqrt_d
        quad = float(np.sum((x[u] - x[v]) ** 2))
        if abs(quad - phis[i]) > 1e-9:
            raise NumericError("Rayleigh identity violated for block %d: %.3e vs %.3e"
                               % (i, quad, phis[i]))
    return gbar


@dataclass(frozen=True)
class CoeffMatrices:
    """Change of basis between leading eigenvectors and block indicators.

    ``indicator_coeffs[j, i]`` is the coefficient of eigenvector j in block
    i's unit indicator (its projection onto the leading eigenspace reads the
    columns). ``inverse_coeffs`` is the matrix inverse, expressing eigenvector
    i in the projected-indicator basis; ``condition`` is the smallest singular
    value of ``indicator_coeffs``.
    """

    indicator_coeffs: np.ndarray  # k x k
    inverse_coeffs: np.ndarray    # k x k
    condition: float


def coeff_matrices(eig: EigenSystem, gbar: np.ndarray, k: int) -> CoeffMatrices:
    """Assemble the coefficient matrix and its inverse.

    Raises SpanCollapseError when the projected indicators do not span the
    leading eigenspace (smallest singular value below SPAN_CONDITION_TOL).
    """
    if k > eig.n or gbar.shape[1] != k:
        raise InputError("need k <= n and k indicator columns")
    fwd = eig.vectors[:, :k].T @ gbar
    condition = float(np.linalg.svd(fwd, compute_uv=False).min())
    if condition < SPAN_CONDITION_TOL:
        raise SpanCollapseError(
            "indicator projections are numerically rank deficient "
            "(sigma_min=%.3e); no usable spectral gap" % condition)
    inv = np.linalg.solve(fwd, np.eye(k))
    if np.abs(inv @ fwd - np.eye(k)).max() > 1e-6:
        raise NumericError("coefficient inverse failed its identity check")
    return CoeffMatrices(indicator_coeffs=fwd, inverse_coeffs=inv, condition=condition)


def estimation_centers(cm: CoeffMatrices, volumes) -> np.ndarray:
    """Predicted k-means center of each block: row i of the inverse
    coefficients scaled by 1/sqrt(volume_i)."""
    vols = np.asarray(volumes, dtype=float)
    if np.any(vols <= 0):
        raise InputError("volumes must be positive")
    return cm.inverse_coeffs / np.sqrt(vols)[:, None]


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """Spectral-gap summary relative to a reference partition.

    The proxies are the reference partition's own average
    (``rho_avr_proxy``) and largest (``phi_proxy``) block conductance, the
    quantities every gap-dependent check is proved from. ``psi`` is
    lambda_{k+1} over the average and ``upsilon`` lambda_{k+1} over the
    largest, so ``psi * rho_avr_proxy = upsilon * phi_proxy = lambda_{k+1}``;
    a zero proxy gives infinity. ``delta`` is back-solved from
    psi = 20^4 k^3 / delta and clamped to at most 1/2; ``delta_clamped``
    records whether the clamp bound. The exact small-graph constants are
    bruteforce_partition_constants' job, not this report's.
    """

    k: int
    rho_avr_proxy: float
    phi_proxy: float
    psi: float
    upsilon: float
    delta: float
    delta_clamped: bool


def gap_report(g: Graph, k: int, reference: Partition, eig: EigenSystem) -> GapReport:
    """Raises InputError on a block-count mismatch or fewer than k+1
    eigenvalues, and GapError when lambda_{k+1} < 1e-12."""
    if reference.k != k:
        raise InputError("reference partition has %d blocks, expected %d" % (reference.k, k))
    if eig.n < k + 1:
        raise InputError("need at least k+1 eigenvalues")
    lam_k1 = float(eig.values[k])
    if lam_k1 < 1e-12:
        raise GapError("fewer than k+1 nonzero-gap eigenvalues (lambda_{k+1}=%.3e)" % lam_k1)
    phis = block_conductances(g, reference)
    rho_avr = float(sum(phis) / k)
    phi_max = float(max(phis))
    psi = lam_k1 / rho_avr if rho_avr > 0 else math.inf
    upsilon = lam_k1 / phi_max if phi_max > 0 else math.inf
    raw = _GAP_SCALE * k ** 3 / psi
    return GapReport(k=k, rho_avr_proxy=rho_avr, phi_proxy=phi_max, psi=psi,
                     upsilon=upsilon, delta=min(raw, 0.5), delta_clamped=raw > 0.5)


# ---------------------------------------------------------------------------
# Exact constants from tables over all 2^n vertex subsets (n <= 14)
# ---------------------------------------------------------------------------

#: Slack on float sums of at most n conductances (each in [0, 1]) before the
#: exact recheck; their rounding error is below 1e-13.
_SUM_TOL = 1e-9


def _subset_tables(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(cut, vol)`` of every vertex subset, indexed by bitmask (bit v set
    iff vertex v is in the subset), as integer arrays of length 2^n."""
    bits = (np.arange(1 << g.n)[:, None] >> np.arange(g.n)) & 1
    u, v = g.edges[:, 0], g.edges[:, 1]
    return (bits[:, u] ^ bits[:, v]).sum(axis=1), bits @ g.degrees


def _subset_min(a: np.ndarray, n: int) -> np.ndarray:
    """``out[S]`` = min of ``a`` over the subsets of S."""
    out = a.copy()
    for b in range(n):
        halves = out.reshape(-1, 2, 1 << b)
        np.minimum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    return out


@dataclass(frozen=True)
class PartitionConstants:
    """Exact order-k conductance constants of a small graph.

    ``rho``: best max-conductance over disjoint nonempty k-tuples;
    ``rho_hat``: best max-conductance over k-way partitions; ``rho_avr``:
    minimal average conductance among partitions achieving rho_hat. Ties
    are exact Fraction equality. Exact Fractions ride along for downstream
    exact comparisons. ``optimal_tuples`` lists every k-tuple achieving rho
    as a canonical labelling (blocks numbered in order of first use, -1 for
    an uncovered vertex), sorted lexicographically (-1 < 0 < 1 < ...).
    """

    rho: float
    rho_hat: float
    rho_avr: float
    rho_exact: Fraction
    rho_hat_exact: Fraction
    rho_avr_exact: Fraction
    optimal_tuples: tuple[tuple[int, ...], ...]


def bruteforce_partition_constants(g: Graph, k: int) -> PartitionConstants:
    """Exact constants by dynamic programming over all 2^n vertex subsets.

    Conductances phi = cut / vol are floats: they are rationals with
    denominators at most 2m, so distinct ones are at least 1/(2m)^2 apart
    and correctly rounded division keeps their order and equalities; min,
    max and ties on phi are exact, and a subset attaining a value gives back
    its Fraction. ``part[j][S]`` is the least worst-block conductance over
    partitions of S into j nonempty blocks, a layer of linalg's partition DP
    (part[1] is phi itself).
    rho_hat is part[k] of all vertices, and rho the minimum of part[k] over
    all subsets, since a k-tuple partitions its union. rho_avr minimizes the
    float sum over blocks with phi <= rho_hat, then rechecks every split
    within _SUM_TOL of a subproblem's minimum with exact Fractions. Work is
    2(k - 1) passes over the (3^n - 1) / 2 splits; optimal_tuples backtracks
    over the blocks with phi <= rho, visiting only partial tuples that
    complete, and raises CapacityError past OPTIMAL_TUPLES_MAX tuples.
    """
    if g.n > BRUTEFORCE_MAX_N:
        raise CapacityError("brute-force constants support n <= %d (got %d)"
                            % (BRUTEFORCE_MAX_N, g.n))
    if k < 1 or k > g.n:
        raise InputError("k must be in [1, n]")
    n, full = g.n, (1 << g.n) - 1
    cut, vol = _subset_tables(g)
    phi = np.full(full + 1, np.inf)
    np.divide(cut, vol, out=phi, where=vol > 0)
    splits = _splits(n)

    def exact(value) -> Fraction:
        s = int(np.argmax(phi == value))
        return Fraction(int(cut[s]), int(vol[s]))

    part = _partition_layers(splits, phi, k, -np.inf, np.maximum)
    rho_hat = part[k][full]
    rho = part[k].min()

    # Least float conductance sum over partitions of S into j blocks with
    # phi <= rho_hat, each of which has worst block exactly rho_hat.
    capped = np.where(phi <= rho_hat, phi, np.inf)
    best_sum = _partition_layers(splits, capped, k, 0.0, np.add)
    exact_sums: dict[tuple[int, int], Fraction] = {}

    def exact_sum(s: int, j: int) -> Fraction:
        if j == 0:
            return Fraction(0)
        if (s, j) not in exact_sums:
            t = _split_blocks(splits, s)
            r = s ^ t
            near = capped[t] + best_sum[j - 1][r] <= best_sum[j][s] + _SUM_TOL
            exact_sums[s, j] = min(
                Fraction(int(cut[b]), int(vol[b])) + exact_sum(rest, j - 1)
                for b, rest in zip(t[near].tolist(), r[near].tolist()))
        return exact_sums[s, j]

    rho_avr = exact_sum(full, k) / k

    # fits[j][S] <= rho iff S holds j disjoint blocks with phi <= rho.
    fits = [_subset_min(p, n) for p in part[:k]]
    family = np.flatnonzero(phi <= rho)
    tuples: list[tuple[int, ...]] = []

    def extend(avail: int, j: int, blocks: list[int]):
        if j == 0:
            if len(tuples) == OPTIMAL_TUPLES_MAX:
                raise CapacityError("more than %d optimal k-tuples" % OPTIMAL_TUPLES_MAX)
            labels = [-1] * n
            for i, b in enumerate(blocks):
                for v in range(n):
                    if b >> v & 1:
                        labels[v] = i
            tuples.append(tuple(labels))
            return
        for b in family[(family & ~avail) == 0].tolist():
            # Later blocks start above this block's lowest vertex.
            rest = avail & ~b & ~((b & -b) * 2 - 1)
            if fits[j - 1][rest] <= rho:
                extend(rest, j - 1, blocks + [b])

    extend(full, k, [])
    tuples.sort()
    return PartitionConstants(rho=float(rho), rho_hat=float(rho_hat),
                              rho_avr=float(rho_avr), rho_exact=exact(rho),
                              rho_hat_exact=exact(rho_hat), rho_avr_exact=rho_avr,
                              optimal_tuples=tuple(tuples))


# ---------------------------------------------------------------------------
# Inter-connection constant (n <= 14, through the constants)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterConnection:
    """Order-k inter-connection constant with witnesses.

    Degenerate (rho_hat == rho exactly) instances carry no constant: any
    optimal tuple already extends to an optimal partition. Otherwise
    ``rho_p`` minimizes, over optimal tuples Z and compatible partitions P,
    the worst relative excess boundary of the non-core parts S_i = P_i - Z_i;
    ``kappa = 1/(1 - rho_p)``; ``rho_avr_tilde`` is the minimal average
    conductance among minimizers, achieved by the returned witness pair.
    """

    degenerate: bool
    rho: float
    rho_hat: float
    rho_p: float | None = None
    rho_p_exact: Fraction | None = None
    kappa: float | None = None
    rho_avr_tilde: float | None = None
    witness_partition: Partition | None = None
    witness_tuple: Partition | None = None


def _phi_ic_exact(cut, vol, blocks, cores):
    """Exact inter-connection objective and average conductance of a
    compatible (partition, tuple) pair, as ``(phi_ic, avg)``.

    ``blocks`` and ``cores`` are the bitmasks of P_i and Z_i, and ``cut`` and
    ``vol`` the subset tables. S_i = P_i - Z_i's boundary excess, its edges
    leaving P_i minus its edges into Z_i, is cut(P_i) - cut(Z_i), relative to
    cut(P_i). Returns None when every S_i is empty (the pair carries no
    constraint). A zero boundary denominator can only occur with a
    nonpositive numerator and is treated as 0 (empty constraint) or -inf,
    stood for by -10^9, below every real ratio (each is at least -m).
    """
    ratios = [Fraction(cut[p] - cut[z], cut[p]) if cut[p] else
              Fraction(0 if cut[z] == 0 else -10 ** 9)
              for p, z in zip(blocks, cores) if p != z]
    if not ratios:
        return None
    return max(ratios), sum(Fraction(cut[p], vol[p]) for p in blocks) / len(blocks)


def inter_connection(g: Graph, k: int,
                     constants: PartitionConstants | None = None) -> InterConnection:
    """Exhaustive inter-connection constant.

    Reads the optimal disjoint k-tuples from the constants' optimal_tuples
    (so n <= BRUTEFORCE_MAX_N) and enumerates all their compatible partition
    completions, in itertools.product order, scoring each from the subset
    tables; raises CapacityError if that product exceeds
    INTERCONNECT_MAX_WORK assignments.
    ``constants``, when given, must be bruteforce_partition_constants(g, k);
    passing it saves that computation.
    """
    if k < 2 or k > g.n:
        raise InputError("k must be in [2, n]")
    consts = constants if constants is not None else bruteforce_partition_constants(g, k)
    if consts.rho_hat_exact == consts.rho_exact:
        return InterConnection(degenerate=True, rho=consts.rho, rho_hat=consts.rho_hat)

    tuples = consts.optimal_tuples
    work = sum(k ** sum(1 for t in tup if t < 0) for tup in tuples)
    if work > INTERCONNECT_MAX_WORK:
        raise CapacityError("inter-connection enumeration too large (%d assignments)" % work)

    cut, vol = (table.tolist() for table in _subset_tables(g))
    best = None  # ((phi_ic, avg_phi), tuple_labels, free, combo)
    for tup in tuples:
        cores = [0] * k
        for v, b in enumerate(tup):
            if b >= 0:
                cores[b] |= 1 << v
        free = [v for v in range(g.n) if tup[v] < 0]
        for combo in itertools.product(range(k), repeat=len(free)):
            blocks = cores.copy()
            for v, b in zip(free, combo):
                blocks[b] |= 1 << v
            scored = _phi_ic_exact(cut, vol, blocks, cores)
            if scored is not None and (best is None or scored < best[0]):
                best = (scored, tup, free, combo)

    if best is None:
        return InterConnection(degenerate=True, rho=consts.rho, rho_hat=consts.rho_hat)
    (rho_p, avg), tuple_labels, free, combo = best
    part_labels = np.array(tuple_labels)
    part_labels[free] = combo
    witness_p = Partition(k, part_labels)
    witness_z = Partition(k, np.asarray(tuple_labels), allow_uncovered=True)
    return InterConnection(
        degenerate=False, rho=consts.rho, rho_hat=consts.rho_hat,
        rho_p=float(rho_p), rho_p_exact=rho_p,
        kappa=float(1 / (1 - rho_p)), rho_avr_tilde=float(avg),
        witness_partition=witness_p, witness_tuple=witness_z)


# ---------------------------------------------------------------------------
# Theorem check suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    """One measured inequality: passed iff lhs <= rhs + 1e-9 (absolute).

    ``hypothesis_met`` records whether the bound's gap precondition held;
    when it did not, the record is reported as not applicable rather than a
    failure.
    """

    name: str
    lhs: float
    rhs: float
    passed: bool
    hypothesis_met: bool
    slack: float
    note: str = ""


def _record(name, lhs, rhs, hypothesis_met, note="") -> CheckRecord:
    lhs = float(lhs)
    rhs = float(rhs)
    return CheckRecord(name=name, lhs=lhs, rhs=rhs,
                       passed=bool(lhs <= rhs + CHECK_TOL),
                       hypothesis_met=bool(hypothesis_met),
                       slack=rhs - lhs, note=note)


def run_theorem_checks(g: Graph, k: int, planted: Partition,
                       clustered: Partition | None = None,
                       alpha: float = 1.1, seed: int = 0,
                       exact: tuple[Embedding, EigenSystem] | None = None
                       ) -> list[CheckRecord]:
    """Measure every structural inequality against the reference partition.

    Emits records, in a fixed order, for: per-block indicator-vs-projection
    closeness (unconditional); eigenvector-vs-indicator-mix closeness; row
    Gram near-orthonormality of the inverse coefficients; the predicted-center
    cost and the optimal-cost estimate it bounds; the merge-cost floor for
    k-1 clusters; a desk-scale separation-ratio surrogate; and, when a
    clustered partition is supplied, matched volume-difference and conductance
    bounds at approximation factor ``alpha``.

    All gap-dependent bounds read psi, delta and delta_clamped from
    gap_report(g, k, planted, eig), so they use the reference partition's own
    average conductance, the exact quantity they are proved from; a
    lambda_{k+1} below 1e-12 raises its GapError. ``exact``, when given, must
    be exact_embedding(g, k); passing it saves a second eigensolve.
    """
    emb, eig = exact if exact is not None else exact_embedding(g, k)
    gap = gap_report(g, k, planted, eig)
    psi, delta, delta_clamped = gap.psi, gap.delta, gap.delta_clamped
    gbar = characteristic_vectors(g, planted)
    phis = np.array([float(f) for f in block_conductances(g, planted)])
    vols = np.array([volume(g, planted.labels == i) for i in range(k)], dtype=float)
    lam_k1 = float(eig.values[k])

    psi_note = "psi=%.6g (reference partition)" % psi

    cm = coeff_matrices(eig, gbar, k)
    centers = estimation_centers(cm, vols)

    records: list[CheckRecord] = []

    # Block indicators vs their eigenspace projections (no gap hypothesis).
    proj = eig.vectors[:, :k] @ cm.indicator_coeffs
    for i in range(k):
        lhs = float(np.sum((gbar[:, i] - proj[:, i]) ** 2))
        records.append(_record("indicator_vs_projection[%d]" % i, lhs,
                               phis[i] / lam_k1, True))

    # Eigenvectors vs indicator mixes.
    hyp_mix = psi > 4.0 * k ** 1.5
    mix = gbar @ cm.inverse_coeffs
    rhs_mix = (1.0 + 3.0 * k / psi) * k / psi
    for i in range(k):
        lhs = float(np.sum((eig.vectors[:, i] - mix[:, i]) ** 2))
        records.append(_record("eigenvector_vs_indicator_mix[%d]" % i,
                               lhs, rhs_mix, hyp_mix, psi_note))

    # Row Gram of the inverse coefficients: near identity.
    hyp_gram = psi >= _ROW_GRAM_SCALE * k ** 3
    eps_gram = math.sqrt(_ROW_GRAM_SCALE * k ** 3 / psi)
    gram = cm.inverse_coeffs @ cm.inverse_coeffs.T
    gram_note = psi_note + "; eps=%.6g" % eps_gram
    for i in range(k):
        records.append(_record("center_row_norm[%d]" % i,
                               abs(gram[i, i] - 1.0), eps_gram, hyp_gram, gram_note))
    for i in range(k):
        for j in range(i + 1, k):
            records.append(_record("center_row_dot[%d,%d]" % (i, j),
                                   abs(gram[i, j]), math.sqrt(eps_gram),
                                   hyp_gram, gram_note))

    # Predicted centers give a cheap clustering of the weighted embedding.
    rhs_cost = (1.0 + 3.0 * k / psi) * k ** 2 / psi
    planted_cost = 0.0
    for i in range(k):
        mask = planted.labels == i
        diffs = emb.coords[mask] - centers[i]
        planted_cost += float(np.sum(emb.weights[mask] * np.einsum("ij,ij->i", diffs, diffs)))
    records.append(_record("planted_center_cost", planted_cost, rhs_cost,
                           hyp_mix, psi_note))

    sep = separation_ratio(emb, k, seed)
    sep_note = psi_note + "; method=%s" % sep.method
    records.append(_record("optimal_cost_bound", sep.delta_k, rhs_cost,
                           hyp_mix, sep_note))

    # Cost floor for clustering into k-1 groups.
    hyp_floor = not delta_clamped
    delta_prime = 2.0 * delta / _GAP_SCALE
    floor = 1.0 / 12.0 - delta_prime / k
    floor_note = sep_note + ("; delta clamped" if delta_clamped else "")
    records.append(_record("merge_cost_floor", floor, sep.delta_km1,
                           hyp_floor, floor_note))

    # Desk-scale surrogate for the separation needed by the seeded clustering.
    records.append(_record("separation_ratio_surrogate", sep.ratio, 1e-3,
                           hyp_gram, sep_note))

    if clustered is not None:
        hyp_rec = (not delta_clamped) and k >= 3
        pi = match_partitions(g, clustered, planted)
        bound_factor = alpha * delta / (_VOLUME_BOUND_SCALE * k)
        rec_note = psi_note + "; alpha=%.3g" % alpha + \
            ("; delta clamped" if delta_clamped else "")
        for i in range(k):
            target = planted.labels == pi[i]
            lhs = float(sym_diff_volume(g, clustered.labels == i, target))
            rhs = bound_factor * float(volume(g, target))
            records.append(_record("recovered_volume_diff[%d]" % i, lhs, rhs,
                                   hyp_rec, rec_note))
        clustered_phis = block_conductances(g, clustered)
        for i in range(k):
            phi_target = phis[pi[i]]
            lhs = float(clustered_phis[i])
            rhs = (1.0 + 2.0 * bound_factor) * phi_target + 2.0 * bound_factor
            records.append(_record("recovered_conductance[%d]" % i, lhs, rhs,
                                   hyp_rec, rec_note))
    return records
