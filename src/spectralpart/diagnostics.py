"""Structural diagnostics for spectral clustering.

Every guarantee the pipeline leans on is made measurable here: closeness of
degree-weighted block indicators to their eigenspace projections, near-
orthonormality of the change-of-basis rows, predicted k-means centers and
costs, the cost floor for merging below k clusters, and the small-graph
brute-force constants (best disjoint k-tuple, best k-way partition, minimal
average conductance, inter-connection constant).

Each inequality is emitted as a CheckRecord carrying the measured left side,
the bound, a pass flag with absolute tolerance 1e-9, and whether the bound's
gap precondition held; unmet-precondition records are "not applicable" and
never count as failures. Gap-dependent bounds are evaluated with the supplied
reference partition's own average conductance (psi = lambda_{k+1} / avg phi),
which is exactly the quantity the bounds are proved from, so an applicable
failing check indicates an implementation bug, not a noisy instance.
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
from .linalg import EigenSystem
from .spectral import Embedding, exact_embedding, normalized_weighted_pointset

#: Absolute slack added on top of every bound before calling a check failed.
CHECK_TOL = 1e-9
#: Smallest singular value of the indicator-coefficient matrix we accept.
SPAN_CONDITION_TOL = 1e-8
#: Brute-force capacity bounds.
CONSTANTS_MAX_VERTICES = 12
INTERCONNECT_MAX_VERTICES = 10
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

    ``psi`` is lambda_{k+1} over the average-conductance proxy and ``upsilon``
    lambda_{k+1} over the max-conductance proxy; ``psi * rho_avr_proxy =
    upsilon * phi_proxy = lambda_{k+1}``. For n <= 12 the proxies are the
    exact brute-force constants (kind "bruteforce-optimal"); otherwise they
    come from the reference partition itself (kind "planted"), making the
    reported psi a lower bound for the optimal-partition value. ``delta`` is
    back-solved from psi = 20^4 k^3 / delta and clamped into (0, 1/2];
    ``delta_clamped`` records whether the clamp bound.
    """

    k: int
    lambdas: tuple
    rho_avr_proxy: float
    phi_proxy: float
    psi: float
    upsilon: float
    delta: float
    delta_clamped: bool
    proxy_kind: str


def _solve_delta(psi: float, k: int) -> tuple[float, bool]:
    if psi == math.inf:
        return 0.0, False
    raw = _GAP_SCALE * k ** 3 / psi
    if raw > 0.5:
        return 0.5, True
    return raw, False


def gap_report(g: Graph, k: int, reference: Partition, eig: EigenSystem) -> GapReport:
    if reference.k != k:
        raise InputError("reference partition has %d blocks, expected %d" % (reference.k, k))
    if eig.n < k + 1:
        raise InputError("need at least k+1 eigenvalues")
    lam_k1 = float(eig.values[k])
    if lam_k1 < 1e-12:
        raise GapError("fewer than k+1 nonzero-gap eigenvalues (lambda_{k+1}=%.3e)" % lam_k1)
    if g.n <= CONSTANTS_MAX_VERTICES:
        consts = bruteforce_partition_constants(g, k)
        rho_avr, phi_max = consts.rho_avr, consts.rho_hat
        proxy_kind = "bruteforce-optimal"
    else:
        phis = block_conductances(g, reference)
        rho_avr = float(sum(phis) / k)
        phi_max = float(max(phis))
        proxy_kind = "planted"
    psi = lam_k1 / rho_avr if rho_avr > 0 else math.inf
    upsilon = lam_k1 / phi_max if phi_max > 0 else math.inf
    delta, clamped = _solve_delta(psi, k)
    return GapReport(k=k, lambdas=tuple(float(v) for v in eig.values[:k + 1]),
                     rho_avr_proxy=rho_avr, phi_proxy=phi_max, psi=psi,
                     upsilon=upsilon, delta=delta, delta_clamped=clamped,
                     proxy_kind=proxy_kind)


# ---------------------------------------------------------------------------
# Brute-force constants (n <= 12)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionConstants:
    """Exact order-k conductance constants of a small graph.

    ``rho``: best max-conductance over disjoint nonempty k-tuples;
    ``rho_hat``: best max-conductance over k-way partitions; ``rho_avr``:
    minimal average conductance among partitions achieving rho_hat. Ties
    are exact Fraction equality. Exact Fractions ride along for downstream
    exact comparisons. ``optimal_tuples`` lists every k-tuple achieving rho
    as a canonical labelling (blocks numbered in order of first use, -1 for
    an uncovered vertex), in scan order.
    """

    rho: float
    rho_hat: float
    rho_avr: float
    rho_exact: Fraction
    rho_hat_exact: Fraction
    rho_avr_exact: Fraction
    optimal_tuples: tuple[tuple[int, ...], ...]


def bruteforce_partition_constants(g: Graph, k: int) -> PartitionConstants:
    """One scan over canonical labellings with skips (first-use block order;
    -1 = uncovered), keeping per-block cut and volume incrementally. Every
    leaf is a k-tuple; a leaf that covers the whole volume is a partition.
    Conductances are compared by integer cross-multiplication."""
    if g.n > CONSTANTS_MAX_VERTICES:
        raise CapacityError("brute-force constants support n <= %d (got %d)"
                            % (CONSTANTS_MAX_VERTICES, g.n))
    if k < 1 or k > g.n:
        raise InputError("k must be in [1, n]")
    n = g.n
    deg = g.degrees.tolist()
    lower = [[u for u in g.neighbors(v).tolist() if u < v] for v in range(n)]
    total_vol = sum(deg)
    labels = [-1] * n
    cut = [0] * k
    vol = [0] * k
    tuples: list[tuple[int, ...]] = []
    # Worst-block conductance of the best tuple and partition so far, as
    # (numerator, denominator); avg_best is the partitions' tie-breaker.
    rho_num = rho_den = hat_num = hat_den = avg_best = None

    def on_leaf():
        nonlocal rho_num, rho_den, hat_num, hat_den, avg_best
        bn, bd = cut[0], vol[0]
        for b in range(1, k):
            if cut[b] * bd > bn * vol[b]:
                bn, bd = cut[b], vol[b]
        if rho_num is None or bn * rho_den < rho_num * bd:
            rho_num, rho_den = bn, bd
            tuples.clear()
            tuples.append(tuple(labels))
        elif bn * rho_den == rho_num * bd:
            tuples.append(tuple(labels))
        if sum(vol) != total_vol:
            return
        if hat_num is None or bn * hat_den < hat_num * bd:
            hat_num, hat_den = bn, bd
            avg_best = sum(Fraction(cut[b], vol[b]) for b in range(k)) / k
        elif bn * hat_den == hat_num * bd:
            avg_best = min(avg_best, sum(Fraction(cut[b], vol[b]) for b in range(k)) / k)

    def rec(v, used):
        if n - v < k - used:
            return
        if v == n:
            on_leaf()
            return
        rec(v + 1, used)
        d = deg[v]
        inside = [0] * k  # edges from v to labelled earlier vertices, per block
        for u in lower[v]:
            if labels[u] >= 0:
                inside[labels[u]] += 1
        for b in range(min(used + 1, k)):
            dcut = d - 2 * inside[b]
            vol[b] += d
            cut[b] += dcut
            labels[v] = b
            rec(v + 1, used + (b == used))
            vol[b] -= d
            cut[b] -= dcut
        labels[v] = -1

    rec(0, 0)
    rho = Fraction(rho_num, rho_den)
    rho_hat = Fraction(hat_num, hat_den)
    return PartitionConstants(rho=float(rho), rho_hat=float(rho_hat),
                              rho_avr=float(avg_best), rho_exact=rho,
                              rho_hat_exact=rho_hat, rho_avr_exact=avg_best,
                              optimal_tuples=tuple(tuples))


# ---------------------------------------------------------------------------
# Inter-connection constant (n <= 10)
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


def _phi_ic_exact(edges, deg, part_labels, tuple_labels, k):
    """Exact inter-connection objective and average conductance of a
    compatible (partition, tuple) pair, as ``(phi_ic, avg)``.

    Returns None when every non-core part is empty (the pair carries no
    constraint). A zero boundary denominator can only occur with a
    nonpositive numerator and is treated as 0 (empty constraint) or -inf.
    """
    in_core = [t >= 0 for t in tuple_labels]
    has_s = [False] * k
    vol_p = [0] * k
    for v, b in enumerate(part_labels):
        vol_p[b] += deg[v]
        if not in_core[v]:
            has_s[b] = True
    if not any(has_s):
        return None
    cut_p = [0] * k
    s_out = [0] * k
    s_core = [0] * k
    for u, v in edges:
        pu, pv = part_labels[u], part_labels[v]
        if pu != pv:
            cut_p[pu] += 1
            cut_p[pv] += 1
            if not in_core[u]:
                s_out[pu] += 1
            if not in_core[v]:
                s_out[pv] += 1
        else:
            if in_core[u] != in_core[v]:
                s_core[pu] += 1
    best = None
    for i in range(k):
        if not has_s[i]:
            continue
        num = s_out[i] - s_core[i]
        if cut_p[i] == 0:
            ratio = Fraction(0) if num == 0 else None  # None stands for -inf
        else:
            ratio = Fraction(num, cut_p[i])
        if ratio is not None and (best is None or ratio > best):
            best = ratio
    phi_ic = best if best is not None else Fraction(-10 ** 9, 1)
    return phi_ic, sum(Fraction(cut_p[i], vol_p[i]) for i in range(k)) / k


def inter_connection(g: Graph, k: int,
                     constants: PartitionConstants | None = None) -> InterConnection:
    """Exhaustive inter-connection constant for n <= 10.

    Reads the optimal disjoint k-tuples from the constants' optimal_tuples
    and enumerates all their compatible partition completions; raises
    CapacityError if that product exceeds INTERCONNECT_MAX_WORK assignments.
    ``constants``, when given, must be bruteforce_partition_constants(g, k);
    passing it saves that scan.
    """
    if g.n > INTERCONNECT_MAX_VERTICES:
        raise CapacityError("inter-connection supports n <= %d (got %d)"
                            % (INTERCONNECT_MAX_VERTICES, g.n))
    if k < 2 or k > g.n:
        raise InputError("k must be in [2, n]")
    consts = constants if constants is not None else bruteforce_partition_constants(g, k)
    if consts.rho_hat_exact == consts.rho_exact:
        return InterConnection(degenerate=True, rho=consts.rho, rho_hat=consts.rho_hat)

    tuples = consts.optimal_tuples
    work = sum(k ** sum(1 for t in tup if t < 0) for tup in tuples)
    if work > INTERCONNECT_MAX_WORK:
        raise CapacityError("inter-connection enumeration too large (%d assignments)" % work)

    edges = g.edges.tolist()
    deg = g.degrees.tolist()
    best = None  # ((phi_ic, avg_phi), part_labels, tuple_labels)
    for tup in tuples:
        free = [v for v in range(g.n) if tup[v] < 0]
        for combo in itertools.product(range(k), repeat=len(free)):
            part = list(tup)
            for v, b in zip(free, combo):
                part[v] = b
            scored = _phi_ic_exact(edges, deg, part, tup, k)
            if scored is not None and (best is None or scored < best[0]):
                best = (scored, tuple(part), tup)

    if best is None:
        return InterConnection(degenerate=True, rho=consts.rho, rho_hat=consts.rho_hat)
    (rho_p, avg), part_labels, tuple_labels = best
    witness_p = Partition(k, np.asarray(part_labels))
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

    All gap-dependent bounds use psi = lambda_{k+1} / (average conductance of
    ``planted``), the exact quantity they are proved from for this partition.
    ``exact``, when given, must be exact_embedding(g, k); passing it saves
    a second eigensolve.
    """
    emb, eig = exact if exact is not None else exact_embedding(g, k)
    if eig.n < k + 1:
        raise InputError("need at least k+1 eigenvalues")
    gbar = characteristic_vectors(g, planted)
    phis = np.array([float(f) for f in block_conductances(g, planted)])
    vols = np.array([volume(g, planted.labels == i) for i in range(k)], dtype=float)
    lam_k1 = float(eig.values[k])

    avg_phi = float(phis.mean())
    psi = lam_k1 / avg_phi if avg_phi > 0 else math.inf
    delta, delta_clamped = _solve_delta(psi, k)
    psi_note = "psi=%.6g (reference partition)" % psi

    cm = coeff_matrices(eig, gbar, k)
    centers = estimation_centers(cm, vols)

    records: list[CheckRecord] = []

    # Block indicators vs their eigenspace projections (no gap hypothesis).
    proj = eig.vectors[:, :k] @ cm.indicator_coeffs
    for i in range(k):
        lhs = float(np.sum((gbar[:, i] - proj[:, i]) ** 2))
        rhs = phis[i] / lam_k1 if lam_k1 > 0 else math.inf
        records.append(_record("indicator_vs_projection[%d]" % i, lhs, rhs, True))

    # Eigenvectors vs indicator mixes.
    hyp_mix = psi > 4.0 * k ** 1.5
    mix = gbar @ cm.inverse_coeffs
    rhs_mix = (1.0 + 3.0 * k / psi) * k / psi if psi > 0 else math.inf
    for i in range(k):
        lhs = float(np.sum((eig.vectors[:, i] - mix[:, i]) ** 2))
        records.append(_record("eigenvector_vs_indicator_mix[%d]" % i,
                               lhs, rhs_mix, hyp_mix, psi_note))

    # Row Gram of the inverse coefficients: near identity.
    hyp_gram = psi >= _ROW_GRAM_SCALE * k ** 3
    eps_gram = math.sqrt(_ROW_GRAM_SCALE * k ** 3 / psi) if psi > 0 else math.inf
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
    rhs_cost = (1.0 + 3.0 * k / psi) * k ** 2 / psi if psi > 0 else math.inf
    planted_cost = 0.0
    for i in range(k):
        mask = planted.labels == i
        diffs = emb.coords[mask] - centers[i]
        planted_cost += float(np.sum(emb.weights[mask] * np.einsum("ij,ij->i", diffs, diffs)))
    records.append(_record("planted_center_cost", planted_cost, rhs_cost,
                           hyp_mix, psi_note))

    pts = normalized_weighted_pointset(emb)
    sep = separation_ratio(pts, k, seed)
    sep_note = psi_note + "; method=%s" % sep.method
    records.append(_record("optimal_cost_bound", sep.delta_k, rhs_cost,
                           hyp_mix, sep_note))

    # Cost floor for clustering into k-1 groups.
    hyp_floor = (not delta_clamped) and psi > 0
    delta_prime = 2.0 * delta / _GAP_SCALE
    floor = 1.0 / 12.0 - delta_prime / k
    floor_note = sep_note + ("; delta clamped" if delta_clamped else "")
    records.append(_record("merge_cost_floor", floor, sep.delta_km1,
                           hyp_floor, floor_note))

    # Desk-scale surrogate for the separation needed by the seeded clustering.
    records.append(_record("separation_ratio_surrogate", sep.ratio, 1e-3,
                           hyp_gram, sep_note))

    if clustered is not None:
        hyp_rec = (not delta_clamped) and k >= 3 and psi > 0
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
