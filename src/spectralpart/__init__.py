"""Spectral graph clustering with verifiable structural guarantees.

The pipeline embeds vertices through the k lowest eigenvectors of the
normalized Laplacian (exactly, or approximately via power iteration on a
Gaussian block), clusters the degree-weighted embedding with a seeded
separation-aware k-means, and can measure every structural inequality the
guarantees rest on via the diagnostics module.
"""

import os as _os


def _apply_thread_cap():
    """Copy SPECTRAL_PART_THREADS into the BLAS thread variables not yet set.

    BLAS reads them once, when numpy loads, so this runs before any import
    below pulls numpy in.
    """
    cap = _os.environ.get("SPECTRAL_PART_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ.setdefault(var, cap)


_apply_thread_cap()

from .errors import (CapacityError, DegenerateError, GapError, InputError,
                     NumericError, SpanCollapseError, SpectralPartError)
from .graph import (Graph, Partition, block_conductances, conductance, cut,
                    gen_ring_of_cliques, gen_sbm, match_partitions,
                    partition_avg_phi, partition_phi, read_edge_list,
                    read_partition, sym_diff_volume, volume, write_edge_list,
                    write_partition)
from .kmeans import (Clustering, SeparationEstimate, WeightedPoints,
                     best_of_orss, cost, lloyd_step, optimal_cost_bruteforce,
                     orss_kmeans, separation_ratio)
from .linalg import EigenSystem, gaussian_matrix, rng_stream, sym_eig
from .spectral import (Embedding, LaplacianOps, PowerParams, exact_embedding,
                       normalized_weighted_pointset, power_embedding,
                       projection_distance, read_embedding,
                       required_power_steps, spectrum, write_embedding)
from .diagnostics import (CheckRecord, CoeffMatrices, GapReport,
                          InterConnection, PartitionConstants,
                          bruteforce_partition_constants,
                          characteristic_vectors, coeff_matrices,
                          estimation_centers, gap_report, inter_connection,
                          run_theorem_checks)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "DegenerateError", "GapError", "InputError",
    "NumericError", "SpanCollapseError", "SpectralPartError",
    "Graph", "Partition", "block_conductances", "conductance", "cut",
    "gen_ring_of_cliques", "gen_sbm", "match_partitions", "partition_avg_phi",
    "partition_phi", "read_edge_list", "read_partition", "sym_diff_volume",
    "volume", "write_edge_list", "write_partition",
    "Clustering", "SeparationEstimate", "WeightedPoints", "best_of_orss",
    "cost", "lloyd_step", "optimal_cost_bruteforce", "orss_kmeans",
    "separation_ratio",
    "EigenSystem", "gaussian_matrix", "rng_stream", "sym_eig",
    "Embedding", "LaplacianOps", "PowerParams", "exact_embedding",
    "normalized_weighted_pointset", "power_embedding", "projection_distance",
    "read_embedding", "required_power_steps", "spectrum", "write_embedding",
    "CheckRecord", "CoeffMatrices", "GapReport", "InterConnection",
    "PartitionConstants", "bruteforce_partition_constants",
    "characteristic_vectors", "coeff_matrices", "estimation_centers",
    "gap_report", "inter_connection", "run_theorem_checks",
    "__version__",
]
