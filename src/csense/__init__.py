"""Compressive sensing toolkit built around the coherence index.

Measurement-matrix construction (partial DFT, equiangular tight frames,
Gaussian, subsampling), uniqueness analytics (coherence, Welch bound,
rank scans, brute-force isometry constants), matching-pursuit recovery
with an exhaustive ground-truth search, and a Monte Carlo harness.
"""

from .coherence import (
    CoherenceReport,
    RipReport,
    UniquenessReport,
    coherence_index,
    max_sparsity,
    rip_constant,
    sparsity_bound,
    uniqueness_rank_scan,
    welch_bound,
)
from .errors import (
    DimensionMismatchError,
    InfeasibleScanError,
    NotHermitianError,
    RankDeficientError,
    UnsupportedSizeError,
    ZeroColumnError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    SubsetScore,
    run_experiment,
    sweep_partial_dft_subsets,
)
from .matrices import (
    MeasurementMatrix,
    build_etf,
    build_gaussian,
    build_partial_dft,
    build_subsampling_rows,
    from_spec,
    load_matrix,
    normalize_columns,
    restrict_columns,
    sample_rows,
    save_matrix,
)
from .recovery import (
    InitialEstimate,
    L0Solution,
    MarginReport,
    RecoveryResult,
    SparseSignal,
    back_project,
    decompose_initial_estimate,
    exhaustive_l0_search,
    load_measurement,
    load_signal,
    ls_recover_known_support,
    matching_pursuit,
    measure,
    pursue_batch,
    save_measurement,
    save_signal,
    worst_case_margin,
)
from .serialization import to_dict

__version__ = "0.1.0"
