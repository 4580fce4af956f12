"""varispace: speaker-embedding variability-space toolkit.

Fit an orthonormal variability space from labeled speaker embeddings, zero
configurable coefficient blocks to build pseudo-speaker embeddings, and
measure the effect on automatic speaker verification with cosine scoring
and pooled equal-error-rate sweeps. Includes a seeded synthetic-population
generator.
"""

from .embeddings import (
    EmbeddingSet,
    Trial,
    TrialList,
    detect_format,
    load_embeddings,
    load_trials,
    save_embeddings,
    save_trials,
)
from .errors import DataError, FormatError, NumericalError, VarispaceError
from .linalg import covariance, eig_sym
from .scoring import (
    EerResult,
    ScoredTrials,
    SweepResult,
    SweepRow,
    build_enrollment,
    compute_eer,
    cosine,
    read_sweep_csv,
    run_sweep,
    score_trials,
    write_sweep_csv,
)
from .space import (
    DeltaSpectrum,
    TurningPoint,
    VariabilitySpace,
    delta_spectrum,
    detect_turning,
    fit,
    load_space,
    log_spectrum,
    project,
    read_spectrum_csv,
    reconstruct,
    save_space,
    write_spectrum_csv,
)
from .subspace import (
    SubspaceSpec,
    modify,
    modify_batch,
    modify_batch_with_energy,
    parse_spec,
    resolve_indices,
)
from .synth import (
    CounterRng,
    PopulationConfig,
    generate,
    load_population_config,
    make_trials,
    parse_population_config,
)

__version__ = "0.1.0"

__all__ = [
    "CounterRng",
    "DataError",
    "DeltaSpectrum",
    "EerResult",
    "EmbeddingSet",
    "FormatError",
    "NumericalError",
    "PopulationConfig",
    "ScoredTrials",
    "SubspaceSpec",
    "SweepResult",
    "SweepRow",
    "Trial",
    "TrialList",
    "TurningPoint",
    "VariabilitySpace",
    "VarispaceError",
    "build_enrollment",
    "compute_eer",
    "cosine",
    "covariance",
    "delta_spectrum",
    "detect_format",
    "detect_turning",
    "eig_sym",
    "fit",
    "generate",
    "load_embeddings",
    "load_population_config",
    "load_space",
    "load_trials",
    "log_spectrum",
    "make_trials",
    "modify",
    "modify_batch",
    "modify_batch_with_energy",
    "parse_population_config",
    "parse_spec",
    "project",
    "read_spectrum_csv",
    "read_sweep_csv",
    "reconstruct",
    "resolve_indices",
    "run_sweep",
    "save_embeddings",
    "save_space",
    "save_trials",
    "score_trials",
    "write_spectrum_csv",
    "write_sweep_csv",
]
