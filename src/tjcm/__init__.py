"""Exact dynamics and entropy-squeezing diagnostics for two two-level
atoms exchanging l photons at a time with one resonant cavity mode.

The analytic route diagonalizes the excitation-conserving 4x4 blocks of
the interaction and assembles single-atom reduced states from the block
amplitudes; an independent brute-force route (RK4 on the full product
space plus a direct partial trace) verifies it.  A CLI emits the standard
figure presets and free parameter scans as CSV time series.
"""

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    ResourceRefusalError,
    StepSizeError,
    TjcmError,
    TruncationError,
    UsageError,
)
from .jcm import tjcm_harmonic_sy
from .observables import (
    BlochVector,
    binary_entropy_of_mean,
    bloch,
    entropy_squeezing,
    eur_residual,
    variance_squeezing,
    von_neumann,
)
from .params import FockWeights, ModelParams, coherent_weights
from .reduced import AtomId, ReducedAtomState, reduced_states, swap_transform
from .scan import (
    PRESET_CONFIGS,
    PRESET_NAMES,
    ScanConfig,
    TimeSeries,
    VerifyReport,
    read_csv,
    run_preset,
    run_scan,
    run_verify,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AtomId",
    "BlochVector",
    "FockWeights",
    "InternalConsistencyError",
    "InvalidParameterError",
    "ModelParams",
    "PRESET_CONFIGS",
    "PRESET_NAMES",
    "ReducedAtomState",
    "ResourceRefusalError",
    "ScanConfig",
    "StepSizeError",
    "TimeSeries",
    "TjcmError",
    "TruncationError",
    "UsageError",
    "VerifyReport",
    "binary_entropy_of_mean",
    "bloch",
    "coherent_weights",
    "entropy_squeezing",
    "eur_residual",
    "read_csv",
    "reduced_states",
    "run_preset",
    "run_scan",
    "run_verify",
    "swap_transform",
    "tjcm_harmonic_sy",
    "variance_squeezing",
    "von_neumann",
    "write_csv",
]
