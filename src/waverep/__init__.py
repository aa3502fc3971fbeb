"""waverep: exact verification toolkit for wavelet sets and their scaling-group operators."""

from .errors import (
    AmbiguousScale,
    BadAnnulus,
    DimensionMismatch,
    ExactModeUnavailable,
    InconsistentTarget,
    InputError,
    LevelExceeded,
    NonDiagonalDilation,
    NotCovered,
    NotExpansive,
    SingularMatrix,
    WaverepError,
    WindowTooSmall,
    ZeroFunction,
)
from .groups import (
    AdicVector,
    DilationMatrix,
    GroupElement,
    RealPoint,
    b_transform,
    character_value,
    phase_exp,
    shift_cocycle,
    validate_dilation,
)

__version__ = "0.1.0"
