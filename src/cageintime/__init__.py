"""Planning and verification toolkit for open-loop manipulation with
time-varying cages: quasi-static pushing and dynamic ball-on-plate control."""

from .core import (
    CageCircle,
    FailureReason,
    NoAction,
    PSSGrid,
    PushAngle,
    RunLog,
    TiltRate,
    Vec2,
    VerificationResult,
    contains_geometric,
    verify_caging_in_time,
)

__all__ = [
    "CageCircle",
    "FailureReason",
    "NoAction",
    "PSSGrid",
    "PushAngle",
    "RunLog",
    "TiltRate",
    "Vec2",
    "VerificationResult",
    "contains_geometric",
    "verify_caging_in_time",
]

__version__ = "0.1.0"
