"""Shared state-space data model and the generic cage verification driver.

The driver folds the per-step failures of a task's replay, so the same fold
serves both the quasi-static pushing task and the dynamic ball-on-plate task.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


class EmptyResult(RuntimeError):
    """A propagation step produced an empty state set (modeling inconsistency)."""


class BadSpec(ValueError):
    """A configuration or trajectory spec is malformed."""


class WaypointSpacingTooLarge(BadSpec):
    """Consecutive waypoints are spaced farther apart than the planner supports."""


class InitialPositionOutsideCage(BadSpec):
    """The start position lies farther than cage_size from the first waypoint."""


class AllMassLost(RuntimeError):
    """All probability mass left the state box during propagation."""


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("Vec2 components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def cell_indices(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the true cells of a 2-D grid, in row-major
    order: what ``np.nonzero`` returns, from one flat scan."""
    return np.divmod(np.flatnonzero(cells), cells.shape[1])


@dataclass(frozen=True)
class PSSGrid:
    """Binary occupancy grid of possible planar object positions.

    The grid is expressed in a frame centered on the (moving) cage:
    ``frame_center`` is the world position of the grid center. Cell (i, j)
    has world coordinates ``frame_center + ((j - (W-1)/2) * rho,
    (i - (H-1)/2) * rho)``.
    """

    cells: np.ndarray  # (H, W) bool
    resolution: float  # length per pixel
    frame_center: Vec2

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.cells.ndim != 2:
            raise ValueError("cells must be a 2D array")
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=bool))
        self.cells.setflags(write=False)

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def is_empty(self) -> bool:
        return not bool(self.cells.any())

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.cells))

    def world(self, ii: np.ndarray, jj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World-frame coordinates (x, y) of the cell centers at row indices
        ii and column indices jj, each shaped like them. Indices outside the
        window map by the same rule."""
        x = self.frame_center.x + (jj - (self.width - 1) / 2.0) * self.resolution
        y = self.frame_center.y + (ii - (self.height - 1) / 2.0) * self.resolution
        return x, y

    def occupied_world(self) -> np.ndarray:
        """World-frame coordinates of occupied cell centers, shape (M, 2)."""
        return np.column_stack(self.world(*cell_indices(self.cells)))

    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        resolution: float,
        frame_center: Vec2,
        shape: tuple[int, int],
    ) -> "PSSGrid":
        """Rasterize world-frame points into a fresh grid (nearest cell)."""
        h, w = shape
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        jj = np.rint((pts[:, 0] - frame_center.x) / resolution + (w - 1) / 2.0).astype(int)
        ii = np.rint((pts[:, 1] - frame_center.y) / resolution + (h - 1) / 2.0).astype(int)
        keep = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
        cells = np.zeros((h, w), dtype=bool)
        cells[ii[keep], jj[keep]] = True
        return cls(cells=cells, resolution=resolution, frame_center=frame_center)


@dataclass(frozen=True)
class CageCircle:
    center: Vec2
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cage radius must be positive")


# --- actions ---------------------------------------------------------------


@dataclass(frozen=True)
class NoAction:
    pass


@dataclass(frozen=True)
class PushAngle:
    theta: float  # radians in [0, 2*pi)
    k: int  # candidate index, 1-based

    def __post_init__(self):
        if not 0.0 <= self.theta < 2.0 * math.pi + 1e-12:
            raise ValueError("push angle must lie in [0, 2*pi)")


@dataclass(frozen=True)
class TiltRate:
    dtheta: tuple[float, ...]  # rad/s per plate dimension

    @classmethod
    def of(cls, values) -> "TiltRate":
        return cls(tuple(float(v) for v in np.atleast_1d(values)))


Action = NoAction | PushAngle | TiltRate


class FailureReason(enum.Enum):
    InfeasibleAction = "InfeasibleAction"
    EscapedCage = "EscapedCage"
    AllMassLost = "AllMassLost"


@dataclass(frozen=True)
class VerificationResult:
    success: bool
    failure_step: Optional[int] = None
    failure_reason: Optional[FailureReason] = None

    def __post_init__(self):
        if self.success != (self.failure_step is None):
            raise ValueError("success must hold exactly when failure_step is absent")


class RunLog:
    """Per-step audit trail, serializable as JSON Lines."""

    def __init__(self):
        self.records: list[dict] = []
        self.warnings: list[str] = []

    def add(self, record: dict) -> None:
        self.records.append(record)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


def action_to_json(action: Action) -> Optional[dict]:
    if isinstance(action, NoAction):
        return None
    if isinstance(action, PushAngle):
        return {"theta": action.theta, "k": action.k}
    if isinstance(action, TiltRate):
        return {"dtheta": list(action.dtheta)}
    raise TypeError(f"unknown action type {type(action)!r}")


# --- operations ------------------------------------------------------------


def verify_caging_in_time(failures: Iterable[Optional[FailureReason]]) -> VerificationResult:
    """Verify that an open-loop plan keeps the state set caged.

    ``failures`` holds, step by step, the failure of a task's replay (its
    ``replay`` generator applies the rules its planner applies), or None when
    the action is feasible and the state lies in the cage at t + 1. Returns
    the first failure, if any, and reads no step past it.
    """
    for t, failure in enumerate(failures):
        if failure is not None:
            return VerificationResult(False, t, failure)
    return VerificationResult(True)


def contains_geometric(pss: PSSGrid, cage: CageCircle) -> bool:
    """True iff every occupied cell center lies within the cage (inclusive).

    An empty grid is vacuously contained.
    """
    if pss.is_empty:
        return True
    pts = pss.occupied_world()
    d2 = (pts[:, 0] - cage.center.x) ** 2 + (pts[:, 1] - cage.center.y) ** 2
    return bool(np.all(d2 <= (cage.radius + 1e-9) ** 2))

