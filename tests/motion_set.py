"""Reference for one push's displacement bound.

The planner never builds a single object's motion set: ``propagate_pss``
rasterises the semi-ellipse of every contacted cell at once. These classes
keep the continuous bound for one object position, and the tests check the
propagated set and the oracle's displacements against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from cageintime.core import Vec2
from cageintime.push import PusherPose, segment_distance


@dataclass(frozen=True)
class SemiEllipseMotionSet:
    d_con: float
    push_direction: Vec2
    is_null: bool

    def __post_init__(self):
        if not self.is_null and not 0.0 <= self.d_con:
            raise ValueError("d_con must be nonnegative")

    def contains(self, disp: Vec2, tol: float = 1e-9) -> bool:
        if disp.norm() <= tol:
            return True
        if self.is_null or self.d_con <= tol:
            return False
        d = self.push_direction
        u = disp.x * d.x + disp.y * d.y  # along push direction, must be >= 0
        v = -disp.x * d.y + disp.y * d.x
        if u < -tol:
            return False
        a, b = self.d_con, self.d_con / 2.0
        return u * u / (a * a) + v * v / (b * b) <= 1.0 + tol


def motion_set(q: Vec2, pose: PusherPose, r: float, d_push: float) -> SemiEllipseMotionSet:
    """Displacement bound for an object at q under a push from pose."""
    dist = float(segment_distance(q.as_array()[None, :], pose)[0])
    if dist > r + d_push:
        return SemiEllipseMotionSet(0.0, pose.direction, True)
    d_con = d_push - max(0.0, dist - r)
    d_con = min(max(d_con, 0.0), d_push)
    return SemiEllipseMotionSet(d_con, pose.direction, False)
