"""Reference trajectory generators: circle, figure-eight, and polylines
resampled at uniform arc-length spacing."""

from __future__ import annotations

import math

import numpy as np

from .core import BadSpec, Vec2


def circle(radius: float, steps: int) -> np.ndarray:
    """Closed circular path: steps points, consecutive gap equals the gap
    between the last point and the first."""
    if radius <= 0 or steps < 2:
        raise BadSpec("circle needs positive radius and at least 2 steps")
    s = 2.0 * math.pi * np.arange(steps) / steps
    return np.column_stack([radius * np.cos(s), radius * np.sin(s)])


def lemniscate(amplitude: float, steps: int, loops: int = 1,
               ease: bool = False) -> np.ndarray:
    """Figure-eight (A sin s, A sin s cos s), passing the origin twice per loop.

    With ease=True the parameter follows a quintic ramp so the path starts
    and ends at rest (zero velocity and acceleration); a path that jumps
    into motion drags anything riding on it with a velocity offset.
    """
    if amplitude <= 0 or steps < 2 or loops < 1:
        raise BadSpec("lemniscate needs positive amplitude, steps >= 2, loops >= 1")
    tau = np.linspace(0.0, 1.0, steps)
    if ease:
        tau = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
    s = 2.0 * math.pi * loops * tau
    return np.column_stack([amplitude * np.sin(s), amplitude * np.sin(s) * np.cos(s)])


def resample_polyline(points: np.ndarray, spacing: float) -> np.ndarray:
    """Resample a polyline at uniform arc-length spacing."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2 or pts.shape[1] != 2:
        raise BadSpec("polyline needs at least two 2D points")
    if spacing <= 0:
        raise BadSpec("spacing must be positive")
    seg = np.diff(pts, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    total = cum[-1]
    if total <= 0:
        raise BadSpec("polyline has zero length")
    m = max(2, int(round(total / spacing)) + 1)
    s = np.linspace(0.0, total, m)
    x = np.interp(s, cum, pts[:, 0])
    y = np.interp(s, cum, pts[:, 1])
    return np.column_stack([x, y])


def smooth_path(points: np.ndarray, window: int, passes: int = 1) -> np.ndarray:
    """Round polyline corners with repeated centered moving averages.

    Endpoints are held by edge-padding, so the path still starts and ends at
    the original points. Corner rounding bounds the acceleration spikes a
    finite-difference reading of the path would otherwise see at kinks.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if window < 1 or passes < 1:
        raise BadSpec("smooth_path needs window >= 1 and passes >= 1")
    if window % 2 == 0:
        window += 1
    if pts.shape[0] < 3 or window == 1:
        return pts.copy()
    kernel = np.ones(window) / window
    half = window // 2
    out = pts.copy()
    for _ in range(passes):
        padded = np.pad(out, ((half, half), (0, 0)), mode="edge")
        out = np.column_stack(
            [np.convolve(padded[:, d], kernel, mode="valid") for d in range(out.shape[1])]
        )
        out[0] = pts[0]
        out[-1] = pts[-1]
    return out


def as_vec2_list(points: np.ndarray) -> list[Vec2]:
    return [Vec2(float(p[0]), float(p[1])) for p in np.atleast_2d(points)]
