"""Scalar reference for the push heuristic.

``push.heuristic_score`` used to score one candidate angle per call, and
``find_push`` called it K times per step. This module keeps that
implementation, which projects every POA cell onto every line. The batched
``push.heuristic_score`` projects each POA cell outside the circle of
radius R only onto the lines of the angles in its window, the angles it can
lie past, and is checked against it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from cageintime.core import CageCircle, PSSGrid


def heuristic_score(
    poa: PSSGrid,
    theta_k: float,
    cage_next: CageCircle,
    lambda1: float,
    lambda2: float,
    R: float,
) -> float:
    """Outlier score for one candidate angle."""
    nx, ny = math.cos(theta_k), math.sin(theta_k)
    px, py = cage_next.center.x + R * nx, cage_next.center.y + R * ny
    x, y = poa.world(*np.nonzero(poa.cells))
    s = (x - px) * nx + (y - py) * ny
    out = s > 1e-9
    if not out.any():
        return 0.0
    rho = poa.resolution
    s_out = float(out.sum()) * rho * rho
    d_out = float(s[out].max())
    cage_area = math.pi * cage_next.radius**2
    return lambda1 * (s_out / cage_area) + lambda2 * (d_out / cage_next.radius) ** 2


def scores(poa, thetas, cage_next, lambda1, lambda2, R) -> np.ndarray:
    """All K scores, one scalar call per angle, as ``find_push`` made them."""
    return np.array([heuristic_score(poa, th, cage_next, lambda1, lambda2, R) for th in thetas])
