"""Brute-force oracle and optimality residuals for the barrier/Lyapunov
quadratic program.

Searches the tilt-rate box on a dense grid; for each candidate the optimal
slack has the closed form delta = max(0, Lf_V + Lg_V.dtheta + cV) because
the objective term lam*delta^2 is minimized at the constraint residual.
``kkt_residuals`` measures how far a solution is from the KKT conditions.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import nnls

from cageintime.qp import CbfClfQP, QPSolution, _constraints


def random_instance(rng: np.random.Generator) -> CbfClfQP:
    n = int(rng.integers(1, 3))
    lo = rng.uniform(-1.0, 0.0, n)
    hi = rng.uniform(0.05, 1.0, n)
    return CbfClfQP(
        n=n,
        Lf_h=float(rng.normal()),
        Lg_h=rng.normal(size=n),
        alpha_h=float(rng.normal()),
        Lf_V=float(rng.normal()),
        Lg_V=rng.normal(size=n),
        cV=float(rng.normal()),
        lam=float(rng.uniform(0.5, 2.0)),
        lo=lo,
        hi=hi,
    )


def _scan(qp: CbfClfQP, axes):
    if qp.n == 1:
        pts = axes[0][:, None]
    else:
        g = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([a.ravel() for a in g])
    inside = np.all((pts >= qp.lo - 1e-12) & (pts <= qp.hi + 1e-12), axis=1)
    barrier = qp.Lf_h + pts @ qp.Lg_h + qp.alpha_h
    ok = inside & (barrier >= -1e-12)
    if not ok.any():
        return None, None
    pts = pts[ok]
    resid = qp.Lf_V + pts @ qp.Lg_V + qp.cV
    delta = np.maximum(0.0, resid)
    obj = np.sum(pts * pts, axis=1) + qp.lam * delta**2
    i = int(np.argmin(obj))
    return float(obj[i]), pts[i]


def grid_search(qp: CbfClfQP, resolution: float = 1e-3, refine_levels: int = 3):
    """Dense grid search at the given resolution, then zoomed refinement
    passes around the incumbent (each pass shrinks the step 20x).

    Returns (best objective, best dtheta), or (None, None) when no grid
    point satisfies the barrier constraint.
    """
    axes = [
        np.arange(qp.lo[d], qp.hi[d] + resolution / 2.0, resolution)
        for d in range(qp.n)
    ]
    best_obj, best = _scan(qp, axes)
    if best_obj is None:
        return None, None
    step = resolution
    for _ in range(refine_levels):
        axes = [best[d] + np.linspace(-2.0 * step, 2.0 * step, 81)
                for d in range(qp.n)]
        obj, pt = _scan(qp, axes)
        if obj is not None and obj < best_obj:
            best_obj, best = obj, pt
        step = step / 20.0
    return best_obj, best


def kkt_residuals(qp: CbfClfQP, sol: QPSolution) -> dict:
    """Stationarity, primal feasibility, and complementarity residuals.

    Dual variables are recovered by nonnegative least squares on the
    near-active constraints.
    """
    z = np.concatenate([sol.dtheta, [sol.delta]])
    A, b = _constraints(qp)
    slack = b - A @ z
    grad = np.concatenate([2.0 * sol.dtheta, [2.0 * qp.lam * sol.delta]])
    act = slack < 1e-6
    mu = np.zeros(A.shape[0])
    if act.any():
        mu_act, _ = nnls(A[act].T, -grad)
        mu[act] = mu_act
    return {
        "stationarity": float(np.max(np.abs(grad + A.T @ mu))),
        "primal": float(max(0.0, -slack.min())),
        "complementarity": float(np.max(np.abs(mu * slack))),
    }
