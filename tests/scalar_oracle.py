"""Scalar reference for the ball oracle.

The RK4 oracle used to integrate one rollout at a time. These functions keep
that implementation: one noise draw and one initial state per
``integrate_ball`` call, and a ``rollout_ball`` that loops over the rollouts.
The batched ``oracle.integrate_ball`` and ``oracle.rollout_ball`` are checked
against them bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from cageintime import ball as ballmod
from cageintime.core import TiltRate
from cageintime.oracle import BallOracleConfig


def in_plane_accel(tilt, plate_accel) -> np.ndarray:
    """Gravity's and the plate's in-plane acceleration a_eff (n,)."""
    n = tilt.shape[0]
    g_theta = ballmod.G * np.sin(tilt)
    a_p = plate_accel[n] * np.sin(tilt) + plate_accel[:n] * np.cos(tilt)
    return g_theta + a_p


def exact_accel(x, v, tilt, plate_accel, ball, eta_m, eta_p, eta_mu) -> np.ndarray:
    a_eff = in_plane_accel(tilt, plate_accel + eta_p)
    return ball.kappa * (1.0 + eta_m) * a_eff - (ball.mu_r + eta_mu) * v


def integrate_ball(
    plan: Sequence[TiltRate],
    trajectory: np.ndarray,
    ball: ballmod.BallParams,
    x0: np.ndarray,
    v0: np.ndarray,
    initial_tilt: np.ndarray,
    dt: float,
    substep: float,
    eta_m: float = 0.0,
    eta_p: Optional[np.ndarray] = None,
    eta_mu: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One rollout; returns (T+1, n) position and velocity traces."""
    n = initial_tilt.shape[0]
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    accels = ballmod.trajectory_accels(traj, dt)
    if eta_p is None:
        eta_p = np.zeros(n + 1)
    x = np.asarray(x0, dtype=float).reshape(n).copy()
    v = np.asarray(v0, dtype=float).reshape(n).copy()
    tilt = initial_tilt.copy()
    xs = [x.copy()]
    vs = [v.copy()]
    m = max(1, int(round(dt / substep)))
    h = dt / m
    for t, action in enumerate(plan):
        u = np.asarray(action.dtheta, dtype=float)
        pa = accels[t]
        for i in range(m):
            tilt_a = tilt + u * (i * h)
            tilt_b = tilt + u * ((i + 0.5) * h)
            tilt_c = tilt + u * ((i + 1) * h)

            def f(state, th):
                xx, vv = state
                return vv, exact_accel(xx, vv, th, pa, ball, eta_m, eta_p, eta_mu)

            k1 = f((x, v), tilt_a)
            k2 = f((x + 0.5 * h * k1[0], v + 0.5 * h * k1[1]), tilt_b)
            k3 = f((x + 0.5 * h * k2[0], v + 0.5 * h * k2[1]), tilt_b)
            k4 = f((x + h * k3[0], v + h * k3[1]), tilt_c)
            x = x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v = v + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        tilt = tilt + u * dt
        xs.append(x.copy())
        vs.append(v.copy())
    return np.array(xs), np.array(vs)


def rollout_ball(
    plan: Sequence[TiltRate],
    trajectory: np.ndarray,
    ball: ballmod.BallParams,
    unc: ballmod.UncertaintyModel,
    cfg: BallOracleConfig,
    half_length: float,
    dt: float,
    initial_tilt: np.ndarray,
    x0_range: tuple[float, float],
    v0_range: tuple[float, float],
) -> tuple[float, np.ndarray]:
    """Success rate and per-rollout max |x|, one ``integrate_ball`` call per
    rollout."""
    rng = np.random.default_rng(cfg.seed)
    n = initial_tilt.shape[0]
    successes = 0
    max_abs = np.zeros(cfg.rollouts)
    for i in range(cfg.rollouts):
        eta_m = rng.normal(0.0, unc.sigma_m) if unc.sigma_m > 0 else 0.0
        eta_mu = rng.normal(0.0, unc.sigma_mu) if unc.sigma_mu > 0 else 0.0
        if np.any(unc.Sigma_p):
            eta_p = rng.multivariate_normal(np.zeros(n + 1), unc.Sigma_p)
        else:
            eta_p = np.zeros(n + 1)
        x0 = rng.uniform(x0_range[0], x0_range[1], size=n)
        v0 = rng.uniform(v0_range[0], v0_range[1], size=n)
        xs, _ = integrate_ball(
            plan, trajectory, ball, x0, v0, initial_tilt, dt, cfg.step,
            eta_m, eta_p, eta_mu,
        )
        m = float(np.max(np.abs(xs)))
        max_abs[i] = m
        if m <= half_length + 1e-12:
            successes += 1
    return successes / cfg.rollouts, max_abs
