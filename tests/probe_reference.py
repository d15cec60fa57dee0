"""Per-probe reference for the Lie-derivative probes on the line plate.

``ball.lie_derivatives`` used to step each of its 2n+1 probes on its own: a
``ball_step`` per probe (a fresh ``PlateState``, a ``propagate_prob`` and the
cage terms ``e_max`` and ``max_energy``), then a ``clf_value`` of the stepped
belief. This module keeps that loop together with the belief step and the
cage terms it ran, as they were for n = 1, reading only the grid's support,
the plate's tilt, acceleration and a_eff, and the ball and noise parameters.
The stacked ``ball.lie_derivatives`` is checked against it bit for bit, and
the single ``ball.propagate_prob`` too. The square plate's probes are
checked against the 4-D reference in ``dense_belief``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from cageintime import ball as B
from cageintime.core import AllMassLost

_QUAD_OFFSETS = np.arange(-3.0, 4.0)
_QUAD_W = np.exp(-0.5 * _QUAD_OFFSETS**2)
_QUAD_W = _QUAD_W / _QUAD_W.sum()


def inplane_jacobian(plate: B.PlateState) -> np.ndarray:
    T = np.zeros((plate.n, plate.n + 1))
    for i in range(plate.n):
        T[i, i] = math.cos(plate.tilt[i])
        T[i, plate.n] = math.sin(plate.tilt[i])
    return T


def accel_distribution(v, plate, ball, unc):
    v = np.asarray(v, dtype=float)
    k = ball.kappa
    drive = k * plate.a_eff
    mu = drive - ball.mu_r * v
    T = inplane_jacobian(plate)
    var = (
        unc.sigma_m**2 * drive**2
        + k**2 * np.diagonal(T @ unc.Sigma_p @ T.T)
        + unc.sigma_mu**2 * v**2
    )
    return mu, var


def e_max(plate, model) -> float:
    a_eff = plate.a_eff
    l = plate.half_length
    return 0.5 * model.k_ve * l * l - model.mass * abs(float(a_eff[0])) * l


def energy_field(grid, plate, model) -> np.ndarray:
    a_eff = plate.a_eff
    ax, av = grid.x_axis, grid.v_axis
    n = grid.n
    E = np.zeros(len(grid.p))
    for d in range(n):
        E = E + (0.5 * model.k_ve * ax**2 - model.mass * a_eff[d] * ax)[grid.cells[:, d]]
        E = E + (0.5 * model.m_eff * av**2)[grid.cells[:, n + d]]
    return E


def entropy(grid) -> float:
    return float(-np.sum(grid.p * np.log(grid.p)))


def max_energy(grid, plate, model) -> float:
    return float(energy_field(grid, plate, model).max())


def clf_value(grid, plate, model, k_S) -> float:
    E = energy_field(grid, plate, model)
    return float(np.sum(grid.p * E)) - k_S * entropy(grid)


def propagate_prob(grid, plate, ball, unc, dt):
    """One belief step, one plate: (stepped grid, lost mass)."""
    n, N = grid.n, grid.N
    xs, vs, ps = grid.support()
    mu, var = accel_distribution(vs, plate, ball, unc)
    sig = np.sqrt(var)
    offs, wts = _QUAD_OFFSETS[:, None], _QUAD_W
    nodes = mu[:, None, :] + offs[None, :, :] * sig[:, None, :]
    v_new = vs[:, None, :] + nodes * dt
    x_new = np.broadcast_to(xs[:, None, :] + vs[:, None, :] * dt, v_new.shape)
    idx = np.concatenate([np.rint((x_new + grid.x_max) / grid.x_step),
                          np.rint((v_new + grid.v_max) / grid.v_step)], axis=-1)
    ok = np.all((idx >= 0) & (idx <= N - 1), axis=2)
    mass = ps[:, None] * wts[None, :]
    lost = float(mass[~ok].sum())
    if lost >= 1.0 - 1e-12:
        raise AllMassLost("all probability mass left the state box")
    shape = (N,) * (2 * n)
    lin = np.ravel_multi_index(idx[ok].astype(int).T, shape)
    keys, inv = np.unique(lin, return_inverse=True)
    cell_mass = np.bincount(inv, weights=mass[ok])
    keep = cell_mass >= 1e-3 * cell_mass.max()
    cells = np.column_stack(np.unravel_index(keys[keep], shape))
    return B.ProbGrid(n, N, grid.x_max, grid.v_max, cells, cell_mass[keep]), lost


def probe(grid, plate, u, ball, unc, model, params) -> tuple[float, float]:
    """(h, V) after one step under the tilt rate u, as one probe ran it."""
    plate = replace(plate, tilt=plate.tilt + np.asarray(u, dtype=float) * params.dt)
    g2, _ = propagate_prob(grid, plate, ball, unc, params.dt)
    h = e_max(plate, model) - max_energy(g2, plate, model)
    return h, clf_value(g2, plate, model, params.k_S)


def lie_derivatives(grid, plate, ball, unc, model, params, h, V):
    """(Lf_h, Lg_h, Lf_V, Lg_V), one probe after another."""
    n = plate.n
    dt, eps = params.dt, params.eps

    def phi(u):
        return probe(grid, plate, u, ball, unc, model, params)

    h0, V0 = phi(np.zeros(n))
    Lf_h = (h0 - h) / dt
    Lf_V = (V0 - V) / dt
    Lg_h = np.zeros(n)
    Lg_V = np.zeros(n)
    for d in range(n):
        e = np.zeros(n)
        e[d] = eps
        hp, Vp = phi(e)
        hm, Vm = phi(-e)
        Lg_h[d] = (hp - hm) / (2.0 * eps * dt)
        Lg_V[d] = (Vp - Vm) / (2.0 * eps * dt)
    return Lf_h, Lg_h, Lf_V, Lg_V
