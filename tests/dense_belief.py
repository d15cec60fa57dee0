"""Dense reference for the ball belief.

The belief used to be stored as a full (N,)*2n array. These functions keep
that implementation of the grid constructors, the energy cage terms and the
one-step propagation, reading only ``grid.values`` and the grid geometry, so
the support-stored ``ball.ProbGrid`` can be checked against them. ``grid``
builds a ``ProbGrid`` from such a dense array, and ``delta`` a point mass.
"""

from __future__ import annotations

import numpy as np

from cageintime import ball as B


def axes(grid: B.ProbGrid) -> tuple[np.ndarray, np.ndarray]:
    return (np.linspace(-grid.x_max, grid.x_max, grid.N),
            np.linspace(-grid.v_max, grid.v_max, grid.N))


def grid(n, N, x_max, v_max, values) -> B.ProbGrid:
    """The grid holding the nonzero entries of the dense (N,)*2n array values."""
    values = np.asarray(values, dtype=float)
    cells = np.argwhere(values)
    return B.ProbGrid(n, N, x_max, v_max, cells, values[tuple(cells.T)])


def delta_values(n, N, x_max, v_max, x, v) -> np.ndarray:
    vals = np.zeros((N,) * (2 * n))
    xi = np.clip(np.rint((np.atleast_1d(x) + x_max) / (2 * x_max / (N - 1))), 0, N - 1)
    vi = np.clip(np.rint((np.atleast_1d(v) + v_max) / (2 * v_max / (N - 1))), 0, N - 1)
    vals[tuple(int(i) for i in xi) + tuple(int(i) for i in vi)] = 1.0
    return vals


def delta(n, N, x_max, v_max, x, v) -> B.ProbGrid:
    """Point mass at the cell nearest (x, v)."""
    return grid(n, N, x_max, v_max, delta_values(n, N, x_max, v_max, x, v))


def box_values(n, N, x_max, v_max, x_lo, x_hi, v_lo, v_hi) -> np.ndarray:
    """Unnormalized indicator of the box cells."""
    x_lo, x_hi, v_lo, v_hi = (np.broadcast_to(np.atleast_1d(np.asarray(b, float)), (n,))
                              for b in (x_lo, x_hi, v_lo, v_hi))
    ax = np.linspace(-x_max, x_max, N)
    av = np.linspace(-v_max, v_max, N)
    masks = [(ax >= x_lo[d] - 1e-12) & (ax <= x_hi[d] + 1e-12) for d in range(n)]
    masks += [(av >= v_lo[d] - 1e-12) & (av <= v_hi[d] + 1e-12) for d in range(n)]
    vals = np.ones((N,) * (2 * n))
    for axis, mk in enumerate(masks):
        shape = [1] * (2 * n)
        shape[axis] = N
        vals = vals * mk.reshape(shape)
    return vals


def energy_field(grid: B.ProbGrid, plate: B.PlateState, model: B.EnergyModel) -> np.ndarray:
    """Energy of every grid cell, shape (N,)*2n."""
    a_eff = B.plate_frame_accels(plate)
    ax, av = axes(grid)
    n, N = grid.n, grid.N
    E = np.zeros((N,) * (2 * n))
    for d in range(n):
        shape = [1] * (2 * n)
        shape[d] = N
        E = E + (0.5 * model.k_ve * ax**2 - model.mass * a_eff[d] * ax).reshape(shape)
        shape = [1] * (2 * n)
        shape[n + d] = N
        E = E + (0.5 * model.m_eff * av**2).reshape(shape)
    return E


def entropy(grid: B.ProbGrid) -> float:
    vals = grid.values
    p = vals[vals > 0]
    return float(-np.sum(p * np.log(p)))


def max_energy(grid, plate, model) -> float:
    return float(energy_field(grid, plate, model)[grid.values > 0].max())


def clf_value(grid, plate, model, k_S) -> float:
    return float(np.sum(grid.values * energy_field(grid, plate, model))) - k_S * entropy(grid)


def propagate(grid, plate, ball, unc, dt) -> tuple[np.ndarray, float, int]:
    """(normalized dense belief after one step, lost mass, pruned cells)."""
    n, N = grid.n, grid.N
    vals = grid.values
    idx = np.nonzero(vals)
    ps = vals[idx]
    ax, av = axes(grid)
    xs = np.column_stack([ax[idx[d]] for d in range(n)])
    vs = np.column_stack([av[idx[n + d]] for d in range(n)])
    M = xs.shape[0]
    a_eff = B.plate_frame_accels(plate)
    k = ball.kappa
    T = B._inplane_jacobian(plate)
    drive = k * a_eff
    base_var = unc.sigma_m**2 * drive**2 + k**2 * np.diag(T @ unc.Sigma_p @ T.T)
    sig = np.sqrt(base_var[None, :] + unc.sigma_mu**2 * vs**2)
    mu = drive[None, :] - ball.mu_r * vs
    offs1 = np.arange(-3.0, 4.0)
    w1 = np.exp(-0.5 * offs1**2)
    w1 = w1 / w1.sum()
    if n == 1:
        offs = offs1[:, None]
        w = w1
    else:
        o1, o2 = np.meshgrid(offs1, offs1, indexing="ij")
        offs = np.column_stack([o1.ravel(), o2.ravel()])
        wa, wb = np.meshgrid(w1, w1, indexing="ij")
        w = (wa * wb).ravel()
    nodes = mu[:, None, :] + offs[None, :, :] * sig[:, None, :]
    v_new = vs[:, None, :] + nodes * dt
    x_new = np.broadcast_to(xs[:, None, :] + vs[:, None, :] * dt, v_new.shape)
    xi = np.rint((x_new + grid.x_max) / grid.x_step)
    vi = np.rint((v_new + grid.v_max) / grid.v_step)
    ok = np.all((xi >= 0) & (xi <= N - 1) & (vi >= 0) & (vi <= N - 1), axis=2)
    mass = ps[:, None] * np.broadcast_to(w[None, :], (M, len(w)))
    lost = float(mass[~ok].sum())
    flat = np.zeros(N ** (2 * n))
    cells = np.concatenate([xi[ok], vi[ok]], axis=1).astype(int)
    lin = np.zeros(len(cells), dtype=int)
    for col in cells.T:
        lin = lin * N + col
    np.add.at(flat, lin, mass[ok])
    low = (flat > 0) & (flat < 1e-3 * flat.max())
    flat[low] = 0.0
    return (flat / flat.sum()).reshape((N,) * (2 * n)), lost, int(low.sum())
