"""Dynamic caging for ball-on-plate balancing and catching.

The belief over ball states (position x velocity, n plate dimensions) lives
on a regular probability grid. The plate tilt is the control; an energy
function with a virtual spring defines a time-varying cage whose escape
level is the lowest static energy on the plate boundary. A barrier/Lyapunov
quadratic program picks tilt rates that keep the maximum belief energy
under the escape level while driving expected energy down without
collapsing the belief.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    AllMassLost,
    FailureReason,
    RunLog,
    TiltRate,
    VerificationResult,
    check_plan_length,
)
from . import qp as qpmod

G = 9.81


@dataclass(frozen=True)
class BallParams:
    mass: float  # kg
    radius: float  # m
    inertia: float  # kg m^2
    mu_r: float  # rolling friction rate, 1/s

    def __post_init__(self):
        if min(self.mass, self.radius, self.inertia) <= 0 or self.mu_r < 0:
            raise ValueError("ball parameters must be positive (mu_r nonnegative)")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("effective-mass factor must lie in (0,1)")

    @property
    def m_eff(self) -> float:
        return self.mass + self.inertia / self.radius**2

    @property
    def kappa(self) -> float:
        """Translational share of applied acceleration under pure rolling."""
        return self.mass / (self.mass + self.inertia / self.radius**2)


def tennis_ball(mu_r: float = 0.3) -> BallParams:
    """Hollow-sphere tennis ball: I = (2/3) m r^2, so kappa = 3/5."""
    m, r = 0.058, 0.0335
    return BallParams(mass=m, radius=r, inertia=(2.0 / 3.0) * m * r**2, mu_r=mu_r)


@dataclass(frozen=True)
class UncertaintyModel:
    sigma_m: float  # relative mass error std
    Sigma_p: np.ndarray  # (n+1, n+1) plate accel noise covariance
    sigma_mu: float  # friction error std, 1/s

    def __post_init__(self):
        S = np.asarray(self.Sigma_p, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("Sigma_p must be square")
        if not np.allclose(S, S.T, atol=1e-12):
            raise ValueError("Sigma_p must be symmetric")
        if np.linalg.eigvalsh(S).min() < -1e-12:
            raise ValueError("Sigma_p must be positive semidefinite")
        if self.sigma_m < 0 or self.sigma_mu < 0:
            raise ValueError("noise stds must be nonnegative")
        object.__setattr__(self, "Sigma_p", S)
        S.setflags(write=False)


def _check_tilt(tilt: np.ndarray) -> None:
    if np.any(np.abs(tilt) >= math.pi / 2):
        raise ValueError("tilt magnitude must stay below pi/2")


def _in_plane_accel(tilt: np.ndarray, accel: np.ndarray) -> np.ndarray:
    """a_eff (..., n) of plates at tilts (..., n) under one world plate
    acceleration (n+1,)."""
    n = tilt.shape[-1]
    return G * np.sin(tilt) + (accel[n] * np.sin(tilt) + accel[:n] * np.cos(tilt))


@dataclass(frozen=True)
class PlateState:
    """Plate tilt and world acceleration, and the in-plane acceleration
    a_eff (n,) of gravity and the plate they give per tilt axis: for n=1,
    (g + ddz) sin(theta) + ddx cos(theta). a_eff is computed once, when the
    plate is built; the arrays are read-only, so a changed plate comes from
    ``dataclasses.replace``, which computes it again."""

    n: int
    half_length: float  # m
    tilt: np.ndarray  # (n,) rad
    accel: np.ndarray  # (n+1,) world plate acceleration, m/s^2
    a_eff: np.ndarray = field(init=False, repr=False, compare=False)  # (n,) m/s^2

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("plate dimension must be 1 or 2")
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")
        t = np.asarray(self.tilt, dtype=float).reshape(self.n)
        a = np.asarray(self.accel, dtype=float).reshape(self.n + 1)
        _check_tilt(t)
        a_eff = _in_plane_accel(t, a)
        for name, value in (("tilt", t), ("accel", a), ("a_eff", a_eff)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class EnergyModel:
    k_ve: float  # virtual spring, N/m
    m_eff: float  # kg
    mass: float  # kg, bare mass for the potential term

    def __post_init__(self):
        if self.k_ve <= 0 or self.m_eff <= 0 or self.mass <= 0:
            raise ValueError("energy model parameters must be positive")


@dataclass(frozen=True)
class ControlParams:
    """Controller tuning. The slew limit and the Lie-derivative probe are set
    per task; the other gains and bounds are constants of the controller."""

    beta_max: float = 25.0  # rad/s^2 slew limit
    eps: float = 0.01  # rad/s probe for numerical Lie derivatives

    gamma: ClassVar[float] = 5.0  # 1/s, linear class-K gain
    c: ClassVar[float] = 1.0  # 1/s, Lyapunov decrease rate
    lam: ClassVar[float] = 1.0  # slack weight
    k_S: ClassVar[float] = 0.002  # J, entropy weight
    dtheta_min: ClassVar[float] = -4.0  # rad/s
    dtheta_max: ClassVar[float] = 4.0
    tilt_max: ClassVar[float] = 1.4  # rad, tilt range folded into the rate box
    dt: ClassVar[float] = 0.02  # s

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not self.beta_max >= 0:  # NaN included
            raise ValueError(f"beta_max must be nonnegative, got {self.beta_max}")


@functools.lru_cache(maxsize=None)
def _axis(half_width: float, N: int) -> np.ndarray:
    """Read-only coordinates of N cells spanning [-half_width, half_width],
    shared by every grid on that axis."""
    axis = np.linspace(-half_width, half_width, N)
    axis.setflags(write=False)
    return axis


def _check_dims(n: int, N: int) -> None:
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be odd and at least 3")


class ProbGrid:
    """Probability over the 2n-dimensional (position, velocity) box: the
    product of one (x, v) belief per tilt axis, each on its support. cells
    (M, 2) holds the (x, v) indices of the supported cells and p (M,) their
    positive masses, normalized per axis; axis d's slice of both is
    bounds[d]:bounds[d+1] (one slice on the line, where bounds may be left
    out). Axis coordinate i maps to -max + i*2*max/(N-1)."""

    def __init__(self, n: int, N: int, x_max: float, v_max: float,
                 cells: np.ndarray, p: np.ndarray, bounds=None):
        _check_dims(n, N)
        cells = np.asarray(cells)
        p = np.asarray(p, dtype=float)
        if cells.ndim != 2 or cells.shape[1] != 2 or cells.dtype.kind not in "iu":
            raise ValueError("cells must be integer indices of shape (M, 2)")
        if p.shape != cells.shape[:1]:
            raise ValueError("p must hold one mass per cell")
        bounds = np.asarray((0, len(p)) if bounds is None else bounds)
        b = bounds.tolist()
        if (bounds.shape != (n + 1,) or bounds.dtype.kind not in "iu" or b[0] != 0
                or b[-1] != len(p) or sorted(set(b)) != b):
            raise ValueError(f"bounds must split the support into {n} nonempty slices")
        totals = [p[lo:hi].sum() for lo, hi in zip(b, b[1:])]
        if not (p.min() > 0 and math.isfinite(sum(totals))):
            raise ValueError("masses must be positive with a finite sum")
        if cells.min() < 0 or cells.max() >= N:
            raise ValueError(f"cell indices must lie in [0, {N})")
        self.n, self.N, self.x_max, self.v_max = n, N, x_max, v_max
        self.x_axis, self.v_axis = _axis(x_max, N), _axis(v_max, N)
        self.cells = cells
        self.p = p / np.repeat(totals, bounds[1:] - bounds[:-1])
        self.bounds = bounds
        for a in (cells, self.p, bounds):
            a.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        """The dense (N,)*2n belief over (x[, y], vx[, vy]), built on each access.
        Not for use per step at n = 2: N**4 floats, 344 MB at the default N = 81."""
        planes = [np.zeros((self.N, self.N)) for _ in range(self.n)]
        for plane, lo, hi in zip(planes, self.bounds, self.bounds[1:]):
            plane[tuple(self.cells[lo:hi].T)] = self.p[lo:hi]
        vals = planes[0] if self.n == 1 else np.einsum("ac,bd->abcd", *planes)
        vals.setflags(write=False)
        return vals

    @property
    def x_step(self) -> float:
        return 2.0 * self.x_max / (self.N - 1)

    @property
    def v_step(self) -> float:
        return 2.0 * self.v_max / (self.N - 1)

    def nearest(self, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Axis indices (unclipped floats) of the cells nearest x and v."""
        return np.rint((x + self.x_max) / self.x_step), np.rint((v + self.v_max) / self.v_step)

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(positions (M,n), velocities (M,n), probabilities (M,)) of the product support."""
        rows = np.stack(np.meshgrid(*map(np.arange, self.bounds, self.bounds[1:]),
                                    indexing="ij"), axis=-1).reshape(-1, self.n)
        return (self.x_axis[self.cells[rows, 0]], self.v_axis[self.cells[rows, 1]],
                self.p[rows].prod(axis=1))

    @classmethod
    def box(cls, n: int, N: int, x_max: float, v_max: float,
            x_lo, x_hi, v_lo, v_hi) -> "ProbGrid":
        """Uniform mass over the cells inside the given ranges, one per axis or
        one for all. A range that holds no cell is a ValueError."""
        _check_dims(n, N)
        x_lo, x_hi, v_lo, v_hi = (np.broadcast_to(np.atleast_1d(np.asarray(r, float)), (n,))
                                  for r in (x_lo, x_hi, v_lo, v_hi))
        cells = []
        for d in range(n):
            runs = []
            for name, top, lo, hi in (("position", x_max, x_lo[d], x_hi[d]),
                                      ("velocity", v_max, v_lo[d], v_hi[d])):
                axis = _axis(top, N)
                runs.append(np.flatnonzero((axis >= lo - 1e-12) & (axis <= hi + 1e-12)))
                if runs[-1].size == 0:
                    raise ValueError(f"axis {d}: the {name} range [{lo:g}, {hi:g}] holds no "
                                     f"cell; the cells lie {2.0 * top / (N - 1):g} apart")
            xi, vi = runs
            cells.append(np.column_stack([xi.repeat(len(vi)), np.tile(vi, len(xi))]))
        return cls(n, N, x_max, v_max, np.concatenate(cells), np.ones(sum(map(len, cells))),
                   np.cumsum([0] + [len(c) for c in cells]))


# --- plate-frame kinematics and dynamics ----------------------------------


def _inplane_jacobian(tilt: np.ndarray) -> np.ndarray:
    """d(a_eff)/d(world plate accel) of plates at tilts (..., n), shape
    (..., n, n+1)."""
    n = tilt.shape[-1]
    T = np.zeros(tilt.shape + (n + 1,))
    axes = np.arange(n)
    T[..., axes, axes] = np.cos(tilt)
    T[..., axes, n] = np.sin(tilt)
    return T


class _Plates(NamedTuple):
    """A stack of plates, by their tilts and a_eff (..., n): what the
    belief step reads of a plate."""

    tilt: np.ndarray
    a_eff: np.ndarray


def accel_distribution(
    v: np.ndarray,
    plate: PlateState | _Plates,
    ball: BallParams,
    unc: UncertaintyModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian ball acceleration at velocities v (..., n): mean and
    per-axis variance, both (..., n). The position does not enter. A stack
    of plates broadcasts its leading axes against those of v.

    Mean is the noise-free dynamics; variance is the diagonal of the
    first-order propagation of the mass, plate-acceleration, and friction
    noise channels.
    """
    v = np.asarray(v, dtype=float)
    k = ball.kappa
    drive = k * plate.a_eff  # sensitivity to relative mass error
    mu = drive - ball.mu_r * v
    T = _inplane_jacobian(plate.tilt)
    var = (
        unc.sigma_m**2 * drive**2
        + k**2 * np.diagonal(T @ unc.Sigma_p @ np.swapaxes(T, -1, -2), axis1=-2, axis2=-1)
        + unc.sigma_mu**2 * v**2
    )
    return mu, var


# --- energy cage ----------------------------------------------------------
#
# The energy, its worst and expected value and the entropy of the product
# belief sum over the axes; only the escape level couples them. a_eff is
# (n,) for one plate, with leading axes for a stack (the probes).


def _escape_level(a_eff: np.ndarray, half_length: float, model: EnergyModel) -> np.ndarray:
    """Escape level of plates with in-plane accelerations a_eff (..., n)."""
    l = half_length
    if a_eff.shape[-1] == 1:
        return 0.5 * model.k_ve * l * l - model.mass * np.abs(a_eff[..., 0]) * l
    # square plate: on each edge the static energy is a 1-D quadratic in the
    # free coordinate, lowest at its vertex clipped to the edge
    free = np.clip(model.mass * a_eff / model.k_ve, -l, l)
    b = np.empty(a_eff.shape[:-1] + (4, 2))
    b[..., 0, 0] = b[..., 1, 0] = free[..., 0]
    b[..., 2, 1] = b[..., 3, 1] = free[..., 1]
    b[..., 0, 1] = b[..., 2, 0] = l
    b[..., 1, 1] = b[..., 3, 0] = -l
    stat = 0.5 * model.k_ve * np.sum(b * b, axis=-1) - model.mass * (b @ a_eff[..., None])[..., 0]
    return stat.min(axis=-1)


def e_max(plate: PlateState, model: EnergyModel) -> float:
    """Escape level: lowest static energy on the plate boundary."""
    return float(_escape_level(plate.a_eff, plate.half_length, model))


def _cell_energy(xi: np.ndarray, vi: np.ndarray, x_axis: np.ndarray, v_axis: np.ndarray,
                 a_eff, model: EnergyModel) -> np.ndarray:
    """Spring, tilt-potential and kinetic energy on one axis of the cells (xi, vi)."""
    x = x_axis[xi]
    return (0.5 * model.k_ve * x**2 - model.mass * a_eff * x) + 0.5 * model.m_eff * v_axis[vi] ** 2


def _slice_sums(values: np.ndarray, bounds: np.ndarray) -> list:
    """Sum of each slice bounds[s]:bounds[s+1] of values."""
    b = bounds.tolist()
    return [values[lo:hi].sum() for lo, hi in zip(b, b[1:])]


def _over_axes(per_axis):
    """Sum over the leading (tilt) axis; a single axis is returned as it is."""
    return sum(per_axis[1:], per_axis[0])


def _energy_field(grid: ProbGrid, plate: PlateState, model: EnergyModel) -> np.ndarray:
    """Energy of every supported cell of axis d under a_eff[d], aligned with grid.p."""
    a_eff = plate.a_eff.repeat(grid.bounds[1:] - grid.bounds[:-1])
    return _cell_energy(grid.cells[:, 0], grid.cells[:, 1], grid.x_axis, grid.v_axis, a_eff, model)


def _max_energy(grid: ProbGrid, E: np.ndarray) -> float:
    """Worst energy of the product support: the sum of the per-axis maxima."""
    return float(_over_axes(np.maximum.reduceat(E, grid.bounds[:-1])))


def _lyapunov(grid: ProbGrid, E: np.ndarray, S: float, k_S: float) -> float:
    """``clf_value`` from the energy field E and the entropy S."""
    return float(_over_axes(_slice_sums(grid.p * E, grid.bounds))) - k_S * S


def entropy(grid: ProbGrid) -> float:
    """Entropy of the product belief: the sum of the per-axis entropies."""
    return -float(_over_axes(_slice_sums(grid.p * np.log(grid.p), grid.bounds)))


def max_energy(grid: ProbGrid, plate: PlateState, model: EnergyModel) -> float:
    return _max_energy(grid, _energy_field(grid, plate, model))


def cbf_value(grid: ProbGrid, plate: PlateState, model: EnergyModel) -> float:
    """Barrier: margin between the escape level and the worst supported cell."""
    return e_max(plate, model) - max_energy(grid, plate, model)


def clf_value(grid: ProbGrid, plate: PlateState, model: EnergyModel, k_S: float) -> float:
    """Expected energy minus weighted belief entropy."""
    return _lyapunov(grid, _energy_field(grid, plate, model), entropy(grid), k_S)


# --- belief propagation ---------------------------------------------------

# 7-node rule of the standard Gaussian: node offsets (7, 1) and weights (7,)
_QUAD_OFFSETS = np.arange(-3.0, 4.0)[:, None]
_QUAD_W = np.exp(-0.5 * _QUAD_OFFSETS[:, 0] ** 2)
_QUAD_W = _QUAD_W / _QUAD_W.sum()


def _step_beliefs(
    grid: ProbGrid,
    tilt: np.ndarray,
    a_eff: np.ndarray,
    ball: BallParams,
    unc: UncertaintyModel,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The belief step of ``propagate_prob`` from one grid under R plates at
    once, given by their tilts and a_eff (R, n): slice d * R + r is axis d
    stepped under plate r. Deposits are keyed by destination cell in C order
    over (n * R, N, N), so one sort and one ``np.bincount`` serve every
    slice: bincount sums each key's deposits in input order, which within a
    slice is the order of its own step. Returns the sorted keys of the kept
    cells, their masses (not normalized), the bounds (n * R + 1,) of each
    slice of both, and each slice's lost mass.

    Each slice fails as its own step would, and the first in order first:
    on its tilt (|tilt| >= pi/2, ValueError) before its step, or with
    ``AllMassLost`` when its whole belief leaves the box.
    """
    n, N, R = grid.n, grid.N, len(tilt)
    # (M, n): row m holds each axis's m-th cell, the axes side by side; past
    # an axis's support, massless copies of its last cell
    rows = np.arange(np.diff(grid.bounds).max())[:, None] + grid.bounds[:-1]
    past, rows = rows >= grid.bounds[1:], np.minimum(rows, grid.bounds[1:] - 1)
    cells, ps = grid.cells[rows], np.where(past, 0.0, grid.p[rows])
    xs, vs = grid.x_axis[cells[..., 0]], grid.v_axis[cells[..., 1]]
    mu, var = accel_distribution(vs, _Plates(tilt[:, None], a_eff[:, None]), ball, unc)  # (R, M, n)

    nodes = mu[:, :, None, :] + _QUAD_OFFSETS * np.sqrt(var)[:, :, None, :]  # (R, M, Q, n)
    # one Euler step: the position of each cell, the velocity of each node
    xi, vi = grid.nearest(xs + vs * dt, vs[:, None, :] + nodes * dt)
    ok = ((xi >= 0) & (xi <= N - 1))[:, None, :] & (vi >= 0) & (vi <= N - 1)
    mass = np.multiply(ps[:, None, :], _QUAD_W[:, None], out=np.empty(ok.shape))
    lost = (np.zeros(n * R) if ok.all() else
            np.array([mass[r, ..., d][~ok[r, ..., d]].sum() for d in range(n) for r in range(R)]))
    if lost.max() >= 1.0 - 1e-12 or np.abs(tilt).max() >= math.pi / 2:
        for s in range(n * R):
            _check_tilt(tilt[s % R, s // R])
            if lost[s] >= 1.0 - 1e-12:
                raise AllMassLost("all probability mass left the state box")

    # C-order keys over (n * R, N, N) as floats, exact below 2**53; slice s's
    # keys start at starts[s]
    starts = np.arange(n * R + 1) * float(N * N)
    deposits = ((xi * N)[:, None, :] + vi + starts[:-1].reshape(n, R).T[:, None, None])[ok]
    # np.unique with its inverse costs about twice this sort and search
    keys = np.sort(deposits)
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    cell_mass = np.bincount(np.searchsorted(keys, deposits), weights=mass[ok])
    bounds = np.searchsorted(keys, starts)
    peak = np.maximum.reduceat(cell_mass, bounds[:-1])
    keep = cell_mass >= (1e-3 * peak).repeat(bounds[1:] - bounds[:-1])
    keys = keys[keep]
    return keys.astype(np.intp), cell_mass[keep], np.searchsorted(keys, starts), lost


def propagate_prob(
    grid: ProbGrid,
    plate: PlateState,
    ball: BallParams,
    unc: UncertaintyModel,
    dt: float,
) -> tuple[ProbGrid, float]:
    """One belief step under the already-advanced plate state.

    Each axis's cell spreads its mass over a 7-node quadrature of its
    Gaussian acceleration (``accel_distribution``), deposited at the nearest
    cell of one Euler step. Each axis prunes its cells below 1e-3 of its
    peak, which keeps every cell joint pruning would, and renormalizes. The
    lost mass is the joint belief's, 1 - prod(1 - lost_d). The step is
    ``_step_beliefs`` under a stack of one plate.
    """
    keys, mass, ends, lost = _step_beliefs(grid, plate.tilt[None], plate.a_eff[None], ball, unc, dt)
    _, x, v = np.unravel_index(keys, (grid.n, grid.N, grid.N))
    stepped = ProbGrid(grid.n, grid.N, grid.x_max, grid.v_max, np.column_stack((x, v)), mass, ends)
    return stepped, functools.reduce(lambda a, b: a + (1.0 - a) * b, lost.tolist())


# --- Lie derivatives and the control loop ---------------------------------


def lie_derivatives(
    grid: ProbGrid,
    plate: PlateState,
    ball: BallParams,
    unc: UncertaintyModel,
    model: EnergyModel,
    params: ControlParams,
    h: float,
    V: float,
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Numerical (Lf_h, Lg_h, Lf_V, Lg_V) from the current barrier h and
    Lyapunov value V and 2n+1 one-step probes under the tilt rates 0 and
    +-eps on each axis.

    A probe is a ``ball_step`` followed by the ``clf_value`` of its belief.
    A rate on axis d moves only axis d's belief, so the probes are one
    stacked belief step (``_step_beliefs``) of each axis under the rates 0,
    +eps and -eps, and one energy field. Each slice is reduced, and the axes
    summed, with the numpy calls of the single step, so every probe's
    barrier and Lyapunov value equal its ``ball_step``'s to the bit, and a
    probe fails as its ``ball_step`` would.
    """
    n = plate.n
    dt, eps = params.dt, params.eps
    tilt = plate.tilt + np.array([[0.0], [eps], [-eps]]) * dt  # (3, n)
    a_eff = _in_plane_accel(tilt, plate.accel)
    keys, mass, bounds, _ = _step_beliefs(grid, tilt, a_eff, ball, unc, dt)
    slices, xi, vi = np.unravel_index(keys, (3 * n, grid.N, grid.N))
    E = _cell_energy(xi, vi, grid.x_axis, grid.v_axis, a_eff.T.ravel()[slices], model)
    # each slice's belief normalized on its own, as ProbGrid does
    p = mass / np.repeat(_slice_sums(mass, bounds), bounds[1:] - bounds[:-1])
    per_slice = np.array([np.maximum.reduceat(E, bounds[:-1]), _slice_sums(p * E, bounds),
                          _slice_sums(p * np.log(p), bounds)])
    # probe k's slice on axis d: 3d at rate 0, 3d + 1 and 3d + 2 in probes 1 + 2d and 2 + 2d
    cols = 3 * np.arange(n) + np.array(
        [[0] * n] + [[r * (e == d) for e in range(n)] for d in range(n) for r in (1, 2)])
    top, pE, plogp = _over_axes(per_slice[:, cols].transpose(2, 0, 1))  # each (2n+1,)
    h_probe = _escape_level(a_eff.T.ravel()[cols], plate.half_length, model) - top
    V_probe = pE + params.k_S * plogp  # the entropy is -plogp
    # central differences of the probes +eps and -eps of each axis
    return (float((h_probe[0] - h) / dt), (h_probe[1::2] - h_probe[2::2]) / (2.0 * eps * dt),
            float((V_probe[0] - V) / dt), (V_probe[1::2] - V_probe[2::2]) / (2.0 * eps * dt))


def trajectory_accels(positions: np.ndarray, dt: float) -> np.ndarray:
    """Second differences of the plate path, endpoints padded."""
    p = np.atleast_2d(np.asarray(positions, dtype=float))
    if p.shape[0] < 2:
        return np.zeros_like(p)
    acc = np.zeros_like(p)
    acc[1:-1] = (p[2:] - 2 * p[1:-1] + p[:-2]) / dt**2
    acc[0] = acc[1]
    acc[-1] = acc[-2]
    return acc


def rate_bounds(tilt: np.ndarray, prev_u: np.ndarray,
                params: ControlParams) -> tuple[np.ndarray, np.ndarray]:
    """The tilt-rate rule of one step, shared by the planner and the replay:
    the rate box, the slew limit from the previous rate prev_u, and the
    tilt range folded in. Returns the per-axis bounds (lo, hi); the step has
    no admissible rate where lo >= hi."""
    beta, dt = params.beta_max, params.dt
    lo = np.maximum(params.dtheta_min, prev_u - beta * dt)
    hi = np.minimum(params.dtheta_max, prev_u + beta * dt)
    # fold the tilt range into the rate box so the plate never leaves it:
    # one-step reachability plus a braking bound so the rate can always
    # be slewed to zero before the range boundary
    room_hi = np.maximum(0.0, params.tilt_max - tilt)
    room_lo = np.maximum(0.0, params.tilt_max + tilt)
    if beta > 0:
        cap_hi = beta * (-dt + np.sqrt(dt * dt + 2.0 * room_hi / beta))
        cap_lo = beta * (-dt + np.sqrt(dt * dt + 2.0 * room_lo / beta))
        lo = np.maximum(lo, -cap_lo)
        hi = np.minimum(hi, cap_hi)
    return lo, hi


def ball_step(
    grid: ProbGrid,
    plate: PlateState,
    u,
    ball: BallParams,
    unc: UncertaintyModel,
    model: EnergyModel,
    dt: float,
) -> tuple[ProbGrid, PlateState, dict]:
    """The ball step kernel of the planner and ``replay`` (so of the
    verifier and the renderer): advance the plate's tilt by the rate u over
    dt, holding its acceleration, propagate the belief under the new plate,
    and check the worst supported energy against the escape level. Returns
    the new belief, the new plate and a record of these cage terms. The
    Lie-derivative probes are this step under 2n+1 rates at once
    (``lie_derivatives``), with the same belief-step math and cage terms.
    """
    plate = replace(plate, tilt=plate.tilt + np.asarray(u, dtype=float) * dt)
    grid, lost = propagate_prob(grid, plate, ball, unc, dt)
    emax = e_max(plate, model)
    maxE = max_energy(grid, plate, model)
    record = {"E_max": emax, "max_E": maxE, "lost_mass": lost, "contained": bool(maxE < emax)}
    return grid, plate, record


def dynamic_control(
    initial: ProbGrid,
    trajectory: np.ndarray,  # (T+1, n+1) world plate positions
    ball: BallParams,
    unc: UncertaintyModel,
    model: EnergyModel,
    params: ControlParams,
    initial_tilt: np.ndarray,
) -> tuple[tuple[TiltRate, ...], VerificationResult, RunLog]:
    """Open-loop control synthesis over the plate trajectory.

    At each step the barrier/Lyapunov QP, boxed by ``rate_bounds``, picks
    the tilt rate and ``ball_step`` advances the tilt and the belief. Failure
    is declared when the box is empty or the QP is infeasible, the maximum
    supported energy exceeds the escape level, or a probe or the step loses
    all the belief mass (``AllMassLost``). The plan holds exactly
    the steps taken: it ends before a step that fails with
    ``InfeasibleAction`` or ``AllMassLost`` and includes one that escapes.
    """
    n = initial.n
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    if traj.shape[1] != n + 1:
        raise ValueError(f"trajectory must have {n + 1} columns for n={n}")
    T = traj.shape[0] - 1
    accels = trajectory_accels(traj, params.dt)
    plate = PlateState(n, initial.x_max, initial_tilt, accels[0])
    grid = initial
    prev_u = np.zeros(n)
    dt = params.dt
    log = RunLog()
    steps: list = []
    result = VerificationResult(True)
    S = entropy(grid)
    for t in range(T):
        plate = replace(plate, accel=accels[t])
        E = _energy_field(grid, plate, model)  # one field for cbf_value and clf_value
        emax, top = e_max(plate, model), _max_energy(grid, E)
        h, V = emax - top, _lyapunov(grid, E, S, params.k_S)
        u = np.zeros(n)
        failed = None
        sol = None
        try:
            Lf_h, Lg_h, Lf_V, Lg_V = lie_derivatives(grid, plate, ball, unc, model, params, h, V)
            lo, hi = rate_bounds(plate.tilt, prev_u, params)
            if not np.any(lo >= hi):
                sol = qpmod.solve(
                    qpmod.CbfClfQP(
                        n=n, Lf_h=Lf_h, Lg_h=Lg_h, alpha_h=params.gamma * h,
                        Lf_V=Lf_V, Lg_V=Lg_V, cV=params.c * V, lam=params.lam,
                        lo=lo, hi=hi,
                    )
                )
            if sol is None or not sol.feasible:
                failed = FailureReason.InfeasibleAction
            else:
                u = sol.dtheta
                grid, plate, record = ball_step(grid, plate, u, ball, unc, model, dt)
                S = entropy(grid)
        except AllMassLost:  # from a probe or the step
            failed = FailureReason.AllMassLost
        if failed is not None:
            # the step is not taken, so the plan ends before it; its record
            # stays in the log and reports the cage at the current state
            record = {"E_max": emax, "max_E": top, "lost_mass": 0.0, "contained": False}
        else:
            steps.append(TiltRate.of(u))
            if record["lost_mass"] > 1e-3:
                log.warn(f"step {t}: lost_mass {record['lost_mass']:.4g} exceeds 1e-3")
            if not record["contained"]:
                failed = FailureReason.EscapedCage
        record.update(
            t=t, action={"dtheta": u.tolist()},
            pss_cells=math.prod((grid.bounds[1:] - grid.bounds[:-1]).tolist()),
            cage_center=traj[t + 1, :n].tolist(), h=h, V=V, entropy=S,
            dtheta=u.tolist(), tilt=plate.tilt.tolist(),
            qp_active=list(sol.active) if sol is not None else [],
        )
        log.add(record)
        if failed is not None:
            result = VerificationResult(False, t, failed)
            break
        prev_u = u
    return tuple(steps), result, log


DEFAULT_HORIZON_S = 3.0  # s, the plate path length a config leaves out


def horizon_steps(horizon_s: float, dt: float) -> int:
    """Control steps of dt in a plate path of horizon_s seconds: the one
    conversion of every ball path, which must hold at least one step."""
    if not horizon_s > 0.0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    if not math.isfinite(horizon_s):
        raise ValueError(f"horizon_s must be finite, got {horizon_s}")
    T = int(round(horizon_s / dt))
    if T < 1:
        raise ValueError(f"horizon_s {horizon_s} is shorter than one {dt} s control step")
    return T


@dataclass(frozen=True)
class TaskSetup:
    """Everything one dynamic run needs besides the plate trajectory.

    retreat, when set, is (accel, t_brake): the plate translates along the
    first in-plane axis with constant acceleration accel for t_brake seconds
    and then glides at constant velocity, so the incoming ball is brought to
    rest in the plate frame with the plate level.
    """

    grid: ProbGrid
    ball: BallParams
    unc: UncertaintyModel
    model: EnergyModel
    params: ControlParams
    initial_tilt: np.ndarray
    retreat: Optional[tuple[float, float]] = None

    def trajectory(self, horizon_s: float) -> np.ndarray:
        """Plate path over the given horizon: stationary, or the retreat."""
        T = horizon_steps(horizon_s, self.params.dt)
        path = np.zeros((T + 1, self.grid.n + 1))
        if self.retreat is not None:
            a, t_brake = self.retreat
            t = np.arange(T + 1) * self.params.dt
            ramp = np.where(
                t <= t_brake,
                0.5 * a * t**2,
                0.5 * a * t_brake**2 + a * t_brake * (t - t_brake),
            )
            path[:, 0] = ramp
        return path


def default_uncertainty(n: int) -> UncertaintyModel:
    """Default noise channels: 5% mass and friction error, and a plate
    acceleration bias of 0.002 m/s^2 (a constant-per-run bias of this size
    corresponds to a few centimeters of end-effector path deviation over a
    several-second run, the accuracy class of a position-servoed arm)."""
    return UncertaintyModel(0.05, 0.002**2 * np.eye(n + 1), 0.05)


def balancing_setup(
    n: int = 1,
    N: int = 81,
    half_length: float = 0.08,
    v_max: float = 1.0,
    k_ve: float = 10.0,
    beta_max: float = ControlParams.beta_max,
) -> TaskSetup:
    """Balancing task: belief uniform over 4 mm and 0.02 m/s around rest at
    the plate center, on N cells per axis."""
    b = tennis_ball()
    grid = ProbGrid.box(n, N, half_length, v_max, -0.004, 0.004, -0.02, 0.02)
    model = EnergyModel(k_ve=k_ve, m_eff=b.m_eff, mass=b.mass)
    params = ControlParams(beta_max=beta_max)
    return TaskSetup(grid, b, default_uncertainty(n), model, params, np.zeros(n))


def catching_setup(
    v_center: float = 0.8,
    dv: float = 0.05,
    beta_max: float = ControlParams.beta_max,
    k_ve: float = 60.0,
    N: int = 81,
    half_length: float = 0.15,
    v_max: float = 1.0,
    belief_center: Optional[float] = None,
) -> TaskSetup:
    """Catching task: incoming-ball belief and a momentum-absorbing retreat.

    The ball enters within 4 mm of half the half-length upstream of the
    center, so most of the plate length is available for braking. The plate
    starts level and translates away under the ball with constant
    acceleration sized so the nominal ball comes to rest in the plate frame
    at 0.3 of the half-length past the center; the tilt controller then
    only has to absorb the residual spread. A braking pre-tilt instead of
    the retreat leaves the stopped ball on a slope it must roll back down,
    which the myopic controller cannot recover, so the retreat is the
    default catch motion.

    belief_center shifts the mean of the velocity belief away from the
    nominal speed the retreat is designed for, to model an inaccurate toss.
    """
    b = tennis_ball()
    vc = v_center if belief_center is None else belief_center
    x_entry = -math.copysign(0.5 * half_length, v_center)
    grid = ProbGrid.box(
        1, N, half_length, v_max,
        x_entry - 0.004, x_entry + 0.004,
        vc - dv / 2.0, vc + dv / 2.0,
    )
    model = EnergyModel(k_ve=k_ve, m_eff=b.m_eff, mass=b.mass)
    params = ControlParams(beta_max=beta_max, eps=2.0)
    run = abs(0.3 * half_length * math.copysign(1.0, v_center) - x_entry)
    # plate acceleration that cancels the nominal relative velocity over the
    # run length; the rolling factor kappa scales frame acceleration into
    # ball acceleration, and the sign opposes the incoming velocity
    decel = v_center**2 / (2.0 * run)
    accel = -math.copysign(decel / b.kappa, v_center)
    t_brake = abs(v_center) / decel if decel > 0 else 0.0
    return TaskSetup(
        grid, b, default_uncertainty(1), model, params, np.zeros(1), (accel, t_brake)
    )


def replay(initial: ProbGrid, plan: Sequence[TiltRate], accels: np.ndarray, ball: BallParams,
           unc: UncertaintyModel, model: EnergyModel, params: ControlParams,
           initial_tilt: np.ndarray):
    """The ball replay of the verifier and the renderer: a generator of
    ``(grid, plate, record, failure)`` per step of ``plan``, stepping step t
    with ``ball_step`` under the plate acceleration ``accels[t]``, as
    ``dynamic_control`` does. A rate outside the planner's ``rate_bounds``
    (with 1e-9 slack) is ``InfeasibleAction`` and a step that loses all the
    belief mass is ``AllMassLost``: either yields the state it stepped from,
    with no record, and ends the replay. A step that leaves the cage is
    ``EscapedCage``; otherwise ``failure`` is None."""
    grid = initial
    plate = PlateState(initial.n, initial.x_max, initial_tilt, accels[0])
    prev_u = np.zeros(initial.n)
    for t, action in enumerate(plan):
        u = np.asarray(action.dtheta, dtype=float)
        lo, hi = rate_bounds(plate.tilt, prev_u, params)
        if np.any(u < lo - 1e-9) or np.any(u > hi + 1e-9):
            yield grid, plate, None, FailureReason.InfeasibleAction
            return
        try:
            grid, plate, record = ball_step(grid, replace(plate, accel=accels[t]), u, ball,
                                            unc, model, params.dt)
        except AllMassLost:
            yield grid, plate, None, FailureReason.AllMassLost
            return
        yield grid, plate, record, None if record["contained"] else FailureReason.EscapedCage
        prev_u = u


def verify_ball_plan(initial: ProbGrid, actions: Sequence[TiltRate], trajectory: np.ndarray,
                     ball: BallParams, unc: UncertaintyModel, model: EnergyModel,
                     params: ControlParams, initial_tilt: np.ndarray) -> VerificationResult:
    """Independent replay of a tilt-rate plan: the generic verification
    driver folds the failures of ``replay``, with the rules of
    ``dynamic_control``. A plan shorter than the path replays as its prefix,
    as a failed plan of the planner does; a longer one raises ValueError."""
    from .core import verify_caging_in_time

    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    check_plan_length(actions, traj)
    # known defect: step t under accels[t + 1], one step ahead of the
    # planner's accels[t]; the benchmark pins the verdict this gives
    accels = trajectory_accels(traj, params.dt)[1:]
    return verify_caging_in_time(f for *_, f in replay(
        initial, actions, accels, ball, unc, model, params, initial_tilt))
