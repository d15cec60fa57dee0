"""Independent ground-truth physics and baseline controllers.

These simulators validate the planners from the outside: a rotation-bounded
pushing integrator, an exact nonlinear ball-on-plate integrator, a
proportional feedback baseline with sensing defects, and the planning
sensitivity sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, Optional, Sequence

import numpy as np

from .core import Action, PushAngle, TiltRate, Vec2
from .push import PushProblem, PusherPose, plan_push, pusher_pose
from . import ball as ballmod
from . import trajectories as trajmod


@dataclass(frozen=True)
class PushOracleConfig:
    object_radius: float = 25.0  # a, true bounding radius (<= planner r)
    seed: int = 0

    c_range: ClassVar[tuple[float, float]] = (15.0, 25.0)  # contact-distance samples
    delta_m: ClassVar[float] = 0.5  # micro-step, mm

    def __post_init__(self):
        if not math.isfinite(self.object_radius):
            raise ValueError(f"oracle_radius_mm: object radius must be finite, "
                             f"got {self.object_radius}")
        if not self.delta_m < self.object_radius / 4.0:
            raise ValueError("oracle_radius_mm: object radius must exceed 4 micro-steps")


def peshkin_delta_beta(a: float, c: float, beta0: float, m: float) -> float:
    """Largest possible rotation of the pushed object per pusher travel m."""
    return c * math.sin(beta0) / (a * a + c * c) * m


def simulate_push(
    q0: Vec2,
    pose: PusherPose,
    d_push: float,
    cfg: PushOracleConfig,
    rng: np.random.Generator,
) -> Vec2:
    """Ground-truth displacement of one push.

    The pusher advances in micro-steps after first touching the bounding
    circle. Each micro-step the object may rotate by a random fraction of
    the rotation bound, converting forward motion into lateral slip. Two
    physical constraints are enforced per step: a rigid quasi-static object
    cannot move farther than it was pushed, and the cumulative displacement
    stays inside the friction-theory semi-ellipse grown to the contact
    travel so far.

    A push that never reaches the bounding circle is a no-op (zero
    displacement) and draws nothing. A push with n micro-steps draws
    ``rng.random(1 + 2 * n)`` once, read in order: the rotation side, then
    per micro-step the contact distance c (uniform over ``c_range``) and the
    rotation fraction. That is the stream of one scalar draw per number, so
    a rollout keeps one generator for all its pushes.
    """
    a = cfg.object_radius
    d = pose.direction
    tx, ty = -d.y, d.x  # pose.tangent
    # distance to the pusher segment, in the operation order of
    # segment_distance
    rel_x = q0.x - pose.center.x
    rel_y = q0.y - pose.center.y
    along = min(max(rel_x * tx + rel_y * ty, -pose.half_length), pose.half_length)
    dist0 = float(np.hypot(rel_x - along * tx, rel_y - along * ty))
    s0 = max(0.0, dist0 - a)
    d_con = d_push - s0
    if d_con <= 0.0:
        return Vec2(0.0, 0.0)

    steps = []
    s = 0.0
    while s < d_con - 1e-12:
        step = min(cfg.delta_m, d_con - s)
        steps.append(step)
        s += step
    r = rng.random(1 + 2 * len(steps)).tolist()
    side = 1.0 if r[0] < 0.5 else -1.0
    lo, hi = cfg.c_range
    span, a2, neg_a = hi - lo, a * a, -a
    beta = math.pi / 2.0
    u = 0.0  # along the push direction
    v = 0.0  # along the pusher segment
    s = 0.0
    for step, c_draw, frac in zip(steps, r[1::2], r[2::2]):
        c = lo + span * c_draw  # rng.uniform(lo, hi)
        sb = math.sin(beta)
        # peshkin_delta_beta(a, c, beta, step), in its operation order
        dbeta = side * frac * (c * sb / (a2 + c * c) * step)
        dv = neg_a * sb * dbeta
        du = step + a * math.cos(beta) * dbeta
        # rigid quasi-static bound: the object cannot outrun the pusher
        mag = math.hypot(du, dv)
        if mag > step:
            du *= step / mag
            dv *= step / mag
        u += du
        v += dv
        beta += dbeta
        s += step
        # stay inside the semi-ellipse grown to the travel so far
        if u < 0.0:
            u = 0.0
        q = (u / s) ** 2 + (v / (s / 2.0)) ** 2
        if q > 1.0:
            scale = 1.0 / math.sqrt(q)
            u *= scale
            v *= scale
    return Vec2(u * d.x + v * tx, u * d.y + v * ty)


def rollout_push_plan(
    plan: Sequence[Action],
    problem: PushProblem,
    q0: Vec2,
    cfg: PushOracleConfig,
    rng: np.random.Generator,
) -> tuple[list[Vec2], float]:
    """Execute an open-loop push plan against the ground-truth simulator.

    Returns the object position after every step and the maximum distance
    to the reference waypoint.
    """
    q = q0
    positions = [q]
    max_err = (q - problem.trajectory[0]).norm()
    for t, action in enumerate(plan):
        if isinstance(action, PushAngle):
            pose = pusher_pose(
                problem.trajectory[t + 1], problem.R, action.theta,
                problem.pusher_length / 2.0,
            )
            disp = simulate_push(q, pose, problem.d_push, cfg, rng)
            q = q + disp
        positions.append(q)
        err = (q - problem.trajectory[t + 1]).norm()
        max_err = max(max_err, err)
    return positions, max_err


def push_rollouts(plan: Sequence[Action], problem: PushProblem, q0: Vec2, cfg: PushOracleConfig,
                  rollouts: int) -> list[tuple[list[Vec2], float]]:
    """Each seeded rollout's ``rollout_push_plan`` result; rollout i draws
    from ``np.random.default_rng(cfg.seed + i)``."""
    return [rollout_push_plan(plan, problem, q0, cfg, np.random.default_rng(cfg.seed + i))
            for i in range(rollouts)]


def naive_tangent_rollout(
    problem: PushProblem,
    q0: Vec2,
    cfg: PushOracleConfig,
    rng: np.random.Generator,
) -> tuple[list[Vec2], float, Optional[int]]:
    """Baseline pusher that follows the trajectory with its push direction
    parallel to the direction of travel, pushing blindly each step.

    Returns positions, the max tracking error, and the first step at which
    the error exceeded the cage size (None if it never did).
    """
    q = q0
    positions = [q]
    max_err = (q - problem.trajectory[0]).norm()
    lost_at: Optional[int] = None
    for t in range(len(problem.trajectory) - 1):
        w0, w1 = problem.trajectory[t], problem.trajectory[t + 1]
        d = w1 - w0
        norm = d.norm()
        if norm > 1e-12:
            dhat = Vec2(d.x / norm, d.y / norm)
            center = Vec2(w0.x - dhat.x * problem.R, w0.y - dhat.y * problem.R)
            pose = PusherPose(center, dhat, problem.pusher_length / 2.0)
            disp = simulate_push(q, pose, problem.d_push, cfg, rng)
            q = q + disp
        positions.append(q)
        err = (q - w1).norm()
        max_err = max(max_err, err)
        if lost_at is None and err > problem.cage_size:
            lost_at = t
    return positions, max_err, lost_at


# --- proportional feedback baseline ---------------------------------------


@dataclass(frozen=True)
class PControllerConfig:
    gain: float = 1.0
    noise_sigma: float = 0.0  # mm per axis
    lag: bool = False  # 50% chance of a 0.5 s or 1.0 s stale observation
    seed: int = 0

    cap: ClassVar[float] = 20.0  # mm
    step_period: ClassVar[float] = 0.1  # s per control step


def p_controller_step(
    obj: Vec2,
    trajectory: Sequence[Vec2],
    cfg: PControllerConfig,
    rng: np.random.Generator,
    history: Sequence[Vec2],
) -> Vec2:
    """One proportional push command toward the nearest waypoint.

    The observation may be corrupted by Gaussian noise and, with probability
    one half, replaced by the object position from 0.5 or 1.0 seconds ago.
    """
    obs = obj
    if cfg.lag and history and rng.random() < 0.5:
        lag_s = 0.5 if rng.random() < 0.5 else 1.0
        back = max(1, int(round(lag_s / cfg.step_period)))
        obs = history[max(0, len(history) - back)]
    if cfg.noise_sigma > 0:
        obs = Vec2(
            obs.x + rng.normal(0.0, cfg.noise_sigma),
            obs.y + rng.normal(0.0, cfg.noise_sigma),
        )
    nearest = min(trajectory, key=lambda w: (w - obs).norm())
    err = nearest - obs
    cmd = Vec2(cfg.gain * err.x, cfg.gain * err.y)
    mag = cmd.norm()
    if mag > cfg.cap:
        cmd = Vec2(cmd.x * cfg.cap / mag, cmd.y * cfg.cap / mag)
    return cmd


def p_controller_rollout(
    trajectory: Sequence[Vec2],
    q0: Vec2,
    cfg: PControllerConfig,
) -> tuple[list[Vec2], float]:
    """Track the trajectory with proportional pushes under ideal actuation.

    At step t the controller aims for waypoint t+1 and nearby waypoints
    (the nearest-waypoint rule is applied over a sliding window so progress
    along the path is forced). Returns positions and max tracking error.
    """
    rng = np.random.default_rng(cfg.seed)
    q = q0
    positions = [q]
    history: list[Vec2] = [q]
    max_err = 0.0
    for t in range(len(trajectory) - 1):
        window = trajectory[t + 1 : t + 2]
        cmd = p_controller_step(q, window, cfg, rng, history)
        q = q + cmd
        positions.append(q)
        history.append(q)
        max_err = max(max_err, (q - trajectory[t + 1]).norm())
    return positions, max_err


# --- ball-on-plate ground truth -------------------------------------------


@dataclass(frozen=True)
class BallOracleConfig:
    rollouts: int = 20
    seed: int = 0

    step: ClassVar[float] = 0.002  # s, integrator substep (<= dt/10)

    def __post_init__(self):
        if self.rollouts < 1:
            raise ValueError(f"rollouts must be at least 1, got {self.rollouts}")


def _accel(v, sin, cos, noisy, gain, drag) -> np.ndarray:
    """Exact ball acceleration from the tilt's sine and cosine, the noisy
    plate acceleration, the noisy gain kappa * (1 + eta_m) and the noisy
    friction mu_r + eta_mu. The tilt terms have shape (n,); the rest may
    carry a leading rollout axis."""
    n = sin.shape[0]
    a_eff = ballmod.G * sin + (noisy[..., n:] * sin + noisy[..., :n] * cos)
    return gain * a_eff - drag * v


def integrate_ball(
    plan: Sequence[TiltRate],
    trajectory: np.ndarray,
    ball: ballmod.BallParams,
    x0: np.ndarray,
    v0: np.ndarray,
    initial_tilt: np.ndarray,
    dt: float,
    substep: float,
    eta_m=0.0,
    eta_p: Optional[np.ndarray] = None,
    eta_mu=0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step 4th-order rollouts of the exact dynamics, all advanced
    together.

    x0 and v0 hold one initial state per row, shape (R, n); a 1-D state is
    one rollout. Each rollout keeps one constant noise draw: eta_m and eta_mu
    of shape (R, 1) and eta_p of shape (R, n+1); a scalar or 1-D draw is
    shared by every rollout. Tilt follows the planned rates piecewise-linearly
    and is the same for every rollout; plate acceleration is
    piecewise-constant from second differences of the plate path. Returns
    position and velocity traces of shape (T+1, R, n), sampled at every
    control step.
    """
    n = initial_tilt.shape[0]
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    accels = ballmod.trajectory_accels(traj, dt)
    if eta_p is None:
        eta_p = np.zeros(n + 1)
    x = np.atleast_2d(np.asarray(x0, dtype=float))
    v = np.atleast_2d(np.asarray(v0, dtype=float))
    gain = ball.kappa * (1.0 + eta_m)
    drag = ball.mu_r + eta_mu
    tilt = initial_tilt.copy()
    xs = [x]
    vs = [v]
    m = max(1, int(round(dt / substep)))
    h = dt / m
    half = 0.5 * h
    sixth = h / 6.0
    for t, action in enumerate(plan):
        u = np.asarray(action.dtheta, dtype=float)
        noisy = accels[min(t, accels.shape[0] - 1)] + eta_p
        for i in range(m):
            tilt_a = tilt + u * (i * h)
            tilt_b = tilt + u * ((i + 0.5) * h)
            tilt_c = tilt + u * ((i + 1) * h)
            sin_b, cos_b = np.sin(tilt_b), np.cos(tilt_b)
            # position never enters the acceleration, so each stage's
            # position slope is its velocity
            a1 = _accel(v, np.sin(tilt_a), np.cos(tilt_a), noisy, gain, drag)
            v2 = v + half * a1
            a2 = _accel(v2, sin_b, cos_b, noisy, gain, drag)
            v3 = v + half * a2
            a3 = _accel(v3, sin_b, cos_b, noisy, gain, drag)
            v4 = v + h * a3
            a4 = _accel(v4, np.sin(tilt_c), np.cos(tilt_c), noisy, gain, drag)
            x = x + sixth * (v + 2 * v2 + 2 * v3 + v4)
            v = v + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
        tilt = tilt + u * dt
        xs.append(x)
        vs.append(v)
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
    """Monte-Carlo validation of a tilt plan against the exact dynamics.

    Each rollout draws one constant parameter-noise sample and an initial
    state uniformly from the given ranges; success means the ball stays on
    the plate (|x| <= half_length componentwise) throughout. All rollouts
    are integrated as one batch. Returns the success rate and per-rollout
    max |x|.
    """
    rng = np.random.default_rng(cfg.seed)
    n = initial_tilt.shape[0]
    R = cfg.rollouts
    eta_m, eta_mu = np.zeros((R, 1)), np.zeros((R, 1))
    eta_p = np.zeros((R, n + 1))
    x0, v0 = np.zeros((R, n)), np.zeros((R, n))
    for i in range(R):
        if unc.sigma_m > 0:
            eta_m[i] = rng.normal(0.0, unc.sigma_m)
        if unc.sigma_mu > 0:
            eta_mu[i] = rng.normal(0.0, unc.sigma_mu)
        if np.any(unc.Sigma_p):
            eta_p[i] = rng.multivariate_normal(np.zeros(n + 1), unc.Sigma_p)
        x0[i] = rng.uniform(x0_range[0], x0_range[1], size=n)
        v0[i] = rng.uniform(v0_range[0], v0_range[1], size=n)
    xs, _ = integrate_ball(
        plan, trajectory, ball, x0, v0, initial_tilt, dt, cfg.step,
        eta_m, eta_p, eta_mu,
    )
    max_abs = np.max(np.abs(xs), axis=(0, 2))
    successes = int(np.count_nonzero(max_abs <= half_length + 1e-12))
    return successes / R, max_abs


# --- sweeps: catching sensitivity and the push grid ------------------------


@dataclass(frozen=True)
class SweepCell:
    """One (mean initial speed, speed uncertainty, slew bound) cell of the
    sweep: one catching setup per trial and the retreat they all follow."""

    v0: float
    dv0: float
    beta_max: float
    setups: tuple[ballmod.TaskSetup, ...]
    trajectory: np.ndarray


def sweep_cells(
    v0_grid: Sequence[float],
    dv0_grid: Sequence[float],
    beta_grid: Sequence[float],
    trials: int,
    seed: int = 0,
    horizon_s: float = ballmod.DEFAULT_HORIZON_S,
) -> list[SweepCell]:
    """Every cell's trial setups, built before anything is planned, so a
    grid value the catching task rejects raises ValueError here.

    Each trial runs the catching retreat designed for the nominal speed,
    with the belief mean jittered to model an inaccurate toss; the jitters
    come from one generator per cell.
    """
    cells = []
    for beta in beta_grid:
        for v0 in v0_grid:
            for dv0 in dv0_grid:
                rng = np.random.default_rng(
                    seed + hash((round(v0, 6), round(dv0, 6), round(beta, 6))) % (2**31)
                )
                setups = tuple(
                    ballmod.catching_setup(
                        v0, dv0, beta_max=beta,
                        belief_center=v0 + rng.uniform(-0.025, 0.025),
                    )
                    for _ in range(trials)
                )
                cells.append(SweepCell(
                    float(v0), float(dv0), float(beta), setups,
                    setups[0].trajectory(horizon_s),
                ))
    return cells


SWEEP_COLUMNS = ("v0", "dv0", "beta_max", "success_rate")


def sensitivity_sweep(cells: Sequence[SweepCell]) -> list[dict]:
    """Planning-feasibility success rates for the catching task.

    Runs the open-loop synthesis for every trial of every cell; success is
    a feasible, contained plan. Returns one row per cell:
    {v0, dv0, beta_max, success_rate}.
    """
    rows = []
    for cell in cells:
        ok = 0
        for setup in cell.setups:
            _, result, _ = ballmod.dynamic_control(
                setup.grid, cell.trajectory, setup.ball, setup.unc,
                setup.model, setup.params, setup.initial_tilt,
            )
            if result.success:
                ok += 1
        rows.append(
            {
                "v0": cell.v0,
                "dv0": cell.dv0,
                "beta_max": cell.beta_max,
                "success_rate": ok / len(cell.setups),
            }
        )
    return rows


PUSH_GRID_COLUMNS = ("cage", "K", "planned", "mae_mm", "max_mm", "contained")


def push_grid_cells(circle_steps: Mapping[float, int], Ks: Sequence[int]) -> list[PushProblem]:
    """Every (cage size, K) cell's problem, built before anything is planned,
    so a value ``PushProblem`` rejects raises ValueError here.

    circle_steps maps each cage size to its waypoint count on a 150 mm circle
    closed on its first waypoint. The push depth follows the cage size,
    floored at 12 mm and capped at 30 mm so the per-push motion set stays
    inside a large cage.
    """
    circles = {cage: trajmod.as_vec2_list(trajmod.circle(150.0, steps))
               for cage, steps in circle_steps.items()}
    return [PushProblem(cage_size=cage, K=K, d_push=min(max(cage, 12.0), 30.0),
                        trajectory=(*waypoints, waypoints[0]))
            for cage, waypoints in circles.items() for K in Ks]


def push_grid(problems: Sequence[PushProblem], rollouts: int, seed: int) -> list[dict]:
    """Open-loop containment and tracking error of each problem planned
    from its first waypoint, over ``push_rollouts`` from ``seed``. One row
    per cell: {cage, K, planned} and, when planned, the mean waypoint
    distance over every rollout step, the worst one, and whether that
    stayed within the cage size."""
    rows = []
    for problem in problems:
        start = problem.trajectory[0]
        plan, result, _ = plan_push(problem, start)
        row = {"cage": problem.cage_size, "K": problem.K, "planned": result.success}
        if result.success:
            runs = push_rollouts(plan, problem, start, PushOracleConfig(seed=seed), rollouts)
            errors = [(q - w).norm() for positions, _ in runs
                      for q, w in zip(positions, problem.trajectory)]
            worst = max(0.0, *(max_err for _, max_err in runs))
            row.update(mae_mm=float(np.mean(errors)), max_mm=worst,
                       contained=worst <= problem.cage_size)
        rows.append(row)
    return rows
