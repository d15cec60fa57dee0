"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (visible with -s or in failure output). The heavy
push-planning grid is computed once and shared between the containment and
trend criteria.
"""

import math
import os
import time

import numpy as np
import pytest
import yaml
from scipy import ndimage

from cageintime import ball as B
from cageintime import config
from cageintime import oracle
from cageintime import qp as qpmod
from cageintime import trajectories as T
from cageintime.core import TiltRate, Vec2
from cageintime.push import PushProblem, plan_push, pusher_pose, segment_distance
import dense_belief as D
from qp_oracle import grid_search, kkt_residuals, random_instance
from scalar_oracle import exact_accel

ROOT = os.path.join(os.path.dirname(__file__), "..")
CAGES = (10.0, 20.0, 30.0, 40.0)
KS = (16, 32, 64, 128)
CIRCLE_STEPS = {10.0: 240, 20.0: 120, 30.0: 120, 40.0: 110}


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def push_problem(cage: float, K: int, steps: int = None) -> PushProblem:
    steps = CIRCLE_STEPS[cage] if steps is None else steps
    traj = T.as_vec2_list(T.circle(150.0, steps))
    traj.append(traj[0])
    return PushProblem(
        object_radius=25.0, cage_size=cage, K=K,
        d_push=min(max(cage, 12.0), 30.0), pusher_length=100.0,
        resolution=1.0, margin=4.0, shortlist=2, trajectory=tuple(traj),
    )


@pytest.fixture(scope="module")
def push_grid():
    """Plan and roll out every (cage, K) cell once; 100 rollouts per cell."""
    cells = {}
    t0 = time.time()
    for cage in CAGES:
        for K in KS:
            prob = push_problem(cage, K)
            plan, result, _ = plan_push(prob, prob.trajectory[0])
            if not result.success:
                cells[(cage, K)] = None
                continue
            errs = []
            worst = 0.0
            for s in range(100):
                rng = np.random.default_rng(1000 + s)
                cfg = oracle.PushOracleConfig(seed=1000 + s)
                pos, max_err = oracle.rollout_push_plan(
                    plan, prob, prob.trajectory[0], cfg, rng)
                worst = max(worst, max_err)
                errs.extend((p - prob.trajectory[i]).norm()
                            for i, p in enumerate(pos))
            cells[(cage, K)] = {"mae": float(np.mean(errs)), "max": worst}
    return {"cells": cells, "elapsed": time.time() - t0}


def test_criterion_01_push_containment(push_grid):
    cells, elapsed = push_grid["cells"], push_grid["elapsed"]
    planned = all(v is not None for v in cells.values())
    contained = planned and all(v["max"] <= cage + 1e-12
                                for (cage, K), v in cells.items())
    ok = planned and contained and elapsed < 600.0
    worst = max((v["max"] - cage for (cage, K), v in cells.items() if v),
                default=float("inf"))
    _line(1, ok, f"16/16 cells planned={planned}, worst margin "
                 f"{-worst:.2f} mm, grid in {elapsed:.0f} s")
    assert planned, "some (cage, K) cell failed to plan"
    assert contained, "an oracle rollout exceeded the cage size"
    assert elapsed < 600.0


def test_criterion_02_trend_reproduction(push_grid):
    cells = push_grid["cells"]
    assert all(v is not None for v in cells.values())
    k_ok = all(cells[(c, 128)]["mae"] < cells[(c, 16)]["mae"] for c in CAGES)
    cage_ok = all(cells[(40.0, K)]["mae"] > cells[(10.0, K)]["mae"] for K in KS)
    _line(2, k_ok and cage_ok,
          f"MAE(K=128)<MAE(K=16) at all cages: {k_ok}; "
          f"MAE(cage40)>MAE(cage10) at all K: {cage_ok}")
    assert k_ok
    assert cage_ok


def test_criterion_03_peshkin_bound():
    assert oracle.peshkin_delta_beta(25.0, 25.0, math.pi / 2.0, 20.0) == 0.4
    rng = np.random.default_rng(0)
    cfg = oracle.PushOracleConfig()
    bad = 0
    for _ in range(10_000):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, theta, 50.0)
        # object somewhere the sweep can reach
        q = Vec2(rng.uniform(-18.0, 18.0), rng.uniform(-18.0, 18.0))
        dist0 = float(segment_distance(q.as_array()[None, :], pose)[0])
        d_con = 20.0 - max(0.0, dist0 - 25.0)
        disp = oracle.simulate_push(q, pose, 20.0, cfg, rng)
        if d_con <= 0.0:
            if disp.norm() != 0.0:
                bad += 1
            continue
        lateral = abs(disp.x * pose.tangent.x + disp.y * pose.tangent.y)
        if lateral > d_con / 2.0 + 0.1 or disp.norm() > d_con + 0.1:
            bad += 1
    _line(3, bad == 0, f"10^4 pushes, {bad} bound violations; "
                       f"reference delta-beta exact")
    assert bad == 0


def test_criterion_04_baseline_comparison():
    prob = push_problem(20.0, 32)
    traj = list(prob.trajectory)
    plan, result, _ = plan_push(prob, traj[0])
    assert result.success
    caging_errs = []
    for s in range(20):
        rng = np.random.default_rng(2000 + s)
        cfg = oracle.PushOracleConfig(seed=2000 + s)
        pos, _ = oracle.rollout_push_plan(plan, prob, traj[0], cfg, rng)
        caging_errs.extend((p - traj[i]).norm() for i, p in enumerate(pos))
    caging_mae = float(np.mean(caging_errs))

    def p_mae(**kw):
        errs = []
        for s in range(20):
            cfg = oracle.PControllerConfig(gain=1.0, seed=3000 + s, **kw)
            pos, _ = oracle.p_controller_rollout(traj, traj[0], cfg)
            errs.extend((p - traj[i]).norm() for i, p in enumerate(pos))
        return float(np.mean(errs))

    clean = p_mae()
    noisy = p_mae(noise_sigma=10.0)
    lagged = p_mae(lag=True)
    ok = clean <= caging_mae and noisy > caging_mae and lagged > caging_mae
    _line(4, ok, f"caging MAE {caging_mae:.2f} mm; P clean {clean:.2f}, "
                 f"noise {noisy:.2f}, lag {lagged:.2f} mm")
    assert clean <= caging_mae
    assert noisy > caging_mae
    assert lagged > caging_mae


def test_criterion_05_naive_pusher_failure():
    pts = T.lemniscate(150.0, 1601, loops=10)
    traj = tuple(T.as_vec2_list(pts))
    prob = PushProblem(
        object_radius=25.0, cage_size=20.0, K=32, d_push=20.0,
        pusher_length=100.0, resolution=1.0, margin=4.0, shortlist=2,
        trajectory=traj,
    )
    plan, result, _ = plan_push(prob, traj[0])
    assert result.success
    caging_worst = 0.0
    naive_losses = 0
    for s in range(20):
        cfg = oracle.PushOracleConfig(seed=4000 + s)
        _, max_err = oracle.rollout_push_plan(
            plan, prob, traj[0], cfg, np.random.default_rng(4000 + s))
        caging_worst = max(caging_worst, max_err)
        _, _, lost_at = oracle.naive_tangent_rollout(
            prob, traj[0], cfg, np.random.default_rng(4000 + s))
        if lost_at is not None:
            naive_losses += 1
    ok = caging_worst <= prob.cage_size and naive_losses >= 1
    _line(5, ok, f"caging worst error {caging_worst:.2f} mm over 10 loops; "
                 f"naive baseline lost {naive_losses}/20 seeds")
    assert caging_worst <= prob.cage_size
    assert naive_losses >= 1


def test_criterion_06_probability_grid_integrity():
    rng = np.random.default_rng(0)
    unc = B.default_uncertainty(1)
    ball = B.tennis_ball()
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-0.05, 0.05)
        v = rng.uniform(-0.5, 0.5)
        g = B.ProbGrid.box(1, 81, 0.08, 1.0, x - 0.004, x + 0.004,
                           v - 0.02, v + 0.02)
        plate = B.PlateState(1, 0.08, rng.uniform(-0.3, 0.3, 1),
                             rng.uniform(-0.5, 0.5, 2))
        out, _ = B.propagate_prob(g, plate, ball, unc, 0.02)
        worst = max(worst, abs(out.values.sum() - 1.0))
        assert np.count_nonzero(out.values) > 0
    # zero-uncertainty delta propagation = one Euler step within one cell
    g = D.delta(1, 81, 0.08, 1.0, 0.0, 0.1)
    plate = B.PlateState(1, 0.08, np.array([0.05]), np.zeros(2))
    out, _ = B.propagate_prob(g, plate, ball,
                              B.no_uncertainty(1), 0.02)
    xs, vs, ps = out.support()
    mu, _ = B.accel_distribution(np.array([0.1]), plate, ball,
                                 B.no_uncertainty(1))
    x0, v0 = g.support()[0][0, 0], g.support()[1][0, 0]
    euler_ok = (len(ps) == 1
                and abs(xs[0, 0] - (x0 + 0.1 * 0.02)) <= out.x_step + 1e-12
                and abs(vs[0, 0] - (v0 + mu[0] * 0.02)) <= out.v_step + 1e-12)
    ok = worst <= 1e-9 and euler_ok
    _line(6, ok, f"1000 propagations, worst |sum-1| = {worst:.2e}; "
                 f"Euler consistency {euler_ok}")
    assert worst <= 1e-9
    assert euler_ok


def test_criterion_07_monte_carlo_envelope():
    ball = B.tennis_ball()
    unc = B.default_uncertainty(1)
    dt = 0.02
    g = D.delta(1, 81, 0.08, 1.0, 0.01, 0.1)
    plate = B.PlateState(1, 0.08, np.array([0.05]), np.array([0.2, 0.0]))
    out, _ = B.propagate_prob(g, plate, ball, unc, dt)
    dilated = ndimage.binary_dilation(out.values > 0, np.ones((3, 3), bool))
    rng = np.random.default_rng(1)
    x0, v0 = g.support()[0][0, 0], g.support()[1][0, 0]
    n_samples = 10_000
    inside = 0
    for _ in range(n_samples):
        eta_m = rng.normal(0.0, unc.sigma_m)
        eta_p = rng.multivariate_normal(np.zeros(2), unc.Sigma_p)
        eta_mu = rng.normal(0.0, unc.sigma_mu)
        a = exact_accel(np.array([x0]), np.array([v0]), plate.tilt,
                        plate.accel, ball, eta_m, eta_p, eta_mu)
        x1 = x0 + v0 * dt
        v1 = v0 + a[0] * dt
        xi = int(round((x1 + out.x_max) / out.x_step))
        vi = int(round((v1 + out.v_max) / out.v_step))
        if 0 <= xi < out.N and 0 <= vi < out.N and dilated[xi, vi]:
            inside += 1
    frac = inside / n_samples
    _line(7, frac >= 0.999, f"{frac:.4f} of 10^4 one-step samples inside the "
                            f"dilated support")
    assert frac >= 0.999


def test_criterion_08_qp_exactness():
    rng = np.random.default_rng(2024)
    checked = 0
    worst_obj = 0.0
    worst_kkt = 0.0
    while checked < 100:
        qp = random_instance(rng)
        sol = qpmod.solve(qp)
        best_obj, _ = grid_search(qp)
        if best_obj is None or not sol.feasible:
            continue
        worst_obj = max(worst_obj, abs(sol.objective - best_obj))
        res = kkt_residuals(qp, sol)
        worst_kkt = max(worst_kkt, res["stationarity"], res["primal"],
                        res["complementarity"])
        checked += 1
    ok = worst_obj <= 1e-4 and worst_kkt <= 1e-8
    _line(8, ok, f"100 instances: worst objective gap {worst_obj:.2e}, "
                 f"worst KKT residual {worst_kkt:.2e}")
    assert worst_obj <= 1e-4
    assert worst_kkt <= 1e-8


def _dynamic_run(traj, rollouts=20, seed=3):
    setup = B.balancing_setup()
    t0 = time.time()
    plan, result, log = B.dynamic_control(
        setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params,
        setup.initial_tilt)
    elapsed = time.time() - t0
    assert result.success, f"planning failed at {result.failure_step}"
    assert all(r["max_E"] < r["E_max"] for r in log.records)
    xs0, vs0, _ = setup.grid.support()
    rng = np.random.default_rng(seed)
    eta_m, eta_mu = np.zeros((rollouts, 1)), np.zeros((rollouts, 1))
    eta_p = np.zeros((rollouts, 2))
    x0, v0 = np.zeros((rollouts, 1)), np.zeros((rollouts, 1))
    for i in range(rollouts):
        eta_m[i] = rng.normal(0.0, setup.unc.sigma_m)
        eta_mu[i] = rng.normal(0.0, setup.unc.sigma_mu)
        eta_p[i] = rng.multivariate_normal(np.zeros(2), setup.unc.Sigma_p)
        x0[i] = rng.uniform(float(xs0.min()), float(xs0.max()), 1)
        v0[i] = rng.uniform(float(vs0.min()), float(vs0.max()), 1)
    xs, _ = oracle.integrate_ball(
        plan, traj, setup.ball, x0, v0, setup.initial_tilt,
        setup.params.dt, 0.002, eta_m, eta_p, eta_mu)
    # one contiguous (T+1, 1) trace per rollout, as each was integrated alone
    per_rollout = np.abs(xs).transpose(1, 0, 2).copy()
    maxes = [float(np.max(a)) for a in per_rollout]
    means = [float(np.mean(a)) for a in per_rollout]
    return max(maxes), float(np.mean(means)), elapsed


def test_criterion_09_dynamic_end_to_end():
    lem = T.lemniscate(0.03, 251, ease=True)
    lem_traj = np.column_stack([lem[:, 0], lem[:, 1]])
    lem_max, lem_mean, lem_t = _dynamic_run(lem_traj)

    with open(os.path.join(ROOT, "configs", "ball_rice.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["trajectory"]["file"] = os.path.join(ROOT, raw["trajectory"]["file"])
    let_traj = config.ball_trajectory(raw, B.ControlParams.dt, 1)
    let_max, let_mean, let_t = _dynamic_run(let_traj)

    ok = (lem_max <= 0.08 and let_max <= 0.08
          and lem_mean <= 0.040 and let_mean <= 0.040
          and lem_t < 120.0 and let_t < 120.0)
    _line(9, ok, f"figure-eight max {lem_max*1000:.1f} mm mean "
                 f"{lem_mean*1000:.1f} mm ({lem_t:.0f} s); letters max "
                 f"{let_max*1000:.1f} mm mean {let_mean*1000:.1f} mm "
                 f"({let_t:.0f} s)")
    assert lem_max <= 0.08 and let_max <= 0.08
    assert lem_mean <= 0.040 and let_mean <= 0.040
    assert lem_t < 120.0 and let_t < 120.0


# The energy cage certifies a plan that the exact dynamics break: on a wider
# figure-eight than the shipped 0.03 m one, the belief stays at its initial
# cells, the planner keeps the plate level, and every rollout rolls off.
WIDE_FIGURE_EIGHT = (
    "measured with balancing_setup() on lemniscate(0.15, 251, ease=True): "
    "dynamic_control certifies all 250 steps with zero tilt, and 0 of 200 oracle "
    "rollouts (seed 3) stay on the 80 mm plate (max |x| 120.5 mm)"
)


@pytest.fixture(scope="module")
def wide_figure_eight():
    """The planner's verdict on the 0.15 m eased figure-eight and the oracle
    success rates (200 rollouts, seed 3) of its plan, when it certifies one,
    and of the zero-tilt plan."""
    setup = B.balancing_setup()
    traj = T.lemniscate(0.15, 251, ease=True)
    plan, result, _ = B.dynamic_control(
        setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params,
        setup.initial_tilt)
    xs0, vs0, _ = setup.grid.support()
    cfg = oracle.BallOracleConfig(rollouts=200, seed=3)

    def success_rate(p):
        return oracle.rollout_ball(
            p, traj, setup.ball, setup.unc, cfg, setup.grid.x_max, setup.params.dt,
            setup.initial_tilt, (float(xs0.min()), float(xs0.max())),
            (float(vs0.min()), float(vs0.max())))[0]

    zero = [TiltRate.of([0.0])] * (len(traj) - 1)
    planned = success_rate(plan) if result.success else None
    return result, planned, success_rate(zero)


@pytest.mark.xfail(strict=True, reason=WIDE_FIGURE_EIGHT)
def test_certified_ball_plan_keeps_ball_on_plate(wide_figure_eight):
    result, planned, _ = wide_figure_eight
    assert not result.success or planned >= 0.99


@pytest.mark.xfail(strict=True, reason=WIDE_FIGURE_EIGHT)
def test_ball_planner_beats_zero_tilt(wide_figure_eight):
    result, planned, zero = wide_figure_eight
    assert result.success and planned > zero


def _row_monotone(rates, direction: str) -> bool:
    # allow one inversion per row from sampling noise
    inversions = 0
    for a, b in zip(rates, rates[1:]):
        if direction == "nonincreasing" and b > a + 1e-12:
            inversions += 1
        if direction == "nondecreasing" and b < a - 1e-12:
            inversions += 1
    return inversions <= 1


def test_criterion_10_sensitivity_sweep():
    anchor = oracle.sensitivity_sweep(
        oracle.sweep_cells([0.8], [0.05], [25.0], trials=100, seed=0))
    anchor_rate = anchor[0]["success_rate"]

    dv_row = oracle.sensitivity_sweep(oracle.sweep_cells(
        [0.8], [0.025, 0.05, 0.1, 0.15, 0.2], [25.0], trials=20, seed=0))
    dv_rates = [r["success_rate"] for r in dv_row]

    beta_row = oracle.sensitivity_sweep(oracle.sweep_cells(
        [0.8], [0.05], [0.0, 1.0, 5.0, 25.0], trials=20, seed=0))
    beta_rates = [r["success_rate"] for r in beta_row]

    dv_ok = _row_monotone(dv_rates, "nonincreasing")
    beta_ok = _row_monotone(beta_rates, "nondecreasing")
    ok = anchor_rate == 1.0 and dv_ok and beta_ok
    _line(10, ok, f"anchor 100/100 rate {anchor_rate:.2f}; speed-uncertainty "
                  f"row {dv_rates}; slew-bound row {beta_rates}")
    assert anchor_rate == 1.0
    assert dv_ok
    assert beta_ok


def test_criterion_11_square_plate_smoke():
    setup = B.balancing_setup(n=2, N=31)
    steps = int(round(5.0 / setup.params.dt))
    traj = np.zeros((steps + 1, 3))
    t0 = time.time()
    plan, result, log = B.dynamic_control(
        setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params,
        setup.initial_tilt)
    elapsed = time.time() - t0
    contained = all(r["max_E"] < r["E_max"] for r in log.records)
    ok = result.success and contained and elapsed < 300.0
    _line(11, ok, f"5 s square-plate run: success={result.success}, "
                  f"containment every step={contained}, {elapsed:.0f} s")
    assert result.success
    assert contained
    assert elapsed < 300.0


def test_criterion_12_step_performance():
    prob = push_problem(20.0, 128)
    t0 = time.time()
    plan, result, _ = plan_push(prob, prob.trajectory[0])
    push_ms = 1000.0 * (time.time() - t0) / (len(prob.trajectory) - 1)
    assert result.success

    setup = B.balancing_setup()
    steps = 50
    traj = np.zeros((steps + 1, 2))
    t0 = time.time()
    _, result, _ = B.dynamic_control(
        setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params,
        setup.initial_tilt)
    ball_ms = 1000.0 * (time.time() - t0) / steps
    assert result.success

    ok = push_ms <= 250.0 and ball_ms <= 700.0
    _line(12, ok, f"push step {push_ms:.1f} ms (limit 250); dynamics step "
                  f"{ball_ms:.1f} ms (limit 700)")
    assert push_ms <= 250.0
    assert ball_ms <= 700.0
