"""Ground-truth simulators and baseline controllers."""

import math
import os

import numpy as np
import pytest

from cageintime.core import NoAction, PushAngle, TiltRate, Vec2
from cageintime import ball as B
from cageintime import oracle
from cageintime.config import build_push, load_config
from cageintime.push import PushProblem, plan_push, pusher_pose, replay
from cageintime.trajectories import as_vec2_list, circle
from motion_set import motion_set
from p_controller import PControllerConfig, p_controller_rollout, p_controller_step
from reference_terms import no_uncertainty, peshkin_delta_beta
import scalar_oracle
import scalar_push_oracle

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


class _StickyRng:
    """Deterministic stand-in: every draw is 0, so the contact distance is
    the smallest one and the rotation fraction is zero every micro-step."""

    def random(self, size):
        return np.zeros(size)


class _ExtremeRng:
    """Deterministic stand-in at the far end of the oracle's support: the
    rotation side is +1, and every micro-step takes the largest contact
    distance and the full rotation bound."""

    def random(self, size):
        r = np.full(size, 1.0 - 1e-12)
        r[0] = 0.0
        return r


class TestPeshkinBound:
    def test_reference_value_exact(self):
        assert peshkin_delta_beta(25.0, 25.0, math.pi / 2.0, 20.0) == 0.4

    def test_vanishes_with_angle(self):
        assert peshkin_delta_beta(25.0, 25.0, 0.0, 20.0) == 0.0

    def test_vanishes_with_travel(self):
        assert peshkin_delta_beta(25.0, 25.0, 1.0, 0.0) == 0.0


class TestPushOracleConfig:
    def test_micro_step_bound(self):
        # the radius must exceed four 0.5 mm micro-steps
        with pytest.raises(ValueError):
            oracle.PushOracleConfig(object_radius=4 * oracle.PushOracleConfig.delta_m)
        assert oracle.PushOracleConfig(object_radius=2.01).object_radius == 2.01

    def test_nonpositive_radius(self):
        for radius in (0.0, -25.0, float("nan")):
            with pytest.raises(ValueError):
                oracle.PushOracleConfig(object_radius=radius)

    def test_infinite_radius(self):
        with pytest.raises(ValueError, match="oracle_radius_mm: object radius must be finite"):
            oracle.PushOracleConfig(object_radius=float("inf"))


class TestSimulatePush:
    def test_no_contact_is_noop(self):
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 0.0, 50.0)
        disp = oracle.simulate_push(Vec2(-30.0, 0.0), pose, 15.0,
                                    oracle.PushOracleConfig(), np.random.default_rng(0))
        assert disp == Vec2(0.0, 0.0)

    def test_sticking_push_is_pure_translation(self):
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 0.0, 50.0)
        # object 10 mm into the sweep: d_con = 20 - (45 - 10 - 25) = 10
        disp = oracle.simulate_push(Vec2(10.0, 0.0), pose, 20.0,
                                    oracle.PushOracleConfig(), _StickyRng())
        assert disp.x == pytest.approx(-10.0, abs=1e-9)
        assert disp.y == pytest.approx(0.0, abs=1e-9)

    def test_bit_reproducible(self):
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 1.1, 50.0)
        cfg = oracle.PushOracleConfig(seed=42)
        a = oracle.simulate_push(Vec2(5.0, 3.0), pose, 20.0, cfg, np.random.default_rng(cfg.seed))
        b = oracle.simulate_push(Vec2(5.0, 3.0), pose, 20.0, cfg, np.random.default_rng(cfg.seed))
        assert a == b

    def test_displacement_bounds_sampled(self):
        # quick version of the acceptance sweep: both bounds at 500 draws
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 0.0, 50.0)
        q = Vec2(10.0, 4.0)
        from cageintime.push import segment_distance
        dist0 = float(segment_distance(q.as_array()[None, :], pose)[0])
        d_con = 20.0 - max(0.0, dist0 - 25.0)
        for seed in range(500):
            rng = np.random.default_rng(seed)
            disp = oracle.simulate_push(q, pose, 20.0, oracle.PushOracleConfig(), rng)
            lateral = abs(disp.x * pose.tangent.x + disp.y * pose.tangent.y)
            assert lateral <= d_con / 2.0 + 0.1
            assert disp.norm() <= d_con + 0.1

    def test_full_rotation_leaves_the_planners_semi_ellipse(self):
        # the oracle keeps only its own physics: a push that touches at once
        # (d_con = d_push = 20 mm) at full rotation slips sideways beyond the
        # planner's semi-ellipse, within the rotation and no-outrun bounds
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 0.0, 50.0)
        q = Vec2(20.0, 0.0)
        disp = oracle.simulate_push(q, pose, 20.0, oracle.PushOracleConfig(), _ExtremeRng())
        ms = motion_set(q, pose, 25.0, 20.0)
        assert ms.d_con == 20.0 and not ms.contains(disp)
        u = disp.x * pose.direction.x + disp.y * pose.direction.y
        v = disp.x * pose.tangent.x + disp.y * pose.tangent.y
        assert (u / 20.0) ** 2 + (v / 10.0) ** 2 == pytest.approx(1.60, abs=0.01)
        assert abs(v) <= 20.0 / 2.0 and disp.norm() <= 20.0
        assert disp.norm() == pytest.approx(19.74, abs=0.01)


def _bits(p: Vec2) -> tuple[str, str]:
    return p.x.hex(), p.y.hex()


def _push_case(g: np.random.Generator, case: str):
    """One push of the given kind: (q, pose, d_push, cfg)."""
    radius = g.uniform(2.5, 30.0)
    cfg = oracle.PushOracleConfig(object_radius=radius)
    pose = pusher_pose(Vec2(0.0, 0.0), 20.0 + radius, g.uniform(0.0, 2.0 * math.pi), 50.0)
    if case == "random":
        q = Vec2(g.uniform(-30.0, 30.0), g.uniform(-30.0, 30.0))
        return q, pose, g.uniform(0.1, 25.0), cfg
    delta_m = cfg.delta_m
    d_push = {
        "no_contact": g.uniform(0.1, 25.0),
        "below_one_step": g.uniform(1e-3, 0.999 * delta_m),
        "exact_multiple": delta_m * int(g.integers(1, 51)),
        "short_last_step": delta_m * int(g.integers(1, 51)) + g.uniform(0.02, 0.98) * delta_m,
    }[case]
    # in front of the pusher: beyond its reach, or already touching it so
    # that the contact travel d_con is exactly d_push
    if case == "no_contact":
        depth = radius + d_push + g.uniform(0.1, 20.0)
    else:
        depth = g.uniform(0.0, 0.9 * radius)
    lateral = g.uniform(-40.0, 40.0)
    d, t = pose.direction, pose.tangent
    q = Vec2(pose.center.x + depth * d.x + lateral * t.x,
             pose.center.y + depth * d.y + lateral * t.y)
    return q, pose, d_push, cfg


class TestSimulatePushMatchesScalarReference:
    """One draw per push gives the displacements and the generator state of
    the old two-draws-per-micro-step oracle, bit for bit."""

    @pytest.mark.parametrize("case, draws, seed", [
        ("random", 2000, 0),
        ("no_contact", 200, 1),
        ("below_one_step", 200, 2),
        ("exact_multiple", 200, 3),
        ("short_last_step", 200, 4),
    ])
    def test_bitwise_equal(self, case, draws, seed):
        g = np.random.default_rng(seed)
        for _ in range(draws):
            q, pose, d_push, cfg = _push_case(g, case)
            stream = int(g.integers(2**32))
            fast, ref = np.random.default_rng(stream), np.random.default_rng(stream)
            before = fast.bit_generator.state
            got = oracle.simulate_push(q, pose, d_push, cfg, fast)
            want = scalar_push_oracle.simulate_push(q, pose, d_push, cfg, ref)
            assert _bits(got) == _bits(want)
            assert fast.bit_generator.state == ref.bit_generator.state
            if case == "no_contact":
                assert got == Vec2(0.0, 0.0) and fast.bit_generator.state == before

    def test_default_generator_from_seed(self):
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 1.1, 50.0)
        cfg = oracle.PushOracleConfig(seed=42)
        got = oracle.simulate_push(Vec2(5.0, 3.0), pose, 20.0, cfg,
                                   np.random.default_rng(cfg.seed))
        want = scalar_push_oracle.simulate_push(Vec2(5.0, 3.0), pose, 20.0, cfg,
                                                np.random.default_rng(cfg.seed))
        assert _bits(got) == _bits(want)


@pytest.fixture(scope="module", params=["push_circle.yaml", "push_lemniscate.yaml"])
def shipped_plan(request):
    problem, start, _, _ = build_push(load_config(os.path.join(CONFIGS, request.param)))
    plan, result, _ = plan_push(problem, start)
    assert result.success
    return problem, start, plan


class TestShippedPlanRollouts:
    SEEDS = range(20)

    def _rollouts(self, problem, start, plan):
        cfg = oracle.PushOracleConfig()
        out = []
        for seed in self.SEEDS:
            positions, err = oracle.rollout_push_plan(
                plan, problem, start, cfg, np.random.default_rng(seed))
            naive, naive_err, lost_at = oracle.naive_tangent_rollout(
                problem, start, cfg, np.random.default_rng(seed))
            out.append(([_bits(p) for p in positions], err.hex(),
                        [_bits(p) for p in naive], naive_err.hex(), lost_at))
        return out

    def test_match_scalar_reference(self, shipped_plan, monkeypatch):
        got = self._rollouts(*shipped_plan)
        monkeypatch.setattr(oracle, "simulate_push", scalar_push_oracle.simulate_push)
        assert got == self._rollouts(*shipped_plan)

    def test_one_simulate_push_call_per_push(self, shipped_plan, monkeypatch):
        # the benchmark times the oracle.simulate_push layer by replacing
        # the module attribute, so the rollout must look it up there
        problem, start, plan = shipped_plan
        calls = []
        real = oracle.simulate_push

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "simulate_push", counted)
        oracle.rollout_push_plan(plan, problem, start, oracle.PushOracleConfig(),
                                 np.random.default_rng(0))
        assert len(calls) == sum(isinstance(a, PushAngle) for a in plan) > 0


def _envelope_miss(name: str, reason: str):
    return pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"measured on configs/{name}: {reason}; the PSS holds the planner's "
               f"semi-ellipse rasterised by cell centres, not the oracle's physics, until the "
               f"motion set is derived from them and rasterised conservatively "
               f"(ROADMAP items 3 and 4)"))


@pytest.mark.parametrize("shipped_plan", [
    _envelope_miss("push_circle.yaml", "1410 of 23,800 rollout states (5.92%) lie farther "
                   "than 0.71 mm from every cell, the farthest 1.97 mm"),
    _envelope_miss("push_lemniscate.yaml", "3619 of 32,000 rollout states (11.31%) lie "
                   "farther than 0.71 mm from every cell, the farthest 1.43 mm"),
], indirect=True)
def test_rollouts_stay_in_pss_envelope(shipped_plan):
    """After every step, each of 200 seeded oracle rollouts lies within half
    a pixel diagonal (0.71 mm) of a cell of the step's PSS from the replay."""
    problem, start, plan = shipped_plan
    sets = [pss.occupied_world() for pss, _, _ in replay(problem, start, plan)]
    runs = oracle.push_rollouts(plan, problem, start, oracle.PushOracleConfig(seed=0), 200)
    gaps = np.array([[np.hypot(*(cells - q.as_array()).T).min()
                      for cells, q in zip(sets, positions[1:])] for positions, _ in runs])
    misses = gaps > 0.5 * problem.resolution * math.sqrt(2.0)
    assert not misses.any(), (f"{misses.sum()} of {misses.size} states miss, "
                              f"the farthest {gaps.max():.2f} mm from a cell")


class TestRolloutPushPlan:
    def test_all_none_plan_static(self):
        traj = (Vec2(0.0, 0.0),) * 6
        prob = PushProblem(trajectory=traj)
        plan = tuple([NoAction()] * 5)
        _, max_err = oracle.rollout_push_plan(plan, prob, Vec2(0.0, 0.0),
                                              oracle.PushOracleConfig(), np.random.default_rng(0))
        assert max_err == 0.0

    def test_rejects_a_plan_longer_than_its_path(self):
        prob = PushProblem(trajectory=(Vec2(0.0, 0.0),) * 5)
        push = PushAngle(theta=0.0, k=1)
        with pytest.raises(ValueError, match="plan of 7 steps is longer than its 4-step path"):
            oracle.rollout_push_plan([push] * 7, prob, Vec2(0.0, 0.0),
                                     oracle.PushOracleConfig(), np.random.default_rng(0))
        # a shorter plan rolls out as its prefix
        positions, _ = oracle.rollout_push_plan([NoAction()] * 2, prob, Vec2(0.0, 0.0),
                                                oracle.PushOracleConfig(),
                                                np.random.default_rng(0))
        assert positions == [Vec2(0.0, 0.0)] * 3

    def test_bit_reproducible(self):
        traj = tuple(as_vec2_list(circle(60.0, 48)) + [Vec2(60.0, 0.0)])
        prob = PushProblem(cage_size=20.0, K=16, trajectory=traj,
                           margin=4.0, shortlist=2)
        plan, res, _ = plan_push(prob, traj[0])
        assert res.success
        cfg = oracle.PushOracleConfig(seed=9)
        p1, e1 = oracle.rollout_push_plan(plan, prob, traj[0], cfg,
                                          np.random.default_rng(9))
        p2, e2 = oracle.rollout_push_plan(plan, prob, traj[0], cfg,
                                          np.random.default_rng(9))
        assert e1 == e2 and p1 == p2


class TestPController:
    def test_zero_error_zero_push(self):
        cfg = PControllerConfig(gain=0.5)
        cmd = p_controller_step(Vec2(1.0, 1.0), [Vec2(1.0, 1.0)], cfg,
                                np.random.default_rng(0), [])
        assert cmd == Vec2(0.0, 0.0)

    def test_proportional_law(self):
        cfg = PControllerConfig(gain=0.5)
        cmd = p_controller_step(Vec2(0.0, 0.0), [Vec2(10.0, 0.0)], cfg,
                                np.random.default_rng(0), [])
        assert cmd.x == pytest.approx(5.0) and cmd.y == pytest.approx(0.0)

    def test_cap(self):
        cfg = PControllerConfig(gain=0.5)
        cmd = p_controller_step(Vec2(0.0, 0.0), [Vec2(100.0, 0.0)], cfg,
                                np.random.default_rng(0), [])
        assert cmd.norm() == pytest.approx(20.0)

    def test_clean_tracking_converges(self):
        traj = as_vec2_list(circle(150.0, 120))
        traj.append(traj[0])
        cfg = PControllerConfig()
        positions, _ = p_controller_rollout(traj, traj[0], cfg)
        errs = [(p - w).norm() for p, w in zip(positions, traj)]
        # non-increasing once within one cap length of the trajectory
        start = next(i for i, e in enumerate(errs) if e <= cfg.cap)
        for a, b in zip(errs[start:], errs[start + 1:]):
            assert b <= a + 1e-9


class TestBallIntegrator:
    def test_rest_ball_stays(self):
        ball = B.tennis_ball()
        plan = tuple([TiltRate.of([0.0])] * 50)
        traj = np.zeros((51, 2))
        xs, vs = oracle.integrate_ball(plan, traj, ball, np.zeros(1),
                                       np.zeros(1), np.zeros(1), 0.02, 0.002)
        assert np.allclose(xs, 0.0) and np.allclose(vs, 0.0)

    def test_kinetic_energy_conserved_without_friction(self):
        ball = B.tennis_ball(mu_r=0.0)
        steps = 500  # 10 s at dt=0.02
        plan = tuple([TiltRate.of([0.0])] * steps)
        traj = np.zeros((steps + 1, 2))
        v0 = 0.3
        xs, vs = oracle.integrate_ball(plan, traj, ball, np.zeros(1),
                                       np.array([v0]), np.zeros(1), 0.02, 0.002)
        ke = 0.5 * ball.m_eff * vs[:, 0] ** 2
        assert np.max(np.abs(ke - ke[0])) <= 1e-6 * ke[0]

    def test_slope_acceleration_matches_model(self):
        # constant 0.1 rad tilt: closed form v(t) for linear friction
        ball = B.tennis_ball()
        steps = 100
        plan = tuple([TiltRate.of([0.0])] * steps)
        traj = np.zeros((steps + 1, 2))
        tilt = np.array([0.1])
        xs, vs = oracle.integrate_ball(plan, traj, ball, np.zeros(1),
                                       np.zeros(1), tilt, 0.02, 0.001)
        a = ball.kappa * 9.81 * math.sin(0.1)
        t = steps * 0.02
        v_expect = (a / ball.mu_r) * (1.0 - math.exp(-ball.mu_r * t))
        assert vs[-1, 0] == pytest.approx(v_expect, rel=1e-6)


class TestRolloutBall:
    def test_trivial_static_success(self):
        ball = B.tennis_ball()
        plan = tuple([TiltRate.of([0.0])] * 20)
        traj = np.zeros((21, 2))
        cfg = oracle.BallOracleConfig(rollouts=5, seed=0)
        rate, max_abs = oracle.rollout_ball(
            plan, traj, ball, no_uncertainty(1), cfg, 0.08, 0.02,
            np.zeros(1), (0.0, 0.0), (0.0, 0.0))
        assert rate == 1.0
        assert np.allclose(max_abs, 0.0)

    def test_excess_velocity_fails(self):
        ball = B.tennis_ball()
        plan = tuple([TiltRate.of([0.0])] * 100)
        traj = np.zeros((101, 2))
        cfg = oracle.BallOracleConfig(rollouts=5, seed=0)
        rate, _ = oracle.rollout_ball(
            plan, traj, ball, no_uncertainty(1), cfg, 0.08, 0.02,
            np.zeros(1), (0.0, 0.0), (0.9, 1.0))
        assert rate < 1.0

    def test_rejects_a_plan_longer_than_its_path(self):
        ball = B.tennis_ball()
        plan = tuple([TiltRate.of([0.5])] * 10)
        cfg = oracle.BallOracleConfig(rollouts=2, seed=0)
        args = (ball, no_uncertainty(1), cfg, 0.08, 0.02, np.zeros(1), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="plan of 10 steps is longer than its 5-step path"):
            oracle.rollout_ball(plan, np.zeros((6, 2)), *args)
        # a shorter plan rolls out as its prefix: the first 5 steps of the long path
        rate, max_abs = oracle.rollout_ball(plan[:5], np.zeros((11, 2)), *args)
        xs, _ = oracle.integrate_ball(plan[:5], np.zeros((6, 2)), ball, np.zeros((2, 1)),
                                      np.zeros((2, 1)), np.zeros(1), 0.02, cfg.step)
        assert rate == 1.0 and np.array_equal(max_abs, np.max(np.abs(xs), axis=(0, 2)))

    def test_bit_reproducible(self):
        ball = B.tennis_ball()
        plan = tuple([TiltRate.of([0.01])] * 30)
        traj = np.zeros((31, 2))
        unc = B.default_uncertainty(1)
        cfg = oracle.BallOracleConfig(rollouts=4, seed=5)
        r1 = oracle.rollout_ball(plan, traj, ball, unc, cfg, 0.08, 0.02,
                                 np.zeros(1), (-0.01, 0.01), (-0.05, 0.05))
        r2 = oracle.rollout_ball(plan, traj, ball, unc, cfg, 0.08, 0.02,
                                 np.zeros(1), (-0.01, 0.01), (-0.05, 0.05))
        assert r1[0] == r2[0]
        assert np.array_equal(r1[1], r2[1])


def _noise(rng, R, n):
    unc = B.default_uncertainty(n)
    return (rng.normal(0.0, unc.sigma_m, (R, 1)),
            rng.multivariate_normal(np.zeros(n + 1), unc.Sigma_p, R),
            rng.normal(0.0, unc.sigma_mu, (R, 1)))


def _batch_vs_scalar(plan, traj, tilt0, R, seed, substep=0.002):
    """Integrate R rollouts as one batch and one at a time."""
    n = tilt0.shape[0]
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.02, 0.02, (R, n))
    v0 = rng.uniform(-0.3, 0.3, (R, n))
    eta_m, eta_p, eta_mu = _noise(rng, R, n)
    ball = B.tennis_ball()
    xs, vs = oracle.integrate_ball(plan, traj, ball, x0, v0, tilt0, 0.02,
                                   substep, eta_m, eta_p, eta_mu)
    assert xs.shape == vs.shape == (len(plan) + 1, R, n)
    for r in range(R):
        xs_r, vs_r = scalar_oracle.integrate_ball(
            plan, traj, ball, x0[r], v0[r], tilt0, 0.02, substep,
            eta_m[r, 0], eta_p[r], eta_mu[r, 0])
        assert np.array_equal(xs[:, r], xs_r), r
        assert np.array_equal(vs[:, r], vs_r), r


class TestBatchedBallOracle:
    """The batched RK4 oracle reproduces the one-rollout-at-a-time oracle
    bit for bit."""

    @pytest.fixture(scope="class")
    def catch(self):
        s = B.catching_setup(0.8, 0.05)
        traj = s.trajectory(3.0)
        plan, result, _ = B.dynamic_control(
            s.grid, traj, s.ball, s.unc, s.model, s.params, s.initial_tilt)
        assert result.success
        return s, traj, plan

    @pytest.mark.parametrize("R", [1, 20])
    def test_n1_catch_accels_and_tilt_rates(self, R):
        # the catch's retreat brakes across steps 14-15
        traj = B.catching_setup(0.8, 0.05).trajectory(3.0)[:41]
        rates = np.random.default_rng(11).uniform(-0.5, 0.5, 40)
        plan = tuple(TiltRate.of([r]) for r in rates)
        _batch_vs_scalar(plan, traj, np.array([0.02]), R, seed=R)

    @pytest.mark.parametrize("R", [1, 20])
    def test_n2_with_noise(self, R):
        xy = np.random.default_rng(5).normal(0.0, 0.01, (31, 2)).cumsum(axis=0)
        traj = np.column_stack([xy, np.zeros(31)])
        rates = np.random.default_rng(12).uniform(-0.5, 0.5, (30, 2))
        plan = tuple(TiltRate.of(r) for r in rates)
        _batch_vs_scalar(plan, traj, np.array([0.01, -0.03]), R, seed=100 + R)

    @pytest.mark.parametrize("substep, m", [(0.02, 1), (0.0023, 9), (0.002, 10), (0.0005, 40)])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("R", [1, 20])
    def test_every_stage_count(self, substep, m, n, R):
        # the driving term is formed once per control step for all 2m+1
        # stage times; each substep count must still match the reference
        assert max(1, int(round(0.02 / substep))) == m
        rng = np.random.default_rng(1000 * m + 10 * n + R)
        traj = rng.normal(0.0, 0.01, (11, n + 1)).cumsum(axis=0)
        plan = tuple(TiltRate.of(r) for r in rng.uniform(-2.0, 2.0, (10, n)))
        _batch_vs_scalar(plan, traj, rng.uniform(-0.3, 0.3, n), R, seed=m + R, substep=substep)

    def test_299_rollouts(self):
        rng = np.random.default_rng(299)
        traj = rng.normal(0.0, 0.01, (11, 2)).cumsum(axis=0)
        plan = tuple(TiltRate.of([r]) for r in rng.uniform(-2.0, 2.0, 10))
        _batch_vs_scalar(plan, traj, np.array([0.1]), 299, seed=299)

    def test_single_rollout_takes_unbatched_inputs(self):
        ball = B.tennis_ball()
        plan = tuple([TiltRate.of([0.3])] * 20)
        traj = np.zeros((21, 2))
        args = (plan, traj, ball, np.array([0.01]), np.array([-0.2]),
                np.array([0.05]), 0.02, 0.002, 0.03, np.array([0.1, -0.2]), 0.04)
        xs, vs = oracle.integrate_ball(*args)
        xs_r, vs_r = scalar_oracle.integrate_ball(*args)
        assert np.array_equal(xs[:, 0], xs_r) and np.array_equal(vs[:, 0], vs_r)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_rollout_ball_matches_reference_on_catch(self, catch, seed):
        s, traj, plan = catch
        xs0, vs0, _ = s.grid.support()
        args = (plan, traj, s.ball, s.unc, oracle.BallOracleConfig(20, seed),
                s.grid.x_max, s.params.dt, s.initial_tilt,
                (float(xs0.min()), float(xs0.max())),
                (float(vs0.min()), float(vs0.max())))
        rate, max_abs = oracle.rollout_ball(*args)
        ref_rate, ref_max_abs = scalar_oracle.rollout_ball(*args)
        assert rate == ref_rate
        assert np.array_equal(max_abs, ref_max_abs)

    @pytest.mark.parametrize("rollouts", [0, -1])
    def test_config_rejects_no_rollouts(self, rollouts):
        with pytest.raises(ValueError):
            oracle.BallOracleConfig(rollouts=rollouts)
