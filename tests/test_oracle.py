"""Ground-truth simulators and baseline controllers."""

import math

import numpy as np
import pytest

from cageintime.core import NoAction, TiltRate, Vec2
from cageintime import ball as B
from cageintime import oracle
from cageintime.push import PushProblem, pusher_pose
from cageintime.trajectories import as_vec2_list, circle


class _StickyRng:
    """Deterministic stand-in: zero rotation fraction every micro-step."""

    def random(self):
        return 0.0

    def uniform(self, lo, hi):
        return lo


class TestPeshkinBound:
    def test_reference_value_exact(self):
        assert oracle.peshkin_delta_beta(25.0, 25.0, math.pi / 2.0, 20.0) == 0.4

    def test_vanishes_with_angle(self):
        assert oracle.peshkin_delta_beta(25.0, 25.0, 0.0, 20.0) == 0.0

    def test_vanishes_with_travel(self):
        assert oracle.peshkin_delta_beta(25.0, 25.0, 1.0, 0.0) == 0.0


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


class TestSimulatePush:
    def test_no_contact_is_noop(self):
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 0.0, 50.0)
        disp = oracle.simulate_push(Vec2(-30.0, 0.0), pose, 15.0,
                                    oracle.PushOracleConfig())
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
        a = oracle.simulate_push(Vec2(5.0, 3.0), pose, 20.0, cfg)
        b = oracle.simulate_push(Vec2(5.0, 3.0), pose, 20.0, cfg)
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


class TestRolloutPushPlan:
    def test_all_none_plan_static(self):
        traj = (Vec2(0.0, 0.0),) * 6
        prob = PushProblem(trajectory=traj)
        plan = tuple([NoAction()] * 5)
        _, max_err = oracle.rollout_push_plan(plan, prob, Vec2(0.0, 0.0),
                                              oracle.PushOracleConfig())
        assert max_err == 0.0

    def test_bit_reproducible(self):
        traj = tuple(as_vec2_list(circle(60.0, 48)) + [Vec2(60.0, 0.0)])
        prob = PushProblem(cage_size=20.0, K=16, trajectory=traj,
                           margin=4.0, shortlist=2)
        from cageintime.push import plan_push
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
        cfg = oracle.PControllerConfig(gain=0.5)
        cmd = oracle.p_controller_step(Vec2(1.0, 1.0), [Vec2(1.0, 1.0)], cfg,
                                       np.random.default_rng(0), [])
        assert cmd == Vec2(0.0, 0.0)

    def test_proportional_law(self):
        cfg = oracle.PControllerConfig(gain=0.5)
        cmd = oracle.p_controller_step(Vec2(0.0, 0.0), [Vec2(10.0, 0.0)], cfg,
                                       np.random.default_rng(0), [])
        assert cmd.x == pytest.approx(5.0) and cmd.y == pytest.approx(0.0)

    def test_cap(self):
        cfg = oracle.PControllerConfig(gain=0.5)
        cmd = oracle.p_controller_step(Vec2(0.0, 0.0), [Vec2(100.0, 0.0)], cfg,
                                       np.random.default_rng(0), [])
        assert cmd.norm() == pytest.approx(20.0)

    def test_clean_tracking_converges(self):
        traj = as_vec2_list(circle(150.0, 120))
        traj.append(traj[0])
        cfg = oracle.PControllerConfig()
        positions, _ = oracle.p_controller_rollout(traj, traj[0], cfg)
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
            plan, traj, ball, B.no_uncertainty(1), cfg, 0.08, 0.02,
            np.zeros(1), (0.0, 0.0), (0.0, 0.0))
        assert rate == 1.0
        assert np.allclose(max_abs, 0.0)

    def test_excess_velocity_fails(self):
        ball = B.tennis_ball()
        plan = tuple([TiltRate.of([0.0])] * 100)
        traj = np.zeros((101, 2))
        cfg = oracle.BallOracleConfig(rollouts=5, seed=0)
        rate, _ = oracle.rollout_ball(
            plan, traj, ball, B.no_uncertainty(1), cfg, 0.08, 0.02,
            np.zeros(1), (0.0, 0.0), (0.9, 1.0))
        assert rate < 1.0

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
