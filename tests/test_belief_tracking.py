"""The ball belief against the dynamics it claims to bound.

Each shipped line-plate task (configs/ball_lemniscate.yaml, the figure-eight
balance, and configs/ball_catch.yaml) is planned, and its belief is replayed
by ball.replay under the planner's plate accelerations accels[t], as the
--render frames are. Both checks fail today: the certified belief does not
follow the exact dynamics. Each is a strict xfail whose marker holds the
measured first miss and miss count, to be removed once the belief contains
the ball.
"""

import os

import numpy as np
import pytest

from cageintime import ball as B
from cageintime import config, oracle

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
ROLLOUTS = 50


def _measured(task: str, reason: str):
    return pytest.param(task, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"measured on configs/{task}.yaml: {reason}"))


@pytest.fixture(scope="module")
def ball_task(request):
    """A shipped task's setup, path and plan, and the belief before each
    step and after the last."""
    setup, traj, _ = config.build_ball(
        config.load_config(os.path.join(CONFIGS, request.param + ".yaml")))
    plan, result, _ = B.dynamic_control(
        setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params, setup.initial_tilt)
    assert result.success and len(plan) >= 50
    accels = B.trajectory_accels(traj, setup.params.dt)
    beliefs = [setup.grid, *(grid for grid, *_ in B.replay(
        setup.grid, plan, accels, setup.ball, setup.unc, setup.model, setup.params,
        setup.initial_tilt))]
    return setup, traj, plan, beliefs


@pytest.mark.parametrize("ball_task", [
    _measured("ball_lemniscate", "a rollout's nearest cell is first outside the belief's "
              "support at step 27, and 9524 of 12550 rollout-steps are"),
    _measured("ball_catch", "a rollout's nearest cell is first outside the belief's "
              "support at step 3, and 6291 of 7550 rollout-steps are"),
], indirect=True)
def test_rollouts_stay_in_belief_support(ball_task):
    """At every step, each of 50 noisy exact-dynamics rollouts, started
    uniformly in the initial support box, has its nearest cell supported."""
    setup, traj, plan, beliefs = ball_task
    rng = np.random.default_rng(0)
    xs0, vs0, _ = setup.grid.support()
    x0 = rng.uniform(xs0.min(), xs0.max(), (ROLLOUTS, 1))
    v0 = rng.uniform(vs0.min(), vs0.max(), (ROLLOUTS, 1))
    eta_m = rng.normal(0.0, setup.unc.sigma_m, (ROLLOUTS, 1))
    eta_mu = rng.normal(0.0, setup.unc.sigma_mu, (ROLLOUTS, 1))
    eta_p = rng.multivariate_normal(np.zeros(2), setup.unc.Sigma_p, ROLLOUTS)
    xs, vs = oracle.integrate_ball(plan, traj, setup.ball, x0, v0, setup.initial_tilt,
                                   setup.params.dt, oracle.BallOracleConfig.step,
                                   eta_m, eta_p, eta_mu)
    misses = [sum(cell not in {tuple(c) for c in g.cells.tolist()}
                  for cell in map(tuple, g.nearest(x, v).astype(int).tolist()))
              for g, x, v in zip(beliefs, xs, vs)]
    first = next((t for t, m in enumerate(misses) if m), None)
    assert first is None, f"first miss at step {first}, {sum(misses)} of {ROLLOUTS * len(misses)}"


@pytest.mark.parametrize("ball_task", [
    _measured("ball_lemniscate", "the noise-free rollout is first more than one cell from "
              "the belief mean at step 34, and 176 of 251 steps are"),
    _measured("ball_catch", "the noise-free rollout is first more than one cell from "
              "the belief mean at step 5, and 146 of 151 steps are"),
], indirect=True)
def test_noise_free_rollout_tracks_belief_mean(ball_task):
    """A noise-free exact-dynamics rollout from the initial belief mean stays
    within one cell, in position and in velocity, of the belief mean."""
    setup, traj, plan, beliefs = ball_task
    means = np.array([[p @ x[:, 0], p @ v[:, 0]] for x, v, p in (g.support() for g in beliefs)])
    xs, vs = oracle.integrate_ball(plan, traj, setup.ball, means[0, :1], means[0, 1:],
                                   setup.initial_tilt, setup.params.dt,
                                   oracle.BallOracleConfig.step)
    grid = beliefs[0]
    off = ((np.abs(xs[:, 0, 0] - means[:, 0]) > grid.x_step)
           | (np.abs(vs[:, 0, 0] - means[:, 1]) > grid.v_step))
    first = next((t for t, o in enumerate(off) if o), None)
    assert first is None, f"first off at step {first}, {int(off.sum())} of {len(off)}"
