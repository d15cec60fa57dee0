"""Benchmark tasks: inputs built from the frozen configs in ``inputs/``, and
one task run as plan -> independent replay -> oracle rollouts.

Inputs are built through the public calls the command line makes
(``config.load_config``, the trajectory builders, the task setups), with
the same config fields and defaults as ``cli.py``. The CLI's private helpers
are not called, so they can change without moving the benchmark's inputs.
The seed only draws the oracle noise; the planner sees the same inputs on
every seed, so one stored reference plan per task serves every seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cageintime import ball as ballmod
from cageintime import config as configmod
from cageintime import core as coremod
from cageintime import oracle as oraclemod
from cageintime import push as pushmod
from cageintime import qp as qpmod
from cageintime import trajectories as trajmod

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
TILT_TOLERANCE = 1e-12

# Namespaces the step clock and the tracer patch, keyed as in spans.LAYERS.
MODULES = {
    "push": pushmod,
    "core": coremod,
    "ball": ballmod,
    "qp": qpmod,
    "oracle": oraclemod,
    "config": configmod,
    "trajectories": trajmod,
}


class PushTask:
    """A pushing config: ``plan_push``, ``verify_push_plan`` and the
    micro-step oracle, one rollout per seeded generator as the CLI does."""

    kind = "push"

    def __init__(self, name: str, path: Path):
        self.name = name
        raw = configmod.load_config(str(path)).raw
        waypoints = trajmod.as_vec2_list(configmod.push_trajectory(raw))
        self.problem = pushmod.PushProblem(
            object_radius=float(raw.get("object_radius_mm", 25.0)),
            cage_size=float(raw.get("cage_size_mm", 20.0)),
            K=int(raw.get("K", 128)),
            d_push=float(raw.get("d_push_mm", 20.0)),
            pusher_length=float(raw.get("pusher_length_mm", 100.0)),
            resolution=float(raw.get("resolution_mm", 1.0)),
            lambda1=float(raw.get("lambda1", 1.0)),
            lambda2=float(raw.get("lambda2", 1.0)),
            margin=float(raw.get("margin_mm", 4.0)),
            shortlist=int(raw.get("shortlist", 2)),
            trajectory=tuple(waypoints),
        )
        self.start = waypoints[0]
        self.rollouts = int(raw.get("rollouts", 20))
        self.oracle_radius = float(raw.get("oracle_radius_mm", self.problem.object_radius))

    def plan(self):
        plan, verdict, _ = pushmod.plan_push(self.problem, self.start)
        return plan, verdict

    def replay(self, plan):
        return pushmod.verify_push_plan(self.problem, self.start, plan)

    def oracle(self, plan, seed: int) -> tuple[int, int]:
        cfg = oraclemod.PushOracleConfig(object_radius=self.oracle_radius, seed=seed)
        escapes = 0
        for i in range(self.rollouts):
            rng = np.random.default_rng(seed + i)
            _, err = oraclemod.rollout_push_plan(plan, self.problem, self.start, cfg, rng)
            escapes += err > self.problem.cage_size
        return escapes, self.rollouts

    @staticmethod
    def record(plan) -> list:
        return [a.k if isinstance(a, coremod.PushAngle) else None for a in plan]

    @staticmethod
    def same_plan(got: list, ref: list) -> bool:
        return got == ref


class BallTask:
    """A ball config: ``dynamic_control``, ``verify_ball_plan`` and the RK4
    oracle, with the setup and trajectory the CLI would build."""

    kind = "ball"

    def __init__(self, name: str, path: Path):
        self.name = name
        raw = configmod.load_config(str(path)).raw
        n = int(raw.get("n", 1))
        common = dict(
            N=int(raw.get("N", 81 if n == 1 else 31)),
            v_max=float(raw.get("v_max_m_s", 1.0)),
            beta_max=float(raw.get("beta_max", 25.0)),
        )
        if raw.get("mode", "balance") == "catch":
            setup = ballmod.catching_setup(
                v_center=float(raw.get("v0_m_s", 0.8)),
                dv=float(raw.get("dv0_m_s", 0.05)),
                k_ve=float(raw.get("k_ve", 60.0)),
                half_length=float(raw.get("half_length_m", 0.15)),
                **common,
            )
        else:
            setup = ballmod.balancing_setup(
                n=n,
                k_ve=float(raw.get("k_ve", 10.0)),
                half_length=float(raw.get("half_length_m", 0.08)),
                **common,
            )
        traj = configmod.ball_trajectory(raw, setup.params.dt, setup.grid.n)
        if traj is None:
            traj = setup.trajectory(float(raw["trajectory"].get("horizon_s", 3.0)))
        self.setup = setup
        self.traj = traj
        self.rollouts = int(raw.get("rollouts", 20))

    def plan(self):
        s = self.setup
        plan, verdict, _ = ballmod.dynamic_control(
            s.grid, self.traj, s.ball, s.unc, s.model, s.params, s.initial_tilt
        )
        return plan, verdict

    def replay(self, plan):
        s = self.setup
        return ballmod.verify_ball_plan(
            s.grid, plan, self.traj, s.ball, s.unc, s.model, s.params, s.initial_tilt
        )

    def oracle(self, plan, seed: int) -> tuple[int, int]:
        s = self.setup
        xs0, vs0, _ = s.grid.support()
        cfg = oraclemod.BallOracleConfig(rollouts=self.rollouts, seed=seed)
        _, max_abs = oraclemod.rollout_ball(
            plan, self.traj, s.ball, s.unc, cfg, s.grid.x_max, s.params.dt, s.initial_tilt,
            (float(xs0.min()), float(xs0.max())),
            (float(vs0.min()), float(vs0.max())),
        )
        return int(np.sum(max_abs > s.grid.x_max + 1e-12)), self.rollouts

    @staticmethod
    def record(plan) -> list:
        return [list(a.dtheta) for a in plan]

    @staticmethod
    def same_plan(got: list, ref: list) -> bool:
        """Equal length and every tilt rate within TILT_TOLERANCE."""
        if len(got) != len(ref) or any(len(a) != len(b) for a, b in zip(got, ref)):
            return False
        return all(abs(x - y) <= TILT_TOLERANCE for a, b in zip(got, ref) for x, y in zip(a, b))


# workload -> the tasks of one round, each (task name, class); the input is
# inputs/<task name>.yaml
WORKLOADS = {
    "push_circle": (("push_circle", PushTask),),
    "push_lemniscate_long": (("push_lemniscate_long", PushTask),),
    "ball_line": (("ball_lemniscate", BallTask), ("ball_catch", BallTask)),
    "ball_square": (("ball_square", BallTask),),
}


def build(workload: str) -> list:
    return [cls(name, INPUTS / f"{name}.yaml") for name, cls in WORKLOADS[workload]]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["tasks"]


def _verdict(result) -> list:
    reason = result.failure_reason.value if result.failure_reason is not None else None
    return [result.success, result.failure_step, reason]


@dataclass
class Outcome:
    """What one task produced, with stage times. A stage that raises is
    recorded in ``errors`` and the later stages still run where they can."""

    task: str
    plan_s: float = 0.0
    replay_s: float = 0.0
    oracle_s: float = 0.0
    steps_ms: list = field(default_factory=list)
    plan: list | None = None
    planner: list | None = None
    replay: list | None = None
    escapes: int = 0
    rollouts: int = 0
    errors: list = field(default_factory=list)

    @property
    def verified_s(self) -> float:
        return self.plan_s + self.replay_s + self.oracle_s

    @property
    def passed(self) -> bool:
        """Planned, the replay agrees with the planner, and no rollout escaped."""
        return (
            not self.errors
            and bool(self.planner and self.planner[0])
            and self.replay == self.planner
            and self.rollouts > 0
            and self.escapes == 0
        )


def run_task(task, seed: int, clock=None) -> Outcome:
    out = Outcome(task.name)
    if clock is not None:
        clock.entries.clear()
    t0 = time.perf_counter()
    try:
        plan, verdict = task.plan()
    except Exception as e:  # counted as a failed stage; the run goes on
        out.errors.append(f"plan: {e!r}")
        plan = verdict = None
    t1 = time.perf_counter()
    out.plan_s = t1 - t0
    if clock is not None:
        out.steps_ms = clock.latencies_ms(t1)
    if plan is None:
        return out
    out.plan = task.record(plan)
    out.planner = _verdict(verdict)
    try:
        out.replay = _verdict(task.replay(plan))
    except Exception as e:  # counted as a failed stage; the run goes on
        out.errors.append(f"replay: {e!r}")
    t2 = time.perf_counter()
    out.replay_s = t2 - t1
    try:
        out.escapes, out.rollouts = task.oracle(plan, seed)
    except Exception as e:  # counted as a failed stage; the run goes on
        out.errors.append(f"oracle: {e!r}")
    out.oracle_s = time.perf_counter() - t2
    return out


def plan_matches(task, out: Outcome, ref: dict) -> bool:
    return out.plan is not None and task.same_plan(out.plan, ref["plan"])


def deviations(out: Outcome, ref: dict, seed: int) -> list[str]:
    """Where a task's outputs differ from its stored reference outcome.

    The planner and replay verdicts must equal the recorded ones, known
    failures included. A plan recorded as caged must keep every rollout
    caged on every seed; a plan recorded with escapes must reproduce its
    escape count on the seed it was recorded with.
    """
    found = list(out.errors)
    if out.planner is not None and out.planner != ref["planner"]:
        found.append(f"planner verdict {out.planner} != reference {ref['planner']}")
    if out.replay is not None and out.replay != ref["replay"]:
        found.append(f"replay verdict {out.replay} != reference {ref['replay']}")
    if ref["escapes"] == 0 and out.escapes:
        found.append(f"{out.escapes}/{out.rollouts} rollouts escaped a plan recorded as caged")
    if ref["escapes"] and seed == REFERENCE_SEED and out.escapes != ref["escapes"]:
        found.append(f"{out.escapes} escapes != reference {ref['escapes']} at seed {seed}")
    return found
