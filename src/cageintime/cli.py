"""Command-line entry point: plan, verify, oracle-check, sweep, and render.

Exit codes: 0 verified success, 2 planning failure, 3 oracle containment
failure, 1 bad configuration or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from typing import Callable

import numpy as np

from . import ball as ballmod
from . import oracle as oraclemod
from .config import BadSpec, RunConfig, ball_trajectory, load_config, push_trajectory
from .core import CageCircle, PushAngle, Vec2, action_to_json
from .push import PushProblem, initial_set, plan_push, push_step, pusher_pose
from .render import render_prob_frame, render_push_frame
from .trajectories import as_vec2_list


def _write_plan(path: str, plan) -> None:
    # only a push plan holds NoAction steps, written as an empty push
    rows = [{"t": t, **(action_to_json(a) or {"theta": None, "k": None})}
            for t, a in enumerate(plan)]
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
        fh.write("\n")


# config keys of the PushProblem fields: the field name, with _mm on a length;
# a field the config leaves out keeps its PushProblem default
_PUSH_KEYS = ("object_radius_mm", "cage_size_mm", "K", "d_push_mm", "pusher_length_mm",
              "resolution_mm", "lambda1", "lambda2", "margin_mm", "shortlist")


def _push_problem(cfg: RunConfig) -> tuple[PushProblem, Vec2]:
    raw = cfg.raw
    waypoints = as_vec2_list(push_trajectory(raw))
    given = {key.removesuffix("_mm"): raw[key] for key in _PUSH_KEYS if key in raw}
    problem = PushProblem(
        trajectory=tuple(waypoints),
        **{name: type(getattr(PushProblem, name))(value) for name, value in given.items()},
    )
    q0 = raw.get("initial_position_mm")
    if q0 is None:
        return problem, waypoints[0]
    try:
        x, y = (float(c) for c in q0)
        return problem, Vec2(x, y)
    except (TypeError, ValueError) as e:
        raise BadSpec(f"initial_position_mm must be two finite numbers, got {q0!r}") from e


def _at_least_one(raw: dict, key: str, default: int) -> int:
    value = int(raw.get(key, default))
    if value < 1:
        raise BadSpec(f"{key} must be at least 1, got {value}")
    return value


def _ball_setup(raw: dict) -> tuple[ballmod.TaskSetup, np.ndarray]:
    mode = raw.get("mode", "balance")
    n = int(raw.get("n", 1))
    common = dict(
        N=int(raw.get("N", 81 if n == 1 else 31)),
        v_max=float(raw.get("v_max_m_s", 1.0)),
        beta_max=float(raw.get("beta_max", 25.0)),
    )
    if mode == "catch":
        setup = ballmod.catching_setup(
            v_center=float(raw.get("v0_m_s", 0.8)),
            dv=float(raw.get("dv0_m_s", 0.05)),
            k_ve=float(raw.get("k_ve", 60.0)),
            half_length=float(raw.get("half_length_m", 0.15)),
            **common,
        )
    else:
        setup = ballmod.balancing_setup(
            n=n, k_ve=float(raw.get("k_ve", 10.0)),
            half_length=float(raw.get("half_length_m", 0.08)),
            **common,
        )
    traj = ball_trajectory(raw, setup.params.dt, setup.grid.n)
    if traj is None:
        traj = setup.trajectory(float(raw["trajectory"].get("horizon_s", 3.0)))
    return setup, traj


def _print_warnings(log) -> None:
    for message in log.warnings:
        print(f"warning: {message}", file=sys.stderr)


def run_push(cfg: RunConfig, problem: PushProblem, start: Vec2, rollouts: int,
             ocfg: oraclemod.PushOracleConfig) -> int:
    plan, result, log = plan_push(problem, start)
    _print_warnings(log)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_plan(os.path.join(cfg.out_dir, "plan.json"), plan)
    log.write(os.path.join(cfg.out_dir, "runlog.jsonl"))
    if cfg.render:
        _write_frames(cfg, _push_frames(problem, start, plan))
    if not result.success:
        print(f"planning failed at step {result.failure_step}: {result.failure_reason}")
        return 2
    worst = 0.0
    with open(os.path.join(cfg.out_dir, "rollouts.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["rollout", "max_error_mm"])
        for i in range(rollouts):
            rng = np.random.default_rng(cfg.seed + i)
            _, err = oraclemod.rollout_push_plan(plan, problem, start, ocfg, rng)
            wr.writerow([i, f"{err:.4f}"])
            worst = max(worst, err)
    print(f"plan verified; worst oracle tracking error {worst:.2f} mm "
          f"over {rollouts} rollouts (cage {problem.cage_size:.0f} mm)")
    return 0 if worst <= problem.cage_size else 3


def _write_frames(cfg: RunConfig, frames) -> None:
    frame_dir = os.path.join(cfg.out_dir, "frames")
    os.makedirs(frame_dir, exist_ok=True)
    for t, img in enumerate(frames):
        img.write(os.path.join(frame_dir, f"frame_{t:04d}.pgm"))


def _push_frames(problem: PushProblem, start: Vec2, plan):
    pss = initial_set(problem, start)
    for t, action in enumerate(plan):
        pss, _ = push_step(problem, pss, action, t)
        target = problem.trajectory[t + 1]
        pose = None
        if isinstance(action, PushAngle):
            pose = pusher_pose(target, problem.R, action.theta, problem.pusher_length / 2.0)
        cage = CageCircle(target, problem.cage_size)
        yield render_push_frame(pss, cage, pose, problem.object_radius)


def _ball_frames(setup: ballmod.TaskSetup, traj, plan):
    """Replay the plan under the planner's plate accelerations."""
    accels = ballmod.trajectory_accels(traj, setup.params.dt)
    grid = setup.grid
    plate = ballmod.PlateState(grid.n, grid.x_max, setup.initial_tilt, accels[0])
    for t, action in enumerate(plan):
        grid, plate, _ = ballmod.ball_step(
            grid, replace(plate, accel=accels[t]), action.dtheta, setup.ball,
            setup.unc, setup.model, setup.params.dt,
        )
        yield render_prob_frame(grid)


def run_ball(cfg: RunConfig, setup: ballmod.TaskSetup, traj: np.ndarray,
             ocfg: oraclemod.BallOracleConfig) -> int:
    plan, result, log = ballmod.dynamic_control(
        setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params,
        setup.initial_tilt,
    )
    _print_warnings(log)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_plan(os.path.join(cfg.out_dir, "plan.json"), plan)
    log.write(os.path.join(cfg.out_dir, "runlog.jsonl"))
    if cfg.render:
        _write_frames(cfg, _ball_frames(setup, traj, plan))
    if not result.success:
        print(f"planning failed at step {result.failure_step}: {result.failure_reason}")
        return 2
    xs0, vs0, _ = setup.grid.support()
    rate, max_abs = oraclemod.rollout_ball(
        plan, traj, setup.ball, setup.unc, ocfg, setup.grid.x_max,
        setup.params.dt, setup.initial_tilt,
        (float(xs0.min()), float(xs0.max())),
        (float(vs0.min()), float(vs0.max())),
    )
    with open(os.path.join(cfg.out_dir, "rollouts.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["rollout", "max_abs_x_m"])
        for i, m in enumerate(max_abs):
            wr.writerow([i, f"{m:.5f}"])
    print(f"plan verified; oracle success rate {rate:.2f} "
          f"({ocfg.rollouts} rollouts)")
    return 0 if rate == 1.0 else 3


def run_sweep(cfg: RunConfig, cells: list[oraclemod.SweepCell]) -> int:
    rows = oraclemod.sensitivity_sweep(cells)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "sweep.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["v0", "dv0", "beta_max", "success_rate"])
        for r in rows:
            wr.writerow([r["v0"], r["dv0"], r["beta_max"], r["success_rate"]])
    print(f"sweep finished: {len(rows)} cells")
    return 0


def _task_run(cfg: RunConfig) -> Callable[[], int]:
    """Everything the task derives from its config, built before planning.
    Returns the run, which plans, checks and writes."""
    raw = cfg.raw
    if cfg.task == "push":
        problem, start = _push_problem(cfg)
        rollouts = _at_least_one(raw, "rollouts", 20)
        ocfg = oraclemod.PushOracleConfig(
            object_radius=float(raw.get("oracle_radius_mm", problem.object_radius)),
            seed=cfg.seed,
        )
        return lambda: run_push(cfg, problem, start, rollouts, ocfg)
    if cfg.task == "ball":
        setup, traj = _ball_setup(raw)
        ocfg = oraclemod.BallOracleConfig(rollouts=int(raw.get("rollouts", 20)), seed=cfg.seed)
        return lambda: run_ball(cfg, setup, traj, ocfg)
    cells = oraclemod.sweep_cells(
        v0_grid=[float(v) for v in raw["v0_grid"]],
        dv0_grid=[float(v) for v in raw["dv0_grid"]],
        beta_grid=[float(v) for v in raw["beta_grid"]],
        trials=_at_least_one(raw, "trials", 100),
        seed=cfg.seed,
        horizon_s=float(raw.get("horizon_s", 3.0)),
    )
    return lambda: run_sweep(cfg, cells)


def _prepared(args: argparse.Namespace) -> Callable[[], int]:
    """Load the config and build the run before anything is planned or
    written; a value the task rejects is raised as BadSpec."""
    try:
        cfg = load_config(
            args.config, seed=args.seed, out_dir=args.out,
            render=args.render or args.command == "render",
        )
        if args.trials is not None:
            cfg.raw["trials"] = args.trials
            cfg.raw["rollouts"] = args.trials
        expected = {"push": "push", "ball": "ball", "sweep": "sweep", "render": cfg.task}
        if cfg.task != expected[args.command]:
            raise BadSpec(f"config task {cfg.task!r} does not match command "
                          f"{args.command!r}")
        if cfg.task == "sweep" and cfg.render:
            raise BadSpec("a sweep has no frames to render; render a push or ball config")
        return _task_run(cfg)
    except BadSpec:
        raise
    except KeyError as e:
        raise BadSpec(f"missing config field {e}") from e
    except (ValueError, TypeError) as e:
        raise BadSpec(str(e)) from e


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cageintime",
        description="Open-loop manipulation planning with time-varying cages",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("push", "ball", "sweep", "render"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--render", action="store_true")
        p.add_argument("--trials", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        return _prepared(args)()
    except BadSpec as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {getattr(e, 'filename', '')}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
