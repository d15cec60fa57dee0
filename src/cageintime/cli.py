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
from typing import Callable

from . import ball as ballmod
from . import oracle as oraclemod
from .config import BadSpec, RunConfig, build_ball, build_push, build_sweep, load_config
from .core import CageCircle, PushAngle, action_to_json
from .push import plan_push, pusher_pose, replay
from .render import render_prob_frame, render_push_frame


def _write_plan(path: str, plan) -> None:
    # only a push plan holds NoAction steps, written as an empty push
    rows = [{"t": t, **(action_to_json(a) or {"theta": None, "k": None})}
            for t, a in enumerate(plan)]
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _run(cfg: RunConfig, planned, frames: Callable, oracle: Callable) -> int:
    """A push or ball run from the planner's (plan, result, log); oracle(plan) returns
    the rollouts.csv rows, the summary line and whether every rollout stayed caged."""
    plan, result, log = planned
    for message in log.warnings:
        print(f"warning: {message}", file=sys.stderr)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_plan(os.path.join(cfg.out_dir, "plan.json"), plan)
    log.write(os.path.join(cfg.out_dir, "runlog.jsonl"))
    if cfg.render:
        frame_dir = os.path.join(cfg.out_dir, "frames")
        os.makedirs(frame_dir, exist_ok=True)
        for t, img in enumerate(frames(plan)):
            img.write(os.path.join(frame_dir, f"frame_{t:04d}.pgm"))
    if not result.success:
        print(f"planning failed at step {result.failure_step}: {result.failure_reason}")
        return 2
    rows, summary, caged = oracle(plan)
    _write_csv(os.path.join(cfg.out_dir, "rollouts.csv"), rows)
    print(summary)
    return 0 if caged else 3


def _push_run(cfg: RunConfig) -> Callable[[], int]:
    problem, start, rollouts, ocfg = build_push(cfg)

    def frames(plan):
        for t, (action, (pss, _, _)) in enumerate(zip(plan, replay(problem, start, plan))):
            target = problem.trajectory[t + 1]
            pose = (pusher_pose(target, problem.R, action.theta, problem.pusher_length / 2.0)
                    if isinstance(action, PushAngle) else None)
            yield render_push_frame(pss, CageCircle(target, problem.cage_size), pose,
                                    problem.object_radius)

    def oracle(plan):
        errors = [e for _, e in oraclemod.push_rollouts(plan, problem, start, ocfg, rollouts)]
        worst = max(0.0, *errors)
        return ([["rollout", "max_error_mm"], *([i, f"{e:.4f}"] for i, e in enumerate(errors))],
                f"plan verified; worst oracle tracking error {worst:.2f} mm "
                f"over {rollouts} rollouts (cage {problem.cage_size:.0f} mm)",
                worst <= problem.cage_size)

    return lambda: _run(cfg, plan_push(problem, start), frames, oracle)


def _ball_run(cfg: RunConfig) -> Callable[[], int]:
    setup, traj, ocfg = build_ball(cfg)

    def frames(plan):
        """Replay the plan under the planner's plate accelerations."""
        accels = ballmod.trajectory_accels(traj, setup.params.dt)
        for grid, _, _, _ in ballmod.replay(setup.grid, plan, accels, setup.ball, setup.unc,
                                            setup.model, setup.params, setup.initial_tilt):
            yield render_prob_frame(grid)

    def oracle(plan):
        xs0, vs0, _ = setup.grid.support()
        rate, max_abs = oraclemod.rollout_ball(
            plan, traj, setup.ball, setup.unc, ocfg, setup.grid.x_max, setup.params.dt,
            setup.initial_tilt, (float(xs0.min()), float(xs0.max())),
            (float(vs0.min()), float(vs0.max())))
        return ([["rollout", "max_abs_x_m"], *([i, f"{m:.5f}"] for i, m in enumerate(max_abs))],
                f"plan verified; oracle success rate {rate:.2f} ({ocfg.rollouts} rollouts)",
                rate == 1.0)

    return lambda: _run(cfg, ballmod.dynamic_control(
        setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params, setup.initial_tilt,
    ), frames, oracle)


def _sweep(cfg: RunConfig, header, cells: list, run: Callable) -> int:
    # a push grid cell that failed to plan has no error columns
    rows = [[r.get(k, "") for k in header] for r in run(cells)]
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "sweep.csv"), [header, *rows])
    print(f"sweep finished: {len(rows)} cells")
    return 0


def _prepared(args: argparse.Namespace) -> Callable[[], int]:
    """Load the config and build the run before anything is planned or
    written; a value the task rejects is raised as BadSpec."""
    try:
        cfg = load_config(
            args.config, seed=args.seed, out_dir=args.out,
            render=args.render or args.command == "render",
        )
        if args.trials is not None:
            cfg.raw.update(trials=args.trials, rollouts=args.trials)
        if args.command not in (cfg.task, "render"):
            raise BadSpec(f"config task {cfg.task!r} does not match command "
                          f"{args.command!r}")
        if cfg.task == "sweep" and cfg.render:
            raise BadSpec("a sweep has no frames to render; render a push or ball config")
        if cfg.task == "sweep":
            sweep = build_sweep(cfg)
            return lambda: _sweep(cfg, *sweep)
        return (_push_run if cfg.task == "push" else _ball_run)(cfg)
    except BadSpec:
        raise
    except KeyError as e:
        raise BadSpec(f"missing config field {e}") from e
    except (ValueError, TypeError) as e:
        raise BadSpec(str(e)) from e


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cageintime", description="Open-loop manipulation planning with time-varying cages")
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
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
