#!/usr/bin/env python3
"""cageintime benchmark: time to a verified plan, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload push_circle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record     # re-record perfbench/reference.json

One client in a closed loop: a round runs every task of the workload (plan,
independent replay, oracle rollouts) and the next round starts when it ends.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced rounds and prints the per-layer metrics. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (benchmark-local module next to this file)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 31
MIN_STEP_SAMPLES = 100  # p90 keeps at least ten samples beyond it
HARD_STOP_S = 120.0  # never start a round after this, whatever else holds
OUT_DIR = ".bench_out"

E2E_UNITS = {
    "setup_s": "s",
    "verified_plan_s": "s",
    "plan_s": "s",
    "plan_step_ms_p50": "ms",
    "plan_step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "oracle_contained_ratio": "ratio",
    "plan_match": "ratio",
}

# layers that run during set-up only; reported per set-up, not per round
SETUP_LAYERS = {"config.load_config", "config.push_trajectory", "config.ball_trajectory",
                "trajectories", "ball.balancing_setup", "ball.catching_setup"}

DERIVED_UNITS = {
    "push.pss_cells_mean": "cells",
    "push.push_ratio": "ratio",
    "ball.probe_share": "ratio",
    "ball.support_cells_mean": "cells",
    "ball.lost_mass_total": "mass",
    "qp.solve.infeasible": "count",
    "qp.nonzero_ratio": "ratio",
    "trace.verified_plan_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "trace.spans": "count",
}


def layer_units() -> dict:
    units = {}
    for name in spans.LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def e2e_metrics(setup_times, rounds, matches, rss_mb) -> dict:
    """End-to-end metrics from untraced rounds (lists of Outcome)."""
    outcomes = [o for r in rounds for o in r]
    steps = [ms for o in outcomes for ms in o.steps_ms]
    rollouts = sum(o.rollouts for o in outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        "verified_plan_s": statistics.median(sum(o.verified_s for o in r) for r in rounds),
        "plan_s": statistics.median(sum(o.plan_s for o in r) for r in rounds),
        "plan_step_ms_p50": statistics.median(steps) if steps else 0.0,
        "plan_step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[8]
        if len(steps) > 1 else 0.0,
        "peak_rss_mb": rss_mb,
        "pass_ratio": sum(o.passed for o in outcomes) / len(outcomes),
        "oracle_contained_ratio": (rollouts - sum(o.escapes for o in outcomes)) / rollouts
        if rollouts else 0.0,
        "plan_match": sum(matches) / len(matches),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(tracer, n_setups: int, untraced_rounds, n_traced: int) -> dict:
    """Per-layer metrics: setup layers per setup, the rest per traced round."""
    selfs = spans.self_times(tracer.spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    round_total: dict = {}
    round_uncovered: dict = {}
    for span, own in zip(tracer.spans, selfs):
        name, start, end, parent, task = span
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name == spans.ROOT:
            rnd = task.split(":")[0]
            round_total[rnd] = round_total.get(rnd, 0.0) + (end - start)
            round_uncovered[rnd] = round_uncovered.get(rnd, 0.0) + own
    values = {}
    for name in spans.LAYER_NAMES:
        div = n_setups if name in SETUP_LAYERS else n_traced
        values[f"{name}.calls"] = calls.get(name, 0) / div
        values[f"{name}.self_s"] = self_s.get(name, 0.0) / div
    notes = tracer.notes
    # means over rounds, like the per-round layer values, so that the layer
    # self times plus the uncovered time add up to the traced round
    traced_verified = statistics.fmean(round_total.values())
    untraced_verified = statistics.fmean(sum(o.verified_s for o in r) for r in untraced_rounds)
    values.update({
        "push.pss_cells_mean": _mean(notes.get("push.pss_cells")),
        "push.push_ratio": _mean(notes.get("push.pushes")),
        "ball.probe_share": _mean(notes.get("ball.probe")),
        "ball.support_cells_mean": _mean(notes.get("ball.support_cells")),
        "ball.lost_mass_total": sum(notes.get("ball.lost_mass", ())) / n_traced,
        "qp.solve.infeasible": sum(notes.get("qp.infeasible", ())) / n_traced,
        "qp.nonzero_ratio": _mean(notes.get("qp.nonzero")),
        "trace.verified_plan_s": traced_verified,
        "trace.overhead_s": traced_verified - untraced_verified,
        "trace.uncovered_s": statistics.fmean(round_uncovered.values()),
        "trace.spans": sum(s[4].startswith("round") for s in tracer.spans) / n_traced,
    })
    units = layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


# --trace 1 runs rounds in groups of four, untraced-traced-traced-untraced, so
# that warm-up and drift fall on both sides of the overhead comparison
TRACE_PATTERN = (False, True, True, False)


def _keep_going(elapsed: float, round_times, step_samples: int, traced_run: bool,
                seconds: float) -> bool:
    if elapsed >= HARD_STOP_S:
        return False
    if traced_run and len(round_times) % len(TRACE_PATTERN):
        return True
    if not traced_run and step_samples < MIN_STEP_SAMPLES:
        return True
    return elapsed + statistics.median(round_times) / 2.0 < seconds


def run_workload(tasks, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = tasks.load_reference()
    clock = spans.StepClock()
    tracer = spans.Tracer() if trace else None
    t_start = time.perf_counter()

    setup_times = []

    def set_up(count: int):
        for _ in range(count):
            if tracer is not None:
                tracer.task = f"setup{len(setup_times)}"
            with spans.traced(tracer, tasks.MODULES) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                built = tasks.build(workload)
                setup_times.append(time.perf_counter() - t0)
        return built

    # half of the set-ups before the rounds and half after, so that their
    # median samples the machine at both ends of the run
    built = set_up(SETUP_REPEATS // 2)

    untraced, traced, round_times, log = [], [], [], []
    attempted = failed = 0
    matches = []
    while True:
        r0 = time.perf_counter()
        is_traced = tracer is not None and TRACE_PATTERN[len(round_times) % len(TRACE_PATTERN)]
        outcomes = []
        for task in built:
            if is_traced:
                tracer.task = f"round{len(traced)}:{task.name}"
                with spans.traced(tracer, tasks.MODULES), tracer.span(spans.ROOT):
                    out = tasks.run_task(task, seed)
            else:
                with spans.clocked(clock, tasks.MODULES):
                    out = tasks.run_task(task, seed, clock)
            outcomes.append(out)
            bad = tasks.deviations(out, ref[task.name], seed)
            attempted += 1
            failed += bool(bad)
            if not is_traced:
                matches.append(tasks.plan_matches(task, out, ref[task.name]))
            if not out.passed or bad:
                log.append((task.name, out, bad))
        (traced if is_traced else untraced).append(outcomes)
        round_times.append(time.perf_counter() - r0)
        steps = sum(len(o.steps_ms) for r in untraced for o in r)
        if not _keep_going(time.perf_counter() - t_start, round_times, steps,
                           tracer is not None, seconds):
            break

    set_up(SETUP_REPEATS - SETUP_REPEATS // 2)
    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = e2e_metrics(setup_times, untraced, matches, rss_mb)
    else:
        metrics = layer_metrics(tracer, SETUP_REPEATS, untraced, len(traced))
        write_spans(tracer, workload, seed)
    report_failures(log)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def report_failures(log) -> None:
    """One line per distinct task failure; known failures are listed too."""
    seen = set()
    for name, out, bad in log:
        line = (f"task {name}: planner {out.planner}, replay {out.replay}, "
                f"{out.escapes}/{out.rollouts} rollouts escaped"
                + (f"; differs from reference: {'; '.join(bad)}" if bad else ""))
        if line not in seen:
            seen.add(line)
            print(line)


def write_spans(tracer, workload: str, seed: int) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}.jsonl")
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def record(tasks) -> int:
    """Re-record every workload's reference plans and verdicts."""
    out = {}
    for workload in tasks.WORKLOADS:
        for task in tasks.build(workload):
            res = tasks.run_task(task, tasks.REFERENCE_SEED)
            if res.errors:
                print(f"error: {task.name}: {res.errors}", file=sys.stderr)
                return 1
            out[task.name] = {
                "kind": task.kind,
                "planner": res.planner,
                "replay": res.replay,
                "escapes": res.escapes,
                "rollouts": res.rollouts,
                "plan": res.plan,
            }
            print(f"{task.name}: planner {res.planner}, replay {res.replay}, "
                  f"{res.escapes}/{res.rollouts} escapes at seed {tasks.REFERENCE_SEED}")
    with open(tasks.REFERENCE, "w") as fh:
        json.dump({"seed": tasks.REFERENCE_SEED, "tilt_tolerance": tasks.TILT_TOLERANCE,
                   "tasks": out}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "cageintime" / "__init__.py").is_file():
        print(f"error: {src / 'cageintime'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # pinned before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import tasks  # noqa: E402  (imports the package from src/)

    if not Path(tasks.pushmod.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: cageintime imported from {tasks.pushmod.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.record:
        return record(tasks)
    if args.workload not in tasks.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(tasks.WORKLOADS)}")

    result = run_workload(tasks, args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
