"""Tests of the benchmark itself: metric names, emitted metric sets, span
self-time arithmetic, the reference-plan tolerance and failure counting.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import tasks  # noqa: E402
from cageintime.core import FailureReason, VerificationResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed():
    names = E2E + LAYER + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_spec_agrees_with_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(tasks.WORKLOADS)
    assert "setup_s" in E2E


def test_interaction_map_covers_every_layer_metric():
    doc = json.loads((BENCH / "interactions.json").read_text())["metrics"]
    assert list(doc) == LAYER
    workloads = set(tasks.WORKLOADS)
    for name, entry in doc.items():
        for metric, workload in entry["moves"] + entry["flat"]:
            assert metric in E2E and workload in workloads, (name, metric, workload)


def _outcome(name="t", steps=(1.0, 2.0), escapes=0, passed=True):
    verdict = [True, None, None]
    return tasks.Outcome(
        name, plan_s=1.0, replay_s=0.5, oracle_s=0.25, steps_ms=list(steps), plan=[],
        planner=verdict, replay=verdict if passed else [False, 3, "EscapedCage"],
        escapes=escapes, rollouts=20,
    )


@pytest.mark.parametrize("workload", list(tasks.WORKLOADS))
def test_every_metric_is_emitted_for_every_workload(workload):
    names = [name for name, _ in tasks.WORKLOADS[workload]]
    rounds = [[_outcome(n) for n in names] for _ in range(3)]
    e2e = run.e2e_metrics([0.1, 0.2, 0.3], rounds, [True] * 6, 60.0)
    assert list(e2e) == E2E

    tracer = spans.Tracer()
    for r in range(2):
        for n in names:
            tracer.task = f"round{r}:{n}"
            with tracer.span(spans.ROOT):
                with tracer.span("push.plan_push"):
                    pass
    layer = run.layer_metrics(tracer, 11, rounds, 2)
    assert set(layer) == set(LAYER)
    for m in list(e2e.values()) + list(layer.values()):
        assert isinstance(m["value"], float | int)


def test_e2e_ratios_count_failures_and_escapes():
    rounds = [[_outcome("a"), _outcome("b", escapes=4, passed=False)]]
    m = run.e2e_metrics([0.1], rounds, [True, False], 60.0)
    assert m["pass_ratio"]["value"] == 0.5
    assert m["oracle_contained_ratio"]["value"] == 36 / 40
    assert m["plan_match"]["value"] == 0.5
    assert m["verified_plan_s"]["value"] == 3.5


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1, "t"],
        ["a", 1.0, 4.0, 0, "t"],
        ["a.child", 2.0, 3.0, 1, "t"],
        ["b", 5.0, 6.0, 0, "t"],
        ["late", 8.0, 12.0, 0, "t"],  # runs past its parent: only 8..10 counts
        ["leaf", 20.0, 20.5, -1, "u"],
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 1.0, 4.0, 0.5])


def test_tracer_records_nesting_and_restores_patches():
    import types

    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    orig_inner, orig_outer = mod.inner, mod.outer
    tracer = spans.Tracer()
    tracer.task = "t0"
    repl = [("m", "outer", tracer.wrap("m.outer", mod.outer)),
            ("m", "inner", tracer.wrap("m.inner", mod.inner))]
    with spans.patched({"m": mod}, repl):
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == (orig_inner, orig_outer)
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("m.outer", -1, "t0"), ("m.inner", 0, "t0")]


def test_plan_tolerance_is_exact_for_k_and_1e12_for_tilt():
    assert tasks.PushTask.same_plan([3, None, 7], [3, None, 7])
    assert not tasks.PushTask.same_plan([3, None, 7], [3, None, 8])
    assert not tasks.PushTask.same_plan([3, None], [3, None, 7])
    ref = [[0.25], [-0.5]]
    assert tasks.BallTask.same_plan([[0.25 + 5e-13], [-0.5]], ref)
    assert not tasks.BallTask.same_plan([[0.25 + 5e-12], [-0.5]], ref)
    assert not tasks.BallTask.same_plan([[0.25]], ref)


class FakeTask:
    name = "fake"
    record = staticmethod(list)
    same_plan = staticmethod(tasks.PushTask.same_plan)

    def __init__(self, fail_plan=False, replay_step=None, escapes=0, fail_oracle=False):
        self.fail_plan, self.replay_step = fail_plan, replay_step
        self.escapes, self.fail_oracle = escapes, fail_oracle
        self.replayed = False

    def plan(self):
        if self.fail_plan:
            raise RuntimeError("no plan")
        return [1, 2, 3], VerificationResult(True)

    def replay(self, plan):
        self.replayed = True
        if self.replay_step is None:
            return VerificationResult(True)
        return VerificationResult(False, self.replay_step, FailureReason.EscapedCage)

    def oracle(self, plan, seed):
        if self.fail_oracle:
            raise ValueError("oracle broke")
        return self.escapes, 20


REF_OK = {"planner": [True, None, None], "replay": [True, None, None], "escapes": 0,
          "plan": [1, 2, 3]}


def test_a_failing_stage_is_counted_not_raised():
    out = tasks.run_task(FakeTask(fail_plan=True), seed=0)
    assert not out.passed and out.errors == ["plan: RuntimeError('no plan')"]
    assert tasks.deviations(out, REF_OK, 0)

    task = FakeTask(fail_oracle=True)
    out = tasks.run_task(task, seed=0)
    assert task.replayed and out.replay == [True, None, None]
    assert not out.passed and tasks.deviations(out, REF_OK, 0)


def test_known_failures_match_their_reference_but_still_fail_the_task():
    known = dict(REF_OK, replay=[False, 35, "EscapedCage"], escapes=4)
    out = tasks.run_task(FakeTask(replay_step=35, escapes=4), seed=0)
    assert not out.passed
    assert tasks.deviations(out, known, 0) == []
    assert tasks.deviations(out, known, 1) == []  # escapes vary with the seed
    assert tasks.deviations(tasks.run_task(FakeTask(replay_step=35, escapes=3), 0), known, 0)
    assert tasks.deviations(out, REF_OK, 1)  # against a clean reference it deviates
    escaped = tasks.run_task(FakeTask(escapes=1), seed=5)
    assert not escaped.passed and tasks.deviations(escaped, REF_OK, 5)


@pytest.mark.parametrize("trace", [0, 1])
def test_a_real_run_prints_exactly_the_spec_metrics(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "push_circle",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == (LAYER if trace else E2E)
    if trace:  # layer self times and the uncovered rest add up to the round
        m = {k: v["value"] for k, v in result["metrics"].items()}
        rounds = [f"{n}.self_s" for n in spans.LAYER_NAMES if n not in run.SETUP_LAYERS]
        total = sum(m[k] for k in rounds) + m["trace.uncovered_s"]
        assert total == pytest.approx(m["trace.verified_plan_s"], rel=1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "push_circle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
