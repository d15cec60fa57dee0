"""The benchmark patches package functions by (module, attribute) name and
builds its inputs through the package's constructors and task setups; every
name, field and keyword it uses must still resolve, or a refactor breaks the
benchmark silently."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_layer_and_step_hook_resolves():
    spans = load("spans")
    hooks = [(key, attr) for key, attr, _ in spans.LAYERS] + list(spans.STEP_HOOKS)
    missing = [
        (key, attr) for key, attr in hooks
        if not callable(getattr(importlib.import_module(f"cageintime.{key}"), attr, None))
    ]
    assert hooks and not missing


def test_every_workload_builds():
    tasks = load("tasks")
    for workload, entries in tasks.WORKLOADS.items():
        assert len(tasks.build(workload)) == len(entries)


@pytest.fixture(scope="module", params=["push_circle", "push_lemniscate_long", "ball_line",
                                        "ball_square"])
def planned(request):
    """The benchmark module and each task of one workload with its plan and
    planner verdict, planned once for every test here."""
    tasks = load("tasks")
    return tasks, [(task, *task.plan()) for task in tasks.build(request.param)]


def test_plans_match_reference(planned):
    tasks, runs = planned
    reference = tasks.load_reference()
    for task, plan, verdict in runs:
        ref = reference[task.name]
        assert task.same_plan(task.record(plan), ref["plan"]), task.name
        assert tasks._verdict(verdict) == ref["planner"], task.name
        # the replay verdicts are pinned too, the catch's known false escape included
        assert tasks._verdict(task.replay(plan)) == ref["replay"], task.name


def test_oracle_verdicts_match_reference(planned):
    """The oracle checks of ``tasks.deviations``: a plan recorded as caged
    keeps every rollout caged on seeds 0-2, and one recorded with escapes
    (the catch's 4 of 20) repeats its count at the reference seed."""
    tasks, runs = planned
    reference = tasks.load_reference()
    for task, plan, _ in runs:
        ref = reference[task.name]
        if ref["escapes"]:
            got = [task.oracle(plan, tasks.REFERENCE_SEED)]
            want = [(ref["escapes"], ref["rollouts"])]
        else:
            got = [task.oracle(plan, seed) for seed in range(3)]
            want = [(0, ref["rollouts"])] * 3
        assert got == want, task.name


@pytest.mark.parametrize("workload", ["ball_line", "ball_square"])
def test_traced_round_runs_with_the_observers(workload):
    """One traced round of a ball workload, as ``--trace 1`` runs it: every
    layer wrapped, its observers reading the planner's beliefs and the QP's
    solutions, and the round's outputs those of the reference."""
    tasks, spans = load("tasks"), load("spans")
    reference = tasks.load_reference()
    tracer = spans.Tracer()
    for task in tasks.build(workload):
        tracer.task = f"round0:{task.name}"
        with spans.traced(tracer, tasks.MODULES), tracer.span(spans.ROOT):
            out = tasks.run_task(task, tasks.REFERENCE_SEED)
        assert tasks.deviations(out, reference[task.name], tasks.REFERENCE_SEED) == [], task.name
    # one observation of the carried belief per step the planner took
    steps = sum(len(reference[name]["plan"]) for name, _ in tasks.WORKLOADS[workload])
    assert len(tracer.notes["ball.lost_mass"]) == steps
    assert len(tracer.notes["ball.support_cells"]) == steps
    assert min(tracer.notes["ball.support_cells"]) >= 1
    assert len(tracer.notes["qp.infeasible"]) > 0
    names = {span[0] for span in tracer.spans}
    assert {"ball.dynamic_control", "ball.verify_ball_plan", "ball.lie_derivatives",
            "ball.propagate_prob", "qp.solve", "oracle.rollout_ball"} <= names


def test_traced_push_round_runs_with_the_observers():
    """One traced round of ``push_circle``, as ``--trace 1`` runs it: its
    outputs those of the reference, one push observation per planner step,
    one set size per planner and replay step, one scoring span per push."""
    tasks, spans = load("tasks"), load("spans")
    reference = tasks.load_reference()
    tracer = spans.Tracer()
    (task,) = tasks.build("push_circle")
    tracer.task = f"round0:{task.name}"
    with spans.traced(tracer, tasks.MODULES), tracer.span(spans.ROOT):
        out = tasks.run_task(task, tasks.REFERENCE_SEED)
    assert tasks.deviations(out, reference[task.name], tasks.REFERENCE_SEED) == []
    steps = len(reference[task.name]["plan"])
    pushes = tracer.notes["push.pushes"]
    assert (steps, sum(pushes)) == (119, 118)
    assert len(pushes) == steps
    assert len(tracer.notes["push.pss_cells"]) == 2 * steps
    names = [span[0] for span in tracer.spans]
    assert names.count("push.heuristic_score") == sum(pushes)
