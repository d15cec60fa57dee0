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


@pytest.mark.parametrize("workload", ["push_circle", "push_lemniscate_long", "ball_line",
                                      "ball_square"])
def test_plans_match_reference(workload):
    tasks = load("tasks")
    reference = tasks.load_reference()
    for task in tasks.build(workload):
        plan, verdict = task.plan()
        ref = reference[task.name]
        assert task.same_plan(task.record(plan), ref["plan"]), task.name
        assert tasks._verdict(verdict) == ref["planner"], task.name
        # the replay verdicts are pinned too, the catch's known false escape included
        assert tasks._verdict(task.replay(plan)) == ref["replay"], task.name
