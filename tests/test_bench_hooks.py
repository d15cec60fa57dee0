"""The benchmark patches package functions by (module, attribute) name; every
name it lists must still resolve, or a refactor breaks the benchmark silently."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_and_step_hook_resolves():
    spans = load_spans()
    hooks = [(key, attr) for key, attr, _ in spans.LAYERS] + list(spans.STEP_HOOKS)
    missing = [
        (key, attr) for key, attr in hooks
        if not callable(getattr(importlib.import_module(f"cageintime.{key}"), attr, None))
    ]
    assert hooks and not missing
