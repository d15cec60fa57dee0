"""Spans and step clocks recorded around the package's public functions.

Every wrapper is installed as a module attribute in the namespace that looks
the function up at call time (``push.contains_geometric`` is patched in
``push``, where ``plan_push`` and ``find_push`` find it, not in ``core``) and
is removed again when the round ends. The package's files are never changed.

A span is ``[name, start, end, parent, task]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``task`` labels the benchmark task that
caused it. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# (module that looks the function up, attribute, layer name). A function
# imported into several namespaces is patched in each of them under one
# layer name; ``ball.verify_ball_plan`` imports ``verify_caging_in_time``
# from ``core`` inside its body, hence the second entry for that layer.
LAYERS = (
    ("push", "plan_push", "push.plan_push"),
    ("push", "verify_push_plan", "push.verify_push_plan"),
    ("push", "find_push", "push.find_push"),
    ("push", "compute_poa", "push.compute_poa"),
    ("push", "heuristic_score", "push.heuristic_score"),
    ("push", "propagate_pss", "push.propagate_pss"),
    ("push", "max_spacing", "push.max_spacing"),
    ("push", "contains_geometric", "core.contains_geometric"),
    ("push", "verify_caging_in_time", "core.verify_caging_in_time"),
    ("core", "verify_caging_in_time", "core.verify_caging_in_time"),
    ("ball", "dynamic_control", "ball.dynamic_control"),
    ("ball", "verify_ball_plan", "ball.verify_ball_plan"),
    ("ball", "lie_derivatives", "ball.lie_derivatives"),
    ("ball", "propagate_prob", "ball.propagate_prob"),
    ("ball", "cbf_value", "ball.cbf_value"),
    ("ball", "clf_value", "ball.clf_value"),
    ("ball", "max_energy", "ball.max_energy"),
    ("ball", "_energy_field", "ball._energy_field"),
    ("ball", "e_max", "ball.e_max"),
    ("ball", "entropy", "ball.entropy"),
    ("ball", "balancing_setup", "ball.balancing_setup"),
    ("ball", "catching_setup", "ball.catching_setup"),
    ("qp", "solve", "qp.solve"),
    ("oracle", "rollout_push_plan", "oracle.rollout_push_plan"),
    ("oracle", "simulate_push", "oracle.simulate_push"),
    ("oracle", "rollout_ball", "oracle.rollout_ball"),
    ("oracle", "integrate_ball", "oracle.integrate_ball"),
    ("config", "load_config", "config.load_config"),
    ("config", "push_trajectory", "config.push_trajectory"),
    ("config", "ball_trajectory", "config.ball_trajectory"),
    ("trajectories", "circle", "trajectories"),
    ("trajectories", "lemniscate", "trajectories"),
    ("trajectories", "smooth_path", "trajectories"),
    ("trajectories", "resample_polyline", "trajectories"),
    ("trajectories", "as_vec2_list", "trajectories"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYERS))

# The function each planner calls exactly once per step; its entry clock
# reads delimit the per-step latencies of the untraced run.
STEP_HOOKS = (("push", "find_push"), ("ball", "lie_derivatives"))

ROOT = "bench.task"  # benchmark-level span around plan, replay and oracle


class Tracer:
    """In-memory span recorder with per-layer observations."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self.notes: dict[str, list[float]] = {}
        self._stack: list[int] = []

    def note(self, key: str, value: float) -> None:
        self.notes.setdefault(key, []).append(float(value))

    def parent_name(self, span: list) -> str | None:
        return self.spans[span[3]][0] if span[3] >= 0 else None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.task]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, span, out)
            return out

        return traced


class StepClock:
    """Entry times of the per-step hook; the untraced run's only wrapper."""

    def __init__(self):
        self.entries: list[float] = []

    def wrap(self, fn):
        entries = self.entries

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            entries.append(time.perf_counter())
            return fn(*args, **kwargs)

        return timed

    def latencies_ms(self, end: float) -> list[float]:
        """Per-step latencies; the last step ends when the planner returns."""
        marks = self.entries + [end]
        return [1000.0 * (b - a) for a, b in zip(marks[:-1], marks[1:])] if self.entries else []


@contextmanager
def patched(modules: dict, replacements):
    """Set ``(module key, attribute, new value)`` triples, restore on exit."""
    saved = []
    try:
        for key, attr, value in replacements:
            mod = modules[key]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


def traced(tracer: Tracer, modules: dict):
    return patched(
        modules,
        [(key, attr, tracer.wrap(name, getattr(modules[key], attr))) for key, attr, name in LAYERS],
    )


def clocked(clock: StepClock, modules: dict):
    return patched(
        modules, [(key, attr, clock.wrap(getattr(modules[key], attr))) for key, attr in STEP_HOOKS]
    )


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


# --- observations taken where the work happens ------------------------------


def _find_push(tr: Tracer, span, out) -> None:
    tr.note("push.pushes", out is not None)


def _propagate_pss(tr: Tracer, span, out) -> None:
    tr.note("push.pss_cells", out.count)


def _propagate_prob(tr: Tracer, span, out) -> None:
    grid, lost = out
    parent = tr.parent_name(span)
    tr.note("ball.probe", parent == "ball.lie_derivatives")
    if parent == "ball.dynamic_control":  # the belief the planner carries on
        tr.note("ball.support_cells", int((grid.values > 0).sum()))
        tr.note("ball.lost_mass", lost)


def _solve(tr: Tracer, span, out) -> None:
    tr.note("qp.infeasible", not out.feasible)
    tr.note("qp.nonzero", bool(out.feasible and (out.dtheta != 0).any()))


OBSERVERS = {
    "push.find_push": _find_push,
    "push.propagate_pss": _propagate_pss,
    "ball.propagate_prob": _propagate_prob,
    "qp.solve": _solve,
}
