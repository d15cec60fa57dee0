"""YAML run-configuration ingestion: the one reader of the config format.

Every length field carries its unit as a suffix (_mm for the pushing task,
_m for the dynamic task) so the two unit regimes cannot be confused. A field
the config leaves out takes the default of the library call it feeds
(``PushProblem``, the ball setups, ``BallOracleConfig``). Building a run is
its check: a value the task rejects raises before anything is planned.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
import yaml

from . import ball as ballmod
from . import oracle as oraclemod
from .core import BadSpec, Vec2
from .push import PushProblem
from . import trajectories as traj


@dataclass(frozen=True)
class RunConfig:
    task: str  # push | ball | sweep
    raw: dict
    seed: int = 0
    render: bool = False
    out_dir: str = "out"

    def __post_init__(self):
        if self.task not in ("push", "ball", "sweep"):
            raise BadSpec(f"unknown task {self.task!r}")


def load_config(path: str, seed: Optional[int] = None,
                out_dir: Optional[str] = None, render: bool = False) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise BadSpec(f"cannot read config {path}: {e}") from e
    if not isinstance(raw, dict) or "task" not in raw:
        raise BadSpec(f"config {path} must be a mapping with a 'task' field")
    spec = raw.get("trajectory")
    if isinstance(spec, dict) and isinstance(spec.get("file"), str):
        # a polyline file is named relative to the config that names it
        spec["file"] = os.path.join(os.path.dirname(path), spec["file"])
    return RunConfig(
        task=str(raw["task"]),
        raw=raw,
        seed=_integer("seed", seed if seed is not None else raw.get("seed", 0)),
        render=bool(render or raw.get("render", False)),
        out_dir=str(out_dir if out_dir is not None else raw.get("out", "out")),
    )


def _integer(key: str, value) -> int:
    """An integer config value that fits 64 bits: an int or an integral float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise BadSpec(f"{key} must be an integer, got {value!r}")
    value = int(value)
    if not -2**63 <= value < 2**63:
        raise BadSpec(f"{key} does not fit a 64-bit integer")
    return value


def _real(key: str, value) -> float:
    """A finite real config value: an int or a float that fits a float,
    never a bool, a string, NaN or an infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadSpec(f"{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise BadSpec(f"{key} does not fit a float") from None
    if not math.isfinite(value):
        raise BadSpec(f"{key} must be finite, got {value}")
    return value


def _grid(raw: dict, key: str, read: Callable = _real) -> list:
    """A sweep grid: a nonempty list of finite numbers, each read by ``read``."""
    values = raw.get(key)
    try:
        numbers = isinstance(values, list) and values and [_real(key, v) for v in values]
    except BadSpec:
        numbers = False
    if not numbers:
        raise BadSpec(f"{key} must be a nonempty list of finite numbers, got {values!r}")
    return [read(key, v) for v in values]


def _given(raw: dict, keys: dict) -> dict:
    """Keyword arguments of the keys present, each mapped to (parameter, type)."""
    return {name: (_integer if kind is int else _real)(key, raw[key])
            for key, (name, kind) in keys.items() if key in raw}


def _at_least_one(raw: dict, key: str, default: int) -> int:
    value = _integer(key, raw.get(key, default))
    if value < 1:
        raise BadSpec(f"{key} must be at least 1, got {value}")
    return value


def _horizon_s(spec: dict) -> float:
    return _real("horizon_s", spec.get("horizon_s", ballmod.DEFAULT_HORIZON_S))


def _trajectory_spec(raw: dict) -> dict:
    spec = raw.get("trajectory")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise BadSpec("trajectory spec must be a mapping with 'kind'")
    return spec


def _polyline(spec: dict, spacing_key: str) -> np.ndarray:
    try:
        pts = np.loadtxt(spec["file"], delimiter=",", ndmin=2)
    except OSError as e:
        raise BadSpec(f"cannot read polyline file {spec['file']!r}: {e}") from e
    return traj.resample_polyline(pts, _real(spacing_key, spec[spacing_key]))


def push_trajectory(raw: dict) -> np.ndarray:
    spec = _trajectory_spec(raw)
    kind = spec["kind"]
    if kind == "circle":
        return traj.circle(_real("radius_mm", spec["radius_mm"]), _integer("steps", spec["steps"]))
    if kind == "lemniscate":
        return traj.lemniscate(_real("amplitude_mm", spec["amplitude_mm"]),
                               _integer("steps", spec["steps"]),
                               _integer("loops", spec.get("loops", 1)))
    if kind == "polyline":
        return _polyline(spec, "spacing_mm")
    raise BadSpec(f"unknown trajectory kind {kind!r}")


def ball_trajectory(raw: dict, dt: float, n: int) -> Optional[np.ndarray]:
    """Build the plate path, or None for 'retreat' (task-derived path)."""
    spec = _trajectory_spec(raw)
    kind = spec["kind"]
    if kind == "retreat":
        return None
    if kind == "stationary":
        T = ballmod.horizon_steps(_horizon_s(spec), dt)
        return np.zeros((T + 1, n + 1))
    if kind == "lemniscate":
        xy = traj.lemniscate(
            _real("amplitude_m", spec["amplitude_m"]), _integer("steps", spec["steps"]),
            _integer("loops", spec.get("loops", 1)), ease=bool(spec.get("ease", True)),
        )
    elif kind == "polyline":
        xy = _polyline(spec, "spacing_m")
    else:
        raise BadSpec(f"unknown trajectory kind {kind!r}")
    window = _integer("smooth_window", spec.get("smooth_window", 0))
    if window:
        xy = traj.smooth_path(xy, window, _integer("smooth_passes", spec.get("smooth_passes", 1)))
    return xy if n == 1 else np.column_stack([xy, np.zeros(len(xy))])


# config key -> (field, type) of PushProblem: the field name, with _mm on a length
_PUSH_KEYS = {
    key: (key.removesuffix("_mm"), type(getattr(PushProblem, key.removesuffix("_mm"))))
    for key in ("object_radius_mm", "cage_size_mm", "K", "d_push_mm", "pusher_length_mm",
                "resolution_mm", "lambda1", "lambda2", "margin_mm", "shortlist")
}


def build_push(cfg: RunConfig) -> tuple[PushProblem, Vec2, int, oraclemod.PushOracleConfig]:
    """The problem, start position, oracle rollout count and oracle of a push run."""
    raw = cfg.raw
    waypoints = traj.as_vec2_list(push_trajectory(raw))
    problem = PushProblem(trajectory=tuple(waypoints), **_given(raw, _PUSH_KEYS))
    start = waypoints[0]
    q0 = raw.get("initial_position_mm")
    if q0 is not None:
        try:
            x, y = (_real("initial_position_mm", c) for c in q0)
            start = Vec2(x, y)
        except (TypeError, ValueError) as e:
            raise BadSpec(f"initial_position_mm must be two finite numbers, got {q0!r}") from e
    # the push oracle runs as many rollouts as the ball oracle by default
    rollouts = _at_least_one(raw, "rollouts", oraclemod.BallOracleConfig.rollouts)
    radius = _real("oracle_radius_mm", raw.get("oracle_radius_mm", problem.object_radius))
    if radius > problem.object_radius:
        raise BadSpec(f"oracle_radius_mm must not exceed object_radius_mm "
                      f"{problem.object_radius}, got {radius}")
    return problem, start, rollouts, oraclemod.PushOracleConfig(
        object_radius=radius, seed=cfg.seed)


# config key -> (parameter, type) of both ball setups
_SETUP_KEYS = {"N": ("N", int), "v_max_m_s": ("v_max", float), "beta_max": ("beta_max", float),
               "k_ve": ("k_ve", float), "half_length_m": ("half_length", float)}


def build_ball(cfg: RunConfig) -> tuple[ballmod.TaskSetup, np.ndarray, oraclemod.BallOracleConfig]:
    """The task setup, plate path and oracle of a ball run. A balance runs on
    the plate of dimension n; a catch runs only on the line (n = 1)."""
    raw = cfg.raw
    spec = _trajectory_spec(raw)
    mode = raw.get("mode", "balance")
    if mode == "balance":
        setup = ballmod.balancing_setup(**_given(raw, {"n": ("n", int), **_SETUP_KEYS}))
    elif mode != "catch":
        raise BadSpec(f"mode must be 'balance' or 'catch', got {mode!r}")
    elif _integer("n", raw.get("n", 1)) != 1:
        raise BadSpec(f"a catch runs on the line: n must be 1, got {raw['n']!r}")
    else:
        setup = ballmod.catching_setup(**_given(
            raw, {"v0_m_s": ("v_center", float), "dv0_m_s": ("dv", float), **_SETUP_KEYS}))
    path = ball_trajectory(raw, setup.params.dt, setup.grid.n)
    if path is None:
        path = setup.trajectory(_horizon_s(spec))
    return setup, path, oraclemod.BallOracleConfig(
        seed=cfg.seed, **_given(raw, {"rollouts": ("rollouts", int)}))


_CATCH_GRIDS = ("v0_grid", "dv0_grid", "beta_grid")
_PUSH_GRIDS = ("circle_steps", "K_grid")


def build_sweep(cfg: RunConfig) -> tuple[tuple[str, ...], list, Callable[[list], list[dict]]]:
    """The CSV columns, every cell built, and the runner of one row per
    cell: the catching sweep or the push grid, by which grids the config sets."""
    raw = cfg.raw
    kinds = [keys for keys in (_CATCH_GRIDS, _PUSH_GRIDS) if any(key in raw for key in keys)]
    if len(kinds) != 1:
        raise BadSpec(f"a sweep sets exactly one kind of grid: the catch grids "
                      f"{', '.join(_CATCH_GRIDS)} or the push grid {', '.join(_PUSH_GRIDS)}")
    if kinds[0] is _PUSH_GRIDS:
        steps = raw.get("circle_steps")
        if not (isinstance(steps, dict) and steps):
            raise BadSpec(f"circle_steps must map finite cage sizes to waypoint counts, "
                          f"got {steps!r}")
        problems = oraclemod.push_grid_cells(
            {_real("circle_steps", c): _integer("circle_steps", n) for c, n in steps.items()},
            _grid(raw, "K_grid", _integer))
        return oraclemod.PUSH_GRID_COLUMNS, problems, partial(
            oraclemod.push_grid, rollouts=_at_least_one(raw, "rollouts", 100), seed=cfg.seed)
    cells = oraclemod.sweep_cells(
        *(_grid(raw, key) for key in _CATCH_GRIDS),
        trials=_at_least_one(raw, "trials", 100), seed=cfg.seed, horizon_s=_horizon_s(raw),
    )
    return oraclemod.SWEEP_COLUMNS, cells, oraclemod.sensitivity_sweep
