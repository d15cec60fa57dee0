"""YAML run-configuration ingestion.

Every length field carries its unit as a suffix (_mm for the pushing task,
_m for the dynamic task) so the two unit regimes cannot be confused.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import yaml

from .ball import horizon_steps
from .core import BadSpec, Vec2
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
    cfg = RunConfig(
        task=str(raw["task"]),
        raw=raw,
        seed=int(seed if seed is not None else raw.get("seed", 0)),
        render=bool(render or raw.get("render", False)),
        out_dir=str(out_dir if out_dir is not None else raw.get("out", "out")),
    )
    # fail fast on anything that would abort mid-run
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    raw = cfg.raw
    if cfg.task in ("push", "ball"):
        spec = raw.get("trajectory")
        if not isinstance(spec, dict) or "kind" not in spec:
            raise BadSpec("trajectory spec must be a mapping with 'kind'")
        if spec["kind"] == "polyline":
            f = spec.get("file")
            if not f or not os.path.exists(f):
                raise BadSpec(f"polyline file missing: {f!r}")
        if int(spec.get("steps", 2)) < 2:
            raise BadSpec("trajectory steps must be at least 2")
    if cfg.task == "sweep":
        for key in ("v0_grid", "dv0_grid", "beta_grid"):
            if not raw.get(key):
                raise BadSpec(f"sweep requires nonempty {key}")


def push_trajectory(raw: dict) -> np.ndarray:
    spec = raw["trajectory"]
    kind = spec["kind"]
    if kind == "circle":
        return traj.circle(float(spec["radius_mm"]), int(spec["steps"]))
    if kind == "lemniscate":
        return traj.lemniscate(
            float(spec["amplitude_mm"]), int(spec["steps"]), int(spec.get("loops", 1))
        )
    if kind == "polyline":
        pts = np.loadtxt(spec["file"], delimiter=",", ndmin=2)
        return traj.resample_polyline(pts, float(spec["spacing_mm"]))
    raise BadSpec(f"unknown trajectory kind {kind!r}")


def ball_trajectory(raw: dict, dt: float, n: int) -> Optional[np.ndarray]:
    """Build the plate path, or None for 'retreat' (task-derived path)."""
    spec = raw["trajectory"]
    kind = spec["kind"]
    if kind == "retreat":
        return None
    if kind == "stationary":
        T = horizon_steps(float(spec.get("horizon_s", 3.0)), dt)
        return np.zeros((T + 1, n + 1))
    if kind == "lemniscate":
        xy = traj.lemniscate(
            float(spec["amplitude_m"]), int(spec["steps"]),
            int(spec.get("loops", 1)), ease=bool(spec.get("ease", True)),
        )
    elif kind == "polyline":
        pts = np.loadtxt(spec["file"], delimiter=",", ndmin=2)
        xy = traj.resample_polyline(pts, float(spec["spacing_m"]))
    else:
        raise BadSpec(f"unknown trajectory kind {kind!r}")
    window = int(spec.get("smooth_window", 0))
    if window:
        xy = traj.smooth_path(xy, window, int(spec.get("smooth_passes", 1)))
    if n == 1:
        return np.column_stack([xy[:, 0], xy[:, 1]])
    return np.column_stack([xy, np.zeros(len(xy))])
