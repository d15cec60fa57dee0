"""The proportional-feedback baseline of acceptance criterion 4.

A P-controller that pushes the object toward the next waypoint from an
observation that may be noisy or stale. Only the tests run it: criterion 4
compares the caging planner's tracking error with it, and
``tests/test_oracle.py`` checks its control law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from cageintime.core import Vec2


@dataclass(frozen=True)
class PControllerConfig:
    gain: float = 1.0
    noise_sigma: float = 0.0  # mm per axis
    lag: bool = False  # 50% chance of a 0.5 s or 1.0 s stale observation
    seed: int = 0

    cap: ClassVar[float] = 20.0  # mm
    step_period: ClassVar[float] = 0.1  # s per control step


def p_controller_step(
    obj: Vec2,
    trajectory: Sequence[Vec2],
    cfg: PControllerConfig,
    rng: np.random.Generator,
    history: Sequence[Vec2],
) -> Vec2:
    """One proportional push command toward the nearest waypoint.

    The observation may be corrupted by Gaussian noise and, with probability
    one half, replaced by the object position from 0.5 or 1.0 seconds ago.
    """
    obs = obj
    if cfg.lag and history and rng.random() < 0.5:
        lag_s = 0.5 if rng.random() < 0.5 else 1.0
        back = max(1, int(round(lag_s / cfg.step_period)))
        obs = history[max(0, len(history) - back)]
    if cfg.noise_sigma > 0:
        obs = Vec2(
            obs.x + rng.normal(0.0, cfg.noise_sigma),
            obs.y + rng.normal(0.0, cfg.noise_sigma),
        )
    nearest = min(trajectory, key=lambda w: (w - obs).norm())
    err = nearest - obs
    cmd = Vec2(cfg.gain * err.x, cfg.gain * err.y)
    mag = cmd.norm()
    if mag > cfg.cap:
        cmd = Vec2(cmd.x * cfg.cap / mag, cmd.y * cfg.cap / mag)
    return cmd


def p_controller_rollout(
    trajectory: Sequence[Vec2],
    q0: Vec2,
    cfg: PControllerConfig,
) -> tuple[list[Vec2], float]:
    """Track the trajectory with proportional pushes under ideal actuation.

    At step t the controller aims for waypoint t+1 and nearby waypoints
    (the nearest-waypoint rule is applied over a sliding window so progress
    along the path is forced). Returns positions and max tracking error.
    """
    rng = np.random.default_rng(cfg.seed)
    q = q0
    positions = [q]
    history: list[Vec2] = [q]
    max_err = 0.0
    for t in range(len(trajectory) - 1):
        window = trajectory[t + 1 : t + 2]
        cmd = p_controller_step(q, window, cfg, rng, history)
        q = q + cmd
        positions.append(q)
        history.append(q)
        max_err = max(max_err, (q - trajectory[t + 1]).norm())
    return positions, max_err
