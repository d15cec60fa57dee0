"""Scalar reference for the push oracle.

``oracle.simulate_push`` used to draw its random numbers one numpy call at
a time: ``rng.random()`` for the rotation side, then ``rng.uniform`` for the
contact distance and ``rng.random()`` for the rotation fraction in every
micro-step, and it measured the contact distance through ``segment_distance``
on a (1, 2) array. This module keeps that implementation; the one-draw
``oracle.simulate_push`` is checked against it bit for bit, generator state
included.
"""

from __future__ import annotations

import math

import numpy as np

from cageintime.core import Vec2
from cageintime.oracle import PushOracleConfig, peshkin_delta_beta
from cageintime.push import PusherPose, segment_distance


def simulate_push(
    q0: Vec2,
    pose: PusherPose,
    d_push: float,
    cfg: PushOracleConfig,
    rng: np.random.Generator,
) -> Vec2:
    """Ground-truth displacement of one push, two draws per micro-step."""
    a = cfg.object_radius
    dist0 = float(segment_distance(q0.as_array()[None, :], pose)[0])
    s0 = max(0.0, dist0 - a)
    d_con = d_push - s0
    if d_con <= 0.0:
        return Vec2(0.0, 0.0)

    side = 1.0 if rng.random() < 0.5 else -1.0
    beta = math.pi / 2.0
    u = 0.0  # along the push direction
    v = 0.0  # along the pusher segment
    s = 0.0
    while s < d_con - 1e-12:
        step = min(cfg.delta_m, d_con - s)
        c = rng.uniform(*cfg.c_range)
        frac = rng.random()
        dbeta = side * frac * peshkin_delta_beta(a, c, beta, step)
        dv = -a * math.sin(beta) * dbeta
        du = step + a * math.cos(beta) * dbeta
        # rigid quasi-static bound: the object cannot outrun the pusher
        mag = math.hypot(du, dv)
        if mag > step:
            du *= step / mag
            dv *= step / mag
        u += du
        v += dv
        beta += dbeta
        s += step
        # stay inside the semi-ellipse grown to the travel so far
        if u < 0.0:
            u = 0.0
        q = (u / s) ** 2 + (v / (s / 2.0)) ** 2
        if q > 1.0:
            scale = 1.0 / math.sqrt(q)
            u *= scale
            v *= scale
    d = pose.direction
    t = pose.tangent
    return Vec2(u * d.x + v * t.x, u * d.y + v * t.y)
