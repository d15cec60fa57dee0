"""Closed-form terms that only the tests call.

``energy`` is the scalar cage energy that ``ball._energy_field`` must
reproduce per cell; ``no_uncertainty`` is the noise-free model the belief
tests step under; ``peshkin_delta_beta`` is Peshkin & Sanderson's (1988)
rotation bound, which ``oracle.simulate_push`` evaluates inline.
"""

from __future__ import annotations

import math

import numpy as np

from cageintime.ball import EnergyModel, UncertaintyModel


def no_uncertainty(n: int) -> UncertaintyModel:
    return UncertaintyModel(0.0, np.zeros((n + 1, n + 1)), 0.0)


def energy(x, v, a_eff, model: EnergyModel) -> float:
    """Total cage energy: kinetic + virtual spring + tilt potential."""
    x = np.atleast_1d(np.asarray(x, float))
    v = np.atleast_1d(np.asarray(v, float))
    a = np.atleast_1d(np.asarray(a_eff, float))
    return float(
        0.5 * model.m_eff * (v @ v)
        + 0.5 * model.k_ve * (x @ x)
        - model.mass * (a @ x)
    )


def peshkin_delta_beta(a: float, c: float, beta0: float, m: float) -> float:
    """Largest possible rotation of the pushed object per pusher travel m."""
    return c * math.sin(beta0) / (a * a + c * c) * m
