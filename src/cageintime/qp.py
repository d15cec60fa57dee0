"""Closed-form solver for the barrier/Lyapunov quadratic program.

minimize    ||dtheta||^2 + lam * delta^2
subject to  Lf_h + Lg_h . dtheta + alpha_h >= 0        (barrier)
            Lf_V + Lg_V . dtheta + cV <= delta          (Lyapunov, slacked)
            lo <= dtheta <= hi

The objective is a sum of squares with lam > 0, so a feasible zero rate
with zero slack is the optimum and is returned at once. Otherwise, with
g = Lg_V and e = Lf_V + cV, the best slack is delta = max(0, g . u + e).
That leaves the strictly convex, piecewise quadratic
f(u) = |u|^2 + lam * delta(u)^2 on the polygon P that the barrier line cuts
from the box (a segment for n = 1). The minimiser of f over P is its free
minimiser if that lies in P, and otherwise lies on an edge p -> p + t d of
P, where f is a quadratic in t on each side of the kink at which delta
turns positive. f is continuously differentiable, so a minimiser at the
kink is a stationary point of both pieces. So the candidates are the free
minimiser and, per edge, its start and the two pieces' stationary points;
the feasible candidate of least objective is the answer. No linear system
is solved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CbfClfQP:
    n: int
    Lf_h: float
    Lg_h: np.ndarray  # (n,)
    alpha_h: float
    Lf_V: float
    Lg_V: np.ndarray  # (n,)
    cV: float
    lam: float
    lo: np.ndarray  # (n,)
    hi: np.ndarray  # (n,)

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        for name in ("Lg_h", "Lg_V", "lo", "hi"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(self.n)
            object.__setattr__(self, name, v)
            v.setflags(write=False)
        fields = ("Lf_h", "Lg_h", "alpha_h", "Lf_V", "Lg_V", "cV", "lam", "lo", "hi")
        if not np.isfinite(np.hstack([getattr(self, f) for f in fields])).all():
            bad = next(f for f in fields if not np.isfinite(getattr(self, f)).all())
            raise ValueError(f"{bad} must be finite, got {getattr(self, bad)}")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not np.all(self.lo < self.hi):
            raise ValueError("box must satisfy lo < hi componentwise")


@dataclass(frozen=True)
class QPSolution:
    dtheta: np.ndarray
    delta: float
    objective: float
    feasible: bool
    # names (``row_names``) of the constraints the optimum holds with
    # equality; empty for the zero rate and for an infeasible QP
    active: tuple[str, ...] = ()


@functools.lru_cache(maxsize=None)
def row_names(n: int) -> tuple[str, ...]:
    """Names of the rows of ``_constraints``, in their order."""
    return ("barrier", "Lyapunov") + tuple(
        f"rate_{side}_{i}" for i in range(n) for side in ("hi", "lo"))


def _constraints(qp: CbfClfQP) -> tuple[np.ndarray, np.ndarray]:
    """Rows A, offsets b with the feasible set {z : A z <= b}, z = (dtheta, delta)."""
    n = qp.n
    rows = []
    rhs = []
    # barrier: -Lg_h . dtheta <= Lf_h + alpha_h
    a = np.zeros(n + 1)
    a[:n] = -qp.Lg_h
    rows.append(a)
    rhs.append(qp.Lf_h + qp.alpha_h)
    # Lyapunov: Lg_V . dtheta - delta <= -(Lf_V + cV)
    a = np.zeros(n + 1)
    a[:n] = qp.Lg_V
    a[n] = -1.0
    rows.append(a)
    rhs.append(-(qp.Lf_V + qp.cV))
    for i in range(n):
        a = np.zeros(n + 1)
        a[i] = 1.0
        rows.append(a)
        rhs.append(qp.hi[i])
        a = np.zeros(n + 1)
        a[i] = -1.0
        rows.append(a)
        rhs.append(-qp.lo[i])
    return np.array(rows), np.array(rhs)


def cbf_satisfiable(qp: CbfClfQP) -> bool:
    """True iff some dtheta in the box meets the barrier constraint."""
    best = qp.Lf_h + qp.alpha_h
    best += float(np.sum(np.maximum(qp.Lg_h * qp.lo, qp.Lg_h * qp.hi)))
    return best >= -1e-12


def _polygon(qp: CbfClfQP) -> np.ndarray:
    """Vertices, in order and possibly repeated, of the box clipped to the
    barrier's half-plane (Sutherland-Hodgman). A box corner is kept with the
    tolerance and arithmetic of ``cbf_satisfiable``, so a barrier that can
    be met keeps one; an edge that crosses the barrier line adds the
    crossing, clipped to the edge."""
    lo, hi = qp.lo, qp.hi
    box = np.array([lo, hi] if qp.n == 1 else [lo, (hi[0], lo[1]), hi, (lo[0], hi[1])])
    c = qp.Lf_h + qp.alpha_h + np.sum(qp.Lg_h * box, axis=1)
    inside = c >= -1e-12
    out = []
    for k in range(len(box)):  # the edge box[k - 1] -> box[k]
        if inside[k - 1] != inside[k]:
            t = min(max(c[k - 1] / (c[k - 1] - c[k]), 0.0), 1.0)
            out.append(box[k - 1] + t * (box[k] - box[k - 1]))
        if inside[k]:
            out.append(box[k])
    return np.array(out)


def solve(qp: CbfClfQP) -> QPSolution:
    """Global optimum in closed form.

    feasible=False iff the barrier constraint cannot be met inside the box
    (the slack makes the Lyapunov constraint always satisfiable). Raises
    ValueError when the barrier can be met but no candidate passes the
    feasibility test, as when Lf_V + cV overflows.
    """
    n = qp.n
    if not cbf_satisfiable(qp):
        return QPSolution(np.zeros(n), 0.0, float("inf"), False)
    A, b = _constraints(qp)
    tol = 1e-9
    if np.all(A @ np.zeros(n + 1) <= b + tol):
        return QPSolution(np.zeros(n), 0.0, 0.0, True)
    g, e, lam = qp.Lg_V, qp.Lf_V + qp.cV, qp.lam
    V = _polygon(qp)
    D = np.roll(V, -1, axis=0) - V  # the edges V[k] -> V[k] + D[k]
    s0, s1 = V @ g + e, D @ g
    pd, dd = np.sum(V * D, axis=1), np.sum(D * D, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # per edge: its start and the minimisers of the pieces delta = 0
        # and delta > 0
        T = np.column_stack([np.zeros(len(V)), -pd / dd,
                             -(pd + lam * s1 * s0) / (dd + lam * s1**2)])
    # a t outside [0, 1), or nan from a zero edge, becomes the edge's start:
    # the end is the next edge's start, exactly
    T = np.where((T >= 0.0) & (T < 1.0), T, 0.0)
    # the unconstrained minimiser; 0.0 - x keeps a zero rate +0.0, as a rate
    # is written to plan.json
    free = 0.0 - lam * max(e, 0.0) * g / (1.0 + lam * (g @ g))
    U = np.vstack([free, (V[:, None] + T[:, :, None] * D[:, None]).reshape(-1, n)])
    Z = np.column_stack([U, np.maximum(0.0, U @ g + e)])  # with the optimal slack
    obj = np.einsum("ij,ij->i", U, U) + lam * Z[:, n] ** 2
    obj[~np.all(Z @ A.T <= b + tol, axis=1)] = np.inf
    i = int(np.argmin(obj))
    if not obj[i] < np.inf:
        raise ValueError("satisfiable barrier gave no feasible point; the QP's data are out of range")
    z = Z[i]
    held = np.flatnonzero(np.abs(A @ z - b) <= tol)
    return QPSolution(z[:n].copy(), float(z[n]), float(obj[i]), True,
                      tuple(row_names(n)[j] for j in held))
