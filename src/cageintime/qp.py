"""Exact solver for the barrier/Lyapunov quadratic program.

minimize    ||dtheta||^2 + lam * delta^2
subject to  Lf_h + Lg_h . dtheta + alpha_h >= 0        (barrier)
            Lf_V + Lg_V . dtheta + cV <= delta          (Lyapunov, slacked)
            lo <= dtheta <= hi

With n in {1, 2} and a free slack delta there are at most 2 + 2n inequality
constraints, so the global optimum is found by enumerating active sets and
solving each equality-constrained QP in closed form.

The objective is a sum of squares with lam > 0, so when the zero rate with
zero slack is feasible it is the optimum and is returned before any KKT
system is formed. Otherwise the active sets are enumerated by size in
``itertools.combinations`` order, and each size's KKT systems are built as
one stack and solved one by one. A set of bound rows alone that holds both
bounds of one axis is left out: since lo < hi those two equalities never
hold together, its KKT matrix has two opposite columns, and its entries
(0, +-1, 2, 2*lam, with the slack decoupled) keep the LU exact, so the
solve always raised. A set that adds the barrier or the Lyapunov row to
both bounds is singular too, but rounding in its LU can hide that and its
solution can then pass the feasibility test, so it stays enumerated.
"""

from __future__ import annotations

import functools
import itertools
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


@functools.lru_cache(maxsize=None)
def _active_sets(n: int) -> tuple[np.ndarray, ...]:
    """The nonempty active sets to solve, one read-only (S, size) array of
    row indices per size 1..n+1, in ``itertools.combinations`` order: every
    set of rows of ``_constraints`` but the sets of bound rows alone that
    hold both bounds of one axis. Shared by every QP of dimension n."""
    m = 2 + 2 * n
    tables = []
    for size in range(1, n + 2):
        sets = [s for s in itertools.combinations(range(m), size)
                if min(s) < 2 or not any(2 + 2 * i in s and 3 + 2 * i in s for i in range(n))]
        idx = np.array(sets, dtype=np.intp)
        idx.setflags(write=False)
        tables.append(idx)
    return tuple(tables)


def solve(qp: CbfClfQP) -> QPSolution:
    """Global optimum by active-set enumeration; exact for this problem size.

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
    P2 = np.diag([2.0] * n + [2.0 * qp.lam])  # Hessian of the objective
    best_z = None
    best_set = ()
    best_obj = float("inf")
    for idx in _active_sets(n):
        count, size = idx.shape
        Aa = A[idx]
        kkt = np.zeros((count, n + 1 + size, n + 1 + size))
        kkt[:, : n + 1, : n + 1] = P2
        kkt[:, : n + 1, n + 1 :] = Aa.transpose(0, 2, 1)
        kkt[:, n + 1 :, : n + 1] = Aa
        rhs = np.zeros((count, n + 1 + size))
        rhs[:, n + 1 :] = b[idx]
        for s in range(count):
            # one system at a time: a stacked solve raises on any singular one
            try:
                sol_vec = np.linalg.solve(kkt[s], rhs[s])
            except np.linalg.LinAlgError:
                continue
            z = sol_vec[: n + 1]
            if np.all(A @ z <= b + tol):
                obj = float(z[:n] @ z[:n] + qp.lam * z[n] ** 2)
                if obj < best_obj - 1e-15:
                    best_obj = obj
                    best_z = z
                    best_set = idx[s]
    if best_z is None:
        raise ValueError("satisfiable barrier gave no feasible point; the QP's data are out of range")
    names = row_names(n)
    return QPSolution(best_z[:n].copy(), float(best_z[n]), best_obj, True,
                      tuple(names[i] for i in best_set))
