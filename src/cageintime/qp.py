"""Exact solver for the barrier/Lyapunov quadratic program.

minimize    ||dtheta||^2 + lam * delta^2
subject to  Lf_h + Lg_h . dtheta + alpha_h >= 0        (barrier)
            Lf_V + Lg_V . dtheta + cV <= delta          (Lyapunov, slacked)
            lo <= dtheta <= hi

With n in {1, 2} and a free slack delta there are at most 2 + 2n inequality
constraints, so the global optimum is found by enumerating active sets and
solving each equality-constrained QP in closed form.
"""

from __future__ import annotations

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
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        for name in ("Lg_h", "Lg_V", "lo", "hi"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(self.n)
            object.__setattr__(self, name, v)
            v.setflags(write=False)
        if not np.all(self.lo < self.hi):
            raise ValueError("box must satisfy lo < hi componentwise")


@dataclass(frozen=True)
class QPSolution:
    dtheta: np.ndarray
    delta: float
    objective: float
    feasible: bool


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


def solve(qp: CbfClfQP) -> QPSolution:
    """Global optimum by active-set enumeration; exact for this problem size.

    feasible=False iff the barrier constraint cannot be met inside the box
    (the slack makes the Lyapunov constraint always satisfiable).
    """
    n = qp.n
    if not cbf_satisfiable(qp):
        return QPSolution(np.zeros(n), 0.0, float("inf"), False)
    A, b = _constraints(qp)
    m = A.shape[0]
    P2 = np.diag([2.0] * n + [2.0 * qp.lam])  # Hessian of the objective
    tol = 1e-9
    best_z = None
    best_obj = float("inf")
    for size in range(0, n + 2):
        for active in itertools.combinations(range(m), size):
            if size == 0:
                z = np.zeros(n + 1)
            else:
                Aa = A[list(active)]
                kkt = np.zeros((n + 1 + size, n + 1 + size))
                kkt[: n + 1, : n + 1] = P2
                kkt[: n + 1, n + 1 :] = Aa.T
                kkt[n + 1 :, : n + 1] = Aa
                rhs = np.concatenate([np.zeros(n + 1), b[list(active)]])
                try:
                    sol_vec = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    continue
                z = sol_vec[: n + 1]
            if np.all(A @ z <= b + tol):
                obj = float(z[:n] @ z[:n] + qp.lam * z[n] ** 2)
                if obj < best_obj - 1e-15:
                    best_obj = obj
                    best_z = z
    assert best_z is not None, "satisfiable barrier must yield a feasible point"
    return QPSolution(best_z[:n].copy(), float(best_z[n]), best_obj, True)
