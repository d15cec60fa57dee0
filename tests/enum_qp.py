"""Enumerating reference for the barrier/Lyapunov QP.

``qp.solve`` used to send every active set, the empty one included, through
its own KKT system and ``np.linalg.solve``. This module keeps that
implementation as the reference: ``qp.solve``, a closed form, is
checked against it to within 1e-12 on well-posed QPs. On degenerate ones
(a box narrower than the 1e-9 feasibility tolerance, a row nearly parallel
to a face) the enumeration can win by breaking a row inside that tolerance,
and a singular KKT system the LU fails to flag can supply its answer, so
there ``qp.solve`` is held to feasibility and a near-equal objective.
"""

from __future__ import annotations

import itertools

import numpy as np

from cageintime.qp import CbfClfQP, QPSolution, _constraints, cbf_satisfiable


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
