"""Exact active-set solver for the barrier/Lyapunov quadratic program."""

import numpy as np
import pytest

from cageintime.qp import CbfClfQP, QPSolution, cbf_satisfiable, solve
from qp_oracle import grid_search, kkt_residuals, random_instance


def make(n=1, Lf_h=1.0, Lg_h=(0.0,), alpha_h=0.0, Lf_V=0.0, Lg_V=(0.0,),
         cV=-1.0, lam=1.0, lo=(-4.0,), hi=(4.0,)):
    return CbfClfQP(n=n, Lf_h=Lf_h, Lg_h=np.asarray(Lg_h), alpha_h=alpha_h,
                    Lf_V=Lf_V, Lg_V=np.asarray(Lg_V), cV=cV, lam=lam,
                    lo=np.asarray(lo), hi=np.asarray(hi))


class TestValidation:
    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            make(lo=(1.0,), hi=(1.0,))

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            make(lam=0.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            make(n=3, Lg_h=(0.0, 0.0, 0.0), Lg_V=(0.0, 0.0, 0.0),
                 lo=(-1.0,) * 3, hi=(1.0,) * 3)


class TestSolve:
    def test_interior_optimum(self):
        # both constraints slack at the origin: zero is optimal
        sol = solve(make(Lf_h=1.0, alpha_h=0.5, Lf_V=0.0, cV=-1.0))
        assert sol.feasible
        assert np.allclose(sol.dtheta, 0.0) and sol.delta == pytest.approx(0.0)
        assert sol.objective == pytest.approx(0.0)

    def test_active_barrier_projection(self):
        # 2*dtheta >= 1: minimum-norm point on the half-space boundary
        sol = solve(make(Lf_h=-1.0, Lg_h=(2.0,), alpha_h=0.0))
        assert sol.feasible
        assert sol.dtheta[0] == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_barrier(self):
        # barrier needs dtheta >= 10 but the box tops out at 4
        qp = make(Lf_h=-10.0, Lg_h=(1.0,))
        assert not cbf_satisfiable(qp)
        sol = solve(qp)
        assert not sol.feasible

    def test_slack_absorbs_clf(self):
        # CLF cannot be met at zero: delta picks up exactly the residual
        sol = solve(make(Lf_V=2.0, cV=1.0))
        assert sol.feasible
        assert sol.delta >= 3.0 - 1e-9 or sol.objective <= 1.0 * 3.0**2 + 1e-9


class TestAgainstGridSearch:
    def test_random_instances(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 30:
            qp = random_instance(rng)
            best_obj, _ = grid_search(qp)
            sol = solve(qp)
            if best_obj is None:
                # no grid point satisfies the barrier; the exact test may
                # still find a feasible point between grid nodes
                if sol.feasible:
                    assert sol.objective <= qp.n * 16.0 + 1e6
                continue
            assert sol.feasible
            assert sol.objective <= best_obj + 1e-6
            assert abs(sol.objective - best_obj) <= 1e-4
            checked += 1


class TestKKT:
    def test_residuals_small(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 30:
            qp = random_instance(rng)
            sol = solve(qp)
            if not sol.feasible:
                continue
            res = kkt_residuals(qp, sol)
            assert res["stationarity"] <= 1e-8
            assert res["primal"] <= 1e-8
            assert res["complementarity"] <= 1e-8
            done += 1


class TestProperties:
    def test_cbf_scaling_invariance(self):
        # scaling the whole barrier row leaves the CBF-only argmin unchanged
        base = make(Lf_h=-1.0, Lg_h=(2.0,), alpha_h=0.0)
        scaled = make(Lf_h=-3.0, Lg_h=(6.0,), alpha_h=0.0)
        assert np.allclose(solve(base).dtheta, solve(scaled).dtheta, atol=1e-9)

    def test_monotone_slack_in_lam(self):
        deltas = []
        for lam in (0.25, 1.0, 4.0, 16.0):
            sol = solve(make(Lf_V=2.0, cV=1.0, Lg_V=(1.0,), lam=lam))
            deltas.append(sol.delta**2)
        assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_box_respected(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            qp = random_instance(rng)
            sol = solve(qp)
            if sol.feasible:
                assert np.all(sol.dtheta >= qp.lo - 1e-9)
                assert np.all(sol.dtheta <= qp.hi + 1e-9)
