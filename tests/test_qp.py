"""Exact active-set solver for the barrier/Lyapunov quadratic program."""

from pathlib import Path

import numpy as np
import pytest

import enum_qp
from cageintime import ball as B
from cageintime import config as C
from cageintime.qp import CbfClfQP, QPSolution, _constraints, cbf_satisfiable, row_names, solve
from qp_oracle import grid_search, kkt_residuals, random_instance

ROOT = Path(__file__).resolve().parent.parent


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

    @pytest.mark.parametrize("field, value", [
        ("Lf_V", float("nan")), ("lam", float("nan")), ("Lg_h", (float("inf"),)),
        ("Lf_h", float("-inf")), ("alpha_h", float("nan")), ("Lg_V", (float("nan"),)),
        ("cV", float("inf")), ("lo", (float("-inf"),)), ("hi", (float("nan"),)),
    ])
    def test_rejects_non_finite_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
            make(**{field: value})

    def test_overflowing_offsets_raise(self):
        # finite fields whose Lyapunov offset -(Lf_V + cV) overflows to -inf:
        # the barrier can be met, but no candidate passes the feasibility test
        qp = make(Lf_h=-1.0, Lg_h=(1.0,), Lf_V=1e308, cV=1e308)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="no feasible point"):
            solve(qp)


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


def _bitwise_instance(rng: np.random.Generator) -> CbfClfQP:
    """A random QP with the degenerate cases in the mix: gradients that are
    zero or have one zero component, a feasible zero, barriers exactly met
    at zero, boxes near, at or away from zero, and lam from 1e-2 to 1e3."""
    n = int(rng.integers(1, 3))

    def gradient():
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 1.0)
        kind = rng.integers(4)
        if kind == 0:
            g[:] = 0.0
        elif kind == 1:
            g[rng.integers(n)] = 0.0
        return g

    box = rng.integers(4)
    if box == 0:  # around zero
        lo, hi = -rng.uniform(0.01, 4.0, n), rng.uniform(0.01, 4.0, n)
    elif box == 1:  # tiny, around zero
        lo, hi = -(10.0 ** rng.uniform(-12.0, -3.0, n)), 10.0 ** rng.uniform(-12.0, -3.0, n)
    elif box == 2:  # one face at zero
        w = rng.uniform(0.01, 4.0, n)
        up = rng.random(n) < 0.5
        lo, hi = np.where(up, 0.0, -w), np.where(up, w, 0.0)
    else:  # away from zero, as a slew limit leaves it
        c, w = rng.uniform(-4.0, 4.0, n), rng.uniform(0.01, 1.0, n)
        lo, hi = c - w, c + w
    Lf_h, alpha_h, Lf_V, cV = rng.normal(size=4) * 10.0 ** rng.uniform(-3.0, 1.0)
    zero = rng.integers(4)
    if zero == 0:  # zero rate and zero slack feasible
        Lf_h, Lf_V = abs(Lf_h), -abs(cV) - abs(Lf_V)
    elif zero == 1:  # barrier exactly met at zero
        alpha_h = -Lf_h
    return CbfClfQP(n=n, Lf_h=float(Lf_h), Lg_h=gradient(), alpha_h=float(alpha_h),
                    Lf_V=float(Lf_V), Lg_V=gradient(), cV=float(cV),
                    lam=float(10.0 ** rng.uniform(-2.0, 3.0)), lo=lo, hi=hi)


def _assert_bitwise(qp: CbfClfQP):
    got, ref = solve(qp), enum_qp.solve(qp)
    assert np.array_equal(got.dtheta, ref.dtheta)
    assert got.delta == ref.delta
    assert got.objective == ref.objective
    assert got.feasible == ref.feasible
    return got


class TestAgainstEnumeration:
    """Bit for bit the enumerating solver kept in tests/enum_qp.py."""

    def test_random_instances(self):
        rng = np.random.default_rng(2025)
        outcomes = {"infeasible": 0, "zero": 0, "active": 0}
        for _ in range(20_000):
            sol = _assert_bitwise(_bitwise_instance(rng))
            key = "infeasible" if not sol.feasible else "zero" if not sol.active else "active"
            outcomes[key] += 1
        assert min(outcomes.values()) > 1000, outcomes

    @pytest.mark.parametrize("config", [
        "configs/ball_lemniscate.yaml", "configs/ball_catch.yaml",
        "configs/ball_rice.yaml", "perfbench/inputs/ball_square.yaml",
    ])
    def test_planner_qps(self, config, monkeypatch):
        # every QP that dynamic_control builds on the config
        setup, traj, _ = C.build_ball(C.load_config(str(ROOT / config)))
        qps = []
        monkeypatch.setattr(B.qpmod, "solve", lambda qp: qps.append(qp) or solve(qp))
        B.dynamic_control(setup.grid, traj, setup.ball, setup.unc, setup.model,
                          setup.params, setup.initial_tilt)
        assert qps
        for qp in qps:
            _assert_bitwise(qp)


class TestSkippedWork:
    @pytest.fixture
    def solves(self, monkeypatch):
        """The KKT matrices passed to np.linalg.solve."""
        seen = []
        real = np.linalg.solve

        def counting(a, b):
            seen.append(np.array(a))
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        return seen

    def test_feasible_zero_factors_nothing(self, solves):
        for n in (1, 2):
            sol = solve(make(n=n, Lf_h=1.0, Lg_h=(1.0,) * n, Lg_V=(1.0,) * n,
                             lo=(-1.0,) * n, hi=(1.0,) * n))
            assert sol.feasible and sol.objective == 0.0 and sol.active == ()
        assert solves == []

    @pytest.mark.parametrize("n, most", [(1, 9), (2, 35)])
    def test_infeasible_zero_factors_no_opposite_bounds_alone(self, solves, n, most):
        rng = np.random.default_rng(n)
        for _ in range(20):
            # the barrier needs a positive rate, so zero is infeasible
            qp = make(n=n, Lf_h=-1.0, Lg_h=rng.uniform(1.0, 2.0, n), Lg_V=rng.normal(size=n),
                      lo=(-4.0,) * n, hi=(4.0,) * n)
            solves.clear()
            assert solve(qp).feasible
            assert 0 < len(solves) <= most
            for kkt in solves:
                rows = kkt[n + 1 :, : n + 1]
                if (np.abs(rows).sum(axis=1) == 1.0).all():  # bound rows only
                    for i in range(n):
                        assert not ((rows[:, i] == 1.0).any() and (rows[:, i] == -1.0).any())

    def test_both_bounds_with_the_lyapunov_row_can_win(self):
        # a box narrower than the feasibility tolerance: the singular system
        # {Lyapunov, rate_hi_0, rate_lo_0} need not be flagged by the LU, and
        # its point then passes the test with a lower objective than the
        # optimum {Lyapunov, rate_lo_0}
        qp = make(n=2, Lf_h=5.184332176654786, Lg_h=(0.0, 0.0), alpha_h=-2.1712634682502774,
                  Lf_V=18.206479721928844, Lg_V=(0.1792208560874804, 0.0),
                  cV=1.5456344650599385, lam=0.015720394407610323,
                  lo=(-8.001540780282945e-10, -0.0006761469807134516),
                  hi=(2.4086440081848865e-09, 1.68695311484521e-08))
        sol = _assert_bitwise(qp)
        # which of the two wins depends on the LU kernel of the BLAS build
        assert sol.active in (("Lyapunov", "rate_hi_0", "rate_lo_0"), ("Lyapunov", "rate_lo_0"))


class TestActiveSet:
    def test_names_the_rows_held_with_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            qp = _bitwise_instance(rng)
            sol = solve(qp)
            if not sol.feasible:
                assert sol.active == ()
                continue
            assert (sol.active == ()) == (sol.objective == 0.0)
            A, b = _constraints(qp)
            z = np.concatenate([sol.dtheta, [sol.delta]])
            names = row_names(qp.n)
            for name in sol.active:
                i = names.index(name)
                assert abs(A[i] @ z - b[i]) <= 1e-8 * (1.0 + abs(b[i]))

    def test_row_names(self):
        assert row_names(1) == ("barrier", "Lyapunov", "rate_hi_0", "rate_lo_0")
        assert row_names(2)[2:] == ("rate_hi_0", "rate_lo_0", "rate_hi_1", "rate_lo_1")
