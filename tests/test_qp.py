"""Closed-form solver for the barrier/Lyapunov quadratic program."""

from pathlib import Path

import numpy as np
import pytest

import enum_qp
from cageintime import ball as B
from cageintime import config as C
from cageintime.qp import (CbfClfQP, QPSolution, _constraints, _polygon, cbf_satisfiable,
                           row_names, solve)
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

    def test_barrier_met_only_within_tolerance(self):
        # the barrier holds nowhere in the box, but at dtheta = 1 it misses
        # by 5e-13, inside cbf_satisfiable's 1e-12, so the QP is feasible
        qp = make(Lf_h=-1.0 - 5e-13, Lg_h=(1.0,), lo=(-1.0,), hi=(1.0,))
        assert cbf_satisfiable(qp)
        sol = solve(qp)
        assert sol.feasible and sol.dtheta[0] == 1.0
        assert sol.active == ("barrier", "rate_hi_0")

    def test_zero_rate_of_a_slacked_lyapunov_row_is_positive_zero(self):
        # Lg_V = 0 with Lf_V + cV > 0: the rate stays zero and the slack
        # pays; the rate is +0.0, so plan.json writes 0.0, not -0.0
        for n in (1, 2):
            sol = solve(make(n=n, Lg_h=(0.0,) * n, Lf_V=2.0, Lg_V=(0.0,) * n, cV=1.0,
                             lo=(-1.0,) * n, hi=(1.0,) * n))
            assert sol.active == ("Lyapunov",) and sol.delta == 3.0
            assert not np.signbit(sol.dtheta).any()


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


def _degenerate_instance(rng: np.random.Generator) -> CbfClfQP:
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


def _refuse_linalg(monkeypatch) -> None:
    """Make numpy.linalg's solve, lstsq and inv fail the test when called."""
    def refuse(*args, **kwargs):
        raise AssertionError("qp.solve called numpy.linalg")

    for name in ("solve", "lstsq", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)


def _assert_close(qp: CbfClfQP) -> QPSolution:
    tol = 1e-12
    got, ref = solve(qp), enum_qp.solve(qp)
    assert got.feasible == ref.feasible
    assert np.max(np.abs(got.dtheta - ref.dtheta)) <= tol
    assert abs(got.delta - ref.delta) <= tol
    if got.feasible:
        assert abs(got.objective - ref.objective) <= tol * (1.0 + abs(ref.objective))
    return got


class TestAgainstEnumeration:
    """Against the enumerating solver kept in tests/enum_qp.py."""

    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(20_000):
            _assert_close(random_instance(rng))

    def test_degenerate_instances(self, monkeypatch):
        # the enumeration accepts any point within the 1e-9 feasibility
        # tolerance, so where a row is nearly parallel to a face or a box is
        # tiny it can win by breaking a row; the closed form meets the rows,
        # and solves no linear system
        rng = np.random.default_rng(2025)
        outcomes = {"infeasible": 0, "zero": 0, "active": 0}
        for _ in range(20_000):
            qp = _degenerate_instance(rng)
            with monkeypatch.context() as m:
                _refuse_linalg(m)
                got = solve(qp)
            ref = enum_qp.solve(qp)
            assert got.feasible == ref.feasible
            key = "infeasible" if not got.feasible else "zero" if not got.active else "active"
            outcomes[key] += 1
            if not got.feasible:
                continue
            A, b = _constraints(qp)
            assert np.all(A @ np.concatenate([got.dtheta, [got.delta]]) <= b + 1e-9)
            assert got.objective <= ref.objective + 1e-6 * (1.0 + abs(ref.objective))
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
            _assert_close(qp)


class TestClosedForm:
    def test_narrow_box_gives_the_true_optimum(self):
        # axis 0's box is 3.2e-9 wide; the enumeration's singular set
        # {Lyapunov, rate_hi_0, rate_lo_0} gives a point that breaks the
        # Lyapunov row by 4.6e-10 and, on some BLAS builds, wins
        qp = make(n=2, Lf_h=5.184332176654786, Lg_h=(0.0, 0.0), alpha_h=-2.1712634682502774,
                  Lf_V=18.206479721928844, Lg_V=(0.1792208560874804, 0.0),
                  cV=1.5456344650599385, lam=0.015720394407610323,
                  lo=(-8.001540780282945e-10, -0.0006761469807134516),
                  hi=(2.4086440081848865e-09, 1.68695311484521e-08))
        sol = solve(qp)
        assert sol.dtheta[0] == qp.lo[0]
        assert {"Lyapunov", "rate_lo_0"} <= set(sol.active)
        assert "rate_hi_0" not in sol.active
        A, b = _constraints(qp)
        lyapunov = A[1] @ np.concatenate([sol.dtheta, [sol.delta]]) - b[1]
        assert abs(lyapunov) <= 1e-12

    def test_polygon_stays_in_the_box(self):
        # corners (0, 0) and (0, 1) keep the barrier to within 1e-12, and
        # (1, 0) and (1, 1) do not; extended past its edge, the crossing
        # found from two such near-equal values would leave the box
        qp = make(n=2, Lf_h=-0.9e-12, Lg_h=(-2e-13, 0.0), Lg_V=(0.0, 0.0),
                  lo=(0.0, 0.0), hi=(1.0, 1.0))
        V = _polygon(qp)
        assert np.all((V >= qp.lo) & (V <= qp.hi))
        assert {tuple(v) for v in V} == {(0.0, 0.0), (0.0, 1.0)}

    def test_solves_without_linear_algebra(self, monkeypatch):
        # the degenerate instances solve under the same refusal in
        # TestAgainstEnumeration.test_degenerate_instances
        _refuse_linalg(monkeypatch)
        setup = B.catching_setup(0.8, 0.05)
        *_, log = B.dynamic_control(
            setup.grid, setup.trajectory(3.0), setup.ball, setup.unc, setup.model,
            setup.params, setup.initial_tilt)
        assert any(rec["qp_active"] for rec in log.records)


class TestActiveSet:
    def test_names_the_rows_held_with_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            qp = _degenerate_instance(rng)
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
