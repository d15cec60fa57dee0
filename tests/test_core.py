"""Shared data model and the generic verification driver."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cageintime.core import (
    CageCircle,
    FailureReason,
    NoAction,
    PSSGrid,
    PushAngle,
    RunLog,
    TiltRate,
    Vec2,
    VerificationResult,
    action_to_json,
    cell_indices,
    contains_geometric,
    verify_caging_in_time,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestVec2:
    def test_arithmetic(self):
        a = Vec2(1.0, 2.0)
        b = Vec2(3.0, -1.0)
        assert (a + b) == Vec2(4.0, 1.0)
        assert (a - b) == Vec2(-2.0, 3.0)
        assert Vec2(3.0, 4.0).norm() == pytest.approx(5.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Vec2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, float("inf"))


class TestPSSGrid:
    def test_from_points_roundtrip(self):
        pts = np.array([[3.0, -2.0], [0.0, 0.0]])
        g = PSSGrid.from_points(pts, 1.0, Vec2(0.0, 0.0), (21, 21))
        got = sorted(map(tuple, g.occupied_world()))
        assert got == [(0.0, 0.0), (3.0, -2.0)]
        assert g.count == 2

    def test_out_of_grid_points_dropped(self):
        g = PSSGrid.from_points(np.array([[100.0, 0.0]]), 1.0, Vec2(0.0, 0.0), (11, 11))
        assert g.is_empty

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            PSSGrid(np.zeros((3, 3), dtype=bool), 0.0, Vec2(0.0, 0.0))

    def test_cells_immutable(self):
        g = PSSGrid.from_points(np.zeros((1, 2)), 1.0, Vec2(0.0, 0.0), (5, 5))
        with pytest.raises(ValueError):
            g.cells[0, 0] = True


class TestCellIndices:
    @pytest.mark.parametrize("shape, fill", [
        ((151, 151), 0.05), ((7, 7), 0.0), ((7, 7), 1.0),
        ((5, 13), 0.4), ((13, 5), 0.4), ((1, 9), 0.5), ((9, 1), 0.5),
    ])
    def test_matches_nonzero(self, shape, fill):
        # a non-square grid catches a divmod by the wrong dimension
        cells = np.random.default_rng(shape[0] * shape[1]).random(shape) < fill
        ii, jj = cell_indices(cells)
        ri, rj = np.nonzero(cells)
        assert ii.dtype == ri.dtype and jj.dtype == rj.dtype
        assert np.array_equal(ii, ri) and np.array_equal(jj, rj)
        g = PSSGrid(cells, 1.0, Vec2(0.0, 0.0))
        assert g.count == int(cells.sum()) and type(g.count) is int


class TestVerificationResult:
    def test_success_iff_no_failure_step(self):
        VerificationResult(True)
        VerificationResult(False, 3, FailureReason.EscapedCage)
        with pytest.raises(ValueError):
            VerificationResult(True, 3)
        with pytest.raises(ValueError):
            VerificationResult(False)


class TestActions:
    def test_push_angle_range(self):
        PushAngle(0.0, 1)
        with pytest.raises(ValueError):
            PushAngle(-0.1, 1)

    def test_action_to_json(self):
        assert action_to_json(NoAction()) is None
        assert action_to_json(PushAngle(1.5, 7)) == {"theta": 1.5, "k": 7}
        assert action_to_json(TiltRate.of([0.1])) == {"dtheta": [0.1]}


class TestContainsGeometric:
    def test_simple(self):
        g = PSSGrid.from_points(np.array([[4.0, 0.0]]), 1.0, Vec2(0.0, 0.0), (21, 21))
        assert contains_geometric(g, CageCircle(Vec2(0.0, 0.0), 5.0))
        assert not contains_geometric(g, CageCircle(Vec2(0.0, 0.0), 3.0))

    def test_empty_grid_vacuously_contained(self):
        g = PSSGrid(np.zeros((5, 5), dtype=bool), 1.0, Vec2(0.0, 0.0))
        assert contains_geometric(g, CageCircle(Vec2(0.0, 0.0), 1.0))

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8),
           st.floats(1.0, 50.0), st.tuples(finite, finite))
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_cell_removal(self, pts, radius, center):
        pts = np.array([[x % 10.0, y % 10.0] for x, y in pts])
        g = PSSGrid.from_points(pts, 1.0, Vec2(0.0, 0.0), (25, 25))
        if g.is_empty:
            return
        cage = CageCircle(Vec2(center[0] % 5.0, center[1] % 5.0), radius)
        if contains_geometric(g, cage):
            ii, jj = np.nonzero(g.cells)
            cells = g.cells.copy()
            cells[ii[0], jj[0]] = False
            g2 = PSSGrid(cells, g.resolution, g.frame_center)
            assert contains_geometric(g2, cage)

    @given(st.tuples(finite, finite))
    @settings(max_examples=50, deadline=None)
    def test_translation_equivariance(self, shift):
        sx, sy = shift[0] % 100.0, shift[1] % 100.0
        pts = np.array([[2.0, 1.0], [-3.0, 0.0]])
        g = PSSGrid.from_points(pts, 1.0, Vec2(0.0, 0.0), (15, 15))
        cage = CageCircle(Vec2(0.5, 0.5), 4.0)
        g2 = PSSGrid(g.cells, g.resolution, Vec2(sx, sy))
        cage2 = CageCircle(Vec2(0.5 + sx, 0.5 + sy), 4.0)
        assert contains_geometric(g, cage) == contains_geometric(g2, cage2)


def caged_failures(g, cage, steps, propagate=lambda pss: pss):
    """The per-step failures of a propagation against a fixed geometric cage."""
    for _ in range(steps):
        g = propagate(g)
        yield None if contains_geometric(g, cage) else FailureReason.EscapedCage


class TestVerifyCagingInTime:
    @staticmethod
    def _run(steps):
        g = PSSGrid.from_points(np.zeros((1, 2)), 1.0, Vec2(0.0, 0.0), (11, 11))
        cage = CageCircle(Vec2(0.0, 0.0), 3.0)
        return verify_caging_in_time(caged_failures(g, cage, steps))

    def test_identity_propagation_succeeds(self):
        res = self._run(5)
        assert res.success and res.failure_step is None

    def test_pure_fold(self):
        assert self._run(5) == self._run(5)

    def test_first_violation_reported(self):
        g = PSSGrid.from_points(np.zeros((1, 2)), 1.0, Vec2(0.0, 0.0), (11, 11))

        def propagate(pss):
            # drift one cell right per step
            pts = pss.occupied_world() + np.array([1.0, 0.0])
            return PSSGrid.from_points(pts, pss.resolution, pss.frame_center,
                                       pss.cells.shape)

        cage = CageCircle(Vec2(0.0, 0.0), 2.5)
        res = verify_caging_in_time(caged_failures(g, cage, 5, propagate))
        assert not res.success
        assert res.failure_step == 2  # drifted to x=3 > 2.5 on the third step
        assert res.failure_reason is FailureReason.EscapedCage

    def test_infeasible_action_reported(self):
        def failures():
            yield None
            yield FailureReason.InfeasibleAction
            raise AssertionError("the fold read a step past the first failure")

        res = verify_caging_in_time(failures())
        assert res.failure_step == 1
        assert res.failure_reason is FailureReason.InfeasibleAction


class TestRunLog:
    def test_jsonl_round_trip(self, tmp_path):
        log = RunLog()
        log.add({"t": 0, "action": None, "contained": True,
                 "pss_cells": 1, "cage_center": [0.0, 0.0]})
        log.add({"t": 1, "action": {"theta": 0.5, "k": 3}, "contained": True,
                 "pss_cells": 2, "cage_center": [1.0, 0.0]})
        path = tmp_path / "runlog.jsonl"
        log.write(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[1])
        assert rec["t"] == 1 and rec["action"]["k"] == 3
