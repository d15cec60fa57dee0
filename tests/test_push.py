"""Quasi-static pushing planner: geometry, propagation, and plan properties."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cageintime.core import (
    CageCircle,
    InitialPositionOutsideCage,
    NoAction,
    PSSGrid,
    PushAngle,
    Vec2,
    WaypointSpacingTooLarge,
    contains_geometric,
)
from cageintime.push import (
    PushProblem,
    compute_poa,
    find_push,
    plan_push,
    propagate_pss,
    pusher_pose,
    segment_distance,
    trigger_cage,
    verify_push_plan,
)
from cageintime import oracle
from cageintime import push as push_module
from cageintime.config import build_push, load_config
from cageintime.trajectories import as_vec2_list, circle
import edt_poa
import scalar_propagate
import scalar_score
from motion_set import SemiEllipseMotionSet, motion_set

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def brute_force_dilation(cells: np.ndarray, radius_px: int) -> np.ndarray:
    """Independent disc dilation by explicit offset enumeration."""
    out = np.zeros_like(cells)
    h, w = cells.shape
    ii, jj = np.nonzero(cells)
    for di in range(-radius_px, radius_px + 1):
        for dj in range(-radius_px, radius_px + 1):
            if di * di + dj * dj > radius_px * radius_px:
                continue
            ni = ii + di
            nj = jj + dj
            keep = (ni >= 0) & (ni < h) & (nj >= 0) & (nj < w)
            out[ni[keep], nj[keep]] = True
    return out


def small_problem(**kw) -> PushProblem:
    traj = tuple(as_vec2_list(circle(60.0, 48)) + [Vec2(60.0, 0.0)])
    defaults = dict(
        object_radius=25.0, cage_size=20.0, K=16, d_push=20.0,
        pusher_length=100.0, resolution=1.0, margin=4.0, shortlist=2,
        trajectory=traj,
    )
    defaults.update(kw)
    return PushProblem(**defaults)


class TestPushProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_problem(cage_size=0.0)
        with pytest.raises(ValueError):
            small_problem(K=2)
        with pytest.raises(ValueError):
            small_problem(resolution=5.0)  # > cage_size/10
        with pytest.raises(ValueError):
            small_problem(margin=20.0)

    @pytest.mark.parametrize("field", ["object_radius", "cage_size", "d_push", "pusher_length",
                                       "resolution", "lambda1", "lambda2", "margin"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_problem(**{field: value})

    def test_spacing_check(self):
        prob = small_problem(trajectory=(Vec2(0.0, 0.0), Vec2(30.0, 0.0)))
        with pytest.raises(WaypointSpacingTooLarge):
            plan_push(prob, prob.trajectory[0])
        # cage_size/2 itself is allowed
        prob = small_problem(trajectory=(Vec2(0.0, 0.0), Vec2(10.0, 0.0)))
        plan_push(prob, prob.trajectory[0])

    def test_standoff_radius(self):
        assert small_problem().R == 45.0  # cage_size + object_radius


class TestPusherPose:
    def test_tangent_to_standoff_circle(self):
        center = Vec2(10.0, -5.0)
        pose = pusher_pose(center, 45.0, 0.7, 50.0)
        # the pusher line is tangent: center-to-segment distance equals R
        d = segment_distance(center.as_array()[None, :], pose)[0]
        assert d == pytest.approx(45.0, abs=1e-9)
        # direction points at the cage center
        to_center = center - pose.center
        n = to_center.norm()
        assert pose.direction.x == pytest.approx(to_center.x / n)
        assert pose.direction.y == pytest.approx(to_center.y / n)

    def test_advanced_moves_along_direction(self):
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 0.0, 50.0)
        adv = pose.advanced(10.0)
        assert adv.center.x == pytest.approx(35.0)
        assert adv.center.y == pytest.approx(0.0)


class TestSegmentDistance:
    def test_perpendicular_and_endpoint(self):
        pose = pusher_pose(Vec2(0.0, 0.0), 10.0, 0.0, 5.0)
        # pusher is the segment x=10, y in [-5, 5]
        d = segment_distance(np.array([[0.0, 0.0], [10.0, 9.0], [14.0, 8.0]]), pose)
        assert d[0] == pytest.approx(10.0)
        assert d[1] == pytest.approx(4.0)
        assert d[2] == pytest.approx(5.0)  # hypot(4, 3)


class TestMotionSet:
    def test_d_con_travel_after_contact(self):
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 0.0, 50.0)
        # object on the push axis: initial gap = 45 - 25 = 20 => d_con = 0
        ms = motion_set(Vec2(0.0, 0.0), pose, 25.0, 20.0)
        assert not ms.is_null and ms.d_con == pytest.approx(0.0)
        # object 10 mm closer to the pusher: gap 10 => d_con = 10
        ms = motion_set(Vec2(10.0, 0.0), pose, 25.0, 20.0)
        assert ms.d_con == pytest.approx(10.0)
        # object far behind: never touched
        ms = motion_set(Vec2(-40.0, 0.0), pose, 25.0, 20.0)
        assert ms.is_null

    @given(st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_semi_ellipse_bounds(self, angle, scale):
        # every contained displacement obeys |lateral| <= d_con/2, |total| <= d_con
        d_con = 15.0
        ms = SemiEllipseMotionSet(d_con, Vec2(1.0, 0.0), False)
        u = scale * d_con * math.cos(angle)
        v = scale * (d_con / 2.0) * math.sin(angle)
        disp = Vec2(u, v)
        if ms.contains(disp):
            assert abs(v) <= d_con / 2.0 + 1e-9
            assert disp.norm() <= d_con + 1e-9
            assert u >= -1e-9

    def test_boundary_membership(self):
        ms = SemiEllipseMotionSet(10.0, Vec2(0.0, 1.0), False)
        assert ms.contains(Vec2(0.0, 10.0))   # apex along push direction
        assert ms.contains(Vec2(5.0, 0.0))    # lateral semi-axis
        assert not ms.contains(Vec2(0.0, -1.0))  # behind the pusher
        assert not ms.contains(Vec2(5.1, 0.0))


class TestCandidateOffsets:
    def test_cached_read_only_and_unchanged(self):
        offsets = push_module._candidate_offsets(20.0, 1.0)
        assert push_module._candidate_offsets(20.0, 1.0) is offsets
        assert not any(arr.flags.writeable for arr in offsets)
        fresh = push_module._candidate_offsets.__wrapped__(20.0, 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(offsets, fresh))

    def test_forward_offsets_cached_read_only_and_not_behind(self):
        d = pusher_pose(Vec2(0.0, 0.0), 45.0, 0.3, 50.0).direction
        odi, odj, u2, v2, key = offsets = push_module._forward_offsets(d, 20.0, 1.0)
        assert push_module._forward_offsets(d, 20.0, 1.0) is offsets
        assert not any(arr.flags.writeable for arr in offsets)
        cdi, cdj, ow = push_module._candidate_offsets(20.0, 1.0)
        u = ow[:, 0] * d.x + ow[:, 1] * d.y
        # about half of the disk lies behind the pusher and is left out
        fwd = u >= -1e-12
        assert len(odi) == np.count_nonzero(fwd) < 0.6 * len(u)
        assert np.array_equal(u2, np.square(odj * d.x + odi * d.y))
        assert np.array_equal(v2, np.square(-odj * d.y + odi * d.x))
        # sorted by the semi-ellipse key, and the same offsets as the filter
        assert np.array_equal(key, u2 + 4 * v2)
        assert np.all(np.diff(key) >= 0.0)
        assert (sorted(zip(odi.tolist(), odj.tolist()))
                == sorted(zip(cdi[fwd].tolist(), cdj[fwd].tolist())))


class TestPOA:
    def test_matches_brute_force_dilation(self):
        rng = np.random.default_rng(0)
        cells = rng.random((40, 40)) < 0.05
        cells[20, 20] = True
        g = PSSGrid(cells, 1.0, Vec2(0.0, 0.0))
        r = 6.0
        poa = compute_poa(g, r)
        expect = brute_force_dilation(g.cells, int(math.ceil(r)))
        assert np.array_equal(poa.cells, expect)

    def test_pss_subset_of_poa(self):
        g = PSSGrid.from_points(np.array([[0.0, 0.0], [5.0, 3.0]]), 1.0,
                                Vec2(0.0, 0.0), (31, 31))
        poa = compute_poa(g, 4.0)
        assert np.all(poa.cells[g.cells])
        # every POA cell within r of some PSS cell
        pi, pj = np.nonzero(poa.cells)
        si, sj = np.nonzero(g.cells)
        d2 = (pi[:, None] - si[None, :]) ** 2 + (pj[:, None] - sj[None, :]) ** 2
        assert np.all(d2.min(axis=1) <= math.ceil(4.0) ** 2)

    # the crop is the occupied box plus rp, clipped to the window: a box
    # inside the window, cells against an edge, in both corners, and a box
    # that covers the window
    @pytest.mark.parametrize("shape,occupied,r", [
        ((40, 50), [(15, 20), (22, 27)], 6.0),
        ((40, 50), [(0, 20), (1, 21), (39, 3)], 6.0),
        ((40, 50), [(0, 0), (39, 49)], 6.0),
        ((12, 9), [(6, 4)], 6.0),
        ((12, 9), [(0, 8), (11, 0)], 2.5),
    ])
    def test_crop_matches_brute_force_dilation(self, shape, occupied, r):
        cells = np.zeros(shape, dtype=bool)
        cells[tuple(np.array(occupied).T)] = True
        g = PSSGrid(cells, 1.0, Vec2(0.0, 0.0))
        poa = compute_poa(g, r)
        assert np.array_equal(poa.cells, brute_force_dilation(cells, int(math.ceil(r))))

    # both shipped push configs, a finer grid, and a radius of 24.3 pixels
    @pytest.mark.parametrize("name, fields, calls", [
        ("push_circle.yaml", {}, 118),
        ("push_lemniscate.yaml", {}, 160),
        ("push_circle.yaml", {"resolution_mm": 0.5}, 118),
        ("push_lemniscate.yaml", {"object_radius_mm": 24.3}, 160),
    ])
    def test_matches_edt_on_every_planner_call(self, monkeypatch, name, fields, calls):
        seen = []

        def checked(pss, r):
            poa = compute_poa(pss, r)
            seen.append(np.array_equal(poa.cells, edt_poa.compute_poa(pss, r).cells))
            return poa

        monkeypatch.setattr(push_module, "compute_poa", checked)
        cfg = load_config(os.path.join(CONFIGS, name))
        cfg.raw.update(fields)
        problem, start, _, _ = build_push(cfg)
        plan_push(problem, start)
        assert len(seen) == calls and all(seen)

    # one corner cell: disks that reach the far edges but not the far
    # corner, and disks wider than the window
    @pytest.mark.parametrize("r", [35.0, 41.5, 60.0, 1e9])
    def test_disk_wider_than_the_window(self, r):
        cells = np.zeros((30, 30), dtype=bool)
        cells[0, 0] = True
        g = PSSGrid(cells, 1.0, Vec2(0.0, 0.0))
        assert np.array_equal(compute_poa(g, r).cells, edt_poa.compute_poa(g, r).cells)

    def test_matches_edt_on_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h, w = rng.integers(1, 40, 2).tolist()
            cells = rng.random((h, w)) < rng.choice([0.01, 0.1, 0.5, 0.95])
            cells[rng.integers(h), rng.integers(w)] = True
            g = PSSGrid(cells, float(rng.choice([0.5, 0.7, 1.0])), Vec2(0.0, 0.0))
            r = float(rng.uniform(0.0, 40.0))
            assert np.array_equal(compute_poa(g, r).cells, edt_poa.compute_poa(g, r).cells)


def angles(K: int) -> np.ndarray:
    """The candidate angles of ``find_push``, theta_k = 2 pi k / K."""
    return 2.0 * math.pi * np.arange(1, K + 1) / K


class TestHeuristicScore:
    """The batched scores equal the old one-angle-per-call scores bitwise,
    so every plan stays the same."""

    @staticmethod
    def _both(poa, thetas, cage, R, lambda1=1.0, lambda2=1.0):
        batch = push_module.heuristic_score(poa, thetas, cage, lambda1, lambda2, R)
        return batch, scalar_score.scores(poa, thetas, cage, lambda1, lambda2, R)

    @pytest.mark.parametrize("K", [3, 16, 17, 32, 128])
    def test_matches_scalar_on_random_poas(self, K):
        rng = np.random.default_rng(K)
        for _ in range(4):
            cells = rng.random((61, 61)) < 0.02
            # Python floats, as find_push passes them
            rho, r, dx, dy, radius, dR, l1, l2, cx, cy, th = (
                rng.uniform(0.0, 1.0, 11) * [1, 6, 6, 6, 10, 10, 2, 2, 100, 100, 2 * math.pi]
                + [0.5, 2, -3, -3, 5, 0, 0.1, 0.1, -50, -50, 0]
            ).tolist()
            g = PSSGrid(cells, rho, Vec2(cx, cy))
            poa = compute_poa(g, r)
            cage = CageCircle(g.frame_center + Vec2(dx, dy), radius)
            thetas = np.append(angles(K)[: K - 1], th)  # and one off-grid angle
            batch, scalar = self._both(poa, thetas, cage, radius + dR, l1, l2)
            assert batch.shape == (K,)
            assert (batch > 0).any()
            assert np.array_equal(batch, scalar)

    def test_one_cell_poa(self):
        cells = np.zeros((21, 21), dtype=bool)
        cells[3, 17] = True
        poa = PSSGrid(cells, 1.0, Vec2(0.0, 0.0))
        batch, scalar = self._both(poa, angles(17), CageCircle(Vec2(0.0, 0.0), 4.0), 6.0)
        assert np.count_nonzero(batch) > 0
        assert np.array_equal(batch, scalar)

    def test_angle_without_outlier_scores_zero(self):
        # one cell 8 mm right of the cage center: only the lines tangent at
        # 5 mm on the right side have it beyond them
        g = PSSGrid.from_points(np.array([[8.0, 0.0]]), 1.0, Vec2(0.0, 0.0), (21, 21))
        thetas = angles(16)
        batch, scalar = self._both(g, thetas, CageCircle(Vec2(0.0, 0.0), 4.0), 5.0)
        assert batch[7] == 0.0 and batch[15] > 0.0  # theta = pi and 2 pi
        assert np.array_equal(batch, scalar)
        empty = PSSGrid(np.zeros((21, 21), dtype=bool), 1.0, Vec2(0.0, 0.0))
        batch, scalar = self._both(empty, thetas, CageCircle(Vec2(0.0, 0.0), 4.0), 5.0)
        assert np.array_equal(batch, np.zeros(16)) and np.array_equal(batch, scalar)

    @pytest.mark.parametrize("origin", [0.0, 1e5])
    @pytest.mark.parametrize("delta", [1e-7, -1e-7])
    @pytest.mark.parametrize("side", ["right", "top"])
    def test_cell_beside_a_tangent_point(self, origin, delta, side):
        # one POA cell R + delta from the cage center, beside the tangent
        # point of theta = 2 pi (right) or pi / 2 (top), next to a disk of
        # cells well inside the circle, in a frame at (origin, origin)
        R = 45.0
        yy, xx = np.mgrid[-50:51, -50:51]
        cells = xx * xx + yy * yy <= 30 * 30
        frame = Vec2(origin, origin)
        if side == "right":
            cells[50, 95] = True
            center, k = Vec2(origin - delta, origin), 16
        else:
            cells[95, 50] = True
            center, k = Vec2(origin, origin - delta), 4
        poa = PSSGrid(cells, 1.0, frame)
        batch, scalar = self._both(poa, angles(16), CageCircle(center, 5.0), R)
        assert np.array_equal(batch, scalar)
        # the cell is past the tangent line exactly when it lies outside the circle
        assert (batch[k - 1] > 0.0) == (delta > 0.0)

    def test_matches_scalar_on_push_circle_plan(self, monkeypatch):
        calls = []
        real = push_module.heuristic_score

        def record(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(push_module, "heuristic_score", record)
        problem, start, _, _ = build_push(load_config(os.path.join(CONFIGS, "push_circle.yaml")))
        plan, result, _ = plan_push(problem, start)
        assert result.success
        assert len(calls) == sum(isinstance(a, PushAngle) for a in plan) > 100
        for args, batch in calls:
            assert batch.shape == (problem.K,)
            assert np.array_equal(batch, scalar_score.scores(*args))


class TestFindPushTieBreaks:
    """Two cells mirrored about the y axis through the cage center: the
    lines at theta = pi (k = 8) and 2 pi (k = 16) cut equal POA areas to
    equal depths, and their scores tie exactly above every other angle."""

    @staticmethod
    def _mirrored():
        prob = small_problem(K=16, shortlist=2)
        g = PSSGrid.from_points(np.array([[-14.0, 0.0], [14.0, 0.0]]), 1.0,
                                Vec2(0.0, 0.0), (prob.grid_size,) * 2)
        cage = CageCircle(Vec2(0.0, 0.0), 10.0)
        poa = compute_poa(g, prob.object_radius)
        scores = push_module.heuristic_score(poa, angles(16), cage, prob.lambda1,
                                             prob.lambda2, cage.radius + prob.object_radius)
        top = np.flatnonzero(scores == scores.max()) + 1
        assert list(top) == [8, 16]
        return prob, g, cage

    def test_equal_scores_pick_lowest_k(self):
        prob, g, cage = self._mirrored()
        assert find_push(g, prob, cage, None) == PushAngle(theta=math.pi, k=8)

    def test_equal_distance_from_previous_picks_lowest_k(self):
        # pi / 2 lies exactly halfway between the two shortlisted angles
        prob, g, cage = self._mirrored()
        prev = math.pi / 2.0
        thetas = angles(16)
        assert (push_module._angular_distance(thetas[7], prev)
                == push_module._angular_distance(thetas[15], prev))
        assert find_push(g, prob, cage, prev) == PushAngle(theta=math.pi, k=8)


class TestPropagatePSS:
    def test_null_action_is_pure_translation(self):
        prob = small_problem()
        g = PSSGrid.from_points(np.array([[2.0, -1.0], [0.0, 3.0]]), 1.0,
                                Vec2(0.0, 0.0), (prob.grid_size,) * 2)
        out = propagate_pss(g, None, Vec2(7.0, -4.0), prob)
        before = sorted(map(tuple, g.occupied_world()))
        after = sorted(map(tuple, out.occupied_world()))
        assert before == after  # same world cells, re-centered frame
        assert out.frame_center == Vec2(7.0, -4.0)

    def test_push_drops_cell_leaving_window(self):
        # the re-centering moves the top-row cell out of the window: it is
        # dropped, not wrapped onto the bottom row
        prob = small_problem()
        n = prob.grid_size
        cells = np.zeros((n, n), dtype=bool)
        cells[0, n // 2] = True
        cells[n // 2, n // 2] = True
        g = PSSGrid(cells=cells, resolution=1.0, frame_center=Vec2(0.0, 0.0))
        out = propagate_pss(g, 0.0, Vec2(0.0, 1.0), prob)
        assert not out.cells[-1].any()
        assert (0.0, 0.0) in set(map(tuple, out.occupied_world()))

    def test_push_output_in_motion_set(self):
        prob = small_problem()
        q = Vec2(10.0, 0.0)
        g = PSSGrid.from_points(q.as_array()[None, :], 1.0, Vec2(0.0, 0.0),
                                (prob.grid_size,) * 2)
        theta = math.pi  # pusher approaches from -x, pushes toward +x
        out = propagate_pss(g, theta, Vec2(0.0, 0.0), prob)
        pose = pusher_pose(Vec2(0.0, 0.0), prob.R, theta, prob.pusher_length / 2)
        ms = motion_set(q, pose, prob.object_radius, prob.d_push)
        rho = prob.resolution
        for p in out.occupied_world():
            disp = Vec2(p[0] - q.x, p[1] - q.y)
            # allow one cell of rasterization slack on the ellipse test
            assert ms.contains(disp, tol=2.0 * rho)

    def test_oracle_displacement_conservative(self):
        # every oracle outcome lands within one cell of the propagated PSS
        prob = small_problem()
        q = Vec2(8.0, 2.0)
        g = PSSGrid.from_points(q.as_array()[None, :], 1.0, Vec2(0.0, 0.0),
                                (prob.grid_size,) * 2)
        theta = math.pi
        out = propagate_pss(g, theta, Vec2(0.0, 0.0), prob)
        occ = out.occupied_world()
        pose = pusher_pose(Vec2(0.0, 0.0), prob.R, theta, prob.pusher_length / 2)
        cfg = oracle.PushOracleConfig()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            disp = oracle.simulate_push(q, pose, prob.d_push, cfg, rng)
            p = np.array([q.x + disp.x, q.y + disp.y])
            dmin = np.min(np.hypot(occ[:, 0] - p[0], occ[:, 1] - p[1]))
            assert dmin <= prob.resolution * math.sqrt(2.0) + 1e-9


class TestPropagateMatchesReference:
    """``propagate_pss`` equals the reference of ``scalar_propagate`` (2-D
    ``np.nonzero`` scans, every offset tested) bit for bit, so every plan
    stays the same."""

    @staticmethod
    def _same(pss, action, center, prob):
        got = propagate_pss(pss, action, center, prob)
        want = scalar_propagate.propagate_pss(pss, action, center, prob)
        assert np.array_equal(got.cells, want.cells)
        assert got.frame_center == want.frame_center
        return got

    def test_random_sets_frames_angles_and_reach(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            # Python floats, as plan_push passes them
            rho, d_push, r, cx, cy, dx, dy, theta, fill = (
                rng.uniform(0.0, 1.0, 9) * [1.5, 25, 20, 200, 200, 12, 12, 2 * math.pi, 0.05]
                + [0.5, 2, 10, -100, -100, -6, -6, 0, 0.002]
            ).tolist()
            prob = small_problem(resolution=rho, d_push=d_push, object_radius=r)
            n = int(rng.integers(31, prob.grid_size + 1))
            cells = rng.random((n, n)) < fill
            cells[n // 2, n // 2] = True
            pss = PSSGrid(cells, rho, Vec2(cx, cy))
            for action in (theta, 2.0 * math.pi * int(rng.integers(1, 33)) / 32 % (2.0 * math.pi)):
                self._same(pss, action, Vec2(cx + dx, cy + dy), prob)

    def test_set_on_the_window_edge(self):
        # a 41 x 41 window at the origin, pushed toward -x from theta = 0:
        # the contacted cells on its top and bottom rows scatter past it,
        # and a shift of the frame drops rows
        prob = small_problem()
        cells = np.zeros((41, 41), dtype=bool)
        cells[[0, 1, 2, 39, 40], :] = True
        cells[:, [0, 40]] = True
        pss = PSSGrid(cells, 1.0, Vec2(0.0, 0.0))
        out = self._same(pss, 0.0, Vec2(0.0, 0.0), prob)
        wide = propagate_pss(PSSGrid(np.pad(cells, 20), 1.0, Vec2(0.0, 0.0)), 0.0,
                             Vec2(0.0, 0.0), prob)
        assert np.array_equal(wide.cells[20:61, 20:61], out.cells)
        assert wide.count > out.count  # the scatter dropped cells
        moved = self._same(pss, None, Vec2(0.0, 3.0), prob)
        assert moved.count < pss.count  # the shift dropped cells
        self._same(pss, 0.0, Vec2(0.0, 3.0), prob)
        self._same(pss, math.pi / 2.0, Vec2(-2.0, 1.0), prob)

    def test_cell_at_full_reach_is_not_moved(self):
        # theta = 0: the pusher starts 45 mm out on +x with its segment
        # along y, so the cell at the cage center is exactly r + d_push from it
        prob = small_problem()
        pss = PSSGrid.from_points(np.zeros((1, 2)), 1.0, Vec2(0.0, 0.0), (prob.grid_size,) * 2)
        start = pusher_pose(Vec2(0.0, 0.0), prob.R, 0.0, prob.pusher_length / 2.0)
        assert segment_distance(np.zeros((1, 2)), start)[0] == prob.object_radius + prob.d_push
        out = self._same(pss, 0.0, Vec2(0.0, 0.0), prob)
        assert out.count == 1  # d_con = 0 reaches no other offset

    def test_side_offsets_across_the_push(self):
        # theta = 0 pushes along (-1, -0.0) from a segment on x = 45 that
        # ends at y = 50: the offsets straight across the push have u == 0
        # exactly. The cell 20 mm in front of the segment's end and 15 mm
        # past it has d_con = 20, so b = 10, and the side offsets more than
        # 7 mm out clear the penetration cut.
        prob = small_problem()
        q = np.array([[25.0, 65.0]])
        pss = PSSGrid.from_points(q, 1.0, Vec2(0.0, 0.0), (prob.grid_size,) * 2)
        start = pusher_pose(Vec2(0.0, 0.0), prob.R, 0.0, prob.pusher_length / 2.0)
        assert segment_distance(q, start)[0] == 25.0
        assert 0.0 * start.direction.x + 7.0 * start.direction.y == 0.0
        out = self._same(pss, 0.0, Vec2(0.0, 0.0), prob)
        occupied = set(map(tuple, out.occupied_world()))
        assert {(25.0, 73.0), (25.0, 75.0)} <= occupied

    @pytest.mark.parametrize("j, gap", [(20, 0.0), (20, 2e-12), (0, -1e-9)])
    def test_contact_travel_at_the_ends_of_its_range(self, j, gap):
        # theta = 0 with r = 5: the pusher starts on x = 25 and pushes
        # toward -x, and d_push / (2 r) > pi / 2 leaves no penetration cut.
        # One cell j mm right of the cage center, in a frame shifted by
        # -gap: it lies 5 + gap mm from the pusher, so d_con = 20 - gap is
        # d_push itself (its apex offset on the key d_con**2), just under
        # it, or 1e-9 mm
        prob = small_problem(object_radius=5.0)
        n = prob.grid_size
        cells = np.zeros((n, n), dtype=bool)
        cells[n // 2, n // 2 + j] = True
        pss = PSSGrid(cells, 1.0, Vec2(-gap, 0.0))
        start = pusher_pose(Vec2(0.0, 0.0), prob.R, 0.0, prob.pusher_length / 2.0)
        dist = segment_distance(pss.occupied_world(), start)[0]
        d_con = prob.d_push - max(0.0, dist - prob.object_radius)
        assert d_con == pytest.approx(j - gap, abs=1e-14)
        out = self._same(pss, 0.0, Vec2(0.0, 0.0), prob)
        if j:
            assert out.cells[n // 2, n // 2]  # the apex, d_con mm ahead
        else:
            assert out.count == 1

    def test_no_push(self):
        prob = small_problem()
        pss = PSSGrid.from_points(np.array([[2.0, -1.0], [0.0, 3.0]]), 1.0,
                                  Vec2(0.0, 0.0), (prob.grid_size,) * 2)
        self._same(pss, None, Vec2(7.3, -4.6), prob)

    @pytest.mark.parametrize("name", ["push_circle.yaml", "push_lemniscate.yaml"])
    def test_every_call_of_a_shipped_plan(self, monkeypatch, name):
        calls = []

        def checked(*args):
            calls.append(args[1])
            return self._same(*args)

        monkeypatch.setattr(push_module, "propagate_pss", checked)
        problem, start, _, _ = build_push(load_config(os.path.join(CONFIGS, name)))
        plan, result, _ = plan_push(problem, start)
        assert result.success
        assert len(calls) == len(problem.trajectory) - 1
        assert sum(a is not None for a in calls) > 10
        assert verify_push_plan(problem, start, plan).success
        assert len(calls) == 2 * (len(problem.trajectory) - 1)


class TestPlanProperties:
    @staticmethod
    def _angles(plan):
        return [(a.k if isinstance(a, PushAngle) else None) for a in plan]

    def test_plan_verify_agreement(self):
        prob = small_problem()
        plan, result, _ = plan_push(prob, prob.trajectory[0])
        assert result.success
        assert verify_push_plan(prob, prob.trajectory[0], plan).success

    @pytest.mark.parametrize("trajectory, offset, error", [
        # 24 waypoints on a 60 mm circle lie 15.7 mm apart, over cage_size/2
        (tuple(as_vec2_list(circle(60.0, 24))), Vec2(0.0, 0.0), WaypointSpacingTooLarge),
        (None, Vec2(25.0, 0.0), InitialPositionOutsideCage),
    ])
    def test_replay_rejects_what_planner_rejects(self, trajectory, offset, error):
        prob = small_problem() if trajectory is None else small_problem(trajectory=trajectory)
        start = prob.trajectory[0] + offset
        with pytest.raises(error):
            plan_push(prob, start)
        with pytest.raises(error):
            verify_push_plan(prob, start, [NoAction()] * (len(prob.trajectory) - 1))

    def test_replay_rejects_a_plan_longer_than_its_path(self):
        prob = small_problem()
        plan, result, _ = plan_push(prob, prob.trajectory[0])
        assert result.success and len(plan) == len(prob.trajectory) - 1 == 48
        with pytest.raises(ValueError, match="plan of 49 steps is longer than its 48-step path"):
            verify_push_plan(prob, prob.trajectory[0], [*plan, NoAction()])
        with pytest.raises(ValueError, match="plan of 49 steps"):  # when called, not iterated
            push_module.replay(prob, prob.trajectory[0], [*plan, NoAction()])
        # a shorter plan, such as a failed plan of the planner, replays as its prefix
        assert verify_push_plan(prob, prob.trajectory[0], plan[:3]).success

    def test_kernel_replay_reproduces_runlog(self):
        prob = small_problem()
        plan, _, log = plan_push(prob, prob.trajectory[0])
        records = [record for _, record, _ in push_module.replay(prob, prob.trajectory[0], plan)]
        assert any(isinstance(a, PushAngle) for a in plan)
        assert records == log.records

    def test_translation_equivariance(self):
        prob = small_problem()
        plan0, res0, _ = plan_push(prob, prob.trajectory[0])
        shift = Vec2(137.3, -52.9)
        traj2 = tuple(w + shift for w in prob.trajectory)
        prob2 = small_problem(trajectory=traj2)
        plan2, res2, _ = plan_push(prob2, traj2[0])
        assert res0.success and res2.success
        assert self._angles(plan0) == self._angles(plan2)

    def test_quarter_turn_equivariance(self):
        prob = small_problem(K=16)
        plan0, res0, _ = plan_push(prob, prob.trajectory[0])

        def rot(w: Vec2) -> Vec2:
            return Vec2(-w.y, w.x)

        traj2 = tuple(rot(w) for w in prob.trajectory)
        prob2 = small_problem(K=16, trajectory=traj2)
        plan2, res2, _ = plan_push(prob2, traj2[0])
        assert res0.success and res2.success
        for a0, a2 in zip(plan0, plan2):
            if isinstance(a0, NoAction):
                assert isinstance(a2, NoAction)
            else:
                assert a2.k == (a0.k + 16 // 4 - 1) % 16 + 1

    def test_determinism(self):
        prob = small_problem()
        a, _, _ = plan_push(prob, prob.trajectory[0])
        b, _, _ = plan_push(prob, prob.trajectory[0])
        assert self._angles(a) == self._angles(b)

    def test_max_spacing_once_per_plan(self, monkeypatch):
        calls = []
        real = push_module.max_spacing
        monkeypatch.setattr(push_module, "max_spacing",
                            lambda problem: calls.append(problem) or real(problem))
        prob = small_problem()
        plan_push(prob, prob.trajectory[0])
        assert len(calls) == 1

    def test_heuristic_score_once_per_push_step(self, monkeypatch):
        # find_push scores all K angles in one call, and returns before
        # scoring when the set is already contained
        calls = []
        real = push_module.heuristic_score
        monkeypatch.setattr(push_module, "heuristic_score",
                            lambda *args: calls.append(args) or real(*args))
        prob = small_problem()
        plan, _, _ = plan_push(prob, prob.trajectory[0])
        pushes = sum(isinstance(a, PushAngle) for a in plan)
        assert 0 < pushes < len(plan)
        assert len(calls) == pushes

    def test_no_push_when_contained(self):
        prob = small_problem()
        g = PSSGrid.from_points(np.zeros((1, 2)), 1.0, Vec2(0.0, 0.0),
                                (prob.grid_size,) * 2)
        cage = trigger_cage(prob, Vec2(0.0, 0.0), push_module.max_spacing(prob))
        assert contains_geometric(g, cage)
        assert find_push(g, prob, cage, None) is None

    def test_initial_position_outside_cage_rejected(self):
        prob = small_problem()
        with pytest.raises(ValueError):
            plan_push(prob, prob.trajectory[0] + Vec2(25.0, 0.0))
