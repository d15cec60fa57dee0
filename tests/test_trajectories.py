"""Reference trajectory generators."""

import math
import os

import numpy as np
import pytest

from cageintime.core import BadSpec
from cageintime.trajectories import (
    circle,
    lemniscate,
    resample_polyline,
    smooth_path,
)

# the letter stroke path of configs/ball_rice.yaml
RICE = np.loadtxt(os.path.join(os.path.dirname(__file__), "..", "configs", "rice.csv"),
                  delimiter=",")


class TestCircle:
    def test_radius_and_count(self):
        pts = circle(150.0, 120)
        assert pts.shape == (120, 2)
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 150.0, atol=1e-9)

    def test_closure_spacing(self):
        pts = circle(150.0, 120)
        gaps = np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T)
        assert np.allclose(gaps, gaps[0], atol=1e-9)

    def test_validation(self):
        with pytest.raises(BadSpec):
            circle(0.0, 10)
        with pytest.raises(BadSpec):
            circle(10.0, 1)


class TestLemniscate:
    def test_passes_origin_twice_per_loop(self):
        pts = lemniscate(100.0, 721, loops=2)
        r = np.hypot(pts[:, 0], pts[:, 1])
        near = r < 1.5
        # count sign-change clusters of origin visits (excluding endpoints)
        clusters = np.sum(np.diff(near.astype(int)) == 1)
        assert clusters >= 4  # two interior passes per loop

    def test_amplitude(self):
        pts = lemniscate(100.0, 721)
        assert np.max(np.abs(pts[:, 0])) == pytest.approx(100.0, rel=1e-3)

    def test_ease_starts_at_rest(self):
        raw = lemniscate(0.03, 251)
        eased = lemniscate(0.03, 251, ease=True)
        # first step of the eased path is far smaller than the raw one
        assert np.hypot(*(eased[1] - eased[0])) < 0.01 * np.hypot(*(raw[1] - raw[0]))
        assert np.allclose(eased[0], raw[0])
        assert np.allclose(eased[-1], raw[-1])


class TestResamplePolyline:
    def test_uniform_spacing(self):
        L = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 50.0]])
        pts = resample_polyline(L, 5.0)
        gaps = np.hypot(*np.diff(pts, axis=0).T)
        assert np.all(np.abs(gaps - 5.0) <= 0.5)
        assert np.allclose(pts[0], L[0]) and np.allclose(pts[-1], L[-1])

    def test_validation(self):
        with pytest.raises(BadSpec):
            resample_polyline(np.zeros((1, 2)), 5.0)
        with pytest.raises(BadSpec):
            resample_polyline(np.zeros((3, 2)), 5.0)  # zero length


class TestSmoothPath:
    def test_endpoints_held(self):
        sm = smooth_path(RICE, 11, passes=4)
        assert np.allclose(sm[0], RICE[0])
        assert np.allclose(sm[-1], RICE[-1])

    def test_reduces_corner_acceleration(self):
        pts = resample_polyline(RICE, 0.001)
        sm = smooth_path(pts, 11, passes=4)
        acc = lambda p: np.max(np.abs(np.diff(p, n=2, axis=0)))
        assert acc(sm) < acc(pts)

    def test_window_one_identity(self):
        assert np.array_equal(smooth_path(RICE, 1), RICE)

    def test_even_window_rejected(self):
        with pytest.raises(BadSpec, match="smooth_window must be odd .*got 10"):
            smooth_path(RICE, 10)
