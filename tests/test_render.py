"""PGM frame rendering."""

import numpy as np
import pytest

from cageintime.core import CageCircle, PSSGrid, Vec2
from cageintime.push import pusher_pose
from cageintime.render import (
    GRAY_CAGE,
    GRAY_POA,
    GRAY_PSS,
    GRAY_PUSHER,
    FrameImage,
    render_prob_frame,
    render_push_frame,
)

import dense_belief as D


class TestFrameImage:
    def test_pgm_header_and_payload(self, tmp_path):
        img = FrameImage(np.arange(6, dtype=np.uint8).reshape(2, 3))
        data = img.pgm_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data[len(b"P5\n3 2\n255\n"):] == bytes(range(6))
        path = tmp_path / "f.pgm"
        img.write(path)
        assert path.read_bytes() == data

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            FrameImage(np.zeros((2, 2, 2), dtype=np.uint8))


class TestRenderPushFrame:
    def test_layers_present(self):
        g = PSSGrid.from_points(np.zeros((1, 2)), 1.0, Vec2(0.0, 0.0), (101, 101))
        cage = CageCircle(Vec2(0.0, 0.0), 20.0)
        pose = pusher_pose(Vec2(0.0, 0.0), 45.0, 0.0, 40.0)
        img = render_push_frame(g, cage, pose, 10.0)
        vals = set(np.unique(img.pixels))
        assert {0, GRAY_PUSHER, GRAY_CAGE, GRAY_POA, GRAY_PSS} <= vals

    def test_pss_drawn_over_poa(self):
        g = PSSGrid.from_points(np.zeros((1, 2)), 1.0, Vec2(0.0, 0.0), (41, 41))
        img = render_push_frame(g, CageCircle(Vec2(0.0, 0.0), 10.0), None, 5.0)
        assert img.pixels[20, 20] == GRAY_PSS


class TestRenderProbFrame:
    def test_peak_maps_to_white(self):
        v = np.zeros((5, 5))
        v[2, 2] = 0.8
        v[1, 1] = 0.4
        img = render_prob_frame(D.grid(1, 5, 0.08, 1.0, v))
        assert img.pixels.shape == (5, 5)
        assert img.pixels[2, 2] == 255
        assert img.pixels[1, 1] == 128

    def test_4d_marginal(self):
        v = np.zeros((3, 3, 3, 3))
        v[1, 1, 0, 0] = 1.0
        img = render_prob_frame(D.grid(2, 3, 0.08, 1.0, v))
        assert img.pixels.shape == (3, 3)
        assert img.pixels[1, 1] == 255

    def test_n2_matches_dense_marginal(self):
        rng = np.random.default_rng(5)
        v = rng.random((7,) * 4) * (rng.random((7,) * 4) < 0.2)
        grid = D.grid(2, 7, 0.08, 1.0, v)
        plane = grid.values.sum(axis=(2, 3))
        dense = np.round(255.0 * plane / plane.max()).astype(np.uint8)
        assert np.array_equal(render_prob_frame(grid).pixels, dense)
