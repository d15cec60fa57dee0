"""Ball-on-plate belief dynamics, energy cage, and control loop."""

import math
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cageintime import ball as B
from cageintime import config
from cageintime import qp as qpmod
from cageintime.core import (FailureReason, TiltRate, VerificationResult,
                             verify_caging_in_time)

import dense_belief as D
import probe_reference as R
from reference_terms import energy, no_uncertainty
from scalar_oracle import exact_accel, in_plane_accel


TB = B.tennis_ball()
MODEL = B.EnergyModel(k_ve=10.0, m_eff=TB.m_eff, mass=TB.mass)


def flat_plate(n: int = 1, half_length: float = 0.08) -> B.PlateState:
    return B.PlateState(n, half_length, np.zeros(n), np.zeros(n + 1))


class TestBallParams:
    def test_tennis_ball_factors(self):
        # hollow sphere: m_eff = (5/3) m, kappa = 3/5
        assert TB.m_eff == pytest.approx(5.0 / 3.0 * TB.mass)
        assert TB.kappa == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            B.BallParams(mass=0.0, radius=0.03, inertia=1e-5, mu_r=0.1)
        with pytest.raises(ValueError):
            B.BallParams(mass=0.05, radius=0.03, inertia=1e-5, mu_r=-0.1)


class TestUncertaintyModel:
    def test_rejects_asymmetric_covariance(self):
        S = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            B.UncertaintyModel(0.0, S, 0.0)

    def test_rejects_indefinite_covariance(self):
        S = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            B.UncertaintyModel(0.0, S, 0.0)


class TestPlateState:
    def test_tilt_range(self):
        with pytest.raises(ValueError):
            B.PlateState(1, 0.08, np.array([math.pi / 2]), np.zeros(2))

    def test_dimension(self):
        with pytest.raises(ValueError):
            B.PlateState(3, 0.08, np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_eff_is_the_oracle_term(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            plate = B.PlateState(n, 0.08, rng.uniform(-1.5, 1.5, n), rng.normal(0.0, 5.0, n + 1))
            assert np.array_equal(plate.a_eff, in_plane_accel(plate.tilt, plate.accel))

    def test_a_eff_is_read_only(self):
        plate = B.PlateState(2, 0.08, np.array([0.1, -0.2]), np.array([0.5, -0.3, 0.2]))
        with pytest.raises(ValueError):
            plate.a_eff[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            plate.a_eff = np.zeros(2)
        with pytest.raises(ValueError):  # not an argument, so never passed in stale
            replace(plate, a_eff=np.zeros(2))

    @pytest.mark.parametrize("change", [{"tilt": np.array([0.3, 0.1])},
                                        {"accel": np.array([-1.0, 2.0, 0.7])}])
    def test_replace_recomputes_a_eff(self, change):
        plate = B.PlateState(2, 0.08, np.array([0.1, -0.2]), np.array([0.5, -0.3, 0.2]))
        moved = replace(plate, **change)
        assert np.array_equal(moved.a_eff, in_plane_accel(moved.tilt, moved.accel))
        assert not np.any(moved.a_eff == plate.a_eff)


class TestPlateFrameAccels:
    def test_flat_static_zero(self):
        a_eff = flat_plate().a_eff
        assert np.allclose(a_eff, 0.0)

    def test_gravity_component(self):
        plate = B.PlateState(1, 0.08, np.array([0.1]), np.zeros(2))
        a_eff = plate.a_eff
        assert a_eff[0] == pytest.approx(9.81 * math.sin(0.1))
        assert a_eff[0] == pytest.approx(0.9794, abs=1e-4)

    def test_pure_inertial_term(self):
        plate = B.PlateState(1, 0.08, np.zeros(1), np.array([1.0, 0.0]))
        a_eff = plate.a_eff
        assert a_eff[0] == pytest.approx(1.0)

    def test_vertical_accel_scales_gravity(self):
        plate = B.PlateState(1, 0.08, np.array([0.1]), np.array([0.0, 1.0]))
        a_eff = plate.a_eff
        assert a_eff[0] == pytest.approx((9.81 + 1.0) * math.sin(0.1))


class TestAccelDistribution:
    def test_zero_noise_zero_state(self):
        mu, var = B.accel_distribution(
            np.zeros(1), flat_plate(), TB, no_uncertainty(1))
        assert np.allclose(mu, 0.0) and np.allclose(var, 0.0)

    def test_per_axis_variance(self):
        # each axis's variance is the diagonal entry of the first-order
        # covariance of the mass, plate-acceleration and friction channels
        unc = B.UncertaintyModel(0.05, np.array([[0.2, 0.05, 0.01],
                                                 [0.05, 0.3, 0.02],
                                                 [0.01, 0.02, 0.4]]), 0.1)
        plate = B.PlateState(2, 0.08, np.array([0.1, -0.2]), np.array([0.5, -0.3, 0.2]))
        v = np.array([[0.0, 0.0], [0.3, -0.7], [-1.0, 0.2]])
        mu, var = B.accel_distribution(v, plate, TB, unc)
        assert mu.shape == var.shape == (3, 2)
        drive = TB.kappa * plate.a_eff
        T = B._inplane_jacobian(plate.tilt)
        for row, vr in zip(var, v):
            cov = (unc.sigma_m**2 * np.outer(drive, drive)
                   + TB.kappa**2 * (T @ unc.Sigma_p @ T.T)
                   + unc.sigma_mu**2 * np.outer(vr, vr))
            assert np.array_equal(row, np.diagonal(cov))

    def test_rolling_factor_on_slope(self):
        plate = B.PlateState(1, 0.08, np.array([0.1]), np.zeros(2))
        mu, _ = B.accel_distribution(
            np.zeros(1), plate, TB, no_uncertainty(1))
        assert mu[0] == pytest.approx(0.6 * 9.81 * math.sin(0.1))
        assert mu[0] == pytest.approx(0.5876, abs=1e-4)

    def test_friction_noise_vanishes_at_rest(self):
        unc = B.UncertaintyModel(0.0, np.zeros((2, 2)), 0.5)
        _, var = B.accel_distribution(
            np.zeros(1), flat_plate(), TB, unc)
        assert np.allclose(var, 0.0)

    def test_mean_matches_exact_dynamics(self):
        # the distribution mean must equal the noise-free oracle dynamics
        for tilt, v in [(0.1, 0.0), (-0.3, 0.4), (0.02, -0.7)]:
            plate = B.PlateState(1, 0.08, np.array([tilt]), np.array([0.5, 0.1]))
            mu, _ = B.accel_distribution(
                np.array([v]), plate, TB, no_uncertainty(1))
            exact = exact_accel(
                np.zeros(1), np.array([v]), plate.tilt, plate.accel,
                TB, 0.0, np.zeros(2), 0.0)
            assert abs(mu[0] - exact[0]) <= 1e-8 * max(1.0, abs(exact[0]))


class TestEnergy:
    def test_origin_zero(self):
        assert energy(0.0, 0.0, 0.0, MODEL) == 0.0

    def test_kinetic_term(self):
        m = B.EnergyModel(k_ve=10.0, m_eff=0.096, mass=0.058)
        assert energy(0.0, 1.0, 0.0, m) == pytest.approx(0.048)

    def test_elastic_term(self):
        assert energy(0.08, 0.0, 0.0, MODEL) == pytest.approx(0.032)

    def test_potential_term_sign(self):
        # positive a_eff lowers the energy of positive x (downhill side)
        assert energy(0.05, 0.0, 1.0, MODEL) < energy(0.05, 0.0, 0.0, MODEL)


    @pytest.mark.parametrize("n,N", [(1, 41), (2, 11)])
    def test_field_matches_energy_on_support(self, n, N):
        # energy() is the reference the vectorised cage field must reproduce,
        # on each axis's cells under that axis's a_eff
        rng = np.random.default_rng(11)
        for _ in range(10):
            shape = (N,) * (2 * n)
            vals = rng.random(shape) * (rng.random(shape) < 0.1)
            if vals.sum() == 0:
                continue
            g = D.grid(n, N, 0.08, 1.0, vals)
            plate = B.PlateState(n, 0.08, rng.uniform(-0.5, 0.5, n),
                                 rng.uniform(-1, 1, n + 1))
            a_eff = plate.a_eff
            field = B._energy_field(g, plate, MODEL)
            ax, av = g.x_axis, g.v_axis
            assert field.shape == g.p.shape
            for d, (a, b) in enumerate(zip(g.bounds[:-1], g.bounds[1:])):
                for (i, j), e in zip(g.cells[a:b], field[a:b]):
                    assert abs(e - energy(ax[i], av[j], a_eff[d], MODEL)) <= 1e-12


class TestEMax:
    def test_flat_plate(self):
        assert B.e_max(flat_plate(), MODEL) == pytest.approx(0.032)

    def test_accelerated_plate(self):
        plate = B.PlateState(1, 0.08, np.zeros(1), np.array([0.98, 0.0]))
        assert B.e_max(plate, MODEL) == pytest.approx(
            0.032 - 0.058 * 0.98 * 0.08)
        assert B.e_max(plate, MODEL) == pytest.approx(0.02745, abs=1e-4)

    def test_sign_symmetry(self):
        p1 = B.PlateState(1, 0.08, np.zeros(1), np.array([0.7, 0.0]))
        p2 = B.PlateState(1, 0.08, np.zeros(1), np.array([-0.7, 0.0]))
        assert B.e_max(p1, MODEL) == pytest.approx(B.e_max(p2, MODEL))

    def test_square_plate_flat(self):
        plate = B.PlateState(2, 0.08, np.zeros(2), np.zeros(3))
        # lowest boundary energy sits at an edge midpoint, distance l
        assert B.e_max(plate, MODEL) == pytest.approx(0.032, rel=1e-3)

    def test_square_plate_exact_minimum(self):
        # the closed-form edge minimum lies at or below a boundary sampling
        # (116 points per edge, about 1 degree of arc, and 10^5 per edge) and
        # the fine sampling converges to it; accelerations up to 20 m/s^2
        # move some vertices past the corners
        rng = np.random.default_rng(5)
        l = 0.08

        def sampled(plate, m):
            a_eff = plate.a_eff
            s = np.linspace(-l, l, m)
            b = np.vstack([np.column_stack([s, np.full(m, c)]) for c in (l, -l)]
                          + [np.column_stack([np.full(m, c), s]) for c in (l, -l)])
            stat = 0.5 * MODEL.k_ve * np.sum(b * b, axis=1) - MODEL.mass * (b @ a_eff)
            return float(stat.min())

        clipped = 0
        for _ in range(20):
            plate = B.PlateState(2, l, rng.uniform(-0.5, 0.5, 2), rng.uniform(-20, 20, 3))
            a_eff = plate.a_eff
            clipped += bool(np.any(np.abs(MODEL.mass * a_eff / MODEL.k_ve) > l))
            exact = B.e_max(plate, MODEL)
            fine = sampled(plate, 10**5)
            assert exact <= sampled(plate, 116)
            assert exact <= fine
            assert fine - exact <= 1e-9
        assert 0 < clipped < 20


def _assert_dense_values(grid, want):
    """grid.values is want: to the bit on the line, and to rounding on the
    square plate, whose masses are products of the per-axis masses."""
    if grid.n == 1:
        assert np.array_equal(grid.values, want)
    else:
        assert np.abs(grid.values - want).max() <= 1e-15 * want.max()


class TestProbGrid:
    def test_normalized_on_construction(self):
        g = D.grid(1, 5, 0.1, 1.0, np.full((5, 5), 3.0))
        assert g.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            D.grid(1, 5, 0.1, 1.0, np.zeros((5, 5)))

    def test_constructor_normalizes(self):
        cells = np.array([[1, 2], [3, 4], [0, 4]])
        g = B.ProbGrid(1, 5, 0.1, 1.0, cells, np.array([1.0, 3.0, 4.0]))
        assert np.array_equal(g.p, [0.125, 0.375, 0.5])
        assert np.array_equal(g.cells, cells)
        assert not (g.cells.flags.writeable or g.p.flags.writeable)
        # grids on the same axes share one read-only array per axis
        other = B.ProbGrid(1, 5, 0.1, 1.0, cells[:1], np.ones(1))
        assert other.x_axis is g.x_axis and not g.x_axis.flags.writeable

    def test_constructor_normalizes_each_axis(self):
        cells = np.array([[1, 2], [3, 4], [0, 4]])
        g = B.ProbGrid(2, 5, 0.1, 1.0, cells, np.array([1.0, 3.0, 4.0]), np.array([0, 2, 3]))
        assert np.array_equal(g.p, [0.25, 0.75, 1.0])
        assert np.array_equal(g.bounds, [0, 2, 3]) and not g.bounds.flags.writeable
        assert g.values.shape == (5,) * 4 and g.values[1, 0, 2, 4] == 0.25
        xs, vs, ps = g.support()  # the product support, in C order over the axes
        assert np.array_equal(ps, [0.25, 0.75])
        assert np.array_equal(xs, g.x_axis[[[1, 0], [3, 0]]])
        assert np.array_equal(vs, g.v_axis[[[2, 4], [4, 4]]])

    @pytest.mark.parametrize("n,bounds", [
        (2, [0, 1]),  # one slice for two axes
        (1, [0, 1, 3]),
        (2, [0, 3, 3]),  # an axis without support
        (2, [0, 2, 2]),  # the slices miss the last cell
        (2, [1, 2, 3]),
        (2, [0.0, 1.0, 3.0]),  # not integer
    ])
    def test_constructor_rejects_bounds(self, n, bounds):
        with pytest.raises(ValueError):
            B.ProbGrid(n, 5, 0.1, 1.0, np.array([[1, 2], [3, 4], [0, 4]]), np.ones(3),
                       np.asarray(bounds))

    @pytest.mark.parametrize("n,N,cells,p", [
        (3, 5, [[1, 2, 1, 2, 1, 2]], [1.0]),  # n outside {1, 2}
        (0, 5, np.zeros((1, 0), int), [1.0]),
        (1, 4, [[1, 2]], [1.0]),  # even N
        (1, 1, [[0, 0]], [1.0]),  # N below 3
        (1, 5, np.zeros((0, 2), int), []),  # empty support
        (1, 5, [[1, 2], [3, 4]], [1.0, 0.0]),  # zero mass
        (1, 5, [[1, 2], [3, 4]], [1.0, -0.5]),  # negative mass
        (1, 5, [[1, 2]], [np.nan]),
        (1, 5, [[1, 2]], [np.inf]),
        (1, 5, [[1, 2, 3]], [1.0]),  # cells not (M, 2)
        (2, 5, [[1, 2]], [1.0]),  # no bounds, so one slice for two axes
        (1, 5, [1, 2], [1.0, 1.0]),
        (1, 5, [[1.0, 2.0]], [1.0]),  # cells not integer
        (1, 5, [[1, 2]], [1.0, 1.0]),  # not one mass per cell
        (1, 5, [[1, 5]], [1.0]),  # index outside [0, N)
        (1, 5, [[-1, 2]], [1.0]),
        (2, 3, [[0, 1, 2, 3]], [1.0]),
    ])
    def test_constructor_rejects(self, n, N, cells, p):
        with pytest.raises(ValueError):
            B.ProbGrid(n, N, 0.1, 1.0, np.asarray(cells), np.asarray(p, dtype=float))

    def test_box_support_bounds(self):
        g = B.ProbGrid.box(1, 81, 0.08, 1.0, -0.01, 0.01, 0.3, 0.4)
        xs, vs, _ = g.support()
        assert xs.min() >= -0.01 - 1e-9 and xs.max() <= 0.01 + 1e-9
        assert vs.min() >= 0.3 - 1e-9 and vs.max() <= 0.4 + 1e-9

    @pytest.mark.parametrize("n,N", [(1, 41), (2, 11)])
    def test_dense_round_trip(self, n, N):
        # a product belief, one random (x, v) plane per axis
        rng = np.random.default_rng(7)
        planes = [rng.random((N, N)) * (rng.random((N, N)) < 0.1) for _ in range(n)]
        vals = D.product(*planes)
        g = D.grid(n, N, 0.08, 1.0, vals)
        _assert_dense_values(g, vals / vals.sum())
        for plane, a, b in zip(planes, g.bounds[:-1], g.bounds[1:]):
            assert np.array_equal(g.cells[a:b], np.argwhere(plane))

    @pytest.mark.parametrize("n,N", [(1, 81), (2, 31)])
    def test_box_matches_dense_construction(self, n, N):
        boxes = [(-0.004, 0.004, -0.02, 0.02), (-0.01, 0.03, 0.3, 0.4), (-1.0, 1.0, -0.1, 0.0)]
        if n == 2:
            boxes.append(([-0.02, 0.0], [0.01, 0.05], [0.1, -0.3], [0.2, -0.1]))
        for x_lo, x_hi, v_lo, v_hi in boxes:
            ref = D.box_values(n, N, 0.08, 1.0, x_lo, x_hi, v_lo, v_hi)
            g = B.ProbGrid.box(n, N, 0.08, 1.0, x_lo, x_hi, v_lo, v_hi)
            _assert_dense_values(g, ref / ref.sum())
            dense = D.grid(n, N, 0.08, 1.0, ref)
            assert np.array_equal(g.cells, dense.cells)
            assert np.array_equal(g.bounds, dense.bounds)
        with pytest.raises(ValueError, match=r"axis 0: the position range \[0.01, -0.01\] "
                                             r"holds no cell; the cells lie 0.00\d+ apart"):
            B.ProbGrid.box(n, N, 0.08, 1.0, 0.01, -0.01, 0.0, 0.1)
        with pytest.raises(ValueError, match=r"axis \d: the velocity range \[0.81, 0.81\] "
                                             r"holds no cell; the cells lie 0.0\d+ apart"):
            B.ProbGrid.box(n, N, 0.08, 1.0, -0.01, 0.01, 0.81, 0.81)


class TestEntropy:
    def test_delta_zero(self):
        g = D.delta(1, 11, 0.08, 1.0, 0.0, 0.0)
        assert B.entropy(g) == 0.0

    def test_uniform_log_m(self):
        g = D.grid(1, 11, 0.08, 1.0, np.ones((11, 11)))
        assert B.entropy(g) == pytest.approx(math.log(121))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.random((11, 11)) * (rng.random((11, 11)) < 0.5)
        if vals.sum() == 0:
            return
        g = D.grid(1, 11, 0.08, 1.0, vals)
        s = B.entropy(g)
        assert -1e-12 <= s <= math.log(np.count_nonzero(g.values)) + 1e-12


class TestCbfClf:
    def test_rest_center_barrier(self):
        g = D.delta(1, 81, 0.08, 1.0, 0.0, 0.0)
        assert B.cbf_value(g, flat_plate(), MODEL) == pytest.approx(0.032)

    def test_energy_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = rng.random((41, 41)) * (rng.random((41, 41)) < 0.1)
            if vals.sum() == 0:
                continue
            g = D.grid(1, 41, 0.08, 1.0, vals)
            plate = B.PlateState(1, 0.08, rng.uniform(-0.5, 0.5, 1),
                                 rng.uniform(-1, 1, 2))
            h = B.cbf_value(g, plate, MODEL)
            top = B.max_energy(g, plate, MODEL)
            em = B.e_max(plate, MODEL)
            assert h + top == pytest.approx(em, abs=1e-12)

    def test_clf_delta_center(self):
        g = D.delta(1, 81, 0.08, 1.0, 0.0, 0.0)
        assert B.clf_value(g, flat_plate(), MODEL, 0.002) == pytest.approx(0.0)

    def test_clf_uniform_equal_energy(self):
        # two cells at (x, v=0) and (-x, v=0) share energy on a flat plate
        vals = np.zeros((81, 81))
        vals[30, 40] = vals[50, 40] = 0.5
        g = D.grid(1, 81, 0.08, 1.0, vals)
        x = g.x_axis[30]
        e0 = 0.5 * MODEL.k_ve * x * x
        v = B.clf_value(g, flat_plate(), MODEL, 0.002)
        assert v == pytest.approx(e0 - 0.002 * math.log(2))


class TestPropagateProb:
    def test_fixed_point_at_rest_center(self):
        g = D.delta(1, 81, 0.08, 1.0, 0.0, 0.0)
        out, lost = B.propagate_prob(g, flat_plate(), TB,
                                     no_uncertainty(1), 0.02)
        assert lost == 0.0
        assert np.array_equal(out.values, g.values)

    def test_zero_uncertainty_euler_step(self):
        g = D.delta(1, 81, 0.08, 1.0, 0.0, 0.1)
        plate = B.PlateState(1, 0.08, np.array([0.05]), np.zeros(2))
        out, _ = B.propagate_prob(g, plate, TB,
                                  no_uncertainty(1), 0.02)
        xs, vs, ps = out.support()
        assert len(ps) == 1
        mu, _ = B.accel_distribution(np.array([0.1]), plate, TB,
                                     no_uncertainty(1))
        x0, v0 = g.support()[0][0, 0], g.support()[1][0, 0]
        assert abs(xs[0, 0] - (x0 + 0.1 * 0.02)) <= out.x_step + 1e-12
        assert abs(vs[0, 0] - (v0 + mu[0] * 0.02)) <= out.v_step + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_normalization_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.random((41, 41)) * (rng.random((41, 41)) < 0.05)
        if vals.sum() == 0:
            return
        g = D.grid(1, 41, 0.08, 1.0, vals)
        plate = B.PlateState(1, 0.08, rng.uniform(-0.3, 0.3, 1),
                             rng.uniform(-1, 1, 2))
        unc = B.default_uncertainty(1)
        try:
            out, lost = B.propagate_prob(g, plate, TB, unc, 0.02)
        except B.AllMassLost:
            return
        assert abs(out.values.sum() - 1.0) <= 1e-9
        assert np.count_nonzero(out.values) > 0
        assert 0.0 <= lost <= 1.0

    def test_all_mass_lost_raises(self):
        g = D.delta(1, 81, 0.08, 1.0, 0.079, 1.0)
        with pytest.raises(B.AllMassLost):
            B.propagate_prob(g, flat_plate(), TB,
                             no_uncertainty(1), 0.5)

    def test_reads_accel_distribution(self, monkeypatch):
        g = D.delta(1, 81, 0.08, 1.0, 0.0, 0.0)
        rest, _ = B.propagate_prob(g, flat_plate(), TB, no_uncertainty(1), 0.02)
        model = B.accel_distribution

        def pushed(v, plate, ball, unc):
            mu, var = model(v, plate, ball, unc)
            return mu + 5.0, var

        monkeypatch.setattr(B, "accel_distribution", pushed)
        out, _ = B.propagate_prob(g, flat_plate(), TB, no_uncertainty(1), 0.02)
        # 5 m/s^2 over 0.02 s is four 0.025 m/s velocity cells
        assert np.array_equal(out.cells, rest.cells + [0, 4])

    def test_n2_normalization(self):
        g = B.ProbGrid.box(2, 11, 0.08, 1.0, -0.02, 0.02, -0.05, 0.05)
        plate = B.PlateState(2, 0.08, np.array([0.1, -0.05]), np.zeros(3))
        out, _ = B.propagate_prob(g, plate, TB,
                                  B.default_uncertainty(2), 0.02)
        assert abs(out.values.sum() - 1.0) <= 1e-9


class TestSupportMatchesDense:
    @pytest.mark.parametrize("n,N", [(1, 41), (2, 11)])
    def test_cage_terms_and_propagation(self, n, N):
        # the dense implementation the support-stored grid replaced, and on
        # the square plate the 4-D belief stepped and pruned as one; a wide
        # acceleration noise spreads each cell over several destinations so
        # that low tails are pruned, and cells near the box edge lose mass
        rng = np.random.default_rng(17)
        unc = B.UncertaintyModel(0.2, 25.0 * np.eye(n + 1), 1.0)
        pruned, lost_total, kept_more = 0, 0.0, 0
        for _ in range(20):
            planes = [rng.random((N, N)) * (rng.random((N, N)) < 0.1) for _ in range(n)]
            if not all(plane.any() for plane in planes):
                continue
            g = D.grid(n, N, 0.08, 1.0, D.product(*planes))
            plate = B.PlateState(n, 0.08, rng.uniform(-0.5, 0.5, n),
                                 rng.uniform(-1, 1, n + 1))
            assert abs(B.max_energy(g, plate, MODEL) - D.max_energy(g, plate, MODEL)) <= 1e-12
            assert abs(B.entropy(g) - D.entropy(g)) <= 1e-12
            assert abs(B.clf_value(g, plate, MODEL, 0.002)
                       - D.clf_value(g, plate, MODEL, 0.002)) <= 1e-12
            out, lost = B.propagate_prob(g, plate, TB, unc, 0.02)
            ref, ref_lost, ref_pruned = D.propagate(g, plate, TB, unc, 0.02)
            assert abs(lost - ref_lost) <= 1e-12
            if n == 1:
                assert np.array_equal(out.cells, np.argwhere(ref))
                assert np.abs(out.values - ref).max() <= 1e-12
            else:
                # pruned per axis, the support keeps every cell the 4-D step
                # keeps, and the corners that joint pruning drops
                assert np.all(out.values[ref > 0] > 0)
                kept_more += int(np.count_nonzero(out.values)) - int(np.count_nonzero(ref))
            pruned += ref_pruned
            lost_total += lost
        assert pruned > 0 and lost_total > 0
        assert (kept_more > 0) is (n == 2)


def _lie_derivatives(grid, plate, ball, unc, model, params):
    """lie_derivatives at the current barrier and Lyapunov values, as
    dynamic_control calls it."""
    h = B.cbf_value(grid, plate, model)
    V = B.clf_value(grid, plate, model, params.k_S)
    return B.lie_derivatives(grid, plate, ball, unc, model, params, h, V)


class TestLieDerivatives:
    def test_fixed_point_zero(self):
        g = D.delta(1, 81, 0.08, 1.0, 0.0, 0.0)
        params = B.ControlParams()
        Lf_h, Lg_h, Lf_V, Lg_V = _lie_derivatives(
            g, flat_plate(), TB, no_uncertainty(1), MODEL, params)
        assert abs(Lf_h) <= 1e-6
        assert abs(Lf_V) <= 1e-6

    def test_matches_manual_probes(self):
        setup = B.balancing_setup()
        plate = B.PlateState(1, 0.08, np.array([0.05]), np.zeros(2))
        params = setup.params
        got = _lie_derivatives(setup.grid, plate, setup.ball, setup.unc,
                               setup.model, params)

        def phi(u):
            tilt = plate.tilt + u * params.dt
            p2 = B.PlateState(1, plate.half_length, tilt, plate.accel)
            g2, _ = B.propagate_prob(setup.grid, p2,
                                     setup.ball, setup.unc, params.dt)
            return (B.cbf_value(g2, p2, setup.model),
                    B.clf_value(g2, p2, setup.model, params.k_S))

        e = np.array([params.eps])
        h0, V0 = phi(np.zeros(1))
        hp, Vp = phi(e)
        hm, Vm = phi(-e)
        h = B.cbf_value(setup.grid, plate, setup.model)
        V = B.clf_value(setup.grid, plate, setup.model, params.k_S)
        # central difference is odd: the same formula with probes swapped negates
        assert (hp - hm) == pytest.approx(-(hm - hp))
        assert got[0] == (h0 - h) / params.dt
        assert got[2] == (V0 - V) / params.dt
        assert got[1][0] == pytest.approx((hp - hm) / (2 * params.eps * params.dt))
        assert got[3][0] == pytest.approx((Vp - Vm) / (2 * params.eps * params.dt))

    def test_probe_halving_converged(self):
        setup = B.balancing_setup()
        plate = B.PlateState(1, 0.08, np.array([0.05]), np.zeros(2))
        l1 = _lie_derivatives(setup.grid, plate, setup.ball, setup.unc,
                              setup.model, setup.params)
        half = replace(setup.params, eps=setup.params.eps / 2.0)
        l2 = _lie_derivatives(setup.grid, plate, setup.ball, setup.unc,
                              setup.model, half)
        assert abs(l1[1][0]) > 1e-3
        assert abs(l2[1][0] - l1[1][0]) <= 0.05 * abs(l1[1][0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_probes_are_one_stacked_step(self, n, monkeypatch):
        # the 2n+1 probes are one call of the belief-step kernel, under the
        # three tilts one step of the rates 0, +eps and -eps reaches on each
        # axis
        setup = B.balancing_setup(n=n, N=31)
        plate = B.PlateState(n, 0.08, np.full(n, 0.05), np.zeros(n + 1))
        calls = []
        kernel = B._step_beliefs

        def counted(grid, tilt, *args):
            calls.append(tilt)
            return kernel(grid, tilt, *args)

        monkeypatch.setattr(B, "_step_beliefs", counted)
        for name in ("ball_step", "propagate_prob"):
            monkeypatch.setattr(B, name, None)  # the probes step through neither
        _lie_derivatives(setup.grid, plate, setup.ball, setup.unc, setup.model, setup.params)
        assert len(calls) == 1
        eps, dt = setup.params.eps, setup.params.dt
        assert np.array_equal(calls[0], plate.tilt + np.array([[0.0], [eps], [-eps]]) * dt)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _config_run(name):
    setup, traj, _ = config.build_ball(config.load_config(str(CONFIGS / f"{name}.yaml")))
    return setup, traj


def _square_run():
    # balancing_setup n=2, N=31, under a plate that circles in the plane,
    # so that every probe's plate has a nonzero a_eff on both axes
    setup = B.balancing_setup(n=2, N=31)
    t = np.arange(26) * setup.params.dt
    phase = 2.0 * np.pi * t / 0.5
    return setup, np.column_stack([0.01 * np.sin(phase), 0.01 * (1.0 - np.cos(phase)),
                                   np.zeros_like(t)])


def _spread_square_run():
    # the same plate under an off-centre belief of several cells per axis,
    # which moves across the grid while the planner tilts the plate
    setup, traj = _square_run()
    grid = B.ProbGrid.box(2, 31, 0.08, 1.0, [-0.012, 0.0], [0.012, 0.02], [-0.1, 0.05],
                          [0.1, 0.2])
    return replace(setup, grid=grid), traj


PLANNED_RUNS = {
    "ball_lemniscate": lambda: _config_run("ball_lemniscate"),  # balancing_setup n=1, N=81
    "ball_catch": lambda: _config_run("ball_catch"),
    "ball_rice": lambda: _config_run("ball_rice"),
}


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, B.AllMassLost) as e:
        return type(e), str(e)


def _same(got, ref) -> bool:
    """Bit for bit: equal values of equal types, arrays elementwise."""
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        return got == ref
    return all(type(g) is type(r) and np.array_equal(g, r) for g, r in zip(got, ref, strict=True))


def _same_step(got, ref) -> bool:
    """Two ``propagate_prob`` outcomes, bit for bit."""
    if isinstance(ref[0], type):
        return got == ref
    return (np.array_equal(got[0].cells, ref[0].cells) and np.array_equal(got[0].p, ref[0].p)
            and got[1] == ref[1])


@pytest.fixture(scope="module", params=list(PLANNED_RUNS))
def stacked_and_reference(request):
    """One planned run under the stacked probes, with every probe and every
    taken step checked against the per-probe reference at the state it was
    taken from, and the same run planned by the reference alone."""
    setup, traj = PLANNED_RUNS[request.param]()
    args = (setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params,
            setup.initial_tilt)
    lie, prop = B.lie_derivatives, B.propagate_prob
    probe_misses, step_misses = [], []

    def checked_lie(*a):
        got = lie(*a)
        if not _same(got, R.lie_derivatives(*a)):
            probe_misses.append(a)
        return got

    def checked_prop(*a):
        got = prop(*a)
        if not _same_step(got, R.propagate_prob(*a)):
            step_misses.append(a)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B, "lie_derivatives", checked_lie)
        mp.setattr(B, "propagate_prob", checked_prop)
        stacked = B.dynamic_control(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B, "lie_derivatives", R.lie_derivatives)
        mp.setattr(B, "propagate_prob", R.propagate_prob)
        reference = B.dynamic_control(*args)
    return request.param, stacked, reference, probe_misses, step_misses


class TestStackedProbes:
    """The stacked probes against ``probe_reference``, the per-probe loop
    they replaced: every probe's barrier and Lyapunov value, and so the Lie
    derivatives, the plans and the run logs, are the same to the bit."""

    def test_lie_derivatives_match_reference_along_plans(self, stacked_and_reference):
        name, (_, _, log), _, probe_misses, step_misses = stacked_and_reference
        assert len(log.records) > 10, name
        assert probe_misses == [], name
        assert step_misses == [], name

    def test_runlog_matches_reference(self, stacked_and_reference):
        name, (plan, result, log), (ref_plan, ref_result, ref_log), *_ = stacked_and_reference
        assert plan == ref_plan and result == ref_result, name
        assert log.warnings == ref_log.warnings, name
        assert len(log.records) == len(ref_log.records), name
        for rec, ref in zip(log.records, ref_log.records):
            assert rec.keys() == ref.keys()
            for key in ref:
                assert rec[key] == ref[key] and type(rec[key]) is type(ref[key]), (name, key)

    def test_random_states_match_reference(self):
        # n = 1 and n = 2, spread beliefs, tilted and accelerated plates,
        # correlated plate noise and probes from 0.01 to 10 rad/s; the
        # square plate's draws against the 4-D reference
        rng = np.random.default_rng(5)
        for i in range(60):
            n = 2 if i % 3 == 0 else 1
            N = 31 if n == 2 else 81
            A = rng.normal(0.0, 0.3, (n + 1, n + 1))
            unc = B.UncertaintyModel(rng.uniform(0.0, 0.2), A @ A.T, rng.uniform(0.0, 0.3))
            ball = B.BallParams(0.058, 0.0335, rng.uniform(0.2, 0.8) * 0.058 * 0.0335**2,
                                rng.uniform(0.0, 1.0))
            x0, v0, dv = rng.uniform(-0.05, 0.05), rng.uniform(-0.5, 0.5), 0.04 * (81 // N)
            g = B.ProbGrid.box(n, N, 0.08, 1.0, x0 - 0.006, x0 + 0.006, v0 - dv, v0 + dv)
            plate = B.PlateState(n, 0.08, rng.uniform(-1.3, 1.3, n), rng.normal(0.0, 2.0, n + 1))
            params = B.ControlParams(eps=float(rng.choice([0.01, 2.0, 10.0])))
            h = B.cbf_value(g, plate, MODEL)
            V = B.clf_value(g, plate, MODEL, params.k_S)
            if n == 2:
                args = (g, plate, ball, unc, MODEL, params, h, V)
                assert _dense_misses(*args[:6])[0] == []
                assert _same(_outcome(B.lie_derivatives, *args),
                             _outcome(_single_step_probes, *args))
                continue
            assert h == R.e_max(plate, MODEL) - R.max_energy(g, plate, MODEL)
            assert V == R.clf_value(g, plate, MODEL, params.k_S)
            args = (g, plate, ball, unc, MODEL, params, h, V)
            assert _same(_outcome(B.lie_derivatives, *args), _outcome(R.lie_derivatives, *args))
            step = (g, plate, ball, unc, 0.02)
            assert _same_step(_outcome(B.propagate_prob, *step), _outcome(R.propagate_prob, *step))


@pytest.fixture(scope="module", params=["square", "square_spread"])
def square_run(request):
    """A square-plate run planned with the stacked probes, every probe and
    every taken step checked against the 4-D reference and every probe
    against its own single step, and the same run planned with each probe
    stepped on its own."""
    setup, traj = {"square": _square_run, "square_spread": _spread_square_run}[request.param]()
    args = (setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params,
            setup.initial_tilt)
    lie = B.lie_derivatives
    probe_misses, dense_misses, equal = [], [], []

    def checked_lie(*a):
        got = lie(*a)
        if not _same(got, _single_step_probes(*a)):
            probe_misses.append(a)
        misses, eq = _dense_misses(*a[:6])
        dense_misses.extend(misses)
        equal.append(eq)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B, "lie_derivatives", checked_lie)
        stacked = B.dynamic_control(*args)
    # each taken step, from the belief before it under the plate it stepped to
    _, steps = _replay(setup, traj, stacked[0])
    before = setup.grid
    for grid, plate, _, _ in steps:
        dense_misses.extend(_dense_step_misses(before, plate, setup.ball, setup.unc, setup.model,
                                               setup.params.dt)[0])
        before = grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B, "lie_derivatives", _single_step_probes)
        single = B.dynamic_control(*args)
    return stacked, single, probe_misses, dense_misses, equal


class TestSquarePlate:
    """The square plate's per-axis belief along a run under a plate that
    circles in the plane: each probe is its own single step to the bit, and
    every probe and taken step holds the cells of the 4-D belief stepped and
    pruned as one, with its lost mass and, where the supports agree, its
    masses and cage terms to 1e-12."""

    def test_probes_and_steps_match_dense_reference_along_run(self, square_run):
        (_, _, log), _, probe_misses, dense_misses, equal = square_run
        assert len(log.records) > 10
        assert probe_misses == []
        assert dense_misses == []
        # the 1e-12 checks ran: most probes keep the 4-D support exactly
        assert sum(equal) > 0.8 * 5 * len(equal)

    def test_runlog_matches_single_step_probes(self, square_run):
        (plan, result, log), (ref_plan, ref_result, ref_log), *_ = square_run
        assert plan == ref_plan and result == ref_result
        assert log.warnings == ref_log.warnings
        assert len(log.records) == len(ref_log.records)
        for rec, ref in zip(log.records, ref_log.records):
            assert rec.keys() == ref.keys()
            for key in ref:
                assert rec[key] == ref[key] and type(rec[key]) is type(ref[key]), key


def _edge_probes(n, eps, v_max, v_lo, v_hi, tilt):
    """A grid at rest in position on a flat-accelerated plate of tilt, and
    the control parameters whose probe is eps."""
    N = 81 if n == 1 else 31
    g = B.ProbGrid.box(n, N, 0.08, v_max, -0.003, 0.003, v_lo, v_hi)
    plate = B.PlateState(n, 0.08, np.asarray(tilt, float), np.zeros(n + 1))
    return g, plate, B.ControlParams(eps=eps)


def _probe_rates(n, eps):
    """The tilt rates of the 2n+1 probes, in probe order."""
    rates = [np.zeros(n)]
    for d in range(n):
        e = np.zeros(n)
        e[d] = eps
        rates += [e, -e]
    return rates


def _probe_outcomes(g, plate, params):
    """Each probe of the reference on its own, in probe order: the per-probe
    loop on the line, the 4-D reference on the square plate."""
    n = plate.n
    probe = R.probe if n == 1 else D.probe
    return [_outcome(probe, g, plate, u, TB, B.default_uncertainty(n), MODEL, params)
            for u in _probe_rates(n, params.eps)]


def _single_step_probes(grid, plate, ball, unc, model, params, h, V):
    """``lie_derivatives`` with each probe stepped on its own by
    ``ball.ball_step``, as the per-probe loop did."""
    hs, Vs = [], []
    for u in _probe_rates(plate.n, params.eps):
        g, p, rec = B.ball_step(grid, plate, u, ball, unc, model, params.dt)
        hs.append(rec["E_max"] - rec["max_E"])
        Vs.append(B.clf_value(g, p, model, params.k_S))
    dt, eps = params.dt, params.eps
    Lg_h = np.array([(hs[1 + 2 * d] - hs[2 + 2 * d]) / (2.0 * eps * dt) for d in range(plate.n)])
    Lg_V = np.array([(Vs[1 + 2 * d] - Vs[2 + 2 * d]) / (2.0 * eps * dt) for d in range(plate.n)])
    return (hs[0] - h) / dt, Lg_h, (Vs[0] - V) / dt, Lg_V


def _dense_step_misses(grid, plate, ball, unc, model, dt):
    """How one per-axis step of a square-plate belief differs from the 4-D
    step: the outcome, the lost mass, any cell the 4-D step keeps and the
    per-axis one does not, and, where both keep the same cells, the masses
    and the cage terms of the stepped belief. Returns (misses, 1 if the
    supports are equal else 0)."""
    got = _outcome(B.propagate_prob, grid, plate, ball, unc, dt)
    ref = _outcome(D.propagate, grid, plate, ball, unc, dt)
    if isinstance(got[0], type) or isinstance(ref[0], type):
        return ([] if got == ref else [("outcome", got, ref)]), 0
    (out, lost), (vals, ref_lost, _) = got, ref
    misses = []
    if abs(lost - ref_lost) > 1e-12:
        misses.append(("lost_mass", lost, ref_lost))
    kept = out.values > 0
    if np.any((vals > 0) & ~kept):
        misses.append(("dropped a 4-D cell",))
    if not np.array_equal(kept, vals > 0):
        return misses, 0
    E = D.energy_field(grid, plate, model)
    for name, a, b in (("masses", np.abs(out.values - vals).max(), 0.0),
                       ("max_energy", B.max_energy(out, plate, model), D._max_energy(vals, E)),
                       ("entropy", B.entropy(out), D._entropy(vals)),
                       ("clf_value", B.clf_value(out, plate, model, 0.002),
                        D._clf_value(vals, E, 0.002))):
        if abs(a - b) > 1e-12:
            misses.append((name, a, b))
    return misses, 1


def _dense_misses(grid, plate, ball, unc, model, params):
    """How a square-plate state and its 2n+1 probe steps differ from the 4-D
    reference: the cage terms of the state, then ``_dense_step_misses`` of
    each probe. Returns (misses, probes whose supports are equal)."""
    misses, equal = [], 0
    for name, a, b in (("max_energy", B.max_energy(grid, plate, model),
                        D.max_energy(grid, plate, model)),
                       ("entropy", B.entropy(grid), D.entropy(grid)),
                       ("clf_value", B.clf_value(grid, plate, model, params.k_S),
                        D.clf_value(grid, plate, model, params.k_S))):
        if abs(a - b) > 1e-12:
            misses.append((name, a, b))
    for u in _probe_rates(plate.n, params.eps):
        try:
            probe = replace(plate, tilt=plate.tilt + u * params.dt)
        except ValueError:  # the probe fails on its tilt before it steps
            continue
        step_misses, eq = _dense_step_misses(grid, probe, ball, unc, model, params.dt)
        misses += step_misses
        equal += eq
    return misses, equal


class TestOneProbeFails:
    """A stack in which exactly one probe fails fails as that probe's own
    step does, and a probe fails before any later one."""

    # the +eps probe (tilt 0.1 rad) speeds the belief out of the 0.02 m/s
    # velocity box; at rest and under -eps it stays inside
    LOST = dict(n=1, eps=5.0, v_max=0.02, v_lo=0.0145, v_hi=0.0155, tilt=[0.0])

    def test_one_probe_losing_all_mass_raises(self):
        g, plate, params = _edge_probes(**self.LOST)
        outcomes = _probe_outcomes(g, plate, params)
        lost = (B.AllMassLost, "all probability mass left the state box")
        assert [o == lost for o in outcomes] == [False, True, False]
        with pytest.raises(B.AllMassLost, match="all probability mass left the state box"):
            _lie_derivatives(g, plate, TB, B.default_uncertainty(1), MODEL, params)

    def test_dynamic_control_records_the_lost_probe_as_the_reference_does(self, monkeypatch):
        g, plate, params = _edge_probes(**self.LOST)
        args = (g, np.zeros((4, 2)), TB, B.default_uncertainty(1), MODEL, params, plate.tilt)
        plan, result, log = B.dynamic_control(*args)
        monkeypatch.setattr(B, "lie_derivatives", R.lie_derivatives)
        monkeypatch.setattr(B, "propagate_prob", R.propagate_prob)
        ref_plan, ref_result, ref_log = B.dynamic_control(*args)
        assert result == ref_result == VerificationResult(False, 0, FailureReason.AllMassLost)
        assert plan == ref_plan == ()
        assert log.records == ref_log.records

    def test_one_probe_tilt_at_right_angle_raises(self):
        # from 0.01 rad below pi/2 the +eps probe's tilt passes pi/2
        g, plate, params = _edge_probes(1, 1.0, 1.0, -0.01, 0.01, [math.pi / 2 - 0.01])
        outcomes = _probe_outcomes(g, plate, params)
        tilt = (ValueError, "tilt magnitude must stay below pi/2")
        assert [o == tilt for o in outcomes] == [False, True, False]
        with pytest.raises(ValueError, match="tilt magnitude must stay below pi/2"):
            _lie_derivatives(g, plate, TB, B.default_uncertainty(1), MODEL, params)

    def test_the_first_failing_probe_decides(self):
        # n = 2: the +eps probe on axis 0 loses the belief, which sits at the
        # top of the velocity box on axis 0; the later +eps probe on axis 1
        # passes pi/2. The probes ran in order, so the lost mass is raised.
        g, plate, params = _edge_probes(2, 15.0, 0.2, [0.185, -0.11], [0.2, -0.09], [0.0, 1.45])
        outcomes = _probe_outcomes(g, plate, params)
        assert [o if isinstance(o[0], type) else None for o in outcomes] == [
            None, (B.AllMassLost, "all probability mass left the state box"), None,
            (ValueError, "tilt magnitude must stay below pi/2"), None]
        with pytest.raises(B.AllMassLost):
            _lie_derivatives(g, plate, TB, B.default_uncertainty(2), MODEL, params)


class TestDynamicControl:
    def test_stationary_delta_all_zero_rates(self):
        g = D.delta(1, 81, 0.08, 1.0, 0.0, 0.0)
        traj = np.zeros((26, 2))
        setup = B.balancing_setup()
        plan, result, log = B.dynamic_control(
            g, traj, setup.ball, no_uncertainty(1), setup.model,
            setup.params, np.zeros(1))
        assert result.success
        assert all(np.allclose(a.dtheta, 0.0) for a in plan)
        assert all(r["contained"] for r in log.records)
        assert all(r["max_E"] < r["E_max"] for r in log.records)

    def test_replay_through_verifier(self, balance_run):
        setup, traj, plan, result, _ = balance_run
        assert result.success
        assert _verified(setup, plan, traj).success

    def test_replay_applies_tilt_range_fold(self):
        # from 1.565 rad, past tilt_max, the planner's rule admits no positive rate
        setup = B.balancing_setup()
        replay = _verified(setup, [TiltRate.of([0.5])], np.zeros((2, 2)), np.array([1.565]))
        assert replay == VerificationResult(False, 0, FailureReason.InfeasibleAction)

    def test_replay_reports_all_mass_lost(self):
        # a slew-limited ramp to 4 rad/s drives the whole belief out of a
        # 0.02 m/s velocity box
        setup = B.balancing_setup(v_max=0.02)
        plan = [TiltRate.of([0.5 * (t + 1)]) for t in range(8)]
        replay = _verified(setup, plan, np.zeros((9, 2)))
        assert not replay.success
        assert replay.failure_reason is FailureReason.AllMassLost

    def test_replay_rejects_a_plan_longer_than_its_path(self):
        setup = B.balancing_setup()
        zero = TiltRate.of([0.0])
        with pytest.raises(ValueError, match="plan of 10 steps is longer than its 1-step path"):
            _verified(setup, [zero] * 10, np.zeros((2, 2)))
        # a shorter plan, such as a failed plan of the planner, replays as its prefix
        assert _verified(setup, [zero], np.zeros((11, 2))).success

    def test_wide_velocity_spread_infeasible_at_low_slew(self):
        setup = B.catching_setup(0.8, 0.5, beta_max=5.0)
        _, traj, plan, result, _ = _planned(setup, setup.trajectory(3.0))
        assert not result.success
        assert result.failure_reason is FailureReason.InfeasibleAction
        # the plan ends before the failing step and replays as planned
        assert len(plan) == result.failure_step
        assert _verified(setup, plan, traj).success

    def test_zero_slew_bound_fails_immediately(self):
        setup = B.catching_setup(0.8, 0.05, beta_max=0.0)
        *_, result, _ = _planned(setup, setup.trajectory(3.0))
        assert not result.success
        assert result.failure_step == 0

    @pytest.mark.parametrize("beta_max", [-1.0, float("nan")])
    def test_slew_bound_must_be_nonnegative(self, beta_max):
        with pytest.raises(ValueError, match=f"beta_max must be nonnegative, got {beta_max}"):
            B.ControlParams(beta_max=beta_max)

    @pytest.mark.parametrize("dv,beta_max", [(0.05, 25.0), (0.5, 5.0)])
    def test_one_lie_derivatives_call_per_step_one_propagation_per_taken_step(
            self, dv, beta_max, monkeypatch):
        # the benchmark's step clock and tracer replace ball.lie_derivatives
        # and ball.propagate_prob, so the planner and the replay must look
        # them up there; the second catch fails, so its last step is not taken
        setup = B.catching_setup(0.8, dv, beta_max=beta_max)
        calls = {"lie_derivatives": 0, "propagate_prob": 0}
        for name in calls:
            real = getattr(B, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(B, name, counted)
        _, traj, plan, result, log = _planned(setup, setup.trajectory(3.0))
        assert result.success is (beta_max == 25.0)
        assert calls == {"lie_derivatives": len(log.records), "propagate_prob": len(plan)}
        calls.update(lie_derivatives=0, propagate_prob=0)
        assert len(list(_replay(setup, traj, plan)[1])) == len(plan)
        assert calls == {"lie_derivatives": 0, "propagate_prob": len(plan)}

    def test_runlog_fields(self):
        g = D.delta(1, 81, 0.08, 1.0, 0.0, 0.0)
        setup = B.balancing_setup()
        _, _, log = B.dynamic_control(
            g, np.zeros((6, 2)), setup.ball, setup.unc, setup.model,
            setup.params, np.zeros(1))
        rec = log.records[0]
        for key in ("t", "action", "contained", "pss_cells", "cage_center",
                    "E_max", "max_E", "h", "V", "entropy", "lost_mass", "dtheta",
                    "qp_active"):
            assert key in rec

    def test_runlog_names_the_active_constraints(self, catch_run):
        # the zero rate is returned with no active row; any other rate is
        # pinned by at least one named row
        *_, log = catch_run
        names = set(qpmod.row_names(1))
        for rec in log.records:
            assert set(rec["qp_active"]) <= names
            if rec["dtheta"] != [0.0]:
                assert rec["qp_active"]
        assert any(rec["qp_active"] == [] for rec in log.records)


def _planned(setup, traj):
    plan, result, log = B.dynamic_control(
        setup.grid, traj, setup.ball, setup.unc, setup.model, setup.params,
        setup.initial_tilt)
    return setup, traj, plan, result, log


def _verified(setup, plan, traj, initial_tilt=None):
    tilt = setup.initial_tilt if initial_tilt is None else initial_tilt
    return B.verify_ball_plan(setup.grid, plan, traj, setup.ball, setup.unc, setup.model,
                              setup.params, tilt)


@pytest.fixture(scope="module")
def catch_run():
    setup = B.catching_setup(0.8, 0.05)
    return _planned(setup, setup.trajectory(3.0))


@pytest.fixture(scope="module")
def balance_run():
    return _planned(B.balancing_setup(), np.zeros((51, 2)))


def _replay(setup, traj, plan):
    """The ball replay of a plan under the planner's schedule accels[t]."""
    accels = B.trajectory_accels(traj, setup.params.dt)
    return accels, B.replay(setup.grid, plan, accels, setup.ball, setup.unc, setup.model,
                            setup.params, setup.initial_tilt)


class TestStepKernel:
    @pytest.mark.parametrize("task", ["balance", "catch"])
    def test_kernel_replay_reproduces_runlog(self, task, balance_run, catch_run):
        setup, traj, plan, result, log = balance_run if task == "balance" else catch_run
        assert (len(plan) == 50) if task == "balance" else any(a.dtheta != (0.0,) for a in plan)
        assert result.success
        accels, steps = _replay(setup, traj, plan)
        for t, ((grid, plate, step_rec, failure), rec) in enumerate(
                zip(steps, log.records, strict=True)):
            assert failure is None
            assert step_rec == {key: rec[key] for key in step_rec}
            assert plate.tilt.tolist() == rec["tilt"]
            assert np.array_equal(plate.accel, accels[t])
            assert int(np.count_nonzero(grid.values)) == rec["pss_cells"]

    @pytest.mark.parametrize("task", ["balance", "catch"])
    def test_replay_under_planner_schedule_gives_planner_verdict(
            self, task, balance_run, catch_run):
        # the catch defect lies only in verify_ball_plan's shifted schedule:
        # the same replay under accels[t] agrees with the planner
        setup, traj, plan, result, _ = balance_run if task == "balance" else catch_run
        _, steps = _replay(setup, traj, plan)
        assert verify_caging_in_time(f for *_, f in steps) == result

    @pytest.mark.xfail(
        strict=True,
        reason="verify_ball_plan steps step t under accels[t+1], one step ahead of the "
               "planner's accels[t]; at the retreat's braking edge this reports a false "
               "EscapedCage at step 35 of the catch",
    )
    def test_replay_agrees_with_planner_on_catch(self, catch_run):
        setup, traj, plan, result, _ = catch_run
        replay = B.verify_ball_plan(setup.grid, plan, traj, setup.ball, setup.unc,
                                    setup.model, setup.params, setup.initial_tilt)
        assert replay == result


class TestTaskSetups:
    def test_catching_retreat_stops_nominal_ball(self):
        setup = B.catching_setup(0.8, 0.05)
        accel, t_brake = setup.retreat
        # ball-frame deceleration kappa*|accel| over t_brake cancels v_center
        assert TB.kappa * abs(accel) * t_brake == pytest.approx(0.8)
        assert accel < 0  # retreat moves along the incoming direction

    def test_trajectory_shapes(self):
        setup = B.balancing_setup()
        path = setup.trajectory(1.0)
        assert path.shape == (51, 2)
        assert np.allclose(path, 0.0)
        catch = B.catching_setup(0.8, 0.05)
        ramp = catch.trajectory(1.0)[:, 0]
        assert ramp[0] == 0.0 and not np.allclose(ramp, 0.0)

    def test_trajectory_accels_second_difference(self):
        t = np.arange(6) * 0.02
        path = np.column_stack([0.5 * 3.0 * t**2, np.zeros(6)])
        acc = B.trajectory_accels(path, 0.02)
        assert np.allclose(acc[1:-1, 0], 3.0, atol=1e-9)
