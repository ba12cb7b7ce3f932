import math

import numpy as np
import pytest

from trinoids import weierstrass as W
from trinoids.surfaces import (
    BallPoint,
    CurvatureEstimate,
    Model,
    UpperHalfSpacePoint,
    ball_to_halfspace,
    catenoid_cousin_point,
    catenoid_point,
    cousin_period,
    gauss_normal_from_g,
    halfspace_to_ball,
    helicoid_point,
    mean_curvature_estimate,
    surface_grid,
)

PI = math.pi


class TestHelicoid:
    def test_axis_and_ruling_values(self):
        for lam in (0.3, -0.2, 2.0):
            for y in (0.0, 1.3, -2.0):
                assert np.allclose(helicoid_point(lam, 0.0, y), [0, 0, -2 * lam * y])
            for x in (0.5, -1.0):
                assert np.allclose(
                    helicoid_point(lam, x, 0.0), [0, -2 * lam * math.sinh(x), 0]
                )

    def test_point_value(self):
        p = helicoid_point(1.0, 1.0, PI / 2)
        assert p == pytest.approx([2 * math.sinh(1.0), 0.0, -PI], abs=1e-12)

    def test_rulings_are_straight(self):
        for lam in (0.7, -0.15):
            for y in (0.4, 2.9, -1.0):
                a, b, c = (helicoid_point(lam, x, y) for x in (-1.0, 0.0, 1.0))
                cross = np.cross(b - a, c - a)
                scale = max(np.linalg.norm(b - a), np.linalg.norm(c - a))
                assert np.linalg.norm(cross) < 1e-12 * scale**2

    def test_domain(self):
        with pytest.raises(ValueError):
            helicoid_point(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            helicoid_point(-0.3, 1.0, 1.0)


class TestCatenoid:
    # expected values computed with the independent quadrature engine
    def test_against_quadrature_oracle(self):
        lam = 0.8
        data = W.catenoid_data(lam)
        base = np.array([-2 * lam, 0.0, 0.0])  # chosen image of 0
        for z in (0j, 1j * PI, 0.7 + 0j, -1.2 + 0.4j):
            disp = W.integrate(data, 0.0, [z], 1e-11)[0]
            want = catenoid_point(lam, z.real, z.imag)
            assert np.allclose(base + disp, want, atol=1e-9)

    def test_frozen_values(self):
        lam = 0.8
        assert np.allclose(catenoid_point(lam, 0.0, 0.0), [-2 * lam, 0, 0])
        assert np.allclose(catenoid_point(lam, 0.0, PI), [2 * lam, 0, 0], atol=1e-15)
        x = 1.7
        assert np.allclose(
            catenoid_point(lam, x, 0.0), [-2 * lam * math.cosh(x), 0, 2 * lam * x]
        )


class TestCousin:
    def test_waist_circle(self):
        lam = 0.75  # a = 2
        for y in (0.0, 0.7, 2.0):
            u, v, w = catenoid_cousin_point(lam, 0.0, y)
            assert complex(u, v) == pytest.approx(-0.6 * np.exp(2j * y), abs=1e-14)
            assert w == pytest.approx(0.8, abs=1e-14)
            assert u * u + v * v + w * w == pytest.approx(1.0, abs=1e-13)

    def test_waist_sphere_identity(self):
        rng = np.random.default_rng(0)
        for lam in rng.uniform(-0.24, 4.0, 50):
            if abs(lam) < 1e-3:
                continue
            a = math.sqrt(1 + 4 * lam)
            u, v, w = catenoid_cousin_point(lam, 0.0, rng.uniform(0, 2 * PI))
            expected = (4 * lam**2 + a**2) / (1 + 2 * lam) ** 2
            assert u * u + v * v + w * w == pytest.approx(expected, rel=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            lam = rng.uniform(-0.24, 4.0)
            if abs(lam) < 1e-3:
                continue
            x = rng.uniform(-5, 5)
            y = rng.uniform(-2 * PI, 2 * PI)
            p1 = catenoid_cousin_point(lam, x, y)
            p2 = catenoid_cousin_point(lam, x, y + cousin_period(lam))
            assert np.linalg.norm(p1 - p2) <= 1e-12 * (1.0 + np.linalg.norm(p1))

    def test_w_positive_far_out(self):
        for lam in (-0.2, 0.5, 0.75, 2.0, 3.0):
            xs = np.linspace(-30, 30, 121)
            ys = np.linspace(0, cousin_period(lam), 32, endpoint=False)
            pts = catenoid_cousin_point(lam, xs[:, None], ys[None, :])
            assert np.all(pts[..., 2] > 0)


class TestModelMaps:
    def test_anchor(self):
        assert np.allclose(halfspace_to_ball([0.0, 0.0, 1.0]), [0, 0, 0], atol=1e-15)
        assert np.allclose(ball_to_halfspace([0.0, 0.0, 0.0]), [0, 0, 1], atol=1e-15)

    def test_symmetry_plane_anchor(self):
        # {v = 0} of the half-space maps into the equatorial plane {x3 = 0}
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = [rng.uniform(-3, 3), 0.0, rng.uniform(0.01, 5.0)]
            assert abs(halfspace_to_ball(p)[2]) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(1e-3, 8)])
            q = ball_to_halfspace(halfspace_to_ball(p))
            assert np.allclose(q, p, rtol=1e-12, atol=1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(4)

        def dist_hs(p, q):
            return math.acosh(1 + np.sum((p - q) ** 2) / (2 * p[2] * q[2]))

        def dist_ball(p, q):
            return math.acosh(
                1 + 2 * np.sum((p - q) ** 2) / ((1 - p @ p) * (1 - q @ q))
            )

        for _ in range(100):
            p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 4)])
            q = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 4)])
            d1 = dist_hs(p, q)
            d2 = dist_ball(halfspace_to_ball(p), halfspace_to_ball(q))
            assert d1 == pytest.approx(d2, rel=1e-10, abs=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            halfspace_to_ball([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            ball_to_halfspace([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            UpperHalfSpacePoint(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BallPoint(0.8, 0.6, 0.0)

    def test_point_wrappers(self):
        p = UpperHalfSpacePoint(0.3, -0.2, 1.4)
        assert np.allclose(p.to_ball().to_halfspace().as_array(), p.as_array(), atol=1e-14)


class TestGaussNormal:
    def test_fixed_points(self):
        assert np.allclose(gauss_normal_from_g(0j), [0, 0, -1])
        assert np.allclose(gauss_normal_from_g(complex("inf")), [0, 0, 1])
        n = gauss_normal_from_g(np.exp(0.4j))
        assert abs(n[2]) < 1e-15 and np.linalg.norm(n) == pytest.approx(1.0)


class TestMeanCurvature:
    def test_minimal_surfaces(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = rng.uniform(-1.5, 1.5, 2)
            for lam, fn in ((0.6, catenoid_point), (0.6, helicoid_point), (-0.2, helicoid_point)):
                est = mean_curvature_estimate(
                    lambda a, b: fn(lam, a, b), Model.EUCLIDEAN, x, y, step=1e-3
                )
                assert abs(est.value) < 1e-5

    def test_cousin_is_cmc_one(self):
        rng = np.random.default_rng(6)
        for lam in (0.75, 2.0, -0.2):
            for _ in range(8):
                x = rng.uniform(-2, 2)
                y = rng.uniform(0, 2 * PI)
                est = mean_curvature_estimate(
                    lambda a, b: catenoid_cousin_point(lam, a, b),
                    Model.UPPER_HALF_SPACE,
                    x,
                    y,
                    step=1e-3,
                )
                assert est.value == pytest.approx(1.0, abs=1e-3)

    def test_horosphere(self):
        est = mean_curvature_estimate(
            lambda a, b: np.array([a, b, 2.0]), Model.UPPER_HALF_SPACE, 0.1, -0.3
        )
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_step_warning(self):
        est = mean_curvature_estimate(
            lambda a, b: catenoid_point(0.6, a, b), Model.EUCLIDEAN, 0.0, 0.0, step=0.5
        )
        assert isinstance(est, CurvatureEstimate)
        assert est.warning is not None
        with pytest.raises(ValueError):
            mean_curvature_estimate(
                lambda a, b: catenoid_point(0.6, a, b), Model.EUCLIDEAN, 0, 0, step=-1.0
            )


class TestSurfaceGrid:
    def test_grids_validate(self):
        xs = np.linspace(-2, 2, 9)
        ys = np.linspace(-PI, PI, 9)
        for kind in ("helicoid", "catenoid"):
            g = surface_grid(kind, 0.8, xs, ys)
            g.validate()
            assert g.positions.shape == (9, 9, 3)
        g = surface_grid("cousin", 0.75, xs, np.linspace(0, PI, 7))
        g.validate()
        assert np.all(g.positions[..., 2] > 0)

    def test_ball_grid_inside_sphere(self):
        g = surface_grid("cousin", 0.75, np.linspace(-1, 1, 7), np.linspace(0, 1, 5),
                         ball_model=True)
        assert np.all(np.linalg.norm(g.positions, axis=-1) < 1.0)
        assert g.model is Model.BALL

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            surface_grid("plane", 0.5, [0, 1], [0, 1])

    def test_helicoid_matches_quadrature_small_grid(self):
        lam = 0.5
        data = W.helicoid_data(lam)
        xs = np.linspace(-1.5, 1.5, 5)
        ys = np.linspace(-2.0, 2.0, 5)
        diffs = []
        for x in xs:
            for y in ys:
                got = W.integrate(data, 0.0, [complex(x, y)], 1e-10)[0]
                diffs.append(got - helicoid_point(lam, x, y))
        diffs = np.array(diffs)
        translation = diffs.mean(axis=0)
        assert np.abs(diffs - translation).max() < 1e-8
        assert np.abs(translation).max() < 1e-8
