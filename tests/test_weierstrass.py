import cmath
import math

import numpy as np
import pytest

import oracles
from oracles import IntegrationPath, Route, branch_arg, branch_power, correction_integral
from trinoids.surfaces import gauss_normal_from_g
from trinoids.weierstrass import (
    ExponentialData,
    PowerEndData,
    branch_log,
    catenoid_data,
    conjugate_data,
    correction_bound,
    data_from_json,
    data_to_json,
    gauss_normal,
    g_value,
    helicoid_data,
    integrate,
    is_symmetric,
    power_end_data,
    principal_log_coefficient,
)

PI = math.pi


def random_power_end(rng, scale=0.05):
    alpha = rng.choice([1 / 3, 0.5, 2 / 3, 1.5, 2.4])
    g0 = rng.uniform(0.5, 2.0)
    g1 = tuple(rng.uniform(-scale, scale, rng.integers(0, 3)))
    w1 = tuple(rng.uniform(-scale, scale, rng.integers(0, 3)))
    return power_end_data(alpha, g0=g0, g1=g1, w1=w1)


class TestBranch:
    def test_cut_location(self):
        assert branch_arg(1.0) == 0.0
        assert branch_arg(1j) == pytest.approx(PI / 2)
        assert branch_arg(-1.0) == pytest.approx(PI)
        # just past the negative real axis stays continuous
        assert branch_arg(complex(-1.0, -1e-12)) == pytest.approx(PI, abs=1e-9)
        # the cut sits on the negative imaginary axis; its lower edge is taken
        assert branch_arg(-1j) == pytest.approx(-PI / 2)
        assert branch_arg(complex(-1e-12, -1.0)) == pytest.approx(3 * PI / 2, abs=1e-9)

    def test_powers(self):
        assert branch_power(-1.0, 0.5) == pytest.approx(cmath.exp(1j * PI / 2))
        assert branch_power(0.0, 0.5) == 0.0
        with pytest.raises(ZeroDivisionError):
            branch_power(0.0, -1.0)

    def test_branch_log_at_the_cut(self):
        # the program's array branch_log at the cut cases above: the
        # argument of the frozen scalar branch_arg bit for bit
        zs = [1.0, 1j, -1.0, complex(-1.0, -1e-12), -1j, complex(-1e-12, -1.0),
              complex(0.5, -0.0), complex(-0.5, -0.0), 1e-300j, complex(3.0, 4.0)]
        log_r, theta = branch_log(zs)
        assert log_r.shape == theta.shape == (len(zs),)
        for z, a, b in zip(zs, log_r, theta):
            want = oracles.branch_log(z)
            assert (a, b) == (want.real, want.imag)
        assert theta[0] == 0.0 and theta[4] == -PI / 2
        assert theta[5] == pytest.approx(3 * PI / 2, abs=1e-9)
        with pytest.raises(ZeroDivisionError):
            branch_log([0.5, 0.0])


class TestDataValidation:
    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            PowerEndData(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            PowerEndData(-0.5, 1.0, 1.0)
        # lambda = (1 - alpha^2)/(4 alpha^2) is inf below about 3.7e-155, and
        # 4 alpha^2 is 0 below about 1.5e-162; 1e-150 still constructs
        for alpha in (3.6e-155, 1e-160, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=f"alpha = {alpha} is too small"):
                power_end_data(alpha)
        assert power_end_data(1e-150).lam == (1.0 - 1e-150**2) / (4.0 * 1e-150**2)

    def test_compatibility_enforced(self):
        alpha = 0.5
        good = (1 - alpha**2) / (4 * alpha)
        PowerEndData(alpha, 1.0, good)  # exact: fine
        with pytest.raises(ValueError):
            PowerEndData(alpha, 1.0, good * (1 + 1e-9))

    def test_omega_factor_restricted(self):
        with pytest.raises(ValueError):
            ExponentialData(0.5, omega_factor=0.5 + 0.5j)

    def test_symmetric_subclass(self):
        assert is_symmetric(power_end_data(0.5, g1=(0.01,)))
        assert not is_symmetric(power_end_data(0.5, g1=(0.01j,)))
        assert not is_symmetric(conjugate_data(power_end_data(0.5)))

    def test_lam_property(self):
        pe = power_end_data(0.5)
        assert pe.lam == pytest.approx(0.75)
        assert power_end_data(2.0).lam == pytest.approx(-3 / 16)


class TestConjugation:
    def test_factor_rotation(self):
        d = catenoid_data(0.5)
        assert conjugate_data(d).omega_factor == 1j
        assert conjugate_data(conjugate_data(d)).omega_factor == -1
        assert helicoid_data(0.5).omega_factor == 1j

    def test_double_conjugation_negates(self):
        d = catenoid_data(0.7)
        dd = conjugate_data(conjugate_data(d))
        z = 0.8 + 0.5j
        a = integrate(d, 0.0, [z], 1e-11)
        b = integrate(dd, 0.0, [z], 1e-11)
        assert np.allclose(a, -b, atol=1e-10)

    def test_power_end_principal_rotates(self):
        pe = power_end_data(0.5)
        coef = principal_log_coefficient(pe)
        coef_c = principal_log_coefficient(conjugate_data(pe))
        assert coef_c == pytest.approx(1j * coef)
        alpha = 0.5
        assert coef == pytest.approx((1 - alpha**2) / (2 * alpha))


class TestIntegrate:
    def test_exponential_displacement(self):
        for lam in (0.5, 2.0, -0.2):
            got = integrate(catenoid_data(lam), 0.0, [1j * PI])
            assert np.allclose(got, [[4 * lam, 0, 0]], atol=1e-10)

    def test_exponential_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam = rng.uniform(-0.2, 3.0)
            if abs(lam) < 1e-2:
                continue
            data = ExponentialData(lam, 1j ** rng.integers(0, 4))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            got = integrate(data, 0.0, [z], 1e-11)[0]
            assert np.allclose(got, oracles.displacement(data, z), atol=1e-10)

    def test_helicoid_reproduction(self):
        from trinoids.surfaces import helicoid_point

        lam = 1.0
        data = helicoid_data(lam)
        for z in (0.5 + 0.5j, -1 + 2j, 2 - 3j):
            got = integrate(data, 0.0, [z], 1e-10)[0]
            assert np.allclose(got, helicoid_point(lam, z.real, z.imag), atol=1e-8)

    def test_power_end_log_profile(self):
        # unperturbed data on the positive real axis: third component is
        # (1-alpha^2)/(2 alpha) * ln z
        for alpha in (0.5, 1.5):
            pe = power_end_data(alpha)
            coef = (1 - alpha**2) / (2 * alpha)
            for s in (0.9, 0.5, 0.1, 0.02):
                got = integrate(pe, 1.0, [s], 1e-11)[0]
                assert got[2] == pytest.approx(coef * math.log(s), abs=1e-10)

    def test_power_end_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            pe = random_power_end(rng)
            z = rng.uniform(0.05, 1.0) * np.exp(1j * rng.uniform(0, PI))
            got = integrate(pe, 1.0, [z], 1e-11)[0]
            want = oracles.displacement(pe, z)
            assert np.allclose(got, want, atol=5e-10), (pe, z)

    def test_integer_alpha_hidden_log(self):
        # alpha = 2 with deg(w1) >= 2 puts a z^-1 monomial into the first
        # two components as well
        pe = power_end_data(2.0, g0=1.0, w1=(0.0, 0.03))
        z = 0.4 * np.exp(0.8j)
        got = integrate(pe, 1.0, [z], 1e-11)[0]
        assert np.allclose(got, oracles.displacement(pe, z), atol=5e-10)

    def test_path_independence(self):
        # the endpoint value is the quadrature along every route
        rng = np.random.default_rng(2)
        for _ in range(100):
            pe = random_power_end(rng)
            z = rng.uniform(0.05, 1.0) * np.exp(1j * rng.uniform(0.0, PI))
            tol = 1e-10
            got = integrate(pe, 1.0, [z], tol)[0]
            for route in (Route.RADIAL_THEN_ARC, Route.ARC_THEN_RADIAL):
                want = oracles.integrate(pe, IntegrationPath(1.0, z, route), tol)
                assert np.abs(got - want).max() <= 2 * tol

    def test_nonconvergence_carries_estimate(self):
        from trinoids.weierstrass import QuadratureError

        # steep power z^{-1-alpha} down to |z| = 1e-8 cannot meet an absolute
        # tolerance of 1e-10: the integral itself is ~1e19
        pe = power_end_data(2.4)
        with pytest.raises(QuadratureError) as err:
            integrate(pe, 1.0, [1e-8 + 0j], 1e-10)
        assert err.value.achieved > 0

    def test_path_validation(self):
        pe = power_end_data(0.5)
        with pytest.raises(ValueError):
            integrate(pe, 1.0, [1.5 + 0j])
        with pytest.raises(ValueError):
            integrate(pe, 1.0, [0.5 - 0.5j])
        with pytest.raises(ValueError):
            integrate(pe, 1.0, [0.5 + 0j], tol=-1.0)


class TestCorrectionIntegral:
    def test_zero_for_unperturbed(self):
        pe = power_end_data(0.5)
        assert correction_integral(pe, 0.3 + 0.4j) == 0.0

    def test_real_on_positive_ray(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pe = random_power_end(rng)
            for s in (0.9, 0.4, 0.05):
                c = correction_integral(pe, s)
                assert abs(c.imag) < 1e-11

    def test_matches_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pe = random_power_end(rng)
            z = rng.uniform(0.05, 1.0) * np.exp(1j * rng.uniform(0, PI))
            got = correction_integral(pe, z)
            want = oracles.correction_closed_form(pe, z)
            assert got == pytest.approx(want, abs=1e-10)
            want = oracles.correction_integral_quadrature(pe, z, 1e-12)
            assert got == pytest.approx(want, abs=1e-10)

    def test_bounded_on_domain(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pe = random_power_end(rng)
            bound = correction_bound(pe)
            for _ in range(20):
                z = rng.uniform(0.02, 1.0) * np.exp(1j * rng.uniform(0, PI))
                assert abs(correction_integral(pe, z)) <= bound + 1e-9

    def test_principal_remainder_split(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pe = random_power_end(rng)
            z = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, PI))
            third = integrate(pe, 1.0, [z], 1e-11)[0, 2]
            coef = principal_log_coefficient(pe)
            dlog = math.log(abs(z)) + 1j * branch_arg(z)
            split = (coef * dlog).real + 2.0 * correction_integral(pe, z).real
            assert third == pytest.approx(split, abs=1e-9)

    def test_domain(self):
        pe = power_end_data(0.5)
        with pytest.raises(ValueError):
            correction_integral(pe, 1.5 + 0j)
        with pytest.raises(TypeError):
            correction_integral(catenoid_data(0.5), 0.5)


class TestGaussNormal:
    def test_zero_and_unit_circle(self):
        pe = power_end_data(0.5)
        assert np.allclose(gauss_normal(pe, 0.0), [0, 0, -1])
        d = catenoid_data(1.0)
        n = gauss_normal(d, 1j * 0.7)  # |e^{iy}| = 1: horizontal normal
        assert abs(n[2]) < 1e-14

    def test_power_end_vertical_limit(self):
        pe = power_end_data(1 / 3, g1=(0.01,), w1=(0.02,))
        down = np.array([0, 0, -1.0])
        prev = 2.0
        for s in (0.5, 0.1, 1e-3, 1e-6):
            dev = np.linalg.norm(gauss_normal(pe, s) - down)
            assert dev < prev
            prev = dev
        assert prev < 0.05  # |g| ~ s^(1/3): slow but monotone approach

    def test_g_value_branch(self):
        pe = power_end_data(0.5, g0=2.0)
        z = -0.25 + 0j
        assert g_value(pe, z) == pytest.approx(2.0 * branch_power(z, 0.5))

    @pytest.mark.parametrize("data", [power_end_data(0.5, g1=(0.1, 0.02)), catenoid_data(1.0)],
                             ids=["power-end", "exponential"])
    def test_shapes_kept(self, data):
        # a scalar gives a scalar g and one (3,) normal; an array of shape s
        # gives g of shape s, each within mp_g_value's bound of the exact
        # value, and normals of shape s + (3,), each the projection of its g
        for z in (0.5, 0.3 + 0.2j, 0.0):
            assert np.shape(g_value(data, z)) == ()
            assert gauss_normal(data, z).shape == (3,)
            assert gauss_normal_from_g(complex(z)).shape == (3,)
        zs = np.array([[0.5, 0.3 + 0.2j, 0.0], [-0.4 + 0.1j, 1j, 0.9]])
        g = g_value(data, zs)
        normals = gauss_normal(data, zs)
        assert g.shape == (2, 3) and normals.shape == (2, 3, 3)
        assert gauss_normal_from_g(g).shape == (2, 3, 3)
        for idx in np.ndindex(zs.shape):
            want, bound = oracles.mp_g_value(data, zs[idx])
            assert abs(g[idx] - want) <= bound
            assert np.array_equal(normals[idx], oracles.gauss_normal_from_g(g[idx]))
        assert np.array_equal(gauss_normal_from_g([0j, complex("inf"), 1e200]),
                              [[0, 0, -1], [0, 0, 1], [0, 0, 1]])

    @pytest.mark.parametrize("degree", [0, 1, 5, 100, 103])
    def test_g_value_same_bits(self, degree):
        # g0 + z g1(z) by Horner's rule and z^alpha by exp(alpha log z):
        # within mp_g_value's first-order bound of the exact g at every
        # degree
        rng = np.random.default_rng(degree)
        pe = power_end_data(2 / 3, g0=1.3, g1=tuple(rng.uniform(-0.5, 0.5, degree)))
        zs = rng.uniform(0.0, 1.0, 30) * np.exp(1j * rng.uniform(-PI / 2, 3 * PI / 2, 30))
        g = g_value(pe, zs)
        for got, z in zip(g, zs):
            want, bound = oracles.mp_g_value(pe, z)
            assert abs(got - want) <= bound


class TestIsometryInvariant:
    def test_conjugation_preserves_arc_length(self):
        # chord sums along a common parameter path with Richardson
        # extrapolation; associate surfaces are isometric so the lengths of
        # the image curves agree.  The end of each image curve is the
        # quadrature along the given route.
        rng = np.random.default_rng(7)

        def arc_length(data, za, zb, n, base):
            ts = np.linspace(0.0, 1.0, n + 1)
            pts = integrate(data, base, [za + (zb - za) * t for t in ts], 1e-11)
            return sum(
                np.linalg.norm(np.subtract(b, a)) for a, b in zip(pts, pts[1:])
            )

        def richardson(data, za, zb, base, route):
            got = integrate(data, base, [zb], 1e-11)[0]
            want = oracles.integrate(data, IntegrationPath(base, zb, route), 1e-11)
            assert np.abs(got - want).max() <= 1e-10
            l1 = arc_length(data, za, zb, 24, base)
            l2 = arc_length(data, za, zb, 48, base)
            return (4 * l2 - l1) / 3

        pairs = 0
        while pairs < 25:
            lam = rng.uniform(-0.2, 2.0)
            if abs(lam) < 0.05:
                continue
            pairs += 1
            data = catenoid_data(lam)
            za = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            zb = za + 0.3 * np.exp(1j * rng.uniform(0, 2 * PI))
            la = richardson(data, za, zb, 0.0, Route.STRAIGHT)
            lb = richardson(conjugate_data(data), za, zb, 0.0, Route.STRAIGHT)
            assert abs(la - lb) < 1e-8

        pairs = 0
        while pairs < 25:
            pe = random_power_end(rng, scale=0.02)
            za = rng.uniform(0.3, 0.95) * np.exp(1j * rng.uniform(0.1, PI - 0.1))
            zb = za * np.exp(0.25j)
            if not (0.05 < abs(zb) <= 1.0 and zb.imag > 0):
                continue
            pairs += 1
            la = richardson(pe, za, zb, 1.0, Route.RADIAL_THEN_ARC)
            lb = richardson(conjugate_data(pe), za, zb, 1.0, Route.RADIAL_THEN_ARC)
            assert abs(la - lb) < 1e-8


class TestJson:
    def test_round_trip(self):
        for data in (
            catenoid_data(0.5),
            helicoid_data(-0.2),
            power_end_data(2 / 3, g0=1.3, g1=(0.01, -0.02), w1=(0.005,)),
            conjugate_data(power_end_data(0.5)),
        ):
            doc = data_to_json(data)
            back = data_from_json(doc)
            assert back == data

    def test_schema(self):
        from trinoids.emit import validate_against_schema

        validate_against_schema(
            data_to_json(power_end_data(0.5, g1=(0.01,))), "weierstrass_data.schema.json"
        )
        validate_against_schema(data_to_json(catenoid_data(1.0)), "weierstrass_data.schema.json")

    def test_bad_documents(self):
        with pytest.raises(ValueError):
            data_from_json({"kind": "mystery"})
        with pytest.raises(ValueError):
            data_from_json(
                {"kind": "power_end", "alpha": 0.5, "g0_re": 1.0, "w0_re": 0.375,
                 "g1_re": [0.1], "g1_im": []}
            )
