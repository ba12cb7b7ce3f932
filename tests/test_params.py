import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinoids.params import (
    PitchConvention,
    bobenko_delta,
    bps_to_lambda,
    bryant_mu_to_lambda,
    lambda_of_phi,
    lambda_to_bps,
    lambda_to_bryant_mu,
    phi_of_lambda,
    pitch_coefficient,
    ray_distance_h,
    reduced_angle,
    total_curvature,
)

PI = math.pi


def lambda_grid():
    """Log-spaced sample of I, bounded away from the punctures 0 and -1/4."""
    pos = np.geomspace(1e-3, 1e3, 60)
    neg = -np.geomspace(1e-3, 0.249, 40)
    return np.concatenate([neg, pos])


class TestPhiLambda:
    def test_exact_values(self):
        assert phi_of_lambda(2.0) == pytest.approx(PI / 3, rel=1e-15)
        assert phi_of_lambda(0.75) == pytest.approx(PI / 2, rel=1e-15)
        assert phi_of_lambda(-3.0 / 16.0) == pytest.approx(2 * PI, rel=1e-15)

    def test_inverse_values(self):
        assert lambda_of_phi(PI / 2) == pytest.approx(0.75, rel=1e-15)
        assert lambda_of_phi(2 * PI) == pytest.approx(-3.0 / 16.0, rel=1e-15)

    def test_domain_errors(self):
        for bad in (0.0, -0.25, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                phi_of_lambda(bad)
        for bad in (0.0, -1.0, PI):
            with pytest.raises(ValueError):
                lambda_of_phi(bad)
        # each parameter's own check rejects inf, and names that parameter
        for convert, name in [(lambda_of_phi, "phi"),
                              (bryant_mu_to_lambda, "mu"),
                              (bps_to_lambda, "lambda_bps")]:
            with pytest.raises(ValueError, match=f"^{name} must lie in .*got inf$"):
                convert(math.inf)
        # above phi of about 4e8 lambda rounds to -1/4, above about 7e153 it is
        # -0.0 or NaN: the message names phi, not the lambda it would have given
        for huge in (4e8, 1e10, 8e153, 1e154, 1e200, 1.7e308):
            with pytest.raises(ValueError, match=f"^phi = {re.escape(repr(huge))} is too large"):
                lambda_of_phi(huge)
        # mu and lambda_bps name themselves, not the angle they give
        for convert, name, value in [(bryant_mu_to_lambda, "mu", 1e200),
                                     (bps_to_lambda, "lambda_bps", 1e10)]:
            with pytest.raises(ValueError, match=f"^{name} = {re.escape(repr(value))} is too large"):
                convert(value)
        with pytest.raises(ValueError, match="^lambda_bps = 3e-240 is too small"):
            bps_to_lambda(3e-240)
        for mu in (1e308, 1e-20):
            with pytest.raises(ValueError, match=f"^mu = {re.escape(repr(mu))} gives the end angle"):
                bryant_mu_to_lambda(mu)
        phi = 3e8
        assert lambda_of_phi(phi) == (PI - phi) * (PI + phi) / (4.0 * phi * phi) > -0.25

    def test_tiny_phi(self):
        # 4*phi^2 underflows to 0 below about 1e-162; that used to be a
        # ZeroDivisionError.  Above that, up to about 1e-154, a subnormal
        # 4*phi^2 overflows lambda to inf, which raises the same error
        for tiny in (1e-155, 1e-160, 1e-200, 3e-240, 5e-324):
            with pytest.raises(ValueError, match="too small"):
                lambda_of_phi(tiny)
        # just above, lambda is huge but finite, and the bits are unchanged
        phi = 1e-150
        assert lambda_of_phi(phi) == (PI - phi) * (PI + phi) / (4.0 * phi * phi)

    def test_round_trip(self):
        for lam in lambda_grid():
            back = lambda_of_phi(phi_of_lambda(lam))
            assert abs(back - lam) <= 1e-12 * abs(lam)

    def test_strictly_decreasing_on_I(self):
        lams = np.sort(lambda_grid())
        phis = [phi_of_lambda(l) for l in lams]
        assert all(a > b for a, b in zip(phis, phis[1:]))


class TestReducedAngle:
    def test_examples(self):
        assert reduced_angle(PI / 2) == pytest.approx(PI / 2)
        assert reduced_angle(3 * PI / 2) == pytest.approx(PI / 2)
        assert reduced_angle(7 * PI / 3) == pytest.approx(PI / 3)

    @settings(max_examples=300)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_identities(self, phi):
        r = reduced_angle(phi)
        assert 0.0 <= r <= PI
        assert reduced_angle(-phi) == pytest.approx(r, abs=1e-9)
        assert reduced_angle(phi + 2 * PI) == pytest.approx(r, abs=1e-9 * max(1, abs(phi)))

    def test_identity_bulk(self):
        rng = np.random.default_rng(0)
        phis = rng.uniform(-50.0, 50.0, 10_000)
        for phi in phis:
            r = reduced_angle(phi)
            assert 0.0 <= r <= PI
            assert abs(reduced_angle(phi + 2 * PI) - r) < 1e-13
            assert abs(reduced_angle(-phi) - r) < 1e-13
        on_segment = rng.uniform(0.0, PI, 1000)
        for phi in on_segment:
            assert reduced_angle(phi) == phi


class TestRayDistance:
    def test_examples(self):
        assert ray_distance_h(PI / 2) == pytest.approx(3 * PI / 8, rel=1e-14)
        assert ray_distance_h(PI / 3) == pytest.approx(2 * PI / 3, rel=1e-14)
        # h -> 0 as phi -> pi (lambda -> 0)
        assert ray_distance_h(PI - 1e-8) < 1e-7

    def test_closed_form_agreement(self):
        rng = np.random.default_rng(1)
        for phi in rng.uniform(0.05, 12.0, 200):
            if abs(phi - PI) < 1e-3:
                continue
            for conv, factor in ((PitchConvention.HALF_GAP, 1.0),
                                 (PitchConvention.RULING_GAP, 2.0)):
                h = ray_distance_h(phi, conv)
                alt = factor * abs(PI**2 / (4 * phi) - phi / 4)
                assert h == pytest.approx(alt, rel=1e-13)

    def test_pitch_coefficient(self):
        assert pitch_coefficient(0.75) == 0.75
        assert pitch_coefficient(0.75, PitchConvention.RULING_GAP) == 1.5
        phi = 1.1
        lam = lambda_of_phi(phi)
        for conv in PitchConvention:
            assert abs(pitch_coefficient(lam, conv)) * phi == pytest.approx(
                ray_distance_h(phi, conv), rel=1e-14
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            ray_distance_h(PI)
        with pytest.raises(ValueError):
            ray_distance_h(0.0)


class TestConventionConversions:
    def test_bryant_examples(self):
        assert bryant_mu_to_lambda(-0.25) == pytest.approx(0.75, rel=1e-14)
        assert bryant_mu_to_lambda(0.5) == pytest.approx(-3.0 / 16.0, rel=1e-14)
        with pytest.raises(ValueError):
            bryant_mu_to_lambda(0.0)
        with pytest.raises(ValueError):
            bryant_mu_to_lambda(-0.5)
        # past about 8e31, mu = phi/(2 pi) - 1/2 rounds to -1/2
        assert lambda_to_bryant_mu(1e31) > -0.5
        for lam in (1e32, 2.588802401840145e75):
            with pytest.raises(ValueError, match="too large"):
                lambda_to_bryant_mu(lam)

    def test_bps_examples(self):
        assert bps_to_lambda(0.25) == pytest.approx(0.75, rel=1e-14)
        assert bps_to_lambda(1.0) == pytest.approx(-3.0 / 16.0, rel=1e-14)
        with pytest.raises(ValueError):
            bps_to_lambda(0.5)
        with pytest.raises(ValueError):
            bps_to_lambda(0.0)

    def test_bps_mu_shift(self):
        rng = np.random.default_rng(2)
        for mu in rng.uniform(-0.45, 3.0, 200):
            if abs(mu) < 1e-3:
                continue
            lam1 = bryant_mu_to_lambda(mu)
            lam2 = bps_to_lambda(mu + 0.5)
            assert lam1 == pytest.approx(lam2, rel=1e-13)

    def test_total_curvature(self):
        assert total_curvature(2.0) == pytest.approx(-4 * PI / 3, rel=1e-14)
        assert total_curvature(0.75) == pytest.approx(-2 * PI, rel=1e-14)
        assert total_curvature(1e-12) == pytest.approx(-4 * PI, rel=1e-9)
        with pytest.raises(ValueError):
            total_curvature(-0.3)

    def test_total_curvature_chain(self):
        rng = np.random.default_rng(3)
        for mu in rng.uniform(-0.49, 5.0, 500):
            if abs(mu) < 1e-3:
                continue
            tc = total_curvature(bryant_mu_to_lambda(mu))
            assert tc == pytest.approx(-4 * PI * (2 * mu + 1), rel=1e-12)

    def test_round_trip_through_mu_and_bps(self):
        for lam in lambda_grid():
            assert bryant_mu_to_lambda(lambda_to_bryant_mu(lam)) == pytest.approx(
                lam, rel=1e-12
            )
            assert bps_to_lambda(lambda_to_bps(lam)) == pytest.approx(lam, rel=1e-12)


class TestBobenkoDelta:
    def test_examples(self):
        assert bobenko_delta(0.25) == pytest.approx(0.25)
        assert bobenko_delta(0.75) == pytest.approx(0.25)
        assert bobenko_delta(1.5) == pytest.approx(0.5)

    def test_periodicity_and_range(self):
        rng = np.random.default_rng(4)
        for x in rng.uniform(-20, 20, 2000):
            d = bobenko_delta(x)
            assert 0.0 <= d <= 0.5
            assert bobenko_delta(x + 1.0) == pytest.approx(d, abs=1e-12)

    def test_reduced_angle_correspondence(self):
        rng = np.random.default_rng(5)
        count = 0
        while count < 10_000:
            b = rng.uniform(0.01, 10.0)
            if abs(b - round(2 * b) / 2) < 1e-3:
                continue
            count += 1
            r = reduced_angle(phi_of_lambda(bps_to_lambda(b)))
            assert abs(r - 2 * PI * bobenko_delta(b)) < 1e-12 * max(1.0, 2 * PI * b)
