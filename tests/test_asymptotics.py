import math
import tracemalloc

import numpy as np
import pytest

import oracles
from test_end_engine import END_SETS, perturbed
from trinoids import asymptotics
from trinoids import weierstrass as W
from trinoids.asymptotics import (
    check_slab,
    decay_profile,
    fit_helicoid,
    fit_rays,
    gap_report,
    helicoid_distances,
    normal_limit_report,
    sample_conjugate_end,
    verify_end,
)
from trinoids.constellation import HelicoidFrame
from trinoids.params import reduced_angle
from trinoids.surfaces import helicoid_point

PI = math.pi
SHORT_RADII = tuple(0.5**k for k in range(1, 6))


def perturbed_data(rng, alpha=0.5, scale=0.01):
    g1 = tuple(rng.uniform(-scale, scale, 2))
    w1 = tuple(rng.uniform(-scale, scale, 2))
    return W.power_end_data(alpha, g0=1.0, g1=g1, w1=w1)


class TestSampling:
    def test_rejects_unsymmetric(self):
        with pytest.raises(ValueError):
            sample_conjugate_end(W.power_end_data(0.5, g1=(0.01j,)))
        with pytest.raises(ValueError):
            sample_conjugate_end(W.conjugate_data(W.power_end_data(0.5)))
        with pytest.raises(TypeError):
            sample_conjugate_end(W.catenoid_data(0.5))

    def test_radii_validation(self):
        pe = W.power_end_data(0.5)
        with pytest.raises(ValueError):
            sample_conjugate_end(pe, radii=(0.5, 0.5))
        with pytest.raises(ValueError):
            sample_conjugate_end(pe, radii=(2.0, 0.5))

    def test_unperturbed_lies_on_helicoid(self):
        pe = W.power_end_data(0.5)
        sample = sample_conjugate_end(pe, radii=SHORT_RADII, samples_per_arc=17,
                                      boundary_samples=10)
        rays = fit_rays(sample)
        fit = fit_helicoid(rays, sample.lam)
        assert fit.passed and fit.residual < 1e-8
        for arc in sample.arc_points:
            d, flags = helicoid_distances(fit.frame, arc)
            assert np.all(flags)
            assert d.max() < 1e-8

    def test_boundary_images_collinear(self):
        pe = W.power_end_data(2 / 3, g1=(0.01,), w1=(0.004,))
        sample = sample_conjugate_end(pe, radii=SHORT_RADII, samples_per_arc=9,
                                      boundary_samples=10)
        rays = fit_rays(sample)
        assert rays.max_deviation < 1e-8


class TestSlab:
    def test_unperturbed_width_zero(self):
        sample = sample_conjugate_end(W.power_end_data(0.5), radii=SHORT_RADII,
                                      samples_per_arc=9, boundary_samples=10)
        report = check_slab(sample)
        assert report.passed
        assert report.width < 1e-9
        assert report.correction_bound == 0.0

    def test_perturbed_width_within_coarse_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            pe = perturbed_data(rng)
            sample = sample_conjugate_end(pe, radii=SHORT_RADII, samples_per_arc=9,
                                          boundary_samples=10)
            report = check_slab(sample)
            assert report.passed
            coeff_sum = sum(abs(c) for c in W.correction_coefficients(sample.data))
            assert report.width <= 2.0 * coeff_sum + 1e-8

    def test_boundary_rays_horizontal(self):
        rng = np.random.default_rng(1)
        sample = sample_conjugate_end(perturbed_data(rng), radii=SHORT_RADII,
                                      samples_per_arc=9, boundary_samples=10)
        assert check_slab(sample).boundary_z_spread < 1e-9


class TestRays:
    def test_angle_and_gap(self):
        for alpha in (1 / 3, 2 / 3):
            pe = W.power_end_data(alpha)
            sample = sample_conjugate_end(pe, radii=SHORT_RADII, samples_per_arc=9,
                                          boundary_samples=12)
            rays = fit_rays(sample)
            assert rays.angle == pytest.approx(reduced_angle(PI * alpha), abs=1e-9)
            expected = (1 - alpha**2) * PI / (2 * alpha)
            assert rays.vertical_gap == pytest.approx(expected, abs=1e-9)
            report = gap_report(sample, rays)
            assert report.passed
            assert report.matches == "ruling-gap"
            assert report.measured == pytest.approx(report.h_ruling_gap, abs=1e-9)

    def test_needs_eight_samples(self):
        sample = sample_conjugate_end(W.power_end_data(0.5), radii=SHORT_RADII,
                                      samples_per_arc=9, boundary_samples=7)
        with pytest.raises(ValueError):
            fit_rays(sample)


class TestHelicoidFit:
    def test_wrong_lambda_fails(self):
        sample = sample_conjugate_end(W.power_end_data(0.5), radii=SHORT_RADII,
                                      samples_per_arc=9, boundary_samples=10)
        rays = fit_rays(sample)
        bad = fit_helicoid(rays, 2.0)
        assert not bad.passed
        assert "placement" in bad.message

    def test_parallel_rays_distance_bound(self):
        # alpha = 2: boundary rays are parallel (angle in pi*Z)
        pe = W.power_end_data(2.0)
        sample = sample_conjugate_end(pe, radii=SHORT_RADII, samples_per_arc=9,
                                      boundary_samples=10)
        rays = fit_rays(sample)
        assert reduced_angle(rays.angle) < 1e-6
        fit = fit_helicoid(rays, sample.lam)
        assert fit.frame is None
        assert "parallel rays" in fit.message
        assert fit.passed  # measured gap 3*pi/4 >= minimal ruling gap 3*pi/8
        with pytest.raises(ValueError):
            decay_profile(sample, fit)


class TestDecay:
    def test_perturbed_profile_decreases(self):
        rng = np.random.default_rng(2)
        pe = perturbed_data(rng)
        sample = sample_conjugate_end(pe, samples_per_arc=17, boundary_samples=12)
        rays = fit_rays(sample)
        fit = fit_helicoid(rays, sample.lam)
        profile = decay_profile(sample, fit)
        sups = profile.sup_distance
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert profile.reduction > 20
        assert profile.passed

    def test_wrong_frame_profile_fails(self):
        pe = W.power_end_data(0.5)
        sample = sample_conjugate_end(pe, radii=SHORT_RADII, samples_per_arc=9,
                                      boundary_samples=10)
        rays = fit_rays(sample)
        fit = fit_helicoid(rays, sample.lam)
        # sabotage the frame: tilt by 0.05 rad
        R = oracles.rotation_about([1.0, 0.0, 0.0], 0.05) @ fit.frame.rotation
        bad_frame = HelicoidFrame(fit.frame.lam, R, fit.frame.translation)
        bad_fit = type(fit)(frame=bad_frame, residual=1.0, passed=False)
        profile = decay_profile(sample, bad_fit)
        assert not profile.passed


class TestDistanceProjection:
    def test_exact_points_have_zero_distance(self):
        lam = 0.6
        frame = HelicoidFrame(lam, np.eye(3), np.zeros(3))
        pts = np.array([helicoid_point(lam, x, y)
                        for x in (-1.0, 0.3, 2.0) for y in (-2.0, 0.0, 4.0)])
        d, flags = helicoid_distances(frame, pts)
        assert np.all(flags)
        assert d.max() < 1e-12

    def test_offset_point_distance(self):
        lam = 0.5
        frame = HelicoidFrame(lam, np.eye(3), np.zeros(3))
        # a surface point nudged vertically off a ruling (away from the axis,
        # which itself lies on the surface): small positive distance
        q = helicoid_point(lam, 1.2, 0.3) + np.array([0.0, 0.0, 1e-3])
        d, _ = helicoid_distances(frame, q[None, :])
        assert 0 < d[0] <= 1e-3 + 1e-12


class TestFullPipeline:
    def test_unperturbed_pass(self):
        report = verify_end(W.power_end_data(1 / 3))
        assert report.passed
        assert max(report.decay.sup_distance) < 1e-8

    def test_perturbed_pass_and_report(self):
        rng = np.random.default_rng(3)
        report = verify_end(perturbed_data(rng, alpha=2 / 3))
        assert report.passed
        assert report.failed_hypotheses() == []
        assert report.gap.matches == "ruling-gap"

    def test_normal_limit_report(self):
        sample = sample_conjugate_end(W.power_end_data(0.5), radii=SHORT_RADII,
                                      samples_per_arc=9, boundary_samples=10)
        rep = normal_limit_report(sample)
        assert rep.passed
        assert rep.deviation_inner < rep.deviation_outer

    def test_json_report_schema(self):
        from trinoids.asymptotics import verification_to_json
        from trinoids.emit import validate_against_schema

        report = verify_end(W.power_end_data(0.5), radii=SHORT_RADII,
                            samples_per_arc=9, boundary_samples=10)
        doc = verification_to_json(report)
        validate_against_schema(doc, "verify_end.schema.json")


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestDistancesSameAsScalar:
    """helicoid_distances runs all points as arrays; the scalar loop of
    tests/oracles.py must give the same distance bits and flags."""

    def test_decay_arcs_and_hard_points(self):
        rng = np.random.default_rng(29)
        total = nonconverged = 0
        for alpha in (0.2, 2 / 3, 0.9, 2.5):
            for pe in (W.power_end_data(alpha), perturbed_data(rng, alpha)):
                sample = sample_conjugate_end(pe, radii=SHORT_RADII, samples_per_arc=9)
                rays = fit_rays(sample)
                for lam in (sample.lam, 0.7 * sample.lam, 1.3 * sample.lam, -0.2, 3.0):
                    fit = fit_helicoid(rays, lam)
                    if fit.frame is None:
                        continue
                    frame = fit.frame
                    near_axis = frame.translation + rng.normal(size=(20, 3)) * 1e-9
                    far = rng.normal(size=(20, 3)) * 50.0
                    for pts in (np.concatenate(sample.arc_points), near_axis, far):
                        got = helicoid_distances(frame, pts)
                        want = oracles.helicoid_distances(frame, 2 * lam, pts)
                        assert np.array_equal(_bits(got[0]), _bits(want[0]))
                        assert np.array_equal(got[1], want[1])
                        total += len(pts)
                        nonconverged += int(np.sum(~want[1]))
        assert total > 3000 and nonconverged > 50

    def test_empty_and_single(self):
        frame = HelicoidFrame(0.5, np.eye(3), np.zeros(3))
        d, flags = helicoid_distances(frame, np.zeros((0, 3)))
        assert d.shape == flags.shape == (0,)
        d, flags = helicoid_distances(frame, [0.3, -0.2, 0.7])
        want = oracles.helicoid_distances(frame, 1.0, [0.3, -0.2, 0.7])
        assert np.array_equal(_bits(d), _bits(want[0])) and np.array_equal(flags, want[1])


class TestDistancesSameAsFrozen:
    """helicoid_distances computes its scan in place; the frozen array
    version (oracles.array_helicoid_distances), which allocates every step
    anew, must give the same distance bits and flags, in less memory."""

    @staticmethod
    def assert_same(frame, pts):
        got = helicoid_distances(frame, pts)
        want = oracles.array_helicoid_distances(frame, pts)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(got[1], want[1])
        return want

    def test_random_frames(self):
        rng = np.random.default_rng(2201)
        special = np.array([[np.nan, 0.0, 1.0], [np.inf, 1.0, -1.0], [-np.inf, 2.0, 0.5],
                            [0.0, 0.0, np.inf], [1e200, 1e200, -1e200], [0.3, -1e200, 0.0]])
        nonconverged = 0
        for n in (1, 31, 264, 700):
            for lam in (-0.2, -0.01, 0.3, 1.7):
                rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
                frame = HelicoidFrame(lam, rotation, rng.normal(size=3))
                pts = rng.normal(size=(n, 3)) * rng.choice([1e-9, 1.0, 50.0], size=(n, 1))
                self.assert_same(frame, pts)
                rows = rng.choice(n, size=min(n, len(special)), replace=False)
                pts[rows] = special[:len(rows)]
                nonconverged += int(np.sum(~self.assert_same(frame, pts)[1]))
        assert nonconverged >= 16

    @pytest.mark.parametrize("alpha,seed,radii,arc,boundary,tol", END_SETS)
    def test_end_sets(self, alpha, seed, radii, arc, boundary, tol):
        pe = W.power_end_data(alpha) if seed is None else perturbed(alpha, seed)
        sample = sample_conjugate_end(pe, radii, arc, boundary, tol)
        frames = [HelicoidFrame(sample.lam, np.eye(3), np.zeros(3))]
        if boundary >= 8:  # fit_rays needs 8 boundary samples per side
            rays = fit_rays(sample)
            fits = [fit_helicoid(rays, lam) for lam in (sample.lam, 0.7 * sample.lam)]
            frames += [fit.frame for fit in fits if fit.frame is not None]
        for frame in frames:
            self.assert_same(frame, np.concatenate(sample.arc_points))

    def test_less_memory(self, monkeypatch):
        # the call one default verify_end makes, traced after a warm-up call
        calls = []
        monkeypatch.setattr(asymptotics, "helicoid_distances",
                            lambda *args: calls.append(args) or helicoid_distances(*args))
        verify_end(W.power_end_data(0.5))
        (args,) = calls
        assert len(args[1]) == 264

        def peak(fn):
            fn(*args)
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # in units of one (264, 49) scan array, the frozen scan peaks at
        # about 6.1 and the in-place one at about 3.7 (ys, two buffers and
        # numpy's 64 KiB ufunc buffer); 2/3 of 6.1 is 4.1, so a fourth
        # scan-sized array alive at once fails this
        assert peak(helicoid_distances) < 2 / 3 * peak(oracles.array_helicoid_distances)
