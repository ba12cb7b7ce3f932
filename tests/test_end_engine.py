"""integrate and the end sampler against the quadrature engine and the
160-bit antiderivative.

The quadrature engine (tests/oracles.py) integrates every path on its own,
segment by segment with scipy's adaptive quad, one branch power per
monomial, along each of three routes.  The program evaluates closed-form
antiderivatives over the array of all endpoints, so its value depends only
on the endpoints.  Every sampled coordinate must agree with the oracle to
within the tolerance; every value that does not come from an integral
(radii, angles, ray parameters) keeps its bits.  The engine's contract is
its rounding budget: every integral lies within it of the same
antiderivative evaluated at 160 bits (oracles.mp_integrate), and within
twice it of the frozen scalar engine (oracles.integrate_paths), which
meets the same budget.  Slab and normal-limit reports agree with the
frozen check_slab and normal_limit_report within derived rounding bounds,
and errors keep the frozen engine's messages.
"""

import ast
import cmath
import json
import math
import pathlib
import sys

import numpy as np
import pytest

import oracles
from trinoids import asymptotics, cli
from trinoids import weierstrass as W
from oracles import IntegrationPath, Route
from trinoids.weierstrass import QuadratureError, integrate

DEFAULT = asymptotics.DEFAULT_RADII
SHORT = tuple(0.5**k for k in range(1, 6))
PI = math.pi
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "trinoids"


def bits(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    return a.shape, a.view(np.uint64).tobytes()


def perturbed(alpha, seed):
    rng = np.random.default_rng(seed)
    return W.power_end_data(alpha, g0=1.0, g1=tuple(rng.uniform(-0.01, 0.01, 2)),
                            w1=tuple(rng.uniform(-0.01, 0.01, 2)))


def assert_within(got, want, tol):
    """|got - want| <= tol per component.  The quadrature oracle meets its
    absolute tolerance only up to quad's relative 1e-12, which is added."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol + 1e-12 * np.abs(want)), np.abs(got - want).max()


def assert_within_budget(data, z0, targets, got):
    """Every coordinate of got within its target's rounding budget of the
    160-bit antiderivative."""
    ratios = oracles.budget_ratios(data, z0, targets, got)
    assert ratios.max() <= 1.0, (ratios.max(), int(ratios.argmax()))


def assert_close_sample(got, want):
    assert got.data == want.data
    assert bits([got.alpha, got.lam, got.tol, *got.radii]) == bits(
        [want.alpha, want.lam, want.tol, *want.radii])
    for name in ("arc_angles", "boundary_s"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    for name in ("boundary_pos", "boundary_neg"):
        assert_within(getattr(got, name), getattr(want, name), want.tol)
    assert len(got.arc_points) == len(want.arc_points)
    for a, b in zip(got.arc_points, want.arc_points):
        assert_within(a, b, want.tol)


def count_quad(monkeypatch):
    calls = []
    quad = W.quad

    def counting(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(W, "quad", counting)
    return calls


def count_antiderivative(monkeypatch):
    """Endpoints at which integrate evaluates its antiderivative, in the
    order of the arrays it is evaluated on."""
    points = []
    antiderivative = W._antiderivative

    def counting(data, z):
        points.extend(complex(x) for x in z)
        return antiderivative(data, z)

    monkeypatch.setattr(W, "_antiderivative", counting)
    return points


class TestSampleSameAsOriginal:
    @pytest.mark.parametrize("alpha,radii", [
        (1 / 3, DEFAULT), (1 / 2, DEFAULT), (2 / 3, DEFAULT), (3 / 2, DEFAULT),
        (5 / 2, SHORT),
    ])
    def test_unperturbed(self, alpha, radii):
        pe = W.power_end_data(alpha)
        assert_close_sample(asymptotics.sample_conjugate_end(pe, radii),
                            oracles.sample_conjugate_end(pe, radii))

    @pytest.mark.parametrize("alpha,seed,radii", [
        (1 / 3, 1, DEFAULT), (3 / 2, 2, DEFAULT), (2 / 3, 3, SHORT), (5 / 2, 4, SHORT),
    ])
    def test_perturbed(self, alpha, seed, radii):
        pe = perturbed(alpha, seed)
        assert_close_sample(asymptotics.sample_conjugate_end(pe, radii),
                            oracles.sample_conjugate_end(pe, radii))

    @pytest.mark.parametrize("radii,arc,boundary,tol", [
        ((0.9, 0.4, 0.1, 0.03), 7, 9, 1e-10),
        (SHORT, 9, 10, 1e-8),
        (SHORT, 4, 2, 1e-12),
        ((1.0, 0.5, 0.25), 3, 8, 3e-11),
    ])
    def test_non_default_sampling(self, radii, arc, boundary, tol):
        pe = perturbed(1 / 2, 5)
        assert_close_sample(asymptotics.sample_conjugate_end(pe, radii, arc, boundary, tol),
                            oracles.sample_conjugate_end(pe, radii, arc, boundary, tol))

    def test_same_quadrature_error(self):
        # quad cannot meet tol = 1e-10 on the steep z^{-7/2} leg down to
        # 2^-8, and neither can the closed form: its rounding budget reaches
        # about 8.8e-10 there, and its error against the 160-bit
        # antiderivative is above 1e-10.  At tol = 1e-9 it samples, and the
        # whole pipeline passes
        pe = W.power_end_data(5 / 2)
        with pytest.raises(QuadratureError):
            oracles.sample_conjugate_end(pe, DEFAULT)
        with pytest.raises(QuadratureError, match="rounding budget exceeds tol = 1.000e-10") as err:
            asymptotics.sample_conjugate_end(pe, DEFAULT)
        sample = asymptotics.sample_conjugate_end(pe, DEFAULT, tol=1e-9)
        assert len(sample.arc_points) == len(DEFAULT)
        values, budgets = oracles.mp_integrate(sample.data, 1.0, sample_targets(DEFAULT, 33, 16))
        errors = [abs(float(g) - float(w)) for row, want in zip(sample_rows(sample), values)
                  for g, w in zip(row, want)]
        assert max(errors) > 1e-10 and budgets.max() <= 1e-9
        # the error names the largest budget of the end, the least tol that passes
        assert err.value.achieved == pytest.approx(budgets.max(), rel=BUDGET_REL)
        report = asymptotics.verify_end(pe, tol=1e-9)
        assert report.passed and max(report.decay.sup_distance) < 1e-8

    def test_quad_calls(self, monkeypatch):
        # no quadrature at all; the antiderivative is evaluated at the base
        # point 1 and at each target: 8 x 33 arc points, 16 +s and 16 -s
        # targets.  Two targets repeat an endpoint (+1 is the base point and
        # 2^-8 lies on the innermost arc), and each is evaluated again.
        calls = count_quad(monkeypatch)
        points = count_antiderivative(monkeypatch)
        asymptotics.sample_conjugate_end(W.power_end_data(1 / 2))
        assert calls == []
        assert len(points) == 1 + 296
        assert points[0] == 1.0 and len(set(points)) == 295


def sample_targets(radii, arc, boundary):
    """The targets of sample_conjugate_end, in its order."""
    thetas = np.linspace(0.0, PI, arc)
    s_vals = np.geomspace(1.0, radii[-1], boundary)
    targets = [rho * np.exp(1j * th) for rho in radii for th in thetas]
    return targets + list(s_vals) + [complex(-s, 0.0) for s in s_vals]


def random_endpoints(rng, data, n):
    """A base point and n targets, some of them repeated."""
    if isinstance(data, W.PowerEndData):
        z0 = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.2, 1.0) * np.exp(
            1j * rng.uniform(0.0, PI))
        targets = [rng.choice([0.5, 0.25, rng.uniform(0.05, 1.0)]) * np.exp(
            1j * rng.uniform(0.0, PI)) for _ in range(n)]
    else:
        z0 = 0.0 if rng.uniform() < 0.5 else complex(*rng.uniform(-1, 1, 2))
        targets = [complex(*rng.uniform(-2, 2, 2)) for _ in range(n)]
    return z0, targets + targets[:3] + [z0]


END_SETS = [
    (1 / 3, None, DEFAULT, 33, 16, 1e-10), (1 / 2, None, DEFAULT, 33, 16, 1e-10),
    (2 / 3, None, DEFAULT, 33, 16, 1e-10), (3 / 2, None, DEFAULT, 33, 16, 1e-10),
    # the budget of alpha = 5/2 at the default radii is about 8.8e-10
    (5 / 2, None, DEFAULT, 33, 16, 1e-9), (5 / 2, None, SHORT, 33, 16, 1e-10),
    (1 / 3, 1, DEFAULT, 33, 16, 1e-10), (3 / 2, 2, DEFAULT, 33, 16, 1e-10),
    (2 / 3, 3, SHORT, 33, 16, 1e-10), (5 / 2, 4, SHORT, 33, 16, 1e-10),
    (1 / 2, 5, (0.9, 0.4, 0.1, 0.03), 7, 9, 1e-10), (1 / 2, 5, SHORT, 9, 10, 1e-8),
    (1 / 2, 5, SHORT, 4, 2, 1e-12), (1 / 2, 5, (1.0, 0.5, 0.25), 3, 8, 3e-11),
]


def sample_rows(sample):
    return np.concatenate([*sample.arc_points, sample.boundary_pos, sample.boundary_neg])


def message(err):
    """An error's message up to its achieved value."""
    return str(err).split(" (achieved error estimate ")[0]


# the program's budget against the same sum of costs taken from the 160-bit
# terms: a sum of a few dozen nonnegative terms, each within a few roundings
BUDGET_REL = 64 * sys.float_info.epsilon


def normal_bound(data, z):
    """Bound on |dev_program - dev_frozen| for dev = |N(z) - (0, 0, -1)|.
    dev = 2|g| / sqrt(1 + |g|^2) moves by at most 2 / (1 + |g|^2)^(3/2)
    times a change in g, and each g lies within mp_g_value's bound of the
    exact one.  The projection and the norm add a few roundings to each
    deviation, which is at most 2: 6 eps for each of the two."""
    g, bound = oracles.mp_g_value(data, complex(z))
    return 2.0 * 2.0 * bound / (1.0 + abs(g) ** 2) ** 1.5 + 12.0 * sys.float_info.epsilon


class TestSameBitsAsPathEngine:
    """integrate against oracles.integrate_paths, the engine's earlier
    per-path loop with its endpoint cache around the frozen scalar
    antiderivative: within twice the rounding budget, which each meets
    against the 160-bit antiderivative, and the same errors, with budgets
    taken from the 160-bit terms."""

    @pytest.mark.parametrize("alpha,seed,radii,arc,boundary,tol", END_SETS)
    def test_end_sets(self, alpha, seed, radii, arc, boundary, tol):
        # the sampler's values are integrate's, within budget of the 160-bit
        # antiderivative and within twice it of the frozen engine
        pe = W.power_end_data(alpha) if seed is None else perturbed(alpha, seed)
        sample = asymptotics.sample_conjugate_end(pe, radii, arc, boundary, tol)
        got = sample_rows(sample)
        targets = sample_targets(radii, arc, boundary)
        assert bits(got) == bits(integrate(sample.data, 1.0, targets, tol))
        assert_within_budget(sample.data, 1.0, targets, got)
        paths = [IntegrationPath(1.0, z, Route.RADIAL_THEN_ARC) for z in targets]
        want = np.array(oracles.integrate_paths(sample.data, paths, tol))
        _, budgets = oracles.mp_integrate(sample.data, 1.0, targets)
        assert np.all(np.abs(got - want) <= 2.0 * budgets[:, None])

    @pytest.mark.parametrize("alpha,seed", [(3.0, None), (3.0, 1), (3.0, 2), (3.0, 3)])
    def test_same_budget_error(self, alpha, seed):
        # alpha = 3 spends about 1.9e-10 of rounding at 2^-6 (the frozen
        # engine's budget, a twentieth of that, ran out at 2^-8 only) and
        # far more further in: the error is the frozen engine's, with the
        # largest budget of the end, and that budget as tol passes
        pe = W.power_end_data(alpha) if seed is None else perturbed(alpha, seed)
        targets = sample_targets(DEFAULT, 33, 16)
        _, budgets = oracles.mp_integrate(W.conjugate_data(pe), 1.0, targets)
        first = int(np.argmax(budgets > 1e-10))
        assert targets[first] == 2**-6 and budgets[first] > 1e-10
        assert budgets.max() > 10 * budgets[first]
        with pytest.raises(QuadratureError) as old:
            oracles.integrate_paths(W.conjugate_data(pe),
                                    [IntegrationPath(1.0, z) for z in targets])
        with pytest.raises(QuadratureError) as new:
            asymptotics.sample_conjugate_end(pe)
        assert message(new.value) == message(old.value)
        assert new.value.achieved == pytest.approx(budgets.max(), rel=BUDGET_REL)
        asymptotics.sample_conjugate_end(pe, tol=new.value.achieved)

    @pytest.mark.parametrize("alpha,seed,radii,arc,boundary,tol", END_SETS)
    def test_reports(self, alpha, seed, radii, arc, boundary, tol):
        # the slab and normal-limit reports against the frozen one-point-at-a-
        # time check_slab and normal_limit_report on the same sample: the same
        # flags, the fields that take no principal term or normal the same
        # bits, and the others within the rounding of both evaluations
        pe = W.power_end_data(alpha) if seed is None else perturbed(alpha, seed)
        sample = asymptotics.sample_conjugate_end(pe, radii, arc, boundary, tol)
        eps = sys.float_info.epsilon
        got, want = asymptotics.check_slab(sample), oracles.check_slab(sample)
        assert got.passed == want.passed
        assert bits([got.correction_bound, got.boundary_z_spread]) == bits(
            [want.correction_bound, want.boundary_z_spread])
        # each Re(coef log z) within the log term's 2 eps |coef| |log z|,
        # then one rounding of the residual
        coef = W.principal_log_coefficient(sample.data)
        zs = np.array(sample_targets(radii, arc, boundary))
        log_z = np.log(np.abs(zs)) + 1j * np.array([oracles.branch_arg(z) for z in zs])
        slack = 4.0 * eps * abs(coef) * np.abs(log_z).max() + eps * max(abs(got.sup),
                                                                       abs(got.inf))
        assert abs(got.sup - want.sup) <= slack and abs(got.inf - want.inf) <= slack
        assert abs(got.width - want.width) <= 2.0 * slack + eps * want.width
        got, want = asymptotics.normal_limit_report(sample), oracles.normal_limit_report(sample)
        assert got.passed == want.passed
        for rho, a, b in ((radii[0], got.deviation_outer, want.deviation_outer),
                          (radii[-1], got.deviation_inner, want.deviation_inner)):
            assert abs(a - b) <= max(normal_bound(sample.data, rho * np.exp(1j * th))
                                     for th in sample.arc_angles)

    @pytest.mark.parametrize("data,budget_z,overflow_z", [
        (W.power_end_data(2.4), 1e-8 + 0j, 1e-200 + 0j),
        (perturbed(3.0, 1), 2**-8 * 1j, 1e-150 - 0j),
        (W.catenoid_data(1.0), 30.0 + 0j, 1000.0 + 0j),
    ], ids=["power-end", "perturbed", "exponential"])
    def test_error_order(self, data, budget_z, overflow_z):
        # an overflow, which no tol mends, names the error in either order,
        # with the frozen engine's message and an achieved inf; without it
        # the budget error carries the largest budget, the 160-bit one
        z0 = 0.0 if isinstance(data, W.ExponentialData) else 1.0
        _, budgets = oracles.mp_integrate(data, z0, [0.5, budget_z])
        assert budgets[1] > 1e-10 and budgets[1] == budgets.max()
        for targets in ([0.5, budget_z, overflow_z], [0.5, overflow_z, budget_z]):
            with pytest.raises(QuadratureError, match="overflows at z") as new:
                integrate(data, z0, targets, 1e-10)
            with pytest.raises(QuadratureError) as old:
                oracles.integrate_paths(data, [IntegrationPath(z0, overflow_z)])
            assert str(new.value) == str(old.value)
            assert bits(new.value.achieved) == bits(old.value.achieved)
        with pytest.raises(QuadratureError, match="rounding budget") as new:
            integrate(data, z0, [budget_z, 0.5], 1e-10)
        with pytest.raises(QuadratureError) as old:
            oracles.integrate_paths(data, [IntegrationPath(z0, z) for z in (budget_z, 0.5)])
        assert message(new.value) == message(old.value)
        assert new.value.achieved == pytest.approx(budgets[1], rel=BUDGET_REL)


class TestBudgetContract:
    """Every coordinate that integrate returns lies within its rounding
    budget of the 160-bit antiderivative (oracles.mp_integrate).  The end
    sets, the near-overflow window and random endpoints are held to it by
    TestSameBitsAsPathEngine.test_end_sets, TestClosedForm.
    test_cmath_rescaling_window and TestIntegrateSameAsOriginal.
    test_many_paths; here, perturbed ends for every alpha."""

    @pytest.mark.parametrize("alpha", [1 / 3, 1 / 2, 2 / 3, 3 / 2, 5 / 2, 3.0])
    def test_perturbed_seeds(self, alpha):
        # the default targets of 20 perturbed ends, with a tol every budget
        # meets (alpha = 3 exceeds 1e-10)
        targets = sample_targets(DEFAULT, 33, 16)
        for seed in range(3, 23):
            data = W.conjugate_data(perturbed(alpha, seed))
            assert_within_budget(data, 1.0, targets, integrate(data, 1.0, targets, 1e300))


class TestIntegrateSameAsOriginal:
    @pytest.mark.parametrize("route", list(Route))
    def test_single_path_every_route(self, route):
        # the endpoint value is the quadrature along any route
        rng = np.random.default_rng(11)
        for _ in range(8):
            pe = perturbed(float(rng.choice([1 / 3, 0.5, 1.5, 2.0])), int(rng.integers(100)))
            z = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0.0, PI))
            assert_within(integrate(pe, 1.0, [z], 1e-11)[0],
                          oracles.integrate(pe, IntegrationPath(1.0, z, route), 1e-11), 1e-11)
            data = W.ExponentialData(rng.uniform(0.1, 2.0), 1j ** rng.integers(0, 4))
            z0, z = complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-2, 2, 2))
            assert_within(integrate(data, z0, [z])[0],
                          oracles.integrate(data, IntegrationPath(z0, z, route)), 1e-10)

    @pytest.mark.parametrize("data", [
        W.catenoid_data(0.7), W.helicoid_data(-0.2), W.power_end_data(0.5),
        perturbed(2 / 3, 6), W.power_end_data(2.0, g0=1.0, w1=(0.0, 0.03)),
    ], ids=["catenoid", "helicoid", "unperturbed", "perturbed", "integer-alpha"])
    def test_many_paths(self, data):
        # each value of a batch of endpoints lies within its budget of the
        # 160-bit antiderivative, and is the quadrature along a route
        rng = np.random.default_rng(12)
        for _ in range(4):
            z0, targets = random_endpoints(rng, data, 12)
            got = integrate(data, z0, targets, 1e-10)
            assert got.shape == (len(targets), 3)
            assert_within_budget(data, z0, targets, got)
            route = list(Route)[rng.integers(0, 3)]
            for value, z in zip(got, targets):
                path = IntegrationPath(z0, z, route)
                assert_within(value, oracles.integrate(data, path, 1e-10), 1e-10)

    def test_zero_sign_kept_apart(self):
        # targets that differ only in the sign of a zero imaginary part lie
        # on the same side of the cut: they give the same bits, and each
        # matches its own quadrature
        for data, x in ((W.catenoid_data(0.7), 0.5), (W.power_end_data(0.5), 0.5),
                        (W.power_end_data(0.5), -0.5)):
            targets = [complex(x, 0.0), complex(x, -0.0)]
            got = integrate(data, 1.0, targets)
            for value, z in zip(got, targets):
                path = IntegrationPath(1.0, z, Route.RADIAL_THEN_ARC)
                assert_within(value, oracles.integrate(data, path), 1e-10)
            assert bits(got[0]) == bits(got[1])

    def test_same_quadrature_error(self):
        # z^{-17/5} down to |z| = 1e-8: the terms reach about 3e18 with
        # exponents |q log z| near 44, so rounding alone spends about 3.4e4
        # of an absolute tol of 1e-10; a tol above the budget is met
        pe = W.power_end_data(2.4)
        with pytest.raises(QuadratureError):
            oracles.integrate(pe, IntegrationPath(1.0, 1e-8 + 0j))
        _, budgets = oracles.mp_integrate(pe, 1.0, [0.5, 1e-8])
        assert budgets[0] < 1e-10 and 3e4 < budgets[1] < 4e4
        with pytest.raises(QuadratureError, match="rounding budget") as new:
            integrate(pe, 1.0, [0.5, 1e-8])
        assert new.value.achieved == pytest.approx(budgets[1], rel=BUDGET_REL)
        got = integrate(pe, 1.0, [0.5, 1e-8], 4e4)
        assert got.shape == (2, 3)
        assert_within_budget(pe, 1.0, [0.5, 1e-8], got)

    def test_invalid_path_in_batch(self):
        pe = W.power_end_data(0.5)
        with pytest.raises(ValueError, match="outside the closed upper half-disk"):
            integrate(pe, 1.0, [0.5 + 0j, 0.5 - 0.5j])
        assert integrate(pe, 1.0, []).shape == (0, 3)

    @pytest.mark.parametrize("data", [W.catenoid_data(0.7), W.power_end_data(0.5)],
                             ids=["exponential", "power-end"])
    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                     complex(-math.inf, 0.0), complex(0.0, math.inf),
                                     complex(0.5, math.nan)],
                             ids=["nan", "inf", "-inf", "infj", "nanj"])
    @pytest.mark.parametrize("as_base", [True, False], ids=["z0", "target"])
    def test_non_finite_endpoint(self, data, bad, as_base):
        # an input error, named before any budget is spent: the other
        # target, 1000, overflows the exponential data
        other = 1000.0 + 0j if isinstance(data, W.ExponentialData) else 0.5 + 0j
        z0, targets = (bad, [other]) if as_base else (0.5, [other, bad])
        with pytest.raises(ValueError, match="endpoint .* is not finite"):
            integrate(data, z0, targets)

    @pytest.mark.parametrize("data", [W.catenoid_data(0.7), W.power_end_data(0.5)],
                             ids=["exponential", "power-end"])
    def test_chord_through_the_puncture_is_an_endpoint_pair(self, data):
        # only the endpoints count: 0.5 -> -0.5 is valid for both data
        # kinds, whatever the straight route between them would cross
        got = integrate(data, 0.5, [-0.5 + 0j])[0]
        path = IntegrationPath(0.5, -0.5 + 0j, Route.RADIAL_THEN_ARC)
        assert_within(got, oracles.integrate(data, path), 1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tol_domain(self, tol):
        pe = W.power_end_data(0.5)
        with pytest.raises(ValueError, match="tol"):
            integrate(pe, 1.0, [0.5], tol)


# report fields computed from the data alone, never from a sampled point
DATA_ONLY = {".alpha", ".lambda", ".hypotheses.slab.correction_bound",
             ".hypotheses.vertical_normal_limit.deviation_outer",
             ".hypotheses.vertical_normal_limit.deviation_inner",
             ".hypotheses.ray_gap.expected", ".hypotheses.ray_gap.h_half_gap",
             ".hypotheses.ray_gap.h_ruling_gap", ".hypotheses.ray_gap.angle_expected",
             ".decay.radii[]"}


def assert_same_report(got, want, float_tol, path=""):
    """Equal keys, flags, tags, counts and data-only floats; every other
    float within float_tol * max(1, |want|)."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_same_report(got[key], want[key], float_tol, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for a, b in zip(got, want):
            assert_same_report(a, b, float_tol, path + "[]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        if path in DATA_ONLY:
            assert bits(got) == bits(want), path
        else:
            assert abs(got - want) <= float_tol * max(1.0, abs(want)), path
    elif path != ".helicoid_fit.message":
        assert got == want, path


class TestVerifyEndBytes:
    @pytest.mark.parametrize("alpha,seed,args", [
        (1 / 2, None, ["--min-radius-exp", "5", "--arc-samples", "9",
                       "--boundary-samples", "10"]),
        (2 / 3, 7, ["--min-radius-exp", "6", "--tol", "1e-9"]),
        (3 / 2, 8, []),
        (1 / 2, None, ["--min-radius-exp", "4", "--fit-lambda", "2.0"]),
        (0.8, 7, ["--fit-lambda", "0.0984375"]),
    ])
    def test_json_and_csv(self, capsys, monkeypatch, tmp_path, alpha, seed, args):
        pe = W.power_end_data(alpha) if seed is None else perturbed(alpha, seed)
        data = tmp_path / "end.json"
        data.write_text(json.dumps(W.data_to_json(pe)))

        def outputs(tag):
            csv = tmp_path / f"{tag}.csv"
            code = cli.main(["verify-end", str(data), *args, "--csv", str(csv)])
            out = capsys.readouterr().out
            return code, json.loads(out), csv.read_text() if csv.exists() else None

        new = outputs("new")
        monkeypatch.setattr(asymptotics, "sample_conjugate_end",
                            oracles.sample_conjugate_end)
        old = outputs("old")
        assert new[0] == old[0] and new[0] in (0, 1)
        assert_same_report(new[1], old[1], 1e-10)
        assert new[2].splitlines()[0] == old[2].splitlines()[0]
        assert_same_report(csv_doc(new[2]), csv_doc(old[2]), 1e-10)


def csv_doc(text):
    """The decay CSV in the shape of the report's decay section."""
    rows = [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
    return {"decay": {"radii": [r[0] for r in rows], "sup_distance": [r[1] for r in rows]}}


class TestNoQuadratureInSource:
    """Path integrals are closed forms: no module of the program calls
    scipy's quad, imports anything else from scipy.integrate, or defines a
    segment integrator.  (weierstrass still imports quad by name, lazily,
    when the attribute is first read: the benchmark's tracer wraps it.)"""

    def test_ast(self):
        found = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(
                        func, "id", None)
                    if name == "quad":
                        found.append(f"{path.stem}: calls quad")
                elif isinstance(node, ast.ImportFrom) and node.module == "scipy.integrate":
                    found += [f"{path.stem}: imports {alias.name}" for alias in node.names]
                elif isinstance(node, ast.FunctionDef) and path.stem != "emit" and any(
                        word in node.name for word in ("segment", "integrand", "quad")):
                    found.append(f"{path.stem}: defines {node.name}")
        assert found == ["weierstrass: imports quad"]

    def test_only_scipy_import_is_quad(self):
        # helicoid frames are placed in closed form: no scipy.optimize
        found = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    found += [f"{path.stem}: {alias.name}" for alias in node.names
                              if alias.name.split(".")[0] == "scipy"]
                elif (isinstance(node, ast.ImportFrom)
                      and (node.module or "").split(".")[0] == "scipy"):
                    found += [f"{path.stem}: {alias.name}" for alias in node.names]
        assert found == ["weierstrass: quad"]


class TestClosedForm:
    def test_expm1_form(self):
        for w in (1e-17 + 3e-17j, -2e-9 + 1e-9j, 0.3 - 0.2j, -1.7 + 2.9j):
            got = oracles._expm1(w)
            series = w + w * w / 2 + w**3 / 6 + w**4 / 24
            want = series if abs(w) < 1e-6 else cmath.exp(w) - 1.0
            assert abs(got - want) <= 4e-16 * abs(want)

    @pytest.mark.parametrize("offset", [1e-9, -1e-7, 1e-4])
    def test_near_integer_alpha(self, offset):
        # a w1 term gives z^{-alpha}, whose antiderivative z^{1-alpha}/(1-alpha)
        # nearly cancels at both ends; the expm1 form keeps the budget small
        pe = W.power_end_data(1.0 + offset, g0=1.0, w1=(0.01, -0.005))
        for z in (0.3 + 0.4j, -0.05 + 0.01j, 1e-3j):
            assert_within(integrate(pe, 1.0, [z], 1e-10)[0],
                          oracles.integrate(pe, IntegrationPath(1.0, z), 1e-11), 1e-10)

    def test_overflow_is_a_budget_error(self):
        pe = W.power_end_data(2.5)
        with pytest.raises(QuadratureError) as err:
            integrate(pe, 1.0, [1e-200 + 0j])
        assert err.value.achieved == math.inf
        with pytest.raises(QuadratureError):
            integrate(W.catenoid_data(1.0), 0.0, [1000.0 + 0j])

    def test_cmath_rescaling_window(self):
        def window_sets(low, high, exp_high):
            # PowerEnd targets whose largest exponent lies in [low, high), and
            # exponential targets whose |Re z| lies in [low, exp_high)
            for alpha in (2.5, 3.0):
                mags = np.exp(-rng.uniform(low, high, 40) / alpha)
                targets = mags * np.exp(1j * rng.uniform(0.0, PI, 40))
                yield perturbed(alpha, 7), 1.0, list(targets)
            xs = rng.uniform(low, exp_high, 40) * rng.choice([-1.0, 1.0], 40)
            yield exp_data, 0.0, [
                complex(x, y) for x, y in zip(xs, rng.uniform(-9.0, 9.0, 40))]

        # a huge tol lets values near overflow through, below and above
        # log(DBL_MAX / 4), where cmath rescales by e and libm's complex
        # functions scale their own way.  Each value lies within its budget
        # of the 160-bit antiderivative, and g within mp_g_value's bound.
        # The exponential set runs on to 710.4, where exp overflows but cosh
        # and sinh, and so the values, stay finite
        rng, exp_data = np.random.default_rng(13), W.ExponentialData(0.3, 1j)
        log_large = math.log(sys.float_info.max / 4.0)
        for low, high, exp_high in ((707.0, log_large, log_large), (708.5, 709.7, 710.4)):
            for data, z0, targets in window_sets(low, high, exp_high):
                assert_within_budget(data, z0, targets, integrate(data, z0, targets, 1e300))
        for z in (707.5 + 0.25j, 708.3 - 3j, -708.0 + 1j, 708.5 + 0.25j, 709.7 - 3j,
                  -709.0 + 1j):
            want, bound = oracles.mp_g_value(exp_data, z)
            assert abs(W.g_value(exp_data, z) - want) <= bound

    def test_overflow_where_cmath_raises(self):
        # -2 cosh z has finite parts there, but its size overflows: the
        # one-point abs() raised OverflowError, so the array engine names the
        # overflow too, not the infinite budget
        data, big = W.catenoid_data(1.0), complex(709.95, PI / 4)
        for targets in ([0.5 + 0j, big], [big, 0.5 + 0j]):
            with pytest.raises(QuadratureError, match="overflows at z") as new:
                integrate(data, 0.0, targets)
            paths = [IntegrationPath(0.0, z) for z in targets]
            with pytest.raises(QuadratureError) as old:
                oracles.integrate_paths(data, paths)
            assert str(new.value) == str(old.value)
