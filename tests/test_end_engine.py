"""integrate_many and the end sampler against the original engine.

The original (tests/oracles.py) integrates every path on its own and takes
one branch power per monomial.  The engine integrates segments shared by
several paths once per call and takes the branch log once per node; every
array must carry the same bits and every CLI output the same bytes.
"""

import json
import math

import numpy as np
import pytest

import oracles
from trinoids import asymptotics, cli
from trinoids import weierstrass as W
from trinoids.weierstrass import IntegrationPath, QuadratureError, Route, integrate, integrate_many

DEFAULT = asymptotics.DEFAULT_RADII
SHORT = tuple(0.5**k for k in range(1, 6))
PI = math.pi


def bits(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    return a.shape, a.view(np.uint64).tobytes()


def perturbed(alpha, seed):
    rng = np.random.default_rng(seed)
    return W.power_end_data(alpha, g0=1.0, g1=tuple(rng.uniform(-0.01, 0.01, 2)),
                            w1=tuple(rng.uniform(-0.01, 0.01, 2)))


def assert_same_sample(got, want):
    assert got.data == want.data
    assert bits([got.alpha, got.lam, got.tol, *got.radii]) == bits(
        [want.alpha, want.lam, want.tol, *want.radii])
    for name in ("arc_angles", "boundary_pos_s", "boundary_pos", "boundary_neg_s",
                 "boundary_neg"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert len(got.arc_points) == len(want.arc_points)
    for a, b in zip(got.arc_points, want.arc_points):
        assert bits(a) == bits(b)


def count_quad(monkeypatch):
    calls = []
    quad = W.quad

    def counting(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(W, "quad", counting)
    return calls


class TestSampleSameAsOriginal:
    @pytest.mark.parametrize("alpha,radii", [
        (1 / 3, DEFAULT), (1 / 2, DEFAULT), (2 / 3, DEFAULT), (3 / 2, DEFAULT),
        (5 / 2, SHORT),
    ])
    def test_unperturbed(self, alpha, radii):
        pe = W.power_end_data(alpha)
        assert_same_sample(asymptotics.sample_conjugate_end(pe, radii),
                           oracles.sample_conjugate_end(pe, radii))

    @pytest.mark.parametrize("alpha,seed,radii", [
        (1 / 3, 1, DEFAULT), (3 / 2, 2, DEFAULT), (2 / 3, 3, SHORT), (5 / 2, 4, SHORT),
    ])
    def test_perturbed(self, alpha, seed, radii):
        pe = perturbed(alpha, seed)
        assert_same_sample(asymptotics.sample_conjugate_end(pe, radii),
                           oracles.sample_conjugate_end(pe, radii))

    @pytest.mark.parametrize("radii,arc,boundary,tol", [
        ((0.9, 0.4, 0.1, 0.03), 7, 9, 1e-10),
        (SHORT, 9, 10, 1e-8),
        (SHORT, 4, 2, 1e-12),
        ((1.0, 0.5, 0.25), 3, 8, 3e-11),
    ])
    def test_non_default_sampling(self, radii, arc, boundary, tol):
        pe = perturbed(1 / 2, 5)
        assert_same_sample(asymptotics.sample_conjugate_end(pe, radii, arc, boundary, tol),
                           oracles.sample_conjugate_end(pe, radii, arc, boundary, tol))

    def test_same_quadrature_error(self):
        pe = W.power_end_data(5 / 2)
        with pytest.raises(QuadratureError) as old:
            oracles.sample_conjugate_end(pe, DEFAULT)
        with pytest.raises(QuadratureError) as new:
            asymptotics.sample_conjugate_end(pe, DEFAULT)
        assert str(new.value) == str(old.value)
        assert bits(new.value.achieved) == bits(old.value.achieved)

    def test_quad_calls(self, monkeypatch):
        # 8 radii x 34 distinct segments, 14 new +s legs and 29 new -s
        # segments, each for 3 components; the original made 1,698
        calls = count_quad(monkeypatch)
        asymptotics.sample_conjugate_end(W.power_end_data(1 / 2))
        assert len(calls) == 945


def random_paths(rng, data, n):
    """Paths on all three routes, some sharing legs and some repeated."""
    power = isinstance(data, W.PowerEndData)
    paths = []
    for _ in range(n):
        if power:
            z0 = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.2, 1.0) * np.exp(
                1j * rng.uniform(0.0, PI))
            z = rng.choice([0.5, 0.25, rng.uniform(0.05, 1.0)]) * np.exp(
                1j * rng.uniform(0.0, PI))
        else:
            z0 = 0.0 if rng.uniform() < 0.5 else complex(*rng.uniform(-1, 1, 2))
            z = complex(*rng.uniform(-2, 2, 2))
        route = list(Route)[rng.integers(0, 3)]
        paths.append(IntegrationPath(z0, z, route))
    return paths + paths[:3]


class TestIntegrateSameAsOriginal:
    @pytest.mark.parametrize("route", list(Route))
    def test_single_path_every_route(self, route):
        rng = np.random.default_rng(11)
        for _ in range(8):
            pe = perturbed(float(rng.choice([1 / 3, 0.5, 1.5, 2.0])), int(rng.integers(100)))
            z = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0.0, PI))
            path = IntegrationPath(1.0, z, route)
            assert bits(integrate(pe, path, 1e-11)) == bits(oracles.integrate(pe, path, 1e-11))
            data = W.ExponentialData(rng.uniform(0.1, 2.0), 1j ** rng.integers(0, 4))
            path = IntegrationPath(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-2, 2, 2)),
                                   route)
            assert bits(integrate(data, path)) == bits(oracles.integrate(data, path))

    @pytest.mark.parametrize("data", [
        W.catenoid_data(0.7), W.helicoid_data(-0.2), W.power_end_data(0.5),
        perturbed(2 / 3, 6), W.power_end_data(2.0, g0=1.0, w1=(0.0, 0.03)),
    ], ids=["catenoid", "helicoid", "unperturbed", "perturbed", "integer-alpha"])
    def test_many_paths(self, data):
        paths = random_paths(np.random.default_rng(12), data, 12)
        got = integrate_many(data, paths, 1e-10)
        assert len(got) == len(paths)
        for value, path in zip(got, paths):
            assert bits(value) == bits(oracles.integrate(data, path, 1e-10))

    def test_zero_sign_kept_apart(self, monkeypatch):
        # the two targets differ only in the sign of a zero imaginary part
        data = W.catenoid_data(0.7)
        paths = [IntegrationPath(0j, complex(0.5, 0.0), Route.STRAIGHT),
                 IntegrationPath(0j, complex(0.5, -0.0), Route.STRAIGHT)]
        calls = count_quad(monkeypatch)
        got = integrate_many(data, paths)
        assert len(calls) == 6
        for value, path in zip(got, paths):
            assert bits(value) == bits(oracles.integrate(data, path))

    def test_same_quadrature_error(self):
        pe = W.power_end_data(2.4)
        paths = [IntegrationPath(1.0, 0.5 + 0j), IntegrationPath(1.0, 1e-8 + 0j)]
        with pytest.raises(QuadratureError) as old:
            oracles.integrate(pe, paths[1])
        with pytest.raises(QuadratureError) as new:
            integrate_many(pe, paths)
        assert str(new.value) == str(old.value)

    def test_invalid_path_in_batch(self):
        pe = W.power_end_data(0.5)
        with pytest.raises(ValueError):
            integrate_many(pe, [IntegrationPath(1.0, 0.5 + 0j),
                                IntegrationPath(1.0, 0.5 - 0.5j)])
        assert integrate_many(pe, []) == []

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tol_domain(self, tol):
        pe = W.power_end_data(0.5)
        path = IntegrationPath(1.0, 0.5 + 0j)
        with pytest.raises(ValueError, match="tol"):
            integrate(pe, path, tol)
        with pytest.raises(ValueError, match="tol"):
            integrate_many(pe, [path], tol)


class TestVerifyEndBytes:
    @pytest.mark.parametrize("alpha,seed,args", [
        (1 / 2, None, ["--min-radius-exp", "5", "--arc-samples", "9",
                       "--boundary-samples", "10"]),
        (2 / 3, 7, ["--min-radius-exp", "6", "--tol", "1e-9"]),
        (3 / 2, 8, []),
        (1 / 2, None, ["--min-radius-exp", "4", "--fit-lambda", "2.0"]),
    ])
    def test_json_and_csv(self, capsys, monkeypatch, tmp_path, alpha, seed, args):
        pe = W.power_end_data(alpha) if seed is None else perturbed(alpha, seed)
        data = tmp_path / "end.json"
        data.write_text(json.dumps(W.data_to_json(pe)))

        def outputs(tag):
            csv = tmp_path / f"{tag}.csv"
            code = cli.main(["verify-end", str(data), *args, "--csv", str(csv)])
            out = capsys.readouterr().out
            return code, out, csv.read_bytes() if csv.exists() else None

        new = outputs("new")
        monkeypatch.setattr(asymptotics, "sample_conjugate_end",
                            oracles.sample_conjugate_end)
        old = outputs("old")
        assert new == old
        assert new[0] in (0, 1) and new[1]
