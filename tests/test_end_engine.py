"""integrate_many and the end sampler against the quadrature engine.

The quadrature engine (tests/oracles.py) integrates every path on its own,
segment by segment with scipy's adaptive quad, one branch power per
monomial.  The program evaluates closed-form antiderivatives once per
distinct endpoint.  Every sampled coordinate must agree with the oracle to
within the tolerance; every value that does not come from an integral
(radii, angles, ray parameters) keeps its bits.
"""

import ast
import cmath
import json
import math
import pathlib

import numpy as np
import pytest

import oracles
from trinoids import asymptotics, cli
from trinoids import weierstrass as W
from trinoids.weierstrass import IntegrationPath, QuadratureError, Route, integrate, integrate_many

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


def assert_close_sample(got, want):
    assert got.data == want.data
    assert bits([got.alpha, got.lam, got.tol, *got.radii]) == bits(
        [want.alpha, want.lam, want.tol, *want.radii])
    for name in ("arc_angles", "boundary_pos_s", "boundary_neg_s"):
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
    """Endpoints at which integrate_many evaluates its antiderivative."""
    points = []
    make = W._antiderivative

    def counting_make(data):
        antiderivative = make(data)

        def counting(z):
            points.append(z)
            return antiderivative(z)

        return counting

    monkeypatch.setattr(W, "_antiderivative", counting_make)
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
        # 2^-8; the closed form can (rounding budget about 5e-11), and the
        # whole pipeline passes there
        pe = W.power_end_data(5 / 2)
        with pytest.raises(QuadratureError):
            oracles.sample_conjugate_end(pe, DEFAULT)
        sample = asymptotics.sample_conjugate_end(pe, DEFAULT)
        assert len(sample.arc_points) == len(DEFAULT)
        report = asymptotics.verify_end(pe)
        assert report.passed and max(report.decay.sup_distance) < 1e-8

    def test_quad_calls(self, monkeypatch):
        # no quadrature at all; one antiderivative evaluation per distinct
        # endpoint: 8 x 33 arc points, 15 new +s targets (2^-8 lies on the
        # innermost arc, and +1 is the base point) and 16 -s targets
        calls = count_quad(monkeypatch)
        points = count_antiderivative(monkeypatch)
        asymptotics.sample_conjugate_end(W.power_end_data(1 / 2))
        assert calls == []
        assert len(points) == len(set(points)) == 295
        assert 1.0 in points


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
            assert_within(integrate(pe, path, 1e-11), oracles.integrate(pe, path, 1e-11), 1e-11)
            data = W.ExponentialData(rng.uniform(0.1, 2.0), 1j ** rng.integers(0, 4))
            path = IntegrationPath(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-2, 2, 2)),
                                   route)
            assert_within(integrate(data, path), oracles.integrate(data, path), 1e-10)

    @pytest.mark.parametrize("data", [
        W.catenoid_data(0.7), W.helicoid_data(-0.2), W.power_end_data(0.5),
        perturbed(2 / 3, 6), W.power_end_data(2.0, g0=1.0, w1=(0.0, 0.03)),
    ], ids=["catenoid", "helicoid", "unperturbed", "perturbed", "integer-alpha"])
    def test_many_paths(self, data):
        # a path in a batch gives the same bits as on its own
        paths = random_paths(np.random.default_rng(12), data, 12)
        got = integrate_many(data, paths, 1e-10)
        assert len(got) == len(paths)
        for value, path in zip(got, paths):
            assert bits(value) == bits(integrate(data, path, 1e-10))
            assert_within(value, oracles.integrate(data, path, 1e-10), 1e-10)

    def test_zero_sign_kept_apart(self, monkeypatch):
        # targets that differ only in the sign of a zero imaginary part lie
        # on the same side of the cut: one evaluation serves both, and each
        # matches its own quadrature
        points = count_antiderivative(monkeypatch)
        for data, x in ((W.catenoid_data(0.7), 0.5), (W.power_end_data(0.5), 0.5),
                        (W.power_end_data(0.5), -0.5)):
            paths = [IntegrationPath(1.0, complex(x, 0.0), Route.RADIAL_THEN_ARC),
                     IntegrationPath(1.0, complex(x, -0.0), Route.RADIAL_THEN_ARC)]
            points.clear()
            got = integrate_many(data, paths)
            assert len(points) == 2
            for value, path in zip(got, paths):
                assert_within(value, oracles.integrate(data, path), 1e-10)
            assert bits(got[0]) == bits(got[1])

    def test_same_quadrature_error(self):
        # z^{-17/5} down to |z| = 1e-8: the terms reach about 3e18, so
        # rounding alone spends about 7e2 of an absolute tol of 1e-10
        pe = W.power_end_data(2.4)
        paths = [IntegrationPath(1.0, 0.5 + 0j), IntegrationPath(1.0, 1e-8 + 0j)]
        with pytest.raises(QuadratureError):
            oracles.integrate(pe, paths[1])
        with pytest.raises(QuadratureError, match="rounding budget") as new:
            integrate_many(pe, paths)
        assert 5e2 < new.value.achieved < 1e3
        assert integrate_many(pe, paths, 1e3)[1].shape == (3,)

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
    segment integrator.  (weierstrass still imports quad by name: the
    benchmark's tracer wraps that attribute.)"""

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
            got = W._expm1(w)
            series = w + w * w / 2 + w**3 / 6 + w**4 / 24
            want = series if abs(w) < 1e-6 else cmath.exp(w) - 1.0
            assert abs(got - want) <= 4e-16 * abs(want)

    @pytest.mark.parametrize("offset", [1e-9, -1e-7, 1e-4])
    def test_near_integer_alpha(self, offset):
        # a w1 term gives z^{-alpha}, whose antiderivative z^{1-alpha}/(1-alpha)
        # nearly cancels at both ends; the expm1 form keeps the budget small
        pe = W.power_end_data(1.0 + offset, g0=1.0, w1=(0.01, -0.005))
        for z in (0.3 + 0.4j, -0.05 + 0.01j, 1e-3j):
            path = IntegrationPath(1.0, z)
            assert_within(integrate(pe, path, 1e-10), oracles.integrate(pe, path, 1e-11),
                          1e-10)

    def test_overflow_is_a_budget_error(self):
        pe = W.power_end_data(2.5)
        with pytest.raises(QuadratureError) as err:
            integrate(pe, IntegrationPath(1.0, 1e-200 + 0j))
        assert err.value.achieved == math.inf
        with pytest.raises(QuadratureError):
            integrate(W.catenoid_data(1.0), IntegrationPath(0.0, 1000.0 + 0j))
