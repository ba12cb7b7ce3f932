import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from trinoids import cli, surfaces
from trinoids import weierstrass as W
from trinoids.emit import dump_json

PI = math.pi


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_program(*argv):
    """Run the command line as a program, so that any warning reaches stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "trinoids.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


class TestClassify:
    def test_generic(self, capsys):
        code, out, _ = run(capsys, "classify", "1.5707963", "1.5707963", "1.5707963")
        assert code == 0
        doc = json.loads(out)
        oracles.validate_against_schema(doc, "classify.schema.json")
        assert doc["tag"] == "GenericAdmissible"
        assert len(doc["slacks"]) == 4

    def test_inadmissible(self, capsys):
        code, out, _ = run(capsys, "classify", "0.314159", "0.314159", "0.314159")
        assert code == 1
        assert json.loads(out)["tag"] == "Inadmissible"

    def test_near_pi_degenerate(self, capsys):
        code, out, _ = run(capsys, "classify", "3.14159265358979", "1", "1")
        assert code == 1
        assert json.loads(out)["tag"] == "DegenerateMultipleOfPi"

    def test_degrees_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--degrees", "90", "90", "90")
        assert code == 0
        assert json.loads(out)["reduced"] == pytest.approx([PI / 2] * 3)

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "classify", "ninety", "1", "1")
        assert code == 2
        assert "error" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "classify", "-1", "1", "1")
        assert code == 2

    @pytest.mark.parametrize("phi,eps", [
        (("1.0", "1.2", "1.4"), "1e-12"),
        (("0.314159", "0.314159", "0.314159"), "1e-12"),
        (("3.14159265358979", "1", "1"), "1e-12"),
        ((repr(PI / 2), repr(PI / 4), repr(PI / 4)), "1e-12"),
        ((repr(PI / 2), repr(PI / 4), repr(PI / 4)), "0"),
        (("7.5", "2.2", "10.1"), "1e-3"),
        (("20.25", "0.01", "6.2"), "0"),
    ])
    def test_same_document_as_original(self, capsys, tmp_path, phi, eps):
        path = tmp_path / "c.json"
        code, out, _ = run(capsys, "classify", *phi, "--eps-face", eps, "--json", str(path))
        doc = oracles.classify_doc([float(p) for p in phi], float(eps))
        assert out == dump_json(doc)
        assert path.read_text() == out
        assert code == (0 if doc["tag"] == "GenericAdmissible" else 1)


    @pytest.mark.parametrize("command", ["classify", "constellation"])
    @pytest.mark.parametrize("eps", ["nan", "-1", "-0.5", "inf"])
    def test_bad_eps_face(self, capsys, tmp_path, command, eps):
        out_json = tmp_path / "out.json"
        code, out, err = run(capsys, command, "1", "1", "1", "--eps-face", eps,
                             "--json", str(out_json))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --eps-face must lie in [0, inf)")
        assert err.count("\n") == 1
        assert not out_json.exists()


PARAMETER_NAMES = {"phi": "phi", "mu": "mu", "bps": "lambda_bps"}


class TestConvert:
    def test_from_lambda(self, capsys):
        code, out, _ = run(capsys, "convert", "--from", "lambda", "0.75")
        assert code == 0
        doc = json.loads(out)
        oracles.validate_against_schema(doc, "convert.schema.json")
        assert doc["phi"] == pytest.approx(PI / 2)
        assert doc["mu_bryant"] == pytest.approx(-0.25)
        assert doc["lambda_bps"] == pytest.approx(0.25)
        assert doc["total_curvature"] == pytest.approx(-2 * PI)
        assert doc["h_half_gap"] == pytest.approx(3 * PI / 8)
        assert doc["h_ruling_gap"] == pytest.approx(3 * PI / 4)

    def test_from_bps(self, capsys):
        code, out, _ = run(capsys, "convert", "--from", "bps", "1")
        assert code == 0
        assert json.loads(out)["lambda"] == pytest.approx(-3 / 16)

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "convert", "--from", "lambda", "0")
        assert code == 2

    @pytest.mark.parametrize("source,value", [("phi", "1e-200"), ("bps", "3.2754355451562094e-240"),
                                              ("phi", "1e-160"), ("bps", "1e-161"),
                                              ("phi", "5e-324")])
    def test_tiny_angle(self, capsys, source, value):
        # the message names the parameter the user passed, not the angle
        code, out, err = run(capsys, "convert", "--from", source, value)
        assert code == 2
        assert out == ""
        name = PARAMETER_NAMES[source]
        assert err == f"error: {name} = {float(value)} is too small: lambda({name}) overflows\n"

    @pytest.mark.parametrize("source,value,phi", [
        ("phi", "1e10", "10000000000.0"),
        ("phi", "1e200", "1e+200"),
        ("phi", "1e154", "1e+154"),
        ("mu", "1e200", repr(PI * (2e200 + 1))),
        ("bps", "1e10", repr(2 * PI * 1e10)),
    ])
    def test_huge_angle(self, capsys, tmp_path, source, value, phi):
        # the message used to blame "lambda ... got -0.25" or "got nan", and
        # then the computed angle phi for mu and bps
        path = tmp_path / "out.json"
        code, out, err = run(capsys, "convert", "--from", source, value, "--json", str(path))
        assert code == 2
        assert out == "" and not path.exists()
        name = PARAMETER_NAMES[source]
        assert err == f"error: {name} = {float(value)} is too large: lambda({name}) rounds to -1/4\n"
        assert source == "phi" or phi not in err

    @pytest.mark.parametrize("value,phi", [("1e308", "inf"), ("1e-20", repr(PI))])
    def test_mu_angle_out_of_range(self, capsys, value, phi):
        # 2*mu + 1 overflows, or rounds to 1 so that the angle is pi
        code, out, err = run(capsys, "convert", "--from", "mu", value)
        assert code == 2 and out == ""
        assert err == (f"error: mu = {float(value)} gives the end angle {phi}, "
                       "outside (0, inf) \\ {pi}\n")

    def test_infinite_lambda(self, capsys):
        code, out, err = run(capsys, "convert", "--from", "lambda", "inf")
        assert code == 2
        assert out == ""
        assert err == "error: lambda must lie in (-1/4, inf) \\ {0}, got inf\n"

    @pytest.mark.parametrize("source,name", [("phi", "phi"), ("mu", "mu"), ("bps", "lambda_bps")])
    def test_infinite_value(self, capsys, source, name):
        code, out, err = run(capsys, "convert", "--from", source, "inf")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} must lie in (") and err.endswith(", got inf\n")

    @pytest.mark.parametrize("source,value", [("lambda", "1e32"),
                                              ("lambda", "2.588802401840145e+75"),
                                              ("bps", "6.334363284340853e-96")])
    def test_mu_rounds_to_minus_half(self, capsys, tmp_path, source, value):
        path = tmp_path / "out.json"
        code, out, err = run(capsys, "convert", "--from", source, value, "--json", str(path))
        assert code == 2
        assert out == "" and not path.exists()
        assert err.startswith("error: lambda = ") and "too large" in err and err.count("\n") == 1

    def test_largest_lambda(self, capsys):
        code, out, _ = run(capsys, "convert", "--from", "lambda", "1e31")
        assert code == 0
        assert out == (
            '{\n  "a": 6324555320336759.0,\n  "bobenko_delta": 7.905694150420947e-17,\n'
            '  "h_half_gap": 4967294132898051.0,\n  "h_ruling_gap": 9934588265796102.0,\n'
            '  "lambda": 1e+31,\n  "lambda_bps": 7.905694150420947e-17,\n'
            '  "mu_bryant": -0.49999999999999994,\n  "phi": 4.96729413289805e-16,\n'
            '  "reduced_angle": 4.96729413289805e-16,\n  "total_curvature": -1.98691765315922e-15\n}\n'
        )


class TestSurface:
    def test_obj_counts(self, capsys, tmp_path):
        obj = tmp_path / "h.obj"
        code, _, _ = run(capsys, "surface", "helicoid", "1",
                         "--nx", "21", "--ny", "21", "--obj", str(obj))
        assert code == 0
        text = obj.read_text()
        assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 441
        assert sum(1 for l in text.splitlines() if l.startswith("f ")) == 400
        assert sum(1 for l in text.splitlines() if l.startswith("vn ")) == 441

    def test_refuses_overwrite(self, capsys, tmp_path):
        obj = tmp_path / "h.obj"
        run(capsys, "surface", "helicoid", "1", "--obj", str(obj))
        first = obj.read_text()
        code, _, err = run(capsys, "surface", "helicoid", "1", "--nx", "5", "--obj", str(obj))
        assert code == 2
        assert "force" in err
        assert obj.read_text() == first
        code, _, _ = run(capsys, "surface", "helicoid", "1", "--obj", str(obj), "--force")
        assert code == 0

    def test_cousin_csv_w_positive(self, capsys, tmp_path):
        # by default y runs over one period of the cousin, in either model
        for lam in ("0.75", "-0.2", "10", "-0.2499999"):
            for model in ("halfspace", "ball"):
                csv = tmp_path / f"c_{lam}_{model}.csv"
                code, _, _ = run(capsys, "surface", "cousin", lam, "--model", model,
                                 "--csv", str(csv))
                assert code == 0
                rows = csv.read_text().splitlines()
                assert rows[0] == "x,y,px,py,pz,nx,ny,nz"
                assert rows[-1].split(",")[1] == "%.17g" % surfaces.cousin_period(float(lam))
                if model == "halfspace":
                    w = np.array([float(r.split(",")[4]) for r in rows[1:]])
                    assert np.all(w > 0)

    def test_ball_model(self, capsys, tmp_path):
        csv = tmp_path / "b.csv"
        code, _, _ = run(capsys, "surface", "cousin", "0.75", "--model", "ball",
                         "--csv", str(csv))
        assert code == 0
        rows = csv.read_text().splitlines()[1:]
        pts = np.array([[float(x) for x in r.split(",")[2:5]] for r in rows])
        assert np.all(np.linalg.norm(pts, axis=1) < 1.0)

    def test_bad_lambda(self, capsys, tmp_path):
        code, _, _ = run(capsys, "surface", "catenoid", "0",
                         "--obj", str(tmp_path / "x.obj"))
        assert code == 2

    def test_infinite_lambda(self, capsys, tmp_path):
        obj = tmp_path / "x.obj"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "surface", "helicoid", "inf", "--obj", str(obj))
        assert code == 2
        assert out == ""
        assert err == "error: lambda must lie in (-1/4, inf) \\ {0}, got inf\n"
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not obj.exists()

    @pytest.mark.parametrize("kind,lam,extra", [
        ("cousin", "1", ["--xmin", "-1000", "--xmax", "1000"]),
        ("cousin", "1", ["--xmin", "0", "--xmax", "1000"]),
        ("cousin", "0.75", ["--ymax", "1e308"]),
        ("cousin", "1", ["--xmin", "0", "--xmax", "1000", "--model", "ball"]),
        ("catenoid", "1", ["--xmin", "-1000", "--xmax", "1000"]),
        ("helicoid", "1", ["--xmin", "-1000", "--xmax", "1000"]),
        ("catenoid", "0.3", ["--xmin=-800", "--xmax=-700"]),
        ("helicoid", "0.3", ["--xmin=-800", "--xmax=-700"]),
    ])
    def test_out_of_range_domain(self, capsys, tmp_path, kind, lam, extra):
        obj = tmp_path / "x.obj"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "surface", kind, lam, *extra, "--obj", str(obj))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "too large for this lambda" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not obj.exists()

    @pytest.mark.parametrize("kind, lam, bounds", [
        ("catenoid", "1", ["--xmin", "400", "--xmax", "401", "--nx", "3", "--ny", "3"]),
        ("catenoid", "0.3", ["--xmin=-700", "--xmax=700"]),
        ("helicoid", "0.3", ["--xmin=-700", "--xmax=700"]),
    ])
    def test_far_minimal_normals_exact(self, capsys, tmp_path, kind, lam, bounds):
        # |g|^2 overflows here; the exact normals are still unit vectors
        csv = tmp_path / "c.csv"
        code, out, err = run(capsys, "surface", kind, lam, *bounds, "--csv", str(csv))
        assert (code, err) == (0, "")
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows))
        normals = rows[:, 5:]
        assert np.all(np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= 1e-15)
        assert np.abs(normals - oracles.minimal_normal(rows[:, 0], rows[:, 1])).max() <= 1e-14

    @pytest.mark.parametrize("lam, bounds", [("0.3", ["--xmin=-300", "--xmax=300"]),
                                             ("1e-200", [])])
    def test_far_and_tiny_cousin(self, capsys, tmp_path, lam, bounds):
        csv = tmp_path / "c.csv"
        code, out, err = run(capsys, "surface", "cousin", lam, *bounds, "--csv", str(csv))
        assert (code, err) == (0, "")
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows)) and np.all(rows[:, 4] > 0)
        assert np.all(np.abs(np.linalg.norm(rows[:, 5:], axis=1) - 1.0) <= 1e-15)

    @pytest.mark.parametrize("flag", ["--xmin", "--xmax", "--ymin", "--ymax"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_bounds(self, capsys, tmp_path, flag, value):
        obj = tmp_path / "x.obj"
        code, out, err = run(capsys, "surface", "cousin", "0.75", f"{flag}={value}",
                             "--obj", str(obj))
        assert code == 2
        assert err == f"error: {flag} must be finite, got {float(value)}\n"
        assert not obj.exists()

    def test_no_output_requested(self, capsys):
        code, _, err = run(capsys, "surface", "catenoid", "1")
        assert code == 2

    def test_unwritable_path(self, capsys, tmp_path):
        target = tmp_path / "a_directory"
        target.mkdir()
        missing = tmp_path / "no_such_directory" / "x.obj"
        for path in (target, missing):
            errors = []
            for _ in range(2):
                code, out, err = run(capsys, "surface", "helicoid", "1", "--nx", "3", "--ny", "3",
                                     "--obj", str(path), "--force")
                assert code == 2
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1
                errors.append(err)
            # the message names the requested path, not a temporary file
            assert errors[0] == errors[1]
            assert repr(str(path)) in err
            assert ".tmp" not in err
        assert target.is_dir()
        assert not missing.parent.exists()
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("nx,ny", [(0, 21), (1, 21), (21, 1), (-3, 2)])
    def test_grid_too_small(self, capsys, tmp_path, nx, ny):
        obj = tmp_path / "x.obj"
        code, out, err = run(capsys, "surface", "helicoid", "1", "--nx", str(nx),
                             "--ny", str(ny), "--obj", str(obj))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not obj.exists()


class TestConstellation:
    def test_right_triple(self, capsys, tmp_path):
        obj = tmp_path / "lines.obj"
        code, out, _ = run(capsys, "constellation", repr(PI / 2), repr(PI / 2),
                           repr(PI / 2), "--emit-obj", str(obj))
        assert code == 0
        doc = json.loads(out)
        oracles.validate_against_schema(doc, "constellation.schema.json")
        assert doc["count"] == 2
        assert doc["solutions"][0]["residuals"]["max"] < 1e-9
        text = obj.read_text()
        assert sum(1 for l in text.splitlines() if l.startswith("l ")) == 6

    def test_huge_angle(self, capsys):
        code, out, err = run(capsys, "constellation", "1e10", "1.3", "1.9")
        assert code == 2
        assert out == ""
        assert err == "error: phi = 10000000000.0 is too large: lambda(phi) rounds to -1/4\n"

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "constellation", "0.3", "0.3", "0.3")
        assert code == 1
        assert json.loads(out)["count"] == 0

    def test_patch_meshes(self, capsys, tmp_path):
        obj = tmp_path / "patched.obj"
        code, _, _ = run(capsys, "constellation", "1.6", "1.6", "1.6",
                         "--emit-obj", str(obj), "--patches")
        assert code == 0
        text = obj.read_text()
        assert sum(1 for l in text.splitlines() if l.startswith("l ")) == 6
        assert sum(1 for l in text.splitlines() if l.startswith("f ")) == 6 * 8 * 24

    @pytest.mark.parametrize("box", ["-1", "0", "nan", "inf"])
    def test_bad_box(self, capsys, tmp_path, box):
        obj, out_json = tmp_path / "f.obj", tmp_path / "f.json"
        code, out, err = run(capsys, "constellation", "1.6", "1.6", "1.6", "--box", box,
                             "--emit-obj", str(obj), "--json", str(out_json))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --box must lie in (0, inf)") and err.count("\n") == 1
        assert not obj.exists() and not out_json.exists()

    @pytest.mark.parametrize("phis,message", [
        # az^2 rounds to 0 in the direction solve
        ((10.317739843205928, 5.390223438069138, 6.283185291196566),
         "error: direction solve degenerate (az^2 = 0.0); triple too close to the boundary"),
        # r3 = 6.4e-11: its cosine does not resolve it, so the angles miss by 1e-8
        ((11.464746421549728, 8.323153767955947, 6.283185307243696),
         "error: direction solve cannot resolve reduced angle r3 = 6.411e-11"),
    ])
    def test_too_close_to_the_boundary(self, capsys, tmp_path, phis, message):
        out_json = tmp_path / "k.json"
        code, out, err = run(capsys, "constellation", *map(repr, phis), "--json", str(out_json))
        assert code == 2 and out == ""
        assert err.startswith(message) and err.count("\n") == 1
        assert not out_json.exists()

    def test_tiny_angle_solved(self, capsys):
        # r3 = 6.6e-4: the feet lie 2e7 out, where one ulp (3.7e-9) exceeds
        # the absolute 1e-9, so only a scale-relative check passes this triple
        phis = (3.877899969905752, 0.7356678654614176, 0.0006582943895908233)
        code, out, _ = run(capsys, "constellation", *map(repr, phis))
        doc = json.loads(out)
        oracles.validate_against_schema(doc, "constellation.schema.json")
        assert code == 0 and doc["count"] == 2
        assert max(s["residuals"]["max"] for s in doc["solutions"]) >= 1e-9

    def test_internal_error_exit(self, capsys, monkeypatch):
        from trinoids.constellation import ConstellationSolveError

        def boom(*args, **kwargs):
            raise ConstellationSolveError("forced")

        monkeypatch.setattr(cli.constellation, "solve_constellations", boom)
        code, _, err = run(capsys, "constellation", "1.6", "1.6", "1.6")
        assert code == 3
        assert "internal" in err


@pytest.mark.parametrize("exc", [KeyError("boom"), TypeError("unsupported operand"),
                                 ZeroDivisionError("float division by zero"),
                                 RuntimeError("two\nlines")])
def test_unexpected_exception_exits_3(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_classify", fail)
    code, out, err = run(capsys, "classify", "1", "1", "1")
    assert code == 3
    assert out == ""
    assert err == f"internal error: {type(exc).__name__}: {' '.join(str(exc).splitlines())}\n"
    assert "Traceback" not in err


def _with_fifth_bobenko_slack(monkeypatch):
    real = cli.classify.inequality_slacks
    monkeypatch.setattr(cli.classify, "inequality_slacks",
                        lambda *a: [*real(*a), 0.0] if a[-1] == 0.5 else real(*a))


def _with_extra_solution_key(monkeypatch):
    real = cli.constellation.constellation_to_json
    monkeypatch.setattr(cli.constellation, "constellation_to_json",
                        lambda *a: {**real(*a), "extra": 1})


@pytest.mark.parametrize("argv,fault,pointer", [
    (["classify", "1", "1.2", "1.4"], _with_fifth_bobenko_slack,
     "classify.schema.json: #/bobenko_slacks: ["),
    (["constellation", "1.6", "1.6", "1.6"], _with_extra_solution_key,
     "constellation.schema.json: #/solutions/0: {"),
])
def test_output_breaking_its_schema_exits_3(capsys, monkeypatch, tmp_path, argv, fault, pointer):
    """A document that breaks its schema is a fault of the program: exit 3
    with one line, and nothing on stdout or in the JSON file."""
    fault(monkeypatch)
    path = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--json", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: SchemaViolation: {pointer}") and err.count("\n") == 1
    assert not path.exists()


class TestVerifyEnd:
    def make_data_file(self, tmp_path, **kwargs):
        pe = W.power_end_data(kwargs.pop("alpha", 0.5), **kwargs)
        path = tmp_path / "end.json"
        path.write_text(json.dumps(W.data_to_json(pe)))
        return path

    def test_unperturbed(self, capsys, tmp_path):
        path = self.make_data_file(tmp_path)
        csv = tmp_path / "decay.csv"
        code, out, _ = run(capsys, "verify-end", str(path), "--min-radius-exp", "5",
                           "--arc-samples", "9", "--boundary-samples", "10",
                           "--csv", str(csv))
        assert code == 0
        doc = json.loads(out)
        oracles.validate_against_schema(doc, "verify_end.schema.json")
        assert doc["pass"] is True
        assert max(doc["decay"]["sup_distance"]) < 1e-8
        assert csv.read_text().startswith("radius,sup_distance")

    def test_perturbed(self, capsys, tmp_path):
        path = self.make_data_file(tmp_path, g1=(0.01,), w1=(0.005,))
        code, out, _ = run(capsys, "verify-end", str(path), "--min-radius-exp", "6",
                           "--arc-samples", "9", "--boundary-samples", "10")
        assert code == 0
        doc = json.loads(out)
        sups = doc["decay"]["sup_distance"]
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert doc["hypotheses"]["ray_gap"]["matches_convention"] == "ruling-gap"

    def test_mismatched_lambda_names_fit_failure(self, capsys, tmp_path):
        path = self.make_data_file(tmp_path)
        code, out, _ = run(capsys, "verify-end", str(path), "--min-radius-exp", "5",
                           "--arc-samples", "9", "--boundary-samples", "10",
                           "--fit-lambda", "2.0")
        assert code == 1
        doc = json.loads(out)
        assert "helicoid-fit" in doc["failed"]
        assert doc["helicoid_fit"]["pass"] is False

    def test_tol_below_rounding_budget(self, capsys, tmp_path):
        # the closed-form integrals cannot meet 1e-300: an input error
        path = self.make_data_file(tmp_path)
        out_json, out_csv = tmp_path / "out.json", tmp_path / "out.csv"
        code, out, err = run(capsys, "verify-end", str(path), "--tol", "1e-300",
                             "--json", str(out_json), "--csv", str(out_csv))
        assert code == 2
        assert out == "" and not out_json.exists() and not out_csv.exists()
        assert err.startswith("error: --tol 1e-300 is below the rounding budget ")
        assert err.endswith(" of the integrals for these data and radii\n")
        assert err.count("\n") == 1
        # a tight tol that the budget meets still passes
        code, _, err = run(capsys, "verify-end", str(path), "--tol", "1e-14",
                           "--min-radius-exp", "5")
        assert code == 0 and err == ""

    @pytest.mark.parametrize("tol", ["1e-10", "2e-10", "5e-10", "8e-10"])
    def test_named_budget_passes_as_tol(self, capsys, tmp_path, tol):
        # the error names the largest budget of the end, rounded up: passed
        # back as --tol it exits 0.  alpha = 5/2 needs 8.7683e-10, which
        # rounded to nearest would read 8.768e-10 and fail again
        path = self.make_data_file(tmp_path, alpha=2.5)
        code, _, err = run(capsys, "verify-end", str(path), "--tol", tol)
        assert code == 2
        budget = err.split("rounding budget ")[1].split(" ")[0]
        assert budget == "8.769e-10"
        code, out, err = run(capsys, "verify-end", str(path), "--tol", budget)
        assert code == 0 and err == "" and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("coefficients", [
        {"g1_re": [1e300], "g1_im": [0]},
        {"w1_re": [1e308, 1e308], "w1_im": [0, 0]},
    ], ids=["g1", "w1"])
    def test_overflowing_coefficients(self, tmp_path, coefficients):
        # the integrand coefficients overflow: an input error naming the
        # data, in one line and with no numpy warning, run as a program so
        # that any warning would reach stderr
        path = tmp_path / "end.json"
        path.write_text(json.dumps({"kind": "power_end", "alpha": 0.5, "g0_re": 1,
                                    "w0_re": 0.375, **coefficients}))
        proc = run_program("verify-end", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: the data coefficients g0, w0, g1, w1 are too large")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_alpha_squared_overflows(self, tmp_path):
        # alpha^2 overflows: an input error naming alpha, not an internal one
        path = tmp_path / "end.json"
        path.write_text(json.dumps({"kind": "power_end", "alpha": 1e200, "g0_re": 1,
                                    "w0_re": -2.5e199}))
        proc = run_program("verify-end", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: alpha = 1e+200 is too large: alpha^2 overflows\n"

    def test_infinite_alpha(self, tmp_path):
        # alpha = inf is bad data: the one error line names alpha, not the
        # --tol that its NaN rounding budget would fail
        path = tmp_path / "end.json"
        path.write_text('{"kind":"power_end","alpha":Infinity,"g0_re":1,"w0_re":1}')
        proc = run_program("verify-end", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: alpha must be positive, finite and != 1, got inf\n"

    @pytest.mark.parametrize("alpha,w0,tol", [
        ("1e-300", "2.4999999999999998e+299", None), ("1e-300", "2.4999999999999998e+299", "1e300"),
        ("1e-160", "2.5e159", None), ("1e-160", "2.5e159", "1e300"),
    ])
    def test_tiny_alpha(self, tmp_path, alpha, w0, tol):
        # lambda = (1 - alpha^2)/(4 alpha^2) overflows: the one error line
        # names alpha, not the --tol of the default run, a ZeroDivisionError
        # or the phi of the gap report
        path = tmp_path / "end.json"
        path.write_text(f'{{"kind":"power_end","alpha":{alpha},"g0_re":1,"w0_re":{w0}}}')
        proc = run_program("verify-end", str(path), *(["--tol", tol] if tol else []))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: alpha = {alpha} is too small: lambda overflows\n"

    def test_samples_near_overflow_warn_nothing(self, tmp_path):
        # radii down to 2^-409 put the samples near 1e306, whose squares
        # overflow in the ray fit and the helicoid distances: a negative
        # result with its documents, and no numpy warning on stderr
        path = self.make_data_file(tmp_path, alpha=2.5)
        out_json, out_csv = tmp_path / "out.json", tmp_path / "out.csv"
        proc = run_program("verify-end", str(path), "--min-radius-exp", "409", "--tol", "1e300",
                           "--arc-samples", "9", "--boundary-samples", "8",
                           "--json", str(out_json), "--csv", str(out_csv))
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert out_json.read_text() == proc.stdout
        assert json.loads(proc.stdout)["pass"] is False
        assert out_csv.read_text().startswith("radius,sup_distance")

    @pytest.mark.parametrize("flag,value", [
        ("--fit-lambda", "0"),
        ("--fit-lambda", "nan"),
        ("--fit-lambda", "-1"),
        ("--fit-lambda", "-0.25"),
        ("--min-radius-exp", "1"),
        ("--min-radius-exp", "0"),
        ("--fit-lambda", "inf"),
        ("--tol", "inf"),
        ("--tol", "nan"),
        ("--tol", "0"),
        ("--tol", "-1"),
    ])
    def test_bad_domain(self, capsys, tmp_path, flag, value):
        path = self.make_data_file(tmp_path)
        code, out, err = run(capsys, "verify-end", str(path), flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if flag == "--fit-lambda":
            assert err.startswith("error: lambda must lie in (-1/4, inf)")
        if flag == "--tol":
            assert err.startswith("error: --tol must lie in (0, inf)")

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(capsys, "verify-end", str(bad))[0] == 2
        bad.write_text(json.dumps({"kind": "power_end"}))
        assert run(capsys, "verify-end", str(bad))[0] == 2
        assert run(capsys, "verify-end", str(tmp_path / "missing.json"))[0] == 2


class TestConfigAndDeterminism:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"convention": "ruling-gap"}))
        code, out, _ = run(capsys, "--config", str(cfg), "constellation",
                           repr(PI / 2), repr(PI / 2), repr(PI / 2))
        assert code == 0
        assert json.loads(out)["convention"] == "ruling-gap"
        # the --config=PATH form used to be parsed, then silently ignored
        code, out, _ = run(capsys, f"--config={cfg}", "constellation", "1.6", "1.6", "1.6")
        assert code == 0
        assert json.loads(out)["convention"] == "ruling-gap"

    # (argv, TRINOIDS_CONFIG, exit code, convention in the output); GOOD names
    # a config with the ruling-gap convention, BAD one that fails to load
    SETTINGS = [
        (["--config", "GOOD", "constellation", "1.6", "1.6", "1.6"], None, 0, "ruling-gap"),
        (["constellation", "1.6", "1.6", "1.6"], "GOOD", 0, "ruling-gap"),
        (["constellation", "1.6", "1.6", "1.6"], None, 0, "half-gap"),
        (["--config", "GOOD", "constellation", "--convention", "half-gap", "1.6", "1.6", "1.6"],
         None, 0, "half-gap"),
        (["constellation", "--convention", "half-gap", "1.6", "1.6", "1.6"], "GOOD", 0, "half-gap"),
        (["--config", "BAD", "--config", "GOOD", "constellation", "1.6", "1.6", "1.6"],
         None, 0, "ruling-gap"),
        (["--config", "GOOD", "--config", "BAD", "constellation", "1.6", "1.6", "1.6"],
         None, 2, "error: bad config: "),
        (["--config", "BAD", "--help"], None, 0, "usage: trinoids"),
        (["classify", "--", "--config", "BAD", "1"], None, 2,
         "error: could not convert string to float: '--config'"),
    ]

    @pytest.mark.parametrize("argv,env,code,expected", SETTINGS, ids=[
        "config-file", "env-var", "no-config", "flag-over-file", "flag-over-env",
        "last-config-good", "last-config-bad", "help-before-config", "config-after-dashes"])
    def test_flags_and_config(self, capsys, tmp_path, monkeypatch, argv, env, code, expected):
        paths = {"GOOD": tmp_path / "good.json", "BAD": tmp_path / "bad.json"}
        paths["GOOD"].write_text(json.dumps({"convention": "ruling-gap"}))
        paths["BAD"].write_text(json.dumps({"arc_samples": "x"}))
        argv = [str(paths.get(token, token)) for token in argv]
        if env is None:
            monkeypatch.delenv("TRINOIDS_CONFIG", raising=False)
        else:
            monkeypatch.setenv("TRINOIDS_CONFIG", str(paths[env]))
        try:
            got = cli.main(argv)
        except SystemExit as exc:  # --help
            got = exc.code
        out, err = capsys.readouterr()
        assert got == code, err
        if code == 2:
            assert err.startswith(expected) and err.count("\n") == 1, err
        elif out.startswith("usage:"):
            assert out.startswith(expected)
        else:
            assert json.loads(out)["convention"] == expected

    def test_help_as_a_program(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             os.environ.get("PYTHONPATH", "")]))
        for command in ([], ["classify"], ["convert"], ["surface"], ["constellation"],
                        ["verify-end"]):
            proc = subprocess.run([sys.executable, "-m", "trinoids.cli", *command, "--help"],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, (command, proc.stderr)
            assert proc.stdout.startswith(" ".join(["usage: trinoids", *command])), command
            assert proc.stderr == ""

    def test_abbreviated_config_flag_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"convention": "ruling-gap"}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--conf", str(cfg), "constellation", "1.6", "1.6", "1.6"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for key in ["nonsense", "seed", "out_dir"]:
            cfg.write_text(json.dumps({key: 1}))
            code, _, err = run(capsys, "--config", str(cfg), "classify", "1", "1", "1")
            assert code == 2
            assert "unknown config keys" in err
        for doc, message in [
            ({"arc_samples": "x"}, "arc_samples must be an integer"),
            ({"tol": [1]}, "tol must be a finite number"),
            ({"eps_face": None}, "eps_face must be a finite number"),
            ([], "config must be a JSON object"),
            ({"arc_samples": 3.5}, "arc_samples must be an integer"),
            ({"boundary_samples": True}, "boundary_samples must be an integer"),
            ({"tol": False}, "tol must be a finite number"),
            ({"eps_face": "1e-12"}, "eps_face must be a finite number"),
            ({"convention": [1]}, "is not a valid PitchConvention"),
        ]:
            cfg.write_text(json.dumps(doc))
            code, out, err = run(capsys, "--config", str(cfg), "classify", "1", "1", "1")
            assert code == 2, doc
            assert out == ""
            assert err.startswith("error: bad config: ") and err.count("\n") == 1, err
            assert message in err
            assert "Traceback" not in err
        cfg.write_text("1e999")
        assert run(capsys, "--config", str(cfg), "classify", "1", "1", "1")[0] == 2
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "--config", str(cfg), "classify", "1", "1", "1")
        assert code == 2 and err.startswith("error: bad config: ") and err.count("\n") == 1

    def test_config_numbers(self, capsys, tmp_path):
        # integers are numbers; floats are not sample counts
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1, "eps_face": 0, "arc_samples": 40}))
        assert run(capsys, "--config", str(cfg), "classify", "1", "1", "1")[0] == 1
        cfg.write_text(json.dumps({"tol": math.inf}))
        code, _, err = run(capsys, "--config", str(cfg), "classify", "1", "1", "1")
        assert code == 2 and "tol must be a finite number" in err

    def test_config_env_var(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"convention": "ruling-gap"}))
        monkeypatch.setenv("TRINOIDS_CONFIG", str(cfg))
        code, out, _ = run(capsys, "constellation", "1.6", "1.6", "1.6")
        assert code == 0
        assert json.loads(out)["convention"] == "ruling-gap"

    def test_repeat_runs_identical(self, capsys, tmp_path):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "convert", "--from", "lambda", "0.3")
            outputs.append(out)
        assert outputs[0] == outputs[1]

        objs = []
        for i in range(2):
            obj = tmp_path / f"h{i}.obj"
            run(capsys, "surface", "helicoid", "0.7", "--nx", "9", "--ny", "9",
                "--obj", str(obj))
            objs.append(obj.read_bytes())
        assert objs[0] == objs[1]


SURFACE_LAMBDAS = st.one_of(
    st.sampled_from(["0", "-0.25", "nan", "inf", "-inf", "1e308", "1e-300", "-1e-8", "-0.2499",
                     "1e-8", "0.05", "0.3", "1", "100", "1e6"]),
    st.floats(-0.25, 1e6).map(repr))
SURFACE_BOUNDS = st.one_of(st.sampled_from(["-800", "-300", "-30", "0", "30", "300", "400", "700"]),
                           st.floats(-1e6, 1e6).map(repr))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["helicoid", "catenoid", "cousin", "ball"]), lam=SURFACE_LAMBDAS,
       bounds=st.lists(SURFACE_BOUNDS, min_size=4, max_size=4))
def test_surface_exits_0_or_names_its_input(capsys, tmp_path, kind, lam, bounds):
    """Every surface run writes finite positions and unit normals, or exits
    2 with one line that names a flag or lambda, never an internal check."""
    csv = tmp_path / "s.csv"
    model = ["--model", "ball"] if kind == "ball" else []
    flags = [f"--{name}={value}" for name, value in zip(("xmin", "xmax", "ymin", "ymax"), bounds)]
    code, out, err = run(capsys, "surface", "--nx", "5", "--ny", "5", "--csv", str(csv), "--force",
                         *model, *flags, "--", "cousin" if model else kind, lam)
    if code == 0:
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows)), (kind, lam, bounds)
        assert np.all(np.abs(np.linalg.norm(rows[:, 5:], axis=1) - 1.0) <= 1e-12)
    else:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)
        assert "lambda" in err or any(f"--{name}" in err for name in ("xmin", "xmax", "ymin",
                                                                          "ymax")), err
        assert "grid" not in err, err
