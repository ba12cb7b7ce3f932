"""lines.cross3 against np.cross, and the solver against its 50-digit oracle.

The program takes every cross product of two single 3-vectors with
trinoids.lines.cross3, on Python floats; it must give the bits of np.cross,
so the CLI writes the same bytes with np.cross in its place.  The solver's
contract is accuracy: every coordinate it returns lies within the
first-order bound of oracles.mp_constellation, the same construction at 50
digits, and every solution passes its own scale-relative self-check and
oracles.exact_frame_residual.  An earlier solver placed each frame at the
textbook perpendicular foot, which divides by 1 - (u_a . u_b)^2, and
refused the triples of REPLACED_FRAMES and TEXTBOOK_FEET below; the program
divides by |u_a x u_b|^2 and solves them.
"""

import ast
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

import oracles
from trinoids import asymptotics, cli, constellation, lines
from trinoids import weierstrass as W
from trinoids.constellation import (
    ConstellationSolveError,
    ParallelBoundaryWarning,
    solve_constellations,
)
from trinoids.params import PitchConvention

PI = math.pi
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "trinoids"
SPECIALS = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 1e300, -1e300, 1e-300, -1e-300, 1.0, -2.5])


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes()


class TestKernel:
    def test_random_vectors(self):
        rng = np.random.default_rng(20)
        n = 100_000
        scale = np.exp(rng.uniform(-40.0, 40.0, (n, 2, 1)))
        vecs = rng.standard_normal((n, 2, 3)) * scale
        got = np.array([lines.cross3(a, b) for a, b in vecs.tolist()])
        assert bits(got) == bits(np.cross(vecs[:, 0], vecs[:, 1]))

    def test_special_values(self):
        rng = np.random.default_rng(21)
        pool = np.concatenate([SPECIALS, rng.standard_normal(8)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(40_000):
                a, b = rng.choice(pool, 3), rng.choice(pool, 3)
                assert bits(lines.cross3(a.tolist(), b.tolist())) == bits(np.cross(a, b)), (a, b)
            for x in SPECIALS:
                for i in range(3):
                    a, b = np.full(3, 0.5), np.full(3, -1.5)
                    a[i] = x
                    assert bits(lines.cross3(a.tolist(), b.tolist())) == bits(np.cross(a, b))
                    assert bits(lines.cross3(b.tolist(), a.tolist())) == bits(np.cross(b, a))

    def test_shape_and_dtype(self):
        out = lines.cross3([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert out == [0.0, 0.0, 1.0] and all(type(x) is float for x in out)


# the messages of a triple too close to the boundary for double precision
REFUSALS = ("direction solve degenerate", "direction solve cannot resolve")
# bound of oracles.exact_frame_residual, relative to max(1, |coordinates|)
EXACT_TOL = 1e-13


def outcome(phis, convention=PitchConvention.HALF_GAP, eps_face=1e-12):
    """The solutions of a triple, or (exit code, message) if the solver
    raised: 2 for a ValueError, 3 for a ConstellationSolveError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParallelBoundaryWarning)
        try:
            sols = solve_constellations(*phis, convention=convention, eps_face=eps_face)
        except ConstellationSolveError as exc:
            return (3, str(exc))
        except ValueError as exc:
            return (2, str(exc))
    return sols


def assert_exact(phis, solutions):
    """Each solution passes its self-check and the exact oracle."""
    for c in solutions:
        assert c.self_check.ok(), phis
        assert oracles.exact_frame_residual(c, phis) < EXACT_TOL, phis


def assert_oracle(phis, convention=PitchConvention.HALF_GAP, eps_face=1e-12):
    """A triple's solutions against the 50-digit oracle: each coordinate
    within its bound, each solution through its self-check, and the two
    mirror-related.  A refusal must be exit 2 for a triple too close to the
    boundary.  Returns the number of solutions."""
    sols = outcome(phis, convention, eps_face)
    if isinstance(sols, tuple):
        assert sols[0] == 2 and sols[1].startswith(REFUSALS), (phis, sols)
        return 0
    if not sols:
        return 0
    assert len(sols) == 2 and all(c.self_check.ok() for c in sols), phis
    assert constellation.mirror_related(sols[0].lines(), sols[1].lines()), phis
    try:
        exact = oracles.mp_constellation(phis, convention)
    except ValueError:
        # outside the tetrahedron at 50 digits, inside it in double precision
        assert eps_face == 0.0, phis
        assert_exact(phis, sols)
        return len(sols)
    for c, want in zip(sols, exact):
        assert oracles.constellation_error_ratio(c, want) <= 1.0, phis
    return len(sols)


def near_face_triples(rng, n, offsets):
    """Reduced triples at the given signed distances from one of the four
    tetrahedron faces, lifted to angles in (0, 4*pi) in one of four ways."""
    out = []
    while len(out) < n:
        r = rng.uniform(0.05, PI - 0.05, 3)
        face = rng.integers(0, 4)
        delta = offsets[rng.integers(0, len(offsets))]
        if face == 0:  # r1 + r2 + r3 = pi
            r[2] = PI - r[0] - r[1] + delta
        else:  # r_i + r_j - r_k = pi with k = face - 1
            k = face - 1
            i, j = [m for m in range(3) if m != k]
            r[k] = r[i] + r[j] - PI - delta
        if not np.all((r > 1e-6) & (r < PI - 1e-6)):
            continue
        lifts = rng.integers(0, 4, 3)
        phis = [[x, 2 * PI - x, 2 * PI + x, 4 * PI - x][m] for x, m in zip(r, lifts)]
        out.append(tuple(float(p) for p in phis))
    return out


class TestSolverSameAsOriginal:
    """The solver within the bound of its 50-digit oracle (the class once
    compared it bit for bit with the original np.cross solver)."""

    @pytest.mark.parametrize("chunk", range(4))
    def test_seeded_triples(self, chunk):
        rng = np.random.default_rng(30 + chunk)
        solved = sum(assert_oracle(tuple(float(p) for p in phis))
                     for phis in rng.uniform(0.0, 4 * PI, (1000, 3)))
        assert solved > 400

    @pytest.mark.parametrize("r1_slice", [slice(0, 8), slice(8, 16), slice(16, 25)])
    def test_criterion_5_grid(self, r1_slice):
        grid = np.linspace(0.0, PI, 27)[1:-1]
        for r1 in grid[r1_slice]:
            for r2 in grid:
                for r3 in grid:
                    assert_oracle((r1, r2, r3))

    @pytest.mark.parametrize("eps_face", [1e-12, 0.0, 1e-9])
    def test_near_faces(self, eps_face):
        rng = np.random.default_rng(40)
        offsets = [-1e-9, -3e-10, -1e-12, 0.0, 1e-12, 3e-10, 1e-9]
        solved = sum(assert_oracle(phis, eps_face=eps_face)
                     for phis in near_face_triples(rng, 300, offsets))
        assert solved > 0

    def test_ruling_gap_convention(self):
        rng = np.random.default_rng(41)
        for phis in rng.uniform(0.0, 4 * PI, (300, 3)):
            assert_oracle(tuple(float(p) for p in phis), PitchConvention.RULING_GAP)


# Admissible triples whose frames, placed at the textbook foot, fail the
# self-check (by 1.0e-9 to 2.3e-9): a nearly antiparallel pair whose
# perpendicular foot lies tens of thousands of units out.  The original
# solver raised on them; the program's foot keeps the digits and passes.
REPLACED_FRAMES = [
    (11.493400425779397, 2.075658398923483, 0.007874163093508201),
    (5.511938656320965, 8.641475766999228, 0.01261080971469227),
    (10.28456906951204, 5.42006885856338, 0.005961441777818276),
    (10.09050520642566, 5.6140745635372085, 0.006958373478739216),
    (3.2394920363657125, 0.09671967014729135, 12.565035358038536),
]


class TestFramesAtCrossFeet:
    @pytest.mark.parametrize("phis", REPLACED_FRAMES)
    def test_solved(self, phis):
        assert assert_oracle(phis) == 2
        sols = solve_constellations(*phis)
        assert_exact(phis, sols)
        for c in sols:
            assert oracles.axis_residual(c, phis) < oracles.AXIS_RESIDUAL_TOL

    def test_cli(self, capsys):
        code = cli.main(["constellation", *map(repr, REPLACED_FRAMES[2])])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["count"] == 2
        assert max(s["residuals"]["max"] for s in doc["solutions"]) < 1e-9


# An admissible triple near a face whose feet lie 1.4e7 out, where one ulp
# is 1.9e-9.  The original solver placed its frames at the textbook foot;
# the program's self-check scales with the coordinates.
TEXTBOOK_FEET = (9.318191116462993, 10.760792323785575, 8.19535044205857)


class TestFramesAtTextbookFeet:
    def test_solved_as_the_original(self):
        assert assert_oracle(TEXTBOOK_FEET) == 2
        sols = solve_constellations(*TEXTBOOK_FEET)
        assert_exact(TEXTBOOK_FEET, sols)
        assert min(c.self_check.scale for c in sols) > 1e7

    def test_parallel_pair_refused_as_by_the_original(self, capsys):
        # a reduced angle of 1e-8: 1 - (u_a . u_b)^2 rounds to 0, so the
        # original refused the textbook foot; the program's cross foot exists,
        # and its placement passes the scale-relative check and both oracles
        phis = (1e-8, 1.0, PI - 1.0 + 5e-9)
        assert assert_oracle(phis) == 2
        assert_exact(phis, solve_constellations(*phis))
        assert cli.main(["constellation", *map(repr, phis)]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 2


def with_np_cross(monkeypatch):
    """Make every module that binds lines.cross3 call np.cross instead."""
    for module in (lines, constellation, asymptotics):
        monkeypatch.setattr(module, "cross3", np.cross)


class TestCliBytes:
    @pytest.mark.parametrize("alpha,perturb,args", [
        (1 / 3, False, []),
        (1 / 2, True, ["--min-radius-exp", "6"]),
        (2 / 3, True, ["--min-radius-exp", "5", "--arc-samples", "9"]),
        (3 / 2, False, ["--min-radius-exp", "5"]),
        (1 / 2, False, ["--min-radius-exp", "4", "--fit-lambda", "2.0"]),
    ])
    def test_verify_end(self, capsys, monkeypatch, tmp_path, alpha, perturb, args):
        extra = {"g1": (0.01, -0.004), "w1": (0.005,)} if perturb else {}
        data = tmp_path / "end.json"
        data.write_text(json.dumps(W.data_to_json(W.power_end_data(alpha, **extra))))

        def outputs(tag):
            csv = tmp_path / f"{tag}.csv"
            code = cli.main(["verify-end", str(data), *args, "--csv", str(csv)])
            return code, capsys.readouterr().out, csv.read_bytes()

        new = outputs("new")
        with_np_cross(monkeypatch)
        assert new == outputs("old")
        assert new[1]

    @pytest.mark.parametrize("phis,extra", [
        ((repr(PI / 2),) * 3, []),
        (("1.6", "1.6", "1.6"), []),
        (("1.0", "1.2", "1.4"), ["--convention", "ruling-gap"]),
        (("8.0", "1.4", "4.0"), ["--box", "4"]),
        (("100", "120", "140"), ["--degrees"]),
    ])
    def test_constellation_obj(self, capsys, monkeypatch, tmp_path, phis, extra):
        def outputs(tag):
            obj = tmp_path / f"{tag}.obj"
            code = cli.main(["constellation", *phis, *extra, "--emit-obj", str(obj),
                             "--patches"])
            return code, capsys.readouterr().out, obj.read_bytes()

        new = outputs("new")
        with_np_cross(monkeypatch)
        assert new == outputs("old")
        assert new[0] == 0


class _NumpyCross(ast.NodeVisitor):
    """Records the function enclosing each use of numpy's cross."""

    def __init__(self):
        self.stack, self.hits = [], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == "cross" and isinstance(node.value, ast.Name) and node.value.id in (
                "np", "numpy"):
            self.hits.append(".".join(self.stack) or "<module>")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "numpy" and any(alias.name == "cross" for alias in node.names):
            self.hits.append("from numpy import cross")


def test_np_cross_only_in_surface_grid():
    """Single 3-vectors go through lines.cross3, and grid normals come from
    closed-form Gauss maps: no module calls np.cross."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        finder = _NumpyCross()
        finder.visit(ast.parse(path.read_text()))
        found += [f"{path.stem}.{hit}" for hit in finder.hits]
    assert found == []
