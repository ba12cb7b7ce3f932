"""lines.cross3 and everything built on it against np.cross.

The program takes every cross product of two single 3-vectors with
trinoids.lines.cross3, on Python floats; the original (tests/oracles.py)
took them with np.cross.  The kernel must give the same bits, so every
line, rotation, invariant set and CLI output must be the same bytes.  The
original also placed each frame at the textbook perpendicular foot, which
divides by 1 - (u_a . u_b)^2; the program divides by |u_a x u_b|^2, so
frame translations are compared to rounding.  The original's self-check was
absolute; the program's scales its containment and distance parts with the
coordinates, so where the two disagree the program's frames are checked
against oracles.exact_frame_residual.
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
    _invariant_set,
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


def outcome(solve, phis, convention=PitchConvention.HALF_GAP, eps_face=1e-12):
    """A solver's solutions for a triple, or (exit code, message) if it
    raised: 2 for a ValueError, 3 for a ConstellationSolveError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParallelBoundaryWarning)
        try:
            sols = solve(*phis, convention=convention, eps_face=eps_face)
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


def assert_frames_replaced(phis, new, convention=PitchConvention.HALF_GAP, eps_face=1e-12,
                           absolute=True):
    """new solves a triple on which the original failed its self-check: the
    lines and rotations are the original's first placement, bit for bit, and
    only the frame translations moved, enough to pass the check (the
    original's absolute one too, unless absolute is False)."""
    first = oracles.solve_constellations(*phis, convention=convention, eps_face=eps_face,
                                         residual_tol=math.inf)
    assert len(new) == len(first) == 2
    assert_exact(phis, new)
    for c_new, c_first in zip(new, first):
        if absolute:
            assert oracles.verify_constellation(c_new, phis).max_residual < 1e-9
        assert oracles.verify_constellation(c_first, phis).max_residual >= 1e-9
        for l_new, l_first in zip(c_new.lines(), c_first.lines()):
            assert bits(l_new.point) == bits(l_first.point)
            assert bits(l_new.direction) == bits(l_first.direction)
        for (_, _, f_new), (_, _, f_first) in zip(c_new.pairs(), c_first.pairs()):
            assert bits(f_new.rotation) == bits(f_first.rotation)
            assert bits([f_new.lam]) == bits([f_first.lam])
    assert constellation.mirror_related(new[0].lines(), new[1].lines())


# frame translations: the program's foot divides by |u_a x u_b|^2, the
# original's by 1 - (u_a . u_b)^2, so they agree only to rounding
TRANSLATION_RTOL = 1e-12


def assert_same_solutions(phis, convention=PitchConvention.HALF_GAP, eps_face=1e-12,
                          absolute=True):
    """The original's solutions, or solutions where the original failed its
    self-check.  Lines, rotations, lambdas, invariants, the angle and distance
    residuals and whether the triple is solved are compared bit for bit;
    frame translations within TRANSLATION_RTOL * max(1, |translation|).  The
    program never exits 3 and refuses only what the original refused: with
    the original's own exit-2 message, or where the original exited 3, as too
    close to the boundary.  Each solution passes the original's absolute
    self-check, or with absolute False its own and the exact oracle.  Returns
    the number of solutions and of replaced-frame ones."""
    new = outcome(solve_constellations, phis, convention, eps_face)
    old = outcome(oracles.solve_constellations, phis, convention, eps_face)
    if isinstance(new, tuple):
        assert new[0] == 2 and isinstance(old, tuple), (phis, old, new)
        if old[0] == 3:
            assert new[1].startswith(REFUSALS), (phis, old, new)
        else:
            assert new == old, (phis, old, new)
        return 0, 0
    if isinstance(old, tuple):
        assert old[1].startswith("solution failed self-check"), (phis, old)
        assert_frames_replaced(phis, new, convention, eps_face, absolute)
        return 0, len(new)
    assert len(new) == len(old), phis
    for c_new, c_old in zip(new, old):
        for l_new, l_old in zip(c_new.lines(), c_old.lines()):
            assert bits(l_new.point) == bits(l_old.point), phis
            assert bits(l_new.direction) == bits(l_old.direction), phis
        for (_, _, f_new), (_, _, f_old) in zip(c_new.pairs(), c_old.pairs()):
            assert bits(f_new.rotation) == bits(f_old.rotation), phis
            assert bits([f_new.lam]) == bits([f_old.lam]), phis
            scale = max(1.0, float(np.linalg.norm(f_old.translation)))
            moved = float(np.max(np.abs(f_new.translation - f_old.translation)))
            assert moved <= TRANSLATION_RTOL * scale, phis
        rep_new = c_new.self_check
        rep_old = oracles.verify_constellation(c_old, phis)
        if absolute:
            assert rep_new.max_residual < 1e-9, phis
        assert bits(rep_new.angle) == bits(rep_old.angle), phis
        assert bits(rep_new.distance) == bits(rep_old.distance), phis
        ang_n, gap_n, tri_n = _invariant_set(c_new.lines())
        ang_o, gap_o, tri_o = oracles.invariant_set(c_old.lines())
        assert bits(ang_n) == bits(ang_o) and bits(gap_n) == bits(gap_o), phis
        assert bits([tri_n]) == bits([tri_o]), phis
    if not absolute:
        assert_exact(phis, new)
    return len(new), 0


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
    @pytest.mark.parametrize("chunk", range(4))
    def test_seeded_triples(self, chunk):
        rng = np.random.default_rng(30 + chunk)
        solved = 0
        for phis in rng.uniform(0.0, 4 * PI, (1000, 3)):
            same, replaced = assert_same_solutions(tuple(float(p) for p in phis))
            solved += same
            assert replaced == 0
        assert solved > 400

    @pytest.mark.parametrize("r1_slice", [slice(0, 8), slice(8, 16), slice(16, 25)])
    def test_criterion_5_grid(self, r1_slice):
        grid = np.linspace(0.0, PI, 27)[1:-1]
        for r1 in grid[r1_slice]:
            for r2 in grid:
                for r3 in grid:
                    assert assert_same_solutions((r1, r2, r3))[1] == 0

    @pytest.mark.parametrize("eps_face", [1e-12, 0.0, 1e-9])
    def test_near_faces(self, eps_face):
        rng = np.random.default_rng(40)
        offsets = [-1e-9, -3e-10, -1e-12, 0.0, 1e-12, 3e-10, 1e-9]
        counts = np.zeros(2, dtype=int)
        for phis in near_face_triples(rng, 300, offsets):
            counts += assert_same_solutions(phis, eps_face=eps_face, absolute=False)
        print(f"eps_face={eps_face}: {counts[0]} same solutions, {counts[1]} replaced frames")

    def test_ruling_gap_convention(self):
        rng = np.random.default_rng(41)
        for phis in rng.uniform(0.0, 4 * PI, (300, 3)):
            assert assert_same_solutions(tuple(float(p) for p in phis),
                                         PitchConvention.RULING_GAP)[1] == 0


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
        with pytest.raises(ConstellationSolveError, match="failed self-check"):
            oracles.solve_constellations(*phis)
        assert_frames_replaced(phis, solve_constellations(*phis))

    def test_cli(self, capsys):
        code = cli.main(["constellation", *map(repr, REPLACED_FRAMES[2])])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["count"] == 2
        assert max(s["residuals"]["max"] for s in doc["solutions"]) < 1e-9


# An admissible triple near a face whose frames, placed at the program's
# foot, miss the absolute 1e-9 (1.9e-9 at coordinates of 1.4e7, where one
# ulp is 1.9e-9) and pass it at the textbook foot, where the original placed
# them.  The program's check scales with the coordinates, so it keeps its
# own foot.
TEXTBOOK_FEET = (9.318191116462993, 10.760792323785575, 8.19535044205857)


class TestFramesAtTextbookFeet:
    def test_solved_as_the_original(self):
        new = solve_constellations(*TEXTBOOK_FEET)
        old = oracles.solve_constellations(*TEXTBOOK_FEET)
        assert len(new) == len(old) == 2
        assert_exact(TEXTBOOK_FEET, new)
        assert max(c.self_check.max_residual for c in new) >= 1e-9
        for c_new, c_old in zip(new, old):
            for l_new, l_old in zip(c_new.lines(), c_old.lines()):
                assert bits(l_new.point) == bits(l_old.point)
                assert bits(l_new.direction) == bits(l_old.direction)
            for (a, b, f_new), (_, _, f_old) in zip(c_new.pairs(), c_old.pairs()):
                assert bits(f_new.rotation) == bits(f_old.rotation)
                assert bits([f_new.lam]) == bits([f_old.lam])
                (foot,) = lines.line_pairs([a.point], [a.direction], [b.point], [b.direction]).qa
                assert bits(f_new.translation) == bits(foot)
                scale = max(1.0, float(np.linalg.norm(f_old.translation)))
                moved = float(np.max(np.abs(f_new.translation - f_old.translation)))
                assert moved <= TRANSLATION_RTOL * scale

    def test_parallel_pair_refused_as_by_the_original(self, capsys):
        # a reduced angle of 1e-8: 1 - (u_a . u_b)^2 rounds to 0, so the
        # original refuses the textbook foot; the program's cross foot exists,
        # and its placement passes the scale-relative check and the exact oracle
        phis = (1e-8, 1.0, PI - 1.0 + 5e-9)
        with pytest.raises(ValueError, match="parallel"):
            oracles.solve_constellations(*phis)
        new = solve_constellations(*phis)
        assert len(new) == 2 and constellation.mirror_related(new[0].lines(), new[1].lines())
        assert_exact(phis, new)
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
