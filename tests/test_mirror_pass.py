"""The one-pass solver and the row kernels against the sequential solver.

solve_constellations builds and self-checks both mirror solutions of a
triple in one pass over arrays, and the line kernels (trinoids.lines) take
one row per item.  The sequential solver (oracles.seq_solve_constellations)
built one solution after the other through the scalar kernels.  Every line,
rotation, translation, lambda and self-check float must keep its bits, and
every refused triple must raise the same exception with the same message,
solution + before solution -.  fit_helicoid shares the row kernels and must
fit the same helicoids as oracles.seq_fit_helicoid.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from test_constellation import reversed_line
from test_cross_kernel import REPLACED_FRAMES, TEXTBOOK_FEET, near_face_triples
from test_end_engine import END_SETS, perturbed
from trinoids import asymptotics, constellation, lines
from trinoids import weierstrass as W
from trinoids.constellation import ConstellationSolveError, ParallelBoundaryWarning
from trinoids.params import PitchConvention

PI = math.pi
CONVENTIONS = tuple(PitchConvention)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes()


def outcome(phis, convention, eps_face):
    """Solutions, or (exception type, message) of what the solver raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParallelBoundaryWarning)
        try:
            return constellation.solve_constellations(*phis, convention=convention,
                                                      eps_face=eps_face)
        except (ValueError, ConstellationSolveError) as exc:
            return (type(exc).__name__, str(exc))


# the refusals of a triple too close to the boundary for double precision
BOUNDARY = ("direction solve", "coplanar direction triple", "solution failed self-check",
            lines.PARALLEL, constellation.NOT_ROTATION)


def assert_checked(phis, convention=PitchConvention.HALF_GAP, eps_face=1e-12, exact=False):
    """Each solution of a triple passes its self-check and either the
    50-digit oracle (if exact) or the benchmark's absolute residual (for
    scales up to 1; its own scale-relative bound beyond), and the two are
    mirror related and share no array.  The benchmark's residual turns a
    rounding of the axis height into a twist divided by the pitch, so it
    says nothing where a pitch is tiny and the feet lie far out, as near
    a reduced angle of pi.  Returns the number of solutions, or the
    exception type name of a refusal."""
    phis = tuple(float(p) for p in phis)
    sols = outcome(phis, convention, eps_face)
    if isinstance(sols, tuple):
        assert sols[1].startswith(BOUNDARY), (phis, sols)
        return sols[0]
    for c in sols:
        assert c.self_check.ok() and c.convention is convention, phis
        if not exact:
            bound = oracles.AXIS_RESIDUAL_TOL * max(1.0, c.self_check.scale)
            assert oracles.axis_residual(c, phis) < bound, phis
    if sols and exact:
        try:
            want = oracles.mp_constellation(phis, convention)
        except ValueError:  # outside the tetrahedron at 50 digits
            assert eps_face == 0.0
            want = []
            assert all(oracles.exact_frame_residual(c, phis) < 1e-13 for c in sols), phis
        assert all(oracles.constellation_error_ratio(c, w) <= 1.0 for c, w in zip(sols, want))
    if sols:
        assert constellation.mirror_related(sols[0].lines(), sols[1].lines()), phis
        arrays = [[a for line in c.lines() for a in (line.point, line.direction)]
                  + [a for _, _, f in c.pairs() for a in (f.rotation, f.translation)]
                  for c in sols]
        assert not any(np.shares_memory(a, b) for a in arrays[0] for b in arrays[1])
    return len(sols)


def tiny_angle_triples(rng, n):
    """Admissible triples with one reduced angle log-uniform in [1e-14, 1e-2]
    or that close to pi, lifted to angles in (0, 4*pi)."""
    out = []
    for _ in range(n):
        small = math.exp(rng.uniform(math.log(1e-14), math.log(1e-2)))
        a = rng.uniform(0.05, PI - 0.05)
        if rng.random() < 0.5:
            r = [small, a, PI - a + rng.uniform(-1.0, 1.0) * small]
        else:
            r = [PI - small, a, a + rng.uniform(-1.0, 1.0) * small]
        r = [r[i] for i in rng.permutation(3)]
        lifts = rng.integers(0, 4, 3)
        out.append(tuple(float([x, 2 * PI - x, 2 * PI + x, 4 * PI - x][m])
                         for x, m in zip(r, lifts)))
    return out


class TestSameAsSequential:
    """Residual checks of both mirror solutions on the large sets (the class
    once compared them bit for bit with the sequential solver)."""

    @pytest.mark.parametrize("chunk", range(4))
    def test_seeded_triples(self, chunk):
        # seed [2024, 0], 20,000 triples over (0, 4 pi)^3, conventions alternating
        phis = np.random.default_rng([2024, 0]).uniform(0.0, 4 * PI, (20_000, 3))
        solved = 0
        for i in range(chunk * 5000, (chunk + 1) * 5000):
            solved += assert_checked(phis[i], CONVENTIONS[i % 2]) == 2
        assert solved > 1500

    @pytest.mark.parametrize("r1_slice", [slice(0, 8), slice(8, 16), slice(16, 25)])
    def test_criterion_5_grid(self, r1_slice):
        grid = np.linspace(0.0, PI, 27)[1:-1]
        for i, r1 in enumerate(grid[r1_slice]):
            for j, r2 in enumerate(grid):
                for k, r3 in enumerate(grid):
                    assert assert_checked((r1, r2, r3), CONVENTIONS[(i + j + k) % 2]) in (0, 2)

    @pytest.mark.parametrize("eps_face", [1e-12, 0.0, 1e-9])
    def test_near_faces(self, eps_face):
        offsets = [-1e-9, -3e-10, -1e-12, 0.0, 1e-12, 3e-10, 1e-9]
        for phis in near_face_triples(np.random.default_rng(40), 300, offsets):
            for convention in CONVENTIONS:
                assert_checked(phis, convention, eps_face)

    @pytest.mark.parametrize("eps_face", [1e-12, 0.0])
    def test_tiny_angles(self, eps_face):
        # the refusals: degenerate and unresolved directions, coplanar
        # triples, parallel pairs and failed self-checks
        seen = set()
        for phis in tiny_angle_triples(np.random.default_rng(2025), 1500):
            for convention in CONVENTIONS:
                seen.add(assert_checked(phis, convention, eps_face, exact=True))
        assert {2, "ValueError", "ConstellationSolveError"} <= seen

    @pytest.mark.parametrize("phis", REPLACED_FRAMES + [TEXTBOOK_FEET, (1e-8, 1.0, PI - 1.0 + 5e-9)])
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_probe_triples(self, phis, convention):
        assert assert_checked(phis, convention, exact=True) == 2

    def test_verify_constellation(self):
        # the report of any constellation, here with a moved line and a
        # reversed one, as the sequential verify gives it
        for phis in [(1.6, 2.0, 2.2), (2.2, 1.9, 7 * PI / 3), REPLACED_FRAMES[0]]:
            sol = constellation.solve_constellations(*phis)[0]
            moved = constellation.Constellation(
                reversed_line(sol.l12), sol.l23,
                lines.OrientedLine(sol.l31.point + 1e-3, sol.l31.direction),
                sol.f1, sol.f2, sol.f3, sol.convention)
            for c in (sol, moved):
                got = constellation.verify_constellation(c, phis)
                want = oracles.seq_verify_constellation(c, phis)
                assert bits([*got.containment, *got.angle, *got.distance, got.scale]) == bits(
                    [*want.containment, *want.angle, *want.distance, want.scale])


class TestRefusalOrder:
    """Refusals of solution + come first, then those of solution -.

    On every probe triple tried, both mirror solutions refuse alike, with
    the same message, so each test makes them differ by hand."""

    PHIS = (1.6, 2.0, 2.2)

    def fail(self, report, residual):
        return replace(report, containment=(residual,) + report.containment[1:])

    def test_plus_self_check_before_minus_self_check(self, monkeypatch):
        real = constellation._self_check

        def both_fail(*args):
            plus, minus = real(*args)
            return [self.fail(plus, 1e-3), self.fail(minus, 2e-3)]

        monkeypatch.setattr(constellation, "_self_check", both_fail)
        with pytest.raises(ConstellationSolveError, match="max residual 1.000e-03"):
            constellation.solve_constellations(*self.PHIS)

    def test_minus_self_check(self, monkeypatch):
        real = constellation._self_check

        def minus_fails(*args):
            plus, minus = real(*args)
            return [plus, self.fail(minus, 2e-3)]

        monkeypatch.setattr(constellation, "_self_check", minus_fails)
        with pytest.raises(ConstellationSolveError, match="max residual 2.000e-03"):
            constellation.solve_constellations(*self.PHIS)

    @pytest.mark.parametrize("plus_fails", [False, True])
    def test_minus_frame_refused(self, monkeypatch, plus_fails):
        # solution - refuses its pair-2 frame (the fifth frame built): only
        # solution + is checked, and a failed check of solution + is raised
        # before the refusal of solution -
        real_flag, real_check = constellation.not_rotation, constellation._self_check
        built, checked = [], []

        def minus_refused(columns):
            built.append(columns)
            return len(built) == 5 or real_flag(columns)

        def check(*args):
            reports = real_check(*args)
            checked.append(len(reports))
            return [self.fail(reports[0], 1e-3)] if plus_fails else reports

        monkeypatch.setattr(constellation, "not_rotation", minus_refused)
        monkeypatch.setattr(constellation, "_self_check", check)
        if plus_fails:
            with pytest.raises(ConstellationSolveError, match="max residual 1.000e-03"):
                constellation.solve_constellations(*self.PHIS)
        else:
            with pytest.raises(ValueError, match="special orthogonal"):
                constellation.solve_constellations(*self.PHIS)
        assert checked == [1] and len(built) == 5


# --- row kernels ---------------------------------------------------------------

def random_rotations(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return np.where(np.linalg.det(q)[:, None, None] < 0, -q, q)


def canonical_line(rng):
    return oracles.SeqLine(rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 5),
                           rng.standard_normal(3))


class TestRowKernels:
    def test_ruling_residual(self):
        rng = np.random.default_rng(50)
        n = 3000
        R = random_rotations(rng, n)
        T = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-3, 5, (n, 1))
        pitch = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
        lines_in = [canonical_line(rng) for _ in range(n)]
        # rulings of each frame, and lines vertical in their frame
        for i in range(0, n, 3):
            y = rng.uniform(-5.0, 5.0)
            lines_in[i] = oracles.SeqLine(R[i] @ [0.0, 0.0, -pitch[i] * y] + T[i],
                                          R[i] @ [math.sin(y), -math.cos(y), 0.0])
        for i in range(1, n, 50):
            lines_in[i] = oracles.SeqLine(T[i] + 1.0, R[i][:, 2])
        got = lines.ruling_residual(R, T, pitch.tolist(), np.array([l.point for l in lines_in]),
                                    np.array([l.direction for l in lines_in]))
        want = [oracles.seq_ruling_residual(R[i], T[i], float(pitch[i]), lines_in[i])
                for i in range(n)]
        assert bits(got) == bits(want)
        assert 1.0 in got and min(got) < 1e-12

    def test_ruling_residual_one_frame(self):
        rng = np.random.default_rng(51)
        (R,), T = random_rotations(rng, 1), rng.standard_normal(3)
        lines_in = [canonical_line(rng) for _ in range(20)]
        got = lines.ruling_residual(R, T, 0.7, [l.point.tolist() for l in lines_in],
                                    [l.direction.tolist() for l in lines_in])
        assert bits(got) == bits([oracles.seq_ruling_residual(R, T, 0.7, l) for l in lines_in])

    def test_infinite_height_raises_as_math(self):
        R, T = np.eye(3), np.zeros(3)
        line = oracles.SeqLine(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError) as old:
            oracles.seq_ruling_residual(R, T, 1e-320, line)
        with pytest.raises(ValueError) as new:
            lines.ruling_residual(R, T, 1e-320, [line.point.tolist()], [line.direction.tolist()])
        assert str(new.value) == str(old.value)

    def test_line_pairs(self):
        rng = np.random.default_rng(52)
        a = [canonical_line(rng) for _ in range(2000)]
        b = [canonical_line(rng) for _ in range(2000)]
        # nearly parallel and antiparallel pairs, and exactly parallel ones
        for i in range(0, 2000, 7):
            eps = 10.0 ** rng.uniform(-16, -6)
            b[i] = oracles.SeqLine(b[i].point, rng.choice([-1.0, 1.0]) * a[i].direction
                                   + eps * rng.standard_normal(3))
        for i in range(3, 2000, 101):
            b[i] = oracles.SeqLine(b[i].point, -a[i].direction)
        pairs = lines.line_pairs(*(np.array([getattr(l, f) for l in side])
                                   for side in (a, b) for f in ("point", "direction")))
        assert bits(pairs.angle) == bits([oracles.seq_angle_between(p.direction, q.direction)
                                          for p, q in zip(a, b)])
        assert bits(pairs.distance) == bits([oracles.seq_line_distance(p, q)
                                             for p, q in zip(a, b)])
        parallel = 0
        for i, (p, q) in enumerate(zip(a, b)):
            try:
                qa, qb = oracles.seq_common_perpendicular_feet(p, q)
            except ValueError as exc:
                assert pairs.parallel[i] and str(exc) == lines.PARALLEL
                parallel += 1
                continue
            assert not pairs.parallel[i]
            assert bits(pairs.qa[i]) == bits(qa) and bits(pairs.qb[i]) == bits(qb)
        assert parallel > 10

    def test_feet_raise_on_a_parallel_row(self):
        u = [1.0, 0.0, 0.0]
        pairs = lines.line_pairs([[0.0, 0.0, 0.0]] * 2, [u, [0.0, 1.0, 0.0]],
                                 [[0.0, 1.0, 0.0]] * 2, [u, u])
        assert pairs.parallel == [True, False]
        assert all(map(math.isnan, pairs.qa[0] + pairs.qb[0]))
        assert pairs.qa[1] == pairs.qb[1] == [0.0, 1.0, 0.0]

    def test_lines_and_frames_refuse_as_before(self):
        for point, direction in [([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), ([math.inf, 0, 0], [1, 0, 0]),
                                 ([math.nan, 0, 0], [0, 0, 0]), ([1.0, 2.0, 3.0], [1e-301, 0, 0])]:
            with pytest.raises(ValueError) as old:
                oracles.SeqLine(np.array(point, dtype=float), np.array(direction, dtype=float))
            with pytest.raises(ValueError) as new:
                lines.OrientedLine(point, direction)
            assert str(new.value) == str(old.value)
        rng = np.random.default_rng(53)
        for _ in range(2000):
            p = rng.standard_normal(3) * 10.0 ** rng.uniform(-5, 5)
            d = rng.standard_normal(3) * 10.0 ** rng.uniform(-5, 5)
            new, old = lines.OrientedLine(p, d), oracles.SeqLine(p, d)
            assert bits([new.point, new.direction]) == bits([old.point, old.direction])
        R = random_rotations(rng, 400)
        R[::2] += 10.0 ** rng.uniform(-14, -10, (200, 1, 1)) * rng.standard_normal((200, 3, 3))
        refused = [constellation.not_rotation(Rk.T.tolist()) for Rk in R]
        for Rk, flag in zip(R, refused):
            try:
                oracles.SeqFrame(0.5, Rk, np.zeros(3))
            except ValueError:
                assert flag
            else:
                assert not flag
        assert 0 < sum(refused) < 400


# --- fit_helicoid --------------------------------------------------------------

def assert_same_fit(rays, lam):
    try:
        new = asymptotics.fit_helicoid(rays, lam)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            oracles.seq_fit_helicoid(rays, lam)
        return None
    frame, residual, passed, message = oracles.seq_fit_helicoid(rays, lam)
    assert (new.passed, new.message) == (passed, message)
    assert bits([new.residual]) == bits([residual])
    assert (new.frame is None) == (frame is None)
    if frame is not None:
        assert bits([new.frame.lam, *new.frame.rotation.ravel(), *new.frame.translation]) == bits(
            [frame.lam, *frame.rotation.ravel(), *frame.translation])
    return new.passed


@pytest.mark.parametrize("alpha,seed,radii,arc,boundary,tol",
                         [s for s in END_SETS if s[4] >= 8])  # fit_rays needs 8 per side
def test_fit_helicoid(alpha, seed, radii, arc, boundary, tol):
    # the fitted lambda, failed fits at 0.7 and 1.3 times it, and a lambda
    # so small that the ruling height overflows (math's domain error)
    pe = W.power_end_data(alpha) if seed is None else perturbed(alpha, seed)
    sample = asymptotics.sample_conjugate_end(pe, radii, arc, boundary, tol)
    rays = asymptotics.fit_rays(sample)
    assert bits([rays.angle]) == bits([oracles.seq_angle_between(rays.ray_pos.direction,
                                                                  rays.ray_neg.direction)])
    passed = [assert_same_fit(rays, sample.lam * f) for f in (1.0, 0.7, 1.3)]
    assert passed[1] is False and passed[2] is False
    assert assert_same_fit(rays, 1e-320) is None
