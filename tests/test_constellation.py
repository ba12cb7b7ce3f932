import math
import warnings

import numpy as np
import pytest

import oracles
from test_cross_kernel import REPLACED_FRAMES
from trinoids import cli, constellation
from trinoids.classify import Membership, tetrahedron_membership_batch
from trinoids.constellation import (
    Constellation,
    ConstellationReport,
    HelicoidFrame,
    ParallelBoundaryWarning,
    constellation_to_json,
    lines_congruent,
    mirror_related,
    solve_constellations,
    verify_constellation,
)
from trinoids.emit import dump_json
from oracles import angle_between, seq_line_distance as line_distance, seq_unit as unit
from trinoids.lines import OrientedLine
from trinoids.params import PitchConvention, ray_distance_h, reduced_angle

PI = math.pi
RIGHT = (PI / 2, PI / 2, PI / 2)

GENERIC_TRIPLES = [
    RIGHT,
    (2.2, 1.9, 7 * PI / 3),      # one angle beyond 2*pi
    (4.0, 4.0, 1.5),             # negative lambda, negative screw sign
    (2.8, 2.8, 2.8),
    (1.6, 2.0, 2.2),
]


def transformed(lines, rotation, translation):
    return [OrientedLine(rotation @ l.point + translation, rotation @ l.direction)
            for l in lines]


def reversed_line(line):
    return OrientedLine(line.point, -line.direction)


class TestSolve:
    def test_right_triple_orthogonal_directions(self):
        sols = solve_constellations(*RIGHT)
        assert len(sols) == 2
        for sol in sols:
            dirs = [sol.l12.direction, sol.l23.direction, sol.l31.direction]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(dirs[i] @ dirs[j]) < 1e-12

    def test_right_triple_distances_half_gap(self):
        sols = solve_constellations(*RIGHT, convention=PitchConvention.HALF_GAP)
        for sol in sols:
            for a, b, _ in sol.pairs():
                assert line_distance(a, b) == pytest.approx(3 * PI / 8, rel=1e-12)

    def test_ruling_gap_doubles_distances(self):
        sols = solve_constellations(*RIGHT, convention=PitchConvention.RULING_GAP)
        for sol in sols:
            for a, b, _ in sol.pairs():
                assert line_distance(a, b) == pytest.approx(3 * PI / 4, rel=1e-12)

    def test_inadmissible_empty(self):
        assert solve_constellations(PI / 10, PI / 10, PI / 10) == []

    def test_degenerate_empty(self):
        assert solve_constellations(2 * PI, PI / 2, PI / 2) == []

    def test_parallel_boundary_warns(self):
        with pytest.warns(ParallelBoundaryWarning):
            out = solve_constellations(PI / 2, PI / 4, PI / 4)
        assert out == []

    def test_generic_triples_verify(self):
        for phis in GENERIC_TRIPLES:
            for conv in PitchConvention:
                sols = solve_constellations(*phis, convention=conv)
                assert len(sols) == 2
                for sol in sols:
                    rep = verify_constellation(sol, phis)
                    assert rep.max_residual < 1e-9
                assert not lines_congruent(sols[0].lines(), sols[1].lines())
                assert mirror_related(sols[0].lines(), sols[1].lines())

    def test_self_check_is_the_report(self):
        # the solver's own report, also where the textbook foot fails the check
        for phis in GENERIC_TRIPLES + REPLACED_FRAMES[:2]:
            for sol in solve_constellations(*phis):
                assert sol.self_check == verify_constellation(sol, phis)
                assert (dump_json(constellation_to_json(sol, phis, sol.self_check))
                        == dump_json(constellation_to_json(sol, phis)))
        sol = solve_constellations(*RIGHT)[0]
        built = Constellation(sol.l12, sol.l23, sol.l31, sol.f1, sol.f2, sol.f3, sol.convention)
        assert built.self_check is None

    def test_cli_checks_each_solution_once(self, tmp_path, monkeypatch, capsys):
        # the one self-check kernel reports on each solution once, in one call
        # for both, and the CLI emits those reports without checking again
        calls = []
        self_check = constellation._self_check

        def counting(*args):
            reports = self_check(*args)
            calls.append(len(reports))
            return reports

        monkeypatch.setattr(constellation, "_self_check", counting)
        for phis, checks in [(("1.6", "1.6", "1.6"), [2]), (("0.3", "0.3", "0.3"), [])]:
            calls.clear()
            path = tmp_path / f"{phis[0]}.json"
            code = cli.main(["constellation", *phis, "--json", str(path)])
            out = capsys.readouterr().out
            assert calls == checks
            assert path.read_text() == out
            assert code == (0 if checks else 1)

    def test_solutions_not_congruent_to_own_mirror(self):
        sols = solve_constellations(1.6, 2.0, 2.2)
        M = np.diag([1.0, 1.0, -1.0])
        mirrored = [
            OrientedLine(M @ l.point, M @ l.direction) for l in sols[0].lines()
        ]
        assert not lines_congruent(sols[0].lines(), mirrored)


class TestVerify:
    def test_angle_and_distance_targets(self):
        phis = (2.2, 1.9, 7 * PI / 3)
        sol = solve_constellations(*phis)[0]
        for i, (a, b, _) in enumerate(sol.pairs()):
            r = reduced_angle(phis[i])
            assert angle_between(a.direction, b.direction) == pytest.approx(PI - r, abs=1e-12)
            assert line_distance(a, b) == pytest.approx(
                ray_distance_h(phis[i], sol.convention), rel=1e-12
            )

    def test_point_perturbation_shows_in_distance(self):
        phis = RIGHT
        sol = solve_constellations(*phis)[0]
        n = unit(np.cross(sol.l12.direction, sol.l31.direction))
        moved = OrientedLine(sol.l31.point + 1e-3 * n, sol.l31.direction)
        perturbed = Constellation(
            sol.l12, sol.l23, moved, sol.f1, sol.f2, sol.f3, sol.convention
        )
        rep = verify_constellation(perturbed, phis)
        assert rep.distance[0] == pytest.approx(1e-3, rel=1e-6)

    def test_orientation_flip_shows_in_angle(self):
        phis = (2.2, 1.9, 7 * PI / 3)
        sol = solve_constellations(*phis)[0]
        flipped = Constellation(
            reversed_line(sol.l12), sol.l23, sol.l31, sol.f1, sol.f2, sol.f3, sol.convention
        )
        rep = verify_constellation(flipped, phis)
        # pairs 1 and 2 involve l12: angle flips from pi - r to r
        for i in (0, 1):
            r = reduced_angle(phis[i])
            assert rep.angle[i] == pytest.approx(abs(PI - 2 * r), abs=1e-9)
        assert rep.angle[2] < 1e-12

    def test_report_shape(self):
        phis = RIGHT
        rep = verify_constellation(solve_constellations(*phis)[0], phis)
        assert isinstance(rep, ConstellationReport)
        assert len(rep.containment) == 6
        assert len(rep.angle) == 3
        assert len(rep.distance) == 3
        assert rep.ok()


class TestCongruence:
    def test_rigid_copy_is_congruent(self):
        sol = solve_constellations(1.6, 2.0, 2.2)[0]
        R = oracles.rotation_about([1.0, 2.0, 0.5], 1.1)
        t = np.array([0.4, -2.0, 3.0])
        copy = transformed(sol.lines(), R, t)
        assert lines_congruent(sol.lines(), copy)

    def test_mirror_copy_not_congruent(self):
        sol = solve_constellations(1.6, 2.0, 2.2)[0]
        M = np.diag([-1.0, 1.0, 1.0])
        mirrored = [OrientedLine(M @ l.point, M @ l.direction) for l in sol.lines()]
        assert not lines_congruent(sol.lines(), mirrored)

    def test_label_sensitivity(self):
        sol = solve_constellations(1.6, 2.0, 2.2)[0]
        swapped = (sol.l23, sol.l12, sol.l31)
        assert not lines_congruent(sol.lines(), swapped)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_parallel_pair_refused(self, sign):
        # l12 and l23 are parallel or antiparallel: their signed offset is
        # along the direction of a zero cross product, which does not exist,
        # so the test refuses instead of deciding
        sol = solve_constellations(1.6, 2.0, 2.2)[0]
        parallel = (OrientedLine([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                    OrientedLine([0.0, 1.0, 0.0], [sign, 0.0, 0.0]),
                    OrientedLine([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]))
        for test in (lines_congruent, mirror_related):
            for a, b in ((parallel, sol.lines()), (sol.lines(), parallel), (parallel, parallel)):
                with pytest.raises(ValueError) as exc:
                    test(a, b)
                assert str(exc.value) == "cannot normalize a zero vector"


class TestFrames:
    def test_frame_validation(self):
        with pytest.raises(ValueError):
            HelicoidFrame(0.5, np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            HelicoidFrame(0.5, -np.eye(3), np.zeros(3))

    def test_frames_special_orthogonal(self):
        for sol in solve_constellations(2.2, 1.9, 7 * PI / 3):
            for f in (sol.f1, sol.f2, sol.f3):
                R = f.rotation
                assert np.allclose(R.T @ R, np.eye(3), atol=1e-13)
                assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-13)


class TestExistenceGrid:
    def test_counts_match_classifier(self):
        grid = np.linspace(0, PI, 9)[1:-1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParallelBoundaryWarning)
            for r1 in grid:
                for r2 in grid:
                    for r3 in grid:
                        member = Membership(
                            tetrahedron_membership_batch([(r1, r2, r3)], eps_face=1e-12)[0])
                        sols = solve_constellations(r1, r2, r3)
                        if member is Membership.INTERIOR:
                            assert len(sols) == 2
                        else:
                            assert sols == []


class TestBruteForceOracle:
    def test_against_direction_search(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 4:
            r = rng.uniform(0.3, PI - 0.3, 3)
            slacks = np.array(
                [r.sum() - PI, PI - (r[0] + r[1] - r[2]),
                 PI - (r[0] - r[1] + r[2]), PI - (-r[0] + r[1] + r[2])]
            )
            if np.min(np.abs(slacks)) < 0.12:
                continue
            checked += 1
            sols = solve_constellations(*r)
            found = oracles.triple_has_direction_solution(r, res_deg=2.0, tol_deg=2.5)
            assert found == (len(sols) == 2)
            if sols:
                hits = oracles.direction_triple_hits(
                    tuple(PI - x for x in r), res_deg=2.0, tol_deg=2.5
                )
                sol = sols[0]
                best = min(
                    max(angle_between(sol.l31.direction, u2),
                        angle_between(sol.l23.direction, u3))
                    for u2, u3 in hits
                )
                assert best <= math.radians(2.5)


def tiny_band_triples(rng, n, low=2e-3, high=1e-1):
    """Admissible triples whose smallest reduced angle d is log-uniform in
    [low, high]: the other two sum to pi + eta with |eta| < d and differ by
    less than pi - d, lifted to angles in (0, 4*pi)."""
    out = []
    while len(out) < n:
        d = math.exp(rng.uniform(math.log(low), math.log(high)))
        total, diff = PI + rng.uniform(-d, d), rng.uniform(-(PI - d), PI - d)
        a, b = (total + diff) / 2, (total - diff) / 2
        if not (d <= a < PI and d <= b < PI):
            continue
        r = [[d, a, b][i] for i in rng.permutation(3)]
        lifts = rng.integers(0, 4, 3)
        out.append(tuple(float([x, 2 * PI - x, 2 * PI + x, 4 * PI - x][m])
                         for x, m in zip(r, lifts)))
    return out


def face_slack_triples(rng, n, low=1e-9, high=1e-2, floor=0.05):
    """Admissible triples at a face slack log-uniform in [low, high] from one
    of the four tetrahedron faces, every reduced angle in [floor, pi - floor],
    lifted to angles in (0, 4*pi)."""
    out = []
    while len(out) < n:
        r = rng.uniform(floor, PI - floor, 3)
        slack = math.exp(rng.uniform(math.log(low), math.log(high)))
        face = rng.integers(0, 4)
        if face == 0:  # r1 + r2 + r3 - pi = slack
            r[2] = PI - r[0] - r[1] + slack
        else:  # pi - (r_i + r_j - r_k) = slack with k = face - 1
            k = face - 1
            i, j = [m for m in range(3) if m != k]
            r[k] = r[i] + r[j] - PI + slack
        if not np.all((r >= floor) & (r <= PI - floor)):
            continue
        lifts = rng.integers(0, 4, 3)
        out.append(tuple(float([x, 2 * PI - x, 2 * PI + x, 4 * PI - x][m])
                         for x, m in zip(r, lifts)))
    return out


def test_benchmark_residual_on_tiny_angles_and_near_faces():
    # the benchmark's check (bench/checks.check_triple): an absolute 1e-9 on
    # the residual at the helicoid axes, where uniform draws meet their
    # worst triples: a small reduced angle, or a face close by
    rng = np.random.default_rng(2028)
    for triples in (tiny_band_triples(rng, 1000), face_slack_triples(rng, 1000)):
        worst = 0.0
        for phis in triples:
            sols = solve_constellations(*phis)
            assert len(sols) == 2, phis
            worst = max([worst] + [oracles.axis_residual(c, phis) for c in sols])
        assert worst < oracles.AXIS_RESIDUAL_TOL
