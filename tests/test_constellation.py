import math
import warnings

import numpy as np
import pytest

import oracles
from test_cross_kernel import REPLACED_FRAMES
from trinoids import cli, constellation
from trinoids.classify import Membership, tetrahedron_contains
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
from trinoids.lines import OrientedLine, angle_between, line_distance, unit
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
    return [l.transformed(rotation, translation) for l in lines]


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
        calls = []
        verify = constellation.verify_constellation

        def counting(c, phis):
            calls.append(phis)
            return verify(c, phis)

        monkeypatch.setattr(constellation, "verify_constellation", counting)
        for phis, checks in [(("1.6", "1.6", "1.6"), 2), (("0.3", "0.3", "0.3"), 0)]:
            calls.clear()
            path = tmp_path / f"{phis[0]}.json"
            code = cli.main(["constellation", *phis, "--json", str(path)])
            out = capsys.readouterr().out
            assert len(calls) == checks
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
            sol.l12.reversed(), sol.l23, sol.l31, sol.f1, sol.f2, sol.f3, sol.convention
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
                        member = tetrahedron_contains((r1, r2, r3), eps_face=1e-12)
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
