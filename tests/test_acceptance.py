"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time
import warnings

import numpy as np

import oracles
from trinoids import cli
from trinoids import weierstrass as W
from trinoids.asymptotics import verify_end
from trinoids.classify import (
    Membership,
    barycentric_membership_batch,
    bobenko_membership_batch,
    tetrahedron_membership_batch,
)
from trinoids.constellation import (
    ParallelBoundaryWarning,
    lines_congruent,
    mirror_related,
    solve_constellations,
    verify_constellation,
)
from trinoids.lines import angle_between
from trinoids.params import (
    bps_to_lambda,
    bryant_mu_to_lambda,
    lambda_of_phi,
    lambda_to_bps,
    lambda_to_bryant_mu,
    phi_of_lambda,
    total_curvature,
)
from trinoids.surfaces import (
    Model,
    catenoid_cousin_point,
    cousin_period,
    helicoid_point,
    mean_curvature_estimate,
)

PI = math.pi


class Criterion:
    """Timer + reporter; marks the criterion FAIL if the block raises."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.title}]: {status} ({elapsed:.2f} s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f} s > {self.budget} s"
            )
        return False


def test_criterion_1_parameter_round_trips():
    with Criterion(1, "parameter round-trips", 1.0):
        rng = np.random.default_rng(10)
        n = 10_000
        lams = np.where(
            rng.uniform(size=n) < 0.5,
            np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n)),
            -np.exp(rng.uniform(np.log(1e-3), np.log(0.249), n)),
        )
        for lam in lams:
            phi = phi_of_lambda(lam)
            mu = lambda_to_bryant_mu(lam)
            bps = lambda_to_bps(lam)
            assert abs(lambda_of_phi(phi) - lam) <= 1e-12 * abs(lam)
            assert abs(bryant_mu_to_lambda(mu) - lam) <= 1e-12 * abs(lam)
            assert abs(bps_to_lambda(bps) - lam) <= 1e-12 * abs(lam)
            # four-corner loop: lambda -> phi -> mu -> bps -> lambda
            mu2 = phi / (2 * PI) - 0.5
            lam2 = bps_to_lambda(mu2 + 0.5)
            assert abs(lam2 - lam) <= 1e-12 * abs(lam)
            tc = total_curvature(lam)
            assert abs(tc - (-4 * PI * (2 * mu + 1))) <= 1e-12 * abs(tc)


def test_criterion_2_classifier_equivalence():
    with Criterion(2, "classifier equivalence on the 101^3 grid", 30.0):
        grid = np.linspace(0.0, PI, 101)
        pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
        eps = 1e-12
        half_space = tetrahedron_membership_batch(pts, eps)
        barycentric = barycentric_membership_batch(pts, eps)
        bobenko = bobenko_membership_batch(pts / (2 * PI), eps / (2 * PI))
        assert np.array_equal(half_space, barycentric)
        assert np.array_equal(half_space, bobenko)
        counts = {m.name: int(np.sum(half_space == m.value)) for m in Membership}
        print(f"  grid of {len(pts)} points: {counts}")


def test_criterion_3_helicoid_reproduction():
    with Criterion(3, "ruled-surface formula vs quadrature", 10.0):
        xs = np.linspace(-2.0, 2.0, 20)
        ys = np.linspace(-PI, PI, 20)
        for lam in (-0.2, 0.5, 1.0, 3.0):
            data = W.helicoid_data(lam)
            diffs = np.array([
                W.integrate(data, 0.0, [complex(x, y)], 1e-10)[0]
                - helicoid_point(lam, x, y)
                for x in xs
                for y in ys
            ])
            translation = diffs.mean(axis=0)
            assert np.abs(diffs - translation).max() < 1e-8


def test_criterion_4_cousin_validity():
    with Criterion(4, "catenoid cousin validity", 10.0):
        rng = np.random.default_rng(11)
        for lam in (-0.2, 0.5, 0.75, 2.0, 3.0):
            xs = np.linspace(-30.0, 30.0, 121)
            ys = np.linspace(0.0, cousin_period(lam), 64, endpoint=False)
            pts = catenoid_cousin_point(lam, xs[:, None], ys[None, :])
            assert np.all(pts[..., 2] > 0.0)
        # exact periodicity
        for _ in range(1000):
            lam = rng.uniform(-0.24, 4.0)
            if abs(lam) < 1e-3:
                continue
            x, y = rng.uniform(-5, 5), rng.uniform(0, 2 * PI)
            p1 = catenoid_cousin_point(lam, x, y)
            p2 = catenoid_cousin_point(lam, x, y + cousin_period(lam))
            assert np.linalg.norm(p1 - p2) <= 1e-12 * (1.0 + np.linalg.norm(p1))
        # hyperbolic mean curvature 1 at 100 random points with |x| <= 2
        for _ in range(100):
            lam = rng.choice([-0.2, 0.5, 0.75, 2.0])
            x, y = rng.uniform(-2, 2), rng.uniform(0, 2 * PI)
            est = mean_curvature_estimate(
                lambda a, b: catenoid_cousin_point(lam, a, b),
                Model.UPPER_HALF_SPACE, x, y, step=1e-3,
            )
            assert abs(est.value - 1.0) <= 1e-3


def test_criterion_5_constellation_count():
    with Criterion(5, "two-solution count over the 25^3 grid", 300.0):
        grid = np.linspace(0.0, PI, 27)[1:-1]
        interior = outside = boundary = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParallelBoundaryWarning)
            for r1 in grid:
                for r2 in grid:
                    for r3 in grid:
                        members = tetrahedron_membership_batch(
                            np.array([[r1, r2, r3]]), 1e-12
                        )[0]
                        sols = solve_constellations(r1, r2, r3)
                        if members == Membership.INTERIOR.value:
                            interior += 1
                            assert len(sols) == 2
                            for sol in sols:
                                rep = verify_constellation(sol, (r1, r2, r3))
                                assert rep.max_residual < 1e-9
                            assert not lines_congruent(sols[0].lines(), sols[1].lines())
                            assert mirror_related(sols[0].lines(), sols[1].lines())
                        else:
                            if members == Membership.BOUNDARY.value:
                                boundary += 1
                            else:
                                outside += 1
                            assert sols == []
        print(f"  grid triples: {interior} interior, {outside} outside, {boundary} boundary")

        # 1-degree brute-force direction oracle on 20 margin-separated triples
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 20:
            r = rng.uniform(0.3, PI - 0.3, 3)
            slacks = np.array([
                r.sum() - PI,
                PI - (r[0] + r[1] - r[2]),
                PI - (r[0] - r[1] + r[2]),
                PI - (-r[0] + r[1] + r[2]),
            ])
            if np.min(np.abs(slacks)) < 0.12:
                continue
            checked += 1
            sols = solve_constellations(*r)
            hits = oracles.direction_triple_hits(
                tuple(PI - x for x in r), res_deg=1.0, tol_deg=1.5
            )
            assert bool(hits) == (len(sols) == 2)
            if sols:
                sol = sols[0]
                best = min(
                    max(angle_between(sol.l31.direction, u2),
                        angle_between(sol.l23.direction, u3))
                    for u2, u3 in hits
                )
                assert best <= math.radians(1.5)


def test_criterion_6_conjugate_end_pipeline():
    with Criterion(6, "conjugate-end asymptotics pipeline", 300.0):
        alphas = (1 / 3, 1 / 2, 2 / 3, 3 / 2)
        for alpha in alphas:
            report = verify_end(W.power_end_data(alpha))
            assert report.fit.passed
            assert max(report.decay.sup_distance) < 1e-8, (
                f"alpha={alpha}: unperturbed end not on a rigid helicoid copy"
            )
        rng = np.random.default_rng(13)
        for k in range(10):
            alpha = alphas[k % 4]
            pe = W.power_end_data(
                alpha,
                g0=1.0,
                g1=tuple(rng.uniform(-0.01, 0.01, 2)),
                w1=tuple(rng.uniform(-0.01, 0.01, 2)),
            )
            report = verify_end(pe)
            assert report.slab.passed, f"slab FAIL for dataset {k}"
            assert report.rays_horizontal, f"horizontal-ray FAIL for dataset {k}"
            assert report.fit.residual < 1e-3, f"fit residual too large for dataset {k}"
            sups = report.decay.sup_distance
            assert all(b < a for a, b in zip(sups, sups[1:])), (
                f"profile not strictly decreasing for dataset {k}: {sups}"
            )
            assert sups[0] / sups[-1] >= 20.0, f"reduction below 20x for dataset {k}"


def test_criterion_7_pitch_convention_measurement():
    with Criterion(7, "ray-gap factor measurement", 120.0):
        matches = set()
        for alpha in (1 / 3, 1 / 2, 2 / 3, 3 / 2):
            report = verify_end(W.power_end_data(alpha))
            expected = abs(1 - alpha**2) * PI / (2 * alpha)
            assert abs(report.gap.measured - expected) <= 1e-6
            phi = PI * alpha
            lam = lambda_of_phi(phi)
            h_half = abs(lam) * phi
            h_ruling = 2 * abs(lam) * phi
            err_half = abs(report.gap.measured - h_half)
            err_ruling = abs(report.gap.measured - h_ruling)
            assert err_ruling < 1e-6 and err_half > 1e-2
            assert report.gap.matches == "ruling-gap"
            matches.add(report.gap.matches)
        print(f"  measured gap equals 2|lambda|phi (the '{matches.pop()}' convention) "
              "for every alpha tested")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    with Criterion(8, "byte-identical CLI artifacts", 120.0):
        pe = W.power_end_data(0.5, g1=(0.01,), w1=(0.005,))
        data_file = tmp_path / "end.json"
        data_file.write_text(json.dumps(W.data_to_json(pe)))

        def artifacts(tag: str):
            d = tmp_path / tag
            d.mkdir()
            outs = []
            cli.main(["classify", "1.0", "1.2", "1.4", "--json", str(d / "c.json")])
            cli.main(["convert", "--from", "lambda", "0.3", "--json", str(d / "v.json")])
            cli.main([
                "surface", "cousin", "0.75", "--nx", "9", "--ny", "9",
                "--obj", str(d / "s.obj"), "--csv", str(d / "s.csv"),
            ])
            cli.main([
                "constellation", "1.6", "1.6", "1.6",
                "--json", str(d / "k.json"), "--emit-obj", str(d / "k.obj"),
            ])
            cli.main([
                "verify-end", str(data_file), "--min-radius-exp", "5",
                "--arc-samples", "9", "--boundary-samples", "10",
                "--json", str(d / "e.json"), "--csv", str(d / "e.csv"),
            ])
            capsys.readouterr()
            for name in ("c.json", "v.json", "s.obj", "s.csv", "k.json", "k.obj",
                         "e.json", "e.csv"):
                outs.append((d / name).read_bytes())
            return outs

        first = artifacts("run1")
        second = artifacts("run2")
        assert first == second
