"""The four benchmark workloads: seeded inputs, the timed call, the check.

Every workload is a closed loop with one caller: the worker runs one item,
checks it outside the timed region and only then starts the next.  Inputs
come in *cycles* drawn from ``numpy.random.default_rng(seed)``; a cycle
holds a fixed mix of item kinds in seeded order, and a run always ends on a
cycle boundary so that every run of a workload measures the same mix.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

import checks

ALPHAS = (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.5)
PERTURBATION = 0.01   # g1, w1 ~ U(-0.01, 0.01)^2
ANGLE_RANGE = 4.0 * math.pi
GRID_N = 201
BOX = 10.0


def draw_triple(rng: np.random.Generator) -> Tuple[float, float, float]:
    return tuple(float(x) for x in rng.uniform(0.0, ANGLE_RANGE, 3))


def draw_admissible_triple(rng: np.random.Generator,
                           admissible: bool = True) -> Tuple[float, float, float]:
    """A triple drawn like draw_triple, redrawn until its admissibility
    is ``admissible``."""
    while True:
        phis = draw_triple(rng)
        if checks.admissible(phis) == admissible:
            return phis


class Workload:
    """Base class: ``cycles`` yields lists of item specs, ``run`` is the timed
    call into the program, ``check`` raises ``checks.CheckFailed``."""

    name = ""
    item = ""  # what one counted item is

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self.diagnostics: Dict[str, float] = {}

    def cycle(self, rng: np.random.Generator) -> List[Any]:
        raise NotImplementedError

    def cycles(self, stream: int = 0) -> Iterator[List[Any]]:
        rng = np.random.default_rng([self.seed, stream])
        while True:
            yield self.cycle(rng)

    def run(self, spec: Any) -> Any:
        raise NotImplementedError

    def check(self, spec: Any, output: Any) -> None:
        raise NotImplementedError

    def _path(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)

    def note_max(self, key: str, value: float) -> None:
        self.diagnostics[key] = max(self.diagnostics.get(key, value), value)


class EndVerify(Workload):
    """Quadrature in weierstrass does almost all the work here and none in
    the other workloads.  Perturbed ends carry more monomials; unperturbed
    ends take the containment-floor branch of decay_profile."""

    name = "end-verify"
    item = "one asymptotics.verify_end call at default sampling"

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        from trinoids import asymptotics, weierstrass
        self.asymptotics, self.weierstrass = asymptotics, weierstrass

    def cycle(self, rng):
        """Two unperturbed ends and one perturbed end per alpha, in seeded
        order: the median item is an unperturbed end and p90 a perturbed one."""
        specs = [(alpha, None, None) for alpha in ALPHAS for _ in range(2)]
        for alpha in ALPHAS:
            g1 = tuple(float(x) for x in rng.uniform(-PERTURBATION, PERTURBATION, 2))
            w1 = tuple(float(x) for x in rng.uniform(-PERTURBATION, PERTURBATION, 2))
            specs.append((alpha, g1, w1))
        out = []
        for i in rng.permutation(len(specs)):
            alpha, g1, w1 = specs[i]
            if g1 is None:
                data = self.weierstrass.power_end_data(alpha)
            else:
                data = self.weierstrass.power_end_data(alpha, g0=1.0, g1=g1, w1=w1)
            out.append((alpha, g1 is not None, data))
        return out

    def run(self, spec):
        return self.asymptotics.verify_end(spec[2])

    def check(self, spec, report):
        alpha, perturbed, _ = spec
        worst = checks.check_end(alpha, perturbed, report)
        if worst is not None:
            self.note_max("asymptotics.unperturbed_sup_distance", worst)


class TripleSweep(Workload):
    """classify, constellation and lines do all the work, weierstrass none.
    Angles over (0, 4 pi) make reduced_angle reduce; about 1/3 of the
    triples are admissible, so p50 is the classify-only path and p90 the
    solve path."""

    name = "triple-sweep"
    item = "one end-angle triple: classify_triple then solve_constellations"
    BLOCK = 256

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        from trinoids import classify, constellation
        self.classify, self.constellation = classify, constellation

    def cycle(self, rng):
        return [tuple(float(x) for x in row)
                for row in rng.uniform(0.0, ANGLE_RANGE, (self.BLOCK, 3))]

    def run(self, phis):
        outcome = self.classify.classify_triple(*phis)
        return outcome, self.constellation.solve_constellations(*phis)

    def check(self, phis, output):
        outcome, solutions = output
        checks.check_triple(phis, outcome.tag.value, solutions)


class MeshEmit(Workload):
    """emit formatting dominates and surfaces is most of the rest; the only
    workload that writes large files."""

    name = "mesh-emit"
    item = "one 201x201 surface written as OBJ and CSV, or one constellation OBJ with patches"

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        from trinoids import constellation, emit, params, surfaces
        self.constellation, self.emit = constellation, emit
        self.params, self.surfaces = params, surfaces
        self.xs = np.linspace(-2.0, 2.0, GRID_N)

    def cycle(self, rng):
        """Helicoid, catenoid, cousin (half-space), cousin (ball) and one
        constellation OBJ, in seeded order."""
        lams = [float(x) for x in rng.uniform(0.1, 1.5, 4)]
        specs = [("helicoid", lams[0], False), ("catenoid", lams[1], False),
                 ("cousin", lams[2], False), ("cousin", lams[3], True),
                 ("constellation", draw_admissible_triple(rng), None)]
        return [specs[i] for i in rng.permutation(len(specs))]

    def run(self, spec):
        kind, arg, ball = spec
        emit = self.emit
        if kind == "constellation":
            convention = self.params.PitchConvention.HALF_GAP
            solutions = self.constellation.solve_constellations(*arg, convention=convention)
            segments = [line for c in solutions for line in c.lines()]
            patches = [self.constellation.frame_patch(frame, arg[i], convention)
                       for c in solutions for i, (_, _, frame) in enumerate(c.pairs())]
            text = emit.obj_from_segments_and_patches(segments, patches, BOX)
            emit.write_text(self._path("constellation.obj"), text, True)
            return len(segments), patches, text
        if kind == "cousin":
            ys = np.linspace(0.0, 2.0 * math.pi / math.sqrt(1.0 + 4.0 * arg), GRID_N)
        else:
            ys = np.linspace(-math.pi, math.pi, GRID_N)
        grid = self.surfaces.surface_grid(kind, arg, self.xs, ys, ball_model=ball)
        obj = emit.obj_from_grid(grid)
        emit.write_text(self._path("surface.obj"), obj, True)
        csv = emit.csv_from_grid(grid)
        emit.write_text(self._path("surface.csv"), csv, True)
        return grid, obj, csv

    def check(self, spec, output):
        if spec[0] == "constellation":
            n_lines, patches, text = output
            checks.require(n_lines == 6, f"constellation OBJ from {n_lines} lines, expected 6")
            checks.check_file(self._path("constellation.obj"), text)
            checks.check_patch_obj(text, n_lines, patches)
            return
        grid, obj, csv = output
        checks.check_file(self._path("surface.obj"), obj)
        checks.check_file(self._path("surface.csv"), csv)
        checks.check_grid_obj(obj, grid.positions, grid.normals)
        checks.check_grid_csv(csv, grid.xs, grid.ys, grid.positions, grid.normals)


def _draw_away(rng, lo, hi, avoid):
    while True:
        x = float(rng.uniform(lo, hi))
        if abs(x - avoid) > 1e-3:
            return x


class CliSmall(Workload):
    """Parser construction, config loading and schema validation dominate
    here and are negligible elsewhere; the triple code runs at N = 1 with
    small outputs, so a batch rewrite that slows single calls shows here."""

    name = "cli-small"
    item = "one in-process cli.main invocation"
    CONVERT = (("lambda", -0.2, 2.0, 0.0), ("phi", 0.2, ANGLE_RANGE, math.pi),
               ("mu", -0.45, 2.0, 0.0), ("bps", 0.05, 2.0, 0.5))
    NODES = 9

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        from trinoids import cli
        self.cli = cli

    def cycle(self, rng):
        """One classify, convert and surface command and two constellation
        --json commands, one admissible and one not, in seeded order.  Fixing
        the admissible share keeps p90 inside the admissible-solve class
        instead of on a class boundary that moves with the seed."""
        phis_a = draw_triple(rng)
        phis_b = draw_admissible_triple(rng)
        phis_c = draw_admissible_triple(rng, admissible=False)
        source, lo, hi, avoid = self.CONVERT[int(rng.integers(len(self.CONVERT)))]
        kind = ("helicoid", "catenoid", "cousin")[int(rng.integers(3))]
        surface = ["surface", kind, repr(float(rng.uniform(0.1, 1.5))),
                   "--nx", str(self.NODES), "--ny", str(self.NODES),
                   "--obj", self._path("s.obj"), "--csv", self._path("s.csv"), "--force"]
        if kind == "cousin" and rng.integers(2):
            surface += ["--model", "ball"]
        specs = [
            ("classify", phis_a, ["classify", *map(repr, phis_a)]),
            ("convert", None, ["convert", "--from", source, repr(_draw_away(rng, lo, hi, avoid))]),
            *(("constellation", phis, ["constellation", *map(repr, phis),
                                       "--json", self._path("k.json"), "--force"])
              for phis in (phis_b, phis_c)),
            ("surface", None, surface),
        ]
        return [specs[i] for i in rng.permutation(len(specs))]

    def run(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(spec[2])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, spec, output):
        kind, phis, _ = spec
        code, stdout, stderr = output
        checks.check_cli(kind, phis, code, stdout, stderr)
        if kind == "constellation":
            checks.check_file(self._path("k.json"), stdout)
        elif kind == "surface":
            n = self.NODES
            expected = {"s.obj": 1 + 2 * n * n + (n - 1) ** 2, "s.csv": 1 + n * n}
            for name, rows in expected.items():
                with open(self._path(name)) as fh:
                    found = fh.read().count("\n")
                os.remove(self._path(name))  # so a later item cannot pass on this file
                checks.require(found == rows, f"surface {name} has {found} rows, not {rows}")


WORKLOADS = {w.name: w for w in (EndVerify, TripleSweep, MeshEmit, CliSmall)}
