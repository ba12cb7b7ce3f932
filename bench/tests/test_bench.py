"""Tests of the benchmark's own machinery: tracer, self time, output checks.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from trinoids import asymptotics, cli, constellation, emit, surfaces, weierstrass  # noqa: E402

ADMISSIBLE = (1.6, 1.6, 1.6)
INADMISSIBLE = (0.3, 0.3, 0.3)
REBOUND = ("trinoids.asymptotics.integrate", "trinoids.constellation.classify_triple",
           "trinoids.weierstrass.quad")


# --- tracer ------------------------------------------------------------------

class ProbeWorkload(workloads.TripleSweep):
    """Triple sweep that records which wrappers exist while each item runs."""

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.seen = []

    def run(self, phis):
        self.seen.append(tracing.wrapped_attributes())
        return super().run(phis)


def test_no_wrappers_during_untraced_run(tmp_path):
    assert tracing.wrapped_attributes() == []
    probe = ProbeWorkload(1, str(tmp_path))
    result = worker.run_loop(probe, 0.0)
    assert result["failed"] == 0
    assert probe.seen and all(seen == [] for seen in probe.seen)


def test_wrappers_installed_during_and_removed_after_traced_run(tmp_path):
    tr = tracing.Tracer()
    probe = ProbeWorkload(1, str(tmp_path))
    with tracing.Installation(tr, layers.TARGETS):
        result = worker.run_loop(probe, 0.0, tracer=tr)
    assert result["failed"] == 0
    assert all(name in probe.seen[0] for name in REBOUND)
    assert tracing.wrapped_attributes() == []
    assert tr.counts["classify.classify_triple.calls"] == 2 * len(result["latencies"])
    assert {s.item for s in tr.spans} == set(range(len(result["latencies"])))


def test_wrappers_removed_when_the_traced_run_raises():
    from trinoids import classify

    with pytest.raises(ValueError):
        with tracing.Installation(tracing.Tracer(), layers.TARGETS):
            classify.classify_triple(-1.0, 1.0, 1.0)
    assert tracing.wrapped_attributes() == []


def test_missing_target_is_skipped():
    tr = tracing.Tracer()
    target = tracing.Target("weierstrass.no_such_function", "trinoids.weierstrass",
                            "no_such_function")
    with tracing.Installation(tr, (target,)):
        assert tracing.wrapped_attributes() == []


def span(sid, name, start, end, parent=None, outermost=True):
    return tracing.Span(sid, name, start, end, parent, 0, outermost)


def test_self_time_on_a_synthetic_tree():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 6.0, parent=0),   # overlaps a: covered once
        span(3, "c", 2.0, 3.0, parent=1),
        span(4, "d", 9.5, 12.0, parent=0),  # sticks out of root: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 5.0 - 0.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.5})


def test_busy_time_counts_recursion_once():
    spans = [span(0, "f", 0.0, 10.0), span(1, "f", 2.0, 5.0, parent=0, outermost=False)]
    agg = tracing.aggregate(spans)
    assert agg["f"]["busy_s"] == pytest.approx(10.0)
    assert agg["f"]["self_s"] == pytest.approx(10.0)
    assert agg["f"]["spans"] == 2


def test_every_layer_metric_is_reported(tmp_path):
    tr = tracing.Tracer()
    probe = workloads.TripleSweep(1, str(tmp_path))
    with tracing.Installation(tr, layers.TARGETS):
        result = worker.run_loop(probe, 0.0, tracer=tr)
    out = layers.per_layer(tr, len(result["latencies"]), result["diagnostics"], 0.1)
    assert [name for name, _ in layers.all_metric_names()] == list(out)
    assert out["constellation.solve_constellations.calls"]["value"] == 1.0
    assert 0.0 < out["constellation.useful_ratio"]["value"] < 1.0


# --- seeded inputs -----------------------------------------------------------

def test_same_seed_same_inputs(tmp_path):
    a = next(workloads.CliSmall(7, str(tmp_path)).cycles())
    b = next(workloads.CliSmall(7, str(tmp_path)).cycles())
    c = next(workloads.CliSmall(8, str(tmp_path)).cycles())
    assert a == b and a != c


# --- output checks -------------------------------------------------------------

def small_grid():
    xs = np.linspace(-2.0, 2.0, 9)
    ys = np.linspace(0.0, 2.0 * math.pi / math.sqrt(4.0), 7)
    return surfaces.surface_grid("cousin", 0.75, xs, ys)


def alter_digit(text: str, prefix: str) -> str:
    """Change the leading digit of the last number in the first row starting
    with ``prefix`` (a trailing digit of %.17g may not change the double)."""
    rows = text.split("\n")
    i = next(k for k, r in enumerate(rows) if r.startswith(prefix))
    row = rows[i]
    j = max(row.rfind(" "), row.rfind(","), row.rfind("/")) + 1
    j += 1 if row[j] == "-" else 0
    rows[i] = row[:j] + str((int(row[j]) + 1) % 10) + row[j + 1:]
    return "\n".join(rows)


def test_grid_obj_check_rejects_one_altered_digit():
    grid = small_grid()
    text = emit.obj_from_grid(grid)
    checks.check_grid_obj(text, grid.positions, grid.normals)
    for prefix in ("v ", "vn ", "f "):
        with pytest.raises(checks.CheckFailed):
            checks.check_grid_obj(alter_digit(text, prefix), grid.positions, grid.normals)
    with pytest.raises(checks.CheckFailed):
        checks.check_grid_obj(text.replace("vn ", "v ", 1), grid.positions, grid.normals)


def test_grid_csv_check_rejects_one_altered_digit():
    grid = small_grid()
    text = emit.csv_from_grid(grid)
    checks.check_grid_csv(text, grid.xs, grid.ys, grid.positions, grid.normals)
    with pytest.raises(checks.CheckFailed):
        checks.check_grid_csv(alter_digit(text, "-"), grid.xs, grid.ys, grid.positions,
                              grid.normals)
    with pytest.raises(checks.CheckFailed):
        checks.check_grid_csv(text.rsplit("\n", 2)[0] + "\n", grid.xs, grid.ys,
                              grid.positions, grid.normals)


def test_patch_obj_check_rejects_an_altered_patch_vertex():
    sols = constellation.solve_constellations(*ADMISSIBLE)
    segments = [line for c in sols for line in c.lines()]
    conv = sols[0].convention
    patches = [constellation.frame_patch(f, ADMISSIBLE[i], conv)
               for c in sols for i, (_, _, f) in enumerate(c.pairs())]
    text = emit.obj_from_segments_and_patches(segments, patches, 10.0)
    checks.check_patch_obj(text, len(segments), patches)
    rows = text.split("\n")
    last_v = max(k for k, r in enumerate(rows) if r.startswith("v "))
    rows[last_v] = alter_digit(rows[last_v], "v ")
    with pytest.raises(checks.CheckFailed):
        checks.check_patch_obj("\n".join(rows), len(segments), patches)


def test_file_check_rejects_a_different_file(tmp_path):
    path = tmp_path / "x.obj"
    path.write_text("v 1 2 3\n")
    checks.check_file(str(path), "v 1 2 3\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_file(str(path), "v 1 2 4\n")


def test_triple_check_rejects_swapped_sign_and_bad_counts():
    sols = constellation.solve_constellations(*ADMISSIBLE)
    checks.check_triple(ADMISSIBLE, "GenericAdmissible", sols)
    with pytest.raises(checks.CheckFailed, match="mirror"):
        checks.check_triple(ADMISSIBLE, "GenericAdmissible", [sols[0], sols[0]])
    with pytest.raises(checks.CheckFailed):
        checks.check_triple(ADMISSIBLE, "GenericAdmissible", sols[:1])
    with pytest.raises(checks.CheckFailed):
        checks.check_triple(ADMISSIBLE, "Inadmissible", sols)
    with pytest.raises(checks.CheckFailed):
        checks.check_triple(INADMISSIBLE, "Inadmissible", sols)
    checks.check_triple(INADMISSIBLE, "Inadmissible", [])


def test_triple_check_rejects_a_moved_line():
    sols = constellation.solve_constellations(*ADMISSIBLE)
    s = sols[1]
    moved = replace(s, l23=type(s.l23)(s.l23.point + np.array([0.0, 0.0, 1e-6]),
                                       s.l23.direction))
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check_triple(ADMISSIBLE, "GenericAdmissible", [sols[0], moved])


def test_admissibility_matches_the_classifier():
    from trinoids import classify

    rng = np.random.default_rng(3)
    for _ in range(2000):
        phis = workloads.draw_triple(rng)
        tag = classify.classify_triple(*phis, eps_face=checks.ADMISSIBLE_EPS).tag
        assert checks.admissible(phis) == (tag.value == "GenericAdmissible")


def test_unperturbed_end_check_rejects_a_shifted_gap():
    alpha = 0.5
    report = asymptotics.verify_end(weierstrass.power_end_data(alpha),
                                    radii=(0.5, 0.25, 0.125), samples_per_arc=5,
                                    boundary_samples=8)
    checks.check_end(alpha, False, report)
    bad = replace(report, gap=replace(report.gap, measured=report.gap.measured + 1e-5))
    with pytest.raises(checks.CheckFailed, match="gap"):
        checks.check_end(alpha, False, bad)
    far = replace(report, decay=replace(report.decay, sup_distance=(1e-7, 1e-9, 1e-9)))
    with pytest.raises(checks.CheckFailed, match="sup distance"):
        checks.check_end(alpha, False, far)


def fake_perturbed(sups=(1e-3, 1e-4, 1e-5), slab=True, horizontal=True, residual=1e-12):
    return SimpleNamespace(slab=SimpleNamespace(passed=slab), rays_horizontal=horizontal,
                           fit=SimpleNamespace(residual=residual),
                           decay=SimpleNamespace(sup_distance=sups))


def test_perturbed_end_check_rejects_each_failed_condition():
    checks.check_end(0.5, True, fake_perturbed())
    for bad in (fake_perturbed(sups=(1e-3, 1e-3, 1e-5)), fake_perturbed(sups=(1e-3, 9e-4, 1e-4)),
                fake_perturbed(slab=False), fake_perturbed(horizontal=False),
                fake_perturbed(residual=2e-3)):
        with pytest.raises(checks.CheckFailed):
            checks.check_end(0.5, True, bad)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_check_rejects_wrong_exit_code_and_broken_json():
    code, out, err = run_cli(["classify", *map(repr, ADMISSIBLE)])
    checks.check_cli("classify", ADMISSIBLE, code, out, err)
    assert json.loads(out)["tag"] == "GenericAdmissible"
    with pytest.raises(checks.CheckFailed, match="exit"):
        checks.check_cli("classify", ADMISSIBLE, 1, out, err)
    with pytest.raises(checks.CheckFailed, match="JSON"):
        checks.check_cli("classify", ADMISSIBLE, code, out[:-3], err)
    with pytest.raises(checks.CheckFailed, match="traceback"):
        checks.check_cli("classify", ADMISSIBLE, code, out, "Traceback (most recent call last)")
    code, out, err = run_cli(["constellation", *map(repr, INADMISSIBLE)])
    checks.check_cli("constellation", INADMISSIBLE, code, out, err)
    with pytest.raises(checks.CheckFailed):
        checks.check_cli("constellation", ADMISSIBLE, code, out, err)
