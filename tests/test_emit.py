"""The array-at-a-time emitters against the one-float-at-a-time oracles in
``tests/oracles.py``: every case must match byte for byte."""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from trinoids import constellation, emit, params, surfaces
from trinoids.lines import OrientedLine
from trinoids.surfaces import Model, SurfaceGrid

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e308, 1e308,
            math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0, 123456789.0]


def assert_same_text(got, expected):
    # compared without assert, whose report would diff megabytes of text
    if got != expected:
        at = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"texts differ from offset {at}: "
                    f"{got[at:at + 60]!r} != {expected[at:at + 60]!r}")


def assert_same_grid_text(grid):
    assert_same_text(emit.obj_from_grid(grid), oracles.obj_from_grid(grid))
    assert_same_text(emit.csv_from_grid(grid), oracles.csv_from_grid(grid))


@pytest.mark.parametrize("kind,lam,ball", [
    ("helicoid", 0.75, False),
    ("catenoid", 0.3, False),
    ("cousin", 0.75, False),
    ("cousin", 1.2, True),
])
@pytest.mark.parametrize("nx,ny", [(13, 7), (7, 13), (2, 2), (2, 5)])
def test_catalog_grids(kind, lam, ball, nx, ny):
    ymax = 2.0 * math.pi / math.sqrt(1.0 + 4.0 * lam) if kind == "cousin" else math.pi
    ys = np.linspace(0.0 if kind == "cousin" else -math.pi, ymax, ny)
    grid = surfaces.surface_grid(kind, lam, np.linspace(-2.0, 2.0, nx), ys, ball_model=ball)
    assert_same_grid_text(grid)


def cousin_grid(nx, ny, ball=False):
    ys = np.linspace(0.0, 2.0 * math.pi / math.sqrt(1.0 + 4.0 * 0.75), ny)
    return surfaces.surface_grid("cousin", 0.75, np.linspace(-2.0, 2.0, nx), ys, ball_model=ball)


def test_bench_sized_grid():
    """The 201 x 201 grid that the benchmark emits, in the ball model."""
    assert_same_grid_text(cousin_grid(201, 201, ball=True))


class TestSharedRows:
    """Both writers share one formatting of a grid's positions and normals."""

    def test_any_order_gives_the_oracle_bytes(self):
        grid = cousin_grid(13, 7)
        obj, csv = oracles.obj_from_grid(grid), oracles.csv_from_grid(grid)
        assert emit.csv_from_grid(grid) == csv
        assert emit.obj_from_grid(grid) == obj
        assert emit.obj_from_grid(grid) == obj

    def test_grid_is_immutable(self):
        positions = np.ones((2, 3, 3))
        grid = SurfaceGrid(xs=np.zeros(3), ys=np.zeros(2), positions=positions,
                           normals=positions, model=Model.EUCLIDEAN)
        text = emit.obj_from_grid(grid)
        positions[0, 0, 0] = 2.0
        for array in (grid.xs, grid.ys, grid.positions, grid.normals):
            with pytest.raises(ValueError):
                array[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.positions = positions
        assert emit.obj_from_grid(grid) == text == oracles.obj_from_grid(grid)

    def test_rows_go_away_with_the_grid(self):
        grid = cousin_grid(5, 4)
        emit.csv_from_grid(grid)
        rows = emit._GRID_ROWS[grid]
        del grid
        gc.collect()
        assert all(entry is not rows for entry in emit._GRID_ROWS.values())


def test_special_values():
    values = np.array(SPECIALS * 9)
    positions = values[:3 * 4 * 5].reshape(5, 4, 3)
    normals = values[::-1][:3 * 4 * 5].reshape(5, 4, 3)
    grid = SurfaceGrid(xs=values[:4], ys=values[-5:], positions=positions,
                       normals=normals, model=Model.EUCLIDEAN)
    text = emit.csv_from_grid(grid)
    for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "10000000000000000"):
        assert token in text.replace("\n", ",").split(",")
    assert_same_grid_text(grid)


def test_degenerate_grid_shapes():
    for ny, nx in [(1, 1), (1, 4), (4, 1), (0, 3)]:
        grid = SurfaceGrid(xs=np.linspace(0.0, 1.0, nx), ys=np.linspace(0.0, 1.0, ny),
                           positions=np.ones((ny, nx, 3)), normals=np.zeros((ny, nx, 3)),
                           model=Model.BALL)
        assert_same_grid_text(grid)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5), st.just(3)),
              elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_arbitrary_doubles(positions):
    ny, nx, _ = positions.shape
    grid = SurfaceGrid(xs=positions[0, :, 0], ys=positions[:, 0, 1], positions=positions,
                       normals=positions[::-1, ::-1], model=Model.UPPER_HALF_SPACE)
    assert_same_grid_text(grid)
    assert emit.obj_from_segments_and_patches([], [positions]) == \
        oracles.obj_from_segments_and_patches([], [positions])


def test_segments_and_patches():
    phis = [1.9, 2.2, 2.5]
    convention = params.PitchConvention.HALF_GAP
    solutions = constellation.solve_constellations(*phis, convention=convention)
    assert solutions
    segments = [line for c in solutions for line in c.lines()]
    # one line far outside the box is clipped away and adds no vertices
    segments.append(OrientedLine(np.array([0.0, 50.0, 0.0]), np.array([1.0, 0.0, 0.0])))
    patches = [constellation.frame_patch(frame, phis[i], convention)
               for c in solutions for i, (_, _, frame) in enumerate(c.pairs())]
    patches.append(np.arange(2 * 3 * 3, dtype=float).reshape(3, 2, 3) - 4.5)
    for box in (10.0, 0.5, 1e308):
        # 1e308 overflows the clip parameters; that must stay silent
        with np.errstate(over="ignore"):
            expected = oracles.obj_from_segments_and_patches(segments, patches, box)
            expected_segments = oracles.obj_from_segments(segments, box)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = emit.obj_from_segments_and_patches(segments, patches, box)
            got_segments = emit.obj_from_segments_and_patches(segments, [], box)
        assert got == expected
        assert got_segments == expected_segments
    assert emit.obj_from_segments_and_patches([], patches) == \
        oracles.obj_from_segments_and_patches([], patches)
    assert emit.obj_from_segments_and_patches(segments, []) == \
        oracles.obj_from_segments_and_patches(segments, [])


def test_decay_csv():
    radii = tuple(0.5**k for k in range(1, 9))
    sups = np.array(SPECIALS[:8])
    assert emit.decay_csv(radii, sups) == oracles.decay_csv(radii, sups)
    assert emit.decay_csv(list(radii), sups[:3]) == oracles.decay_csv(list(radii), sups[:3])
    assert emit.decay_csv([], []) == oracles.decay_csv([], []) == "radius,sup_distance\n"


class TestWriteText:
    def test_existing_file_untouched_without_force(self, tmp_path):
        path = tmp_path / "out.obj"
        path.write_text("old\n")
        with pytest.raises(FileExistsError, match="force"):
            emit.write_text(str(path), "new\n")
        assert path.read_text() == "old\n"
        emit.write_text(str(path), "new\n", force=True)
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.obj"]

    def test_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            emit.write_text(str(tmp_path / "a"), "a")
            emit.write_text(str(tmp_path / "b"), "b", force=True)
            (tmp_path / "c").write_text("c")
        finally:
            os.umask(old)
        modes = {name: os.stat(tmp_path / name).st_mode & 0o777 for name in "abc"}
        assert modes == {"a": 0o640, "b": 0o640, "c": 0o640}

    @pytest.mark.parametrize("force", [False, True])
    def test_unencodable_text_leaves_no_file(self, tmp_path, force):
        path = tmp_path / "out.csv"
        if force:
            path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            emit.write_text(str(path), "x\ud800\n", force=force)
        assert os.listdir(tmp_path) == (["out.csv"] if force else [])
        if force:
            assert path.read_text() == "old\n"

    @pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE and SIGXFSZ")
    @pytest.mark.parametrize("force", [False, True])
    def test_write_failing_midway_leaves_no_partial_file(self, tmp_path, force):
        """A file size limit makes the write fail after its first 4 KiB."""
        path = tmp_path / "out.obj"
        if force:
            path.write_text("old\n")
        script = (
            "import resource, signal, sys\n"
            "from trinoids import emit\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.RLIM_INFINITY))\n"
            "try:\n"
            "    emit.write_text(sys.argv[1], 'v 1 2 3\\n' * 10000, force=sys.argv[2] == '1')\n"
            "except OSError:\n"
            "    sys.exit(7)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, str(path), "1" if force else "0"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 7, proc.stderr
        assert os.listdir(tmp_path) == (["out.obj"] if force else [])
        if force:
            assert path.read_text() == "old\n"
