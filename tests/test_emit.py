"""The array-at-a-time emitters against the one-float-at-a-time oracles in
``tests/oracles.py``: every case must match byte for byte."""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

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
        rows = emit._GRID_CELLS[grid]
        del grid
        gc.collect()
        assert all(entry is not rows for entry in emit._GRID_CELLS.values())


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


GRID_SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 5), st.just(3))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    arrays(np.float64, GRID_SHAPES, elements=st.floats(allow_nan=True, allow_infinity=True)),
    # any bit pattern: NaN payloads, subnormals and every exponent alike
    arrays(np.uint64, GRID_SHAPES, elements=st.integers(0, 2**64 - 1)).map(
        lambda bits: bits.view(np.float64))))
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


class TestFloatKernel:
    """emit._float_cells against "%.17g" % float(v), value by value."""

    @staticmethod
    def assert_formats_like_percent(values):
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        (cells,) = emit._float_cells(values)
        got = emit._text(cells, b"\n").split("\n")[:-1]
        want = ["%.17g" % v for v in values.tolist()]
        if got != want:
            i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            pytest.fail(f"{values[i]!r} (bits {values[i:i + 1].view(np.uint64)[0]:#018x}) "
                        f"formats as {got[i]!r}, not {want[i]!r}")

    def test_raw_bit_patterns(self):
        # a million doubles drawn bit pattern by bit pattern: about 3 % of
        # them fall into the window 1e-4 <= |x| < 1e16, the rest fall back
        bits = np.random.default_rng(2024).integers(0, 2**64, 10**6, dtype=np.uint64,
                                                    endpoint=False)
        self.assert_formats_like_percent(bits.view(np.float64))

    def test_window_sweep(self):
        # a million doubles log-uniform over the window and a decade beyond
        # either end, with random signs
        rng = np.random.default_rng(2025)
        values = 10.0 ** rng.uniform(-5.0, 17.0, 10**6) * rng.choice([-1.0, 1.0], 10**6)
        self.assert_formats_like_percent(values)

    def test_powers_of_ten_neighbours(self):
        # log10 is least sure of k next to a power of ten: 16 doubles on
        # either side of every 10^j for j in -6..18, both signs
        values = []
        for j in range(-6, 19):
            down = up = float(f"1e{j}")
            values.append(down)
            for _ in range(16):
                down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
                values += [down, up]
        values = np.array(values)
        self.assert_formats_like_percent(np.concatenate([values, -values]))

    def test_half_way_ties(self):
        # doubles whose exact expansion has 18 significant digits ending in
        # 5: the 17th digit is a tie, which dtoa rounds half to even.  Below
        # 2^51 the doubles are spaced 1/4 apart or closer, so n + 1/4 is one
        # for a 16-digit n, and n + 1/8 for a 15-digit n
        rng = np.random.default_rng(2026)
        values = [2251799813685247.25, 2251799813685247.75]
        for low, high, fractions in ((10**15, 2**51, (0.25, 0.75)),
                                     (10**14, 10**15, (0.125, 0.375, 0.625, 0.875))):
            values += [n + f for n in rng.integers(low, high, 500).tolist() for f in fractions]
        for v in values:
            digits = Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        values = np.array(values)
        self.assert_formats_like_percent(np.concatenate([values, -values]))

    def test_round_up_to_a_power_of_ten(self):
        # doubles just below 10^j whose 17 digits round up to 10^j: none
        # lies in the window (there the doubles are spaced wider than half
        # a unit of the 17th digit), so all of them take the fallback
        values = [float(f"1e{j}") for j in range(-323, 309)
                  if Fraction(float(f"1e{j}")) < Fraction(10) ** j]
        ups = [v for v in values if ("%.17g" % v).split("e")[0] == "1"]
        assert len(ups) >= 10
        self.assert_formats_like_percent(np.array(ups + [-v for v in ups]))

    def test_special_values(self):
        tiny = np.random.default_rng(2027).integers(1, 2**52, 100, dtype=np.uint64)
        values = SPECIALS + [-math.nan, 2.2250738585072009e-308, 1e-4, 1e16,
                             np.nextafter(1e16, 0.0), np.nextafter(1e-4, 0.0)]
        values = np.concatenate([values, tiny.view(np.float64), -tiny.view(np.float64)])
        self.assert_formats_like_percent(values)

    def test_shapes(self):
        # every array keeps its shape, with the cells as a last axis
        a, b, c = emit._float_cells(np.zeros((2, 3)), [], 1.5)
        assert a.shape == (2, 3, emit.FIELD) and b.shape == (0, emit.FIELD)
        assert c.shape == (emit.FIELD,) and bytes(c[c != 0]) == b"1.5"


def test_less_memory_than_percent_writers():
    # the OBJ and CSV of the benchmark's grid, both held: the byte tables
    # peak no higher than the frozen "%" writers (about 28 MB against 35)
    def peak(obj, csv):
        grid = cousin_grid(201, 201, ball=True)
        tracemalloc.start()
        try:
            texts = [obj(grid), csv(grid)]
            assert len(texts[0]) > 7 * 10**6
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(emit.obj_from_grid, emit.csv_from_grid)
    assert peak(emit.obj_from_grid, emit.csv_from_grid) <= \
        peak(oracles.percent_obj_from_grid, oracles.percent_csv_from_grid)


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
