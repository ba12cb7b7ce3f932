"""Deterministic OBJ, CSV and JSON emitters used by the command line."""

from __future__ import annotations

import functools
import json
import os
import secrets
import weakref
from importlib import resources
from typing import Iterable, Optional, Sequence

import numpy as np

from .lines import OrientedLine
from .surfaces import SurfaceGrid

VERTEX_ROW = "v %.17g %.17g %.17g\n"


def _format_rows(row_fmt: str, rows) -> str:
    """Apply ``row_fmt`` to every row of a 2-D array in one ``%`` operation.

    ``tolist`` hands ``%`` the same Python floats and ints that formatting
    one element at a time would, so the text is byte-identical to that.
    """
    rows = np.asarray(rows)
    return (row_fmt * len(rows)) % tuple(rows.reshape(-1).tolist())


def _quads(nx: int, ny: int, offset: int = 0) -> np.ndarray:
    """Corner indices (a, b, c, d) of the quads of an nx-by-ny grid,
    row-major, for vertices numbered from ``offset + 1``."""
    j, i = np.meshgrid(np.arange(ny - 1), np.arange(nx - 1), indexing="ij")
    a = (offset + j * nx + i + 1).reshape(-1)
    return np.stack([a, a + 1, a + nx + 1, a + nx], axis=1)


# the formatted positions and normals of each live grid, as "\n%.17g %.17g %.17g"
# rows; a grid is immutable, so its entry cannot go stale, and it goes away with it
_GRID_ROWS: weakref.WeakKeyDictionary[SurfaceGrid, tuple[str, str]] = weakref.WeakKeyDictionary()


def _grid_rows(grid: SurfaceGrid) -> tuple[str, str]:
    """Position and normal rows of ``grid``, each led by its newline,
    formatted once per grid and shared by the OBJ and CSV writers."""
    rows = _GRID_ROWS.get(grid)
    if rows is None:
        rows = tuple(_format_rows("\n%.17g %.17g %.17g", a.reshape(-1, 3))
                     for a in (grid.positions, grid.normals))
        _GRID_ROWS[grid] = rows
    return rows


def obj_from_grid(grid: SurfaceGrid) -> str:
    """Wavefront OBJ with one vertex/normal per grid node and quad faces.

    Quads keep the parameter grid recoverable; vertex order is row-major
    (y index outer, x index inner), indices are 1-based.
    """
    ny, nx, _ = grid.positions.shape
    positions, normals = _grid_rows(grid)
    # each index is formatted once, as the "a//a" token of its vertex and normal
    tokens = np.array([f"{a}//{a}" for a in range(1, nx * ny + 1)], dtype=object)
    corners = tokens[_quads(nx, ny, -1)]
    # every row after the header starts with its newline; the last one ends the file
    return "".join([
        f"# parametric grid {nx} x {ny}, model {grid.model.value}",
        positions.replace("\n", "\nv "),
        normals.replace("\n", "\nvn "),
        ("\nf %s %s %s %s" * len(corners)) % tuple(corners.reshape(-1).tolist()),
        "\n",
    ])


def csv_from_grid(grid: SurfaceGrid) -> str:
    """CSV rows x,y,px,py,pz,nx,ny,nz at full double precision."""
    ny, nx, _ = grid.positions.shape
    positions, normals = _grid_rows(grid)
    xs = ["%.17g" % x for x in grid.xs.tolist()]
    ys = ["%.17g" % y for y in grid.ys.tolist()]
    fields = [None] * (4 * nx * ny)
    fields[0::4] = xs * ny
    fields[1::4] = [y for y in ys for _ in range(nx)]
    fields[2::4] = positions.split("\n")[1:]
    fields[3::4] = normals.split("\n")[1:]
    # neither the header nor a formatted float holds a space
    text = ("x,y,px,py,pz,nx,ny,nz" + "\n%s %s %s %s" * (nx * ny) + "\n") % tuple(fields)
    return text.replace(" ", ",")


def _segments(lines_in: Iterable[OrientedLine], box: float) -> tuple[str, int]:
    """OBJ text of the clipped line elements, and how many vertices it holds."""
    out = ["# oriented lines clipped to the cube of half-width %.17g\n" % box]
    vertex_count = 0
    for line in lines_in:
        # clip by intersecting the parameter intervals per axis
        lo, hi = -np.inf, np.inf
        # a huge box overflows to an infinite parameter, which clips correctly
        with np.errstate(over="ignore"):
            for k in range(3):
                d, p = line.direction[k], line.point[k]
                if abs(d) < 1e-15:
                    if abs(p) > box:
                        lo, hi = 1.0, 0.0
                    continue
                ta, tb = (-box - p) / d, (box - p) / d
                lo, hi = max(lo, min(ta, tb)), min(hi, max(ta, tb))
        if not lo < hi:
            continue
        out.append(_format_rows(VERTEX_ROW, [line.at(float(lo)), line.at(float(hi))]))
        vertex_count += 2
        out.append(f"l {vertex_count - 1} {vertex_count}\n")
    return "".join(out), vertex_count


def obj_from_segments_and_patches(lines_in: Iterable[OrientedLine],
                                  patches: Sequence[np.ndarray],
                                  box: float = 10.0) -> str:
    """Clipped line elements plus quad-meshed patches in one OBJ.

    ``patches`` are (ny, nx, 3) position arrays; their vertex indices follow
    the line vertices.
    """
    text, offset = _segments(lines_in, box)
    parts = [text]
    for patch in patches:
        ny, nx, _ = patch.shape
        parts.append(_format_rows(VERTEX_ROW, patch.reshape(-1, 3)))
        parts.append(_format_rows("f %d %d %d %d\n", _quads(nx, ny, offset)))
        offset += ny * nx
    return "".join(parts)


def decay_csv(radii: Sequence[float], sups: Sequence[float]) -> str:
    return "radius,sup_distance\n" + _format_rows("%.17g,%.17g\n", list(zip(radii, sups)))


def to_plain(value):
    """Recursively convert numpy scalars/arrays to built-in Python types."""
    if isinstance(value, dict):
        return {k: to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return to_plain(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def dump_json(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(to_plain(doc), sort_keys=True, indent=2) + "\n"


def load_schema(name: str) -> dict:
    """Load a JSON schema shipped with the package."""
    with resources.files("trinoids.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _validator(name: str):
    """The validator of a shipped schema; the schema is loaded and checked
    against its metaschema once per process."""
    import jsonschema

    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_against_schema(doc: dict, schema_name: str) -> None:
    """``jsonschema.validate`` without checking the schema again on every call:
    the same best-matching error is raised."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(to_plain(doc)))
    if error is not None:
        raise error


def write_text(path: Optional[str], text: str, force: bool = False) -> None:
    """Write ``text`` to ``path``; do nothing when ``path`` is None.

    A failed write leaves no partial file behind.  Without ``force`` the file
    is created exclusively, so an existing file is never touched.  With
    ``force`` the text goes to a fresh file next to ``path`` that then
    replaces it in one step.  Either way the new file gets the mode a plain
    ``open`` gives.
    """
    if path is None:
        return
    dest = f"{path}.{secrets.token_hex(8)}.tmp" if force else path
    try:
        fh = open(dest, "x")
    except FileExistsError:
        raise FileExistsError(f"{path} exists; pass --force to overwrite") from None
    try:
        with fh:
            fh.write(text)
        if force:
            os.replace(dest, path)
    except BaseException:
        os.unlink(dest)
        raise
