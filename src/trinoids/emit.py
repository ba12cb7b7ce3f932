"""Deterministic OBJ, CSV and JSON emitters used by the command line.

Each JSON document is checked against its schema by a checker compiled once
per shipped schema (``_compile``); jsonschema is the checker's test oracle.

Every float in an OBJ or CSV file is written as ``"%.17g" % x`` would write
it, byte for byte, but a whole array at a time.  CPython formats 17 digits
with bignum arithmetic (its dtoa takes a fast path only up to 14), about
0.4 us per value; ``_float_cells`` gets the same digits from numpy array
operations, exactly:

* Window: 1e-4 <= |x| < 1e16, where ``%.17g`` writes fixed notation.  There
  k = floor(log10 |x|) lies in [-4, 15], and 10^(16-k) is an exact double.
* Dekker's two-product (Numer. Math. 18, 1971) splits y = |x| 10^(16-k)
  into hi + lo exactly: hi = fl(y), and lo comes from Veltkamp's split of
  both factors, each partial product exact.  numpy evaluates every ufunc on
  its own and never contracts one into a fused multiply-add, so no step
  rounds differently from the error analysis (Higham 2002, ch. 3).
* Only rows with 1e16 < hi < 1e17 stay.  There the doubles are spaced 2 to
  16 apart, so hi is an even integer and |lo| <= 8, and hi + rint(lo) is y
  rounded half to even to an integer: the 17 digits dtoa writes.  The bounds
  are strict, so an estimate of k off by one (log10 near a power of ten) or
  a y that rounds to 10^16 or 10^17 never stays, and no carry can reach
  10^17: below it hi <= 10^17 - 16.
* Everything else is formatted by ``"%.17g" % x``, one value at a time:
  +-0, subnormals and other |x| < 1e-4, |x| >= 1e16, nan and +-inf, and the
  rows dropped by the bounds.  This fallback is part of the contract; the
  tests compare the kernel with ``%`` on raw bit patterns, on the
  neighbours of every power of ten and on half-way ties.

Each value becomes a row of FIELD bytes, NUL where the text is shorter;
``_text`` lays such rows and literal separators side by side, BLOCK rows at
a time, and drops the NULs, so a file is written from byte tables, never
from one Python string per value.  Face and line indices take the same
route through ``_int_cells``.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import secrets
import weakref
from importlib import resources
from typing import Iterable, Optional, Sequence

import numpy as np

from .lines import OrientedLine
from .surfaces import SurfaceGrid

# bytes of the longest %.17g text, "-2.2250738585072014e-308"
FIELD = 24
# values formatted, and rows joined, at a time: bounds the working arrays
BLOCK = 8192

_POW10 = np.array([float(10**j) for j in range(21)])
_SPLITTER = 2.0**27 + 1.0


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, exact, each half of at most 26 bits."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# "0000" to "9999": the ASCII digits of every 4-digit group
_QUADS = (np.arange(10**4, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
          % 10 + 48).astype(np.uint8)


def _items(cells: np.ndarray) -> np.ndarray:
    """(n, w) uint8 cells viewed as n items of w bytes each."""
    return cells.view(np.dtype((np.void, cells.shape[1])))[:, 0]


def _float_cells(*arrays) -> list[np.ndarray]:
    """Per array, array.shape + (FIELD,) uint8: each value's ``"%.17g" %
    value``, NUL-padded (see the module docstring for why the digits are
    exact).  All arrays go through one pass of the kernel."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    x = np.concatenate([a.reshape(-1) for a in arrays])
    cells = np.zeros((len(x), FIELD), np.uint8)
    for first in range(0, len(x), BLOCK):
        _fill_cells(x[first:first + BLOCK], cells[first:first + BLOCK])
    ends = np.cumsum([a.size for a in arrays]).tolist()
    return [cells[end - a.size:end].reshape(a.shape + (FIELD,)) for a, end in zip(arrays, ends)]


def _fill_cells(x: np.ndarray, cells: np.ndarray) -> None:
    """Write the ``%.17g`` text of every value of ``x`` into ``cells``."""
    a = np.abs(x)
    rows = np.flatnonzero((a >= 1e-4) & (a < 1e16))
    k = np.clip(np.floor(np.log10(a[rows])), -4, 15).astype(np.int8)
    # one column layout per k: work on the rows sorted by k (a radix sort)
    order = np.argsort(k, kind="stable")
    rows, k = rows[order], k[order]
    whole, kept = _seventeen_digits(a[rows], k)
    rows, k = rows[kept], k[kept]
    digits = _ascii_digits(whole)
    last = 16 - np.argmax(digits[:, ::-1] != 48, axis=1)
    # no trailing zero after the point, and no point before none
    digits *= np.arange(17) <= np.maximum(last, k)[:, None]
    block = np.zeros((len(k), FIELD), np.uint8)
    block[:, 0] = np.where(x[rows] < 0, 45, 0)
    ends = np.cumsum(np.bincount(k + 4, minlength=20)).tolist()
    for e, start, end in zip(range(-4, 16), [0] + ends, ends):
        if start == end:
            continue
        b, d = block[start:end], digits[start:end]
        if e >= 0:
            b[:, 1:e + 2] = d[:, :e + 1]
            b[:, e + 2] = np.where(last[start:end] > e, 46, 0)
            b[:, e + 3:19] = d[:, e + 1:]
        else:
            b[:, 1:2 - e] = 48
            b[:, 2] = 46
            b[:, 2 - e:19 - e] = d
    # rows of FIELD bytes move as single items
    _items(cells)[rows] = _items(block)
    slow = np.ones(len(x), bool)
    slow[rows] = False
    slow = np.flatnonzero(slow)
    if len(slow):
        text = (f"%-{FIELD}.17g" * len(slow) % tuple(x[slow].tolist())).replace(" ", "\0")
        cells[slow] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, FIELD)


def _ascii_digits(whole: np.ndarray) -> np.ndarray:
    """(m, 17) uint8: the ASCII digits of integers in [10^16, 10^17)."""
    lead = whole // 10**16
    rest = whole - lead * 10**16
    # the other 16 digits as four groups of four, each looked up in _QUADS;
    # below 10^8 the halves fit an int32, which numpy divides by a constant fast
    top = rest // 10**8
    halves = top.astype(np.int32), (rest - top * 10**8).astype(np.int32)
    groups = []
    for half in halves:
        high = half // 10**4
        groups += [high, half - high * 10**4]
    digits = np.empty((len(whole), 17), np.uint8)
    digits[:, 0] = lead + 48
    digits[:, 1:] = _items(_QUADS)[np.stack(groups, axis=1)].view(np.uint8)
    return digits


def _seventeen_digits(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(whole, kept): a 10^(16-k) rounded half to even to an int64, exactly,
    on the rows where ``kept`` holds (a 17-digit result)."""
    scale = 16 - k
    hi = a * _POW10[scale]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[scale], _POW10_LO[scale]
    # Dekker's two-product: every partial product and sum is exact
    lo = a_hi * p_hi
    lo -= hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    kept = (hi > 1e16) & (hi < 1e17)
    return hi[kept].astype(np.int64) + np.rint(lo[kept]).astype(np.int64), kept


def _int_cells(values) -> np.ndarray:
    """values.shape + (w,) uint8: the decimal digits of each non-negative
    integer, NUL before its first digit."""
    v = np.asarray(values, dtype=np.int64)[..., None]
    width = len(str(int(v.max()))) if v.size else 1
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    heads = v // powers
    return np.where((heads == 0) & (powers > 1), 0, heads % 10 + 48).astype(np.uint8)


def _join(*parts) -> np.ndarray:
    """Row i of every part side by side: a part is an (n, w) cell table or
    a bytes literal repeated on every row."""
    n = next(len(p) for p in parts if isinstance(p, np.ndarray))
    widths = [p.shape[1] if isinstance(p, np.ndarray) else len(p) for p in parts]
    rows = np.empty((n, sum(widths)), np.uint8)
    end = 0
    for part, width in zip(parts, widths):
        start, end = end, end + width
        rows[:, start:end] = part if isinstance(part, np.ndarray) else np.frombuffer(part, np.uint8)
    return rows


def _text(*parts) -> str:
    """The rows of ``_join(*parts)`` as text, their NUL padding dropped."""
    return str(_compact(*parts), "ascii")


def _compact(*parts) -> np.ndarray:
    """The bytes of ``_text(*parts)``.  The rows are joined BLOCK at a time
    into the one array of the text, so that the padded table and its mask
    stay small; they are gone before ``_text`` makes its string."""
    tables = [p for p in parts if isinstance(p, np.ndarray)]
    n = len(tables[0])
    size = n * sum(len(p) for p in parts if not isinstance(p, np.ndarray))
    text = np.empty(size + sum(np.count_nonzero(t) for t in tables), np.uint8)
    end = 0
    for first in range(0, n, BLOCK):
        rows = _join(*(p[first:first + BLOCK] if isinstance(p, np.ndarray) else p
                       for p in parts))
        block = rows[rows != 0]
        start, end = end, end + len(block)
        text[start:end] = block
    return text


def _vertex_text(tag: bytes, cells: np.ndarray) -> str:
    """``tag x y z`` rows from (n, 3, FIELD) cells."""
    return _text(tag, cells[:, 0], b" ", cells[:, 1], b" ", cells[:, 2], b"\n")


def _quads(nx: int, ny: int, offset: int = 0) -> np.ndarray:
    """Corner indices (a, b, c, d) of the quads of an nx-by-ny grid,
    row-major, for vertices numbered from ``offset + 1``."""
    a = offset + 1 + (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).reshape(-1)
    return a[:, None] + np.array([0, 1, nx + 1, nx])


def _face_text(corners: np.ndarray) -> str:
    """``f a b c d`` rows from (m, 4, w) cells."""
    return _text(b"f ", corners[:, 0], b" ", corners[:, 1], b" ", corners[:, 2], b" ",
                 corners[:, 3], b"\n")


# the formatted positions, normals, xs and ys of each live grid; a grid is
# immutable, so its entry cannot go stale, and it goes away with it
_GRID_CELLS: weakref.WeakKeyDictionary[SurfaceGrid, list[np.ndarray]] = weakref.WeakKeyDictionary()


def _grid_cells(grid: SurfaceGrid) -> list[np.ndarray]:
    """Position and normal cells, (n, 3, FIELD) each, and the xs and ys
    cells of ``grid``, formatted once per grid and shared by the OBJ and
    CSV writers."""
    cells = _GRID_CELLS.get(grid)
    if cells is None:
        cells = _float_cells(grid.positions.reshape(-1, 3), grid.normals.reshape(-1, 3),
                             grid.xs, grid.ys)
        _GRID_CELLS[grid] = cells
    return cells


def obj_from_grid(grid: SurfaceGrid) -> str:
    """Wavefront OBJ with one vertex/normal per grid node and quad faces.

    Quads keep the parameter grid recoverable; vertex order is row-major
    (y index outer, x index inner), indices are 1-based.
    """
    ny, nx, _ = grid.positions.shape
    positions, normals, _, _ = _grid_cells(grid)
    # each index is formatted once, as the "a//a" token of its vertex and normal
    index = _int_cells(np.arange(1, nx * ny + 1))
    tokens = _join(index, b"//", index)
    return "".join([
        f"# parametric grid {nx} x {ny}, model {grid.model.value}\n",
        _vertex_text(b"v ", positions),
        _vertex_text(b"vn ", normals),
        _face_text(tokens[_quads(nx, ny, -1)]),
    ])


def csv_from_grid(grid: SurfaceGrid) -> str:
    """CSV rows x,y,px,py,pz,nx,ny,nz at full double precision."""
    ny, nx, _ = grid.positions.shape
    p, n, xs, ys = _grid_cells(grid)
    return "x,y,px,py,pz,nx,ny,nz\n" + _text(
        np.tile(xs, (ny, 1)), b",", np.repeat(ys, nx, axis=0), b",",
        p[:, 0], b",", p[:, 1], b",", p[:, 2], b",", n[:, 0], b",", n[:, 1], b",", n[:, 2], b"\n")


def _clipped_ends(lines_in: Iterable[OrientedLine], box: float) -> np.ndarray:
    """(m, 2, 3): the two ends of each line clipped to the cube of
    half-width ``box``; lines that miss the cube are left out."""
    ends = []
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
        if lo < hi:
            ends.append([line.at(float(lo)), line.at(float(hi))])
    return np.array(ends).reshape(-1, 2, 3)


def obj_from_segments_and_patches(lines_in: Iterable[OrientedLine],
                                  patches: Sequence[np.ndarray],
                                  box: float = 10.0) -> str:
    """Clipped line elements plus quad-meshed patches in one OBJ.

    ``patches`` are (ny, nx, 3) position arrays; their vertex indices follow
    the line vertices.
    """
    ends = _clipped_ends(lines_in, box)
    box_cells, p, *patch_cells = _float_cells(
        [box], ends.reshape(-1, 6), *(patch.reshape(-1, 3) for patch in patches))
    # each line element is "v p\nv q\nl i j\n"
    i = _int_cells(np.arange(1, 2 * len(ends) + 1).reshape(-1, 2))
    parts = [
        _text(b"# oriented lines clipped to the cube of half-width ", box_cells, b"\n"),
        _text(b"v ", p[:, 0], b" ", p[:, 1], b" ", p[:, 2], b"\nv ", p[:, 3], b" ",
              p[:, 4], b" ", p[:, 5], b"\nl ", i[:, 0], b" ", i[:, 1], b"\n"),
    ]
    offset = 2 * len(ends)
    for patch, cells in zip(patches, patch_cells):
        ny, nx, _ = patch.shape
        parts.append(_vertex_text(b"v ", cells))
        parts.append(_face_text(_int_cells(_quads(nx, ny, offset))))
        offset += ny * nx
    return "".join(parts)


def decay_csv(radii: Sequence[float], sups: Sequence[float]) -> str:
    n = min(len(radii), len(sups))
    radii, sups = _float_cells(radii[:n], sups[:n])
    return "radius,sup_distance\n" + _text(radii, b",", sups, b"\n")


def to_plain(value):
    """Recursively convert numpy values to built-in types; TypeError on a non-JSON value."""
    if isinstance(value, dict):
        return {k: to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return to_plain(value.tolist())
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_json(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.
    Only numpy values are converted, by ``to_plain``, as they are met."""
    return json.dumps(doc, sort_keys=True, indent=2, default=to_plain) + "\n"


def load_schema(name: str) -> dict:
    """Load a JSON schema shipped with the package."""
    return json.loads(resources.files("trinoids.schemas").joinpath(name).read_text())


class SchemaViolation(Exception):
    """A document breaks its schema: a fault of the program, so not a ValueError (bad input)."""


# a number breaks a bound where the comparison holds (so NaN breaks none)
_BOUNDS = {"minimum": operator.lt, "maximum": operator.gt,
           "exclusiveMinimum": operator.le, "exclusiveMaximum": operator.ge}
# the draft-07 keywords of the shipped schemas; any other fails the compile
_KEYWORDS = {"$schema", "title", "definitions", "$ref", "type", "enum", "const", "oneOf",
             "required", "properties", "additionalProperties", "items", "minItems", "maxItems",
             *_BOUNDS}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": (int, float)}


def _compile(node: dict, root: dict):
    """A function of a plain JSON value: None if it matches the schema
    ``node`` of ``root`` as draft-07 reads it (a bool is not a number, an
    integral float is an integer), else the JSON pointer of a failing value."""
    if "$ref" in node:  # draft-07 ignores the keywords beside a $ref
        return _compile(root["definitions"][node["$ref"].removeprefix("#/definitions/")], root)
    values = node.get("enum", [node["const"]] if "const" in node else None)
    if (node.keys() - _KEYWORDS or node.get("additionalProperties", False) is not False
            or not all(isinstance(v, str) for v in values or ())):
        raise NotImplementedError(f"schema {node!r} uses a form that the checker lacks")
    kind = node.get("type")
    types, of_numbers = _TYPES[kind] if kind else object, kind in ("number", "integer")
    branches = [_compile(b, root) for b in node.get("oneOf", ())]
    required, closed = set(node.get("required", ())), "additionalProperties" in node
    properties = {k: _compile(v, root) for k, v in node.get("properties", {}).items()}
    items = _compile(node["items"], root) if "items" in node else None
    lengths = node.get("minItems", 0), node.get("maxItems", math.inf)
    bounds = [(op, node[k]) for k, op in _BOUNDS.items() if k in node]

    def check(value) -> Optional[str]:
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (isinstance(value, types) and (numeric or not of_numbers)
                and (kind != "integer" or not isinstance(value, float) or value.is_integer())
                and (values is None or value in values)
                and (not branches or sum(b(value) is None for b in branches) == 1)
                and not (bounds and numeric and any(op(value, b) for op, b in bounds))
                and (not isinstance(value, dict) or required <= value.keys()
                     and (not closed or value.keys() <= properties.keys()))
                and (not isinstance(value, list) or lengths[0] <= len(value) <= lengths[1])):
            return f": {value!r} breaks the schema"
        if isinstance(value, dict):
            for key, sub in properties.items():
                if key in value and (error := sub(value[key])):
                    return f"/{key}{error}"
        elif isinstance(value, list) and items:
            for i, item in enumerate(value):
                if error := items(item):
                    return f"/{i}{error}"

    return check


@functools.lru_cache(maxsize=None)
def _checker(name: str):
    """The checker of a shipped schema, compiled once per process."""
    schema = load_schema(name)
    return _compile(schema, schema)


def validate_against_schema(doc: dict, schema_name: str) -> None:
    """Raise SchemaViolation, naming a JSON pointer, unless the plain ``doc`` matches."""
    error = _checker(schema_name)(doc)
    if error:
        raise SchemaViolation(f"{schema_name}: #{error}")


def write_text(path: Optional[str], text: str, force: bool = False) -> None:
    """Write ``text`` to ``path``; do nothing when ``path`` is None.

    A failed write leaves no partial file behind.  Without ``force`` the file
    is created exclusively, so an existing file is never touched.  With
    ``force`` the text goes to a fresh file next to ``path`` that then
    replaces it in one step.  Either way the new file gets the mode a plain
    ``open`` gives.  An error that names a file names ``path``, never the
    temporary file, so its message does not change from run to run.
    """
    if path is None:
        return
    dest = f"{path}.{secrets.token_hex(8)}.tmp" if force else path
    try:
        fh = open(dest, "x")
    except FileExistsError:
        raise FileExistsError(f"{path} exists; pass --force to overwrite") from None
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with fh:
            fh.write(text)
        if force:
            os.replace(dest, path)
    except BaseException as exc:
        os.unlink(dest)
        if isinstance(exc, OSError):
            raise _naming(exc, path) from None
        raise


def _naming(exc: OSError, path: str) -> OSError:
    """``exc`` with ``path`` as its one file name, if it names any file."""
    if exc.filename is None:
        return exc
    return type(exc)(exc.errno, exc.strerror, path)
