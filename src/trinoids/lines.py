"""Oriented lines in R^3 and the small amount of line geometry used here.

Two kinds of kernels.  The plain 3-vector helpers ``cross3``, ``dot3``
and ``unit3`` work on Python floats; the constellation solver builds with
them.  The row kernels (``dot_rows``, ``canonical_rows``, ``line_pairs``,
``ruling_residual``) take one row per item: (k, 3) arrays, or lists of k
rows of three floats.  They keep the bits of numpy's expression for a
single vector, which ``asymptotics`` relies on, and serve the solver's
self-check, which shares them with ``asymptotics``: every dot product and
norm of one dependency level is one BLAS dot per row, taken for all rows
by a single batched (k, 1, 3) @ (k, 3, 1) matmul (``dot_rows``).  That
matmul, not an explicit sum of products, carries the bits of ``a @ b``:
numpy's 3-vector dot fuses multiplies and adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import List, NamedTuple, Sequence

import numpy as np

_E3 = (0.0, 0.0, 1.0)
# lines whose directions are closer to parallel have no unique common perpendicular
PARALLEL_TOL = 1e-12
# vectors shorter than this have no direction
ZERO_NORM = 1e-300
ZERO_VECTOR = "cannot normalize a zero vector"
NONFINITE_POINT = "line point must be finite"
PARALLEL = "lines are (nearly) parallel; no unique common perpendicular"

Rows = List[List[float]]


def cross3(a: Sequence[float], b: Sequence[float]) -> List[float]:
    """Cross product of two 3-vectors of Python floats.

    The same multiplies and subtracts, in the same order, as numpy's
    ``cross``, so the result carries the same bits, without its axis
    handling, which dominates its cost on single vectors.  Python floats,
    not numpy's float64 scalars: those give some products of two NaNs the
    other NaN's sign bit.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def dot3(a: Sequence[float], b: Sequence[float]) -> float:
    """Dot product of two 3-vectors of Python floats, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def unit3(v: Sequence[float]) -> List[float]:
    """v / |v| for a 3-vector of Python floats; ValueError if |v| is below
    ZERO_NORM, where a vector has no direction."""
    norm = math.sqrt(dot3(v, v))
    if norm < ZERO_NORM:
        raise ValueError(ZERO_VECTOR)
    return [x / norm for x in v]


def rows(x) -> Rows:
    """Rows of Python floats of a (k, 3) array or of a list of rows."""
    return x.tolist() if isinstance(x, np.ndarray) else x


def dot_rows(a: Rows, b: Rows) -> List[float]:
    """a_k . b_k for each k, each with the bits of numpy's a_k @ b_k."""
    k = len(a)
    # fromiter over the flat floats builds the array faster than np.array
    x = np.fromiter(chain.from_iterable(a + b), float, 6 * k).reshape(2 * k, 3)
    return (x[:k, None, :] @ x[k:, :, None]).ravel().tolist()


def scaled(v: Sequence[float], norm: float) -> List[float]:
    """v / norm, as numpy divides an array by a scalar; NaN for a norm
    below ZERO_NORM, where a vector has no direction."""
    if norm < ZERO_NORM:
        return [math.nan] * 3
    return [x / norm for x in v]


def _angle(nn: float, uv: float) -> float:
    """Angle between u and v from |u x v|^2 and u . v, robust near 0 and pi."""
    return math.atan2(math.sqrt(nn), uv)


def canonical_rows(points, directions):
    """OrientedLine's canonical form of each row, with the rows it refuses.

    Returns the points of smallest norm, the unit directions, and two flags
    per row: a zero direction and a non-finite point.
    """
    points, directions = rows(points), rows(directions)
    norms = [math.sqrt(s) for s in dot_rows(directions, directions)]
    d = [scaled(u, n) for u, n in zip(directions, norms)]
    p = [[x - s * y for x, y in zip(q, e)] for q, e, s in zip(points, d, dot_rows(points, d))]
    zero = [n < ZERO_NORM for n in norms]
    nonfinite = [not all(map(math.isfinite, q)) for q in points]
    return p, d, zero, nonfinite


@dataclass(frozen=True, eq=False)
class OrientedLine:
    """Line {point + t * direction}, canonicalized at construction.

    The stored point is the point of smallest norm on the line
    (point . direction = 0) and the direction is normalized.
    """

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        point = np.asarray(self.point, dtype=float).tolist()
        direction = np.asarray(self.direction, dtype=float).tolist()
        (p,), (d,), (zero,), (nonfinite,) = canonical_rows([point], [direction])
        if zero:
            raise ValueError(ZERO_VECTOR)
        if nonfinite:
            raise ValueError(NONFINITE_POINT)
        object.__setattr__(self, "point", np.array(p))
        object.__setattr__(self, "direction", np.array(d))

    @classmethod
    def canonical(cls, point: Sequence[float], direction: Sequence[float]) -> "OrientedLine":
        """A line whose point and direction are already in canonical form
        to rounding, stored as given."""
        line = object.__new__(cls)
        object.__setattr__(line, "point", np.array(point))
        object.__setattr__(line, "direction", np.array(direction))
        return line

    def at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.point + t[..., None] * self.direction if t.ndim else self.point + t * self.direction


class LinePairs(NamedTuple):
    """Geometry of pairs of lines a_k, b_k, row by row (see line_pairs)."""

    n: Rows                # u_a x u_b
    nn: List[float]        # |u_a x u_b|^2
    parallel: List[bool]   # too close to parallel for a unique common perpendicular
    angle: List[float]     # angle in [0, pi] between u_a and u_b
    distance: List[float]  # distance of the two lines
    qa: Rows               # foot of the common perpendicular on a (NaN if parallel)
    qb: Rows               # foot of the common perpendicular on b (NaN if parallel)


def line_pairs(pa, ua, pb, ub) -> LinePairs:
    """Geometry of the pairs a = {pa_k + t ua_k}, b = {pb_k + t ub_k}, with
    unit directions, with the dots of all rows in one matmul.

    With n = u_a x u_b and d = p_b - p_a, the foot parameters are
    (d x u_b) . n / |n|^2 on a and (d x u_a) . n / |n|^2 on b.  The textbook
    denominator 1 - (u_a . u_b)^2 equals |n|^2 but loses its leading digits
    when the lines are nearly parallel or antiparallel, and such a pair's
    foot lies far out, so the error is magnified; |n|^2 keeps them.  The
    distance is |d . n| / |n|, or for |n| below 1e-12 the distance of p_b
    from a.
    """
    pa, ua, pb, ub = rows(pa), rows(ua), rows(pb), rows(ub)
    k = len(pa)
    d = [[y - x for x, y in zip(p, q)] for p, q in zip(pa, pb)]
    n = [cross3(a, b) for a, b in zip(ua, ub)]
    s = dot_rows(n + ua + d + [cross3(e, b) for e, b in zip(d, ub)]
                 + [cross3(e, a) for e, a in zip(d, ua)], n + ub + n + n + n)
    nn, uv, dn, ta, tb = (s[i * k:(i + 1) * k] for i in range(5))
    parallel = [x < PARALLEL_TOL**2 for x in nn]
    distance = []
    for i in range(k):
        norm = math.sqrt(nn[i])
        if norm < 1e-12:
            (du,) = dot_rows([d[i]], [ua[i]])
            w = [x - du * u for x, u in zip(d[i], ua[i])]
            distance.append(math.sqrt(dot_rows([w], [w])[0]))
        else:
            distance.append(abs(dn[i]) / norm)
    nan = [math.nan] * 3
    qa = [nan if par else [x + t / s * u for x, u in zip(p, a)]
          for p, a, t, s, par in zip(pa, ua, ta, nn, parallel)]
    qb = [nan if par else [x + t / s * u for x, u in zip(p, b)]
          for p, b, t, s, par in zip(pb, ub, tb, nn, parallel)]
    return LinePairs(n, nn, parallel, [_angle(x, c) for x, c in zip(nn, uv)], distance, qa, qb)


def ruling_residual(rotation: np.ndarray, translation, pitch, point, direction) -> List[float]:
    """How far lines are from being rulings of framed helicoids, row by row.

    The model surface is {(s sin y, -s cos y, -pitch * y)}; a frame maps
    model coordinates to the world by X -> rotation @ X + translation.  Row
    k is the line {point_k + t direction_k} against the frame
    (rotation[k], translation[k]) with nonzero pitch[k]; a single (3, 3)
    rotation, translation and pitch serve every row.  The residual is the
    max of three components, each zero exactly for rulings: the vertical
    part of the line direction in the frame, the distance from the line to
    the frame axis, and the sine of the angle (mod pi) between the line and
    the ruling direction at its axis height.  A vertical line gets 1.0,
    maximally far from any ruling.
    """
    point, direction = rows(point), rows(direction)
    k = len(point)
    if rotation.ndim == 2:
        translation, pitch = [rows(translation)] * k, [pitch] * k
    # rotation^T @ [d, p - T] for every row in one matmul
    stacked = [v for ud, pt, tr in zip(direction, point, rows(translation))
               for u, x, t in zip(ud, pt, tr) for v in (u, x - t)]
    frame = np.swapaxes(rotation, -1, -2) @ np.array(stacked).reshape(k, 3, 2)
    frame = np.swapaxes(frame, 1, 2).tolist()
    d, p = [m[0] for m in frame], [m[1] for m in frame]
    # distance from the line to the z-axis
    n = [cross3(v, _E3) for v in d]
    sq = dot_rows(p + n, n + n)
    out = []
    for (d0, d1, d2), (p0, p1, p2), pn, nn, pitch_k in zip(d, p, sq[:k], sq[k:], pitch):
        dh = math.hypot(d0, d1)
        if dh < 1e-12:
            out.append(1.0)
            continue
        res_axis = abs(pn) / math.sqrt(nn)
        # axis-crossing height and the twist mismatch there
        t_star = -(p0 * d0 + p1 * d1) / (dh * dh)
        y_star = -(p2 + t_star * d2) / pitch_k
        res_twist = abs(d0 * math.cos(y_star) + d1 * math.sin(y_star)) / dh
        out.append(max(abs(d2), res_axis, res_twist))
    return out
