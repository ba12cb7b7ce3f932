"""Oriented lines in R^3 and the small amount of line geometry used here."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_E3 = np.array([0.0, 0.0, 1.0])
# lines whose directions are closer to parallel have no unique common perpendicular
PARALLEL_TOL = 1e-12


def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two float 3-vectors.

    The same multiplies and subtracts, in the same order, as numpy's
    ``cross``, so the result carries the same bits, without its axis
    handling, which dominates its cost on single vectors.  The components
    are taken as Python floats: numpy's float64 scalars give some products
    of two NaNs the other NaN's sign bit.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi] between two vectors, robust near 0 and pi."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return math.atan2(np.linalg.norm(cross(u, v)), float(u @ v))


@dataclass(frozen=True, eq=False)
class OrientedLine:
    """Line {point + t * direction}, canonicalized at construction.

    The stored point is the point of smallest norm on the line
    (point . direction = 0) and the direction is normalized.
    """

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        d = unit(self.direction)
        p = np.asarray(self.point, dtype=float)
        if not np.all(np.isfinite(p)):
            raise ValueError("line point must be finite")
        p = p - (p @ d) * d
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", d)

    def at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.point + t[..., None] * self.direction if t.ndim else self.point + t * self.direction

    def reversed(self) -> "OrientedLine":
        return OrientedLine(self.point, -self.direction)

    def transformed(self, rotation: np.ndarray, translation: np.ndarray) -> "OrientedLine":
        return OrientedLine(rotation @ self.point + translation, rotation @ self.direction)


def common_perpendicular_feet(a: OrientedLine, b: OrientedLine):
    """Feet (qa, qb) of the common perpendicular of two non-parallel lines.

    With n = u_a x u_b and d = p_b - p_a, the foot parameters are
    (d x u_b) . n / |n|^2 on a and (d x u_a) . n / |n|^2 on b.  The textbook
    denominator 1 - (u_a . u_b)^2 equals |n|^2 but loses its leading digits
    when the lines are nearly parallel or antiparallel, and such a pair's
    foot lies far out, so the error is magnified; |n|^2 keeps them.
    """
    d = b.point - a.point
    ua, ub = a.direction, b.direction
    n = cross(ua, ub)
    nn = float(n @ n)
    if nn < PARALLEL_TOL**2:
        raise ValueError("lines are (nearly) parallel; no unique common perpendicular")
    ta = float(cross(d, ub) @ n) / nn
    tb = float(cross(d, ua) @ n) / nn
    return a.point + ta * ua, b.point + tb * ub


def line_distance(a: OrientedLine, b: OrientedLine) -> float:
    """Distance between two lines (handles the parallel case)."""
    n = cross(a.direction, b.direction)
    norm = np.linalg.norm(n)
    d = b.point - a.point
    if norm < 1e-12:
        return float(np.linalg.norm(d - (d @ a.direction) * a.direction))
    return abs(float(d @ n)) / norm


def signed_gap(a: OrientedLine, b: OrientedLine) -> float:
    """Perpendicular offset of b from a along unit(a.direction x b.direction)."""
    n = unit(cross(a.direction, b.direction))
    return float((b.point - a.point) @ n)


def ruling_residual(rotation: np.ndarray, translation: np.ndarray,
                    pitch: float, line: OrientedLine) -> float:
    """How far a line is from being a ruling of a framed helicoid.

    The model surface is {(s sin y, -s cos y, -pitch * y)}; the frame maps
    model coordinates to the world by X -> rotation @ X + translation.  The
    returned residual is the max of three components, each zero exactly for
    rulings: the vertical part of the line direction in the frame, the
    distance from the line to the frame axis, and the sine of the angle
    (mod pi) between the line and the ruling direction at its axis height.
    """
    d = rotation.T @ line.direction
    p = rotation.T @ (line.point - translation)
    res_horizontal = abs(d[2])
    dh = math.hypot(d[0], d[1])
    if dh < 1e-12:
        return 1.0  # vertical line: maximally far from any ruling
    # distance from the line to the z-axis
    n = cross(d, _E3)
    res_axis = abs(float(p @ n)) / np.linalg.norm(n)
    # axis-crossing height and the twist mismatch there
    t_star = -(p[0] * d[0] + p[1] * d[1]) / (dh * dh)
    z_star = p[2] + t_star * d[2]
    y_star = -z_star / pitch
    res_twist = abs(d[0] * math.cos(y_star) + d[1] * math.sin(y_star)) / dh
    return max(res_horizontal, res_axis, res_twist)
