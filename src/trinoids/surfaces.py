"""Closed-form surface evaluators and hyperbolic model conversions.

Three one-parameter families, all indexed by lambda in I = (-1/4, inf) \\ {0}:

* helicoid_point       -- ruled minimal surface in R^3,
                          2*lambda*(sinh x sin y, -sinh x cos y, -y)
* catenoid_point       -- minimal surface in R^3 from the data
                          g = e^z, omega = lambda e^{-z} dz, normalized so
                          the image of 0 is (-2*lambda, 0, 0)
* catenoid_cousin_point -- mean-curvature-1 surface in the upper half-space
                          model of hyperbolic 3-space

plus a fixed isometry from the upper half-space model to the Poincare ball model,
and grids whose normals are closed forms too: gauss_normal_from_g of a Gauss map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .params import _check_lambda

# SurfaceGrid.validate accepts normals whose length is within this of 1
UNIT_NORMAL_TOL = 1e-10


class Model(Enum):
    EUCLIDEAN = "euclidean"
    UPPER_HALF_SPACE = "upper-half-space"
    BALL = "ball"


def _in_range(kind: str, points, why: str = "a coordinate is not finite", ok: bool = True):
    """``points``, if ``ok`` and all finite; else a ValueError that names the input."""
    if not (ok and np.all(np.isfinite(points))):
        raise ValueError(f"{kind} point out of floating-point range ({why}); "
                         "|x| or |y| too large for this lambda")
    return points


def helicoid_point(lam: float, x, y) -> np.ndarray:
    """Point of the helicoid: 2*lambda*(sinh x sin y, -sinh x cos y, -y).

    For fixed y the image is a horizontal line (a ruling) through the axis
    point (0, 0, -2*lambda*y); the axis is the z-axis.  A point out of
    floating-point range raises ValueError.
    """
    _check_lambda(lam)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = 2.0 * lam * np.sinh(x)
    points = np.stack(np.broadcast_arrays(s * np.sin(y), -s * np.cos(y), -2.0 * lam * y), -1)
    return _in_range("helicoid", points)


def catenoid_point(lam: float, x, y) -> np.ndarray:
    """Catenoid point (-2l cosh x cos y, -2l cosh x sin y, 2l x); ValueError if out of range."""
    _check_lambda(lam)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = 2.0 * lam * np.cosh(x)
    points = np.stack(np.broadcast_arrays(-c * np.cos(y), -c * np.sin(y), 2.0 * lam * x), -1)
    return _in_range("catenoid", points)


def catenoid_cousin_point(lam: float, x, y) -> np.ndarray:
    """Catenoid cousin in the upper half-space model, as (u, v, w).

    With a = sqrt(1+4*lambda), c+ = 1/2 + lambda + a/2 and c- = 1/2 + lambda - a/2
    = lambda^2/c+ (both positive on I; the last form does not cancel):

        u + iv = -lambda (e^x + e^{-x}) e^{ax} / (c- e^{-x} + c+ e^{x}) * e^{iay}
        w      = a e^{ax} / (c- e^{-x} + c+ e^{x})

    The parametrization is periodic in y with period 2*pi/a.  The quotient is
    evaluated with e^{|x|} factored out of numerator and denominator, so w
    stays positive in floating point out to |x| of a few hundred over a.
    Beyond that, and for non-finite x or y, it raises ValueError.
    """
    _check_lambda(lam)
    a = math.sqrt(1.0 + 4.0 * lam)
    cp = 0.5 + lam + 0.5 * a
    cm = lam * lam / cp
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)

    pref = np.empty_like(x)
    w = np.empty_like(x)
    pos = x >= 0
    # overflow and underflow are caught below, without numpy's warnings
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        xp = x[pos]
        e2 = np.exp(-2.0 * xp)
        den = cp + cm * e2
        pref[pos] = -lam * (1.0 + e2) * np.exp(a * xp) / den
        w[pos] = a * np.exp((a - 1.0) * xp) / den
        xn = x[~pos]
        e2 = np.exp(2.0 * xn)
        den = cm + cp * e2
        pref[~pos] = -lam * (1.0 + e2) * np.exp(a * xn) / den
        w[~pos] = a * np.exp((a + 1.0) * xn) / den
        out = np.stack([pref * np.cos(a * y), pref * np.sin(a * y), w], axis=-1)

    return _in_range("cousin", out, "w underflowed to 0 or a coordinate is not finite", np.all(w > 0))


def cousin_period(lam: float) -> float:
    """Period of the cousin parametrization in y: 2*pi/sqrt(1+4*lambda)."""
    _check_lambda(lam)
    return 2.0 * math.pi / math.sqrt(1.0 + 4.0 * lam)


def halfspace_to_ball(p) -> np.ndarray:
    """Isometry from the upper half-space model to the Poincare ball model.

    Normalization: (0, 0, 1) maps to the ball origin, and the vertical plane
    {v = 0} of the half-space maps to the equatorial plane {x3 = 0} of the
    ball.  Concretely, with d = u^2 + v^2 + (w+1)^2:

        (u, v, w) -> (2u/d, -(u^2+v^2+w^2-1)/d, 2v/d)

    Accepts shape (3,) or (..., 3).  Raises on w <= 0.
    """
    p = np.asarray(p, dtype=float)
    u, v, w = p[..., 0], p[..., 1], p[..., 2]
    if np.any(w <= 0.0):
        raise ValueError("half-space point needs w > 0")
    d = u * u + v * v + (w + 1.0) ** 2
    return np.stack([2.0 * u / d, -(u * u + v * v + w * w - 1.0) / d, 2.0 * v / d], axis=-1)


def gauss_normal_from_g(g) -> np.ndarray:
    """Unit normals, shape g.shape + (3,), as the inverse stereographic
    projection of g.

    N = (2 Re g, 2 Im g, |g|^2 - 1) / (|g|^2 + 1); g = 0 maps to (0, 0, -1)
    and a pole of g (non-finite, or |g| > 1e150) to (0, 0, 1).
    """
    g = np.asarray(g, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = g.real * g.real + g.imag * g.imag
        normals = np.stack([2.0 * g.real, 2.0 * g.imag, m2 - 1.0], -1) / (m2 + 1.0)[..., None]
    normals[~np.isfinite(g) | (np.hypot(g.real, g.imag) > 1e150)] = (0.0, 0.0, 1.0)
    return normals


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Sampled immersion on a rectangular parameter grid.

    positions and normals have shape (ny, nx, 3); xs varies along axis 1.
    A grid is immutable: its fields cannot be reassigned, and its four
    arrays are read-only copies of the ones it was given, so text formatted
    from a grid stays true to it.
    """

    xs: np.ndarray
    ys: np.ndarray
    positions: np.ndarray
    normals: np.ndarray
    model: Model
    kind: str = field(default="")

    def __post_init__(self) -> None:
        for name in ("xs", "ys", "positions", "normals"):
            array = np.array(getattr(self, name))
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def validate(self) -> None:
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("grid positions must be finite")
        norms = np.linalg.norm(self.normals, axis=-1)
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORMAL_TOL):
            raise ValueError("grid normals must be unit length")
        if self.model is Model.UPPER_HALF_SPACE and not np.all(self.positions[..., 2] > 0):
            raise ValueError("upper half-space grid needs w > 0 everywhere")


_EVALUATORS = {
    "helicoid": (helicoid_point, Model.EUCLIDEAN),
    "catenoid": (catenoid_point, Model.EUCLIDEAN),
    "cousin": (catenoid_cousin_point, Model.UPPER_HALF_SPACE),
}


def surface_grid(kind: str, lam: float, xs, ys, ball_model: bool = False) -> SurfaceGrid:
    """Sample one of the catalog surfaces over xs x ys.

    kind is "helicoid", "catenoid" or "cousin".  Every normal, oriented
    along Xx x Xy, is gauss_normal_from_g of a closed-form g: the Gauss map
    e^{x+iy} of the helicoid and catenoid, and for the cousin (G - q)/w,
    since its unit normal at (q, w), q = u + iv, points along the geodesic
    to its hyperbolic Gauss map G = e^{az}.  That g is
    ((a+1) e^x + (a-1) e^{-x})/2 * e^{iay}, with a - 1 = 4*lambda/(a+1) so
    that nothing cancels.  With ball_model=True the cousin is pushed
    through halfspace_to_ball, an inversion about c = (0, 0, -1) followed
    by a swap of the last two axes; its normal N is reflected in P - c and
    has the same two axes swapped.  Both steps reverse orientation, so
    together they keep it.
    """
    if kind not in _EVALUATORS:
        raise ValueError(f"unknown surface kind {kind!r}")
    evaluator, model = _EVALUATORS[kind]
    if ball_model and kind != "cousin":
        raise ValueError("ball_model only applies to the cousin")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    X, Y = np.meshgrid(xs, ys)

    # out-of-range points fail in the evaluator or in validate(), with no numpy warnings
    with np.errstate(all="ignore"):
        positions = evaluator(lam, X, Y)
        if kind == "cousin":
            a = math.sqrt(1.0 + 4.0 * lam)
            r = 0.5 * ((a + 1.0) * np.exp(X) + 4.0 * lam / (a + 1.0) * np.exp(-X))
            g = r * np.exp(1j * (a * Y))
        else:
            g = np.exp(X + 1j * Y)
        normals = gauss_normal_from_g(g)
        if ball_model:
            pc = positions + (0.0, 0.0, 1.0)
            k = 2.0 * np.sum(pc * normals, axis=-1) / np.sum(pc * pc, axis=-1)
            normals = (normals - k[..., None] * pc)[..., [0, 2, 1]]
            positions = halfspace_to_ball(positions)
    grid = SurfaceGrid(
        xs=xs,
        ys=ys,
        positions=positions,
        normals=normals,
        model=Model.BALL if ball_model else model,
        kind=kind,
    )
    grid.validate()
    return grid
