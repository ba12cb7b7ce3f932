"""Closed-form surface evaluators and hyperbolic model conversions.

Three one-parameter families, all indexed by lambda in I = (-1/4, inf) \\ {0}:

* helicoid_point       -- ruled minimal surface in R^3,
                          2*lambda*(sinh x sin y, -sinh x cos y, -y)
* catenoid_point       -- minimal surface in R^3 from the data
                          g = e^z, omega = lambda e^{-z} dz, normalized so
                          the image of 0 is (-2*lambda, 0, 0)
* catenoid_cousin_point -- mean-curvature-1 surface in the upper half-space
                          model of hyperbolic 3-space

plus a fixed isometry between the upper half-space and Poincare ball models
and a finite-difference mean-curvature estimator in either ambient metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .lines import cross
from .params import _check_lambda

# SurfaceGrid.validate accepts normals whose length is within this of 1
UNIT_NORMAL_TOL = 1e-10


class Model(Enum):
    EUCLIDEAN = "euclidean"
    UPPER_HALF_SPACE = "upper-half-space"
    BALL = "ball"


@dataclass(frozen=True)
class UpperHalfSpacePoint:
    """Point (u + iv, w) of the upper half-space model, w > 0."""

    u: float
    v: float
    w: float

    def __post_init__(self) -> None:
        if not self.w > 0.0:
            raise ValueError(f"upper half-space requires w > 0, got w={self.w}")

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w])

    def to_ball(self) -> "BallPoint":
        return BallPoint(*halfspace_to_ball(self.as_array()))


@dataclass(frozen=True)
class BallPoint:
    """Point of the Poincare ball model, Euclidean norm < 1."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        if not self.x1**2 + self.x2**2 + self.x3**2 < 1.0:
            raise ValueError("ball model requires |x| < 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    def to_halfspace(self) -> UpperHalfSpacePoint:
        return UpperHalfSpacePoint(*ball_to_halfspace(self.as_array()))


def helicoid_point(lam: float, x, y) -> np.ndarray:
    """Point of the helicoid: 2*lambda*(sinh x sin y, -sinh x cos y, -y).

    For fixed y the image is a horizontal line (a ruling) through the axis
    point (0, 0, -2*lambda*y); the axis is the z-axis.
    """
    _check_lambda(lam)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sh = np.sinh(x)
    return np.stack(
        np.broadcast_arrays(
            2.0 * lam * sh * np.sin(y),
            -2.0 * lam * sh * np.cos(y),
            -2.0 * lam * y,
        ),
        axis=-1,
    )


def catenoid_point(lam: float, x, y) -> np.ndarray:
    """Point of the catenoid: (-2l cosh x cos y, -2l cosh x sin y, 2l x)."""
    _check_lambda(lam)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ch = np.cosh(x)
    return np.stack(
        np.broadcast_arrays(
            -2.0 * lam * ch * np.cos(y),
            -2.0 * lam * ch * np.sin(y),
            2.0 * lam * x,
        ),
        axis=-1,
    )


def catenoid_cousin_point(lam: float, x, y) -> np.ndarray:
    """Catenoid cousin in the upper half-space model, as (u, v, w).

    With a = sqrt(1+4*lambda), c- = 1/2 + lambda - a/2, c+ = 1/2 + lambda + a/2
    (both positive on I):

        u + iv = -lambda (e^x + e^{-x}) e^{ax} / (c- e^{-x} + c+ e^{x}) * e^{iay}
        w      = a e^{ax} / (c- e^{-x} + c+ e^{x})

    The parametrization is periodic in y with period 2*pi/a.  The quotient is
    evaluated with e^{|x|} factored out of numerator and denominator, so w
    stays positive in floating point out to |x| of a few hundred over a.
    Beyond that, and for non-finite x or y, it raises ValueError.
    """
    _check_lambda(lam)
    a = math.sqrt(1.0 + 4.0 * lam)
    cm = 0.5 + lam - 0.5 * a
    cp = 0.5 + lam + 0.5 * a
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

    if not (np.all(w > 0.0) and np.all(np.isfinite(out))):
        raise ValueError("cousin point out of floating-point range (w underflowed to 0 "
                         "or a coordinate is not finite); |x| or |y| too large for this lambda")
    return out


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


def ball_to_halfspace(p) -> np.ndarray:
    """Inverse of halfspace_to_ball.  Raises on |p| >= 1."""
    p = np.asarray(p, dtype=float)
    n2 = np.sum(p * p, axis=-1)
    if np.any(n2 >= 1.0):
        raise ValueError("ball point needs |p| < 1")
    y1, y2, y3 = p[..., 0], p[..., 2], -p[..., 1]
    e = y1 * y1 + y2 * y2 + (y3 - 1.0) ** 2
    return np.stack([2.0 * y1 / e, 2.0 * y2 / e, (1.0 - n2) / e], axis=-1)


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


@dataclass(frozen=True)
class CurvatureEstimate:
    """Finite-difference mean-curvature value plus accuracy metadata."""

    value: float
    step: float
    warning: Optional[str] = None


def mean_curvature_estimate(
    sampler: Callable[[float, float], np.ndarray],
    model: Model,
    x: float,
    y: float,
    step: float = 1e-3,
) -> CurvatureEstimate:
    """Second-order mean curvature of a parametrized surface at (x, y).

    ``sampler(x, y)`` must return a 3-vector in the coordinates of ``model``.
    For EUCLIDEAN, the classical first/second fundamental form quotient with
    respect to the normal Xu x Xv / |Xu x Xv|.  For UPPER_HALF_SPACE, the
    metric (du^2+dv^2+dw^2)/w^2 is used via H_hyp = w * H_euc + n_w; with
    this sign the catenoid cousin reports +1 and a horosphere {w = c} with
    upward normal reports +1.
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
    warning = None
    if step > 1e-1 or step < 1e-7:
        warning = f"step {step} outside trusted range [1e-7, 1e-1]"

    def F(a: float, b: float) -> np.ndarray:
        return np.asarray(sampler(a, b), dtype=float)

    h = step
    Xu = (F(x + h, y) - F(x - h, y)) / (2 * h)
    Xv = (F(x, y + h) - F(x, y - h)) / (2 * h)
    Xuu = (F(x + h, y) - 2 * F(x, y) + F(x - h, y)) / h**2
    Xvv = (F(x, y + h) - 2 * F(x, y) + F(x, y - h)) / h**2
    Xuv = (F(x + h, y + h) - F(x + h, y - h) - F(x - h, y + h) + F(x - h, y - h)) / (4 * h**2)

    n = cross(Xu, Xv)
    norm = np.linalg.norm(n)
    if norm < 1e-14:
        return CurvatureEstimate(math.nan, step, "degenerate tangent plane")
    n = n / norm
    E, Fq, G = Xu @ Xu, Xu @ Xv, Xv @ Xv
    ee, ff, gg = n @ Xuu, n @ Xuv, n @ Xvv
    denom = E * G - Fq * Fq
    if abs(denom) < 1e-16 * max(E * G, 1.0):
        return CurvatureEstimate(math.nan, step, "degenerate first fundamental form")
    h_euc = (ee * G - 2 * ff * Fq + gg * E) / (2 * denom)

    if model is Model.EUCLIDEAN:
        return CurvatureEstimate(float(h_euc), step, warning)
    if model is Model.UPPER_HALF_SPACE:
        w = F(x, y)[2]
        return CurvatureEstimate(float(w * h_euc + n[2]), step, warning)
    raise ValueError(f"mean curvature estimator not implemented for model {model}")


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

    kind is "helicoid", "catenoid" or "cousin".  Helicoid and catenoid
    normals come from the Gauss map g = e^{x+iy} through
    gauss_normal_from_g; cousin normals are central-difference normals of
    the parametrization (oriented along Xx x Xy).  With ball_model=True the
    cousin is pushed through halfspace_to_ball (positions only; normals are
    recomputed by differencing the mapped surface).
    """
    if kind not in _EVALUATORS:
        raise ValueError(f"unknown surface kind {kind!r}")
    evaluator, model = _EVALUATORS[kind]
    if ball_model and kind != "cousin":
        raise ValueError("ball_model only applies to the cousin")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    X, Y = np.meshgrid(xs, ys)

    def sample(xv, yv):
        pts = evaluator(lam, xv, yv)
        if ball_model:
            pts = halfspace_to_ball(pts)
        return pts

    # a grid out of floating-point range fails validate() below, with one
    # message instead of numpy's warnings
    with np.errstate(all="ignore"):
        positions = sample(X, Y)
        if kind == "cousin" or ball_model:
            h = 1e-5
            Xu = (sample(X + h, Y) - sample(X - h, Y)) / (2 * h)
            Xv = (sample(X, Y + h) - sample(X, Y - h)) / (2 * h)
            normals = np.cross(Xu, Xv)
            normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        else:
            g = np.exp(X + 1j * Y)
            m2 = np.abs(g) ** 2
            normals = np.stack([2 * g.real, 2 * g.imag, m2 - 1.0], axis=-1) / (m2 + 1.0)[..., None]
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
