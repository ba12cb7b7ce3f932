"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they check:

* displacement oracles take one branch power per monomial and numpy's cosh
  and sinh, unmerged and with no expm1 form;
* the frozen scalar engine keeps the program's earlier one-point-at-a-time
  branch functions, expm1 form, antiderivative, check_slab and
  normal_limit_report, written with cmath and math; the program evaluates
  the same formulas over arrays with numpy and must agree to rounding;
* the high-precision antiderivative evaluates the program's closed form
  from the same double coefficients in 160-bit mpmath, with the rounding
  budget the program documents: the end engine's accuracy contract;
* the end-sampling oracles integrate every path on its own by adaptive
  quadrature, one monomial power at a time, with the frozen branch
  functions; the correction integral is taken by quadrature too;
* the endpoint-engine reference keeps the old per-path loop and endpoint
  cache around the frozen antiderivative;
* the direction oracle is a dense grid search on the sphere instead of a
  triangle solve;
* the emitter oracles format one float at a time with "%.17g" instead of
  a whole array at once from byte tables, and the frozen "%" writers, one
  "%" operation per array, are the memory baseline of the byte tables;
* the classification oracles write out each slack formula and membership
  rule separately, and test membership by barycentric coordinates too;
* the mean-curvature estimator differences the closed-form surfaces;
* the ball-to-half-space map inverts the program's half-space-to-ball map
  with its own formula;
* the helicoid distance oracle loops over points one at a time, and the
  frozen array version allocates every step of its scan anew;
* the constellation oracles take every cross product with np.cross and
  check frames in exact rational arithmetic;
* the sequential constellation solver builds and checks one solution after
  the other through the scalar line kernels, where the program builds both
  in one pass over rows;
* the command-line oracle builds its parser and checks each schema anew on
  every call.
"""

import cmath
import functools
import math
import sys
import warnings
import weakref
from dataclasses import dataclass, fields, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

import jsonschema
import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad

from trinoids import cli, emit, params
from trinoids.asymptotics import FIT_RESIDUAL_TOL
from trinoids.classify import Membership, TripleTag
from trinoids.classify import classify_triple as trinoids_classify_triple
from trinoids.constellation import (
    Constellation,
    ConstellationReport,
    ConstellationSolveError,
    HelicoidFrame,
    ParallelBoundaryWarning,
    _screw_sign,
)
from trinoids.lines import PARALLEL_TOL, OrientedLine
from trinoids.params import PitchConvention, lambda_of_phi, pitch_coefficient, ray_distance_h
from trinoids.surfaces import Model
from trinoids.weierstrass import (
    _EPS,
    _EXPM1_BELOW,
    ExponentialData,
    PowerEndData,
    QuadratureError,
    _monomial_components,
    _power_terms,
    conjugate_data,
    correction_bound,
    correction_coefficients,
    principal_log_coefficient,
)


# ---------------------------------------------------------------------------
# Frozen scalar engine: the branch functions, the expm1 form and the
# closed-form antiderivative as the program took them one point at a time,
# with cmath and math.  Both the quadrature engine below and the endpoint
# reference (integrate_paths) use these copies, never the program's array
# engine.  That engine rounds differently (numpy's log, arctan2, expm1 and
# complex products), so the two agree to within their rounding budgets, and
# where a test is about errors, in the messages and the order of failures.


def _in_upper_half_disk(z: complex) -> bool:
    return 0 < abs(z) <= 1.0 + 1e-12 and z.imag >= -1e-15


def branch_arg(z: complex) -> float:
    """Argument in [-pi/2, 3*pi/2): cut along the negative imaginary axis."""
    theta = cmath.phase(z)
    if theta < -math.pi / 2:
        theta += 2.0 * math.pi
    return theta


def branch_power(z: complex, p: float) -> complex:
    """z^p on the branch of branch_arg; 0^p = 0 for p > 0."""
    if z == 0:
        if p > 0:
            return 0.0 + 0.0j
        raise ZeroDivisionError("0 raised to a non-positive power")
    r = abs(z)
    return cmath.exp(p * (math.log(r) + 1j * branch_arg(z)))


def branch_log(z: complex) -> complex:
    """log z on the branch of branch_arg."""
    if z == 0:
        raise ZeroDivisionError("log 0")
    return math.log(abs(z)) + 1j * branch_arg(z)


def _expm1(w: complex) -> complex:
    """exp(w) - 1 without cancellation near w = 0 (cmath has no expm1)."""
    em1 = math.expm1(w.real)
    half_sin = math.sin(0.5 * w.imag)
    return complex(em1 * math.cos(w.imag) - 2.0 * half_sin * half_sin,
                   math.exp(w.real) * math.sin(w.imag))


def _antiderivative(data):
    """z -> (F(z), sizes): the antiderivatives of the three components and,
    per component, the sum of the magnitudes of the terms summed into it."""
    if isinstance(data, ExponentialData):
        c = 2.0 * data.omega_factor * data.lam

        def exponential(z: complex):
            values = [-c * cmath.cosh(z), 1j * c * cmath.sinh(z), c * z]
            return values, [abs(v) for v in values]

        return exponential

    log_coefs, powers = _power_terms(data)

    def power_end(z: complex):
        log_z = branch_log(z)
        values = [lc * log_z for lc in log_coefs]
        sizes = [abs(v) for v in values]
        for q, terms in powers:
            w = _expm1(q * log_z) if abs(q) < _EXPM1_BELOW else cmath.exp(q * log_z)
            for i, coef in terms:
                t = coef * w
                values[i] += t
                sizes[i] += abs(t)
        return values, sizes

    return power_end


def g_value(data, z: complex) -> complex:
    """Gauss map g at z (branch-aware for PowerEndData)."""
    z = complex(z)
    if isinstance(data, ExponentialData):
        return cmath.exp(z)
    if z == 0:
        return 0j
    poly = data.g0
    for k, c in enumerate(data.g1, start=1):
        poly += c * z**k
    return branch_power(z, data.alpha) * poly


def gauss_normal_from_g(g: complex) -> np.ndarray:
    """Unit normal as the inverse stereographic projection of g."""
    if not np.isfinite(g.real) or not np.isfinite(g.imag) or abs(g) > 1e150:
        return np.array([0.0, 0.0, 1.0])
    m2 = g.real * g.real + g.imag * g.imag
    return np.array([2.0 * g.real, 2.0 * g.imag, m2 - 1.0]) / (m2 + 1.0)


def gauss_normal(data, z: complex) -> np.ndarray:
    return gauss_normal_from_g(g_value(data, z))


def _principal_third(coef: complex, z: complex) -> float:
    """Principal part, log coefficient coef, of the third coordinate at z."""
    return (coef * (math.log(abs(z)) + 1j * branch_arg(z))).real


def check_slab(sample):
    """The scalar check_slab: one principal term per sampled point."""
    from trinoids.asymptotics import SlabReport

    coef = principal_log_coefficient(sample.data)
    residuals = []
    for rho, arc in zip(sample.radii, sample.arc_points):
        for th, pt in zip(sample.arc_angles, arc):
            z = rho * np.exp(1j * th)
            residuals.append(pt[2] - _principal_third(coef, z))
    for s, pt in zip(sample.boundary_s, sample.boundary_pos):
        residuals.append(pt[2] - _principal_third(coef, complex(s)))
    for s, pt in zip(sample.boundary_s, sample.boundary_neg):
        residuals.append(pt[2] - _principal_third(coef, complex(-s, 0.0)))
    residuals = np.array(residuals)
    bound_2c = 2.0 * correction_bound(sample.data)
    width = float(residuals.max() - residuals.min())
    spread = max(
        float(np.ptp(sample.boundary_pos[:, 2])), float(np.ptp(sample.boundary_neg[:, 2]))
    )
    slack = 100.0 * sample.tol
    return SlabReport(
        sup=float(residuals.max()),
        inf=float(residuals.min()),
        width=width,
        correction_bound=bound_2c,
        boundary_z_spread=spread,
        passed=width <= 2.0 * bound_2c + slack,
    )


def normal_limit_report(sample):
    """The scalar normal_limit_report: one gauss_normal per angle."""
    from trinoids.asymptotics import NormalLimitReport

    down = np.array([0.0, 0.0, -1.0])

    def max_dev(rho: float) -> float:
        devs = [
            np.linalg.norm(gauss_normal(sample.data, rho * np.exp(1j * th)) - down)
            for th in sample.arc_angles
        ]
        return float(max(devs))

    outer = max_dev(sample.radii[0])
    inner = max_dev(sample.radii[-1])
    return NormalLimitReport(outer, inner, passed=inner < outer and inner < 0.5)


# ---------------------------------------------------------------------------
# High-precision antiderivative: the program's closed form F from the same
# double coefficients (the merged terms of _power_terms), evaluated in
# 160-bit mpmath, together with the rounding budget that weierstrass.integrate
# documents, computed from the exact terms.  This is the end engine's
# accuracy contract: each coordinate it returns lies within the budget of
# Re(F(z) - F(z0)) here.

MP_PREC = 160


@functools.lru_cache(maxsize=None)
def _mp_branch_log(z: complex):
    """log z at MP_PREC bits on the branch of branch_arg."""
    with mpmath.workprec(MP_PREC):
        x, y = mpmath.mpf(z.real), mpmath.mpf(z.imag)
        theta = mpmath.atan2(y, x)
        if theta < -mpmath.pi / 2:
            theta += 2 * mpmath.pi
        return mpmath.mpc(mpmath.log(mpmath.hypot(x, y)), theta)


@functools.lru_cache(maxsize=None)
def _mp_power(z: complex, q: float):
    """z^q - 1 in the expm1 form, else z^q, at MP_PREC bits; shared by
    every data set with the exponent q."""
    with mpmath.workprec(MP_PREC):
        w = mpmath.mpf(q) * _mp_branch_log(z)
        return mpmath.expm1(w) if abs(q) < _EXPM1_BELOW else mpmath.exp(w)


def _mp_antiderivative(data):
    """z -> (Re F(z), costs): the three components of F at MP_PREC bits and,
    per component, the summed rounding costs of its terms at z (in double
    precision, from the rounded sizes of the exact terms)."""
    if isinstance(data, ExponentialData):
        c = mpmath.mpc(2.0 * data.omega_factor * data.lam)

        def exponential(z: complex):
            w = mpmath.mpc(z)
            values = [-c * mpmath.cosh(w), 1j * c * mpmath.sinh(w), c * w]
            return [v.real for v in values], [2 * _EPS * abs(complex(v)) for v in values]

        return exponential

    log_coefs, powers = _power_terms(data)
    log_coefs = [mpmath.mpc(lc) for lc in log_coefs]
    powers = [(q, [(i, mpmath.mpc(coef)) for i, coef in terms]) for q, terms in powers]

    def power_end(z: complex):
        log_z = _mp_branch_log(z)
        abs_log = abs(complex(log_z))
        values = [lc * log_z for lc in log_coefs]
        costs = [2 * _EPS * abs(complex(v)) for v in values]
        for q, terms in powers:
            e = _mp_power(z, q)
            weight = _EPS * (2 + abs(q) * abs_log)
            for i, coef in terms:
                t = coef * e
                values[i] += t
                costs[i] += weight * abs(complex(t))
        return [v.real for v in values], costs

    return power_end


def mp_integrate(data, z0: complex, targets):
    """(values, budgets) per target: Re(F(z) - F(z0)) as three mpf, and the
    budget, the largest over the components of the costs at both ends."""
    with mpmath.workprec(MP_PREC):
        antiderivative = _mp_antiderivative(data)
        f0, c0 = antiderivative(complex(z0))
        values, budgets = [], []
        for z in targets:
            f, c = antiderivative(complex(z))
            values.append([a - b for a, b in zip(f, f0)])
            budgets.append(max(a + b for a, b in zip(c, c0)))
    return values, np.array(budgets)


def budget_ratios(data, z0: complex, targets, got) -> np.ndarray:
    """Each target's largest coordinate error of got against the 160-bit
    value, in units of its budget (0 for no error on no budget)."""
    values, budgets = mp_integrate(data, z0, targets)
    with mpmath.workprec(MP_PREC):
        errors = [max(abs(mpmath.mpf(float(g)) - w) for g, w in zip(row, want))
                  for row, want in zip(np.asarray(got), values)]
    errors = np.array([float(e) for e in errors])
    return np.divide(errors, budgets, out=np.zeros_like(errors), where=errors > 0)


def mp_g_value(data, z: complex):
    """g(z) in mpmath on the branch of branch_arg, with its first-order
    rounding bound in double arithmetic: Horner's rule over the n + 1
    coefficients of g0 + z g1(z) (one complex product and sum per step,
    at most 2 eps per step on the sum of |a_k z^k|), then z^alpha =
    exp(alpha log z) at eps (2 + alpha |log z|), as integrate's power terms."""
    with mpmath.workprec(MP_PREC):
        eps = mpmath.mpf(_EPS)
        if isinstance(data, ExponentialData):
            g = mpmath.exp(mpmath.mpc(z))
            return complex(g), float(2 * eps * abs(g))
        if z == 0:
            return 0j, 0.0
        w = mpmath.mpc(z)
        coefs = [data.g0, *data.g1]
        poly = sum(mpmath.mpc(c) * w**k for k, c in enumerate(coefs))
        sizes = sum(abs(mpmath.mpc(c)) * abs(w) ** k for k, c in enumerate(coefs))
        log_z = _mp_branch_log(complex(z))
        power = mpmath.exp(data.alpha * log_z)
        bound = abs(power) * (2 * eps * len(coefs) * sizes
                              + eps * (2 + data.alpha * abs(log_z)) * abs(poly))
        return complex(power * poly), float(bound)


def exponential_displacement(data: ExponentialData, z: complex, z0: complex = 0.0) -> np.ndarray:
    """Closed form: antiderivative (-2 c l cosh z, 2 i c l sinh z, 2 c l z)."""
    c = data.omega_factor * data.lam

    def anti(w: complex) -> np.ndarray:
        w = complex(w)
        vec = np.array([-2.0 * c * np.cosh(w), 2.0j * c * np.sinh(w), 2.0 * c * w])
        return vec.real

    return anti(z) - anti(z0)


def power_end_displacement(data: PowerEndData, z: complex, z0: complex = 1.0) -> np.ndarray:
    """Closed form: monomial antiderivatives on the cut branch, log for z^-1."""
    out = np.zeros(3)
    for i, monomials in enumerate(_monomial_components(data)):
        total = 0j
        for coef, p in monomials:
            if abs(p + 1.0) <= 1e-12:
                total += coef * (branch_log(z) - branch_log(z0))
            else:
                total += coef * (branch_power(z, p + 1.0) - branch_power(z0, p + 1.0)) / (p + 1.0)
        out[i] = total.real
    return out


def displacement(data, z, z0=None) -> np.ndarray:
    if isinstance(data, ExponentialData):
        return exponential_displacement(data, z, 0.0 if z0 is None else z0)
    return power_end_displacement(data, z, 1.0 if z0 is None else z0)


def correction_closed_form(data: PowerEndData, z: complex) -> complex:
    """C(z) through the polynomial antiderivative, base point 1."""
    rho = correction_coefficients(data)

    def anti(w: complex) -> complex:
        return sum(c * w ** (k + 1) / (k + 1) for k, c in enumerate(rho))

    return anti(complex(z)) - anti(1.0 + 0j)


def _sphere_grid(res_deg: float) -> np.ndarray:
    thetas = np.radians(np.arange(0.0, 180.0 + res_deg / 2, res_deg))
    phis = np.radians(np.arange(0.0, 360.0, res_deg))
    T, P = np.meshgrid(thetas, phis, indexing="ij")
    return np.stack(
        [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
    ).reshape(-1, 3)


def direction_triple_hits(target_angles, res_deg: float = 1.0, tol_deg: float = 1.5):
    """Dense search for unit triples (u1, u2, u3) with prescribed pairwise angles.

    Gauge: u1 = (1,0,0), u2 in the upper xy half-plane, u3 anywhere on a
    res_deg lat-long grid.  target_angles = (angle(u1,u2), angle(u1,u3),
    angle(u2,u3)).  Returns a list of (u2, u3) pairs matching all three
    angles within tol_deg.
    """
    a12, a13, a23 = target_angles
    tol = math.radians(tol_deg)
    u1 = np.array([1.0, 0.0, 0.0])
    grid = _sphere_grid(res_deg)
    ang13 = np.arccos(np.clip(grid @ u1, -1.0, 1.0))
    mask13 = np.abs(ang13 - a13) <= tol
    candidates = grid[mask13]
    hits = []
    for t_deg in np.arange(0.0, 180.0 + res_deg / 2, res_deg):
        t = math.radians(t_deg)
        if abs(t - a12) > tol:
            continue
        u2 = np.array([math.cos(t), math.sin(t), 0.0])
        ang23 = np.arccos(np.clip(candidates @ u2, -1.0, 1.0))
        for u3 in candidates[np.abs(ang23 - a23) <= tol]:
            hits.append((u2, u3))
    return hits


def triple_has_direction_solution(r_triple, res_deg: float = 1.0, tol_deg: float = 1.5) -> bool:
    s = [math.pi - r for r in r_triple]
    return bool(direction_triple_hits((s[0], s[1], s[2]), res_deg, tol_deg))


# --- mean curvature ------------------------------------------------------------
# A finite-difference estimator that only the tests use: it checks that the
# closed-form catalog surfaces have the mean curvature they claim.

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

    n = np.cross(Xu, Xv)
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


def ball_to_halfspace(p) -> np.ndarray:
    """Inverse of surfaces.halfspace_to_ball, by its own formula.  Raises on |p| >= 1."""
    p = np.asarray(p, dtype=float)
    n2 = np.sum(p * p, axis=-1)
    if np.any(n2 >= 1.0):
        raise ValueError("ball point needs |p| < 1")
    y1, y2, y3 = p[..., 0], p[..., 2], -p[..., 1]
    e = y1 * y1 + y2 * y2 + (y3 - 1.0) ** 2
    return np.stack([2.0 * y1 / e, 2.0 * y2 / e, (1.0 - n2) / e], axis=-1)



# --- emitters ----------------------------------------------------------------
# The original one-float-at-a-time emitters; trinoids.emit formats whole
# arrays at once and must produce exactly the same bytes.

def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def obj_from_grid(grid) -> str:
    ny, nx, _ = grid.positions.shape
    out = [f"# parametric grid {nx} x {ny}, model {grid.model.value}"]
    for j in range(ny):
        for i in range(nx):
            p = grid.positions[j, i]
            out.append("v " + " ".join(_fmt(v) for v in p))
    for j in range(ny):
        for i in range(nx):
            n = grid.normals[j, i]
            out.append("vn " + " ".join(_fmt(v) for v in n))
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i + 1
            b = a + 1
            c = a + nx + 1
            d = a + nx
            out.append(f"f {a}//{a} {b}//{b} {c}//{c} {d}//{d}")
    return "\n".join(out) + "\n"


def csv_from_grid(grid) -> str:
    lines = ["x,y,px,py,pz,nx,ny,nz"]
    ny, nx, _ = grid.positions.shape
    for j in range(ny):
        for i in range(nx):
            row = [grid.xs[i], grid.ys[j], *grid.positions[j, i], *grid.normals[j, i]]
            lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def obj_from_segments(lines_in, box: float = 10.0) -> str:
    out = [f"# oriented lines clipped to the cube of half-width {_fmt(box)}"]
    vertex_count = 0
    elements = []
    for line in lines_in:
        lo, hi = -np.inf, np.inf
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
        for t in (lo, hi):
            q = line.at(float(t))
            elements.append("v " + " ".join(_fmt(v) for v in q))
        vertex_count += 2
        elements.append(f"l {vertex_count - 1} {vertex_count}")
    return "\n".join(out + elements) + "\n"


def obj_from_segments_and_patches(lines_in, patches, box: float = 10.0) -> str:
    text = obj_from_segments(lines_in, box)
    parts = [text.rstrip("\n")]
    offset = sum(1 for row in text.splitlines() if row.startswith("v "))
    for patch in patches:
        ny, nx, _ = patch.shape
        for j in range(ny):
            for i in range(nx):
                parts.append("v " + " ".join(_fmt(v) for v in patch[j, i]))
        for j in range(ny - 1):
            for i in range(nx - 1):
                a = offset + j * nx + i + 1
                b, c, d = a + 1, a + nx + 1, a + nx
                parts.append(f"f {a} {b} {c} {d}")
        offset += ny * nx
    return "\n".join(parts) + "\n"


def decay_csv(radii, sups) -> str:
    lines = ["radius,sup_distance"]
    for r, s in zip(radii, sups):
        lines.append(f"{_fmt(r)},{_fmt(s)}")
    return "\n".join(lines) + "\n"


# The frozen array-at-a-time grid writers that handed whole arrays to one
# "%" operation, with their per-grid cache of formatted rows: the memory
# baseline of the byte-table writers in trinoids.emit.

_PERCENT_ROWS = weakref.WeakKeyDictionary()


def _percent_rows(row_fmt, rows):
    rows = np.asarray(rows)
    return (row_fmt * len(rows)) % tuple(rows.reshape(-1).tolist())


def _percent_grid_rows(grid):
    rows = _PERCENT_ROWS.get(grid)
    if rows is None:
        rows = tuple(_percent_rows("\n%.17g %.17g %.17g", a.reshape(-1, 3))
                     for a in (grid.positions, grid.normals))
        _PERCENT_ROWS[grid] = rows
    return rows


def percent_obj_from_grid(grid) -> str:
    ny, nx, _ = grid.positions.shape
    positions, normals = _percent_grid_rows(grid)
    tokens = np.array([f"{a}//{a}" for a in range(1, nx * ny + 1)], dtype=object)
    j, i = np.meshgrid(np.arange(ny - 1), np.arange(nx - 1), indexing="ij")
    a = (j * nx + i).reshape(-1)
    corners = tokens[np.stack([a, a + 1, a + nx + 1, a + nx], axis=1)]
    return "".join([
        f"# parametric grid {nx} x {ny}, model {grid.model.value}",
        positions.replace("\n", "\nv "),
        normals.replace("\n", "\nvn "),
        ("\nf %s %s %s %s" * len(corners)) % tuple(corners.reshape(-1).tolist()),
        "\n",
    ])


def percent_csv_from_grid(grid) -> str:
    ny, nx, _ = grid.positions.shape
    positions, normals = _percent_grid_rows(grid)
    xs = ["%.17g" % x for x in grid.xs.tolist()]
    ys = ["%.17g" % y for y in grid.ys.tolist()]
    fields = [None] * (4 * nx * ny)
    fields[0::4] = xs * ny
    fields[1::4] = [y for y in ys for _ in range(nx)]
    fields[2::4] = positions.split("\n")[1:]
    fields[3::4] = normals.split("\n")[1:]
    text = ("x,y,px,py,pz,nx,ny,nz" + "\n%s %s %s %s" * (nx * ny) + "\n") % tuple(fields)
    return text.replace(" ", ",")


# --- classification ----------------------------------------------------------
# The original classifier: one slack formula per entry point and a scalar
# and a batch membership rule.  trinoids.classify shares one of each between
# all entry points and must return exactly the same values.

_PI = math.pi
_TETRAHEDRON_VERTICES = np.array(
    [[_PI, 0.0, 0.0], [0.0, _PI, 0.0], [0.0, 0.0, _PI], [_PI, _PI, _PI]]
)


def reduced_angle(phi: float) -> float:
    m = float(phi) % (2.0 * _PI)
    return min(m, 2.0 * _PI - m)


def tetrahedron_slacks(r1: float, r2: float, r3: float) -> np.ndarray:
    return np.array(
        [
            r1 + r2 + r3 - _PI,
            _PI - (r1 + r2 - r3),
            _PI - (r1 - r2 + r3),
            _PI - (-r1 + r2 + r3),
        ]
    )


def _membership_from_slacks(slacks: np.ndarray, eps: float) -> Membership:
    if np.any(slacks < -eps):
        return Membership.OUTSIDE
    if np.any(slacks <= eps):
        return Membership.BOUNDARY
    return Membership.INTERIOR


def tetrahedron_contains(r_triple, eps_face: float = 0.0) -> Membership:
    r = np.asarray(r_triple, dtype=float)
    if r.shape != (3,):
        raise ValueError("expected three reduced angles")
    if np.any(r < 0.0) or np.any(r > _PI):
        raise ValueError(f"reduced angles must lie in [0, pi], got {r}")
    return _membership_from_slacks(tetrahedron_slacks(*r), eps_face)


def barycentric_coordinates(r_triples: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(r_triples, dtype=float))
    system = np.vstack([_TETRAHEDRON_VERTICES.T, np.ones(4)])
    rhs = np.hstack([pts, np.ones((pts.shape[0], 1))])
    bary = np.linalg.solve(system, rhs.T).T
    return bary[0] if np.asarray(r_triples).ndim == 1 else bary


def barycentric_membership(r_triple, eps_face: float = 0.0) -> Membership:
    r = np.asarray(r_triple, dtype=float)
    if np.any(r < 0.0) or np.any(r > _PI):
        raise ValueError(f"reduced angles must lie in [0, pi], got {r}")
    bary = barycentric_coordinates(r) * (2.0 * _PI)
    return _membership_from_slacks(bary, eps_face)


def classify_triple(phi1: float, phi2: float, phi3: float, eps_face: float = 0.0):
    """(tag, reduced, slacks) as the original classify_triple computed them."""
    phis = (phi1, phi2, phi3)
    for phi in phis:
        if not (phi > 0.0) or phi == _PI:
            raise ValueError(f"angles must lie in (0, inf) \\ {{pi}}, got {phi}")
    reduced = tuple(reduced_angle(phi) for phi in phis)
    slacks = tuple(tetrahedron_slacks(*reduced))
    if any(r <= eps_face or r >= _PI - eps_face for r in reduced):
        return TripleTag.DEGENERATE_MULTIPLE_OF_PI, reduced, slacks
    membership = tetrahedron_contains(reduced, eps_face=eps_face)
    tag = {
        Membership.INTERIOR: TripleTag.GENERIC_ADMISSIBLE,
        Membership.BOUNDARY: TripleTag.PARALLEL_BOUNDARY,
        Membership.OUTSIDE: TripleTag.INADMISSIBLE,
    }[membership]
    return tag, reduced, slacks


def _membership_batch(slacks: np.ndarray, eps: float) -> np.ndarray:
    out = np.full(slacks.shape[0], Membership.INTERIOR.value, dtype=np.int8)
    boundary = np.any(slacks <= eps, axis=1)
    outside = np.any(slacks < -eps, axis=1)
    out[boundary] = Membership.BOUNDARY.value
    out[outside] = Membership.OUTSIDE.value
    return out


def tetrahedron_membership_batch(r_triples: np.ndarray, eps_face: float = 0.0) -> np.ndarray:
    r = np.asarray(r_triples, dtype=float)
    slacks = np.stack(
        [
            r[:, 0] + r[:, 1] + r[:, 2] - _PI,
            _PI - (r[:, 0] + r[:, 1] - r[:, 2]),
            _PI - (r[:, 0] - r[:, 1] + r[:, 2]),
            _PI - (-r[:, 0] + r[:, 1] + r[:, 2]),
        ],
        axis=1,
    )
    return _membership_batch(slacks, eps_face)


def barycentric_membership_batch(r_triples: np.ndarray, eps_face: float = 0.0) -> np.ndarray:
    bary = barycentric_coordinates(np.asarray(r_triples, dtype=float)) * (2.0 * _PI)
    return _membership_batch(bary, eps_face)


def bobenko_membership_batch(delta_triples: np.ndarray, eps: float = 0.0) -> np.ndarray:
    d = np.asarray(delta_triples, dtype=float)
    slacks = np.stack(
        [
            d[:, 0] + d[:, 1] + d[:, 2] - 0.5,
            0.5 - (d[:, 0] + d[:, 1] - d[:, 2]),
            0.5 - (d[:, 0] - d[:, 1] + d[:, 2]),
            0.5 - (-d[:, 0] + d[:, 1] + d[:, 2]),
        ],
        axis=1,
    )
    return _membership_batch(slacks, eps)


def classify_doc(phis, eps_face: float) -> dict:
    """The document the original ``trinoids classify`` built, before emission."""
    tag, reduced, slacks = classify_triple(*phis, eps_face=eps_face)
    deltas = [r / (2.0 * math.pi) for r in reduced]
    d = deltas
    bob_slacks = [
        d[0] + d[1] + d[2] - 0.5,
        0.5 - (d[0] + d[1] - d[2]),
        0.5 - (d[0] - d[1] + d[2]),
        0.5 - (-d[0] + d[1] + d[2]),
    ]
    return {
        "phi": list(phis),
        "reduced": list(reduced),
        "tag": tag.value,
        "slacks": list(slacks),
        "bobenko_deltas": deltas,
        "bobenko_slacks": bob_slacks,
    }


# ---------------------------------------------------------------------------
# Quadrature engine: every path split into radial and arc segments, each
# integrated by scipy's adaptive quad, with the PowerEnd integrand taking one
# branch power per monomial and z^{-1} terms integrated as logarithms.
# trinoids.weierstrass.integrate evaluates closed-form antiderivatives at the
# endpoints instead and must agree to within the tolerance along every route.


class Route(Enum):
    RADIAL_THEN_ARC = "radial-then-arc"
    ARC_THEN_RADIAL = "arc-then-radial"
    STRAIGHT = "straight"


@dataclass(frozen=True)
class IntegrationPath:
    """Path from z0 to target, as one of three routes.

    Radial segments run along rays through the origin, arcs along circles
    around it; for PowerEndData both endpoints must lie in the closed upper
    half-disk D and the path must avoid 0.
    """

    z0: complex
    target: complex
    route: Route = Route.RADIAL_THEN_ARC


def _validate_path(data, path) -> None:
    z0, z1 = complex(path.z0), complex(path.target)
    if isinstance(data, PowerEndData):
        if not (_in_upper_half_disk(z0) and _in_upper_half_disk(z1)):
            raise ValueError(
                "PowerEnd paths must stay in the closed upper half-disk "
                f"0 < |z| <= 1, Im z >= 0; got z0={z0}, target={z1}"
            )
    if path.route is Route.STRAIGHT:
        # reject chords through the puncture: 0 on segment [z0, z1]
        cross = (z0.conjugate() * z1).imag
        dot = (z0.conjugate() * z1).real
        if cross == 0.0 and dot < 0.0:
            raise ValueError("straight path passes through the puncture at 0")


def _segments(path):
    """Decompose a path into ("line", a, b) and ("arc", rho, th0, th1) parts."""
    z0, z1 = complex(path.z0), complex(path.target)
    if path.route is Route.STRAIGHT:
        return [("line", z0, z1)] if z1 != z0 else []
    r0, r1 = abs(z0), abs(z1)
    th0 = branch_arg(z0) if r0 > 0 else 0.0
    th1 = branch_arg(z1)
    segs = []
    if path.route is Route.RADIAL_THEN_ARC:
        mid = r1 * cmath.exp(1j * th0)
        if abs(mid - z0) > 0:
            segs.append(("line", z0, mid))
        if th1 != th0 and r1 > 0:
            segs.append(("arc", r1, th0, th1))
    else:
        if th1 != th0 and r0 > 0:
            segs.append(("arc", r0, th0, th1))
        end_of_arc = r0 * cmath.exp(1j * th1)
        if abs(z1 - end_of_arc) > 0:
            segs.append(("line", end_of_arc, z1))
    return segs


def _split_log(monomials):
    """Separate z^{-1} terms (integrated as log) from the quadrature rest."""
    log_coef = 0.0 + 0.0j
    rest = []
    for coef, power in monomials:
        if abs(power + 1.0) <= 1e-12:
            log_coef += coef
        elif coef != 0:
            rest.append((coef, power))
    return log_coef, rest


def _quad_segment(f, seg, epsabs: float):
    """Integrate f(z) dz over one segment; returns (value, error estimate)."""
    if seg[0] == "line":
        _, a, b = seg
        dz = b - a

        def integrand(t: float) -> complex:
            return f(a + dz * t) * dz

    else:
        _, rho, th0, th1 = seg
        dth = th1 - th0

        def integrand(t: float) -> complex:
            z = rho * cmath.exp(1j * (th0 + dth * t))
            return f(z) * 1j * dth * z

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        value, err = quad(integrand, 0.0, 1.0, complex_func=True,
                          epsabs=epsabs, epsrel=1e-12, limit=200)
    err_total = float(abs(err))
    if any(issubclass(w.category, IntegrationWarning) for w in caught) and err_total > 10 * epsabs:
        raise QuadratureError("quadrature did not converge on a path segment", err_total)
    return value, err_total


def integrand_callables(data):
    """Per-component (callable, log_coef) pairs for quadrature."""
    if isinstance(data, ExponentialData):
        c = data.omega_factor * data.lam

        def f1(z: complex) -> complex:
            return c * (cmath.exp(-z) - cmath.exp(z))

        def f2(z: complex) -> complex:
            return 1j * c * (cmath.exp(-z) + cmath.exp(z))

        def f3(z: complex) -> complex:
            return 2.0 * c

        return [(f1, 0j), (f2, 0j), (f3, 0j)]

    out = []
    for monomials in _monomial_components(data):
        log_coef, rest = _split_log(monomials)

        def f(z: complex, rest=rest) -> complex:
            return sum(coef * branch_power(z, power) for coef, power in rest)

        out.append((f, log_coef))
    return out


def integrate(data, path, tol: float = 1e-10) -> np.ndarray:
    """Re of the three path integrals by quadrature; each component to
    about tol absolute, or 1e-12 relative where the integral is large."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    _validate_path(data, path)
    segs = _segments(path)
    comps = integrand_callables(data)
    dlog = (
        branch_log(complex(path.target)) - branch_log(complex(path.z0))
        if any(lc != 0 for _, lc in comps)
        else 0j
    )
    out = np.zeros(3)
    eps_seg = tol / max(len(segs), 1)
    for i, (f, log_coef) in enumerate(comps):
        total = log_coef * dlog
        for seg in segs:
            value, _ = _quad_segment(f, seg, eps_seg)
            total += value
        out[i] = total.real
    return out


def integrate_paths(data, paths, tol: float = 1e-10):
    """The closed-form engine as it stood when it took paths: every path
    validated, and F evaluated once per distinct endpoint value through a
    dict, so x + 0j and x - 0j share one evaluation.  Its antiderivative is
    the frozen scalar one above; weierstrass.integrate, which evaluates F
    over arrays, must give the same bits and raise the same errors."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must lie in (0, inf), got {tol}")
    antiderivative = _antiderivative(data)
    cache = {}

    def at(z: complex):
        if z not in cache:
            try:
                cache[z] = antiderivative(z)
            except OverflowError:
                raise QuadratureError(
                    f"closed-form integral overflows at z = {z}", math.inf
                ) from None
        return cache[z]

    results = []
    for path in paths:
        _validate_path(data, path)
        (f0, s0), (f1, s1) = at(complex(path.z0)), at(complex(path.target))
        budget = _EPS * max(s0[0] + s1[0], s0[1] + s1[1], s0[2] + s1[2])
        if not budget <= tol:
            raise QuadratureError(f"rounding budget exceeds tol = {tol:.3e}", budget)
        results.append(np.array([(f1[0] - f0[0]).real, (f1[1] - f0[1]).real,
                                 (f1[2] - f0[2]).real]))
    return results


def sample_conjugate_end(data, radii, samples_per_arc=33, boundary_samples=16,
                         tol=1e-10):
    """The end sampler on the quadrature engine, for symmetric data and
    valid radii."""
    from trinoids.asymptotics import EndSample

    radii = tuple(float(r) for r in radii)
    conj = conjugate_data(data)
    thetas = np.linspace(0.0, math.pi, samples_per_arc)

    def immerse(z: complex) -> np.ndarray:
        return integrate(conj, IntegrationPath(1.0, z, Route.RADIAL_THEN_ARC), tol)

    arcs = []
    for rho in radii:
        arcs.append(np.array([immerse(rho * np.exp(1j * th)) for th in thetas]))
    s_vals = np.geomspace(1.0, radii[-1], boundary_samples)
    pos = np.array([immerse(s) for s in s_vals])
    neg = np.array([immerse(complex(-s, 0.0)) for s in s_vals])
    return EndSample(
        data=conj,
        alpha=data.alpha,
        lam=data.lam,
        radii=radii,
        arc_angles=thetas,
        arc_points=tuple(arcs),
        boundary_s=s_vals,
        boundary_pos=pos,
        boundary_neg=neg,
        tol=tol,
    )


def correction_integral(data: PowerEndData, z: complex) -> complex:
    """C(z) = Int_1^z R(xi) d xi = sum_k rho_k (z^{k+1} - 1)/(k+1), exactly.

    R is the polynomial of correction_coefficients, so C is its
    antiderivative vanishing at 1, evaluated by Horner; C is bounded on the
    closed upper half-disk and real on (0, 1] for real-coefficient data.
    z must lie in the closed upper half-disk.
    """
    if not isinstance(data, PowerEndData):
        raise TypeError("correction_integral is defined for PowerEndData")
    z = complex(z)
    if not _in_upper_half_disk(z):
        raise ValueError(f"z={z} outside the closed upper half-disk")
    coefs = [complex(c) / (k + 1) for k, c in enumerate(correction_coefficients(data))]
    value = 0j
    for c in reversed(coefs):
        value = value * z + c
    return value * z - sum(coefs)


def correction_integral_quadrature(data: PowerEndData, z: complex, tol: float = 1e-10) -> complex:
    """C(z) = Int_1^z R(xi) d xi by adaptive quadrature along radial-then-arc."""
    rho = correction_coefficients(data)

    def f(w: complex) -> complex:
        total = 0j
        for coef in rho[::-1]:
            total = total * w + coef
        return total

    total = 0j
    segs = _segments(IntegrationPath(1.0, complex(z), Route.RADIAL_THEN_ARC))
    for seg in segs:
        value, _ = _quad_segment(f, seg, tol / max(len(segs), 1))
        total += value
    return total


def helicoid_distances(frame, pitch: float, points):
    """The scalar helicoid_distances: one point at a time, a 49-value scan
    and then up to 40 Newton steps.  The squared height term is t*t, where
    the original took (Z + pitch*y)**2: on a numpy float64 that calls libm
    pow, which is not always t*t."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    local = (pts - frame.translation) @ frame.rotation
    dists = np.empty(len(local))
    flags = np.ones(len(local), dtype=bool)
    for i, (X, Y, Z) in enumerate(local):
        seed = -Z / pitch

        def dist2(y):
            up = X * math.cos(y) + Y * math.sin(y)
            t = Z + pitch * y
            return up * up + t * t

        ys = seed + np.linspace(-math.pi, math.pi, 49)
        y = float(ys[int(np.argmin([dist2(v) for v in ys]))])
        ok = False
        for _ in range(40):
            u = X * math.sin(y) - Y * math.cos(y)
            du = X * math.cos(y) + Y * math.sin(y)
            grad = -2.0 * u * du + 2.0 * pitch * (Z + pitch * y)
            hess = -2.0 * (du * du - u * u) + 2.0 * pitch * pitch
            if abs(grad) < 1e-14 * max(1.0, abs(hess)):
                ok = True
                break
            step = grad / hess if hess > 1e-300 else math.copysign(0.1, grad)
            step = max(min(step, 0.5), -0.5)
            y -= step
        d2 = dist2(y)
        dists[i] = math.sqrt(max(d2, 0.0))
        flags[i] = ok
    return dists, flags


def array_helicoid_distances(frame, points):
    """The array helicoid_distances as it was before its scan was computed in
    place: every step of dist2 on the (n, 49) scan allocates a new array."""
    pitch = 2.0 * frame.lam

    def dist2(X, Y, Z, y):
        up = X * np.cos(y) + Y * np.sin(y)
        t = Z + pitch * y
        return up * up + t * t

    with np.errstate(all="ignore"):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        X, Y, Z = ((pts - frame.translation) @ frame.rotation).T
        ys = (-Z / pitch)[:, None] + np.linspace(-math.pi, math.pi, 49)
        scan = dist2(X[:, None], Y[:, None], Z[:, None], ys)
        y = ys[np.arange(len(ys)), np.argmin(scan, axis=1)]
        flags = np.zeros(len(y), dtype=bool)
        active = np.arange(len(y))
        for _ in range(40):
            Xa, Ya, ya = X[active], Y[active], y[active]
            u = Xa * np.sin(ya) - Ya * np.cos(ya)
            du = Xa * np.cos(ya) + Ya * np.sin(ya)
            grad = -2.0 * u * du + 2.0 * pitch * (Z[active] + pitch * ya)
            hess = -2.0 * (du * du - u * u) + 2.0 * pitch * pitch
            scale = np.abs(hess)
            done = np.abs(grad) < 1e-14 * np.where(scale > 1.0, scale, 1.0)
            flags[active[done]] = True
            moving = ~done
            active, grad, hess = active[moving], grad[moving], hess[moving]
            if not len(active):
                break
            step = np.where(hess > 1e-300, grad / hess, np.copysign(0.1, grad))
            step = np.where(step > 0.5, 0.5, step)
            step = np.where(step < -0.5, -0.5, step)
            y[active] = ya[moving] - step
        d2 = dist2(X, Y, Z, y)
    return np.sqrt(np.where(d2 < 0.0, 0.0, d2)), flags


# ---------------------------------------------------------------------------
# Original constellation solver: every cross product of two 3-vectors taken
# with np.cross, and each frame placed once at the perpendicular foot of the
# textbook formula, whose denominator is 1 - (u_a . u_b)^2.  trinoids.lines.cross
# replaces np.cross in the program and must give exactly the same bits, so
# every line, rotation, lambda and invariant built from these functions must
# match the program's bit for bit.  The program's foot divides by |u_a x u_b|^2
# instead, so the frame translations agree only to rounding.  The original's
# self-check is absolute (max_residual < residual_tol); the program scales its
# containment and distance parts with the coordinates.


def angle_between(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return math.atan2(np.linalg.norm(np.cross(u, v)), float(u @ v))


def rotation_about(axis, angle: float) -> np.ndarray:
    """Right-handed rotation matrix about a unit axis (Rodrigues)."""
    k = seq_unit(axis)
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def line_distance(a, b) -> float:
    n = np.cross(a.direction, b.direction)
    norm = np.linalg.norm(n)
    d = b.point - a.point
    if norm < 1e-12:
        return float(np.linalg.norm(d - (d @ a.direction) * a.direction))
    return abs(float(d @ n)) / norm


def signed_gap(a, b) -> float:
    n = seq_unit(np.cross(a.direction, b.direction))
    return float((b.point - a.point) @ n)


def ruling_residual(rotation, translation, pitch: float, line) -> float:
    d = rotation.T @ line.direction
    p = rotation.T @ (line.point - translation)
    res_horizontal = abs(d[2])
    dh = math.hypot(d[0], d[1])
    if dh < 1e-12:
        return 1.0
    n = np.cross(d, np.array([0.0, 0.0, 1.0]))
    res_axis = abs(float(p @ n)) / np.linalg.norm(n)
    t_star = -(p[0] * d[0] + p[1] * d[1]) / (dh * dh)
    z_star = p[2] + t_star * d[2]
    y_star = -z_star / pitch
    res_twist = abs(d[0] * math.cos(y_star) + d[1] * math.sin(y_star)) / dh
    return max(res_horizontal, res_axis, res_twist)


def common_perpendicular_foot(a, b):
    """Foot on a of the common perpendicular of two non-parallel lines."""
    d = b.point - a.point
    ua, ub = a.direction, b.direction
    c = float(ua @ ub)
    denom = 1.0 - c * c
    if denom < PARALLEL_TOL**2:
        raise ValueError("lines are (nearly) parallel; no unique common perpendicular")
    ta = (float(d @ ua) - c * float(d @ ub)) / denom
    return a.point + ta * ua


def _pair_frame(a, b, lam: float, phi: float, convention):
    qa = common_perpendicular_foot(a, b)
    n_hat = seq_unit(np.cross(a.direction, b.direction))
    e = -_screw_sign(phi) * n_hat
    sigma = math.copysign(1.0, lam)
    col0 = -sigma * np.cross(a.direction, e)
    col1 = -sigma * a.direction
    R = np.column_stack([col0, col1, e])
    return HelicoidFrame(lam, R, qa)


def _assemble(phis, lams, u12, u23, u31, convention):
    chi = tuple(_screw_sign(p) for p in phis)
    pitch = tuple(pitch_coefficient(lam, convention) for lam in lams)
    c = tuple(chi[i] * pitch[i] * phis[i] for i in range(3))

    n1 = seq_unit(np.cross(u12, u31))
    n2 = seq_unit(np.cross(u23, u12))
    n3 = seq_unit(np.cross(u31, u23))

    p12 = np.zeros(3)
    p31 = c[0] * n1
    e2 = seq_unit(np.cross(u23, n2))
    denom = float(e2 @ n3)
    if abs(denom) < 1e-12:
        raise ConstellationSolveError("coplanar direction triple; position solve singular")
    x = -c[1]
    y = (c[2] + float(p31 @ n3) - x * float(n2 @ n3)) / denom
    p23 = x * n2 + y * e2

    l12 = OrientedLine(p12, u12)
    l23 = OrientedLine(p23, u23)
    l31 = OrientedLine(p31, u31)
    f1 = _pair_frame(l12, l31, lams[0], phis[0], convention)
    f2 = _pair_frame(l23, l12, lams[1], phis[1], convention)
    f3 = _pair_frame(l31, l23, lams[2], phis[2], convention)
    return Constellation(l12, l23, l31, f1, f2, f3, convention)


def verify_constellation(c, phis):
    phis = tuple(float(p) for p in phis)
    containment, angles, distances = [], [], []
    for i, (a, b, frame) in enumerate(c.pairs()):
        pitch = pitch_coefficient(frame.lam, c.convention)
        containment.append(ruling_residual(frame.rotation, frame.translation, pitch, a))
        containment.append(ruling_residual(frame.rotation, frame.translation, pitch, b))
        r_i = params.reduced_angle(phis[i])
        angles.append(abs(angle_between(a.direction, b.direction) - (math.pi - r_i)))
        h_i = ray_distance_h(phis[i], c.convention)
        distances.append(abs(line_distance(a, b) - h_i))
    coords = np.concatenate([line.point for line in c.lines()]
                            + [frame.translation for _, _, frame in c.pairs()])
    return ConstellationReport(tuple(containment), tuple(angles), tuple(distances),
                               float(np.max(np.abs(coords))))


def solve_constellations(phi1, phi2, phi3, convention=PitchConvention.HALF_GAP,
                         eps_face: float = 1e-12, residual_tol: float = 1e-9):
    outcome = trinoids_classify_triple(phi1, phi2, phi3, eps_face=eps_face)
    if outcome.tag is TripleTag.PARALLEL_BOUNDARY:
        warnings.warn(
            "reduced triple lies on the tetrahedron boundary (parallel "
            "constellations); no generic solution exists",
            ParallelBoundaryWarning,
        )
        return []
    if outcome.tag is not TripleTag.GENERIC_ADMISSIBLE:
        return []

    phis = (phi1, phi2, phi3)
    r = outcome.reduced
    s = tuple(math.pi - ri for ri in r)
    lams = tuple(lambda_of_phi(p) for p in phis)
    u12 = np.array([1.0, 0.0, 0.0])
    u31 = np.array([math.cos(s[0]), math.sin(s[0]), 0.0])
    ax = math.cos(s[1])
    ay = (math.cos(s[2]) - math.cos(s[0]) * math.cos(s[1])) / math.sin(s[0])
    az2 = 1.0 - ax * ax - ay * ay
    if az2 <= 0.0:
        raise ConstellationSolveError(
            f"direction solve degenerate (az^2 = {az2}); triple too close to the boundary"
        )
    az = math.sqrt(az2)

    solutions = []
    for sign in (1.0, -1.0):
        u23 = np.array([ax, ay, sign * az])
        sol = _assemble(phis, lams, u12, u23, u31, convention)
        report = verify_constellation(sol, phis)
        if not report.max_residual < residual_tol:
            raise ConstellationSolveError(
                f"solution failed self-check: max residual {report.max_residual:.3e}"
            )
        solutions.append(sol)
    return solutions


def invariant_set(lines):
    """The original constellation._invariant_set on the np.cross angle and gap."""
    l12, l23, l31 = lines
    pairs = ((l12, l31), (l23, l12), (l31, l23))
    angles = np.array([angle_between(a.direction, b.direction) for a, b in pairs])
    gaps = np.array([signed_gap(a, b) for a, b in pairs])
    triple = float(np.linalg.det(np.column_stack([l12.direction, l23.direction, l31.direction])))
    return angles, gaps, math.copysign(1.0, triple)


def exact_frame_residual(c, phis) -> float:
    """Largest violation of four frame conditions over max(1, s), from the
    solution's own floats in exact rational arithmetic.

    Per pair (carried line a, image line b, frame with origin T and axis e,
    the rotation's third column): T lies on a; the axis meets b; e . u_a and
    e . u_b vanish; and the distance of a and b is h = |pi^2/(4 phi) - phi/4|,
    doubled under RULING_GAP.  s is the largest |coordinate| of the line
    points and frame translations.  Each squared distance is exact, so only
    its square root and the final quotient round.  The position of the foot
    is not compared: along nearly antiparallel lines it is ill-conditioned,
    while these conditions are not.
    """
    Q = Fraction

    def vec(v):
        return [Q(x) for x in v.tolist()]

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def sub(u, v):
        return [u[0] - v[0], u[1] - v[1], u[2] - v[2]]

    def crs(u, v):
        return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]

    def offset(p, n):
        """Distance from p along n, the length of n divided out."""
        return math.sqrt(dot(p, n) ** 2 / dot(n, n))

    coords = [line.point for line in c.lines()] + [frame.translation for _, _, frame in c.pairs()]
    s = max(abs(x) for v in coords for x in v.tolist())
    pi = Q(math.pi)
    factor = 2 if c.convention is PitchConvention.RULING_GAP else 1
    worst = 0.0
    for phi, (a, b, frame) in zip(phis, c.pairs()):
        pa, ua, pb, ub = vec(a.point), vec(a.direction), vec(b.point), vec(b.direction)
        t, e = vec(frame.translation), vec(frame.rotation[:, 2])
        w = crs(sub(t, pa), ua)
        on_carried = math.sqrt(dot(w, w) / dot(ua, ua))
        meets_image = offset(sub(pb, t), crs(e, ub))
        dist = offset(sub(pb, pa), crs(ua, ub))
        phi = Q(float(phi))
        h = factor * abs(pi * pi / (4 * phi) - phi / 4)
        gap = abs(float(Q(dist) - h))
        worst = max(worst, on_carried, meets_image, abs(dot(e, ua)), abs(dot(e, ub)), gap)
    return float(worst) / max(1.0, s)


# ---------------------------------------------------------------------------
# Sequential constellation solver: the program as it built and self-checked
# the two mirror solutions one after the other, each through the scalar
# line kernels, the canonicalizing OrientedLine and the validating
# HelicoidFrame, with every cross product on Python floats.  The program
# builds and checks both solutions in one pass over arrays and must give
# the same bits, raise the same first error, and fit the same helicoids.


def seq_cross(a, b) -> np.ndarray:
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def seq_unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v / n


@dataclass(frozen=True, eq=False)
class SeqLine:
    """OrientedLine as one line at a time."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        d = seq_unit(self.direction)
        p = np.asarray(self.point, dtype=float)
        if not np.all(np.isfinite(p)):
            raise ValueError("line point must be finite")
        p = p - (p @ d) * d
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class SeqFrame:
    """HelicoidFrame as one frame at a time."""

    lam: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        R = np.asarray(self.rotation, dtype=float)
        T = np.asarray(self.translation, dtype=float)
        if R.shape != (3, 3) or T.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        det = float(seq_cross(R[:, 0], R[:, 1]) @ R[:, 2])
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-12 or abs(det - 1.0) > 1e-12:
            raise ValueError("rotation must be special orthogonal within 1e-12")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", T)


def seq_angle_between(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return math.atan2(np.linalg.norm(seq_cross(u, v)), float(u @ v))


def seq_common_perpendicular_feet(a, b):
    d = b.point - a.point
    ua, ub = a.direction, b.direction
    n = seq_cross(ua, ub)
    nn = float(n @ n)
    if nn < PARALLEL_TOL**2:
        raise ValueError("lines are (nearly) parallel; no unique common perpendicular")
    ta = float(seq_cross(d, ub) @ n) / nn
    tb = float(seq_cross(d, ua) @ n) / nn
    return a.point + ta * ua, b.point + tb * ub


def seq_line_distance(a, b) -> float:
    n = seq_cross(a.direction, b.direction)
    norm = np.linalg.norm(n)
    d = b.point - a.point
    if norm < 1e-12:
        return float(np.linalg.norm(d - (d @ a.direction) * a.direction))
    return abs(float(d @ n)) / norm


def seq_ruling_residual(rotation, translation, pitch: float, line) -> float:
    d = rotation.T @ line.direction
    p = rotation.T @ (line.point - translation)
    res_horizontal = abs(d[2])
    dh = math.hypot(d[0], d[1])
    if dh < 1e-12:
        return 1.0
    n = seq_cross(d, np.array([0.0, 0.0, 1.0]))
    res_axis = abs(float(p @ n)) / np.linalg.norm(n)
    t_star = -(p[0] * d[0] + p[1] * d[1]) / (dh * dh)
    z_star = p[2] + t_star * d[2]
    with np.errstate(over="ignore"):  # inf for pitches near 1e-320, kept without a warning
        y_star = -z_star / pitch
    res_twist = abs(d[0] * math.cos(y_star) + d[1] * math.sin(y_star)) / dh
    return max(res_horizontal, res_axis, res_twist)


def seq_pair_frame(a, b, lam: float, phi: float, qa) -> SeqFrame:
    n_hat = seq_unit(seq_cross(a.direction, b.direction))
    e = -_screw_sign(phi) * n_hat
    sigma = math.copysign(1.0, lam)
    col0 = -sigma * seq_cross(a.direction, e)
    col1 = -sigma * a.direction
    R = np.column_stack([col0, col1, e])
    return SeqFrame(lam, R, qa)


def seq_assemble(phis, lams, u12, u23, u31, convention) -> Constellation:
    chi = tuple(_screw_sign(p) for p in phis)
    pitch = tuple(pitch_coefficient(lam, convention) for lam in lams)
    c = tuple(chi[i] * pitch[i] * phis[i] for i in range(3))

    n1 = seq_unit(seq_cross(u12, u31))
    n2 = seq_unit(seq_cross(u23, u12))
    n3 = seq_unit(seq_cross(u31, u23))

    p12 = np.zeros(3)
    p31 = c[0] * n1
    e2 = seq_unit(seq_cross(u23, n2))
    denom = float(e2 @ n3)
    if abs(denom) < 1e-12:
        raise ConstellationSolveError("coplanar direction triple; position solve singular")
    x = -c[1]
    y = (c[2] + float(p31 @ n3) - x * float(n2 @ n3)) / denom
    p23 = x * n2 + y * e2

    l12 = SeqLine(p12, u12)
    l23 = SeqLine(p23, u23)
    l31 = SeqLine(p31, u31)
    f1 = seq_pair_frame(l12, l31, lams[0], phis[0], seq_common_perpendicular_feet(l12, l31)[0])
    f2 = seq_pair_frame(l23, l12, lams[1], phis[1], seq_common_perpendicular_feet(l23, l12)[0])
    f3 = seq_pair_frame(l31, l23, lams[2], phis[2], seq_common_perpendicular_feet(l31, l23)[0])
    return Constellation(l12, l23, l31, f1, f2, f3, convention)


def seq_verify_constellation(c, phis) -> ConstellationReport:
    phis = tuple(float(p) for p in phis)
    containment, angles, distances = [], [], []
    for i, (a, b, frame) in enumerate(c.pairs()):
        pitch = pitch_coefficient(frame.lam, c.convention)
        containment.append(seq_ruling_residual(frame.rotation, frame.translation, pitch, a))
        containment.append(seq_ruling_residual(frame.rotation, frame.translation, pitch, b))
        r_i = params.reduced_angle(phis[i])
        angles.append(abs(seq_angle_between(a.direction, b.direction) - (math.pi - r_i)))
        h_i = ray_distance_h(phis[i], c.convention)
        distances.append(abs(seq_line_distance(a, b) - h_i))
    points = [line.point for line in c.lines()] + [f.translation for _, _, f in c.pairs()]
    scale = max(abs(x) for v in points for x in v.tolist())
    return ConstellationReport(tuple(containment), tuple(angles), tuple(distances), scale)


def seq_ok(report) -> bool:
    tol = 1e-9 * max(1.0, report.scale)
    return (max(report.angle) < 1e-9 and max(report.containment) < tol
            and max(report.distance) < tol)


def seq_solve_constellations(phi1, phi2, phi3, convention=PitchConvention.HALF_GAP,
                             eps_face: float = 1e-12):
    outcome = trinoids_classify_triple(phi1, phi2, phi3, eps_face=eps_face)
    if outcome.tag is TripleTag.PARALLEL_BOUNDARY:
        warnings.warn(
            "reduced triple lies on the tetrahedron boundary (parallel "
            "constellations); no generic solution exists",
            ParallelBoundaryWarning,
        )
        return []
    if outcome.tag is not TripleTag.GENERIC_ADMISSIBLE:
        return []

    phis = (phi1, phi2, phi3)
    r = outcome.reduced
    s = tuple(math.pi - ri for ri in r)
    lams = tuple(lambda_of_phi(p) for p in phis)
    u12 = np.array([1.0, 0.0, 0.0])
    u31 = np.array([math.cos(s[0]), math.sin(s[0]), 0.0])
    ax = math.cos(s[1])
    ay = (math.cos(s[2]) - math.cos(s[0]) * math.cos(s[1])) / math.sin(s[0])
    az2 = 1.0 - ax * ax - ay * ay
    if az2 <= 0.0:
        raise ValueError(
            f"direction solve degenerate (az^2 = {az2}); triple too close to the boundary"
        )
    az = math.sqrt(az2)

    solutions = []
    for sign in (1.0, -1.0):
        u23 = np.array([ax, ay, sign * az])
        sol = seq_assemble(phis, lams, u12, u23, u31, convention)
        report = seq_verify_constellation(sol, phis)
        for i, res in enumerate(report.angle):
            if not res < 1e-9:
                raise ValueError(
                    f"direction solve cannot resolve reduced angle r{i + 1} = {r[i]:.3e} "
                    f"in double precision (angle residual {res:.3e}); triple too close "
                    "to the boundary"
                )
        if not seq_ok(report):
            raise ConstellationSolveError(
                f"solution failed self-check: max residual {report.max_residual:.3e}"
            )
        solutions.append(replace(sol, self_check=report))
    return solutions


def _wrap_to_pi(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def seq_fit_helicoid(rays, lam: float):
    """asymptotics.fit_helicoid through the scalar line kernels: (frame,
    residual, passed, message)."""
    u1 = rays.ray_pos.direction
    u2 = rays.ray_neg.direction
    pitch = 2.0 * lam
    normal = seq_cross(u1, u2)
    if np.linalg.norm(normal) < 1e-8:
        min_gap = abs(pitch) * math.pi
        gap = rays.vertical_gap
        ok = gap >= min_gap * (1.0 - 1e-6) - 1e-9
        return (None, max(0.0, min_gap - gap), ok,
                "parallel rays: distance lower-bound check only "
                f"(gap {gap:.6g} vs minimal ruling gap {min_gap:.6g})")
    q1, q2 = seq_common_perpendicular_feet(rays.ray_pos, rays.ray_neg)
    n_hat = seq_unit(normal)
    d = float((q2 - q1) @ n_hat)
    angle = seq_angle_between(u1, u2)
    delta_y = -d / pitch
    mismatch = min(abs(_wrap_to_pi(delta_y - angle)), abs(_wrap_to_pi(delta_y + angle)))
    sigma = math.copysign(1.0, lam)
    frame, residual = None, math.inf
    for e_axis in (n_hat, -n_hat):
        col1 = sigma * u1
        R = np.column_stack([seq_cross(col1, e_axis), col1, e_axis])
        cand = SeqFrame(lam, R, q1)
        res = max(seq_ruling_residual(R, q1, pitch, rays.ray_pos),
                  seq_ruling_residual(R, q1, pitch, rays.ray_neg))
        if res < residual:
            frame, residual = cand, res
    ok = residual < FIT_RESIDUAL_TOL
    msg = "" if ok else (
        f"no consistent placement: residual {residual:.3e}, "
        f"twist/angle mismatch {mismatch:.3e} (pitch may not match the rays)"
    )
    return frame, residual, ok, msg


# ---------------------------------------------------------------------------
# Original command-line entry point: a fresh argparse tree and a full
# jsonschema.validate, which checks the schema against its metaschema, on
# every call.  trinoids.cli.main builds both once per process and must give
# the same exit code, output and files.

def validate_against_schema(doc, schema_name: str) -> None:
    jsonschema.validate(emit.to_plain(doc), emit.load_schema(schema_name))


def cli_main(argv) -> int:
    """The original cli.main; every emitted document is validated by
    validate_against_schema above for the length of the call."""
    saved = emit.validate_against_schema
    emit.validate_against_schema = validate_against_schema
    try:
        args = cli.build_parser().parse_args(argv)
        try:
            cfg = cli.load_config(args.config)
        except (OSError, ValueError, RecursionError) as exc:
            print(f"error: bad config: {cli._one_line(exc)}", file=sys.stderr)
            return cli.EXIT_INPUT
        for f in fields(cli.Config):
            if getattr(args, f.name, None) is None:
                setattr(args, f.name, getattr(cfg, f.name))
        command = getattr(cli, "cmd_" + args.command.replace("-", "_"))
        try:
            return command(args)
        except (ValueError, OSError) as exc:
            print(f"error: {cli._one_line(exc)}", file=sys.stderr)
            return cli.EXIT_INPUT
        except (ConstellationSolveError, QuadratureError) as exc:
            print(f"internal error: {cli._one_line(exc)}", file=sys.stderr)
            return cli.EXIT_INTERNAL
        except Exception as exc:
            print(f"internal error: {type(exc).__name__}: {cli._one_line(exc)}",
                  file=sys.stderr)
            return cli.EXIT_INTERNAL
    finally:
        emit.validate_against_schema = saved
