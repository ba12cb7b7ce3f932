"""Numerical evaluation of minimal immersions from Weierstrass-type data.

An immersion is recovered from a pair (g, omega) as the real part of three
path integrals:

    Phi(z) = Re Int_{z0}^{z} ( (1 - g^2) omega, i (1 + g^2) omega, 2 g omega )

Two catalog data kinds are supported:

* ExponentialData: g(z) = e^z, omega = c * lambda * e^{-z} dz on the plane,
  with a unit rotation factor c in {1, i, -1, -i}.  c = 1 gives the catenoid,
  c = i its associate helicoid.
* PowerEndData: g(z) = z^alpha (g0 + z g1(z)),
  omega = c * z^{-1-alpha} (w0 + z w1(z)) dz on the closed upper half-disk
  D = {0 < |z| <= 1, Im z >= 0}, with polynomial perturbations g1, w1 and
  the compatibility constraint g0 * w0 = (1 - alpha^2)/(4 alpha).

Powers z^alpha use the principal branch with the cut along the negative
imaginary axis (arg in [-pi/2, 3*pi/2)), so D is cut-free.  Integration is
adaptive quadrature along explicit paths; z^{-1} monomials are split off
and integrated as logarithms, everything else is quadratured.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .params import _check_lambda

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


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


def _check_omega_factor(c: complex) -> complex:
    c = complex(c)
    for k in _I_POWERS:
        if abs(c - k) < 1e-14:
            return k
    raise ValueError(f"omega rotation factor must be a power of i, got {c}")


@dataclass(frozen=True)
class ExponentialData:
    """g = e^z, omega = omega_factor * lam * e^{-z} dz."""

    lam: float
    omega_factor: complex = 1 + 0j

    def __post_init__(self) -> None:
        _check_lambda(self.lam)
        object.__setattr__(self, "omega_factor", _check_omega_factor(self.omega_factor))


@dataclass(frozen=True)
class PowerEndData:
    """g = z^alpha (g0 + z g1(z)), omega = omega_factor z^{-1-alpha} (w0 + z w1(z)) dz.

    g1 and w1 are polynomial coefficient tuples in ascending powers of z.
    Construction enforces alpha > 0, alpha != 1 and the compatibility
    g0 * w0 = (1 - alpha^2)/(4 alpha) to 1e-12 relative accuracy.
    """

    alpha: float
    g0: complex
    w0: complex
    g1: Tuple[complex, ...] = ()
    w1: Tuple[complex, ...] = ()
    omega_factor: complex = 1 + 0j

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0) or self.alpha == 1.0:
            raise ValueError(f"alpha must be positive and != 1, got {self.alpha}")
        object.__setattr__(self, "g0", complex(self.g0))
        object.__setattr__(self, "w0", complex(self.w0))
        object.__setattr__(self, "g1", tuple(complex(c) for c in self.g1))
        object.__setattr__(self, "w1", tuple(complex(c) for c in self.w1))
        object.__setattr__(self, "omega_factor", _check_omega_factor(self.omega_factor))
        target = (1.0 - self.alpha**2) / (4.0 * self.alpha)
        if abs(self.g0 * self.w0 - target) > 1e-12 * max(abs(target), 1e-300):
            raise ValueError(
                f"g0*w0 = {self.g0 * self.w0} violates the compatibility "
                f"constraint (1-alpha^2)/(4 alpha) = {target}"
            )

    @property
    def lam(self) -> float:
        """End parameter with end angle pi*alpha: lam = (1 - alpha^2)/(4 alpha^2)."""
        return (1.0 - self.alpha**2) / (4.0 * self.alpha**2)


WeierstrassData = Union[ExponentialData, PowerEndData]


def is_symmetric(data: WeierstrassData) -> bool:
    """True for the symmetric subclass: all coefficients real, factor 1."""
    if data.omega_factor != 1:
        return False
    if isinstance(data, ExponentialData):
        return True
    return (
        data.g0.imag == 0.0
        and data.w0.imag == 0.0
        and all(c.imag == 0.0 for c in data.g1)
        and all(c.imag == 0.0 for c in data.w1)
    )


def catenoid_data(lam: float) -> ExponentialData:
    return ExponentialData(lam, 1)


def helicoid_data(lam: float) -> ExponentialData:
    return ExponentialData(lam, 1j)


def power_end_data(alpha: float, g0: float = 1.0, g1=(), w1=(), omega_factor=1) -> PowerEndData:
    """PowerEndData with w0 chosen so the compatibility constraint holds."""
    w0 = (1.0 - alpha**2) / (4.0 * alpha) / g0
    return PowerEndData(alpha, g0, w0, tuple(g1), tuple(w1), omega_factor)


def conjugate_data(data: WeierstrassData) -> WeierstrassData:
    """Multiply omega by i (associate/conjugate construction)."""
    if isinstance(data, ExponentialData):
        return ExponentialData(data.lam, data.omega_factor * 1j)
    return PowerEndData(
        data.alpha, data.g0, data.w0, data.g1, data.w1, data.omega_factor * 1j
    )


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


def _in_upper_half_disk(z: complex) -> bool:
    return 0 < abs(z) <= 1.0 + 1e-12 and z.imag >= -1e-15


def _segments(path: IntegrationPath) -> List[tuple]:
    """Decompose a path into ("line", a, b) and ("arc", rho, th0, th1) parts."""
    z0, z1 = complex(path.z0), complex(path.target)
    if path.route is Route.STRAIGHT:
        return [("line", z0, z1)] if z1 != z0 else []
    r0, r1 = abs(z0), abs(z1)
    th0 = branch_arg(z0) if r0 > 0 else 0.0
    th1 = branch_arg(z1)
    segs: List[tuple] = []
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


def _validate_path(data: WeierstrassData, path: IntegrationPath) -> None:
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


def _poly_coeffs(data: PowerEndData) -> Tuple[np.ndarray, np.ndarray]:
    P = np.array([data.g0, *data.g1], dtype=complex)
    Q = np.array([data.w0, *data.w1], dtype=complex)
    return P, Q


def _monomial_components(data: PowerEndData) -> List[List[Tuple[complex, float]]]:
    """Monomial lists [(coef, power), ...] for the three integrand components."""
    P, Q = _poly_coeffs(data)
    P2Q = np.convolve(np.convolve(P, P), Q)
    PQ = np.convolve(P, Q)
    c = data.omega_factor
    a = data.alpha
    comp1 = [(c * q, -1.0 - a + k) for k, q in enumerate(Q)]
    comp1 += [(-c * t, a - 1.0 + k) for k, t in enumerate(P2Q)]
    comp2 = [(1j * c * q, -1.0 - a + k) for k, q in enumerate(Q)]
    comp2 += [(1j * c * t, a - 1.0 + k) for k, t in enumerate(P2Q)]
    comp3 = [(2.0 * c * t, -1.0 + k) for k, t in enumerate(PQ)]
    return [comp1, comp2, comp3]


def _split_log(monomials: Sequence[Tuple[complex, float]]):
    """Separate z^{-1} terms (integrated as log) from the quadrature rest."""
    log_coef = 0.0 + 0.0j
    rest: List[Tuple[complex, float]] = []
    for coef, power in monomials:
        if abs(power + 1.0) <= 1e-12:
            log_coef += coef
        elif coef != 0:
            rest.append((coef, power))
    return log_coef, rest


def _quad_segment(f, seg, epsabs: float) -> Tuple[complex, float]:
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


def _integrand_callables(data: WeierstrassData):
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
            if z == 0:
                return sum(coef * branch_power(z, power) for coef, power in rest)
            # the branch log of branch_power, taken once for every monomial
            log_z = math.log(abs(z)) + 1j * branch_arg(z)
            return sum(coef * cmath.exp(power * log_z) for coef, power in rest)

        out.append((f, log_coef))
    return out


def integrate_many(
    data: WeierstrassData, paths: Sequence[IntegrationPath], tol: float = 1e-10
) -> List[np.ndarray]:
    """Immersion displacements Re of the three path integrals, one per path.

    Each component carries absolute quadrature error at most ~tol; z^{-1}
    monomials of PowerEndData are integrated exactly as branch logarithms.
    Paths are integrated in order, and each path gives the same bits as on
    its own: a segment integral that several paths share (same component,
    segment and per-segment tolerance) is computed once per call and reused.
    Raises QuadratureError (with the achieved estimate) on non-convergence
    and ValueError for paths leaving the domain or crossing the puncture.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must lie in (0, inf), got {tol}")
    comps = _integrand_callables(data)
    has_log = any(lc != 0 for _, lc in comps)
    memo: Dict[Tuple[int, str, float], complex] = {}
    results = []
    for path in paths:
        _validate_path(data, path)
        segs = _segments(path)
        dlog = branch_log(complex(path.target)) - branch_log(complex(path.z0)) if has_log else 0j
        out = np.zeros(3)
        eps_seg = tol / max(len(segs), 1)
        # repr is exact for floats and keeps the sign of zero apart
        seg_keys = [repr(seg) for seg in segs]
        for i, (f, log_coef) in enumerate(comps):
            total = log_coef * dlog
            for seg, seg_key in zip(segs, seg_keys):
                key = (i, seg_key, eps_seg)
                if key not in memo:
                    memo[key] = _quad_segment(f, seg, eps_seg)[0]
                total += memo[key]
            out[i] = total.real
        results.append(out)
    return results


def integrate(data: WeierstrassData, path: IntegrationPath, tol: float = 1e-10) -> np.ndarray:
    """Immersion displacement along one path; see integrate_many."""
    return integrate_many(data, [path], tol)[0]


def principal_log_coefficient(data: PowerEndData) -> complex:
    """Coefficient of log z in the third integral component: 2 c g0 w0."""
    return 2.0 * data.omega_factor * data.g0 * data.w0


def correction_coefficients(data: PowerEndData) -> np.ndarray:
    """Coefficients of R(xi) = c (g0 w1(xi) + w0 g1(xi) + xi g1(xi) w1(xi)).

    R is the residual integrand left in the third component after removing
    the z^{-1} principal term: 2 g omega = 2 c (g0 w0 / z + R(z)) dz.
    """
    g1 = np.array(data.g1, dtype=complex)
    w1 = np.array(data.w1, dtype=complex)
    n = max(len(g1) + len(w1), len(g1), len(w1), 1)
    rho = np.zeros(n, dtype=complex)
    rho[: len(w1)] += data.g0 * w1
    rho[: len(g1)] += data.w0 * g1
    if len(g1) and len(w1):
        conv = np.convolve(g1, w1)
        rho[1 : 1 + len(conv)] += conv
    return data.omega_factor * rho


def correction_bound(data: PowerEndData) -> float:
    """Coarse sup bound for |C| on the closed upper half-disk.

    C(z) is the antiderivative of R vanishing at 1, so on |z| <= 1 the
    triangle inequality gives |C(z)| <= 2 * sum_k |rho_k| / (k+1).
    """
    rho = correction_coefficients(data)
    return float(2.0 * sum(abs(c) / (k + 1.0) for k, c in enumerate(rho)))


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


def g_value(data: WeierstrassData, z: complex) -> complex:
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


def gauss_normal(data: WeierstrassData, z: complex) -> np.ndarray:
    """Unit normal at z: inverse stereographic projection of g(z).

    g = 0 gives (0, 0, -1); as z -> 0 a PowerEnd normal tends to (0, 0, -1).
    """
    from .surfaces import gauss_normal_from_g

    return gauss_normal_from_g(g_value(data, z))


def data_to_json(data: WeierstrassData) -> dict:
    """JSON-serializable dict; inverse of data_from_json."""
    k = _I_POWERS.index(data.omega_factor)
    if isinstance(data, ExponentialData):
        return {"kind": "exponential", "lambda": data.lam, "omega_power": k}
    return {
        "kind": "power_end",
        "alpha": data.alpha,
        "omega_power": k,
        "g0_re": data.g0.real,
        "g0_im": data.g0.imag,
        "w0_re": data.w0.real,
        "w0_im": data.w0.imag,
        "g1_re": [c.real for c in data.g1],
        "g1_im": [c.imag for c in data.g1],
        "w1_re": [c.real for c in data.w1],
        "w1_im": [c.imag for c in data.w1],
    }


def data_from_json(doc: dict) -> WeierstrassData:
    """Parse a data document produced by data_to_json."""
    kind = doc.get("kind")
    factor = _I_POWERS[int(doc.get("omega_power", 0)) % 4]
    if kind == "exponential":
        return ExponentialData(float(doc["lambda"]), factor)
    if kind == "power_end":
        g1_re, g1_im = doc.get("g1_re", []), doc.get("g1_im", [])
        w1_re, w1_im = doc.get("w1_re", []), doc.get("w1_im", [])
        if len(g1_re) != len(g1_im) or len(w1_re) != len(w1_im):
            raise ValueError("re/im coefficient arrays must have equal length")
        return PowerEndData(
            float(doc["alpha"]),
            complex(doc["g0_re"], doc.get("g0_im", 0.0)),
            complex(doc["w0_re"], doc.get("w0_im", 0.0)),
            tuple(complex(a, b) for a, b in zip(g1_re, g1_im)),
            tuple(complex(a, b) for a, b in zip(w1_re, w1_im)),
            factor,
        )
    raise ValueError(f"unknown data kind {kind!r}")
