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
imaginary axis (arg in [-pi/2, 3*pi/2)), so D is cut-free.  Every path
integral is F(target) - F(z0) with F a closed-form antiderivative on that
branch: z^p integrates to z^{p+1}/(p+1), z^{-1} to the branch logarithm,
and the exponential data to hyperbolic functions.  Paths only decide
which integrals are valid.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import quad  # noqa: F401  unused; bench/ wraps it (ROADMAP item 1)

from .params import _check_lambda

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)
# below this |p + 1| a monomial integrates as expm1((p+1) log z)/(p+1), which
# tends to log z instead of growing like 1/(p+1) as p + 1 -> 0
_EXPM1_BELOW = 0.5
_EPS = sys.float_info.epsilon


class QuadratureError(RuntimeError):
    """A path integral cannot meet the requested tolerance: the rounding
    budget of its closed form, ``achieved``, exceeds it."""

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


def _power_terms(data: PowerEndData):
    """Log coefficients and [(q, [(component, coef / q), ...]), ...] of the
    three components: coef z^p integrates to coef z^q / q with q = p + 1,
    and p = -1 to coef log z.  Monomials with equal q are merged."""
    log_coefs = [0j, 0j, 0j]
    by_q: Dict[float, Dict[int, complex]] = {}
    for i, monomials in enumerate(_monomial_components(data)):
        for coef, power in monomials:
            if abs(power + 1.0) <= 1e-12:
                log_coefs[i] += coef
            elif coef != 0:
                terms = by_q.setdefault(power + 1.0, {})
                terms[i] = terms.get(i, 0j) + coef
    return log_coefs, [
        (q, [(i, coef / q) for i, coef in terms.items()]) for q, terms in by_q.items()
    ]


def _expm1(w: complex) -> complex:
    """exp(w) - 1 without cancellation near w = 0 (cmath has no expm1)."""
    em1 = math.expm1(w.real)
    half_sin = math.sin(0.5 * w.imag)
    return complex(em1 * math.cos(w.imag) - 2.0 * half_sin * half_sin,
                   math.exp(w.real) * math.sin(w.imag))


def _antiderivative(data: WeierstrassData) -> Callable[[complex], Tuple[list, list]]:
    """z -> (F(z), sizes): the antiderivatives of the three components and,
    per component, the sum of the magnitudes of the terms summed into it."""
    if isinstance(data, ExponentialData):
        c = 2.0 * data.omega_factor * data.lam

        def exponential(z: complex) -> Tuple[list, list]:
            values = [-c * cmath.cosh(z), 1j * c * cmath.sinh(z), c * z]
            return values, [abs(v) for v in values]

        return exponential

    log_coefs, powers = _power_terms(data)

    def power_end(z: complex) -> Tuple[list, list]:
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


def integrate_many(
    data: WeierstrassData, paths: Sequence[IntegrationPath], tol: float = 1e-10
) -> List[np.ndarray]:
    """Immersion displacements Re(F(target) - F(z0)), one per path.

    F is the closed-form antiderivative of the three integrands on the
    branch of branch_arg, evaluated once per distinct endpoint in a call.
    Each component's rounding budget, eps times the summed magnitudes of
    its terms at both endpoints, must not exceed tol; otherwise (and when F
    overflows) QuadratureError carries the budget.  ValueError for a tol
    outside (0, inf) and for paths leaving the domain or crossing the
    puncture.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must lie in (0, inf), got {tol}")
    antiderivative = _antiderivative(data)
    # keyed by value: z = x + 0j and x - 0j share F, which is continuous there
    cache: Dict[complex, Tuple[list, list]] = {}

    def at(z: complex) -> Tuple[list, list]:
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
