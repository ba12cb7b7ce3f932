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

Powers z^alpha use the branch of branch_log, whose cut runs along the
negative imaginary axis (arg in [-pi/2, 3*pi/2)), so D is cut-free.  Every
path integral is F(target) - F(z0) with F a closed-form antiderivative on
that branch: z^p integrates to z^{p+1}/(p+1), z^{-1} to the branch
logarithm, and the exponential data to hyperbolic functions.  So an
integral depends only on its endpoints, and those must lie in the domain.

F, g and the normals are evaluated over arrays of points with numpy's
complex ufuncs and products.  The engine's contract is accuracy, not bits:
integrate checks tol against a rounding budget, a first-order bound on the
error of each coordinate (see integrate), and the tests hold the result to
that budget against a 160-bit evaluation of the same antiderivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .params import _check_lambda
from .surfaces import gauss_normal_from_g

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)
# below this |p + 1| a monomial integrates as expm1((p+1) log z)/(p+1), which
# tends to log z instead of growing like 1/(p+1) as p + 1 -> 0
_EXPM1_BELOW = 0.5
_EPS = sys.float_info.epsilon


def __getattr__(name: str):
    """scipy's quad as the attribute ``quad``, imported on first access.

    No program path integrates numerically; the benchmark's tracer wraps
    ``weierstrass.quad`` and finds it in the module's globals, so the import
    binds it there.  Without scipy the attribute is missing, and the tracer
    skips it.  The benchmark PR that drops this target and its pin
    (ROADMAP item 1) deletes this hook.
    """
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        from scipy.integrate import quad
    except ImportError as exc:
        raise AttributeError(f"module {__name__!r} has no attribute 'quad' "
                             "(scipy is not installed)") from exc
    globals()["quad"] = quad
    return quad


class QuadratureError(RuntimeError):
    """A path integral cannot meet the requested tolerance: the rounding
    budget of its closed form (integrate's first-order bound on its error),
    ``achieved``, exceeds it, or the closed form overflows and ``achieved``
    is inf."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


def branch_log(z) -> Tuple[np.ndarray, np.ndarray]:
    """(log|z|, arg z) for each z != 0, with arg in [-pi/2, 3*pi/2): the
    cut runs along the negative imaginary axis."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ZeroDivisionError("log 0")
    theta = np.arctan2(z.imag, z.real)
    theta = np.where(theta < -math.pi / 2, theta + 2.0 * math.pi, theta)
    return np.log(np.hypot(z.real, z.imag)), theta


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
    Construction enforces 0 < alpha < inf, alpha != 1, a finite lam and the
    compatibility g0 * w0 = (1 - alpha^2)/(4 alpha) to 1e-12 relative accuracy.
    """

    alpha: float
    g0: complex
    w0: complex
    g1: Tuple[complex, ...] = ()
    w1: Tuple[complex, ...] = ()
    omega_factor: complex = 1 + 0j

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf) or self.alpha == 1.0:
            raise ValueError(f"alpha must be positive, finite and != 1, got {self.alpha}")
        object.__setattr__(self, "g0", complex(self.g0))
        object.__setattr__(self, "w0", complex(self.w0))
        object.__setattr__(self, "g1", tuple(complex(c) for c in self.g1))
        object.__setattr__(self, "w1", tuple(complex(c) for c in self.w1))
        object.__setattr__(self, "omega_factor", _check_omega_factor(self.omega_factor))
        try:
            square = self.alpha**2
        except OverflowError:
            raise ValueError(f"alpha = {self.alpha} is too large: alpha^2 overflows") from None
        if 4.0 * square == 0.0 or not math.isfinite(self.lam):
            raise ValueError(f"alpha = {self.alpha} is too small: lambda overflows")
        target = (1.0 - square) / (4.0 * self.alpha)
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


def _monomial_components(data: PowerEndData) -> List[List[Tuple[complex, float]]]:
    """Monomial lists [(coef, power), ...] for the three integrand components."""
    P = np.array([data.g0, *data.g1], dtype=complex)
    Q = np.array([data.w0, *data.w1], dtype=complex)
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
    and p = -1 to coef log z.  Monomials with equal q are merged.
    ValueError if a coefficient overflows."""
    log_coefs = [0j, 0j, 0j]
    by_q: Dict[float, Dict[int, complex]] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i, monomials in enumerate(_monomial_components(data)):
            for coef, power in monomials:
                if abs(power + 1.0) <= 1e-12:
                    log_coefs[i] += coef
                elif coef != 0:
                    terms = by_q.setdefault(power + 1.0, {})
                    terms[i] = terms.get(i, 0j) + coef
        powers = [
            (q, [(i, coef / q) for i, coef in terms.items()]) for q, terms in by_q.items()
        ]
    if not np.all(np.isfinite(log_coefs + [c for _, terms in powers for _, c in terms])):
        raise ValueError("the data coefficients g0, w0, g1, w1 are too large: "
                         "the coefficients of the integrands overflow")
    return log_coefs, powers


def _antiderivative(data: WeierstrassData, z: np.ndarray):
    """(Re F, budgets, overflows) at the points z, a 1-D complex array: F
    (3, n) are the antiderivatives of the three components, budgets (3, n)
    per component the rounding budget of its terms (see integrate), and
    overflows (n,) the points where F overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(data, ExponentialData):
            c = 2.0 * data.omega_factor * data.lam
            values = np.array([-c * np.cosh(z), 1j * c * np.sinh(z), c * z])
            sizes = np.abs(values)
            # an infinite part, or finite parts whose size overflows
            return values.real, 2.0 * _EPS * sizes, ~np.isfinite(sizes).all(axis=0)
        log_coefs, powers = _power_terms(data)
        log_r, theta = branch_log(z)
        log_z = log_r + 1j * theta
        abs_log = np.abs(log_z)
        values = np.multiply.outer(log_coefs, log_z)
        re, budgets = values.real, 2.0 * _EPS * np.abs(values)
        overflows = np.zeros(len(z), dtype=bool)
        for q, terms in powers:
            w = q * log_z
            e = np.exp(w)
            if abs(q) < _EXPM1_BELOW:  # exp(w) - 1 without cancellation near w = 0
                half_sin = np.sin(0.5 * w.imag)
                e = np.expm1(w.real) * np.cos(w.imag) - 2.0 * half_sin * half_sin + 1j * e.imag
            overflows |= ~np.isfinite(e)
            weight = _EPS * (2.0 + abs(q) * abs_log)
            for i, coef in terms:
                t = coef * e
                re[i] += t.real
                budgets[i] += weight * np.abs(t)
    return re, budgets, overflows


def integrate(
    data: WeierstrassData, z0: complex, targets: Sequence[complex], tol: float = 1e-10
) -> np.ndarray:
    """Immersion displacements Re(F(z) - F(z0)), one row per target z.

    F is the closed-form antiderivative of the three integrands on the
    branch of branch_log, evaluated at z0 and all targets at once.  Each
    coordinate carries a rounding budget, a first-order bound on its error
    in the standard model: every operation and elementary function rounds
    to a relative eps/2.  A power term t = b exp(w), w = q log z, costs
    eps |t| (2 + |q| |log z|).  log z and the product q log z each perturb
    w by eps/2 |w|, which exp turns into a relative error of t; exp, the
    product with b, the sum over the terms and the difference of the
    endpoints add eps/2 each.  A log term c log z costs 2 eps |c| |log z|
    (the log, the product, the sum and the difference), and a term of the
    exponential data, whose exponent z is exact, 2 eps |t|.  A target's
    budget, the largest over the three components of the costs of their
    terms at both endpoints, must not exceed tol.  Otherwise QuadratureError
    carries the largest budget over all targets, the least tol that passes;
    where F overflows, which no tol mends, it names the first such endpoint
    and carries inf instead.  ValueError for a tol outside (0, inf), a
    non-finite endpoint and, for PowerEndData, an endpoint outside the
    closed upper half-disk.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must lie in (0, inf), got {tol}")
    z = np.concatenate(([complex(z0)], np.asarray(targets, dtype=complex).ravel()))
    bad = ~np.isfinite(z)
    if isinstance(data, PowerEndData):
        r = np.hypot(z.real, z.imag)
        bad |= ~((0 < r) & (r <= 1.0 + 1e-12) & (z.imag >= -1e-15))
    if bad.any():
        zk = complex(z[np.argmax(bad)])
        if not np.isfinite(zk):
            raise ValueError(f"endpoint {zk} is not finite")
        raise ValueError(f"PowerEnd endpoint {zk} lies outside the closed upper half-disk")
    re, budgets, overflows = _antiderivative(data, z)
    with np.errstate(over="ignore", invalid="ignore"):
        budget = (budgets[:, :1] + budgets[:, 1:]).max(axis=0)
    if overflows.any():
        raise QuadratureError(f"closed-form integral overflows at z = "
                              f"{complex(z[np.argmax(overflows)])}", math.inf)
    if not np.all(budget <= tol):
        raise QuadratureError(f"rounding budget exceeds tol = {tol:.3e}", float(budget.max()))
    return np.ascontiguousarray((re[:, 1:] - re[:, :1]).T)


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


def g_value(data: WeierstrassData, z) -> np.ndarray:
    """Gauss map g at each z, in the shape of z (branch-aware for
    PowerEndData, where g(0) = 0)."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(data, ExponentialData):
            return np.exp(z)[()]
        poly = np.polyval([*data.g1[::-1], data.g0], z)  # g0 + z g1(z), by Horner
        nonzero = z != 0
        log_r, theta = branch_log(np.where(nonzero, z, 1.0))
        g = np.exp(data.alpha * (log_r + 1j * theta)) * poly
    return np.where(nonzero, g, 0.0)[()]


def gauss_normal(data: WeierstrassData, z) -> np.ndarray:
    """Unit normal at each z, shape z.shape + (3,): inverse stereographic
    projection of g(z).

    g = 0 gives (0, 0, -1); as z -> 0 a PowerEnd normal tends to (0, 0, -1).
    """
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
