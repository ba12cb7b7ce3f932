"""Parameter conventions for catenoid-cousin ends and conversions between them.

A catenoid-cousin end is pinned down by one real number lambda in
I = (-1/4, inf) \\ {0}.  Derived quantities are a = sqrt(1 + 4*lambda) and
the end angle phi = pi/a, which ranges over J = (0, inf) \\ {pi}.  Two other
parametrizations circulate in the literature (Bryant's mu and Bobenko's
lambda); this module converts between all four, and houses the reduced
angle r(phi) and the ray-distance function h(phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi


class PitchConvention(Enum):
    """Two circulating conventions for the ray distance h(phi).

    HALF_GAP:   h(phi) = |lambda| * phi
    RULING_GAP: h(phi) = 2 * |lambda| * phi

    RULING_GAP equals the vertical gap between two rulings of the standard
    helicoid (vertical drop 2*lambda per radian of screw rotation) that are
    separated by rotation angle phi; HALF_GAP is half of that.  Both are
    supported everywhere a distance or pitch enters; HALF_GAP is the default.
    """

    HALF_GAP = "half-gap"
    RULING_GAP = "ruling-gap"


def _domain_check(name: str, lo: float, hole: float, domain: str):
    """The range check of one parameter: it must lie in (lo, inf) minus {hole}."""
    def check(value: float) -> None:
        if not (lo < value < math.inf) or value == hole:
            raise ValueError(f"{name} must lie in {domain}, got {value}")
    return check


_check_lambda = _domain_check("lambda", -0.25, 0.0, "(-1/4, inf) \\ {0}")
_check_phi = _domain_check("phi", 0.0, math.pi, "(0, inf) \\ {pi}")
_check_mu = _domain_check("mu", -0.5, 0.0, "(-1/2, inf) \\ {0}")
_check_bps = _domain_check("lambda_bps", 0.0, 0.5, "(0, inf) \\ {1/2}")


@dataclass(frozen=True)
class CatenoidParameter:
    """End parameter lambda in I = (-1/4, inf) \\ {0}."""

    lam: float

    def __post_init__(self) -> None:
        _check_lambda(self.lam)

    @property
    def a(self) -> float:
        return math.sqrt(1.0 + 4.0 * self.lam)

    @property
    def phi(self) -> float:
        return math.pi / self.a


@dataclass(frozen=True)
class Angle:
    """End angle phi in J = (0, inf) \\ {pi}."""

    phi: float

    def __post_init__(self) -> None:
        _check_phi(self.phi)

    @property
    def reduced(self) -> float:
        return reduced_angle(self.phi)


@dataclass(frozen=True)
class BryantParameter:
    """Bryant's catenoid-cousin parameter mu, with mu > -1/2 and mu != 0."""

    mu: float

    def __post_init__(self) -> None:
        _check_mu(self.mu)


@dataclass(frozen=True)
class BpsParameter:
    """Bobenko's catenoid-cousin parameter, positive and != 1/2."""

    lambda_bps: float

    def __post_init__(self) -> None:
        _check_bps(self.lambda_bps)


def _unwrap(value, wrapper) -> float:
    if isinstance(value, wrapper):
        field = list(wrapper.__dataclass_fields__)[0]
        return getattr(value, field)
    return float(value)


def phi_of_lambda(lam) -> float:
    """End angle phi = pi / sqrt(1 + 4*lambda); strictly decreasing on I."""
    lam = _unwrap(lam, CatenoidParameter)
    _check_lambda(lam)
    return math.pi / math.sqrt(1.0 + 4.0 * lam)


def lambda_of_phi(phi) -> float:
    """Inverse of phi_of_lambda: lambda = (pi^2/phi^2 - 1)/4.

    Evaluated as (pi - phi)(pi + phi)/(4 phi^2).  Near phi = pi the result
    carries the absolute round-off of pi, so |lambda| below ~1e-12 cannot be
    recovered to full relative precision; callers sampling near the puncture
    are responsible for staying away from it.  Above phi of about 4e8 the
    result rounds to -1/4, and above about 1e154 it is NaN; both raise.
    """
    phi = _unwrap(phi, Angle)
    _check_phi(phi)
    denom = 4.0 * phi * phi
    if denom == 0.0:
        raise ValueError(f"phi = {phi} is too small: lambda(phi) overflows")
    lam = (math.pi - phi) * (math.pi + phi) / denom
    if not lam > -0.25:
        raise ValueError(f"phi = {phi} is too large: lambda(phi) rounds to -1/4")
    return lam


def reduced_angle(phi: float) -> float:
    """r(phi) = min over integers n of |phi + 2*n*pi|, in [0, pi].

    Total on the reals; 2*pi-periodic and even.
    """
    m = float(phi) % TWO_PI
    return min(m, TWO_PI - m)


def ray_distance_h(phi, convention: PitchConvention = PitchConvention.HALF_GAP) -> float:
    """Distance h(phi) between the two boundary rays of a conjugated end.

    HALF_GAP gives |lambda(phi)|*phi = |pi^2/(4 phi) - phi/4|; RULING_GAP
    doubles it.  See PitchConvention for what the factor means.
    """
    phi = _unwrap(phi, Angle)
    _check_phi(phi)
    h = abs(lambda_of_phi(phi)) * phi
    if convention is PitchConvention.RULING_GAP:
        h *= 2.0
    return h


def pitch_coefficient(lam, convention: PitchConvention = PitchConvention.HALF_GAP) -> float:
    """Signed vertical drop per radian of screw rotation, z(y) = -pitch*y.

    RULING_GAP returns 2*lambda, the drop of the standard helicoid; HALF_GAP
    returns lambda.  ray_distance_h(phi, conv) == |pitch_coefficient| * phi.
    """
    lam = _unwrap(lam, CatenoidParameter)
    _check_lambda(lam)
    return 2.0 * lam if convention is PitchConvention.RULING_GAP else lam


def bryant_mu_to_lambda(mu) -> float:
    """lambda for Bryant's parameter mu: inverse end angle of pi*(2*mu + 1)."""
    mu = _unwrap(mu, BryantParameter)
    _check_mu(mu)
    return lambda_of_phi(math.pi * (2.0 * mu + 1.0))


def lambda_to_bryant_mu(lam) -> float:
    """Bryant's mu for lambda: mu = phi/(2*pi) - 1/2.

    Above lambda of about 8e31, mu rounds to -1/2, outside its domain.
    """
    lam = _unwrap(lam, CatenoidParameter)
    mu = phi_of_lambda(lam) / TWO_PI - 0.5
    if not mu > -0.5:
        raise ValueError(f"lambda = {lam} is too large: Bryant's mu rounds to -1/2")
    return mu


def bps_to_lambda(bps) -> float:
    """lambda for Bobenko's parameter: inverse end angle of 2*pi*lambda_bps."""
    bps = _unwrap(bps, BpsParameter)
    _check_bps(bps)
    return lambda_of_phi(TWO_PI * bps)


def lambda_to_bps(lam) -> float:
    """Bobenko's parameter for lambda: lambda_bps = phi/(2*pi) = mu + 1/2."""
    return phi_of_lambda(lam) / TWO_PI


def total_curvature(lam) -> float:
    """Total curvature -4*pi/sqrt(1 + 4*lambda) of the catenoid with parameter lambda."""
    lam = _unwrap(lam, CatenoidParameter)
    _check_lambda(lam)
    return -4.0 * math.pi / math.sqrt(1.0 + 4.0 * lam)


def bobenko_delta(lambda_bps: float) -> float:
    """|{x}| with the fractional part {x} taken in [-1/2, 1/2).

    Total on the reals and 1-periodic; ties at half-integers map to -1/2
    before the absolute value.  Relates to the reduced angle by
    r(2*pi*x) = 2*pi*bobenko_delta(x).
    """
    x = float(lambda_bps)
    frac = x - math.floor(x + 0.5)
    return abs(frac)
