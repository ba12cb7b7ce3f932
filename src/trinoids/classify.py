"""Admissibility classification of end-angle triples.

A triple of end angles (phi1, phi2, phi3) is reduced componentwise to
(r1, r2, r3) in [0, pi]^3 and tested against the open tetrahedron with
vertices (pi,0,0), (0,pi,0), (0,0,pi), (pi,pi,pi).  Strict interior points
are the generically admissible triples; boundary points correspond to
parallel line constellations; any angle that is an integer multiple of pi
is degenerate.  The same region can be cut out by four inequalities on the
fractional parts Delta_i = r_i/(2*pi), which is also provided.  Both forms
share one slack formula, one membership rule and one range check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import reduced_angle

PI = math.pi

#: Tetrahedron vertices, one per row.
TETRAHEDRON_VERTICES = np.array(
    [
        [PI, 0.0, 0.0],
        [0.0, PI, 0.0],
        [0.0, 0.0, PI],
        [PI, PI, PI],
    ]
)


class Membership(Enum):
    INTERIOR = 1
    BOUNDARY = 0
    OUTSIDE = -1


class TripleTag(Enum):
    GENERIC_ADMISSIBLE = "GenericAdmissible"
    PARALLEL_BOUNDARY = "ParallelBoundary"
    INADMISSIBLE = "Inadmissible"
    DEGENERATE_MULTIPLE_OF_PI = "DegenerateMultipleOfPi"


_TAG_OF_MEMBERSHIP = {
    Membership.INTERIOR: TripleTag.GENERIC_ADMISSIBLE,
    Membership.BOUNDARY: TripleTag.PARALLEL_BOUNDARY,
    Membership.OUTSIDE: TripleTag.INADMISSIBLE,
}


@dataclass(frozen=True)
class TripleClass:
    """Classification outcome: tag, reduced triple, and the four slacks."""

    tag: TripleTag
    reduced: tuple
    slacks: tuple


def inequality_slacks(x1, x2, x3, half):
    """The four slacks of the admissibility inequalities; interior iff all > 0.

    Order: (x1+x2+x3-half, half-(x1+x2-x3), half-(x1-x2+x3), half-(-x1+x2+x3)).
    ``half = pi`` gives the tetrahedron faces for reduced angles and
    ``half = 1/2`` the Bobenko-Pavlyukevich-Springborn inequalities for
    fractional parts.  The x_i are floats or equal-length numpy columns.
    """
    return (
        x1 + x2 + x3 - half,
        half - (x1 + x2 - x3),
        half - (x1 - x2 + x3),
        half - (-x1 + x2 + x3),
    )


def _membership_code(slacks, eps):
    """OUTSIDE if any slack is < -eps, else BOUNDARY if any is <= eps, else INTERIOR.

    Returns the Membership value, elementwise when the slacks are columns.
    A NaN slack satisfies neither test, so only another slack can move its
    row off INTERIOR.
    """
    s1, s2, s3, s4 = slacks
    outside = (s1 < -eps) | (s2 < -eps) | (s3 < -eps) | (s4 < -eps)
    boundary = outside | (s1 <= eps) | (s2 <= eps) | (s3 <= eps) | (s4 <= eps)
    return Membership.INTERIOR.value - boundary - outside


def _checked_triple(values, hi: float, hi_name: str, what: str) -> tuple:
    """The three entries of ``values`` as floats, each in [0, hi]; NaN is rejected."""
    x = np.asarray(values, dtype=float)
    if x.shape != (3,):
        raise ValueError(f"expected three {what}")
    triple = tuple(x.tolist())
    if not all(0.0 <= v <= hi for v in triple):
        raise ValueError(f"{what} must lie in [0, {hi_name}], got {x}")
    return triple


def tetrahedron_slacks(r1: float, r2: float, r3: float) -> np.ndarray:
    """Four half-space slacks; the reduced triple is interior iff all > 0.

    Order: [r1+r2+r3-pi, pi-(r1+r2-r3), pi-(r1-r2+r3), pi-(-r1+r2+r3)].
    """
    return np.array(inequality_slacks(r1, r2, r3, PI))


def tetrahedron_contains(r_triple, eps_face: float = 0.0) -> Membership:
    """Half-space membership test for a reduced triple in [0, pi]^3.

    ``eps_face`` widens the boundary: |slack| <= eps_face counts as
    BOUNDARY; a slack below -eps_face is OUTSIDE.
    """
    r = _checked_triple(r_triple, PI, "pi", "reduced angles")
    return Membership(_membership_code(inequality_slacks(*r, PI), eps_face))


def barycentric_coordinates(r_triples: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of points w.r.t. TETRAHEDRON_VERTICES.

    Accepts shape (3,) or (N, 3); returns shape (4,) or (N, 4).  Solved
    through the 4x4 vertex system, independently of tetrahedron_slacks.
    """
    pts = np.atleast_2d(np.asarray(r_triples, dtype=float))
    system = np.vstack([TETRAHEDRON_VERTICES.T, np.ones(4)])
    rhs = np.hstack([pts, np.ones((pts.shape[0], 1))])
    bary = np.linalg.solve(system, rhs.T).T
    return bary[0] if np.asarray(r_triples).ndim == 1 else bary


def barycentric_membership(r_triple, eps_face: float = 0.0) -> Membership:
    """Membership via barycentric coordinates (oracle for tetrahedron_contains).

    The coordinates are rescaled by 2*pi so that eps_face has the same
    meaning as in the half-space test.
    """
    r = _checked_triple(r_triple, PI, "pi", "reduced angles")
    return Membership(int(barycentric_membership_batch([r], eps_face)[0]))


def bobenko_admissible(deltas, eps: float = 0.0) -> Membership:
    """Membership by the four fractional-part inequalities.

    Interior iff d1+d2+d3 > 1/2 and each of d1+d2-d3, d1-d2+d3, -d1+d2+d3
    is < 1/2, all strictly.  Agrees with tetrahedron_contains under
    d_i = r_i/(2*pi) when called with eps = eps_face/(2*pi).
    """
    d = _checked_triple(deltas, 0.5, "1/2", "fractional parts")
    return Membership(_membership_code(inequality_slacks(*d, 0.5), eps))


def classify_triple(phi1: float, phi2: float, phi3: float, eps_face: float = 0.0) -> TripleClass:
    """Classify an angle triple with all components in J = (0, inf) \\ {pi}.

    Angles within eps_face of a multiple of pi short-circuit to
    DEGENERATE_MULTIPLE_OF_PI before any tetrahedron test.
    """
    phis = (phi1, phi2, phi3)
    for phi in phis:
        if not (0.0 < phi < math.inf) or phi == PI:
            raise ValueError(f"angles must lie in (0, inf) \\ {{pi}}, got {phi}")
    reduced = tuple(reduced_angle(phi) for phi in phis)
    slacks = inequality_slacks(*reduced, PI)
    if any(r <= eps_face or r >= PI - eps_face for r in reduced):
        return TripleClass(TripleTag.DEGENERATE_MULTIPLE_OF_PI, reduced, slacks)
    membership = Membership(_membership_code(slacks, eps_face))
    return TripleClass(_TAG_OF_MEMBERSHIP[membership], reduced, slacks)


def tetrahedron_membership_batch(r_triples: np.ndarray, eps_face: float = 0.0) -> np.ndarray:
    """Vectorized half-space test; returns int8 array of Membership values."""
    r = np.asarray(r_triples, dtype=float)
    slacks = inequality_slacks(r[:, 0], r[:, 1], r[:, 2], PI)
    return _membership_code(slacks, eps_face).astype(np.int8)


def barycentric_membership_batch(r_triples: np.ndarray, eps_face: float = 0.0) -> np.ndarray:
    """Vectorized barycentric test; returns int8 array of Membership values."""
    bary = barycentric_coordinates(np.asarray(r_triples, dtype=float)) * (2.0 * PI)
    return _membership_code(bary.T, eps_face).astype(np.int8)


def bobenko_membership_batch(delta_triples: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Vectorized fractional-part test; returns int8 array of Membership values."""
    d = np.asarray(delta_triples, dtype=float)
    slacks = inequality_slacks(d[:, 0], d[:, 1], d[:, 2], 0.5)
    return _membership_code(slacks, eps).astype(np.int8)
