"""Triples of oriented lines pairwise inscribed as rulings of helicoids.

An admissible constellation is three oriented lines (l12, l23, l31) such
that for each cyclic index i the pair (l_{i(i+1)}, l_{(i+2)i}) consists of
two rulings of one rigidly placed helicoid with parameter lambda_i: a screw
rotation of the helicoid by the end angle phi_i carries the first line of
the pair to the second with reversed orientation.  Consequences used by the
solver and the verifier:

* the oriented directions of a pair subtend the angle pi - r(phi_i);
* both lines cross the helicoid axis at right angles, so the axis is their
  common perpendicular, and the foot offset along unit(u_a x u_b) equals
  sign(sin phi_i) * pitch * phi_i with the signed pitch of the convention
  in force (see params.PitchConvention);
* the distance of the pair is ray_distance_h(phi_i, convention).

For a generically admissible angle triple there are exactly two solutions
modulo proper rigid motions; they share all pairwise angles and signed
offsets and differ in the handedness (triple-product sign) of their
direction triple.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .classify import TripleTag, classify_triple
from .lines import (
    NONFINITE_POINT,
    PARALLEL,
    PARALLEL_TOL,
    ZERO_NORM,
    ZERO_VECTOR,
    OrientedLine,
    cross3,
    dot3,
    dot_rows,
    line_pairs,
    ruling_residual,
    scaled,
    unit3,
)
from .params import (
    PitchConvention,
    lambda_of_phi,
    pitch_coefficient,
    ray_distance_h,
    reduced_angle,
)

# invariant tolerance of lines_congruent and mirror_related; frame_patch samples
CONGRUENCE_TOL = 1e-9
# solver self-check: angles absolute, containment and distances per max(1, scale)
RESIDUAL_TOL = 1e-9
PATCH_S_SAMPLES = 9
PATCH_Y_SAMPLES = 25


class ConstellationSolveError(RuntimeError):
    """Solver produced a configuration that fails its own residual checks."""


class ParallelBoundaryWarning(UserWarning):
    """Reduced triple on the tetrahedron boundary: parallel case, not solved."""


NOT_ROTATION = "rotation must be special orthogonal within 1e-12"


def not_rotation(columns) -> bool:
    """True unless the 3x3 matrix with these columns (lists of floats) is
    special orthogonal within 1e-12."""
    c0, c1, c2 = columns
    gram = max(abs(dot3(c0, c0) - 1.0), abs(dot3(c1, c1) - 1.0), abs(dot3(c2, c2) - 1.0),
               abs(dot3(c0, c1)), abs(dot3(c0, c2)), abs(dot3(c1, c2)))
    return gram > 1e-12 or abs(dot3(cross3(c0, c1), c2) - 1.0) > 1e-12


@dataclass(frozen=True)
class HelicoidFrame:
    """Rigid placement of the helicoid with parameter lam.

    Model coordinates map to the world by X -> rotation @ X + translation.
    The placed surface is {(s sin y, -s cos y, -pitch*y)} with the signed
    pitch of the convention in force.
    """

    lam: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        R = np.asarray(self.rotation, dtype=float)
        T = np.asarray(self.translation, dtype=float)
        if R.shape != (3, 3) or T.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if not_rotation(R.T.tolist()):
            raise ValueError(NOT_ROTATION)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", T)


@dataclass(frozen=True)
class Constellation:
    """Lines l12, l23, l31 with their three inscribing helicoid frames."""

    l12: OrientedLine
    l23: OrientedLine
    l31: OrientedLine
    f1: HelicoidFrame
    f2: HelicoidFrame
    f3: HelicoidFrame
    convention: PitchConvention
    # residuals of the solver's self-check for the triple it was solved for,
    # which passed ConstellationReport.ok; None for one built by other means
    self_check: Optional[ConstellationReport] = field(default=None, compare=False)

    def lines(self) -> Tuple[OrientedLine, OrientedLine, OrientedLine]:
        return (self.l12, self.l23, self.l31)

    def pairs(self):
        """Per-helicoid line pairs in screw order (carried line, image line)."""
        return ((self.l12, self.l31, self.f1), (self.l23, self.l12, self.f2),
                (self.l31, self.l23, self.f3))


@dataclass(frozen=True)
class ConstellationReport:
    """Residuals of the three defining conditions, one entry per pair."""

    containment: Tuple[float, ...]  # 6 values: (frame_i, line) for both lines
    angle: Tuple[float, ...]        # |angle(u_a, u_b) - (pi - r_i)|
    distance: Tuple[float, ...]     # |dist(a, b) - h_i|
    scale: float                    # largest |coordinate| of line points and translations

    @property
    def max_residual(self) -> float:
        return max(max(self.containment), max(self.angle), max(self.distance))

    def ok(self) -> bool:
        """Angles within RESIDUAL_TOL; containment and distances within
        RESIDUAL_TOL * max(1, scale), since their rounding grows with the
        coordinates (near a face feet lie 1e7 out, where one ulp is 1.9e-9)."""
        tol = RESIDUAL_TOL * max(1.0, self.scale)
        return (max(self.angle) < RESIDUAL_TOL and max(self.containment) < tol
                and max(self.distance) < tol)


def _screw_sign(phi: float) -> float:
    """+1 if phi is congruent to +r(phi) mod 2*pi, -1 for -r(phi)."""
    s = math.sin(phi)
    if s == 0.0:
        raise ValueError(f"phi={phi} is a multiple of pi; screw sign undefined")
    return math.copysign(1.0, s)


def solve_constellations(
    phi1: float,
    phi2: float,
    phi3: float,
    convention: PitchConvention = PitchConvention.HALF_GAP,
    eps_face: float = 1e-12,
) -> List[Constellation]:
    """The admissible constellations for an angle triple, up to rigid motion.

    Returns two constellations for a generically admissible triple, an empty
    list otherwise (with a ParallelBoundaryWarning in the boundary case).
    Gauge: l12 runs through the pair-1 perpendicular foot at the origin with
    direction (1, 0, 0) and l31's direction lies in the xy-plane.  The two
    solutions, l23's direction (ax, ay, +az) and (ax, ay, -az), are built
    one after the other by _build, in plain floating-point arithmetic.

    Accuracy contract: every returned coordinate lies within a documented
    first-order rounding bound of the same construction carried out at 50
    digits (mp_constellation in tests/oracles.py).  The bound grows with
    1/az, 1/sin r1, 1/|denom| of the position solve, 1/sin r_i of a nearly
    antiparallel pair and the size s of the feet.

    Each solution is checked against its own residuals
    (ConstellationReport.ok), both in one batched _self_check call, and
    carries that report as ``self_check``; none is returned silently
    unchecked.  The directions come from cosines of the reduced angles
    alone, so a triple too close to the boundary for double precision
    raises ValueError: the direction solve degenerates, or its angles miss
    pi - r_i by RESIDUAL_TOL or more.  Any other failed check raises
    ConstellationSolveError.  Solution + is built and checked before
    solution -: the first refusal in that order is the one raised.
    """
    outcome = classify_triple(phi1, phi2, phi3, eps_face=eps_face)
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

    # Direction triple: spherical triangle with side s1 between u12 and u31,
    # s2 between u23 and u12, s3 between u31 and u23.
    u31 = [math.cos(s[0]), math.sin(s[0]), 0.0]
    ax = math.cos(s[1])
    ay = (math.cos(s[2]) - u31[0] * ax) / u31[1]
    az2 = 1.0 - ax * ax - ay * ay
    if az2 <= 0.0:
        raise ValueError(
            f"direction solve degenerate (az^2 = {az2}); triple too close to the boundary"
        )
    az = math.sqrt(az2)

    built, refused = [], None
    for sign in (1.0, -1.0):
        try:
            built.append(_build(phis, u31, [ax, ay, sign * az], convention))
        except (ValueError, ConstellationSolveError) as exc:
            if not built:
                raise
            # raised only after solution + passed its check
            refused = exc
    solutions = []
    for c, report in zip(built, _self_check(built, phis)):
        for i, res in enumerate(report.angle):
            if not res < RESIDUAL_TOL:
                raise ValueError(
                    f"direction solve cannot resolve reduced angle r{i + 1} = {r[i]:.3e} "
                    f"in double precision (angle residual {res:.3e}); triple too close "
                    "to the boundary"
                )
        if not report.ok():
            raise ConstellationSolveError(
                f"solution failed self-check: max residual {report.max_residual:.3e}"
            )
        solutions.append(replace(c, self_check=report))
    if refused is not None:
        raise refused
    return solutions


def _build(phis, u31, u23, convention) -> Constellation:
    """The solution of solve_constellations with l23 along u23.

    Positions: l12 runs through the origin, the pair-1 offset places l31
    and pairs 2 and 3 pin l23 through a 2x2 solve in the plane
    perpendicular to u23.  The gauge gives every line point perpendicular
    to its direction, and unit directions, to rounding, so each line is
    stored as built.  Raises the first refusal met in building it.
    """
    lams = [lambda_of_phi(p) for p in phis]
    c = [_screw_sign(p) * pitch_coefficient(lam, convention) * p for p, lam in zip(phis, lams)]
    u12 = [1.0, 0.0, 0.0]
    n1, n2, n3 = unit3(cross3(u12, u31)), unit3(cross3(u23, u12)), unit3(cross3(u31, u23))
    e2 = unit3(cross3(u23, n2))
    denom = dot3(e2, n3)
    if abs(denom) < 1e-12:
        raise ConstellationSolveError("coplanar direction triple; position solve singular")
    p31 = [c[0] * v for v in n1]
    x = -c[1]
    y = (c[2] + dot3(p31, n3) - x * dot3(n2, n3)) / denom
    p23 = [x * a + y * b for a, b in zip(n2, e2)]
    points = ([0.0, 0.0, 0.0], p23, p31)
    if not all(math.isfinite(v) for p in points for v in p):
        raise ValueError(NONFINITE_POINT)
    l12, l23, l31 = zip(points, (u12, u23, u31))
    frames = [_frame(a, b, lam, phi)
              for (a, b), lam, phi in zip(((l12, l31), (l23, l12), (l31, l23)), lams, phis)]
    return Constellation(*(OrientedLine.canonical(p, u) for p, u in (l12, l23, l31)), *frames,
                         convention)


def _frame(a, b, lam: float, phi: float) -> HelicoidFrame:
    """The helicoid frame of a pair of lines (point, unit direction).

    The common perpendicular of the pair is the helicoid axis, with
    direction e = -chi * unit(u_a x u_b), chi = sign(sin phi); the carried
    line a becomes the ruling at y = 0 and the image line b the reversed
    ruling at y = phi.  The frame sits at the foot of the common
    perpendicular on a, at parameter (d x u_b) . n / |n|^2 along a, with
    n = u_a x u_b and d = p_b - p_a.
    """
    (pa, ua), (pb, ub) = a, b
    n = cross3(ua, ub)
    nn = dot3(n, n)
    if nn < PARALLEL_TOL**2:
        raise ValueError(PARALLEL)
    t = dot3(cross3([y - x for x, y in zip(pa, pb)], ub), n) / nn
    chi, norm = _screw_sign(phi), math.sqrt(nn)
    e = [-chi * v / norm for v in n]
    sigma = math.copysign(1.0, lam)
    col0, col1 = [-sigma * v for v in cross3(ua, e)], [-sigma * v for v in ua]
    return HelicoidFrame(lam, np.array([[col0[m], col1[m], e[m]] for m in range(3)]),
                         np.array([x + t * v for x, v in zip(pa, ua)]))


def _self_check(constellations, phis) -> List[ConstellationReport]:
    """Self-check reports of constellations for one angle triple.

    The pairs of all constellations go through one line_pairs call and one
    ruling_residual call.  Each report has the containment of both lines
    of each pair in its framed helicoid, |angle - (pi - r_i)| and
    |distance - h_i| per pair, and the largest |coordinate| of the line
    points and frame translations.
    """
    pairs = [pair for c in constellations for pair in c.pairs()]
    pa, ua, pb, ub = [[line.tolist() for line in column] for column in zip(*(
        (a.point, a.direction, b.point, b.direction) for a, b, _ in pairs))]
    geometry = line_pairs(pa, ua, pb, ub)
    frames = [f for _, _, f in pairs]
    translations = [f.translation.tolist() for f in frames]
    convention = constellations[0].convention
    pitches = [pitch_coefficient(f.lam, convention) for f in frames]
    containment = ruling_residual(
        np.repeat(np.array([f.rotation for f in frames]), 2, axis=0),
        [t for t in translations for _ in (0, 1)], [x for x in pitches for _ in (0, 1)],
        [p for pair in zip(pa, pb) for p in pair], [u for pair in zip(ua, ub) for u in pair])
    targets = [math.pi - reduced_angle(phi) for phi in phis]
    heights = [ray_distance_h(phi, convention) for phi in phis]
    reports = []
    for k in range(0, len(pairs), 3):
        rows = range(k, k + 3)
        coords = [pa[i] for i in rows] + [translations[i] for i in rows]
        reports.append(ConstellationReport(
            tuple(containment[2 * i + m] for i in rows for m in (0, 1)),
            tuple(abs(geometry.angle[i] - targets[i - k]) for i in rows),
            tuple(abs(geometry.distance[i] - heights[i - k]) for i in rows),
            max(abs(x) for v in coords for x in v)))
    return reports


def verify_constellation(c: Constellation, phis) -> ConstellationReport:
    """Residuals of the three defining conditions for an angle triple.

    Report-only: containment of both lines of each pair as rulings of the
    framed helicoid, the oriented-direction angle against pi - r_i, and the
    line distance against ray_distance_h(phi_i, convention); and the scale
    of the coordinates, which ConstellationReport.ok applies.
    """
    return _self_check([c], tuple(float(p) for p in phis))[0]


def _invariant_set(lines) -> Tuple[np.ndarray, np.ndarray, float]:
    """Pairwise oriented angles, signed perpendicular offsets, triple sign.

    Pairs are taken in screw order ((l12,l31), (l23,l12), (l31,l23)), so the
    invariants are directly comparable between labeled triples.
    """
    l12, l23, l31 = lines
    pa, ua, pb, ub = [[v.tolist() for v in column] for column in zip(*(
        (a.point, a.direction, b.point, b.direction) for a, b in ((l12, l31), (l23, l12), (l31, l23))))]
    pairs = line_pairs(pa, ua, pb, ub)
    # a pair whose u_a x u_b has no direction has no signed offset
    norms = [math.sqrt(x) for x in pairs.nn]
    if any(norm < ZERO_NORM for norm in norms):
        raise ValueError(ZERO_VECTOR)
    gaps = dot_rows([[y - x for x, y in zip(p, q)] for p, q in zip(pa, pb)],
                    [scaled(n, norm) for n, norm in zip(pairs.n, norms)])
    triple = float(np.linalg.det(np.column_stack([l12.direction, l23.direction, l31.direction])))
    return np.array(pairs.angle), np.array(gaps), math.copysign(1.0, triple)


def _invariants_match(a, b, handedness: float) -> bool:
    """Equal angles and offsets, and triple-product signs tri_a == handedness * tri_b."""
    ang_a, gap_a, tri_a = _invariant_set(tuple(a))
    ang_b, gap_b, tri_b = _invariant_set(tuple(b))
    return (
        bool(np.all(np.abs(ang_a - ang_b) < CONGRUENCE_TOL))
        and bool(np.all(np.abs(gap_a - gap_b) < CONGRUENCE_TOL))
        and tri_a == handedness * tri_b
    )


def lines_congruent(a, b) -> bool:
    """True iff a proper rigid motion maps line triple a onto b.

    Labels and orientations are preserved.  Decided through a complete
    invariant set for generic triples: pairwise oriented angles, pairwise
    signed perpendicular offsets, and the sign of the direction triple
    product.
    """
    return _invariants_match(a, b, 1.0)


def mirror_related(a, b) -> bool:
    """True iff the triples share angles and signed offsets with opposite
    handedness (equal invariant set except a flipped triple-product sign).

    This is exactly the relation between the two solutions of
    solve_constellations for one angle triple.
    """
    return _invariants_match(a, b, -1.0)


def frame_patch(frame: HelicoidFrame, phi: float, convention: PitchConvention) -> np.ndarray:
    """Quad-mesh positions of the framed helicoid piece around its two rulings.

    The meshed set is the convention's pitch surface, i.e. the standard
    helicoid with parameter pitch/2, pushed through the frame; the sampled
    screw range covers the rotation from the carried ruling (y = 0) to its
    image (y = phi) with a small margin.
    """
    from .surfaces import helicoid_point

    pitch = pitch_coefficient(frame.lam, convention)
    half_width = max(1.0, 1.5 * abs(pitch) * phi)
    x_max = math.asinh(half_width / abs(pitch))
    xs = np.linspace(-x_max, x_max, PATCH_S_SAMPLES)
    ys = np.linspace(-0.2, phi + 0.2, PATCH_Y_SAMPLES)
    pts = helicoid_point(pitch / 2.0, xs[None, :], ys[:, None])
    return pts @ frame.rotation.T + frame.translation


def constellation_to_json(c: Constellation, phis, report: Optional[ConstellationReport] = None) -> dict:
    """JSON-serializable description of a constellation."""
    if report is None:
        report = verify_constellation(c, phis)
    def line_doc(line: OrientedLine) -> dict:
        return {"point": list(line.point), "direction": list(line.direction)}

    def frame_doc(f: HelicoidFrame) -> dict:
        return {
            "lambda": f.lam,
            "rotation": [list(row) for row in f.rotation],
            "translation": list(f.translation),
        }

    return {
        "convention": c.convention.value,
        "lines": {"l12": line_doc(c.l12), "l23": line_doc(c.l23), "l31": line_doc(c.l31)},
        "frames": {"f1": frame_doc(c.f1), "f2": frame_doc(c.f2), "f3": frame_doc(c.f3)},
        "residuals": {
            "containment": list(report.containment),
            "angle": list(report.angle),
            "distance": list(report.distance),
            "max": report.max_residual,
        },
    }
