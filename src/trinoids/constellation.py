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
    OrientedLine,
    angle_between,
    common_perpendicular_feet,
    cross,
    line_distance,
    ruling_residual,
    signed_gap,
    unit,
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
PATCH_S_SAMPLES = 9
PATCH_Y_SAMPLES = 25


class ConstellationSolveError(RuntimeError):
    """Solver produced a configuration that fails its own residual checks."""


class ParallelBoundaryWarning(UserWarning):
    """Reduced triple on the tetrahedron boundary: parallel case, not solved."""


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
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-12 or abs(np.linalg.det(R) - 1.0) > 1e-12:
            raise ValueError("rotation must be special orthogonal within 1e-12")
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
    # residuals of the solver's self-check for the triple it was solved for;
    # None for a constellation built by other means
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

    @property
    def max_residual(self) -> float:
        return max(max(self.containment), max(self.angle), max(self.distance))

    def ok(self, tol: float = 1e-9) -> bool:
        return self.max_residual < tol


def _screw_sign(phi: float) -> float:
    """+1 if phi is congruent to +r(phi) mod 2*pi, -1 for -r(phi)."""
    s = math.sin(phi)
    if s == 0.0:
        raise ValueError(f"phi={phi} is a multiple of pi; screw sign undefined")
    return math.copysign(1.0, s)


def _pair_frame(a: OrientedLine, b: OrientedLine, lam: float, phi: float,
                qa: np.ndarray) -> HelicoidFrame:
    """Closed-form frame making a and b rulings with screw rotation phi.

    qa is the foot on a of the common perpendicular of a and b, where the
    frame is placed.  The axis direction is e = -chi * unit(u_a x u_b) with
    chi = sign(sin phi); line a becomes the ruling at y = 0 and line b the
    reversed ruling at y = phi.
    """
    n_hat = unit(cross(a.direction, b.direction))
    e = -_screw_sign(phi) * n_hat
    sigma = math.copysign(1.0, lam)
    col0 = -sigma * cross(a.direction, e)
    col1 = -sigma * a.direction
    R = np.column_stack([col0, col1, e])
    return HelicoidFrame(lam, R, qa)


def solve_constellations(
    phi1: float,
    phi2: float,
    phi3: float,
    convention: PitchConvention = PitchConvention.HALF_GAP,
    eps_face: float = 1e-12,
    residual_tol: float = 1e-9,
) -> List[Constellation]:
    """The admissible constellations for an angle triple, up to rigid motion.

    Returns two constellations for a generically admissible triple, an empty
    list otherwise (with a ParallelBoundaryWarning in the boundary case).
    Gauge: l12 runs through the pair-1 perpendicular foot at the origin with
    direction (1, 0, 0) and l31's direction lies in the xy-plane.

    Raises ConstellationSolveError if a solution fails its own residual
    checks at residual_tol (never returned silently); each returned solution
    carries the report of those checks as ``self_check``.
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
    lams = tuple(lambda_of_phi(p) for p in phis)

    # Direction triple: spherical triangle with side s1 between u12 and u31,
    # s2 between u23 and u12, s3 between u31 and u23.
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
        if not report.ok(residual_tol):
            # a nearly antiparallel pair whose perpendicular foot lies far
            # out (see _foot_by_cross); rare, except within 1e-9 of a face
            replaced = _frames_at_cross_feet(sol, phis)
            replaced_report = verify_constellation(replaced, phis)
            if not replaced_report.ok(residual_tol):
                raise ConstellationSolveError(
                    f"solution failed self-check: max residual {report.max_residual:.3e}"
                )
            sol, report = replaced, replaced_report
        solutions.append(replace(sol, self_check=report))
    return solutions


def _assemble(phis, lams, u12, u23, u31, convention) -> Constellation:
    chi = tuple(_screw_sign(p) for p in phis)
    pitch = tuple(pitch_coefficient(lam, convention) for lam in lams)
    c = tuple(chi[i] * pitch[i] * phis[i] for i in range(3))

    n1 = unit(cross(u12, u31))
    n2 = unit(cross(u23, u12))
    n3 = unit(cross(u31, u23))

    # Positions: p12 = 0 (gauge), pair-1 offset places l31, pairs 2 and 3 pin
    # l23 through a 2x2 solve in the plane perpendicular to u23.
    p12 = np.zeros(3)
    p31 = c[0] * n1
    e2 = unit(cross(u23, n2))
    denom = float(e2 @ n3)
    if abs(denom) < 1e-12:
        raise ConstellationSolveError("coplanar direction triple; position solve singular")
    x = -c[1]
    y = (c[2] + float(p31 @ n3) - x * float(n2 @ n3)) / denom
    p23 = x * n2 + y * e2

    l12 = OrientedLine(p12, u12)
    l23 = OrientedLine(p23, u23)
    l31 = OrientedLine(p31, u31)
    f1 = _pair_frame(l12, l31, lams[0], phis[0], common_perpendicular_feet(l12, l31)[0])
    f2 = _pair_frame(l23, l12, lams[1], phis[1], common_perpendicular_feet(l23, l12)[0])
    f3 = _pair_frame(l31, l23, lams[2], phis[2], common_perpendicular_feet(l31, l23)[0])
    return Constellation(l12, l23, l31, f1, f2, f3, convention)


def _foot_by_cross(a: OrientedLine, b: OrientedLine) -> np.ndarray:
    """Foot on a of the common perpendicular of two non-parallel lines.

    common_perpendicular_feet divides by 1 - (u_a . u_b)^2, which loses
    its leading digits when the lines are nearly parallel or antiparallel;
    this divides by |u_a x u_b|^2, which keeps them.  The solver uses it only
    to re-place the frames of a solution that failed its self-check, so that
    every solution the first placement gives keeps its bits.
    """
    n = cross(a.direction, b.direction)
    d = b.point - a.point
    return a.point + (float(cross(d, b.direction) @ n) / float(n @ n)) * a.direction


def _frames_at_cross_feet(c: Constellation, phis) -> Constellation:
    """The same lines, every frame placed at the foot from _foot_by_cross."""
    frames = [_pair_frame(a, b, f.lam, phis[i], _foot_by_cross(a, b))
              for i, (a, b, f) in enumerate(c.pairs())]
    return Constellation(c.l12, c.l23, c.l31, *frames, c.convention)


def verify_constellation(c: Constellation, phis) -> ConstellationReport:
    """Residuals of the three defining conditions for an angle triple.

    Report-only: containment of both lines of each pair as rulings of the
    framed helicoid, the oriented-direction angle against pi - r_i, and the
    line distance against ray_distance_h(phi_i, convention).
    """
    phis = tuple(float(p) for p in phis)
    containment: List[float] = []
    angles: List[float] = []
    distances: List[float] = []
    for i, (a, b, frame) in enumerate(c.pairs()):
        pitch = pitch_coefficient(frame.lam, c.convention)
        containment.append(ruling_residual(frame.rotation, frame.translation, pitch, a))
        containment.append(ruling_residual(frame.rotation, frame.translation, pitch, b))
        r_i = reduced_angle(phis[i])
        angles.append(abs(angle_between(a.direction, b.direction) - (math.pi - r_i)))
        h_i = ray_distance_h(phis[i], c.convention)
        distances.append(abs(line_distance(a, b) - h_i))
    return ConstellationReport(tuple(containment), tuple(angles), tuple(distances))


def _invariant_set(lines) -> Tuple[np.ndarray, np.ndarray, float]:
    """Pairwise oriented angles, signed perpendicular offsets, triple sign.

    Pairs are taken in screw order ((l12,l31), (l23,l12), (l31,l23)), so the
    invariants are directly comparable between labeled triples.
    """
    l12, l23, l31 = lines
    pairs = ((l12, l31), (l23, l12), (l31, l23))
    angles = np.array([angle_between(a.direction, b.direction) for a, b in pairs])
    gaps = np.array([signed_gap(a, b) for a, b in pairs])
    triple = float(np.linalg.det(np.column_stack([l12.direction, l23.direction, l31.direction])))
    return angles, gaps, math.copysign(1.0, triple)


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
