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
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .classify import TripleTag, classify_triple
from .lines import (
    NONFINITE_POINT,
    PARALLEL,
    ZERO_NORM,
    ZERO_VECTOR,
    LinePairs,
    OrientedLine,
    canonical_rows,
    cross3,
    dot_rows,
    line_pairs,
    ruling_residual,
    scaled,
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


def not_rotations(rotations: np.ndarray) -> List[bool]:
    """Flags of the (k, 3, 3) matrices that HelicoidFrame refuses: those
    not special orthogonal within 1e-12."""
    columns = np.swapaxes(rotations, 1, 2).tolist()
    det = dot_rows([cross3(c[0], c[1]) for c in columns], [c[2] for c in columns])
    gram = (np.abs(np.swapaxes(rotations, 1, 2) @ rotations - np.eye(3)).max(axis=(1, 2))).tolist()
    return [g > 1e-12 or abs(x - 1.0) > 1e-12 for g, x in zip(gram, det)]


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
        if not_rotations(R[None])[0]:
            raise ValueError(NOT_ROTATION)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", T)

    @classmethod
    def checked(cls, lam: float, rotation: np.ndarray, translation: np.ndarray) -> "HelicoidFrame":
        """The frame of a float rotation that not_rotations passed, stored as it is."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "lam", lam)
        object.__setattr__(frame, "rotation", rotation)
        object.__setattr__(frame, "translation", translation)
        return frame


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


# pair rows of the one pass: pair 1 is shared, pairs 2 and 3 come once per
# solution; each row names its carried and image line (rows of the lines
# l12, l31, l23+, l23-) and its end angle
_PAIR_ROWS = ((0, 1, 2), (0, 3, 4))  # the pair rows of solution + and of solution -
_CARRIED = [0, 2, 1, 3, 1]
_IMAGE = [1, 0, 2, 0, 3]
_ANGLE = [0, 1, 2, 1, 2]


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
    direction (1, 0, 0) and l31's direction lies in the xy-plane.  Each
    frame is placed once, in closed form: the common perpendicular of its
    two lines is the helicoid axis, and the frame sits at its foot on the
    carried line (lines.line_pairs).

    The two solutions, l23's direction (ax, ay, +az) and (ax, ay, -az), are
    built and checked together in one pass over arrays; pair 1 (l12, l31,
    f1) is the same in both and is computed once.  Each solution is checked
    against its own residuals (ConstellationReport.ok) and carries that
    report as ``self_check``; none is returned silently unchecked.  The
    directions come from cosines of the reduced angles alone, so a triple
    too close to the boundary for double precision raises ValueError: the
    direction solve degenerates, or its angles miss pi - r_i by
    RESIDUAL_TOL or more.  Any other failed check raises
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
    lams = tuple(lambda_of_phi(p) for p in phis)

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
    return _mirror_solutions(phis, r, lams, u31, ax, ay, az, convention)


def _mirror_solutions(phis, r, lams, u31, ax, ay, az, convention) -> List[Constellation]:
    """Both solutions of solve_constellations, built and self-checked at once.

    Every row gets the bits that building each solution on its own gives
    (see trinoids.lines).  Nothing raises while the rows are computed: each
    refusal is flagged, and the first one is raised in the order of building
    solution +, checking it, then building and checking solution -.
    """
    chi = [_screw_sign(p) for p in phis]
    pitch = [pitch_coefficient(lam, convention) for lam in lams]
    c = [chi[i] * pitch[i] * phis[i] for i in range(3)]
    u12 = [1.0, 0.0, 0.0]
    u23 = [[ax, ay, az], [ax, ay, -az]]

    # plane normals n1, n2+, n2-, n3+, n3-
    raw = [cross3(u12, u31)] + [cross3(u, u12) for u in u23] + [cross3(u31, u) for u in u23]
    norms = [math.sqrt(x) for x in dot_rows(raw, raw)]
    n1, n2p, n2m, n3p, n3m = [scaled(v, norm) for v, norm in zip(raw, norms)]
    n2, n3 = [n2p, n2m], [n3p, n3m]

    # Positions: p12 = 0 (gauge), pair-1 offset places l31, pairs 2 and 3
    # pin l23 through a 2x2 solve in the plane perpendicular to u23.
    p31 = [c[0] * x for x in n1]
    e2raw = [cross3(u, n) for u, n in zip(u23, n2)]
    sq = dot_rows(e2raw + n2 + [p31, p31], e2raw + n3 + n3)
    e2_norms = [math.sqrt(x) for x in sq[:2]]
    e2 = [scaled(v, norm) for v, norm in zip(e2raw, e2_norms)]
    denom = dot_rows(e2, n3)
    coplanar = [abs(x) < 1e-12 for x in denom]
    x = -c[1]
    p23 = []
    for j in range(2):
        y = math.nan if coplanar[j] else (c[2] + sq[4 + j] - x * sq[2 + j]) / denom[j]
        p23.append([x * a + y * b for a, b in zip(n2[j], e2[j])])

    # lines l12, l31, l23+, l23-
    points, dirs, zero_dir, nonfinite = canonical_rows([[0.0, 0.0, 0.0], p31] + p23,
                                                       [u12, u31] + u23)

    # Frames in closed form: the common perpendicular of a pair is the
    # helicoid axis, with direction e = -chi * unit(u_a x u_b), chi =
    # sign(sin phi); the carried line a becomes the ruling at y = 0 and the
    # image line b the reversed ruling at y = phi.  Each frame sits at the
    # foot of the common perpendicular on a.
    pa, ua = [points[i] for i in _CARRIED], [dirs[i] for i in _CARRIED]
    pb, ub = [points[i] for i in _IMAGE], [dirs[i] for i in _IMAGE]
    pairs = line_pairs(pa, ua, pb, ub)
    n_norms = [math.sqrt(x) for x in pairs.nn]
    rotations = []
    for k, i in enumerate(_ANGLE):
        e = [-chi[i] * x for x in scaled(pairs.n[k], n_norms[k])]
        sigma = math.copysign(1.0, lams[i])
        col0 = [-sigma * x for x in cross3(ua[k], e)]
        col1 = [-sigma * x for x in ua[k]]
        rotations.append([[col0[m], col1[m], e[m]] for m in range(3)])
    rotations = np.array(rotations)
    bad_frame = not_rotations(rotations)

    def refusal(j: int) -> Optional[Exception]:
        """The first refusal met in building solution j, or None."""
        if min(norms[0], norms[1 + j], norms[3 + j], e2_norms[j]) < ZERO_NORM:
            return ValueError(ZERO_VECTOR)
        if coplanar[j]:
            return ConstellationSolveError("coplanar direction triple; position solve singular")
        for line in (0, 2 + j, 1):
            if zero_dir[line]:
                return ValueError(ZERO_VECTOR)
            if nonfinite[line]:
                return ValueError(NONFINITE_POINT)
        for k in _PAIR_ROWS[j]:
            if pairs.parallel[k]:
                return ValueError(PARALLEL)
            if n_norms[k] < ZERO_NORM:
                return ValueError(ZERO_VECTOR)
            if bad_frame[k]:
                return ValueError(NOT_ROTATION)
        return None

    refused = [refusal(0), refusal(1)]
    if refused[0] is not None:
        raise refused[0]
    # a refused solution - is raised only after solution + passed its check,
    # and its rows are not checked
    to_check = _PAIR_ROWS[:1] if refused[1] is not None else _PAIR_ROWS
    k = 3 if refused[1] is not None else 5
    reports = _self_check(
        [p[:k] for p in (pa, ua, pb, ub)], pairs, rotations[:k], pairs.qa[:k],
        [pitch[i] for i in _ANGLE[:k]], [math.pi - r[i] for i in _ANGLE[:k]],
        [ray_distance_h(phis[i], convention) for i in _ANGLE[:k]], to_check)

    solutions = []
    for j, (report, pair_rows) in enumerate(zip(reports, to_check)):
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
        lines = [OrientedLine.canonical(points[m], dirs[m]) for m in (0, 2 + j, 1)]
        frames = [HelicoidFrame.checked(lams[i], rotations[m].copy(), np.array(pairs.qa[m]))
                  for i, m in enumerate(pair_rows)]
        solutions.append(Constellation(*lines, *frames, convention, self_check=report))
    if refused[1] is not None:
        raise refused[1]
    return solutions


def _self_check(lines, pairs: LinePairs, rotations, translations, pitches, targets, heights,
                solutions) -> List[ConstellationReport]:
    """Self-check reports of constellations given as rows of line pairs.

    lines holds the rows (pa, ua, pb, ub) of the carried and image lines,
    both canonical, and pairs their line_pairs.  Row k's frame is
    (rotations[k], translations[k]), with signed pitch pitches[k]; its
    lines should subtend targets[k] = pi - r_i at distance heights[k] = h_i.
    Each solution is a triple of rows, pairs 1 to 3; its report has the
    containment of both lines in the framed helicoid, |angle - target| and
    |distance - h| per pair, and the largest |coordinate| of its line
    points and frame translations.
    """
    pa, ua, pb, ub = lines
    containment = ruling_residual(
        np.repeat(rotations, 2, axis=0), [t for t in translations for _ in (0, 1)],
        [x for x in pitches for _ in (0, 1)], [p for pair in zip(pa, pb) for p in pair],
        [u for pair in zip(ua, ub) for u in pair])
    reports = []
    for rows in solutions:
        coords = [pa[i] for i in rows] + [translations[i] for i in rows]
        reports.append(ConstellationReport(
            tuple(containment[2 * i + m] for i in rows for m in (0, 1)),
            tuple(abs(pairs.angle[i] - targets[i]) for i in rows),
            tuple(abs(pairs.distance[i] - heights[i]) for i in rows),
            max(abs(x) for v in coords for x in v)))
    return reports


def verify_constellation(c: Constellation, phis) -> ConstellationReport:
    """Residuals of the three defining conditions for an angle triple.

    Report-only: containment of both lines of each pair as rulings of the
    framed helicoid, the oriented-direction angle against pi - r_i, and the
    line distance against ray_distance_h(phi_i, convention); and the scale
    of the coordinates, which ConstellationReport.ok applies.
    """
    phis = tuple(float(p) for p in phis)
    pitches, targets, heights = [], [], []
    for phi, (_, _, frame) in zip(phis, c.pairs()):
        pitches.append(pitch_coefficient(frame.lam, c.convention))
        targets.append(math.pi - reduced_angle(phi))
        heights.append(ray_distance_h(phi, c.convention))
    lines = [[line.tolist() for line in column] for column in zip(*(
        (a.point, a.direction, b.point, b.direction) for a, b, _ in c.pairs()))]
    frames = [f for _, _, f in c.pairs()]
    return _self_check(lines, line_pairs(*lines), np.array([f.rotation for f in frames]),
                       [f.translation.tolist() for f in frames], pitches, targets, heights,
                       [(0, 1, 2)])[0]


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
