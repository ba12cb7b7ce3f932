"""Desk-scale verification that conjugated catenoidal end data is helicoidal.

Pipeline for symmetric (real-coefficient) power-end data with exponent
alpha and end parameter lambda = (1 - alpha^2)/(4 alpha^2):

1. sample_conjugate_end -- integrate the conjugated data over concentric
   arcs and along both boundary rays of the upper half-disk;
2. check_slab          -- the third coordinate minus its logarithmic
   principal term must stay inside a band set by the correction bound;
3. fit_rays            -- least-squares lines through the boundary samples;
   for symmetric data both are horizontal, the oriented angle between them
   is r(pi*alpha) and their vertical gap is (1-alpha^2)*pi/(2*alpha);
4. fit_helicoid        -- rigid placement of the standard helicoid
   (vertical drop 2*lambda per radian) carrying both rays as rulings, in
   closed form: the common perpendicular of the rays is the helicoid axis;
5. decay_profile       -- sup distance of each sampled arc to the placed
   helicoid; the end is accepted as asymptotic when the profile decays
   over dyadic radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .constellation import HelicoidFrame
from .lines import LinePairs, OrientedLine, cross3, dot_rows, line_pairs, ruling_residual, scaled
from .params import PitchConvention, ray_distance_h, reduced_angle
from .weierstrass import (
    PowerEndData,
    branch_log,
    conjugate_data,
    correction_bound,
    gauss_normal,
    integrate,
    is_symmetric,
    principal_log_coefficient,
)

DEFAULT_RADII = tuple(0.5**k for k in range(1, 9))
# pass thresholds: |direction z| of a horizontal ray, helicoid-fit ruling
# residual, decay profile of exact containment, error of the boundary-ray gap
HORIZONTAL_TOL = 1e-6
FIT_RESIDUAL_TOL = 1e-3
CONTAINMENT_FLOOR = 1e-8
GAP_TOL = 1e-6


def _targets(radii, thetas, s=()) -> np.ndarray:
    """The points of an end in sample order: rho e^{i theta} on each arc,
    then +s and -s (a real rho times a complex rounds each part once)."""
    arcs = np.asarray(radii, dtype=float)[:, None] * np.exp(1j * thetas)
    return np.concatenate([arcs.ravel(), s, -np.asarray(s)])


@dataclass(frozen=True)
class EndSample:
    """Sampled conjugate end: arcs at decreasing radii plus boundary rays."""

    data: PowerEndData            # conjugated data actually integrated
    alpha: float
    lam: float
    radii: Tuple[float, ...]
    arc_angles: np.ndarray        # angles used on every arc
    arc_points: Tuple[np.ndarray, ...]   # one (m, 3) array per radius
    boundary_s: np.ndarray        # parameters s of the samples at z = +s and -s
    boundary_pos: np.ndarray      # (k, 3)
    boundary_neg: np.ndarray      # (k, 3)
    tol: float


def sample_conjugate_end(
    data: PowerEndData,
    radii: Tuple[float, ...] = DEFAULT_RADII,
    samples_per_arc: int = 33,
    boundary_samples: int = 16,
    tol: float = 1e-10,
) -> EndSample:
    """Integrate the conjugated data from the base point 1 over the half-disk.

    ``data`` must be symmetric (real coefficients, unrotated omega); the
    conjugation is applied here.  Radii must decrease in (0, 1].
    """
    if not isinstance(data, PowerEndData):
        raise TypeError("end sampling needs PowerEndData")
    if not is_symmetric(data):
        raise ValueError("end sampling is defined for the symmetric (real) subclass")
    radii = tuple(float(r) for r in radii)
    if not all(0 < r <= 1 for r in radii) or not all(
        a > b for a, b in zip(radii, radii[1:])
    ):
        raise ValueError("radii must be strictly decreasing in (0, 1]")
    if samples_per_arc < 3 or boundary_samples < 2:
        raise ValueError("need at least 3 arc samples and 2 boundary samples")

    conj = conjugate_data(data)
    thetas = np.linspace(0.0, math.pi, samples_per_arc)
    s_vals = np.geomspace(1.0, radii[-1], boundary_samples)
    points = integrate(conj, 1.0, _targets(radii, thetas, s_vals), tol)
    m, n = samples_per_arc, len(radii) * samples_per_arc
    arcs = [points[k : k + m] for k in range(0, n, m)]
    pos = points[n : n + boundary_samples]
    neg = points[n + boundary_samples :]
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


@dataclass(frozen=True)
class SlabReport:
    """Vertical extent of the end after removing the principal log term."""

    sup: float
    inf: float
    width: float
    correction_bound: float  # bound on |2 C(z)|, the full correction term
    boundary_z_spread: float
    passed: bool


def check_slab(sample: EndSample) -> SlabReport:
    """Slab containment: third coordinate minus principal term is bounded.

    PASS iff the residual width over all samples is at most twice the
    correction bound plus integration slack; the bound is on |2 C(z)|, which
    is exactly the removed correction.  Also reports how far the boundary
    rays are from being horizontal (their third-coordinate spread).
    """
    coef = principal_log_coefficient(sample.data)
    log_r, theta = branch_log(_targets(sample.radii, sample.arc_angles, sample.boundary_s))
    third = np.concatenate([*sample.arc_points, sample.boundary_pos, sample.boundary_neg])[:, 2]
    # the principal part Re(coef log z), the product taken on parts
    residuals = third - (coef.real * log_r - coef.imag * theta)
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


@dataclass(frozen=True)
class RayFit:
    """Least-squares lines through the two boundary sample sets."""

    ray_pos: OrientedLine
    ray_neg: OrientedLine
    deviation_pos: float
    deviation_neg: float
    vertical_gap: float
    pairs: LinePairs  # line_pairs of the two rays, one row

    @property
    def angle(self) -> float:
        return self.pairs.angle[0]

    @property
    def max_deviation(self) -> float:
        return max(self.deviation_pos, self.deviation_neg)

    @property
    def horizontality(self) -> float:
        return max(abs(self.ray_pos.direction[2]), abs(self.ray_neg.direction[2]))


def _fit_line(points: np.ndarray) -> Tuple[OrientedLine, float]:
    # samples near the largest float overflow their squares: the fit of such
    # a ray is judged by its results, without numpy's warnings on stderr
    with np.errstate(all="ignore"):
        centroid = points.mean(axis=0)
        centered = points - centroid
        spread = np.linalg.norm(centered, axis=1).max()
        if spread < 1e-12:
            raise ValueError("boundary samples nearly coincident; degenerate line fit")
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        direction = vt[0]
        # orient toward the end: samples are ordered from the base point inward
        t = centered @ direction
        if t[-1] < t[0]:
            direction = -direction
            t = -t
        deviation = float(np.linalg.norm(centered - np.outer(t, direction), axis=1).max())
    return OrientedLine(centroid, direction), deviation


def fit_rays(sample: EndSample) -> RayFit:
    """Fit both boundary rays, oriented toward the puncture.

    Requires at least 8 samples per side.  The vertical gap is the
    difference of mean third coordinates (the rays are horizontal for
    symmetric data); the angle is between the two oriented directions.
    """
    if len(sample.boundary_pos) < 8 or len(sample.boundary_neg) < 8:
        raise ValueError("need at least 8 boundary samples per side")
    ray_pos, dev_pos = _fit_line(sample.boundary_pos)
    ray_neg, dev_neg = _fit_line(sample.boundary_neg)
    gap = float(abs(sample.boundary_neg[:, 2].mean() - sample.boundary_pos[:, 2].mean()))
    return RayFit(
        ray_pos=ray_pos,
        ray_neg=ray_neg,
        deviation_pos=dev_pos,
        deviation_neg=dev_neg,
        vertical_gap=gap,
        pairs=line_pairs(*([v.tolist()] for v in (ray_pos.point, ray_pos.direction,
                                                  ray_neg.point, ray_neg.direction))),
    )


@dataclass(frozen=True)
class HelicoidFit:
    """Rigid placement of the standard helicoid carrying both rays."""

    frame: Optional[HelicoidFrame]
    residual: float
    passed: bool
    message: str = ""


def fit_helicoid(rays: RayFit, lam: float) -> HelicoidFit:
    """Place the helicoid with parameter lam so both rays are rulings.

    Uses the standard vertical drop 2*lambda per radian.  The closed form
    reads the screw rotation angle off the measured foot offset and checks
    it against the measured direction angle modulo 2*pi; an inconsistent
    pair (wrong lambda) yields a failure report.  The frame sits at the
    foot on ray_pos of the common perpendicular of the rays, which is the
    helicoid axis for two rulings; the residual is that of this placement,
    with no numerical refinement.

    Parallel rays (angle a multiple of pi) carry no twist information; only
    the lower distance bound 2*|lambda|*pi for distinct parallel rulings is
    checked in that case, and no frame is produced.
    """
    pos, neg = rays.ray_pos, rays.ray_neg
    p1, u1, p2, u2 = (v.tolist() for v in (pos.point, pos.direction, neg.point, neg.direction))
    pitch = 2.0 * lam
    norm = math.sqrt(rays.pairs.nn[0])
    if norm < 1e-8:
        min_gap = abs(pitch) * math.pi
        gap = rays.vertical_gap
        ok = gap >= min_gap * (1.0 - 1e-6) - 1e-9
        return HelicoidFit(
            frame=None,
            residual=max(0.0, min_gap - gap),
            passed=ok,
            message=(
                "parallel rays: distance lower-bound check only "
                f"(gap {gap:.6g} vs minimal ruling gap {min_gap:.6g})"
            ),
        )

    q1, q2 = rays.pairs.qa[0], rays.pairs.qb[0]
    n_hat = scaled(rays.pairs.n[0], norm)
    (d,) = dot_rows([[b - a for a, b in zip(q1, q2)]], [n_hat])
    angle = rays.angle
    # consistency: the twist implied by the gap must match the measured angle
    delta_y = -d / pitch
    mismatch = min(
        abs(_wrap_to_pi(delta_y - angle)), abs(_wrap_to_pi(delta_y + angle))
    )
    sigma = math.copysign(1.0, lam)
    # the axis direction is +/- the common perpendicular; the screw sense
    # picks one of them, so try both and keep the consistent placement
    col1 = [sigma * x for x in u1]
    candidates = [HelicoidFrame(lam, np.column_stack([cross3(col1, e_axis), col1, e_axis]), q1)
                  for e_axis in (n_hat, [-x for x in n_hat])]
    # both rays against both candidates, in one call
    both = ruling_residual(np.array([c.rotation for c in candidates for _ in (0, 1)]),
                           [q1] * 4, [pitch] * 4, [p1, p2] * 2, [u1, u2] * 2)
    frame, residual = None, math.inf
    for cand, res_pos, res_neg in zip(candidates, both[::2], both[1::2]):
        res = max(res_pos, res_neg)
        if res < residual:
            frame, residual = cand, res
    ok = residual < FIT_RESIDUAL_TOL
    msg = "" if ok else (
        f"no consistent placement: residual {residual:.3e}, "
        f"twist/angle mismatch {mismatch:.3e} (pitch may not match the rays)"
    )
    return HelicoidFit(frame=frame, residual=residual, passed=ok, message=msg)


def _wrap_to_pi(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def helicoid_distances(frame: HelicoidFrame, points: np.ndarray):
    """Distance of each point to the placed helicoid surface.

    Per point, the squared distance to the ruling at model height y is
    minimized over y by Newton iterations seeded from the point's own
    height (y0 = -Z/pitch, with pitch = 2 frame.lam) after a coarse scan of
    one screw period.  All points run at once; a point stops at its first
    converged step.
    Returns (distances, converged flags).
    """
    pitch = 2.0 * frame.lam

    def dist2(X, Y, Z, y):
        # squared distance to the ruling at height -pitch*y; the
        # perpendicular in-plane component is X cos y + Y sin y
        # (cancellation-free form of X^2 + Y^2 - (X sin y - Y cos y)^2),
        # computed in place on the two buffers np.cos and np.sin return,
        # which have the full broadcast shape.  The plain expression
        # allocates a new array per step and holds more of them at once:
        # for the (n, 49) scan of a few hundred points, under glibc's
        # default malloc thresholds, that grows the heap top and trims it
        # again on every call, about 120 page faults per verified end.
        up, t = np.cos(y), np.sin(y)
        np.multiply(X, up, out=up)
        np.multiply(Y, t, out=t)
        np.add(up, t, out=up)
        np.multiply(pitch, y, out=t)
        np.add(Z, t, out=t)
        np.multiply(up, up, out=up)
        np.multiply(t, t, out=t)
        return np.add(up, t, out=up)

    # points near the largest float overflow their squares, and a flat
    # Hessian divides by zero: the flags and distances tell, not warnings
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
            # clamp to [-0.5, 0.5] as max(min(step, 0.5), -0.5) does, NaN kept
            step = np.where(step > 0.5, 0.5, step)
            step = np.where(step < -0.5, -0.5, step)
            y[active] = ya[moving] - step
        d2 = dist2(X, Y, Z, y)
    return np.sqrt(np.where(d2 < 0.0, 0.0, d2)), flags


@dataclass(frozen=True)
class DecayProfile:
    """Sup distance to the fitted helicoid per sampled radius."""

    radii: Tuple[float, ...]
    sup_distance: Tuple[float, ...]
    nonconverged: int
    passed: bool

    @property
    def reduction(self) -> float:
        return self.sup_distance[0] / max(self.sup_distance[-1], 1e-300)


def decay_profile(sample: EndSample, fit: HelicoidFit) -> DecayProfile:
    """Sup distance of each arc to the fitted helicoid, inner radii last.

    PASS iff the profile strictly decreases with radius and ends below
    5 percent of its initial value, or the whole profile already sits below
    CONTAINMENT_FLOOR (exact containment up to rounding noise, where
    relative decay is meaningless).
    """
    if fit.frame is None:
        raise ValueError("decay profile needs a successful helicoid fit")
    dists, flags = helicoid_distances(fit.frame, np.concatenate(sample.arc_points))
    ends = np.cumsum([len(arc) for arc in sample.arc_points])[:-1]
    sups = []
    for d, ok in zip(np.split(dists, ends), np.split(flags, ends)):
        good = d[ok] if np.any(ok) else d
        sups.append(float(good.max()))
    sups_t = tuple(sups)
    below_floor = max(sups_t) < CONTAINMENT_FLOOR
    decreasing = all(b < a for a, b in zip(sups_t, sups_t[1:]))
    reduced_enough = sups_t[-1] < 0.05 * sups_t[0]
    return DecayProfile(
        radii=sample.radii,
        sup_distance=sups_t,
        nonconverged=int(np.sum(~flags)),
        passed=below_floor or (decreasing and reduced_enough),
    )


@dataclass(frozen=True)
class GapReport:
    """Measured boundary-ray gap against the closed-form prediction.

    ``matches`` records which of the two ray-distance conventions the
    measured gap reproduces (measured, not assumed).
    """

    measured: float
    expected: float
    h_half_gap: float
    h_ruling_gap: float
    matches: str
    angle_measured: float
    angle_expected: float
    passed: bool


def gap_report(sample: EndSample, rays: RayFit) -> GapReport:
    """Compare the measured vertical gap with (1-alpha^2)*pi/(2*alpha)."""
    alpha = sample.alpha
    phi = math.pi * alpha
    expected = abs(1.0 - alpha**2) * math.pi / (2.0 * alpha)
    h_half = ray_distance_h(phi, PitchConvention.HALF_GAP)
    h_ruling = ray_distance_h(phi, PitchConvention.RULING_GAP)
    measured = rays.vertical_gap
    matches = "ruling-gap" if abs(measured - h_ruling) <= abs(measured - h_half) else "half-gap"
    angle_expected = reduced_angle(phi)
    return GapReport(
        measured=measured,
        expected=expected,
        h_half_gap=h_half,
        h_ruling_gap=h_ruling,
        matches=matches,
        angle_measured=rays.angle,
        angle_expected=angle_expected,
        passed=abs(measured - expected) <= GAP_TOL,
    )


@dataclass(frozen=True)
class NormalLimitReport:
    """Trend of the unit normal toward vertical as the puncture is approached."""

    deviation_outer: float
    deviation_inner: float
    passed: bool


def normal_limit_report(sample: EndSample) -> NormalLimitReport:
    """Deviation |N - (0,0,-1)| on the outermost and innermost arcs."""
    z = _targets((sample.radii[0], sample.radii[-1]), sample.arc_angles)
    d = (gauss_normal(sample.data, z) - np.array([0.0, 0.0, -1.0]))[:, None, :]
    # each row's norm as np.linalg.norm takes one vector: sqrt of its dot product
    devs = np.sqrt(d @ d.transpose(0, 2, 1)).reshape(2, -1)
    outer, inner = (float(dev) for dev in devs.max(axis=1))
    return NormalLimitReport(outer, inner, passed=inner < outer and inner < 0.5)


@dataclass(frozen=True)
class EndVerification:
    """Full pipeline report for one end data set."""

    alpha: float
    lam: float
    slab: SlabReport
    rays: RayFit
    rays_horizontal: bool
    gap: GapReport
    normal_limit: NormalLimitReport
    fit: HelicoidFit
    decay: Optional[DecayProfile]

    @property
    def passed(self) -> bool:
        return not self.failed_hypotheses()

    def failed_hypotheses(self) -> List[str]:
        checks = (
            ("slab-containment", self.slab.passed),
            ("horizontal-rays", self.rays_horizontal),
            ("vertical-normal-limit", self.normal_limit.passed),
            ("helicoid-fit", self.fit.passed),
            ("decay", self.decay is not None and self.decay.passed),
        )
        return [name for name, ok in checks if not ok]


def verify_end(
    data: PowerEndData,
    radii: Tuple[float, ...] = DEFAULT_RADII,
    samples_per_arc: int = 33,
    boundary_samples: int = 16,
    tol: float = 1e-10,
    fit_lam: Optional[float] = None,
) -> EndVerification:
    """Run the whole pipeline on symmetric power-end data.

    ``fit_lam`` overrides the end parameter used for the helicoid fit;
    a mismatched value makes the fit (and the run) fail, which is the
    intended way to probe the pitch hypothesis.
    """
    sample = sample_conjugate_end(data, radii, samples_per_arc, boundary_samples, tol)
    slab = check_slab(sample)
    rays = fit_rays(sample)
    gap = gap_report(sample, rays)
    normal = normal_limit_report(sample)
    fit = fit_helicoid(rays, sample.lam if fit_lam is None else fit_lam)
    decay = None
    if fit.frame is not None:
        decay = decay_profile(sample, fit)
    return EndVerification(
        alpha=sample.alpha,
        lam=sample.lam,
        slab=slab,
        rays=rays,
        rays_horizontal=rays.horizontality <= HORIZONTAL_TOL,
        gap=gap,
        normal_limit=normal,
        fit=fit,
        decay=decay,
    )


def verification_to_json(v: EndVerification) -> dict:
    """JSON-serializable report of an end verification."""
    doc = {
        "alpha": v.alpha,
        "lambda": v.lam,
        "hypotheses": {
            "slab": {
                "sup": v.slab.sup,
                "inf": v.slab.inf,
                "width": v.slab.width,
                "correction_bound": v.slab.correction_bound,
                "boundary_z_spread": v.slab.boundary_z_spread,
                "pass": v.slab.passed,
            },
            "horizontal_rays": {
                "direction_z_max": v.rays.horizontality,
                "deviation_max": v.rays.max_deviation,
                "pass": v.rays_horizontal,
            },
            "vertical_normal_limit": {
                "deviation_outer": v.normal_limit.deviation_outer,
                "deviation_inner": v.normal_limit.deviation_inner,
                "pass": v.normal_limit.passed,
            },
            "ray_gap": {
                "measured": v.gap.measured,
                "expected": v.gap.expected,
                "h_half_gap": v.gap.h_half_gap,
                "h_ruling_gap": v.gap.h_ruling_gap,
                "matches_convention": v.gap.matches,
                "angle_measured": v.gap.angle_measured,
                "angle_expected": v.gap.angle_expected,
                "pass": v.gap.passed,
            },
        },
        "helicoid_fit": {
            "residual": v.fit.residual,
            "pass": v.fit.passed,
            "message": v.fit.message,
        },
        "decay": None,
        "pass": v.passed,
        "failed": v.failed_hypotheses(),
    }
    if v.decay is not None:
        doc["decay"] = {
            "radii": list(v.decay.radii),
            "sup_distance": list(v.decay.sup_distance),
            "nonconverged_points": v.decay.nonconverged,
            "pass": v.decay.passed,
        }
    return doc
