"""Output checks for the benchmark items.

Each check raises ``CheckFailed`` with a one-line reason.  The checks run
outside the timed region.  Where a fact can be recomputed cheaply from
first principles (admissibility, constellation residuals and invariants,
the text formats) it is recomputed here rather than read back from the
program, so a defect in the program cannot also hide its own check.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np

PI = math.pi
TWO_PI = 2.0 * math.pi
ADMISSIBLE_EPS = 1e-12
RESIDUAL_TOL = 1e-9
INVARIANT_TOL = 1e-9


class CheckFailed(Exception):
    """An item's output is wrong."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# --- triples -----------------------------------------------------------------

def reduced(phi: float) -> float:
    m = phi % TWO_PI
    return min(m, TWO_PI - m)


def admissible(phis: Sequence[float], eps: float = ADMISSIBLE_EPS) -> bool:
    """Generic admissibility from the four tetrahedron slacks of the reduced
    triple; angles within eps of a multiple of pi are degenerate."""
    r1, r2, r3 = (reduced(p) for p in phis)
    if any(r <= eps or r >= PI - eps for r in (r1, r2, r3)):
        return False
    slacks = (r1 + r2 + r3 - PI, PI - (r1 + r2 - r3), PI - (r1 - r2 + r3), PI - (-r1 + r2 + r3))
    return all(s > eps for s in slacks)


def _lambda_of_phi(phi: float) -> float:
    return (PI * PI / (phi * phi) - 1.0) / 4.0


def _pairs(sol):
    """(carried line, image line, frame) per helicoid, in screw order."""
    return ((sol.l12, sol.l31, sol.f1), (sol.l23, sol.l12, sol.f2), (sol.l31, sol.l23, sol.f3))


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    cross = _cross(u, v)
    return math.atan2(float(np.sqrt(cross @ cross)), float(u @ v))


def constellation_residual(sol, phis: Sequence[float]) -> float:
    """Largest violation of the defining conditions (half-gap convention).

    For each pair: both lines are rulings of the framed helicoid (in frame
    coordinates a ruling is horizontal, meets the axis, and at the height Z
    where it meets it runs along (sin y, -cos y, 0) with y = -Z/pitch), the
    oriented directions subtend pi - r(phi), and the line distance is
    |lambda(phi)| * phi.  Every term is evaluated where the line meets the
    axis, so that rounding does not grow with the distance of the line's
    stored point from the axis.
    """
    worst = 0.0
    for i, (a, b, frame) in enumerate(_pairs(sol)):
        phi = float(phis[i])
        lam = _lambda_of_phi(phi)
        worst = max(worst, abs(frame.lam - lam) / max(1.0, abs(lam)))
        pitch = frame.lam  # half-gap: the pitch equals lambda
        R, T = np.asarray(frame.rotation), np.asarray(frame.translation)
        for line in (a, b):
            d = R.T @ np.asarray(line.direction)
            p = R.T @ (np.asarray(line.point) - T)
            dh2 = d[0] * d[0] + d[1] * d[1]
            t = -(p[0] * d[0] + p[1] * d[1]) / dh2
            X, Y, Z = p + t * d
            y = -Z / pitch
            twist = abs(d[0] * math.cos(y) + d[1] * math.sin(y)) / math.sqrt(dh2)
            worst = max(worst, abs(float(d[2])), math.hypot(X, Y), twist)
        worst = max(worst, abs(_angle(a.direction, b.direction) - (PI - reduced(phi))))
        n = _cross(a.direction, b.direction)
        dist = abs(float((np.asarray(b.point) - np.asarray(a.point)) @ n)) / float(np.sqrt(n @ n))
        worst = max(worst, abs(dist - abs(lam) * phi))
    return worst


def _invariants(sol):
    lines = ((sol.l12, sol.l31), (sol.l23, sol.l12), (sol.l31, sol.l23))
    angles, gaps = [], []
    for a, b in lines:
        angles.append(_angle(a.direction, b.direction))
        n = _cross(a.direction, b.direction)
        gaps.append(float((np.asarray(b.point) - np.asarray(a.point)) @ n) / float(np.sqrt(n @ n)))
    triple = float(np.linalg.det(np.column_stack([sol.l12.direction, sol.l23.direction,
                                                  sol.l31.direction])))
    return np.array(angles), np.array(gaps), math.copysign(1.0, triple)


def check_triple(phis: Sequence[float], tag_value: str, solutions) -> None:
    """Check one triple-sweep item."""
    if not admissible(phis):
        require(tag_value != "GenericAdmissible", f"inadmissible triple tagged {tag_value}")
        require(len(solutions) == 0, f"inadmissible triple has {len(solutions)} solutions")
        return
    require(tag_value == "GenericAdmissible", f"admissible triple tagged {tag_value}")
    require(len(solutions) == 2, f"admissible triple has {len(solutions)} solutions, not 2")
    worst = max(constellation_residual(s, phis) for s in solutions)
    require(worst < RESIDUAL_TOL, f"solution residual {worst:.3e} >= {RESIDUAL_TOL}")
    (ang_a, gap_a, sign_a), (ang_b, gap_b, sign_b) = (_invariants(s) for s in solutions)
    same_shape = (np.all(np.abs(ang_a - ang_b) < INVARIANT_TOL)
                  and np.all(np.abs(gap_a - gap_b) < INVARIANT_TOL))
    require(bool(same_shape) and sign_a == -sign_b, "the two solutions are not mirror images")


# --- conjugate ends ----------------------------------------------------------

def check_end(alpha: float, perturbed: bool, report) -> Optional[float]:
    """Check one end-verify item.  Returns the largest sup distance of an
    unperturbed end (a diagnostic) or None for a perturbed end."""
    decay = report.decay
    if not perturbed:
        require(report.fit.passed, f"alpha={alpha}: unperturbed helicoid fit failed")
        require(decay is not None, f"alpha={alpha}: no decay profile")
        worst = max(decay.sup_distance)
        require(worst < 1e-8, f"alpha={alpha}: unperturbed sup distance {worst:.3e} >= 1e-8")
        expected = abs(1.0 - alpha * alpha) * PI / (2.0 * alpha)
        gap_err = abs(report.gap.measured - expected)
        require(gap_err <= 1e-6, f"alpha={alpha}: ray gap off by {gap_err:.3e}")
        return float(worst)
    require(report.slab.passed, f"alpha={alpha}: slab check failed")
    require(report.rays_horizontal, f"alpha={alpha}: rays not horizontal")
    require(report.fit.residual < 1e-3, f"alpha={alpha}: fit residual {report.fit.residual:.3e}")
    require(decay is not None, f"alpha={alpha}: no decay profile")
    sups = decay.sup_distance
    require(all(b < a for a, b in zip(sups, sups[1:])),
            f"alpha={alpha}: decay profile not strictly decreasing")
    require(sups[0] >= 20.0 * sups[-1], f"alpha={alpha}: decay reduction {sups[0] / sups[-1]:.3g} < 20")
    return None


# --- text formats ------------------------------------------------------------

def _floats(tokens) -> np.ndarray:
    return np.array(tokens, dtype=np.float64)


def _same_bits(parsed: np.ndarray, expected: np.ndarray) -> bool:
    expected = np.ascontiguousarray(expected, dtype=float).reshape(-1)
    parsed = parsed.reshape(-1)
    return parsed.shape == expected.shape and bool(
        np.array_equal(parsed.view(np.uint64), expected.view(np.uint64)))


def check_file(path: str, text: str) -> None:
    with open(path) as fh:
        require(fh.read() == text, f"{path}: file on disk differs from the emitted text")


def _rows(text: str):
    require(text.endswith("\n"), "text does not end with a newline")
    return text[:-1].split("\n")


def _expected_quads(nx: int, ny: int, offset: int = 0) -> np.ndarray:
    j, i = np.meshgrid(np.arange(ny - 1), np.arange(nx - 1), indexing="ij")
    a = (offset + j * nx + i + 1).reshape(-1)
    return np.stack([a, a + 1, a + nx + 1, a + nx], axis=1)


def check_grid_obj(text: str, positions: np.ndarray, normals: np.ndarray) -> None:
    """OBJ of a grid: header, one v and vn per node (row-major), quad faces."""
    ny, nx, _ = positions.shape
    rows = _rows(text)
    n = nx * ny
    nf = (nx - 1) * (ny - 1)
    require(len(rows) == 1 + 2 * n + nf, f"OBJ has {len(rows)} rows, expected {1 + 2 * n + nf}")
    require(rows[0].startswith("#"), "OBJ header missing")
    v, vn, f = rows[1:1 + n], rows[1 + n:1 + 2 * n], rows[1 + 2 * n:]
    require(all(r.startswith("v ") for r in v), "OBJ vertex rows malformed")
    require(all(r.startswith("vn ") for r in vn), "OBJ normal rows malformed")
    require(all(r.startswith("f ") for r in f), "OBJ face rows malformed")
    vt = " ".join(r[2:] for r in v).split(" ")
    nt = " ".join(r[3:] for r in vn).split(" ")
    require(len(vt) == 3 * n and len(nt) == 3 * n, "OBJ vertex/normal rows need 3 floats")
    require(_same_bits(_floats(vt), positions), "OBJ vertices differ from the grid positions")
    require(_same_bits(_floats(nt), normals), "OBJ normals differ from the grid normals")
    ft = " ".join(r[2:] for r in f).replace("//", " ").split(" ")
    idx = np.array(ft, dtype=np.int64).reshape(nf, 4, 2)
    require(bool(np.all(idx[:, :, 0] == idx[:, :, 1])), "OBJ face vertex/normal indices differ")
    require(bool(np.array_equal(idx[:, :, 0], _expected_quads(nx, ny))), "OBJ face indices wrong")


def check_grid_csv(text: str, xs: np.ndarray, ys: np.ndarray,
                   positions: np.ndarray, normals: np.ndarray) -> None:
    """CSV of a grid: header and x,y,px,py,pz,nx,ny,nz per node (row-major)."""
    ny, nx, _ = positions.shape
    rows = _rows(text)
    require(len(rows) == 1 + nx * ny, f"CSV has {len(rows)} rows, expected {1 + nx * ny}")
    require(rows[0] == "x,y,px,py,pz,nx,ny,nz", "CSV header wrong")
    tokens = ",".join(rows[1:]).split(",")
    require(len(tokens) == 8 * nx * ny, "CSV rows need 8 fields")
    X, Y = np.meshgrid(xs, ys)
    expected = np.concatenate([X[..., None], Y[..., None], positions, normals], axis=-1)
    require(_same_bits(_floats(tokens), expected), "CSV values differ from the grid")


def check_patch_obj(text: str, n_lines: int, patches: Sequence[np.ndarray]) -> None:
    """OBJ of clipped lines plus quad patches: line vertices come first, then
    each patch's vertices (bit-identical to the patch arrays) and faces."""
    rows = _rows(text)
    require(rows[0].startswith("#"), "OBJ header missing")
    v = [r for r in rows if r.startswith("v ")]
    l_rows = [r for r in rows if r.startswith("l ")]
    f = [r for r in rows if r.startswith("f ")]
    n_patch = sum(p.shape[0] * p.shape[1] for p in patches)
    require(len(l_rows) <= n_lines, f"OBJ has {len(l_rows)} line elements for {n_lines} lines")
    n_line_v = 2 * len(l_rows)
    require(len(v) == n_line_v + n_patch, "OBJ vertex count wrong")
    require(len(rows) == 1 + len(v) + len(l_rows) + len(f), "OBJ has unexpected rows")
    l_idx = np.array(" ".join(r[2:] for r in l_rows).split(), dtype=np.int64)
    require(bool(np.array_equal(l_idx, np.arange(1, n_line_v + 1))), "OBJ line indices wrong")
    vt = " ".join(r[2:] for r in v[n_line_v:]).split(" ")
    require(_same_bits(_floats(vt), np.concatenate([p.reshape(-1) for p in patches])),
            "OBJ patch vertices differ from the patches")
    quads, offset = [], n_line_v
    for p in patches:
        quads.append(_expected_quads(p.shape[1], p.shape[0], offset))
        offset += p.shape[0] * p.shape[1]
    f_idx = np.array(" ".join(r[2:] for r in f).split(), dtype=np.int64).reshape(-1, 4)
    require(bool(np.array_equal(f_idx, np.concatenate(quads))), "OBJ patch faces wrong")


# --- command line ------------------------------------------------------------

def check_cli(kind: str, phis: Optional[Sequence[float]], code: int, stdout: str,
              stderr: str) -> None:
    """Exit code against the input's admissibility; stdout is JSON (or empty
    for ``surface``); no traceback on stderr."""
    require("Traceback" not in stderr, f"{kind}: traceback on stderr")
    if kind == "surface":
        require(code == 0, f"surface exited {code}")
        require(stdout == "", "surface wrote to stdout")
        return
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{kind}: stdout is not JSON ({exc})") from None
    if kind == "convert":
        require(code == 0, f"convert exited {code}")
        return
    ok = admissible(phis)
    label = "an admissible" if ok else "an inadmissible"
    require(code == (0 if ok else 1), f"{kind}: exit {code} for {label} triple")
    if kind == "classify":
        require((doc.get("tag") == "GenericAdmissible") == ok, f"classify: tag {doc.get('tag')}")
    else:
        require(doc.get("count") == (2 if ok else 0), f"constellation: count {doc.get('count')}")
