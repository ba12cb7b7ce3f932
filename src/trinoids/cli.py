"""Command-line front end.

Subcommands:

* classify      -- tag an angle triple and print the inequality slacks
* convert       -- translate one end parameter into all conventions
* surface       -- sample a catalog surface to OBJ and/or CSV
* constellation -- solve for the two line constellations of a triple
* verify-end    -- run the conjugate-end pipeline on a data file

Exit codes are a stable contract: 0 success, 1 negative result,
2 input/domain error (a bad config file included), 3 internal consistency
error or any other unexpected failure.  Every error is one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from typing import Optional, Sequence

import numpy as np

from . import asymptotics, classify, constellation, emit, params, surfaces, weierstrass
from .config import Config, load_config

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _parse_angles(values, degrees: bool):
    out = []
    for v in values:
        x = float(v)
        if not math.isfinite(x):
            raise ValueError(f"angle must be finite, got {v}")
        out.append(math.radians(x) if degrees else x)
    return out


def _check_positive(name: str, value: float, allow_zero: bool = False) -> None:
    """Reject ``value`` unless it lies in (0, inf), or in [0, inf) with ``allow_zero``."""
    if not ((value >= 0.0 if allow_zero else value > 0.0) and value < math.inf):
        interval = "[0, inf)" if allow_zero else "(0, inf)"
        raise ValueError(f"{name} must lie in {interval}, got {value}")


def _round_up(x: float) -> str:
    """``x`` in ``%.3e`` notation, rounded up rather than to nearest, so
    that the float it reads as is never below ``x``."""
    text = f"{x:.3e}"
    if float(text) < x:
        mantissa, exponent = text.split("e")
        # one unit more in the last of the four digits
        units = int(mantissa.replace(".", "")) + 1
        text = f"{float(f'{units}e{int(exponent) - 3}'):.3e}"
    return text


def _one_line(exc: BaseException) -> str:
    """The exception message with its line breaks folded into spaces."""
    return " ".join(str(exc).splitlines())


@functools.lru_cache(maxsize=None)
def _data_validator():
    """jsonschema's validator of verify-end's data files, whose errors it prints."""
    import jsonschema

    schema = emit.load_schema("weierstrass_data.schema.json")
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def _emit(doc: dict, schema: str, json_path: Optional[str], force: bool) -> None:
    doc = emit.to_plain(doc)
    emit.validate_against_schema(doc, schema)
    text = emit.dump_json(doc)
    sys.stdout.write(text)
    emit.write_text(json_path, text, force)


def cmd_classify(args) -> int:
    phis = _parse_angles(args.phi, args.degrees)
    _check_positive("--eps-face", args.eps_face, allow_zero=True)
    outcome = classify.classify_triple(*phis, eps_face=args.eps_face)
    deltas = [r / (2.0 * math.pi) for r in outcome.reduced]
    doc = {
        "phi": phis,
        "reduced": list(outcome.reduced),
        "tag": outcome.tag.value,
        "slacks": list(outcome.slacks),
        "bobenko_deltas": deltas,
        "bobenko_slacks": list(classify.inequality_slacks(*deltas, 0.5)),
    }
    _emit(doc, "classify.schema.json", args.json, args.force)
    return EXIT_OK if outcome.tag is classify.TripleTag.GENERIC_ADMISSIBLE else EXIT_NEGATIVE


def cmd_convert(args) -> int:
    value = float(args.value)
    if args.source == "lambda":
        lam = value
        params._check_lambda(lam)
    elif args.source == "phi":
        lam = params.lambda_of_phi(value)
    elif args.source == "mu":
        lam = params.bryant_mu_to_lambda(value)
    else:
        lam = params.bps_to_lambda(value)
    phi = params.phi_of_lambda(lam)
    doc = {
        "lambda": lam,
        "a": math.sqrt(1.0 + 4.0 * lam),
        "phi": phi,
        "reduced_angle": params.reduced_angle(phi),
        "mu_bryant": params.lambda_to_bryant_mu(lam),
        "lambda_bps": params.lambda_to_bps(lam),
        "bobenko_delta": params.bobenko_delta(params.lambda_to_bps(lam)),
        "total_curvature": params.total_curvature(lam),
        "h_half_gap": params.ray_distance_h(phi, params.PitchConvention.HALF_GAP),
        "h_ruling_gap": params.ray_distance_h(phi, params.PitchConvention.RULING_GAP),
    }
    _emit(doc, "convert.schema.json", args.json, args.force)
    return EXIT_OK


def cmd_surface(args) -> int:
    lam = float(args.lam)
    if args.obj is None and args.csv is None:
        raise ValueError("nothing to do: pass --obj and/or --csv")
    if args.nx < 2 or args.ny < 2:
        raise ValueError(f"--nx and --ny must be at least 2, got {args.nx} and {args.ny}")
    for flag in ("xmin", "xmax", "ymin", "ymax"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{flag} must be finite, got {value}")
    if args.kind == "cousin":
        ymin = 0.0 if args.ymin is None else args.ymin
        ymax = surfaces.cousin_period(lam) if args.ymax is None else args.ymax
    else:
        ymin = -math.pi if args.ymin is None else args.ymin
        ymax = math.pi if args.ymax is None else args.ymax
    xs = np.linspace(args.xmin, args.xmax, args.nx)
    ys = np.linspace(ymin, ymax, args.ny)
    grid = surfaces.surface_grid(args.kind, lam, xs, ys, ball_model=(args.model == "ball"))
    if args.obj:
        emit.write_text(args.obj, emit.obj_from_grid(grid), args.force)
    if args.csv:
        emit.write_text(args.csv, emit.csv_from_grid(grid), args.force)
    return EXIT_OK


def cmd_constellation(args) -> int:
    phis = _parse_angles(args.phi, args.degrees)
    convention = params.PitchConvention(args.convention)
    _check_positive("--eps-face", args.eps_face, allow_zero=True)
    _check_positive("--box", args.box)
    outcome = classify.classify_triple(*phis, eps_face=args.eps_face)
    solutions = constellation.solve_constellations(
        *phis, convention=convention, eps_face=args.eps_face
    )
    doc = {
        "phi": phis,
        "tag": outcome.tag.value,
        "convention": convention.value,
        "count": len(solutions),
        "solutions": [constellation.constellation_to_json(c, phis, c.self_check)
                      for c in solutions],
    }
    _emit(doc, "constellation.schema.json", args.json, args.force)
    if args.emit_obj and solutions:
        segments = [line for c in solutions for line in c.lines()]
        patches = []
        if args.patches:
            patches = [
                constellation.frame_patch(frame, phis[i], convention)
                for c in solutions
                for i, (_, _, frame) in enumerate(c.pairs())
            ]
        text = emit.obj_from_segments_and_patches(segments, patches, args.box)
        emit.write_text(args.emit_obj, text, args.force)
    return EXIT_OK if solutions else EXIT_NEGATIVE


def cmd_verify_end(args) -> int:
    if args.fit_lam is not None:
        params._check_lambda(args.fit_lam)
    _check_positive("--tol", args.tol)
    if args.min_radius_exp < 2:
        raise ValueError(f"--min-radius-exp must be at least 2, got {args.min_radius_exp}")
    with open(args.data) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("data file is nested too deeply") from None
    try:
        import jsonschema
        error = jsonschema.exceptions.best_match(_data_validator().iter_errors(doc))
        if error is not None:
            raise error
    except Exception as exc:
        message = getattr(exc, "message", exc)
        raise ValueError(f"data file does not match the data schema: {message}") from exc
    data = weierstrass.data_from_json(doc)
    if not isinstance(data, weierstrass.PowerEndData):
        raise ValueError("verify-end needs power_end data")
    radii = tuple(0.5**k for k in range(1, args.min_radius_exp + 1))
    try:
        report = asymptotics.verify_end(
            data,
            radii=radii,
            samples_per_arc=args.arc_samples,
            boundary_samples=args.boundary_samples,
            tol=args.tol,
            fit_lam=args.fit_lam,
        )
    except weierstrass.QuadratureError as exc:
        # the integrals are closed forms: an unmet budget is set by the
        # data, the radii and --tol, never by a fault of the program
        raise ValueError(
            f"--tol {args.tol!r} is below the rounding budget {_round_up(exc.achieved)} "
            "of the integrals for these data and radii"
        ) from None
    out = asymptotics.verification_to_json(report)
    _emit(out, "verify_end.schema.json", args.json, args.force)
    if args.csv and report.decay is not None:
        emit.write_text(
            args.csv, emit.decay_csv(report.decay.radii, report.decay.sup_distance), args.force
        )
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    """The argv parser; flags that a config file can set default to None."""
    # abbreviations of the top-level flags (--conf for --config) are rejected
    parser = argparse.ArgumentParser(
        prog="trinoids",
        description="Classification and verification tools for catenoid-cousin end data.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="path to a JSON config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, angles=False):
        p.add_argument("--json", help="also write the JSON output to this path", default=None)
        p.add_argument("--force", action="store_true", help="overwrite existing files")
        if angles:
            p.add_argument("--degrees", action="store_true", help="angles are given in degrees")
            p.add_argument("--eps-face", type=float, default=None,
                           help="boundary tolerance for the tetrahedron faces")

    p = sub.add_parser("classify", help="classify an angle triple")
    p.add_argument("phi", nargs=3, help="three angles in J = (0, inf) \\ {pi}")
    add_common(p, angles=True)

    p = sub.add_parser("convert", help="convert between parameter conventions")
    p.add_argument("--from", dest="source", required=True,
                   choices=["lambda", "phi", "mu", "bps"])
    p.add_argument("value", help="parameter value in the source convention")
    add_common(p)

    p = sub.add_parser("surface", help="sample a catalog surface to OBJ/CSV")
    p.add_argument("kind", choices=["helicoid", "catenoid", "cousin"])
    p.add_argument("lam", help="end parameter lambda in (-1/4, inf) \\ {0}")
    p.add_argument("--nx", type=int, default=21)
    p.add_argument("--ny", type=int, default=21)
    p.add_argument("--xmin", type=float, default=-2.0)
    p.add_argument("--xmax", type=float, default=2.0)
    p.add_argument("--ymin", type=float, default=None)
    p.add_argument("--ymax", type=float, default=None)
    p.add_argument("--model", choices=["halfspace", "ball"], default="halfspace",
                   help="coordinate model for the cousin")
    p.add_argument("--obj", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("constellation", help="solve the line constellations of a triple")
    p.add_argument("phi", nargs=3)
    p.add_argument("--convention", choices=[c.value for c in params.PitchConvention],
                   default=None)
    p.add_argument("--emit-obj", default=None, help="write clipped line segments as OBJ")
    p.add_argument("--box", type=float, default=10.0, help="clip box half-width for --emit-obj")
    p.add_argument("--patches", action="store_true",
                   help="also mesh the three inscribing helicoid patches into the OBJ")
    add_common(p, angles=True)

    p = sub.add_parser("verify-end", help="run the conjugate-end pipeline on a data file")
    p.add_argument("data", help="JSON file with power_end data")
    p.add_argument("--arc-samples", type=int, default=None)
    p.add_argument("--boundary-samples", type=int, default=None)
    p.add_argument("--min-radius-exp", type=int, default=8,
                   help="sample down to radius 2^-N")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--fit-lambda", dest="fit_lam", type=float, default=None,
                   help="fit against this end parameter instead of the data's own")
    p.add_argument("--csv", default=None, help="write the decay profile as CSV")
    add_common(p)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on first use and reused for the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: bad config: {_one_line(exc)}", file=sys.stderr)
        return EXIT_INPUT
    for f in fields(Config):
        if getattr(args, f.name, None) is None:
            setattr(args, f.name, getattr(cfg, f.name))
    try:
        # looked up per call, so that a replaced cmd_* is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_INPUT
    except constellation.ConstellationSolveError as exc:
        print(f"internal error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # a fault of the program, never a negative result (exit 1)
        print(f"internal error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
