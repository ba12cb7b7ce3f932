"""One benchmark worker process, started by run.py.

``--setup-only`` imports the program, finishes its lazy set-up, prints
``ready`` and exits: run.py times that as one cold start.  Otherwise the
worker sets up the same way, warms up, runs one workload as a closed loop
for at least ``--seconds`` of timed calls and writes its raw results as
JSON to ``--result``.  With ``--trace 1`` a second, traced pass over the
same inputs follows the untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from importlib import metadata

import speed

WARMUP_S = 0.5
SEGMENT_S = 0.25  # timed item seconds between two speed probes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def set_up(src: str) -> None:
    """Import trinoids.cli from ``src`` and run one small command, which does
    the program's lazy set-up (first jsonschema import, schema load)."""
    sys.path.insert(0, src)
    import trinoids.cli

    if not os.path.abspath(trinoids.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"trinoids was imported from {trinoids.cli.__file__}, not from {src}")
    with contextlib.redirect_stdout(io.StringIO()):
        code = trinoids.cli.main(["convert", "--from", "lambda", "0.3"])
    if code != 0:
        raise SystemExit(f"set-up command exited {code}")


def warm_up(workload) -> None:
    """Run items from a separate input stream for WARMUP_S (at least one)."""
    start = time.perf_counter()
    for cycle in workload.cycles(stream=1):
        for spec in cycle:
            workload.run(spec)
            if time.perf_counter() - start >= WARMUP_S:
                return


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop over whole cycles until ``seconds`` of timed calls, as
    scaled to the reference speed (so the number of cycles in a run does not
    follow the machine's speed changes).

    Only the call into the program is timed; the check runs after it and
    before the next item starts.  A raised exception or a failed check
    counts the item as failed.  Items are grouped into segments of at least
    SEGMENT_S timed seconds with a speed probe before and after each; every
    item gets its segment's scale from the two probes (speed.scale).
    The probes and checks are not timed.
    """
    latencies, scales, reasons = [], [], []
    failed = 0
    timed = segment = scaled = 0.0
    cycles = pending = 0
    clock = time.perf_counter
    before = speed.probe()

    def close_segment():
        nonlocal before, pending, segment, scaled
        after = speed.probe()
        factor = speed.scale(before, after)
        scales.extend([factor] * pending)
        scaled += segment * factor
        before, pending, segment = after, 0, 0.0

    for cycle in workload.cycles():
        for spec in cycle:
            if tracer is not None:
                tracer.item = len(latencies)
            error = output = None
            start = clock()
            try:
                output = workload.run(spec)
            except Exception as exc:  # the item failed; the run goes on
                error = exc
            elapsed = clock() - start
            if tracer is not None:
                tracer.item = None
            latencies.append(elapsed)
            timed += elapsed
            segment += elapsed
            pending += 1
            if error is None:
                try:
                    workload.check(spec, output)
                except Exception as exc:  # a wrong output, or a check that broke on it
                    error = exc
            if error is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{type(error).__name__}: {error}")
            del output
            if segment >= SEGMENT_S:
                close_segment()
        cycles += 1
        if scaled + segment * speed.scale(before, before) >= seconds:
            break
    if pending:
        close_segment()
    return {"latencies": latencies, "scales": scales, "failed": failed, "reasons": reasons,
            "timed_s": timed, "scaled_s": scaled, "cycles": cycles,
            "diagnostics": workload.diagnostics}


def write_spans(path: str, spans) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.item]) + "\n")


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": sys.version.split()[0], **versions,
            "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmpdir")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    set_up(args.src)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import layers
    import tracer as tracing
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.tmpdir)
    warm_up(workload)
    if tracing.wrapped_attributes():
        raise SystemExit("tracer wrappers present before the untraced run")
    result = run_loop(workload, args.seconds)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = environment()
    result["traced"] = None
    if args.trace:
        tr = tracing.Tracer()
        traced_workload = cls(args.seed, args.tmpdir)
        with tracing.Installation(tr, layers.TARGETS):
            traced = run_loop(traced_workload, args.seconds, tracer=tr)
        if tracing.wrapped_attributes():
            raise SystemExit("tracer wrappers left behind after the traced run")
        items = len(traced["latencies"])
        base = result["scaled_s"] / len(result["latencies"])
        overhead = (traced["scaled_s"] / items) / base - 1.0
        traced["layers"] = layers.per_layer(tr, items, traced["diagnostics"], overhead)
        traced["spans"] = sum(1 for s in tr.spans if s is not None)
        if args.spans:
            write_spans(args.spans, [s for s in tr.spans if s is not None])
        result["traced"] = traced
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
