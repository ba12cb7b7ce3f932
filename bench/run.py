"""trinoids benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload end-verify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Each workload runs in one fresh worker process as a closed loop with a
single caller, on inputs generated from ``--seed``; every output is checked
outside the timed region.  The program is imported from ``src/`` of the
checkout; nothing needs building.  The benchmark and its workers are pinned
to one CPU, and BLAS/OpenMP pools to one thread.

Timings are reported at a reference machine speed (see ``speed.py``):
every timed segment is scaled by a speed probe run just before and after
it, because the shared machines this runs on change speed by a third from
one second to the next.  The measured wall times are reported as well.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` repeats the run
with wrappers around the public functions of every trinoids module and
prints the per-layer metrics and the tracing overhead.  The human-readable
report (environment, every metric with unit and sample count, failed
checks) comes first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
report, and with ``--trace 1`` the spans, are written under ``.bench_out/``.

A single workload exits 0 whenever it produced a result, with
``"correct": false`` if a check failed; ``--workload all`` exits 1 if any
check failed.  Without ``src/trinoids`` the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
COLD_STARTS = 5
RUN_LIMIT_S = 170.0
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
MIN_BEYOND_P90 = 10


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env.pop("PYTHONPATH", None)
    return env


def wait(proc: subprocess.Popen, deadline: float) -> int:
    try:
        return proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the run time limit") from None


def cold_starts(deadline: float) -> tuple:
    """Wall time from spawning a fresh worker until it reports set-up done,
    raw and scaled to the reference speed by probes before and after."""
    samples, scaled = [], []
    before = speed.probe()
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, "--src", SRC, "--setup-only"],
                                stdout=subprocess.PIPE, text=True, env=child_env())
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if wait(proc, deadline) != 0 or line.strip() != "ready":
            raise BenchError("a cold-start worker failed to set up")
        after = speed.probe()
        scaled.append(samples[-1] * speed.scale(before, after))
        before = after
    return samples, scaled


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    tmpdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        result_path = os.path.join(tmpdir, "result.json")
        cmd = [sys.executable, WORKER, "--src", SRC, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--tmpdir", tmpdir, "--result", result_path]
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            cmd += ["--spans", os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl")]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=child_env())
        if wait(proc, deadline) != 0:
            raise BenchError(f"the {workload} worker exited {proc.returncode}")
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def git_commit() -> str | None:
    """Commit of the checkout read from .git, or None outside a git clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for row in fh:
                if row.rstrip().endswith(" " + ref):
                    return row.split()[0]
    except OSError:
        pass
    return None


def source_lines() -> dict:
    """Line counts of src/trinoids/*.py, as ``wc -l`` gives them."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(SRC, "trinoids", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.relpath(path, ROOT)] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(lat: list, ok: int, setup: list) -> dict:
    p90 = percentile(lat, 90)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "n": len(setup)},
        "items_per_s": {"value": ok / sum(lat), "unit": "1/s", "n": len(lat)},
        "item_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms", "n": len(lat)},
        "item_p90_ms": {"value": 1e3 * p90, "unit": "ms", "n": len(lat),
                        "beyond": sum(1 for x in lat if x > p90)},
    }


def end_to_end(raw: dict, setup: tuple) -> tuple:
    """Metrics at the reference speed, and the same timings as wall times."""
    lat = raw["latencies"]
    attempted = len(lat)
    ok = attempted - raw["failed"]
    scaled = [x * s for x, s in zip(lat, raw["scales"])]
    metrics = {
        **timing_metrics(scaled, ok, setup[1]),
        "peak_rss_mb": {"value": raw["rss_kb"] / 1024.0, "unit": "MB", "n": 1},
        "pass_rate": {"value": ok / attempted, "unit": "ratio", "n": attempted},
    }
    return metrics, timing_metrics(lat, ok, setup[0])


def predictions(workload: str, layers: dict, item_s: float) -> list:
    """Where the traced time should go, as stated when the benchmark was set up."""
    def share(*names):
        return sum(layers[n]["value"] for n in names) / item_s

    if workload == "end-verify":
        s = share("asymptotics.sample_conjugate_end.busy_s")
        return [("sample_conjugate_end busy share of item time > 0.5", s, s > 0.5)]
    if workload == "mesh-emit":
        s = share("emit.obj_from_grid.busy_s", "emit.csv_from_grid.busy_s",
                  "emit.obj_from_segments_and_patches.busy_s")
        return [("emit formatting busy share of item time > 0.5", s, s > 0.5)]
    return []


def run_one(workload: str, seed: int, seconds: float, trace: int, nproc: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = ([], []) if trace else cold_starts(deadline)
    raw = run_worker(workload, seed, seconds, trace, deadline)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {**raw["env"], "nproc": nproc, "pinned_cpu": sorted(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(), "commit": git_commit(),
                "src_lines": source_lines()},
        "loop": "closed, one caller", "item": WORKLOADS[workload].item,
        "items": len(raw["latencies"]), "cycles": raw["cycles"], "timed_s": raw["timed_s"],
        "attempted": len(raw["latencies"]), "failed": raw["failed"],
        "failures": raw["reasons"], "setup_samples_s": setup[0],
    }
    if trace:
        traced = raw["traced"]
        report["traced_items"] = len(traced["latencies"])
        report["spans"] = traced["spans"]
        report["attempted"] += len(traced["latencies"])
        report["failed"] += traced["failed"]
        report["failures"] += traced["reasons"]
        report["metrics"] = traced["layers"]
        item_s = traced["timed_s"] / len(traced["latencies"])
        report["predictions"] = [
            {"claim": c, "value": v, "met": m}
            for c, v, m in predictions(workload, traced["layers"], item_s)]
    else:
        report["metrics"], report["wall"] = end_to_end(raw, setup)
    report["error_rate"] = report["failed"] / report["attempted"]
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_metric(name: str, m: dict) -> None:
    n = f"  n={m['n']}" if "n" in m else ""
    print(f"  {name:45s} {m['value']:.6g} {m['unit']}{n}")
    if name == "item_p90_ms" and m["beyond"] < MIN_BEYOND_P90:
        print(f"    note: only {m['beyond']} items lie beyond p90 (fewer than "
              f"{MIN_BEYOND_P90}); on this workload p90 is a coarse tail figure")


def print_report(r: dict) -> None:
    env = r["env"]
    print(f"== {r['workload']}  seed={r['seed']}  seconds={r['seconds']}  trace={r['trace']}")
    print(f"env: nproc={env['nproc']} pinned_cpu={env['pinned_cpu']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} jsonschema={env['jsonschema']} "
          f"commit={env['commit']} src_lines={env['src_lines']['total']}")
    print("blas threads: " + " ".join(f"{k}={v}" for k, v in env["blas_threads"].items()))
    print(f"item: {r['item']}")
    print(f"loop: {r['loop']}; {r['items']} items in {r['cycles']} cycles, "
          f"{r['timed_s']:.3f} s of timed calls")
    if r["trace"]:
        print(f"traced pass: {r['traced_items']} items, {r['spans']} spans; "
              "per item, busy and self times are wall seconds")
    else:
        print("times at the reference machine speed (see bench/speed.py):")
    for name, m in r["metrics"].items():
        print_metric(name, m)
    if "wall" in r:
        print("the same timings as measured wall times:")
        for name, m in r["wall"].items():
            print_metric(name, m)
    for p in r.get("predictions", []):
        print(f"  prediction: {p['claim']}: {p['value']:.3f} -> "
              f"{'met' if p['met'] else 'NOT MET'}")
    print(f"  error_rate {r['error_rate']:.6g} ({r['failed']} failed of {r['attempted']})")
    for reason in r["failures"]:
        print(f"  failed: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trinoids benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trinoids", "__init__.py")):
        print(f"error: no trinoids package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    nproc = len(os.sched_getaffinity(0))
    # The machine's speed changes independently on each CPU, so the speed
    # probes must run on the CPU that runs the timed work: pin this process
    # and, by inheritance, every worker to one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        reports = [run_one(w, args.seed, args.seconds, args.trace, nproc) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        print_report(r)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    if args.workload == "all" and failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
