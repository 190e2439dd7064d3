"""Benchmark for coxhecke, run from the root of a source checkout.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

One client in one process calls the package in a closed loop: each
operation starts when the previous one has returned.  The inputs are
generated from the seed; the program sees only the group files, q values
and Hecke elements the benchmark writes or builds.  The timed loop does a
fixed amount of work: ``--seconds`` is turned into a number of rounds by
fixed per-workload constants, never by timing, so two commits run the
same operations.  Every answer is checked as soon as it returns, outside
the timed region, against independent oracles (see ``oracle.py``).
Timings are normalized to a reference machine speed (see ``speed.py``);
the raw figures are printed on the line before the result.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics; with ``--trace 1`` the run repeats the loop with the outside-in
tracer installed and reports per-layer metrics instead (see
``tracer.py``).  ``--workload all`` runs each workload in its own process.
The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 before printing a result.
"""

from __future__ import annotations

import os

# One BLAS thread: the loop is single-client, and nproc may be as small as 2.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe, measure_kernel, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("certify", "hecke", "spectrum", "ball-scan")

#: Approximate seconds one round of each workload takes on a 2-vCPU Xeon
#: (the reference machine); ``--seconds`` / this gives the round count.
ROUND_SECONDS = {"certify": 15.0, "hecke": 15.0, "spectrum": 15.0,
                 "ball-scan": 15.0}

SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def verdict(op, out) -> bool | None:
    if isinstance(out, Exception):
        return False
    try:
        return op.check(out)
    except Exception:                     # malformed output is a wrong answer
        return False


def closed_loop(ops, wrap=None):
    """Run every operation once, in order, and check each answer as soon as
    it returns, so no output outlives its check.  Returns the (start, end)
    of each operation, checks excluded, and the verdicts; an operation
    that raises counts as failed."""
    gc.collect()
    clock = time.perf_counter
    spans, verdicts = [], []
    for op in ops:
        fn = op.run if wrap is None else wrap(op.run)
        begin = clock()
        try:
            out = fn()
        except Exception as exc:          # counted as a failed operation
            out = exc
        spans.append((begin, clock()))
        verdicts.append(verdict(op, out))
        del out
    return spans, verdicts


def timed_loop(ops, wrap=None):
    """closed_loop under a speed probe: (probe, raw latencies, normalized
    latencies, verdicts)."""
    with SpeedProbe() as probe:
        spans, verdicts = closed_loop(ops, wrap)
    begin, end = zip(*spans)
    raw = [b - a for a, b in spans]
    return probe, raw, [float(t) for t in probe.normalize(begin, end)], verdicts


def tail(lat: list[float]) -> dict | None:
    """The highest listed percentile with at least 10 samples beyond it."""
    n = len(lat)
    ordered = sorted(lat)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return {"percentile": pct, "beyond": n - rank, "samples": n,
                    "ms": ordered[rank - 1] * 1e3}
    return None


def setup_samples(args) -> list[float]:
    """Set-up times of fresh processes, each importing the package and
    building the same inputs, normalized by kernel runs before and after."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_one(args) -> int:
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        before = measure_kernel(20) if args.setup_probe else 0.0
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import workloads
        ops = workloads.build(args.workload, args.seed, workdir,
                              rounds_for(args.workload, args.seconds))
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            kernel_s = (before + measure_kernel(20)) / 2
            print(repr(setup_s * scale(kernel_s)))
            return 0
        setups = setup_samples(args) if not args.trace else []

        probe, raw, lat, verdicts = timed_loop(ops)
        wall = sum(lat)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = verdicts.count(False)
        attempted = len(ops)

        by_kind: dict[str, list[float]] = {}
        for op, t in zip(ops, lat):
            by_kind.setdefault(op.kind, []).append(t)
        kinds = {k: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3}
                 for k, v in by_kind.items()}
        info = {"workload": args.workload, "seed": args.seed,
                "rounds": rounds_for(args.workload, args.seconds),
                "ops": kinds, "failed_frac": failed / attempted,
                "skipped_checks": verdicts.count(None), "op_tail": tail(lat),
                "raw_wall_s": sum(raw),
                "raw_op_p50_ms": statistics.median(raw) * 1e3,
                "speed_samples": len(probe.kernel_s),
                "kernel_p50_ms": statistics.median(probe.kernel_s) * 1e3,
                "setup_samples_s": setups, "this_setup_s": setup_s,
                **machine()}

        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                probe2, _, lat2, verdicts2 = timed_loop(ops, wrap=tracer.block)
            finally:
                tracer.uninstall()
            failed += verdicts2.count(False)
            attempted += len(ops)
            metrics = tracer.metrics(probe2, sum(lat2), wall)
        else:
            metrics = {
                "wall_s": (wall, "s"),
                "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        print(json.dumps({"info": info}))
        for key, (value, unit) in metrics.items():
            print(f"{args.workload:10s} {key:28s} {value:16.6f} {unit}")
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, since peak RSS is a process-lifetime
    high-water mark; prints the children's reports and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coxhecke" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'coxhecke'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
