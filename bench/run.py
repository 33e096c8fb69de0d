"""Benchmark of etsfore: one workload, one seed, one measured run.

    python3 bench/run.py --workload serve_cli --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. The run sets the workload up, warms up with one checked operation,
then runs operations in a closed loop with one client for --seconds,
checking every output outside the timed region. Last it times repeated
set-ups (setup_s is their median). stdout ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics of
a traced run with --trace 1. Lines before it record the environment and
print the workload's own metrics by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0
MIN_OPS = 3
# Serving latency is reported at p90, which needs >= 10 samples beyond it.
MIN_OPS_SERVE = 100


def add_program_path() -> None:
    """Put the checkout's etsfore sources first on sys.path, or fail."""
    if not os.path.isfile(os.path.join(SRC, "etsfore", "__init__.py")):
        raise SystemExit(f"error: no etsfore sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# glibc raises its mmap threshold as a process frees large blocks, up to
# 32 MiB, and the trim threshold to twice that. A long-running etsfore
# process ends up there, with its numpy temporaries on the heap. The
# benchmark pins both at those values from the start: the dynamic
# threshold would otherwise move at a different point in every run, and
# peak RSS and inference time would flip with it.
MMAP_THRESHOLD = 32 * 1024 * 1024
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def pin_malloc() -> bool:
    """Fix glibc's mmap and trim thresholds; False where mallopt is missing."""
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD) == 1)


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _blas_threads() -> int | None:
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int, malloc_pinned: bool) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "malloc_mmap_threshold": MMAP_THRESHOLD if malloc_pinned else "default",
        "seed": seed,
    }


class Loop:
    """Closed-loop measurement of one workload with one client.

    `latencies` are host-corrected operation times (see hostspeed.py),
    `wall` the raw wall times they came from.
    """

    def __init__(self, wl, probe, tracer=None):
        self.wl, self.probe, self.tracer = wl, probe, tracer
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.factors: dict[int, float] = {}
        self.quality: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.ok_units = 0
        self.k = 0
        self.traced_ops = 0

    def step(self, timed: bool = True) -> None:
        k, self.k = self.k, self.k + 1
        recording = self.tracer.recording(k) if self.tracer else contextlib.nullcontext()
        ok, q = False, math.nan
        t0 = time.perf_counter()
        try:
            with recording:
                out = self.wl.op(k)
        except Exception:  # one failed operation must not end the run
            t1 = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
        else:
            t1 = time.perf_counter()
            try:
                ok, q = self.wl.check(k, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {self.wl.name} operation {k}", file=sys.stderr)
        self.factors[k] = self.probe.factor(t0, t1)
        if timed:
            self.wall.append(t1 - t0)
            self.latencies.append(self.probe.corrected(t0, t1))
            if ok:
                self.ok_units += self.wl.units_per_op
                self.quality.append(q)

    def run(self, seconds: float, min_ops: int) -> None:
        deadline = time.perf_counter() + seconds
        n0 = len(self.latencies)
        while len(self.latencies) - n0 < min_ops or time.perf_counter() < deadline:
            self.step()


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, warm up and measure one workload; returns the result record."""
    import hostspeed
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, WORKDIR, tiny=tiny)
    min_ops = 2 if tiny else MIN_OPS_SERVE if name == "serve_cli" else MIN_OPS
    native = {}
    with hostspeed.SpeedProbe(wl.probe) as probe:
        wl.setup()
        loop = Loop(wl, probe)
        loop.step(timed=False)  # warm-up: first-call costs
        if not trace:
            loop.run(seconds, min_ops)
        else:
            metrics = traced_run(loop, name, seed, seconds, min_ops)
            native["ops_traced"] = (loop.traced_ops, "count")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Set-up is timed last, for at least SETUP_SECONDS: its repetitions
        # then average many probe samples, and their number, which varies
        # with the host's speed, cannot change the heap layout, and so the
        # peak RSS, of the operations before them.
        setup_times = []
        deadline = time.perf_counter() + (0.0 if tiny else SETUP_SECONDS)
        while len(setup_times) < SETUP_REPEATS or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(probe.corrected(t0, time.perf_counter()))
    e2e = end_to_end(loop, setup_times, peak_rss_mb)
    if not trace:
        metrics = e2e
    native.update(native_metrics(name, loop, e2e))
    return {
        "workload": name,
        "native": native,
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def traced_run(loop: Loop, name: str, seed: int, seconds: float, min_ops: int) -> dict[str, float]:
    """Half the time untraced, half traced; their ratio is the tracing overhead."""
    from tracing import Tracer

    loop.run(seconds / 2, min_ops)
    untraced = statistics.median(loop.latencies)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Loop(loop.wl, loop.probe, tracer)
        traced.k = loop.k
        traced.step(timed=False)  # first traced call: wrappers warm
        tracer.clear()
        traced.run(seconds / 2, min_ops)
    finally:
        tracer.uninstall()
    probe = loop.probe

    def duration(start: float, end: float, request: int) -> float:
        return (end - start - probe.handler_time(start, end)) / traced.factors[request]

    metrics = tracer.metrics(len(traced.latencies), duration)
    metrics["trace.overhead_pct"] = (statistics.median(traced.latencies) / untraced - 1.0) * 100
    # the untraced half's raw wall time and host correction, next to the spans
    metrics["host.wall_p50_ms"] = statistics.median(loop.wall) * 1e3
    metrics["host.slowdown"] = statistics.median(loop.factors[k] for k in range(1, loop.k))
    tracer.write(os.path.join(WORKDIR, f"trace-{name}-seed{seed}.jsonl"))
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    loop.traced_ops = len(traced.latencies)
    return metrics


UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms_p50": "ms", "peak_rss_mb": "MB"}


def end_to_end(loop: Loop, setup_times: list[float], peak_rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": loop.ok_units / sum(loop.latencies),
        "latency_ms_p50": statistics.median(loop.latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def native_metrics(name: str, loop: Loop, e2e: dict[str, float]) -> dict:
    """The workload's own metric names, each as (value, unit)."""
    lat = loop.latencies
    mse = statistics.fmean(loop.quality) if loop.quality else math.nan
    rate = e2e["throughput_per_s"]
    out = {
        "ops": (len(lat), "count"),
        "error_rate": (loop.failed / loop.attempted, "ratio"),
        "setup_s": (e2e["setup_s"], "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        "wall_ms_p50": (statistics.median(loop.wall) * 1e3, "ms"),
        "host_slowdown": (statistics.median(loop.factors.values()), "x"),
    }
    if name == "train_desk":
        out.update(train_windows_per_s=(rate, "1/s"), train_val_mse=(mse, "mse"))
    elif name == "infer_batch":
        out.update(infer_windows_per_s=(rate, "1/s"), infer_mse=(mse, "mse"))
    elif name == "serve_cli":
        out.update(
            serve_ms_p50=(statistics.median(lat) * 1e3, "ms"),
            serve_ms_p90=(statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
            serve_requests_per_s=(rate, "1/s"),
            serve_mse=(mse, "mse"),
        )
    elif name == "baseline_hw":
        out.update(baseline_channels_per_s=(rate, "1/s"), baseline_mse=(mse, "mse"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_desk", "infer_batch", "serve_cli", "baseline_hw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy model and inputs (smoke test), not for measurement")
    args = parser.parse_args(argv)
    add_program_path()
    # only in the benchmark's own process: the setting lasts until it exits
    pinned = pin_malloc()

    print(json.dumps({"env": environment(args.seed, pinned)}))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    for key, (value, unit) in result["native"].items():
        print(f"{args.workload} {key} = {value} {unit}")
    from tracing import unit_of

    units = {k: unit_of(k) for k in result["metrics"]} if args.trace else UNITS
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
