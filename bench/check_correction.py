"""Check that the host-speed correction keeps a program's own slowdown.

    python3 bench/check_correction.py --seed 1 --pairs 15

For each workload, this adds a known extra cost to the operation and times
the plain and the slowed operation in alternation, in one process, under
the same SpeedProbe that run.py uses. It prints the slowdown the extra cost
causes, once in wall time (less the probe's own handler time) and once in
corrected time. The correction is sound if both agree: a corrected
benchmark then shows a program change at its full size. Alternation puts
both operations under the same host conditions, so the wall-time ratio is
the reference.

The extra costs differ in kind, to catch a probe that reacts to the
program's own behaviour rather than to the host's:

- csv:     re-parse a 40-instance synth CSV (interpreter and allocator
           work, garbage collections);
- forward: forecast a batch of 8 desk-config windows (numpy, FFTs, BLAS);
- sweep:   copy a 16 MiB array (memory traffic, evicts the L2 cache).

Each is repeated to add about half of the operation's own time.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import run

run.add_program_path()

import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from etsfore import data, model  # noqa: E402


def _extra_costs(workdir: str) -> dict:
    cfg = model.ModelConfig(**workloads.DESK)
    ds = data.synth_generate(40, workloads.NOISE, 0, cfg.lookback, cfg.horizon)
    path = os.path.join(workdir, "check_synth.csv")
    data.write_synth_csv(ds, path)
    x = ds.values[:8, : cfg.lookback]
    state = model.ModelState.init(cfg, workloads.MODEL_SEED)
    src = np.random.default_rng(0).normal(size=(1 << 21,))
    dst = np.empty_like(src)
    return {
        "csv": lambda: data.read_synth_csv(path),
        "forward": lambda: model.forecast(x, state),
        "sweep": lambda: np.copyto(dst, src),
    }


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def check(name: str, seed: int, pairs: int, extras: dict) -> list[tuple[str, float, float]]:
    wl = workloads.WORKLOADS[name](seed, run.WORKDIR)
    wl.setup()
    rows = []
    with hostspeed.SpeedProbe(wl.probe) as probe:
        wl.op(0)
        op_s = statistics.median(_wall(lambda: wl.op(0)) for _ in range(3))
        for kind, extra in extras.items():
            extra()
            repeats = max(1, round(0.5 * op_s / statistics.median(_wall(extra) for _ in range(3))))

            def slowed():
                out = wl.op(0)
                for _ in range(repeats):
                    extra()
                return out

            times = {False: ([], []), True: ([], [])}  # slowed -> (wall, corrected)
            for i in range(pairs):
                for slow in ((False, True) if i % 2 == 0 else (True, False)):
                    t0 = time.perf_counter()
                    (slowed if slow else lambda: wl.op(0))()
                    t1 = time.perf_counter()
                    times[slow][0].append(t1 - t0 - probe.handler_time(t0, t1))
                    times[slow][1].append(probe.corrected(t0, t1))
            wall, corrected = (
                statistics.median(times[True][j]) / statistics.median(times[False][j]) for j in (0, 1)
            )
            rows.append((kind, wall, corrected))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    os.makedirs(run.WORKDIR, exist_ok=True)
    run.pin_malloc()
    extras = _extra_costs(run.WORKDIR)
    print("workload     extra    wall_ratio corrected_ratio corrected/wall")
    for name in args.workload or list(workloads.WORKLOADS):
        for kind, wall, corrected in check(name, args.seed, args.pairs, extras):
            print(f"{name:12s} {kind:8s} {wall:10.3f} {corrected:15.3f} {corrected / wall:14.3f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
