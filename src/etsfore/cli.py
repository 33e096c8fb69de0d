"""Command-line surface.

stdout carries only machine-readable payloads (JSON lines or CSV); all
diagnostics go to stderr. Exit codes: 0 ok, 1 usage/config, 2 data,
3 numeric failure. ETSFORE_SEED overrides the config seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import autodiff as ad
from . import classical, data, esa, model, trainer
from .errors import (
    ConfigError,
    DataError,
    EtsforeError,
    EvaluationError,
    TrainingError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# `baseline --grid` tries grid**4 candidates: at most 2**20.
MAX_GRID = 32
# `bench-esa` forms the naive (L, L + 1) attention matrix and (L, d) values:
# each at most 2**26 float64 words (512 MiB) at the largest length L.
MAX_BENCH_WORDS = 2**26


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj: dict) -> None:
    """Print obj as one JSON line. JSON has no NaN or infinity: a non-finite
    value raises EvaluationError (exit 3) showing the object, and nothing is
    printed."""
    try:
        line = json.dumps(obj, allow_nan=False)
    except ValueError:
        raise EvaluationError(f"non-finite value in output {json.dumps(obj)}") from None
    print(line)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Reject a flag value with a ConfigError naming the flag (exit 1)."""
    if not ok:
        raise ConfigError(f"{flag} must {rule}, got {value}")


# ---------------------------------------------------------------------------
# run configuration

def load_run_config(path: str, channels: int):
    """Strict JSON run config -> (ModelConfig, TrainConfig, SplitSpec).

    Unknown sections or keys, missing required keys and values of the wrong
    type raise ConfigError naming the section and key. `channels` fills
    model.channels when the config leaves it out; ETSFORE_SEED, when set,
    replaces the train seed and must be ASCII digits.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=model.unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    except ValueError as e:  # model.unique_keys: a repeated key
        raise ConfigError(f"{path}: {e}") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    sections = {"model": model.ModelConfig, "train": trainer.TrainConfig, "split": data.SplitSpec}
    unknown = sorted(set(raw) - set(sections))
    if unknown:
        raise ConfigError(f"{path}: unknown config sections: {unknown}")
    if isinstance(raw.get("model"), dict):
        raw["model"].setdefault("channels", channels)
    mcfg, tcfg, split = (
        model.from_dict(cls, raw.get(name, {}), f"{path}: {name}") for name, cls in sections.items()
    )
    env_seed = os.environ.get("ETSFORE_SEED")
    if env_seed is not None:
        try:
            # ASCII digits only: int() also reads "7_0", " 7 ", "+7" and "٧"
            if not re.fullmatch("[0-9]+", env_seed):
                raise ValueError(env_seed)
            tcfg = dataclasses.replace(tcfg, seed=int(env_seed))
        except ValueError:  # int() also refuses more than sys.get_int_max_str_digits() digits
            raise ConfigError(
                f"ETSFORE_SEED must be a non-negative integer, got {env_seed!r}"
            ) from None
    return mcfg, tcfg, split


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    for flag in ("n", "lookback", "horizon"):
        _require(getattr(args, flag) >= 1, f"--{flag}", "be >= 1", getattr(args, flag))
    _require(args.seed >= 0, "--seed", "be >= 0", args.seed)
    _require(0.0 <= args.noise < math.inf, "--noise", "be finite and >= 0", args.noise)
    cells = args.n * (args.lookback + args.horizon)
    _require(cells <= data.MAX_INSTANCE_CELLS, "--n x (--lookback + --horizon)",
             f"be at most {data.MAX_INSTANCE_CELLS} cells", cells)
    ds = data.synth_generate(
        args.n, args.noise, args.seed, lookback=args.lookback, horizon=args.horizon
    )
    flat = ds.values[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        summary = {"mean": float(flat.mean()), "std": float(flat.std()),
                   "min": float(flat.min()), "max": float(flat.max())}
    # a noise level near the float64 range overflows the values or their std;
    # min and max are finite only when every value is
    _require(all(map(math.isfinite, summary.values())), "--noise",
             "keep the generated values and their summary finite", args.noise)
    data.write_synth_csv(ds, args.out)
    _emit({"instances": len(flat), "lookback": ds.lookback, "horizon": ds.horizon,
           "noise": args.noise, "seed": args.seed, **summary})
    return EXIT_OK


def cmd_train(args) -> int:
    _require(not os.path.isdir(args.out), "--out", "not be a directory", args.out)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        raise ConfigError(f"checkpoint directory not writable: {out_dir}")
    # the data is read first: its channel count fills a config that leaves it out
    ds = data.read_dataset(args.data)
    mcfg, tcfg, split = load_run_config(args.config, ds.channels)
    train_pairs, val_pairs, _, stats = ds.split_windows(
        mcfg.lookback, mcfg.horizon, mcfg.channels, split
    )
    _log(
        f"training on {len(train_pairs)} windows, validating on {len(val_pairs)}, "
        f"seed {tcfg.seed}"
    )
    ckpt, _ = trainer.train(mcfg, tcfg, train_pairs, val_pairs, stats, log_fn=_emit)
    ckpt.split = split
    trainer.save_checkpoint(ckpt, args.out)
    # the run's result, which the checkpoint does not keep; null when no epoch ran
    best = None if math.isnan(ckpt.best_val_mse) else ckpt.best_val_mse
    _emit({"checkpoint": args.out, "best_epoch": ckpt.best_epoch, "best_val_mse": best})
    return EXIT_OK


def _checkpoint_splits(args, ckpt):
    """(train, val, test) windows of --data, split as the checkpoint's run was
    and normalized by its training-time statistics, not the data file's."""
    c = ckpt.config
    ds = data.read_dataset(args.data)
    return ds.split_windows(c.lookback, c.horizon, c.channels, ckpt.split, ckpt.stats)[:3]


def cmd_evaluate(args) -> int:
    ckpt = trainer.load_checkpoint(args.model)
    train, val, test = _checkpoint_splits(args, ckpt)
    _emit(trainer.evaluate(ckpt, {"train": train, "val": val, "test": test}[args.split]))
    return EXIT_OK


def _window_for(args, ckpt) -> data.WindowPair:
    pairs = [p for g in _checkpoint_splits(args, ckpt) for p in g]
    if not 0 <= args.at < len(pairs):
        raise DataError(f"window index {args.at} outside [0, {len(pairs) - 1}]")
    return pairs[args.at]


def _emit_table(columns: list[str], rows: np.ndarray, fmt: str) -> None:
    if not np.isfinite(rows).all():  # in either format, as _emit does for JSON
        raise EvaluationError("non-finite value in the horizon table")
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(f"{v:.17g}" for v in row))
    else:
        _emit({"columns": columns, "rows": [[float(v) for v in row] for row in rows]})


def _channel_columns(base_names: list[str], m: int) -> list[str]:
    if m == 1:
        return base_names
    return [f"{name}_ch{c}" for name in base_names for c in range(m)]


def _horizon_table(args, keep: tuple[str, ...] | None) -> int:
    """Emit one window's horizon table: t, then each kept component per channel.

    The components are level, growth, seasonal, total, target and the
    per-stack growth and seasonal parts; keep=None keeps them all.
    """
    ckpt = trainer.load_checkpoint(args.model)
    pair = _window_for(args, ckpt)
    out = model.forecast(pair.lookback, ckpt.to_state())
    H, m = out.total.shape
    parts = {"level": out.level, "growth": out.growth, "seasonal": out.seasonal,
             "total": out.total, "target": pair.target}
    for n, (g, s) in enumerate(zip(out.stack_growth, out.stack_seasonal)):
        parts[f"growth{n}"], parts[f"seasonal{n}"] = g, s
    names = [name for name in parts if keep is None or name in keep]
    rows = np.hstack([np.arange(H)[:, None]] + [parts[name].reshape(H, m) for name in names])
    _emit_table(["t"] + _channel_columns(names, m), rows, args.format)
    return EXIT_OK


def cmd_forecast(args) -> int:
    return _horizon_table(args, ("total", "target"))


def cmd_decompose(args) -> int:
    return _horizon_table(args, None)


def cmd_baseline(args) -> int:
    # also rejects nan and inf
    _require(0.0 < args.test_fraction < 1.0, "--test-fraction", "lie in (0, 1)", args.test_fraction)
    _require(1 <= args.grid <= MAX_GRID, "--grid", f"lie in [1, {MAX_GRID}]", args.grid)
    series = data.load_csv(args.data)
    T = series.length
    n_test = classical.holdout_steps(T, args.test_fraction, args.period)
    test = series.values[T - n_test :]
    per_channel = []
    # values near the float64 limit overflow in the fit, the metrics and
    # their means; _emit reports the non-finite result as one typed error
    with np.errstate(over="ignore", invalid="ignore"):
        fits = classical.hw_fit_grid(series.values[: T - n_test], args.period, args.grid)
        for c, fit in enumerate(fits):
            pred = classical.hw_forecast(fit.state, fit.params, n_test)
            mse, mae = data.metrics(pred, test[:, c])
            per_channel.append(
                {
                    "channel": c,
                    "mse": mse,
                    "mae": mae,
                    "alpha": fit.params.alpha,
                    "beta": fit.params.beta,
                    "gamma": fit.params.gamma,
                    "phi": fit.params.phi,
                    "degenerate": fit.degenerate,
                }
            )
        summary = {
            "mse": float(np.mean([r["mse"] for r in per_channel])),
            "mae": float(np.mean([r["mae"] for r in per_channel])),
            "period": args.period,
            "test_steps": n_test,
            "channels": per_channel,
        }
    _emit(summary)
    return EXIT_OK


def bench_esa(lengths: list[int], d: int, repeats: int, seed: int = 0) -> list[dict]:
    """Mean wall time of the naive oracle and the fast path at each length."""
    rng = np.random.default_rng(seed)
    results = []
    for L in lengths:
        V = rng.normal(size=(L, d))
        Vt, v0 = ad.Tensor(V), np.zeros(d)
        with ad.no_grad():
            esa.esa_naive(V, 0.3, v0)  # warm caches before timing
            esa.esa_fast_t(Vt, 0.3, v0)
            naive_ms, fast_ms = 0.0, 0.0
            for _ in range(repeats):
                t0 = time.perf_counter()
                esa.esa_naive(V, 0.3, v0)
                t1 = time.perf_counter()
                esa.esa_fast_t(Vt, 0.3, v0)
                t2 = time.perf_counter()
                naive_ms += (t1 - t0) * 1e3
                fast_ms += (t2 - t1) * 1e3
        results.append(
            {"L": L, "naive_ms": naive_ms / repeats, "fast_ms": fast_ms / repeats}
        )
    return results


def cmd_bench_esa(args) -> int:
    try:
        lengths = [int(s) for s in args.lengths.split(",")]
        ok = min(lengths) >= 1 and sorted(lengths) == lengths
    except ValueError:
        ok = False
    _require(ok, "--lengths", "be positive ascending integers", repr(args.lengths))
    _require(args.d >= 1, "--d", "be >= 1", args.d)
    _require(args.repeats >= 1, "--repeats", "be >= 1", args.repeats)
    L = lengths[-1]
    _require(L * (L + 1) <= MAX_BENCH_WORDS, "--lengths",
             f"have a largest length L with L x (L + 1) <= {MAX_BENCH_WORDS}", L)
    _require(L * args.d <= MAX_BENCH_WORDS, "--d",
             f"be at most {MAX_BENCH_WORDS // L} for the largest length {L}", args.d)
    for row in bench_esa(lengths, args.d, args.repeats):
        _emit(row)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="etsfore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lookback", type=int, default=data.SYNTH_LOOKBACK)
    p.add_argument("--horizon", type=int, default=data.SYNTH_HORIZON)

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on one split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")

    p = sub.add_parser("forecast", help="emit the total forecast for one window")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--at", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("decompose", help="emit per-component forecasts for one window")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--at", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("baseline", help="Holt-Winters grid-fit baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--test-fraction", type=float, default=0.2)

    p = sub.add_parser("bench-esa", help="wall-time comparison of the two kernels")
    p.add_argument("--lengths", default="1024,4096")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--repeats", type=int, default=3)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first request: building it
    costs about a millisecond, which an in-process caller would otherwise
    pay on every request."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up per call, so a replaced cmd_* is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as e:
        return int(e.code or 0)
    except (DataError, OSError) as e:
        _log(f"error: {e}")
        return EXIT_DATA
    except (TrainingError, EvaluationError, FloatingPointError) as e:
        _log(f"error: {e}")
        return EXIT_NUMERIC
    except EtsforeError as e:  # ConfigError, DimensionError, DomainError
        _log(f"error: {e}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
