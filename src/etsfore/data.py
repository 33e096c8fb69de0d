"""Dataset handling: CSV ingestion, normalization, chronological splits,
windowing, the synthetic saturating-trend + two-tone benchmark generator,
training-time augmentations, and evaluation metrics.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import datetime
from typing import NoReturn

import numpy as np

from .errors import ConfigError, DataError, DimensionError, ParseError


@dataclass
class Series:
    """Multivariate series in observation space: values (T, m)."""

    values: np.ndarray
    timestamps: list[str] | None = None
    names: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise DataError(f"series values must be (T, m) with T >= 1, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise DataError("series contains non-finite values")
        T, m = self.values.shape
        if self.timestamps is not None and len(self.timestamps) != T:
            raise DataError(f"series has {T} rows but {len(self.timestamps)} timestamps")
        if self.names is not None and len(self.names) != m:
            raise DataError(f"series has {m} channels but {len(self.names)} names")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass
class SplitSpec:
    train: float = 0.7
    val: float = 0.1
    test: float = 0.2

    def __post_init__(self):
        if min(self.train, self.val, self.test) <= 0:
            raise ConfigError(f"split fractions must be positive: {self}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1: {self}")


@dataclass
class WindowPair:
    """One training example: target starts exactly where the lookback ends."""

    lookback: np.ndarray  # (L, m)
    target: np.ndarray  # (H, m)
    origin: int  # index of the first target step within the source series


def load_csv(path: str) -> Series:
    """Parse a header-ed CSV of numeric channels, optional ISO-8601 first column.

    Timestamps must increase strictly from row to row and be all naive or
    all UTC-offset-aware.

    The last line must end with a line break, as in instance CSVs: a file
    cut inside its last value can still end in a number that parses.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
        rows = [(reader.line_num, row) for row in reader if row]
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except csv.Error as e:  # a field past csv.field_size_limit(), say
        raise ParseError(f"{path}: line {reader.line_num}: {e}") from None
    if not raw.endswith(b"\n"):
        raise ParseError(f"{path}: line {reader.line_num}: no line break at the end (truncated?)")
    if not rows:
        raise DataError(f"{path}: no data rows")

    def looks_like_timestamp(cell: str) -> bool:
        try:
            float(cell)
            return False
        except ValueError:
            pass
        try:
            datetime.fromisoformat(cell)
            return True
        except ValueError:
            return False

    has_ts = looks_like_timestamp(rows[0][1][0])
    first_data_col = 1 if has_ts else 0
    names = [h.strip() for h in header[first_data_col:]]
    if not names:
        raise DataError(f"{path}: no value columns, only {header}")
    timestamps: list[str] | None = [] if has_ts else None
    values = np.empty((len(rows), len(names)))
    prev = None
    for i, (line_no, row) in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}")
        if has_ts:
            try:
                when = datetime.fromisoformat(row[0])
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: bad timestamp {row[0]!r}") from None
            # the splits are chronological by row order, so time must run forwards
            if prev is not None:
                if (when.utcoffset() is None) != (prev.utcoffset() is None):
                    raise ParseError(
                        f"{path}: line {line_no}: timestamp {row[0]!r} mixes naive and "
                        f"UTC-offset times with {timestamps[-1]!r}"
                    )
                if when <= prev:
                    raise ParseError(
                        f"{path}: line {line_no}: timestamp {row[0]!r} does not come after "
                        f"{timestamps[-1]!r}"
                    )
            prev = when
            timestamps.append(row[0])
        for j, cell in enumerate(row[first_data_col:]):
            try:
                v = _ascii_float(cell)
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: non-numeric value {cell!r}") from None
            if not math.isfinite(v):
                raise ParseError(f"{path}: line {line_no}: non-finite value {cell!r}")
            values[i, j] = v
    return Series(values=values, timestamps=timestamps, names=names)


def _ascii_float(text: str) -> float:
    """float() without the grammar loadtxt lacks: no `_` and no non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain float literal: {text!r}")
    return float(text)


@dataclass
class NormStats:
    mean: np.ndarray  # (m,)
    std: np.ndarray  # (m,), degenerate channels guarded to 1


def compute_stats(train_values: np.ndarray) -> NormStats:
    values = np.asarray(train_values, dtype=np.float64).reshape(-1, np.shape(train_values)[-1])
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return NormStats(mean=mean, std=std)


def normalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - stats.mean) / stats.std


def split_chronological(
    series: Series, spec: SplitSpec, min_len: int = 1
) -> tuple[Series, Series, Series]:
    """Contiguous, ordered, non-overlapping train/val/test split."""
    T = series.length
    n_train = int(spec.train * T)
    n_val = int(spec.val * T)
    bounds = (0, n_train, n_train + n_val, T)
    lengths = tuple(bounds[i + 1] - bounds[i] for i in range(3))
    if min(lengths) < min_len:
        raise DataError(
            f"series of length {T} too short for split {lengths}: every part needs >= {min_len} steps"
        )
    parts = []
    for i in range(3):
        lo, hi = bounds[i], bounds[i + 1]
        ts = series.timestamps[lo:hi] if series.timestamps is not None else None
        parts.append(Series(series.values[lo:hi], timestamps=ts, names=series.names))
    return tuple(parts)


def window_dataset(series: Series, lookback: int, horizon: int) -> list[WindowPair]:
    """Every contiguous (lookback, target) pair, one per start step."""
    T = series.length
    if T < lookback + horizon:
        raise DataError(
            f"series length {T} shorter than lookback+horizon = {lookback + horizon}"
        )
    pairs = []
    for start in range(T - lookback - horizon + 1):
        t = start + lookback
        pairs.append(
            WindowPair(
                lookback=series.values[start:t],
                target=series.values[t : t + horizon],
                origin=t,
            )
        )
    return pairs


# ---------------------------------------------------------------------------
# synthetic benchmark data

TREND_RATE = -0.2
TREND_MIDPOINT = 192.0
TONE_FREQS = (1.0 / 10.0, 1.0 / 13.0)
TONE_AMPS = (0.15, 0.15)
SYNTH_LOOKBACK = 192
SYNTH_HORIZON = 48


def synth_trend(t: np.ndarray) -> np.ndarray:
    """Saturating logistic trend; equals 0.5 at the midpoint step."""
    t = np.asarray(t, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(TREND_RATE * (t - TREND_MIDPOINT)))


def synth_seasonal(t: np.ndarray) -> np.ndarray:
    """Two-tone periodic pattern with periods 10 and 13."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    for f, a in zip(TONE_FREQS, TONE_AMPS):
        out += a * np.cos(2.0 * np.pi * f * t)
    return out


@dataclass
class SynthDataset:
    """Generated instances, one univariate window pair each: values (n, L+H, 1)."""

    values: np.ndarray
    lookback: int
    horizon: int
    noise_std: float
    seed: int

    def window_pairs(self) -> list[WindowPair]:
        L = self.lookback
        return [
            WindowPair(lookback=v[:L], target=v[L:], origin=L) for v in self.values
        ]


def synth_generate(
    num_instances: int,
    noise_std: float,
    seed: int,
    lookback: int = SYNTH_LOOKBACK,
    horizon: int = SYNTH_HORIZON,
) -> SynthDataset:
    """Instance i is trend(t) + seasonal(t + i) + noise over t = 1..L+H."""
    if noise_std < 0:
        raise DataError(f"noise_std must be >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    t = np.arange(1, lookback + horizon + 1, dtype=np.float64)
    rows = np.empty((num_instances, lookback + horizon))
    trend = synth_trend(t)
    for i in range(num_instances):
        rows[i] = trend + synth_seasonal(t + i)
    if noise_std > 0:
        rows += rng.normal(0.0, noise_std, size=rows.shape)
    return SynthDataset(
        values=rows[..., None],
        lookback=lookback,
        horizon=horizon,
        noise_std=noise_std,
        seed=seed,
    )


SYNTH_MAGIC = "# etsfore-synth"
# The most cells (instances x (lookback + horizon)) an instance dataset may
# have: `synth` writes no larger one and `read_synth_csv` reads none.
MAX_INSTANCE_CELLS = 2**24


def write_synth_csv(ds: SynthDataset, path: str) -> None:
    """Instance CSV with a metadata comment row, then (instance, t, value) rows."""
    with open(path, "w", newline="") as fh:
        fh.write(
            f"{SYNTH_MAGIC} lookback={ds.lookback} horizon={ds.horizon} "
            f"noise={ds.noise_std!r} seed={ds.seed} instances={len(ds.values)}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["instance", "t", "value"])
        for i, row in enumerate(ds.values[:, :, 0]):
            for t, v in enumerate(row, start=1):
                writer.writerow([i, t, f"{v:.17g}"])


def _synth_meta(path: str, tokens: str) -> tuple[int, int, int, float, int]:
    """(lookback, horizon, instances, noise, seed) from the metadata row.

    Integer values are plain digits, `[0-9]+`; noise is a finite float >= 0,
    the value `synth --noise` accepts. A key may appear once.
    """
    meta = {}
    for token in tokens.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ParseError(f"{path}: line 1: metadata token {token!r} is not key=value")
        if key in meta:
            raise ParseError(f"{path}: line 1: repeated metadata key {key!r}")
        meta[key] = value
    for key in ("lookback", "horizon", "instances", "noise", "seed"):
        if key not in meta:
            raise ParseError(f"{path}: line 1: missing metadata key {key!r}")
    integers = ("lookback", "horizon", "instances", "seed")
    for key in integers:
        if not re.fullmatch("[0-9]+", meta[key]):
            raise ParseError(f"{path}: line 1: bad metadata value {key}={meta[key]!r}")
    L, H, n, seed = (int(meta[key]) for key in integers)
    for key, size in (("lookback", L), ("horizon", H), ("instances", n)):
        if size < 1:
            raise ParseError(f"{path}: line 1: metadata {key}={size} must be positive")
    try:
        noise = _ascii_float(meta["noise"])
    except ValueError:
        raise ParseError(f"{path}: line 1: bad metadata value noise={meta['noise']!r}") from None
    if not 0.0 <= noise < math.inf:
        raise ParseError(f"{path}: line 1: metadata noise={meta['noise']} must be finite and >= 0")
    if (cells := n * (L + H)) > MAX_INSTANCE_CELLS:
        raise ParseError(
            f"{path}: line 1: metadata instances={n} x (lookback={L} + horizon={H}) "
            f"is {cells} cells, more than the {MAX_INSTANCE_CELLS} allowed"
        )
    return L, H, n, noise, seed


# One instance-CSV row: integer instance, integer t, float value.
_SYNTH_ROW = np.dtype([("instance", np.int64), ("t", np.int64), ("value", np.float64)])


def read_synth_csv(path: str) -> SynthDataset:
    """Inverse of write_synth_csv, in the row order it writes.

    A row is exactly `instance,t,value`: two integer literals and a float,
    unquoted, ending in LF or CRLF. Row r of the body (line 3 + r) must be
    the cell (instance r // T, t r % T + 1), T = lookback + horizon, so the
    values are the value column in row order. A line that is not such a
    row or holds a non-finite value raises ParseError naming its line; so
    does the first row out of place (naming the cell expected there and
    the cell found) and a row past the last cell. A file that stops short
    raises ParseError naming the first missing cell. So do bytes that are
    not UTF-8, a missing or bad metadata key, a non-positive lookback,
    horizon or instance count, more than MAX_INSTANCE_CELLS cells, a missing
    header and a last row without its line break, which a truncated file
    cannot be told apart from.
    """
    with open(path, "rb") as fh:
        meta_line = _decode(path, 1, fh.readline()).strip()
        if not meta_line.startswith(SYNTH_MAGIC):
            raise ParseError(f"{path}: not an instance dataset (missing metadata row)")
        L, H, n, noise, seed = _synth_meta(path, meta_line[len(SYNTH_MAGIC) :])
        header = _decode(path, 2, fh.readline())
        if _fields(header) != ["instance", "t", "value"]:
            raise ParseError(f"{path}: unexpected header {_fields(header)}")
        body = fh.read()
    lines = body.count(b"\n")
    if not (body.endswith(b"\n") if body else header.endswith("\n")):
        # a cut inside the last value can still leave a number that parses
        last = 3 + lines if body else 2
        raise ParseError(f"{path}: line {last}: no line break at the end (truncated?)")
    T = L + H
    # One pass parses every row; row r is line 3 + r unless loadtxt skipped
    # a blank line, which it does silently (and warns when no row is left).
    try:
        rows = (np.loadtxt(io.BytesIO(body), dtype=_SYNTH_ROW, delimiter=",", comments=None,
                           ndmin=1, encoding="utf-8")
                if body and not body.isspace() else np.empty(0, _SYNTH_ROW))
    except ValueError:  # UnicodeDecodeError too
        rows = None
    if rows is None or rows.size != lines:
        _reject_first_bad_line(path, body)
    bad = ~np.isfinite(rows["value"])
    if bad.any():
        raise ParseError(f"{path}: line {3 + int(bad.argmax())}: non-finite value")
    _reject_first_row_out_of_place(path, rows, n, T)
    return SynthDataset(
        # an owned C-contiguous copy, so the parsed rows can be freed
        values=rows["value"].reshape(n, T, 1).copy(),
        lookback=L,
        horizon=H,
        noise_std=noise,
        seed=seed,
    )


def _reject_first_bad_line(path: str, body: bytes) -> NoReturn:
    """Raise ParseError for the first line of a rejected body that is not a row.

    Each line is parsed alone, by the same loadtxt call, so an index too
    large for int64 is a malformed row.
    """
    for line_no, raw in enumerate(io.BytesIO(body), start=3):
        line = _decode(path, line_no, raw)
        fields = _fields(line)
        if len(fields) == 3:
            try:
                np.loadtxt([line], dtype=_SYNTH_ROW, delimiter=",", comments=None)
                continue
            except ValueError:
                pass
        raise ParseError(f"{path}: line {line_no}: malformed row {fields!r}")
    raise ParseError(f"{path}: rows do not parse")  # no line alone fails to parse


def _reject_first_row_out_of_place(path: str, rows: np.ndarray, n: int, T: int) -> None:
    """Raise ParseError unless row r is the cell (r // T, r % T + 1), r < n * T."""
    # at most n * T rows are compared, whatever instance count the metadata gives
    inst, step = np.divmod(np.arange(min(rows.size, n * T)), T)
    step += 1
    found = rows[: inst.size]
    bad = (found["instance"] != inst) | (found["t"] != step)
    if bad.any():
        r = int(bad.argmax())
        raise ParseError(
            f"{path}: line {3 + r}: expected instance {inst[r]}, t {step[r]}, "
            f"found instance {found['instance'][r]}, t {found['t'][r]}"
        )
    if rows.size > n * T:
        raise ParseError(f"{path}: line {3 + n * T}: row past the last cell, instance {n - 1}, t {T}")
    if rows.size < n * T:
        raise ParseError(
            f"{path}: no row for instance {rows.size // T}, t {rows.size % T + 1} "
            f"({rows.size} rows for {n} instances x {T} steps)"
        )


def _fields(line: str) -> list[str]:
    """A row's comma-separated fields, without its LF or CRLF line end."""
    return line.removesuffix("\n").removesuffix("\r").split(",")


def _decode(path: str, line_no: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: line {line_no}: not UTF-8 text") from None


def is_synth_csv(path: str) -> bool:
    with open(path, "rb") as fh:
        return _decode(path, 1, fh.readline()).startswith(SYNTH_MAGIC)


# ---------------------------------------------------------------------------
# augmentation and metrics

AUGMENT_SIGMA = 0.2
AUGMENT_PROB = 0.5  # chance that each stage fires


def augment_pair(
    lookback: np.ndarray, target: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Scale, shift, jitter — in that order, each firing independently
    with probability AUGMENT_PROB.

    The same draw is applied to lookback and target so the pair stays
    consistent. Scale multiplies by eps ~ N(0, AUGMENT_SIGMA) as drawn,
    not by 1 + eps.
    """
    joined = np.concatenate([lookback, target], axis=0).astype(np.float64, copy=True)
    if rng.random() < AUGMENT_PROB:
        joined *= rng.normal(0.0, AUGMENT_SIGMA)
    if rng.random() < AUGMENT_PROB:
        joined += rng.normal(0.0, AUGMENT_SIGMA)
    if rng.random() < AUGMENT_PROB:
        joined += rng.normal(0.0, AUGMENT_SIGMA, size=joined.shape)
    L = lookback.shape[0]
    return joined[:L], joined[L:]


def metrics(pred: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) as means over every entry."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), float(np.mean(np.abs(diff)))
