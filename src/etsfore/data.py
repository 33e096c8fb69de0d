"""Dataset handling: the one reader of a `--data` file (plain or instance
CSV) and each kind's split into normalized windows; normalization,
the synthetic saturating-trend + two-tone benchmark generator, and
evaluation metrics.
"""

from __future__ import annotations

import copy
import io
import json
import re
from dataclasses import dataclass
from datetime import datetime
from typing import Callable, NoReturn, TypeVar

import numpy as np

from .errors import ConfigError, DataError, DimensionError, ParseError
from .model import from_dict, read_json


@dataclass
class Series:
    """Multivariate series in observation space: values (T, m)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise DataError(f"series values must be (T, m) with T >= 1, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise DataError("series contains non-finite values")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    def split_windows(self, lookback: int, horizon: int, channels: int, split: SplitSpec,
                      stats: NormStats | None = None):
        """Normalized (train, val, test, stats): the series split in time into
        contiguous parts of at least lookback + horizon steps, each cut into
        all its windows by _normalized_windows (stats None: over the train
        part's values)."""
        _check_channels(self.channels, channels)
        parts = [self.values[part] for part in split.bounds(self.length)]
        lengths = tuple(map(len, parts))
        if min(lengths) < lookback + horizon:
            raise DataError(f"series of length {self.length} too short for split {lengths}: "
                            f"every part needs >= {lookback + horizon} steps")
        return _normalized_windows(parts, parts[0], lookback, horizon, stats)


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

    def bounds(self, n: int) -> tuple[slice, slice, slice]:
        """The train, val and test slices of n items in order."""
        val = int(self.train * n)
        test = val + int(self.val * n)
        return slice(0, val), slice(val, test), slice(test, n)


def _check_channels(have: int, want: int) -> None:
    if have != want:
        raise DataError(f"data has {have} channels, the model config wants {want}")


@dataclass
class WindowPair:
    """One training example: target starts exactly where the lookback ends."""

    lookback: np.ndarray  # (L, m)
    target: np.ndarray  # (H, m)
    origin: int  # first target step's index in the split part or instance windowed


# csv.field_size_limit()'s default, which plain CSVs have always been held to
MAX_FIELD_CHARS = 131072


def load_csv(path: str) -> Series:
    """Parse a plain CSV: a header line split at `,`, then rows of m float
    values, each after an ISO-8601 timestamp when line 2's first cell is one.
    The rows are read by _parse_rows; a field longer than MAX_FIELD_CHARS
    raises ParseError naming its line, and so does a timestamp that is not
    after the one before or mixes naive and UTC-offset times, and so does an
    instance dataset's metadata row on line 1. The file is read in full on
    every call and parsed once per distinct content (_parse_once).
    """
    return _parse_once(path, _parse_csv)


def _parse_csv(path: str, raw: bytes) -> Series:
    """load_csv's parse of the file's bytes."""
    end = raw.find(b"\n") + 1 or len(raw)
    head, body = _decode(path, 1, raw[:end]), raw[end:]
    if not head:
        raise DataError(f"{path}: empty file")
    if head.startswith(SYNTH_MAGIC):  # its JSON object would split at its commas
        raise ParseError(f"{path}: line 1: an instance dataset's metadata row, not a plain "
                         "CSV header")
    header = head.removesuffix("\n").removesuffix("\r")
    if "\r" in header:  # the csv module read it as a line break
        raise ParseError(f"{path}: line 1: bare CR line break")
    names = header.split(",") if header else []
    # a body field is the bytes between two of `,` and LF
    text = np.frombuffer(body, np.uint8)
    ends = np.append(np.flatnonzero((text == ord(",")) | (text == ord("\n"))), text.size)
    long = np.diff(ends, prepend=-1) > MAX_FIELD_CHARS + 1
    if (header_long := max(map(len, names), default=0) > MAX_FIELD_CHARS) or long.any():
        line = 1 if header_long else 2 + body.count(b"\n", 0, ends[long.argmax()])
        raise ParseError(f"{path}: line {line}: field larger than field limit ({MAX_FIELD_CHARS})")
    # line 2's first cell starts a timestamp column, unless it is digits
    # alone (YYYYMMDD), which are a number
    first = re.match(rb"[^,\r\n]*", body)[0].decode("utf-8", "replace")
    try:
        stamped = not first.isdigit() and bool(datetime.fromisoformat(first))
    except ValueError:
        stamped = False
    if len(names) <= stamped:
        raise DataError(f"{path}: no value columns, only {names}")
    m = len(names) - stamped
    row = np.dtype([("timestamp", object)] * stamped + [("values", np.float64, (m,))])

    def check(rows: np.ndarray) -> None:  # the timestamps, from line 2
        prev = prev_cell = None
        for line_no, cell in enumerate(rows["timestamp"] if stamped else (), start=2):
            try:
                when = datetime.fromisoformat(cell)
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: bad timestamp {cell!r}") from None
            # the splits are chronological by row order, so time must run forwards
            if prev is not None:
                if (when.utcoffset() is None) != (prev.utcoffset() is None):
                    raise ParseError(
                        f"{path}: line {line_no}: timestamp {cell!r} mixes naive and "
                        f"UTC-offset times with {prev_cell!r}"
                    )
                if when <= prev:
                    raise ParseError(
                        f"{path}: line {line_no}: timestamp {cell!r} does not come after "
                        f"{prev_cell!r}"
                    )
            prev, prev_cell = when, cell

    rows = _parse_rows(path, raw[:end], body, row,
                       "a timestamp and " * stamped + f"{m} float values", check)
    if not rows.size:
        raise DataError(f"{path}: no data rows")
    # an owned C-contiguous copy, so the parsed rows can be freed
    return Series(rows["values"].copy())


@dataclass
class NormStats:
    mean: np.ndarray  # (m,)
    std: np.ndarray  # (m,), degenerate channels guarded to 1


def compute_stats(train_values: np.ndarray) -> NormStats:
    """Per-channel mean and std; DataError naming the first channel where
    either overflows float64."""
    values = np.asarray(train_values, dtype=np.float64).reshape(-1, np.shape(train_values)[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=0)
        std = values.std(axis=0)
    if not (finite := np.isfinite(mean) & np.isfinite(std)).all():
        raise DataError(f"channel {int(finite.argmin())}: mean or std overflows float64")
    std = np.where(std > 0.0, std, 1.0)
    return NormStats(mean=mean, std=std)


def normalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - stats.mean) / stats.std


def _normalize_dataset(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """normalize for a split's values, or DataError naming the first channel
    where it overflows float64, as a std far below the values' spread can.

    The check runs once per split part, not in normalize, which callers
    also apply to one small window at a time.
    """
    with np.errstate(over="ignore"):
        out = normalize(values, stats)
    finite = np.isfinite(out).reshape(-1, out.shape[-1]).all(axis=0)
    if not finite.all():
        c = int(finite.argmin())
        raise DataError(f"channel {c}: normalizing by mean {float(stats.mean[c])!r}, "
                        f"std {float(stats.std[c])!r} overflows float64")
    return out


def window_dataset(values: np.ndarray, lookback: int, horizon: int) -> list[WindowPair]:
    """Every contiguous (lookback, target) pair of a (T, m) series, one per
    start step, or of each series of an (n, T, m) array in turn, as views
    of values. A series shorter than lookback + horizon has none."""
    T = values.shape[-2]
    return [WindowPair(lookback=series[t - lookback : t], target=series[t : t + horizon], origin=t)
            for series in values.reshape(-1, T, values.shape[-1])
            for t in range(lookback, T - horizon + 1)]


def _normalized_windows(parts: list[np.ndarray], stats_values: np.ndarray, lookback: int,
                        horizon: int, stats: NormStats | None):
    """(*windows, stats): each of a split's parts normalized once by stats
    (None: compute_stats over stats_values) and cut by window_dataset."""
    if stats is None:
        stats = compute_stats(stats_values)
    return (*(window_dataset(_normalize_dataset(part, stats), lookback, horizon)
              for part in parts), stats)


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

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    def window_pairs(self) -> list[WindowPair]:
        return window_dataset(self.values, self.lookback, self.horizon)

    def split_windows(self, lookback: int, horizon: int, channels: int, split: SplitSpec,
                      stats: NormStats | None = None):
        """Normalized (train, val, test, stats): the instances split by index,
        each instance's one window cut by _normalized_windows (stats None:
        over the train lookbacks). The dataset's window lengths must be
        lookback and horizon (DataError)."""
        _check_channels(self.channels, channels)
        if (self.lookback, self.horizon) != (lookback, horizon):
            raise DataError(
                f"dataset windows are {self.lookback}/{self.horizon}, "
                f"config wants {lookback}/{horizon}"
            )
        parts = [self.values[part] for part in split.bounds(len(self.values))]
        if min(map(len, parts)) == 0:
            raise DataError(f"{len(self.values)} instances cannot be split {split}")
        return _normalized_windows(parts, parts[0][:, :lookback], lookback, horizon, stats)


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
    return SynthDataset(values=rows[..., None], lookback=lookback, horizon=horizon)


SYNTH_MAGIC = "# etsfore-synth"
# The most cells (instances x (lookback + horizon)) an instance dataset may
# have: `synth` writes no larger one and `read_synth_csv` reads none.
MAX_INSTANCE_CELLS = 2**24


def write_synth_csv(ds: SynthDataset, path: str) -> None:
    """Instance CSV: a metadata row, SYNTH_MAGIC and a JSON object of the window
    lengths and instance count, then one row `i,v_1,...,v_T` per instance.
    Every line ends in LF."""
    meta = {"lookback": ds.lookback, "horizon": ds.horizon, "instances": len(ds.values)}
    with open(path, "w", newline="") as fh:
        fh.write(f"{SYNTH_MAGIC} {json.dumps(meta)}\n")
        for i, row in enumerate(ds.values[:, :, 0]):
            fh.write(",".join([str(i), *(f"{v:.17g}" for v in row)]) + "\n")


@dataclass
class _SynthMeta:
    """The metadata row's object, read by from_dict: each size at least 1,
    and at most MAX_INSTANCE_CELLS cells."""

    lookback: int
    horizon: int
    instances: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ConfigError(f"metadata {name}={value} must be positive")
        if (cells := self.instances * (self.lookback + self.horizon)) > MAX_INSTANCE_CELLS:
            raise ConfigError(f"metadata instances={self.instances} x (lookback={self.lookback} "
                              f"+ horizon={self.horizon}) is {cells} cells, more than the "
                              f"{MAX_INSTANCE_CELLS} allowed")


def read_synth_csv(path: str) -> SynthDataset:
    """Inverse of write_synth_csv: a metadata row, then line 2 + i is exactly
    `i,v_1,...,v_T`, T = lookback + horizon, the integer instance index and
    the instance's T float values, parsed as `_parse_rows` says.

    The first row whose index is not its instance's (a swapped, repeated or
    out-of-range instance) and a row past the last instance raise ParseError
    naming the line; a file that stops short raises ParseError naming the
    first missing instance. Any metadata row that read_json and from_dict do
    not read as a _SynthMeta raises ParseError naming line 1. The file is read
    in full on every call and parsed once per distinct content (_parse_once).
    """
    return _parse_once(path, _parse_synth_csv)


def _parse_synth_csv(path: str, raw: bytes) -> SynthDataset:
    """read_synth_csv's parse of the file's bytes."""
    magic, end = SYNTH_MAGIC.encode(), raw.find(b"\n") + 1 or len(raw)
    if not raw.startswith(magic):
        raise ParseError(f"{path}: not an instance dataset (missing metadata row)")
    try:
        # blanks where the magic was, so that a column counts from the start of the line
        meta = from_dict(_SynthMeta, read_json(b" " * len(magic) + raw[len(magic) : end],
                                               "metadata"), "metadata")
    except ConfigError as e:
        raise ParseError(f"{path}: line 1: {e}") from None
    L, H, n = meta.lookback, meta.horizon, meta.instances
    row = np.dtype([("instance", np.int64), ("values", np.float64, (L + H,))])

    def check(rows: np.ndarray) -> None:  # the index order
        # at most n indices are compared, whatever the row count
        found = rows["instance"][:n]
        bad = found != np.arange(found.size)
        if bad.any():
            i = int(bad.argmax())
            raise ParseError(
                f"{path}: line {2 + i}: expected instance {i}, found instance {found[i]}"
            )
        if rows.size > n:
            raise ParseError(f"{path}: line {2 + n}: row past the last instance, instance {n - 1}")

    rows = _parse_rows(path, raw[:end], raw[end:], row,
                       f"an integer index and {L + H} float values", check)
    if rows.size < n:
        raise ParseError(
            f"{path}: no row for instance {rows.size} ({rows.size} rows for {n} instances)"
        )
    # an owned C-contiguous copy, so the parsed rows can be freed
    return SynthDataset(values=rows["values"].reshape(n, L + H, 1).copy(), lookback=L, horizon=H)


_Parsed = TypeVar("_Parsed")

# The last bytes each parser accepted and its result, one entry per parser
_PARSED: dict[Callable, tuple[bytes, object]] = {}


def _parse_once(path: str, parse: Callable[[str, bytes], _Parsed]) -> _Parsed:
    """parse(path, raw) of the file's bytes, read in full on every call, or a
    fresh copy of its stored result when raw equals the last bytes parse
    accepted. Only a parse that returns is stored: a bad file runs every
    check and raises on every call. The caller owns every array it gets.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    last = _PARSED.get(parse)
    if last is None or last[0] != raw:
        last = _PARSED[parse] = raw, parse(path, raw)
    return copy.deepcopy(last[1])


def _parse_rows(path: str, head: bytes, body: bytes, row: np.dtype, holds: str,
                check: Callable[[np.ndarray], None]) -> np.ndarray:
    """The rows of a `--data` file's body, one row of the dtype per line from
    line 2, parsed in one loadtxt pass: ASCII, split at `,` with no quoting,
    each ending in LF or CRLF, and every `values` float finite. A body that
    is not is searched line by line, and its first bad line raises
    ParseError (`holds` says what a row holds). So does a last line
    without its line break: a file cut inside its last value can still end
    in a number that parses. `check` is the kind's own check of its rows,
    which raises ParseError naming the line of the first row it rejects;
    on a rejected body it runs over the rows before the first bad line.
    """
    lines = body.count(b"\n")
    if not (body or head).endswith(b"\n"):
        last = 2 + lines if body else 1
        raise ParseError(f"{path}: line {last}: no line break at the end (truncated?)")
    try:
        # loadtxt skips a blank line silently (and warns when no row is left)
        rows = _loadtxt(io.BytesIO(body), row) if body and not body.isspace() else np.empty(0, row)
    except ValueError:  # UnicodeDecodeError too
        rows = None
    # loadtxt strips non-ASCII whitespace around a number
    if (rows is None or rows.size != lines or not body.isascii()
            or not np.isfinite(rows["values"]).all()):
        _reject_first_bad_line(path, body, row, holds, check)
    check(rows)
    return rows


def _loadtxt(source, row: np.dtype) -> np.ndarray:
    """The one loadtxt call, so the body pass and the line search read one grammar."""
    return np.loadtxt(source, dtype=row, delimiter=",", comments=None, ndmin=1, encoding="utf-8")


def _reject_first_bad_line(path: str, body: bytes, row: np.dtype, holds: str,
                           check: Callable[[np.ndarray], None]) -> NoReturn:
    """Raise ParseError for the first line of a rejected body that fails a
    check: UTF-8, ASCII, the field count, the parse and finiteness, in that
    order, or `check` over the rows up to it. Each line is parsed alone,
    by the same loadtxt call, so an index too large for int64 is a
    malformed row.
    """
    good = []
    for line_no, raw in enumerate(io.BytesIO(body), start=2):
        try:
            good.append(_parse_line(path, line_no, raw, row, holds))
        except ParseError:
            if good:  # an earlier row may fail its kind's own check
                check(np.concatenate(good))
            raise
    raise ParseError(f"{path}: rows do not parse")  # no line alone fails to parse


def _parse_line(path: str, line_no: int, raw: bytes, row: np.dtype, holds: str) -> np.ndarray:
    """One body line as a one-row array, or ParseError naming the line."""
    count = len(row.names) - 1 + row["values"].shape[0]
    line = _decode(path, line_no, raw)
    if not line.isascii():
        raise ParseError(f"{path}: line {line_no}: non-ASCII text")
    # a blank line, which loadtxt would skip, is malformed
    parses = line.strip("\r\n") and line.count(",") + 1 == count
    try:
        parsed = _loadtxt([line], row) if parses else None
    except ValueError:
        parsed = None
    if parsed is None:
        raise ParseError(f"{path}: line {line_no}: malformed row: expected {count} fields, "
                         f"{holds}")
    if not np.isfinite(parsed["values"]).all():
        raise ParseError(f"{path}: line {line_no}: non-finite value")
    return parsed


def _decode(path: str, line_no: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: line {line_no}: not UTF-8 text") from None


def read_dataset(path: str) -> Series | SynthDataset:
    """The dataset in a `--data` file: an instance CSV when its first line
    starts with the metadata row's magic, else a plain CSV."""
    with open(path, "rb") as fh:
        synth = fh.readline().startswith(SYNTH_MAGIC.encode())
    return read_synth_csv(path) if synth else load_csv(path)


# ---------------------------------------------------------------------------
# metrics


def metrics(pred: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) as means over every entry."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), float(np.mean(np.abs(diff)))
