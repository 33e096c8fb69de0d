"""Additive Holt-Winters smoothing with damped-trend forecasting.

Serves as an independent classical baseline and as the reference for the
level/growth/seasonal decomposition semantics used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, DomainError


@dataclass
class HwParams:
    """Smoothing parameters. alpha, beta, gamma and phi are each a scalar or an
    array over candidates; the arrays broadcast against each other, so one
    recurrence runs every candidate at once."""

    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma: float | np.ndarray
    phi: float | np.ndarray = 1.0
    period: int = 1

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "phi"):
            v = np.asarray(getattr(self, name))
            inside = (0.0 < v) & ((v <= 1.0) if name == "phi" else (v < 1.0))
            if not inside.all():
                domain = "(0, 1]" if name == "phi" else "(0, 1)"
                raise DomainError(f"{name} must lie in {domain}, got {v[~inside][0]}")
        if self.period < 1:
            raise DomainError(f"period must be >= 1, got {self.period}")
        self.shape  # raises DimensionError unless the four shapes broadcast

    @property
    def shape(self) -> tuple[int, ...]:
        """Candidate shape: the broadcast of the four parameters' shapes,
        () for one parameter set."""
        return _broadcast(*map(np.shape, (self.alpha, self.beta, self.gamma, self.phi)))

    @property
    def rate_shape(self) -> tuple[int, ...]:
        """The broadcast of alpha, beta and gamma alone, left-padded with
        ones to the candidate ndim: the shape of one smoothed state step."""
        rates = _broadcast(*map(np.shape, (self.alpha, self.beta, self.gamma)))
        return (1,) * (len(self.shape) - len(rates)) + rates


def _broadcast(*shapes: tuple[int, ...]) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise DimensionError(f"shapes {list(shapes)} do not broadcast") from None


def _time_first(a: np.ndarray, ndim: int) -> np.ndarray:
    """a, whose axis 0 is time, with its other axes right-aligned to `ndim`
    trailing axes, so that it broadcasts against (len(a),) + a candidate
    shape of that ndim."""
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim + 1) + a.shape[1:])


@dataclass
class HwState:
    """Smoothed series including seeds: level/growth carry index 0 as the seed;
    seasonal carries one full leading period of seeds. Axis 0 is time; any
    further axes are series and candidates."""

    level: np.ndarray  # (T+1, ...)
    growth: np.ndarray  # (T+1, ...)
    seasonal: np.ndarray  # (T+p, ...)
    period: int


def default_init(x: np.ndarray, period: int) -> HwState:
    """Level = mean of the first period, growth = 0, seasonal = first-period
    offsets, for each series of x (T,) or (T, ...): level and growth are
    (1,) + x.shape[1:] and seasonal is (period,) + x.shape[1:]."""
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[0] if x.ndim else 1
    if T <= period:
        raise DataError(f"series length {T} must exceed period {period}")
    # each series' first period as one contiguous row, so that np.mean sums
    # it in the pairwise order it uses for a lone 1-d series
    e0 = np.ascontiguousarray(np.moveaxis(x[:period], 0, -1)).mean(axis=-1)
    return HwState(
        level=e0[None],
        growth=np.zeros((1,) + e0.shape),
        seasonal=x[:period] - e0,
        period=period,
    )


def hw_smooth(x: np.ndarray, params: HwParams) -> HwState:
    """Run the level, growth, seasonal recurrences over the whole series,
    seeded by `default_init`.

    x is (T,) for one series, or (T, ...) with one series per index of its
    trailing axes; those axes broadcast against the candidate axes the way
    numpy aligns shapes, from the right. phi does not enter the
    recurrences, so the states carry the broadcast `cand` of the series
    axes and params.rate_shape alone: level and growth are (T+1,) + cand
    and seasonal is (T+p,) + cand. Each series and candidate gets exactly
    the arithmetic of a scalar call on that series.
    """
    x = np.asarray(x, dtype=np.float64)
    p = params.period
    init = default_init(x, p)
    T = x.shape[0]
    cand = _broadcast(x.shape[1:], params.rate_shape)
    row = cand or (1,)  # a scalar call runs as one column, so each row is a view
    e = np.empty((T + 1,) + row)
    b = np.empty((T + 1,) + row)
    s = np.empty((T + p,) + row)
    e[0], b[0] = init.level[0], init.growth[0]
    s[:p] = _time_first(init.seasonal, len(row))
    s[p:] = _time_first(x, len(row))  # row p+t-1 holds x_t until step t overwrites it
    # the rates as full rows, so that every operation of a step runs over
    # rows of one shape, numpy's fast path
    a, be, ga = (np.full(row, r) for r in (params.alpha, params.beta, params.gamma))
    a1, be1, ga1 = 1.0 - a, 1.0 - be, 1.0 - ga
    # Each step t writes its rows in place, with the operations of
    #   e_t = a * (x_t - s_lag) + a1 * (e_{t-1} + b_{t-1})
    #   b_t = be * (e_t - e_{t-1}) + be1 * b_{t-1}
    #   s_t = ga * (x_t - e_t) + ga1 * s_lag
    # where s_lag is the seasonal index from one period ago. Only the two
    # products of each sum are added in the other order, and addition
    # commutes exactly, so the bits are those of the expressions.
    tmp = np.empty(row)
    e_prev, b_prev = e[0], b[0]
    for t in range(1, T + 1):
        s_lag, s_t = s[t - 1], s[p + t - 1]  # s_t is x_t until its last two lines
        e_t, b_t = e[t], b[t]
        np.multiply(a, np.subtract(s_t, s_lag, out=tmp), out=tmp)
        np.multiply(a1, np.add(e_prev, b_prev, out=e_t), out=e_t)
        e_t += tmp
        np.multiply(be, np.subtract(e_t, e_prev, out=tmp), out=tmp)
        np.multiply(be1, b_prev, out=b_t)
        b_t += tmp
        np.multiply(ga, np.subtract(s_t, e_t, out=tmp), out=tmp)
        np.multiply(ga1, s_lag, out=s_t)
        s_t += tmp
        e_prev, b_prev = e_t, b_t
    e, b, s = (v.reshape(v.shape[:1] + cand) for v in (e, b, s))
    return HwState(level=e, growth=b, seasonal=s, period=p)


def hw_forecast(state: HwState, params: HwParams, h: int) -> np.ndarray:
    """Damped-trend forecast: level + (phi + ... + phi^k) * growth + seasonal
    wrap, shaped (h,) + params.shape for the states `hw_smooth(x, params)`
    returns; each candidate gets exactly the arithmetic of a scalar call."""
    if h < 1:
        raise DataError(f"forecast horizon must be >= 1, got {h}")
    p = state.period
    T = state.level.shape[0] - 1
    k = np.arange(1, h + 1, dtype=np.float64).reshape((h,) + (1,) * len(params.shape))
    damp = np.cumsum(params.phi**k, axis=0)
    step = np.arange(1, h + 1)
    wrap = T + step - p * -(-step // p)  # -(-step // p) = ceil(step / p): latest estimate of the phase
    return state.level[-1] + damp * state.growth[-1] + state.seasonal[wrap + p - 1]


def grid_values(resolution: int) -> dict[str, np.ndarray]:
    """Candidate values per parameter for the exhaustive fit."""
    if resolution < 1:
        raise DataError(f"grid resolution must be >= 1, got {resolution}")
    smooth = np.linspace(0.1, 0.9, resolution)
    phi = np.linspace(0.5, 1.0, resolution)
    return {"alpha": smooth, "beta": smooth, "gamma": smooth, "phi": phi}


def holdout_steps(T: int, fraction: float, period: int) -> int:
    """Steps held out at the end of a length-T series: round(fraction * T),
    at least 1. The part before them, which the filter is fit on, must be
    longer than the period (DataError)."""
    n = max(1, int(round(fraction * T)))
    if T - n <= period:
        raise DataError(
            f"series length {T} too short: fit part {T - n} must exceed period {period}"
        )
    return n


@dataclass
class HwFitResult:
    params: HwParams
    val_mse: float
    degenerate: bool  # constant input: every candidate forecasts perfectly
    state: HwState  # hw_smooth of the fit's series under `params`, bit for bit


def one_step_errors(
    x: np.ndarray, params: HwParams, state: HwState | None = None, start: int = 0
) -> np.ndarray:
    """Errors of the one-step-ahead forecast e_{t-1} + phi*b_{t-1} + s_{t-p}
    at steps start..T-1, shaped (T - start,) + cand, where cand broadcasts
    x's series axes (as in `hw_smooth`) with params.shape: phi*b broadcasts
    the states, which carry only the rates' axes, out to every candidate.

    `state` is `hw_smooth(x, params)`, computed here unless the caller
    holds it. The errors are laid out time-last in memory, so those of one
    series and candidate are one contiguous row.
    """
    if state is None:
        state = hw_smooth(x, params)
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[0]
    if not 0 <= start < T:
        raise DataError(f"error steps must start in [0, {T}), got {start}")

    def time_last(a):  # a's steps start..T-1, as one contiguous row per series and candidate
        return np.ascontiguousarray(np.moveaxis(a[start:T], 0, -1))

    # x - (level + phi*growth + seasonal) in one time-last buffer, whose
    # every operation runs over contiguous rows; addition commutes exactly,
    # so the bits are those of the expression
    err = np.multiply(np.asarray(params.phi)[..., None], time_last(state.growth))
    err += time_last(state.level)
    err += time_last(state.seasonal)
    np.subtract(np.moveaxis(x[start:], 0, -1), err, out=err)
    return np.moveaxis(err, -1, 0)


def _unit_words(T: int, period: int, n_val: int, resolution: int) -> int:
    """Float64 words that one (channel, triple) unit of a grid-fit block
    holds: its level, growth and seasonal states over a length-T fit part,
    its n_val tail errors against each of the `resolution` phi, and one
    state's tail moved time-last while `one_step_errors` adds it in."""
    return 2 * (T + 1) + T + period + n_val * (resolution + 1)


# phi does not enter the smoothing recurrences, so the grid fit smooths each
# (alpha, beta, gamma) triple once per channel and lets phi*b broadcast it
# over every phi. A block's states and tail errors hold at most this many
# float64 words (2 MiB), unless one unit alone holds more; a block takes
# every channel while a triple of all of them fits, and splits a triple by
# channel otherwise, so a fit's working memory does not grow with the grid
# resolution or the channel count.
_BLOCK_WORDS = 1 << 18


def hw_fit_grid(
    x: np.ndarray, period: int, resolution: int, val_fraction: float = 0.25
) -> HwFitResult | list[HwFitResult]:
    """Exhaustive grid search minimizing one-step-ahead MSE on a held-out tail.

    x is one series (T,), giving one result, or a (T, C) fit part, giving
    a list of C results, each that of a 1-d call on its column bit for bit.
    The filter runs over the whole series; only errors on the final
    val_fraction of steps count, so the scored forecasts never see their
    targets. Candidates are taken in ascending (alpha, beta, gamma, phi)
    order, a block of (alpha, beta, gamma) triples with every phi at a
    time, and each channel's first minimum wins, so ties resolve toward
    smaller values. NaN scores never win, except that the first candidate
    stands if its own score is NaN. Each result carries its winner's states
    from the block that scored it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise DataError(f"expected a (T,) or (T, C) fit part, got shape {x.shape}")
    series = x.reshape(x.shape[0], -1)
    T, C = series.shape
    n_val = holdout_steps(T, val_fraction, period)
    grid = grid_values(resolution)
    n = resolution**3
    units = max(1, _BLOCK_WORDS // _unit_words(T, period, n_val, resolution))
    width = min(C, units)  # channels per block
    depth = units // width  # triples per block
    best, best_mse, states = [0] * C, [0.0] * C, [None] * C
    for lo in range(0, n, depth):
        triples = np.unravel_index(np.arange(lo, min(lo + depth, n)), (resolution,) * 3)
        # (triples, 1) rates against the grid's (R,) phi
        rates = (grid[k][i, None] for k, i in zip(("alpha", "beta", "gamma"), triples))
        params = HwParams(*rates, grid["phi"], period=period)
        for c0 in range(0, C, width):
            xb = series[:, c0 : c0 + width, None, None]  # (T, channels, 1, 1)
            state = hw_smooth(xb, params)
            mse = _tail_mse(one_step_errors(xb, params, state, T - n_val))
            wins = np.argmin(np.where(np.isnan(mse), np.inf, mse), axis=1)
            for j, i in enumerate(wins.tolist()):
                c = c0 + j
                if lo == 0 and not mse[j, i] < mse[j, 0]:
                    i = 0  # the first candidate stands unless beaten, even if NaN
                if lo == 0 or mse[j, i] < best_mse[c]:
                    best[c], best_mse[c] = lo * resolution + i, mse[j, i]
                    states[c] = HwState(
                        *(a[:, j, i // resolution, 0].copy()
                          for a in (state.level, state.growth, state.seasonal)),
                        period=period,
                    )
            del state  # before the next block's states are allocated
    degenerate = np.ptp(series, axis=0) == 0.0
    fits = [
        HwFitResult(_grid_params(grid, best[c], period), float(best_mse[c]),
                    bool(degenerate[c]), states[c])
        for c in range(C)
    ]
    return fits if x.ndim == 2 else fits[0]


def _tail_mse(err: np.ndarray) -> np.ndarray:
    """(channels, candidates) MSEs of a block's (n_val, channels, triples,
    phi) errors, which are laid out time-last: per channel, one contiguous
    row per candidate in (alpha, beta, gamma, phi) order, so np.mean sums
    each tail in the same pairwise order as it does a single candidate's
    errors. Squares in place."""
    sq = np.moveaxis(err, 0, -1).reshape(err.shape[1], -1, err.shape[0])
    return np.mean(np.square(sq, out=sq), axis=-1)


def _grid_params(grid: dict[str, np.ndarray], flat, period: int) -> HwParams:
    """The candidates at flat index (or indices) `flat` of the grid in
    row-major (alpha, beta, gamma, phi) order."""
    names = ("alpha", "beta", "gamma", "phi")
    index = np.unravel_index(flat, tuple(grid[k].size for k in names))
    return HwParams(*(grid[k][i] for k, i in zip(names, index)), period=period)
