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


@dataclass
class HwState:
    """A series' states at one step: level and growth (1, ...) and the last
    period of seasonals (period, ...), oldest first; any further axes are
    series and candidates. `hw_forecast` reads only the last entries along
    axis 0, so a longer history serves it as well."""

    level: np.ndarray  # (1, ...)
    growth: np.ndarray  # (1, ...)
    seasonal: np.ndarray  # (period, ...)
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


def hw_smooth(
    x: np.ndarray, params: HwParams, scored: int = 0
) -> tuple[HwState, np.ndarray]:
    """Run the level, growth, seasonal recurrences over the whole series,
    seeded by `default_init`, and score the one-step forecasts of its last
    `scored` steps.

    x is (T,) for one series, or (T, ...) with one series per index of its
    trailing axes; those axes broadcast against the candidate axes the way
    numpy aligns shapes, from the right. phi does not enter the
    recurrences, so the final states carry the broadcast `cand` of the
    series axes and params.rate_shape alone, in `default_init`'s form:
    level and growth (1,) + cand, seasonal (period,) + cand. The second
    result is the sum of squared `one_step_errors` over the scored steps,
    added in time order, for every series and candidate of params.shape.
    Each series and candidate gets exactly the arithmetic of a scalar call
    on that series.
    """
    x = np.asarray(x, dtype=np.float64)
    p = params.period
    init = default_init(x, p)
    T = x.shape[0]
    cand = _broadcast(x.shape[1:], params.rate_shape)
    row = cand or (1,)  # a scalar call runs as one column, so each row is a view
    # every operation of a step runs over full rows of one shape, numpy's
    # fast path; copying the input into its row is the one broadcast
    e, b = np.full(row, init.level[0]), np.full(row, init.growth[0])
    x_t, e_next, tmp = np.empty(row), np.empty(row), np.empty(row)
    # a ring of the last period's seasonals: row (t - T) % p holds s_lag at
    # step t, then s_t, so that it ends oldest first
    s = np.empty((p,) + row)
    np.moveaxis(s, 0, -1)[...] = np.moveaxis(np.roll(init.seasonal, -T, axis=0), 0, -1)
    a, be, ga = (np.full(row, r) for r in (params.alpha, params.beta, params.gamma))
    a1, be1, ga1 = 1.0 - a, 1.0 - be, 1.0 - ga
    phi = np.asarray(params.phi)
    sse = np.zeros(np.broadcast_shapes(row, phi.shape))
    err = np.empty_like(sse)
    # Each step t writes the new rows, with the operations of
    #   e_t = a * (x_t - s_lag) + a1 * (e_{t-1} + b_{t-1})
    #   b_t = be * (e_t - e_{t-1}) + be1 * b_{t-1}
    #   s_t = ga * (x_t - e_t) + ga1 * s_lag
    # where s_lag is the seasonal from one period ago. Only the two
    # products of each sum are added in the other order, and addition
    # commutes exactly, so the bits are those of the expressions. At a few
    # microseconds a step, Python's lookups weigh, so the loop holds the
    # ufuncs and the ring's rows in locals and passes outputs positionally.
    mul, sub, add = np.multiply, np.subtract, np.add
    ring = [s[(t - T) % p] for t in range(p)]  # step t's s_lag is ring[t % p]
    for t, x_in in enumerate(x):
        np.copyto(x_t, x_in)
        s_lag = ring[t % p]
        if t >= T - scored:
            sse += np.square(one_step_errors(x_t, e, b, s_lag, phi, out=err), out=err)
        mul(a, sub(x_t, s_lag, tmp), tmp)
        mul(a1, add(e, b, e_next), e_next)
        e_next += tmp
        mul(be, sub(e_next, e, tmp), tmp)
        mul(be1, b, b)
        b += tmp
        mul(ga, sub(x_t, e_next, tmp), tmp)
        mul(ga1, s_lag, s_lag)
        s_lag += tmp
        e, e_next = e_next, e
    state = HwState(*(v.reshape(v.shape[:1] + cand) for v in (e[None], b[None], s)), period=p)
    return state, sse.reshape(_broadcast(x.shape[1:], params.shape))


def one_step_errors(
    x_t: np.ndarray, level: np.ndarray, growth: np.ndarray, s_lag: np.ndarray,
    phi: float | np.ndarray, out: np.ndarray | None = None,
) -> np.ndarray:
    """Error x_t - (level + phi*growth + s_lag) of the one-step-ahead
    forecast from the states before step t, s_lag being the seasonal of one
    period before; phi*growth broadcasts the states out to every phi.
    Addition commutes exactly, so the bits are those of the expression."""
    err = np.multiply(phi, growth, out=out)
    err += level
    err += s_lag
    return np.subtract(x_t, err, out=out)


def hw_forecast(state: HwState, params: HwParams, h: int) -> np.ndarray:
    """Damped-trend forecast: level + (phi + ... + phi^k) * growth + seasonal
    wrap, shaped (h,) + params.shape for the final states of
    `hw_smooth(x, params)`; each candidate gets exactly the arithmetic of a
    scalar call."""
    if h < 1:
        raise DataError(f"forecast horizon must be >= 1, got {h}")
    p = state.period
    k = np.arange(1, h + 1, dtype=np.float64).reshape((h,) + (1,) * len(params.shape))
    damp = np.cumsum(params.phi**k, axis=0)
    # step k reads the latest estimate of its phase, the last period's (k - 1) % p
    return state.level[-1] + damp * state.growth[-1] + state.seasonal[-p:][np.arange(h) % p]


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
    state: HwState  # hw_smooth's final states of the fit's series under `params`, bit for bit


# phi does not enter the smoothing recurrences, so the grid fit smooths each
# (alpha, beta, gamma) triple once per channel and lets phi*b broadcast it
# over every phi. One (channel, triple) unit of a block holds period + 11
# float64 words of state (a ring of `period` seasonals, its level, growth,
# next level, input, one scratch value and six rate rows) and
# 2 * resolution words of score (one step's errors against every phi and
# their running sums). A block takes every channel and as many triples as
# fit in this many words (2 MiB), at least one, so a fit's working memory
# grows with neither the series length nor the grid resolution.
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
    order, a block of (alpha, beta, gamma) triples with every channel and
    every phi at a time, and each channel's first minimum wins, so ties
    resolve toward smaller values. NaN scores never win, except that the
    first candidate stands if its own score is NaN. Each result carries
    its winner's final states from the block that scored it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise DataError(f"expected a (T,) or (T, C) fit part, got shape {x.shape}")
    series = x.reshape(x.shape[0], -1)
    T, C = series.shape
    n_val = holdout_steps(T, val_fraction, period)
    grid = grid_values(resolution)
    n = resolution**3
    depth = max(1, _BLOCK_WORDS // (C * (period + 11 + 2 * resolution)))  # triples per block
    xb = series[:, :, None]  # (T, channels, 1)
    degenerate = (np.ptp(series, axis=0) == 0.0).tolist()
    fits = [None] * C
    for lo in range(0, n, depth):
        triples = np.unravel_index(np.arange(lo, min(lo + depth, n)), (resolution,) * 3)
        # (triples,) rates against the grid's (R, 1, 1) phi: states of (1,
        # channels, triples) and scores of (R, channels, triples), so that
        # each operation that broadcasts over phi runs over whole state rows
        rates = [grid[k][i] for k, i in zip(("alpha", "beta", "gamma"), triples)]
        params = HwParams(*rates, grid["phi"][:, None, None], period=period)
        # a diverging candidate's states and score overflow to inf or NaN,
        # which the ranking below handles, so the caller sees no warning
        with np.errstate(over="ignore", invalid="ignore"):
            state, sse = hw_smooth(xb, params, n_val)
            # per channel, in (triple, phi) order
            mse = np.moveaxis(np.divide(sse, n_val, out=sse), 0, -1).reshape(C, -1)
        wins = np.argmin(np.where(np.isnan(mse), np.inf, mse), axis=1)
        for c, i in enumerate(wins.tolist()):
            if lo == 0 and not mse[c, i] < mse[c, 0]:
                i = 0  # the first candidate stands unless beaten, even if NaN
            if lo == 0 or mse[c, i] < fits[c].val_mse:
                j, r = divmod(i, resolution)  # its triple and phi
                fits[c] = HwFitResult(
                    HwParams(*(v[j] for v in rates), grid["phi"][r], period=period),
                    float(mse[c, i]), degenerate[c],
                    HwState(*(a[:, 0, c, j].copy()
                              for a in (state.level, state.growth, state.seasonal)),
                            period=period),
                )
        del state, sse, mse  # before the next block's are allocated
    return fits if x.ndim == 2 else fits[0]
