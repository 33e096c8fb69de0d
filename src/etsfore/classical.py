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
        return _broadcast(self.alpha, self.beta, self.gamma, self.phi)

    @property
    def rate_shape(self) -> tuple[int, ...]:
        """The broadcast of alpha, beta and gamma alone, left-padded with
        ones to the candidate ndim: the shape of one smoothed state step."""
        rates = _broadcast(self.alpha, self.beta, self.gamma)
        return (1,) * (len(self.shape) - len(rates)) + rates


def _broadcast(*values) -> tuple[int, ...]:
    shapes = [np.shape(v) for v in values]
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise DimensionError(f"parameter shapes {shapes} do not broadcast") from None


@dataclass
class HwState:
    """Smoothed series including seeds: level/growth carry index 0 as the seed;
    seasonal carries one full leading period of seeds."""

    level: np.ndarray  # (T+1,)
    growth: np.ndarray  # (T+1,)
    seasonal: np.ndarray  # (T+p,)
    period: int


def default_init(x: np.ndarray, period: int) -> HwState:
    """Level = mean of the first period, growth = 0, seasonal = first-period offsets."""
    x = np.asarray(x, dtype=np.float64)
    if x.size <= period:
        raise DataError(f"series length {x.size} must exceed period {period}")
    e0 = float(x[:period].mean())
    return HwState(
        level=np.array([e0]),
        growth=np.array([0.0]),
        seasonal=x[:period] - e0,
        period=period,
    )


def hw_smooth(x: np.ndarray, params: HwParams) -> HwState:
    """Run the level, growth, seasonal recurrences over the whole series,
    seeded by `default_init`.

    phi does not enter the recurrences, so the states carry only the rates'
    candidate axes, last: level and growth are (T+1,) + params.rate_shape
    and seasonal is (T+p,) + params.rate_shape. Each candidate gets exactly
    the arithmetic of a scalar call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"expected a univariate series, got shape {x.shape}")
    p = params.period
    init = default_init(x, p)
    T = x.size
    cand = params.rate_shape
    e = np.empty((T + 1,) + cand)
    b = np.empty((T + 1,) + cand)
    s = np.empty((T + p,) + cand)
    e[0], b[0] = init.level[0], init.growth[0]
    s[:p] = init.seasonal[:p].reshape((p,) + (1,) * len(cand))
    a, be, ga = params.alpha, params.beta, params.gamma
    a1, be1, ga1 = 1.0 - a, 1.0 - be, 1.0 - ga
    for t in range(1, T + 1):
        xt = x[t - 1]
        s_lag = s[t - 1]  # seasonal index from one period ago
        e[t] = a * (xt - s_lag) + a1 * (e[t - 1] + b[t - 1])
        b[t] = be * (e[t] - e[t - 1]) + be1 * b[t - 1]
        s[p + t - 1] = ga * (xt - e[t]) + ga1 * s_lag
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


def one_step_errors(x: np.ndarray, params: HwParams) -> np.ndarray:
    """Errors of the one-step-ahead forecast e_{t-1} + phi*b_{t-1} + s_{t-p},
    shaped (T,) + params.shape: phi*b broadcasts the states, which carry
    only the rates' axes, out to every candidate."""
    state = hw_smooth(x, params)
    x = np.asarray(x, dtype=np.float64)
    T = x.size
    # x - (level + phi*growth + seasonal) in one buffer; addition commutes
    # exactly, so the bits are those of the expression
    err = params.phi * state.growth[:T]
    err += state.level[:T]
    err += state.seasonal[:T]
    return np.subtract(x.reshape((T,) + (1,) * len(params.shape)), err, out=err)


# phi does not enter the smoothing recurrences, so the grid fit smooths each
# (alpha, beta, gamma) triple once and lets phi*b broadcast it over every
# phi. Triples per one_step_errors call are capped so that its (T, triples,
# phi) errors array holds at most this many float64 words (1 MiB); the
# states add 3/resolution of that, so one fit's working memory stays under
# 3 MiB whatever the grid resolution.
_BLOCK_WORDS = 1 << 17


def hw_fit_grid(
    x: np.ndarray, period: int, resolution: int, val_fraction: float = 0.25
) -> HwFitResult:
    """Exhaustive grid search minimizing one-step-ahead MSE on a held-out tail.

    The filter runs over the whole series; only errors on the final
    val_fraction of steps count, so the scored forecasts never see their
    targets. Candidates are taken in ascending (alpha, beta, gamma, phi)
    order, a block of (alpha, beta, gamma) triples with every phi at a time,
    and the first minimum wins, so ties resolve toward smaller values. NaN
    scores never win, except that the first candidate stands if its own
    score is NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    T = x.size
    n_val = holdout_steps(T, val_fraction, period)
    grid = grid_values(resolution)
    n = resolution**3
    block = max(1, _BLOCK_WORDS // (T * resolution))
    best, best_mse = 0, None
    for lo in range(0, n, block):
        triples = np.unravel_index(np.arange(lo, min(lo + block, n)), (resolution,) * 3)
        # (triples, 1) rates against the grid's (R,) phi
        rates = (grid[k][i, None] for k, i in zip(("alpha", "beta", "gamma"), triples))
        params = HwParams(*rates, grid["phi"], period=period)
        # (T, triples, phi) flattens to candidates in (alpha, beta, gamma, phi)
        # order; one C-contiguous row per candidate, so np.mean sums each tail
        # in the same pairwise order as it does a single candidate's errors.
        # One expression, so the full errors array dies with the copy.
        sq = np.ascontiguousarray(one_step_errors(x, params)[T - n_val :].reshape(n_val, -1).T)
        mse = np.mean(np.square(sq, out=sq), axis=1)
        if best_mse is None:
            best_mse = mse[0]  # if NaN, it stands: `x < nan` is false for every x
        i = int(np.argmin(np.where(np.isnan(mse), np.inf, mse)))
        if mse[i] < best_mse:
            best, best_mse = lo * resolution + i, mse[i]
    return HwFitResult(
        params=_grid_params(grid, best, period),
        val_mse=float(best_mse),
        degenerate=bool(np.ptp(x) == 0.0),
    )


def _grid_params(grid: dict[str, np.ndarray], flat, period: int) -> HwParams:
    """The candidates at flat index (or indices) `flat` of the grid in
    row-major (alpha, beta, gamma, phi) order."""
    names = ("alpha", "beta", "gamma", "phi")
    index = np.unravel_index(flat, tuple(grid[k].size for k in names))
    return HwParams(*(grid[k][i] for k, i in zip(names, index)), period=period)
