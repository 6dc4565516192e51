"""Forecast accuracy evaluation: per-horizon MAE/MSE, geometric-mean relative
indices against a benchmark method, and the pairwise test of equal predictive
accuracy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DataError


@dataclass(frozen=True, eq=False)
class AccuracyTable:
    """Per-(method, series, horizon) losses and their relative aggregates.

    ``mae[method][h]`` and ``mse[method][h]`` are per-series vectors;
    ``rel_mae`` / ``rel_mse`` hold the ratios against the benchmark (NaN where
    the benchmark loss is zero and the cell was excluded); ``avg_rel_*_h`` are
    per-horizon geometric means over series and ``avg_rel_*`` the geometric
    means over horizons.
    """

    series: tuple[str, ...]
    horizons: tuple[int, ...]
    methods: tuple[str, ...]
    benchmark: str
    mae: dict
    mse: dict
    rel_mae: dict
    rel_mse: dict
    avg_rel_mae_h: dict
    avg_rel_mse_h: dict
    avg_rel_mae: dict
    avg_rel_mse: dict
    excluded: tuple[tuple[str, int, str], ...]


def _geo_mean(values: np.ndarray) -> float:
    """Geometric mean in log space; NaN cells are excluded, zeros give 0."""
    vals = values[~np.isnan(values)]
    if vals.size == 0:
        return float("nan")
    if np.any(vals < 0):
        raise DataError("relative accuracy ratios must be non-negative")
    with np.errstate(divide="ignore"):
        logs = np.log(vals)
    return float(np.exp(np.mean(logs)))


def accuracy(actuals: dict, forecasts: dict, benchmark: str, series) -> AccuracyTable:
    """Evaluate methods against aligned test sets, per horizon and series.

    ``actuals[h]`` is a (Q_h x n) array; ``forecasts[method][h]`` matches it.
    Relative indices are geometric means of per-series loss ratios against the
    benchmark; cells with a zero benchmark loss are excluded with a warning.
    """
    series = tuple(series)
    horizons = tuple(sorted(actuals))
    methods = tuple(forecasts)
    if benchmark not in methods:
        raise DataError(f"benchmark {benchmark!r} not among the evaluated methods")
    n = len(series)

    mae: dict = {m: {} for m in methods}
    mse: dict = {m: {} for m in methods}
    for h in horizons:
        y = np.asarray(actuals[h], dtype=float)
        if y.ndim != 2 or y.shape[1] != n or y.shape[0] < 1:
            raise DataError(f"actuals for horizon {h} must be Q_h x {n}")
        for m in methods:
            try:
                f = np.asarray(forecasts[m][h], dtype=float)
            except KeyError:
                raise DataError(f"method {m!r} lacks forecasts for horizon {h}") from None
            if f.shape != y.shape:
                raise DataError(
                    f"forecasts for {m!r} at horizon {h} must have shape {y.shape}"
                )
            err = y - f
            mae[m][h] = np.abs(err).mean(axis=0)
            mse[m][h] = (err**2).mean(axis=0)

    excluded: list[tuple[str, int, str]] = []
    rel_mae: dict = {m: {} for m in methods}
    rel_mse: dict = {m: {} for m in methods}
    for h in horizons:
        for loss, rel, tag in ((mae, rel_mae, "mae"), (mse, rel_mse, "mse")):
            bench = loss[benchmark][h]
            zero = bench == 0.0
            if zero.any():
                for i in np.flatnonzero(zero):
                    excluded.append((series[i], h, tag))
            for m in methods:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = loss[m][h] / bench
                ratio = np.where(zero, np.nan, ratio)
                rel[m][h] = ratio
    if excluded:
        warnings.warn(
            f"excluded {len(excluded)} zero-benchmark cells from the relative indices",
            stacklevel=2,
        )

    avg_rel_mae_h = {m: {h: _geo_mean(rel_mae[m][h]) for h in horizons} for m in methods}
    avg_rel_mse_h = {m: {h: _geo_mean(rel_mse[m][h]) for h in horizons} for m in methods}
    avg_rel_mae = {
        m: _geo_mean(np.array([avg_rel_mae_h[m][h] for h in horizons])) for m in methods
    }
    avg_rel_mse = {
        m: _geo_mean(np.array([avg_rel_mse_h[m][h] for h in horizons])) for m in methods
    }
    return AccuracyTable(
        series=series,
        horizons=horizons,
        methods=methods,
        benchmark=benchmark,
        mae=mae,
        mse=mse,
        rel_mae=rel_mae,
        rel_mse=rel_mse,
        avg_rel_mae_h=avg_rel_mae_h,
        avg_rel_mse_h=avg_rel_mse_h,
        avg_rel_mae=avg_rel_mae,
        avg_rel_mse=avg_rel_mse,
        excluded=tuple(excluded),
    )


class DMResult(NamedTuple):
    statistic: float
    p_value: float


def dm_test(loss_a, loss_b, h: int = 1) -> DMResult:
    """Test of equal predictive accuracy on a pair of loss series.

    The statistic is the mean loss differential (a minus b) over its long-run
    standard error, with the long-run variance estimated by a Bartlett kernel
    truncated at h-1 lags (no small-sample correction); the p-value is
    two-sided normal. A positive statistic marks method a as less accurate.
    Identical losses yield the degenerate result (0, 1).
    """
    a = np.asarray(loss_a, dtype=float).reshape(-1)
    b = np.asarray(loss_b, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise DataError("loss series must have equal length")
    q = a.size
    if q < 10:
        raise DataError("need at least 10 loss observations")
    if h < 1:
        raise DataError("horizon must be >= 1")
    d = a - b
    d_bar = d.mean()
    centered = d - d_bar
    gamma0 = float(centered @ centered) / q
    if gamma0 == 0.0:
        if d_bar == 0.0:
            return DMResult(0.0, 1.0)
        return DMResult(math.copysign(math.inf, d_bar), 0.0)
    lrv = gamma0
    for k in range(1, h):
        gamma_k = float(centered[k:] @ centered[:-k]) / q
        lrv += 2.0 * (1.0 - k / h) * gamma_k
    if lrv <= 0.0:
        lrv = gamma0  # fall back on the no-lag variance when the kernel degenerates
    stat = d_bar / math.sqrt(lrv / q)
    p = math.erfc(abs(stat) / math.sqrt(2.0))
    return DMResult(float(stat), float(p))
