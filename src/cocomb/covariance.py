"""Estimators of the m x m base-forecast-error covariance.

All estimators use the MSE convention (divide by T, no mean-centering, since
base forecasts are assumed unbiased) and return matrices in the by-expert
ordering. ``ESTIMATORS`` maps each pattern name to its estimator, called as
``ESTIMATORS[pattern](residuals, panel)``; ``PATTERNS`` lists its keys:

* ``sample``             full sample MSE matrix;
* ``shrunk``             sample MSE shrunk toward its diagonal;
* ``bd_expert``          block-diagonal, one block per expert;
* ``bd_expert_shrunk``   per-expert blocks, each shrunk with its own intensity;
* ``bd_variable``        block-diagonal per variable, each block placed at
                         its variable's by-expert rows and columns;
* ``bd_variable_shrunk`` per-variable shrunk blocks;
* ``diagonal``           diagonal of the sample MSE.

The two block patterns share one loop over row groups, ``_block_diagonal``.
Sample estimates with more coordinates than observations are returned but
tagged ``singular``, block patterns when one of their blocks is; solvers
refuse tagged estimates (``_check_solvable``, the one check shared by every
solver) instead of regularizing behind the caller's back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import DataError, NumericalError
from .panel import ForecastPanel


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """An m x m error covariance with its pattern tag and shrinkage intensity.

    ``lam`` is None (no shrinkage), a float (global), or a tuple of per-block
    intensities. ``singular`` marks estimates that cannot back a GLS solve.
    """

    W: np.ndarray
    pattern: str
    lam: float | tuple[float, ...] | None = None
    singular: bool = False

    def __post_init__(self) -> None:
        w = np.asarray(self.W, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DataError("covariance must be square")
        if self.pattern not in PATTERNS:
            raise DataError(f"unknown covariance pattern {self.pattern!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "W", w)

    @property
    def m(self) -> int:
        return self.W.shape[0]


def _check_solvable(cov: CovarianceEstimate, m: int, what: str) -> None:
    """Refuse an estimate that cannot back a solve of size ``m`` (``what`` names it)."""
    if cov.m != m:
        raise DataError(f"covariance size {cov.m} does not match {what}")
    if cov.singular:
        raise NumericalError(
            "covariance estimate is flagged singular; use a shrunk or block pattern"
        )


def _cholesky_ok(w: np.ndarray) -> bool:
    try:
        scipy.linalg.cho_factor(w, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return False
    return True


def _check_residuals(residuals: np.ndarray) -> np.ndarray:
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 2:
        raise DataError("residuals must be an m x T matrix")
    if r.shape[1] < 2:
        raise DataError("need at least T=2 residual observations")
    if not np.all(np.isfinite(r)):
        raise DataError("residuals contain non-finite entries")
    return r


def _mse(residuals: np.ndarray) -> np.ndarray:
    m, T = residuals.shape
    w = residuals @ residuals.T / T
    return 0.5 * (w + w.T)


def sample_mse(residuals: np.ndarray) -> CovarianceEstimate:
    """Sample forecast MSE matrix ``(1/T) sum_t e_t e_t'``."""
    r = _check_residuals(residuals)
    m, T = r.shape
    w = _mse(r)
    singular = m > T or not _cholesky_ok(w)
    return CovarianceEstimate(w, "sample", lam=None, singular=singular)


def shrink_intensity(residuals: np.ndarray) -> float:
    """Shrinkage intensity toward the diagonal target, clamped to [0, 1].

    Closed form: the summed sampling variances of the off-diagonal sample
    correlations divided by their summed squares, computed on standardized
    residuals under the uncentered MSE convention.
    """
    r = _check_residuals(residuals)
    m, T = r.shape
    if m == 1:
        return 1.0
    v = np.einsum("it,it->i", r, r) / T
    if np.any(v <= 0):
        raise NumericalError("zero-variance residual coordinate; cannot shrink")
    z = r / np.sqrt(v)[:, None]
    corr = z @ z.T / T
    # sampling variance of each off-diagonal correlation from the products z_i z_j
    prod_sq = (z * z) @ (z * z).T
    var_corr = (prod_sq / T - corr**2) / (T - 1)
    off = ~np.eye(m, dtype=bool)
    denom = float(np.sum(corr[off] ** 2))
    if denom == 0.0:
        return 1.0
    lam = float(np.sum(var_corr[off])) / denom
    return float(min(1.0, max(0.0, lam)))


def shrink(residuals: np.ndarray, lam: float | None = None) -> CovarianceEstimate:
    """Sample MSE shrunk toward its diagonal: ``lam*diag(W) + (1-lam)*W``.

    ``lam`` defaults to the estimated intensity; passing an explicit value
    overrides it (used to pin the endpoints in tests).
    """
    r = _check_residuals(residuals)
    w = _mse(r)
    if np.any(np.diag(w) <= 0):
        raise NumericalError("zero-variance residual coordinate; cannot shrink")
    if lam is None:
        lam = shrink_intensity(r)
    if not 0.0 <= lam <= 1.0:
        raise DataError("shrinkage intensity must lie in [0, 1]")
    w_shr = lam * np.diag(np.diag(w)) + (1.0 - lam) * w
    singular = not _cholesky_ok(w_shr)
    return CovarianceEstimate(w_shr, "shrunk", lam=lam, singular=singular)


def diagonal_mse(residuals: np.ndarray) -> CovarianceEstimate:
    """Diagonal of the sample MSE matrix."""
    r = _check_residuals(residuals)
    w = np.diag(np.einsum("it,it->i", r, r) / r.shape[1])
    return CovarianceEstimate(w, "diagonal", lam=None, singular=bool(np.any(np.diag(w) <= 0)))


def _block_diagonal(
    residuals: np.ndarray, panel: ForecastPanel, groups, kind: str, shrink_blocks: bool
) -> CovarianceEstimate:
    """Block-diagonal estimate with one block per group of the panel's residual rows.

    Each block is the sample MSE of its rows, shrunk with its own intensity
    when ``shrink_blocks`` is set, placed at those rows and columns.
    """
    r = _check_residuals(residuals)
    if r.shape[0] != panel.m:
        raise DataError(f"residuals must have {panel.m} rows")
    w = np.zeros((panel.m, panel.m))
    lams: list[float] = []
    singular = False
    for rows in groups:
        if shrink_blocks:
            est = shrink(r[rows])
            lams.append(float(est.lam))
        else:
            est = sample_mse(r[rows])
        singular = singular or est.singular
        w[np.ix_(rows, rows)] = est.W
    pattern = f"{kind}_shrunk" if shrink_blocks else kind
    lam = tuple(lams) if shrink_blocks else None
    return CovarianceEstimate(w, pattern, lam=lam, singular=singular)


def block_by_expert(
    residuals: np.ndarray, panel: ForecastPanel, shrink_blocks: bool = False
) -> CovarianceEstimate:
    """Block-diagonal estimate assuming errors uncorrelated across experts.

    Each block is the n_j x n_j sample MSE of expert j's residual rows, each
    shrunk with its own intensity when ``shrink_blocks`` is set.
    """
    rows = np.arange(panel.m)
    groups = (rows[panel.expert_rows(j)] for j in range(panel.p))
    return _block_diagonal(residuals, panel, groups, "bd_expert", shrink_blocks)


def block_by_variable(
    residuals: np.ndarray, panel: ForecastPanel, shrink_blocks: bool = False
) -> CovarianceEstimate:
    """Block-diagonal estimate assuming errors uncorrelated across variables.

    Each block is the p_i x p_i sample MSE of variable i's residual rows (each
    shrunk with its own intensity when ``shrink_blocks`` is set), placed at
    those rows and columns of the by-expert ordering.
    """
    groups = (panel.variable_rows(i) for i in range(panel.n))
    return _block_diagonal(residuals, panel, groups, "bd_variable", shrink_blocks)


def as_covariance(w: np.ndarray, pattern: str = "sample") -> CovarianceEstimate:
    """Wrap a user-supplied SPD matrix; raises if it cannot back a solve."""
    w = np.asarray(w, dtype=float)
    if not _cholesky_ok(w):
        raise NumericalError("supplied covariance is not positive definite")
    return CovarianceEstimate(w, pattern, lam=None, singular=False)


# Entries call the estimators by their module names, so a wrapped estimator
# (as perfbench's tracer installs) is reached through the table too.
ESTIMATORS = {
    "sample": lambda r, panel: sample_mse(r),
    "shrunk": lambda r, panel: shrink(r),
    "bd_expert": lambda r, panel: block_by_expert(r, panel),
    "bd_expert_shrunk": lambda r, panel: block_by_expert(r, panel, shrink_blocks=True),
    "bd_variable": lambda r, panel: block_by_variable(r, panel),
    "bd_variable_shrunk": lambda r, panel: block_by_variable(r, panel, shrink_blocks=True),
    "diagonal": lambda r, panel: diagonal_mse(r),
}
PATTERNS = tuple(ESTIMATORS)
