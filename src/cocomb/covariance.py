"""Estimators of the m x m base-forecast-error covariance, and its solves.

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

A block estimate is the sum of its blocks' dense estimates, ``sample_mse``
or ``shrink`` of each block's rows, listed with their rows by
``CovarianceEstimate.parts`` (a dense estimate is its own one part). Solvers
use ``W`` only through ``blocks(m)``: each part's rows with its Cholesky
factor, taken once, when the part is estimated. A part that fails to factor,
or a sample MSE wider than T (left unfactored), is ``singular``, and so is an
estimate holding it; ``blocks`` refuses tagged or mis-sized estimates instead
of regularizing behind the caller's back.
"""

from __future__ import annotations

import numpy as np

from ._linalg import cho_factor_spd
from .exceptions import DataError, NumericalError
from .panel import ForecastPanel


class CovarianceEstimate:
    """An m x m error covariance with its pattern tag and shrinkage intensity.

    ``lam`` is None (no shrinkage), a float (global), or a tuple of per-block
    intensities. ``singular`` marks estimates that cannot back a GLS solve.
    A block estimate passes its diagonal blocks as ``(rows, dense estimate)``
    pairs instead of ``W``, which is then assembled on first access.
    """

    def __init__(self, W, pattern: str, lam: float | tuple[float, ...] | None = None,
                 singular: bool = False, *, _parts=None):
        if pattern not in PATTERNS:
            raise DataError(f"unknown covariance pattern {pattern!r}")
        self.pattern, self.lam, self._W, self._parts = pattern, lam, None, _parts
        if _parts is not None:
            self.singular, self.m = any(p.singular for _, p in _parts), sum(p.m for _, p in _parts)
            return
        w = np.array(W, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DataError("covariance must be square")
        if not np.isfinite(w).all():
            raise DataError("covariance contains non-finite entries")
        w.setflags(write=False)
        try:
            self._factor = None if singular else cho_factor_spd(w)
        except NumericalError:
            self._factor = None
        self.singular, self.m, self._W = self._factor is None, w.shape[0], w

    @property
    def parts(self) -> tuple:
        """The diagonal blocks as ``(rows, dense estimate)`` pairs; one of all rows if dense."""
        # built on access: a stored ``(slice(None), self)`` would be a reference cycle
        return self._parts if self._parts is not None else ((slice(None), self),)

    @property
    def W(self) -> np.ndarray:
        """The dense m x m matrix (read-only)."""
        if self._W is None:
            w = np.zeros((self.m, self.m))
            for rows, part in self._parts:
                w[np.ix_(rows, rows)] = part.W
            w.setflags(write=False)
            self._W = w
        return self._W

    def blocks(self, m: int) -> tuple:
        """The diagonal blocks of ``W`` as ``(rows, Cholesky factor)`` pairs.

        ``m`` is the caller's row count; a mismatch or a ``singular`` tag
        raises here, before any solve.
        """
        if m != self.m:
            raise DataError(f"covariance size {self.m} does not match {m} rows")
        if self.singular:
            raise NumericalError("covariance estimate is flagged singular; "
                                 "use a shrunk or block pattern")
        return tuple((rows, part._factor) for rows, part in self.parts)


def _check_residuals(residuals: np.ndarray) -> np.ndarray:
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 2:
        raise DataError("residuals must be an m x T matrix")
    if r.shape[1] < 2:
        raise DataError("need residuals for at least two time points")
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
    return CovarianceEstimate(_mse(r), "sample", singular=r.shape[0] > r.shape[1])


def shrink_intensity(residuals: np.ndarray) -> float:
    """Shrinkage intensity toward the diagonal target, clamped to [0, 1].

    Closed form: the summed sampling variances of the off-diagonal sample
    correlations divided by their summed squares, computed on standardized
    residuals under the uncentered MSE convention.
    """
    return _shrink_intensity(_check_residuals(residuals))


def _shrink_intensity(r: np.ndarray) -> float:  # r as checked by _check_residuals
    m, T = r.shape
    if m == 1:
        return 1.0
    v = np.einsum("it,it->i", r, r) / T
    if np.any(v <= 0):
        raise NumericalError("zero-variance residual coordinate; cannot shrink")
    z = r / np.sqrt(v)[:, None]
    corr_sq, zz = (z @ z.T / T) ** 2, z * z
    # sampling variance of each off-diagonal correlation from the products z_i z_j
    var_corr = (zz @ zz.T / T - corr_sq) / (T - 1)  # zz @ zz.T: numpy's symmetric syrk
    for a in (corr_sq, var_corr):  # off-diagonal sums; a total minus the trace would
        np.fill_diagonal(a, 0.0)   # round away from 0 where every correlation is 0
    denom = float(np.sum(corr_sq))
    if denom == 0.0:
        return 1.0
    lam = float(np.sum(var_corr)) / denom
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
        lam = _shrink_intensity(r)
    if not 0.0 <= lam <= 1.0:
        raise DataError("shrinkage intensity must lie in [0, 1]")
    return CovarianceEstimate(lam * np.diag(np.diag(w)) + (1.0 - lam) * w, "shrunk", lam=lam)


def diagonal_mse(residuals: np.ndarray) -> CovarianceEstimate:
    """Diagonal of the sample MSE matrix."""
    r = _check_residuals(residuals)
    return CovarianceEstimate(np.diag(np.einsum("it,it->i", r, r) / r.shape[1]), "diagonal")


def _block_diagonal(
    residuals: np.ndarray, panel: ForecastPanel, groups, kind: str, shrink_blocks: bool
) -> CovarianceEstimate:
    """The sum of one dense estimate per group of the panel's residual rows: ``shrink``
    (with its own intensity) when ``shrink_blocks`` is set, ``sample_mse`` otherwise."""
    r = _check_residuals(residuals)
    if r.shape[0] != panel.m:
        raise DataError(f"residuals must have {panel.m} rows")
    estimate = shrink if shrink_blocks else sample_mse
    parts = tuple((rows, estimate(r[rows])) for rows in groups)
    lam = tuple(part.lam for _, part in parts) if shrink_blocks else None
    pattern = f"{kind}_shrunk" if shrink_blocks else kind
    return CovarianceEstimate(None, pattern, lam=lam, _parts=parts)


def block_by_expert(
    residuals: np.ndarray, panel: ForecastPanel, shrink_blocks: bool = False
) -> CovarianceEstimate:
    """Block-diagonal estimate assuming errors uncorrelated across experts.

    Each block is the n_j x n_j sample MSE of expert j's residual rows, each
    shrunk with its own intensity when ``shrink_blocks`` is set.
    """
    groups = (np.arange(panel.m)[panel.expert_rows(j)] for j in range(panel.p))
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
    est = CovarianceEstimate(w, pattern)
    if est.singular:
        raise NumericalError("supplied covariance is not positive definite")
    return est


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
