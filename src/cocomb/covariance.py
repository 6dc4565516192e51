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
``CovarianceEstimate.parts`` (a dense estimate is its own one part). Every
estimator reads its estimates off ``_Moments``, one pass over a residual
matrix: a library block estimator takes one pass per block (no m x m
product), while the simulation takes one pass over all rows per replication
and reads each pattern's blocks off it as sub-blocks. A shrinkage intensity reads
both its sums off the MSE and the squared standardized rows. Every dense estimate,
read off a pass or supplied by a user (``as_covariance``), goes through
``CovarianceEstimate``'s copy and its square and finite checks. Solvers
use ``W`` only through ``blocks(m)``: each part's rows with its Cholesky
factor, taken once, when the part is estimated. A part that fails to factor,
or a sample MSE wider than T (left unfactored), is ``singular``, and so is an
estimate holding it; ``blocks`` refuses tagged or mis-sized estimates instead
of regularizing behind the caller's back.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._linalg import cho_factor_spd
from .exceptions import DataError, NumericalError
from .panel import ForecastPanel


class CovarianceEstimate:
    """An m x m error covariance with its pattern tag and shrinkage intensity.

    ``lam`` is None (no shrinkage), a float (global), or a tuple of per-block
    intensities. ``singular`` marks estimates that cannot back a GLS solve.
    The constructor is the only way to a dense estimate, the package's own
    included: it copies ``W``, checks that it is square and finite, marks it
    read-only and factors it (unless tagged ``singular``). A block estimate
    holds no matrix of its own: ``_of_parts`` assembles it from its diagonal
    blocks, ``(rows, dense estimate)`` pairs, and ``W`` on first access.
    """

    def __init__(self, W, pattern: str, lam: float | tuple[float, ...] | None = None,
                 singular: bool = False):
        if pattern not in PATTERNS:
            raise DataError(f"unknown covariance pattern {pattern!r}")
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
        self.pattern, self.lam, self._W, self._parts = pattern, lam, w, None
        self.singular, self.m = self._factor is None, w.shape[0]

    @classmethod
    def _of_parts(cls, parts: tuple, pattern: str, lam: tuple[float, ...] | None):
        """The block estimate of ``parts``, its diagonal blocks as ``(rows, dense estimate)``."""
        est = cls.__new__(cls)
        est.pattern, est.lam, est._W, est._parts = pattern, lam, None, parts
        est.singular, est.m = any(p.singular for _, p in parts), sum(p.m for _, p in parts)
        return est

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


class _Moments:
    """One pass over m x T residuals (as ``_check_residuals`` returns them).

    Holds the row variances, and computes the sample MSE on first use. The
    moments of any set of rows are sub-blocks of these, and a set's shrinkage
    intensity reads only those sub-blocks and its rows (``intensity``), so
    ``dense`` and ``estimate`` read every estimate off one pass over all rows.
    Read over all its rows, a pass gives ``sample_mse``, ``shrink`` and
    ``diagonal_mse`` of its residuals; a sub-block read rounds differently
    from a pass over those rows alone, within 1e-14 relative.
    """

    def __init__(self, r: np.ndarray):
        self.r, self.T, self.var = r, r.shape[1], np.einsum("it,it->i", r, r) / r.shape[1]

    @cached_property
    def mse(self) -> np.ndarray:
        w = self.r @ self.r.T / self.T
        return 0.5 * (w + w.T)

    def intensity(self, rows=slice(None)) -> float:
        """The shrinkage intensity of ``rows`` (an index array, or all rows), clamped to [0, 1].

        With ``d = var^-1/2`` and ``q_i = (d_i r_i)^2``, the squared correlations
        ``c_ij^2 = (mse_ij d_i d_j)^2`` have sampling variances summing to
        ``[(|sum_i q_i|^2 - sum_i |q_i|^2) / T - sum_(i != j) c_ij^2] / (T - 1)``."""
        v = self.var[rows]
        if (v <= 0).any():
            raise NumericalError("zero-variance residual coordinate; cannot shrink")
        if not np.isfinite(v).all():  # overflowed: refused as the estimate it would shrink is
            raise DataError("covariance contains non-finite entries")
        d = 1.0 / np.sqrt(v)
        corr_sq = self.mse[rows][:, rows] * d[:, None]  # scaled before squaring, in one buffer
        corr_sq *= d
        corr_sq **= 2
        np.fill_diagonal(corr_sq, 0.0)  # zeroed, not subtracted: uncorrelated rows sum to exactly 0
        denom = float(corr_sq.sum())
        if denom == 0.0:
            return 1.0
        q = (self.r[rows] * d[:, None]) ** 2
        total = q.sum(axis=0)
        var_corr = ((total @ total - np.einsum("it,it->", q, q)) / self.T - denom) / (self.T - 1)
        return float(min(1.0, max(0.0, var_corr / denom)))

    # products that overflow leave W non-finite, which the constructor refuses:
    # numpy's RuntimeWarning would only repeat that, outside the error's JSON line
    @np.errstate(over="ignore", invalid="ignore")
    def dense(self, shrunk: bool, rows=slice(None), lam: float | None = None) -> CovarianceEstimate:
        """The ``sample`` or (``lam``, by default estimated) ``shrunk`` estimate of ``rows``."""
        w = self.mse[rows][:, rows]
        if not shrunk:
            return CovarianceEstimate(w, "sample", singular=w.shape[0] > self.T)
        if (w.diagonal() <= 0).any():
            raise NumericalError("zero-variance residual coordinate; cannot shrink")
        lam = self.intensity(rows) if lam is None else lam
        if not 0.0 <= lam <= 1.0:
            raise DataError("shrinkage intensity must lie in [0, 1]")
        return CovarianceEstimate(lam * np.diag(np.diag(w)) + (1.0 - lam) * w, "shrunk", lam=lam)

    def estimate(self, pattern: str, panel: ForecastPanel | None = None) -> CovarianceEstimate:
        """``ESTIMATORS[pattern]`` of these residuals, every block read off this pass."""
        if pattern == "diagonal":
            return CovarianceEstimate(np.diag(self.var), "diagonal")
        if pattern in ("sample", "shrunk"):
            return self.dense(pattern == "shrunk")
        kind = pattern.removesuffix("_shrunk")
        return _block_diagonal(self.dense, panel, kind, kind != pattern)


def sample_mse(residuals: np.ndarray) -> CovarianceEstimate:
    """Sample forecast MSE matrix ``(1/T) sum_t e_t e_t'``."""
    return _Moments(_check_residuals(residuals)).dense(False)


def shrink_intensity(residuals: np.ndarray) -> float:
    """Shrinkage intensity toward the diagonal target, clamped to [0, 1].

    Closed form (Schaefer & Strimmer; R's ``shrink.estim``): the summed
    sampling variances of the off-diagonal sample correlations divided by
    their summed squares, under the uncentered MSE convention: O(m^2 + mT)
    beyond the MSE. Residuals whose squares overflow raise ``DataError``.
    """
    return _Moments(_check_residuals(residuals)).intensity()


def shrink(residuals: np.ndarray, lam: float | None = None) -> CovarianceEstimate:
    """Sample MSE shrunk toward its diagonal: ``lam*diag(W) + (1-lam)*W``.

    ``lam`` defaults to the estimated intensity; passing an explicit value
    overrides it (used to pin the endpoints in tests).
    """
    return _Moments(_check_residuals(residuals)).dense(True, lam=lam)


def diagonal_mse(residuals: np.ndarray) -> CovarianceEstimate:
    """Diagonal of the sample MSE matrix."""
    return _Moments(_check_residuals(residuals)).estimate("diagonal")


def _block_diagonal(dense, panel: ForecastPanel, kind: str, shrink_blocks: bool):
    """The sum of one dense estimate ``dense(shrink_blocks, rows)`` per block of
    ``kind``, each expert's or each variable's rows: ``shrink`` (with its own
    intensity) when ``shrink_blocks`` is set, ``sample_mse`` otherwise."""
    groups = (np.split(np.arange(panel.m), np.cumsum(panel.n_j)[:-1]) if kind == "bd_expert"
              else (panel.variable_rows(i) for i in range(panel.n)))
    parts = tuple((rows, dense(shrink_blocks, rows)) for rows in groups)
    return CovarianceEstimate._of_parts(parts, f"{kind}_shrunk" if shrink_blocks else kind,
                                        tuple(p.lam for _, p in parts) if shrink_blocks else None)


def _blocks_one_pass_each(residuals, panel: ForecastPanel, kind: str, shrink_blocks: bool):
    """A block pattern with one pass per block, over that block's rows alone:
    no m x m product, and each block as ``sample_mse`` or ``shrink`` gives it."""
    r = _check_residuals(residuals)
    if r.shape[0] != panel.m:
        raise DataError(f"residuals must have {panel.m} rows")
    return _block_diagonal(lambda s, rows: _Moments(r[rows]).dense(s), panel, kind, shrink_blocks)


def block_by_expert(
    residuals: np.ndarray, panel: ForecastPanel, shrink_blocks: bool = False
) -> CovarianceEstimate:
    """Block-diagonal estimate assuming errors uncorrelated across experts.

    Each block is the n_j x n_j sample MSE of expert j's residual rows, each
    shrunk with its own intensity when ``shrink_blocks`` is set.
    """
    return _blocks_one_pass_each(residuals, panel, "bd_expert", shrink_blocks)


def block_by_variable(
    residuals: np.ndarray, panel: ForecastPanel, shrink_blocks: bool = False
) -> CovarianceEstimate:
    """Block-diagonal estimate assuming errors uncorrelated across variables.

    Each block is the p_i x p_i sample MSE of variable i's residual rows (each
    shrunk with its own intensity when ``shrink_blocks`` is set), placed at
    those rows and columns of the by-expert ordering.
    """
    return _blocks_one_pass_each(residuals, panel, "bd_variable", shrink_blocks)


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
