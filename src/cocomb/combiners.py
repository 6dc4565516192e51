"""Forecast combination: single-task weight schemes and the multi-task GLS pool.

Single-task schemes weight the experts of one variable at a time:

* ``ew``      equal weights 1/p_i;
* ``ow_var``  weights inversely proportional to each expert's error variance;
* ``ow_cov``  minimum-variance weights on the unit simplex (non-negative,
  summing to one), using the full per-variable error covariance.

A scheme's weights are the m x n matrix ``G`` (``WeightScheme.matrix``), and
``WeightScheme.apply`` is ``G' y_hat``, the one apply every method shares.

The multi-task combination pools all m forecasts at once through the stacked
regression of the base forecasts on the target vector, yielding the combined
vector, its weight matrix and its error covariance. ``gls_pool``, the one GLS
pooling step (both ``occ`` kernels use it too), takes ``W`` as a solve
``x -> W^-1 x`` (``CovarianceEstimate.solve``), never as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cho_factor_spd, cho_solve, symmetrize
from .covariance import CovarianceEstimate
from .exceptions import DataError, NumericalError
from .panel import ForecastPanel

SINGLE_TASK_SCHEMES = ("ew", "ow_var", "ow_cov")


@dataclass(frozen=True, eq=False)
class WeightScheme:
    """Per-variable combination weights; each vector sums to one."""

    scheme: str
    weights: tuple[np.ndarray, ...]

    def matrix(self, panel: ForecastPanel) -> np.ndarray:
        """The (m x n) matrix G with ``combined = G.T @ y_hat_stacked``."""
        g = np.zeros((panel.m, panel.n))
        for i in range(panel.n):
            g[panel.variable_rows(i), i] = self.weights[i]
        return g

    def apply(self, panel: ForecastPanel, y_hat: np.ndarray | None = None) -> np.ndarray:
        """The combined forecast ``G' y_hat`` (the panel's own forecasts by default)."""
        values = panel.y_hat if y_hat is None else np.asarray(y_hat, dtype=float)
        return self.matrix(panel).T @ values


def simplex_weights(sigma: np.ndarray, tol: float = 1e-8, max_iter: int = 200) -> np.ndarray:
    """Minimize ``w' sigma w`` over the unit simplex by an active-set iteration.

    Starts from the sum-to-one solution on all coordinates, zeroes any negative
    weights and re-solves on the remaining free set; coordinates whose
    optimality condition is violated re-enter. Ties at zero stay at zero.
    """
    sigma = np.asarray(sigma, dtype=float)
    k = sigma.shape[0]
    if k == 1:
        return np.ones(1)
    free = np.ones(k, dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(free)
        sub = sigma[np.ix_(idx, idx)]
        raw = cho_solve(cho_factor_spd(sub, "per-variable covariance"), np.ones(len(idx)))
        gamma_free = raw / raw.sum()
        if np.any(gamma_free < -tol):
            free[idx[gamma_free < -tol]] = False
            continue
        gamma = np.zeros(k)
        gamma[idx] = np.clip(gamma_free, 0.0, None)
        gamma /= gamma.sum()
        grad = sigma @ gamma
        mu = grad[idx].mean()
        violated = np.flatnonzero(~free & (grad < mu - tol))
        if violated.size == 0:
            return gamma
        free[violated[np.argmin(grad[violated])]] = True
    raise NumericalError("simplex weight iteration did not converge")


def single_task_weights(
    panel: ForecastPanel, scheme: str, cov: CovarianceEstimate | None = None
) -> WeightScheme:
    """Per-variable combination weights under the requested scheme.

    ``ow_var`` and ``ow_cov`` read the per-variable error covariance blocks out
    of ``cov`` (by-expert ordering); ``ew`` needs no covariance.
    """
    if scheme not in SINGLE_TASK_SCHEMES:
        raise DataError(f"unknown single-task scheme {scheme!r}")
    if scheme != "ew" and cov is None:
        raise DataError(f"scheme {scheme!r} requires a covariance estimate")
    weights: list[np.ndarray] = []
    for i in range(panel.n):
        rows = panel.variable_rows(i)
        p_i = len(rows)
        if scheme == "ew" or p_i == 1:
            weights.append(np.full(p_i, 1.0 / p_i))
            continue
        sigma_i = cov.W[np.ix_(rows, rows)]
        if scheme == "ow_var":
            variances = np.diag(sigma_i)
            if np.any(variances <= 0):
                raise NumericalError(
                    f"zero error variance for variable {panel.labels[i]!r}"
                )
            w = 1.0 / variances
            weights.append(w / w.sum())
        else:
            weights.append(simplex_weights(sigma_i))
    return WeightScheme(scheme, tuple(weights))


def combine_single_task(
    panel: ForecastPanel, scheme: str | WeightScheme, cov: CovarianceEstimate | None = None
) -> np.ndarray:
    """Combined (generally incoherent) forecast vector, one entry per variable."""
    ws = scheme if isinstance(scheme, WeightScheme) else single_task_weights(panel, scheme, cov)
    return ws.apply(panel)


def gls_pool(solve, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GLS pooling of stacked forecasts with design ``k``; ``solve(x) = W^-1 x``.

    ``k`` is the selector ``K``, or ``K S`` when pooling onto the bottom
    variables. Returns ``(Omega, W_c)`` with ``W_c = (K' W^-1 K)^-1`` and
    ``Omega = W^-1 K W_c``; the pooled precision is Cholesky-factored.
    """
    b = solve(k)
    f_c = cho_factor_spd(symmetrize(k.T @ b), "combined-forecast precision")
    w_c = symmetrize(cho_solve(f_c, np.eye(k.shape[1])))
    return b @ w_c, w_c


@dataclass(frozen=True, eq=False)
class MultiTaskResult:
    """Multi-task combined forecast with its weights and error covariance."""

    y_c: np.ndarray
    Omega: np.ndarray
    W_c: np.ndarray


def combine_multi_task(panel: ForecastPanel, cov: CovarianceEstimate) -> MultiTaskResult:
    """Minimum-MSE linear pooling of all m base forecasts.

    Solves the stacked GLS problem: ``W_c = (K' W^-1 K)^-1``,
    ``Omega = W^-1 K W_c`` and ``y_c = Omega' y_hat`` (see ``gls_pool``).
    Requires an SPD, untagged covariance of size m.
    """
    omega, w_c = gls_pool(cov.solve, panel.K)
    return MultiTaskResult(y_c=omega.T @ panel.y_hat, Omega=omega, W_c=w_c)
