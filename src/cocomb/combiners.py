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
pooling step (both ``occ`` kernels use it too), takes ``W`` as its diagonal
blocks with their Cholesky factors (``CovarianceEstimate.blocks``) and the
design as the panel's row index ``var_idx``, never as a matrix, and sums the
blocks' pieces into the n x n pooled precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cho_factor_spd, cho_inverse, cho_solve, pooled_covariance
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


def gls_pool(blocks, var: np.ndarray, n: int):
    """GLS pooling of stacked forecasts onto their variables, one block of ``W`` at a time.

    ``blocks`` are ``W``'s diagonal blocks as ``(rows, Cholesky factor)`` pairs
    (``CovarianceEstimate.blocks``); ``var`` is the variable of each stacked
    row, so ``K = I_n[var]``, which is never built. Returns the n x n precision
    ``K' W^-1 K`` and ``apply(r) = W^-1 K r``: ``_linalg.pooled_covariance``
    inverts the precision into ``W_c``, and the weights are ``Omega = apply(W_c)``.

    Block g with rows ``R_g`` touches only the variables ``cols_g`` of
    ``var[R_g]``. With its 0/1 selector ``K_g = K[R_g][:, cols_g]`` and
    ``B_g = W_g^-1 K_g``, the precision is ``sum_g K_g' B_g`` scattered at
    ``(cols_g, cols_g)``, and ``(W^-1 K r)[R_g] = B_g r[cols_g]``. Only the
    (row, variable) pairs of a block enter, so restacking rows and blocks by
    variable (``P``) changes no ``K_g`` or ``B_g``.

    A block whose rows are distinct variables (each ``bd_expert*`` block, one
    per expert j on its n_j variables; ``mint``'s ``arange(n)``) has a
    permutation ``K_g``: ``cols_g = var[R_g]`` and ``B_g = W_g^-1``, by
    ``_linalg.cho_inverse``. A block that repeats a variable (a dense pattern,
    one block, with p>1) solves ``B_g`` against its 0/1 ``K_g``.
    Errors uncorrelated across variables (``bd_variable*``) give one block
    ``Sigma_i`` per variable i, whose p_i rows of ``K`` all equal ``e_i'``, so
    ``K_g = 1`` (a p_i-vector) and ``cols_g = (i,)``. The precision is then
    diagonal,

        K' W^-1 K = diag_i(1' Sigma_i^-1 1),   W_c = diag_i(1 / 1' Sigma_i^-1 1),

    and the rows of variable i in ``Omega`` hold the per-variable GLS weights
    ``Sigma_i^-1 1 / 1' Sigma_i^-1 1`` in column i and zeros elsewhere. The
    zero-constrained ``occ`` is then this per-variable combination followed by
    a WLS reconciliation with the diagonal ``W_c``: the MinT projector of
    Wickramasuriya, Athanasopoulos & Hyndman (JASA 2019) with a diagonal
    covariance.
    """
    precision = np.zeros((n, n))
    parts = []
    for rows, factor in blocks:
        v = var[rows]
        cols = np.flatnonzero(np.bincount(v))
        if cols.size < v.size:  # a repeated variable: solve against the 0/1 selector
            k_g = (v[:, None] == cols).astype(float)
            b_g = cho_solve(factor, k_g)
            precision[cols[:, None], cols] += k_g.T @ b_g
        else:  # distinct variables: K_g is a permutation, B_g = W_g^-1 in rows' order
            cols, b_g = v, cho_inverse(factor)
            precision[v[:, None], v] += b_g
        parts.append((rows, cols, b_g))

    def apply(r: np.ndarray) -> np.ndarray:
        out = np.empty((var.size, r.shape[1]))
        for rows, cols, b_g in parts:
            out[rows] = b_g @ r[cols]
        return out

    return precision, apply


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
    precision, apply = gls_pool(cov.blocks(panel.m), panel.var_idx, panel.n)
    w_c = pooled_covariance(precision)
    omega = apply(w_c)
    return MultiTaskResult(y_c=omega.T @ panel.y_hat, Omega=omega, W_c=w_c)
