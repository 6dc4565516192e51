"""Coherent combination of multi-expert forecasts under linear constraints.

The optimal coherent combination (``occ``) solves the constrained GLS problem
of fitting the target vector to all stacked base forecasts subject to the zero
constraints. It has one closed form per model representation, each a kernel
on ``W``'s diagonal blocks (``CovarianceEstimate.blocks``) and the variable
``var`` of each stacked row, which stands for the selector ``K = I_n[var]``.
Both pool through ``combiners.gls_pool`` (the precision ``K' W^-1 K`` and the
apply ``r -> W^-1 K r``) and invert with ``_linalg.pooled_covariance``:

* ``_zc``     zero-constrained: pool into the multi-task combined forecast
              (``W_c``, weights ``Omega = W^-1 K W_c``), then project it onto
              ``C y = 0`` with the oblique projector ``M``, ``Psi = Omega M'``;
* ``_struct`` structural: pool onto the bottom variables (``W_b``), expand
              ``W_tilde = S W_b S'`` and apply: ``Psi = W^-1 K W_tilde``.

The kernels return weights and covariances only. Every public entry (``occ``,
``mint_reconcile``, ``scr``, ``src``) sets ``y_tilde = Psi' y_hat`` once, on
the by-expert ``Psi``, the same apply that ``cocomb reconcile`` runs per
horizon. No kernel factors ``W`` or one of its blocks: the estimate did.

The four ``FORMULATIONS`` run each kernel by expert (``*_be``) or by variable
(``*_bv``: ``J = P K`` and ``P W P'``). Both are one computation: a block's
solve reads only its rows' variables, which restacking by ``P`` leaves as
they are, so the by-variable weights are the by-expert ones with rows
permuted, and ``occ`` runs each kernel once on ``var_idx``. The tests check
the routes against the dense pooling and the bordered (KKT) solve in
``tests/oracles.py``. ``mint_reconcile`` is the zero-constrained kernel with
``K = I_n`` (the single-expert case); ``scr`` and ``src`` are the sequential
combine-then-reconcile and reconcile-then-average baselines.

``fit`` dispatches a method name (``occ``, ``mint``, ``src``, ``scr_*``) for
``cocomb reconcile`` and the simulation alike, and holds the baselines'
covariance policy: ``src`` reconciles expert j with part j of the
``bd_expert_shrunk`` estimate (the shrunk MSE of its own residual rows),
``scr_*`` with the shrunk MSE of the combined residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cho_factor_spd, cho_solve, pooled_covariance, symmetrize
from .combiners import WeightScheme, gls_pool, single_task_weights
from .constraints import ConstraintSystem
from .covariance import ESTIMATORS, CovarianceEstimate, as_covariance, shrink
from .exceptions import DataError
from .panel import ForecastPanel

FORMULATIONS = ("zc_be", "zc_bv", "struct_be", "struct_bv")
_SCR_SCHEMES = {"scr_ew": "ew", "scr_var": "ow_var", "scr_cov": "ow_cov"}


@dataclass(frozen=True, eq=False)
class CoherentResult:
    """A coherent combined forecast with its weights and error covariance.

    ``Psi`` is always stored in the by-expert ordering (m x n), so that
    ``y_tilde = Psi.T @ y_hat``; for by-variable formulations the equivalent
    by-variable weights are ``Psi[panel.bv_order]``. ``W_tilde`` is the
    reconciled error covariance. ``M`` and ``W_c`` (projector and
    combined-forecast covariance) are filled by the zero-constrained kernel,
    hence also by ``mint_reconcile``.
    """

    y_tilde: np.ndarray
    Psi: np.ndarray
    W_tilde: np.ndarray
    formulation: str
    W_c: np.ndarray | None = None
    M: np.ndarray | None = None


def _zc(blocks, var: np.ndarray, c: np.ndarray):
    """Zero-constrained kernel: GLS pooling, then the coherent projector.

    Returns ``(Psi, W_tilde, W_c, M)`` with the oblique projector
    ``M = I - W_c C' G``, ``G = (C W_c C')^-1 C``, ``W_tilde = M W_c`` and
    ``Psi = Omega M' = Omega - (Omega C')(G W_c)``. ``M`` is applied to
    ``Omega`` after pooling, block by block in place: folding it into the
    pooled weights first loses coherence when ``W`` is ill-conditioned.
    """
    precision, apply = gls_pool(blocks, var, c.shape[1])
    w_c = pooled_covariance(precision)
    del precision  # freed before the m x n weights are built: it would add to the peak
    psi, n = apply(w_c), w_c.shape[0]
    if c.shape[0] == 0:
        return psi, w_c.copy(), w_c, np.eye(n)
    f = cho_factor_spd(symmetrize(c @ w_c @ c.T), "constraint-space covariance")
    g = cho_solve(f, c)
    wc_ct, g_wc, psi_ct = w_c @ c.T, g @ w_c, psi @ c.T
    for rows, _ in blocks:
        psi[rows] -= psi_ct[rows] @ g_wc
    return psi, w_c - wc_ct @ g_wc, w_c, np.eye(n) - wc_ct @ g


def _struct(blocks, var: np.ndarray, s: np.ndarray):
    """Structural kernel: GLS pooling onto the bottom variables, then ``S`` expansion.

    Returns ``(Psi, W_tilde, None, None)`` with ``W_b = (S' K' W^-1 K S)^-1``,
    ``W_tilde = S W_b S'`` and ``Psi = W^-1 K S W_b S' = W^-1 K W_tilde``.
    """
    precision, apply = gls_pool(blocks, var, s.shape[0])
    w_tilde = s @ pooled_covariance(s.T @ precision @ s) @ s.T
    return apply(w_tilde), w_tilde, None, None


def occ(
    panel: ForecastPanel,
    sys: ConstraintSystem,
    cov: CovarianceEstimate,
    formulation: str = "zc_be",
) -> CoherentResult:
    """Optimal coherent combination of all available base forecasts.

    Minimizes the GLS criterion of the stacked base forecasts subject to the
    zero constraints. The two kernels agree up to floating-point error, and a
    ``*_bv`` route is its ``*_be`` route (module docstring); ``zc_be`` is the
    default production route.
    """
    if formulation not in FORMULATIONS:
        raise DataError(f"unknown formulation {formulation!r}; pick one of {FORMULATIONS}")
    if panel.labels != sys.labels:
        raise DataError("panel and constraint system must share the variable set")
    kernel, target = (_zc, sys.C) if formulation.startswith("zc") else (_struct, sys.S)
    psi, w_tilde, w_c, m_proj = kernel(cov.blocks(panel.m), panel.var_idx, target)
    return CoherentResult(psi.T @ panel.y_hat, psi, w_tilde, formulation, w_c, m_proj)


def mint_reconcile(
    y_hat: np.ndarray,
    sys: ConstraintSystem,
    cov_n: np.ndarray | CovarianceEstimate,
) -> CoherentResult:
    """Single-expert minimum-trace reconciliation (the p = 1 case).

    Projects one n-vector of base forecasts onto the coherent subspace with
    the oblique projector ``M = I - W C'(C W C')^-1 C``. Runs the kernel of
    ``occ`` ``zc_be`` with ``K = I_n``, so it matches ``occ`` on a one-expert
    panel bit for bit.
    """
    y_hat = np.asarray(y_hat, dtype=float).reshape(-1)
    if y_hat.shape != (sys.n,):
        raise DataError(f"expected a base forecast vector of length {sys.n}")
    if not np.all(np.isfinite(y_hat)):
        raise DataError("base forecasts contain non-finite values")
    cov = cov_n if isinstance(cov_n, CovarianceEstimate) else as_covariance(cov_n)
    psi, w_tilde, w_c, m_proj = _zc(cov.blocks(sys.n), np.arange(sys.n), sys.C)
    return CoherentResult(psi.T @ y_hat, psi, w_tilde, "mint", w_c, m_proj)


def scr(
    panel: ForecastPanel,
    sys: ConstraintSystem,
    scheme: str | WeightScheme,
    cov_combine: CovarianceEstimate | None,
    cov_reconcile: np.ndarray | CovarianceEstimate,
) -> CoherentResult:
    """Sequential combination-then-reconciliation.

    Combines per variable under ``scheme`` (ew / ow_var / ow_cov, the latter
    two weighted from ``cov_combine``), then reconciles the combined vector
    with ``cov_reconcile`` (an n x n covariance, typically the shrunk MSE of
    the combined in-sample residuals).
    """
    ws = scheme if isinstance(scheme, WeightScheme) else single_task_weights(
        panel, scheme, cov_combine
    )
    g = ws.matrix(panel)
    rec = mint_reconcile(g.T @ panel.y_hat, sys, cov_reconcile)
    psi = g @ rec.Psi
    return CoherentResult(psi.T @ panel.y_hat, psi, rec.W_tilde, f"scr_{ws.scheme}",
                          rec.W_c, rec.M)


def src(panel: ForecastPanel, sys: ConstraintSystem, cov_per_expert) -> CoherentResult:
    """Sequential reconciliation-then-average: balanced panels only.

    Each expert's forecasts are reconciled with that expert's own n x n error
    covariance, then averaged with equal weights; the average of coherent
    vectors stays coherent. The returned error covariance assumes uncorrelated
    experts.
    """
    if not panel.balanced:
        raise DataError("src is limited to balanced panels (every expert covers every variable)")
    cov_list = list(cov_per_expert)
    if len(cov_list) != panel.p:
        raise DataError(f"need one covariance per expert ({panel.p}), got {len(cov_list)}")
    p = panel.p
    fits = [mint_reconcile(panel.expert_vector(j), sys, c) for j, c in enumerate(cov_list)]
    psi = np.vstack([res_j.Psi / p for res_j in fits])
    w_tilde = sum(res_j.W_tilde / p**2 for res_j in fits)
    return CoherentResult(psi.T @ panel.y_hat, psi, w_tilde, "src")


def fit(
    method: str,
    panel: ForecastPanel,
    sys: ConstraintSystem,
    resid: np.ndarray,
    cov: CovarianceEstimate | None,
    formulation: str = "zc_be",
) -> CoherentResult:
    """Fit ``method`` on ``panel`` with its m x T residuals ``resid``.

    ``cov`` backs ``occ`` (in ``formulation``), ``mint`` and the combination
    step of ``scr_*``; the baselines reconcile as the module docstring says.
    """
    if method == "occ":
        return occ(panel, sys, cov, formulation)
    if method == "mint":
        if panel.p != 1 or not panel.balanced:
            raise DataError("mint expects a single expert covering every series")
        return mint_reconcile(panel.y_hat, sys, cov)
    if method == "src":
        return src(panel, sys, [c for _, c in ESTIMATORS["bd_expert_shrunk"](resid, panel).parts])
    if method not in _SCR_SCHEMES:
        raise DataError(f"unknown method {method!r}")
    return _scr_fit(panel, sys, resid, single_task_weights(panel, _SCR_SCHEMES[method], cov))


def _scr_fit(panel, sys, resid, ws: WeightScheme) -> CoherentResult:
    """``scr`` under the weights ``ws``, reconciled with the shrunk MSE of the
    combined residuals: ``fit``'s ``scr_*``, for callers holding the weights."""
    return scr(panel, sys, ws, None, shrink(ws.matrix(panel).T @ resid))
