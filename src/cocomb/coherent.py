"""Coherent combination of multi-expert forecasts under linear constraints.

The optimal coherent combination (``occ``) solves the constrained GLS problem
of fitting the target vector to all stacked base forecasts subject to the zero
constraints. It has one closed form per model representation, each a kernel
on a solve ``x -> W^-1 x``, a stacked selector ``K`` and base forecasts ``y``:

* ``_zc``     zero-constrained: pool all forecasts by GLS into the multi-task
              combined forecast, then project it onto ``C y = 0`` with the
              oblique projector built from its covariance;
* ``_struct`` structural: GLS on the bottom variables through ``K S``, then
              bottom-up expansion by ``S``.

The solve is ``CovarianceEstimate.solve`` (no kernel factors ``W``). Each
kernel runs in two stackings, which gives the four ``FORMULATIONS``: by-expert
(``*_be``) on the panel's own ``K`` and ``y_hat``, and by-variable (``*_bv``)
on both restacked by ``bv_order``, with the solve conjugated by that
permutation and the weight rows put back in by-expert order. Their agreement
is checked in the tests against each other and against the independent
bordered (KKT) solve in ``tests/oracles.py`` (``kkt_solve``, ``kkt_residual``).
``mint_reconcile`` is the zero-constrained kernel with ``K = I_n`` (the
single-expert case); ``scr`` and ``src`` are the sequential
combine-then-reconcile and reconcile-then-average baselines.

``fit`` dispatches a method name (``occ``, ``mint``, ``src``, ``scr_*``) for
``cocomb reconcile`` and the simulation alike, and holds the baselines'
covariance policy: ``src`` reconciles each expert with the shrunk MSE of its
own residual rows, ``scr_*`` with the shrunk MSE of the combined residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import cho_factor_spd, cho_solve, symmetrize
from .combiners import WeightScheme, gls_pool, single_task_weights
from .constraints import ConstraintSystem
from .covariance import CovarianceEstimate, as_covariance, shrink
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


def _coherent_projector(w_c: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Oblique projector onto the coherent subspace: I - W_c C'(C W_c C')^-1 C."""
    n = w_c.shape[0]
    if c.shape[0] == 0:
        return np.eye(n)
    cwc = symmetrize(c @ w_c @ c.T)
    f = cho_factor_spd(cwc, "constraint-space covariance")
    return np.eye(n) - w_c @ c.T @ cho_solve(f, c)


def _zc(solve, k: np.ndarray, y: np.ndarray, c: np.ndarray) -> CoherentResult:
    """Zero-constrained kernel: GLS pooling, then the coherent projector."""
    omega, w_c = gls_pool(solve, k)
    m_proj = _coherent_projector(w_c, c)
    psi = omega @ m_proj.T
    return CoherentResult(
        y_tilde=psi.T @ y,
        Psi=psi,
        W_tilde=m_proj @ w_c,
        formulation="zc_be",
        W_c=w_c,
        M=m_proj,
    )


def _struct(solve, k: np.ndarray, y: np.ndarray, s: np.ndarray) -> CoherentResult:
    """Structural kernel: GLS on the bottom variables, then ``S`` expansion."""
    ks = k @ s
    t1 = solve(ks)
    f_h = cho_factor_spd(symmetrize(ks.T @ t1), "bottom-variable precision")
    g = cho_solve(f_h, t1.T)
    return CoherentResult(
        y_tilde=s @ (g @ y),
        Psi=(s @ g).T,
        W_tilde=s @ cho_solve(f_h, s.T),
        formulation="struct_be",
    )


def occ(
    panel: ForecastPanel,
    sys: ConstraintSystem,
    cov: CovarianceEstimate,
    formulation: str = "zc_be",
) -> CoherentResult:
    """Optimal coherent combination of all available base forecasts.

    Minimizes the GLS criterion of the stacked base forecasts subject to the
    zero constraints. The four formulations agree up to floating-point error;
    ``zc_be`` is the default production route.
    """
    if formulation not in FORMULATIONS:
        raise DataError(f"unknown formulation {formulation!r}; pick one of {FORMULATIONS}")
    if panel.labels != sys.labels:
        raise DataError("panel and constraint system must share the variable set")
    kernel, target = (_zc, sys.C) if formulation.startswith("zc") else (_struct, sys.S)
    if formulation.endswith("_be"):
        res = kernel(cov.solve, panel.K, panel.y_hat, target)
    else:
        bv = panel.bv_order
        be = np.argsort(bv)
        res = kernel(lambda x: cov.solve(x[be])[bv], panel.K[bv], panel.y_hat[bv], target)
        res = replace(res, Psi=res.Psi[be])
    return replace(res, formulation=formulation)


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
    return replace(_zc(cov.solve, np.eye(sys.n), y_hat, sys.C), formulation="mint")


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
    y_c = ws.apply(panel)
    rec = mint_reconcile(y_c, sys, cov_reconcile)
    psi = ws.matrix(panel) @ rec.Psi
    return CoherentResult(
        y_tilde=rec.y_tilde,
        Psi=psi,
        W_tilde=rec.W_tilde,
        formulation=f"scr_{ws.scheme}",
        W_c=rec.W_c,
        M=rec.M,
    )


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
    n, p = panel.n, panel.p
    psi_blocks = []
    y_parts = []
    w_tilde = np.zeros((n, n))
    for j, cov_j in enumerate(cov_list):
        res_j = mint_reconcile(panel.expert_vector(j), sys, cov_j)
        psi_blocks.append(res_j.Psi / p)
        y_parts.append(res_j.y_tilde)
        w_tilde += res_j.W_tilde / p**2
    return CoherentResult(
        y_tilde=np.mean(y_parts, axis=0),
        Psi=np.vstack(psi_blocks),
        W_tilde=w_tilde,
        formulation="src",
    )


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
        return src(panel, sys, [shrink(resid[panel.expert_rows(j)]) for j in range(panel.p)])
    if method not in _SCR_SCHEMES:
        raise DataError(f"unknown method {method!r}")
    ws = single_task_weights(panel, _SCR_SCHEMES[method], cov)
    return scr(panel, sys, ws, cov, shrink(ws.matrix(panel).T @ resid))
