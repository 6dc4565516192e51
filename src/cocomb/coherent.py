"""Coherent combination of multi-expert forecasts under linear constraints.

The optimal coherent combination (``occ``) solves the constrained GLS problem
of fitting the target vector to all stacked base forecasts subject to the zero
constraints. It has one closed form per model representation, each a kernel
on the covariance estimate and the variable ``var`` of each stacked row,
which stands for the selector ``K = I_n[var]``:

* ``_zc``     zero-constrained: pool into the multi-task combined forecast
              (``W_c``, weights ``Omega = W^-1 K W_c``) by ``combiners.pool``,
              then project it onto ``C y = 0`` with the oblique projector
              ``M``, ``Psi = Omega M'``;
* ``_struct`` structural: pool onto the bottom variables through
              ``combiners.gls_pool`` (the precision ``K' W^-1 K`` and the
              apply ``r -> W^-1 K r``) and invert with
              ``_linalg.pooled_covariance`` (``W_b``), expand
              ``W_tilde = S W_b S'`` and apply: ``Psi = W^-1 K W_tilde``.

The kernels return weights and covariances only. Every public entry (``occ``,
``mint_reconcile``, ``scr``, ``src``) sets ``y_tilde = Psi' y_hat`` once, on
the by-expert ``Psi``, the same apply that ``cocomb reconcile`` runs per
horizon. No kernel factors ``W`` or one of its blocks: the estimate did.
``_zc`` returns its n x n ``W_tilde`` and ``M`` unformed, as functions of the
n x n_u pieces ``W_c C'``, ``G`` and ``G W_c``: most callers read only
``y_tilde`` and ``Psi``, so a zero-constrained result holds ``Psi``, ``W_c``
and those pieces until ``W_tilde`` or ``M`` is read (``CoherentResult``).
``pool`` drops the blocks' inverses ``W_g^-1`` once ``Omega`` is formed. The
structural kernel and ``src`` form ``W_tilde`` at once: their ``Psi`` or sum
needs it.

The four ``FORMULATIONS`` run each kernel by expert (``*_be``) or by variable
(``*_bv``: ``J = P K`` and ``P W P'``). Both are one computation: a block's
solve reads only its rows' variables, which restacking by ``P`` leaves as
they are, so the by-variable weights are the by-expert ones with rows
permuted, and ``occ`` runs each kernel once on ``var_idx``. The tests check
the routes against the dense pooling and the bordered (KKT) solve in
``tests/oracles.py``. ``mint_reconcile`` is the zero-constrained kernel with
``K = I_n`` (the single-expert case), where the pooling inverts nothing:
``W_c = W`` and ``Omega = I``. So is ``occ`` ``zc_*`` on any panel with one
forecast per variable (``K`` a permutation). ``scr`` and ``src`` are the
sequential combine-then-reconcile and reconcile-then-average baselines.

``fit`` dispatches a method name (``occ``, ``mint``, ``src``, ``scr_*``) for
``cocomb reconcile`` and the simulation alike, and holds the baselines'
covariance policy: ``src`` reconciles expert j with part j of the
``bd_expert_shrunk`` estimate (the shrunk MSE of its own residual rows),
``scr_*`` with the shrunk MSE of the combined residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._linalg import cho_factor_spd, cho_solve, pooled_covariance, symmetrize
from .combiners import WeightScheme, gls_pool, pool, single_task_weights
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
    hence also by ``mint_reconcile`` and ``scr``.

    ``W_tilde`` and ``M`` may be stored unformed, as a function of no argument
    (``_zc`` stores them so): the first read calls it and keeps the array, so
    every read returns that one object, with the bits an eager build gives.
    ``dataclasses.replace`` reads, hence forms, both. Two threads making the
    first read at once may each form the array: both get the same bits.
    """

    y_tilde: np.ndarray
    Psi: np.ndarray
    W_tilde: np.ndarray
    formulation: str
    W_c: np.ndarray | None = None
    M: np.ndarray | None = None

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if name in ("W_tilde", "M") and callable(value):
            object.__setattr__(self, name, value := value())
        return value


def _minus(left, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``left - u @ v`` in the product's buffer, for ``_zc``'s n x n outputs.

    ``left`` is ``W_c``, or None for the identity: ``0 - x`` off the diagonal,
    then ``+ 1`` on it, gives the bits of ``np.eye(n) - x`` with no n x n
    temporary (``0 - x`` is ``-x`` but for zeros, and ``-x + 1`` is ``1 - x``).
    """
    out = u @ v
    np.subtract(0.0 if left is None else left, out, out=out)
    if left is None:
        out.flat[:: len(out) + 1] += 1.0
    return out


def _zc(cov: CovarianceEstimate, var: np.ndarray, c: np.ndarray):
    """Zero-constrained kernel: GLS pooling (``combiners.pool``), then the coherent projector.

    Returns ``(Psi, W_tilde, W_c, M)`` with the oblique projector
    ``M = I - W_c C' G``, ``G = (C W_c C')^-1 C``, ``W_tilde = M W_c`` and
    ``Psi = Omega M' = Omega - (Omega C')(G W_c)``. ``M`` is applied to
    ``Omega`` after pooling, block by block in place: folding it into the
    pooled weights first loses coherence when ``W`` is ill-conditioned.
    ``W_tilde = W_c - (W_c C')(G W_c)`` and ``M`` are returned unformed
    (``CoherentResult``), holding only ``W_c`` and the n x n_u pieces.
    """
    w_c, psi = pool(cov, var, c.shape[1])
    if c.shape[0] == 0:
        return psi, w_c.copy, w_c, partial(np.eye, len(w_c))
    f = cho_factor_spd(symmetrize(c @ w_c @ c.T), "constraint-space covariance")
    g = cho_solve(f, c)
    wc_ct, g_wc, psi_ct = w_c @ c.T, g @ w_c, psi @ c.T
    for rows, _ in cov.parts:
        psi[rows] -= psi_ct[rows] @ g_wc
    return psi, partial(_minus, w_c, wc_ct, g_wc), w_c, partial(_minus, None, wc_ct, g)


def _struct(cov: CovarianceEstimate, var: np.ndarray, s: np.ndarray):
    """Structural kernel: GLS pooling onto the bottom variables, then ``S`` expansion.

    Returns ``(Psi, W_tilde, None, None)`` with ``W_b = (S' K' W^-1 K S)^-1``,
    ``W_tilde = S W_b S'`` and ``Psi = W^-1 K S W_b S' = W^-1 K W_tilde``.
    """
    precision, apply = gls_pool(cov.blocks(var.size), var, s.shape[0])
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
    psi, w_tilde, w_c, m_proj = kernel(cov, panel.var_idx, target)
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
    panel bit for bit. Its pooling inverts nothing: ``W_c`` is the estimate's
    ``W`` (an asymmetric ``cov_n`` is mirrored from its lower triangle, as its
    Cholesky factor reads it, when it becomes an estimate), and the one
    factorization is that of ``C W C'``.
    """
    y_hat = np.asarray(y_hat, dtype=float).reshape(-1)
    if y_hat.shape != (sys.n,):
        raise DataError(f"expected a base forecast vector of length {sys.n}")
    if not np.all(np.isfinite(y_hat)):
        raise DataError("base forecasts contain non-finite values")
    cov = cov_n if isinstance(cov_n, CovarianceEstimate) else as_covariance(cov_n)
    psi, w_tilde, w_c, m_proj = _zc(cov, np.arange(sys.n), sys.C)
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
    rec = vars(mint_reconcile(g.T @ panel.y_hat, sys, cov_reconcile))  # W_tilde, M unformed
    psi = g @ rec["Psi"]
    return CoherentResult(psi.T @ panel.y_hat, psi, rec["W_tilde"], f"scr_{ws.scheme}",
                          rec["W_c"], rec["M"])


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
