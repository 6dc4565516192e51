"""Independent reference implementations used only for verification.

These deliberately avoid the production code paths: explicit inverses, naive
loops and dense block solves instead of Cholesky pipelines.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def kkt_solve(K, W, C, y_hat):
    """Dense solve of the bordered first-order system of the constrained GLS
    program; returns (y, multipliers)."""
    n = K.shape[1]
    n_u = C.shape[0]
    w_inv = np.linalg.inv(W)
    lhs = np.block(
        [
            [K.T @ w_inv @ K, C.T],
            [C, np.zeros((n_u, n_u))],
        ]
    )
    rhs = np.concatenate([K.T @ w_inv @ y_hat, np.zeros(n_u)])
    sol = np.linalg.solve(lhs, rhs)
    return sol[:n], sol[n:]


def kkt_residual(K, W, C, y_hat, y_tilde):
    """Max-norm residual of the bordered system evaluated at ``y_tilde``.

    The multiplier is recovered by least squares, so the residual measures how
    far ``y_tilde`` is from satisfying stationarity and feasibility.
    """
    w_inv = np.linalg.inv(W)
    grad = K.T @ w_inv @ (y_hat - K @ y_tilde)
    lam, *_ = np.linalg.lstsq(C.T, grad, rcond=None) if C.shape[0] else (np.zeros(0),)
    stationarity = grad - (C.T @ lam if C.shape[0] else 0.0)
    feasibility = C @ y_tilde if C.shape[0] else np.zeros(0)
    parts = [np.abs(stationarity).max()]
    if feasibility.size:
        parts.append(np.abs(feasibility).max())
    return float(max(parts))


def gls_normal_equations(K, W, y_hat):
    """Multi-task combination by explicit normal equations: (y_c, W_c)."""
    w_inv = np.linalg.inv(W)
    a = K.T @ w_inv @ K
    return np.linalg.solve(a, K.T @ w_inv @ y_hat), np.linalg.inv(a)


def dense_pool(W, K):
    """GLS pooling through one Cholesky solve of the whole dense ``W``.

    ``b = W^-1 K``, ``W_c = (K' b)^-1``, ``Omega = b W_c``; returns
    ``(Omega, W_c)``. ``K`` is the selector, or ``K S`` for the bottom
    variables.
    """
    b = scipy.linalg.cho_solve(scipy.linalg.cho_factor(W, lower=True), K)
    precision = K.T @ b
    f_c = scipy.linalg.cho_factor(0.5 * (precision + precision.T), lower=True)
    w_c = scipy.linalg.cho_solve(f_c, np.eye(K.shape[1]))
    w_c = 0.5 * (w_c + w_c.T)
    return b @ w_c, w_c


def dense_zc(W, K, C):
    """Zero-constrained occ by dense pooling: ``(Psi, W_tilde, W_c)``, ``Psi = Omega M'``."""
    omega, w_c = dense_pool(W, K)
    cwc = C @ w_c @ C.T
    m_proj = np.eye(w_c.shape[0]) - w_c @ C.T @ np.linalg.solve(0.5 * (cwc + cwc.T), C)
    return omega @ m_proj.T, m_proj @ w_c, w_c


def dense_struct(W, K, S):
    """Structural occ by dense pooling through ``K S``: ``(Psi, W_tilde)``, ``Psi = Omega S'``."""
    omega, w_b = dense_pool(W, K @ S)
    return omega @ S.T, S @ w_b @ S.T


def loop_mse(residuals):
    """Entry-by-entry MSE accumulation with explicit loops."""
    m, T = residuals.shape
    w = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            acc = 0.0
            for t in range(T):
                acc += residuals[a, t] * residuals[b, t]
            w[a, b] = acc / T
    return w


def orthogonal_projector(C):
    """Projector onto the null space of C (the identity-covariance case)."""
    n = C.shape[1]
    return np.eye(n) - C.T @ np.linalg.pinv(C @ C.T) @ C


def geo_mean_log(values):
    """Geometric mean computed term by term in log space."""
    logs = [np.log(v) for v in values]
    return float(np.exp(sum(logs) / len(logs)))


def simplex_grid_min(sigma, step=0.01):
    """Brute-force minimum of w' sigma w over a grid on the unit simplex."""
    k = sigma.shape[0]
    best = np.inf
    ticks = int(round(1.0 / step))

    def rec(prefix, remaining, left):
        nonlocal best
        if remaining == 1:
            w = np.array(prefix + [left * step])
            best = min(best, float(w @ sigma @ w))
            return
        for units in range(left + 1):
            rec(prefix + [units * step], remaining - 1, left - units)

    rec([], k, ticks)
    return best


def dm_win_table(actuals, forecasts, methods, series, horizon_list):
    """Pairwise DM win shares by one test per ordered pair and series.

    ``actuals[h]`` is Q_h x n and ``forecasts[method][h]`` matches it. Each
    row is (loss, horizon, method_a, method_b, pct): the share of series on
    which a is significantly (5%) more accurate than b, the losses of every
    horizon in ``hs`` concatenated per series and the lag set to ``max(hs)``.
    """
    from cocomb.metrics import dm_test

    rows = []
    for loss_name, power in (("absolute", 1), ("squared", 2)):
        for h in list(horizon_list) + ["all"]:
            hs = list(horizon_list) if h == "all" else [h]
            for m_a in methods:
                for m_b in methods:
                    if m_a == m_b:
                        continue
                    wins = 0
                    for i in range(len(series)):
                        loss_a = np.concatenate(
                            [np.abs(actuals[hh][:, i] - forecasts[m_a][hh][:, i]) ** power
                             for hh in hs])
                        loss_b = np.concatenate(
                            [np.abs(actuals[hh][:, i] - forecasts[m_b][hh][:, i]) ** power
                             for hh in hs])
                        res = dm_test(loss_a, loss_b, h=max(hs))
                        if res.p_value < 0.05 and res.statistic < 0:
                            wins += 1
                    rows.append((loss_name, h, m_a, m_b, 100.0 * wins / len(series)))
    return rows


def method_weights_chain(method, panel, sys, resid, cache):
    """The simulation's (n x m) method weights, one branch per method.

    Each method builds its own covariance and reconciliation; only the sample
    MSE and the best raw expert are shared through ``cache``.
    """
    from cocomb.coherent import mint_reconcile, occ, scr, src
    from cocomb.combiners import single_task_weights
    from cocomb.covariance import (
        block_by_expert, block_by_variable, diagonal_mse, sample_mse, shrink)

    def mint_projector(cov_n):
        return mint_reconcile(np.zeros(sys.n), sys, cov_n).Psi.T

    def expert_selector(j):
        sel = np.zeros((panel.n, panel.m))
        sel[:, panel.expert_rows(j)] = np.eye(panel.n)
        return sel

    if method == "ew":
        return single_task_weights(panel, "ew").matrix(panel).T
    if method in ("ow_var", "ow_cov"):
        if "sample" not in cache:
            cache["sample"] = sample_mse(resid)
        return single_task_weights(panel, method, cache["sample"]).matrix(panel).T
    if method.startswith("scr_"):
        scheme = {"scr_ew": "ew", "scr_var": "ow_var", "scr_cov": "ow_cov"}[method]
        if scheme == "ew":
            ws = single_task_weights(panel, "ew")
        else:
            if "sample" not in cache:
                cache["sample"] = sample_mse(resid)
            ws = single_task_weights(panel, scheme, cache["sample"])
        combined_resid = ws.matrix(panel).T @ resid
        return scr(panel, sys, ws, None, shrink(combined_resid)).Psi.T
    if method == "src":
        covs = [shrink(resid[panel.expert_rows(j)]) for j in range(panel.p)]
        return src(panel, sys, covs).Psi.T
    if method == "occ_be":
        return occ(panel, sys, block_by_expert(resid, panel, shrink_blocks=True)).Psi.T
    if method == "occ_bv":
        return occ(panel, sys, block_by_variable(resid, panel, shrink_blocks=True)).Psi.T
    if method == "occ_shr":
        return occ(panel, sys, shrink(resid)).Psi.T
    if method == "occ_wls":
        return occ(panel, sys, diagonal_mse(resid)).Psi.T
    if method in ("base_star", "base_star_shr"):
        if "best_expert" not in cache:
            mses = [np.mean(resid[panel.expert_rows(j)] ** 2) for j in range(panel.p)]
            cache["best_expert"] = int(np.argmin(mses))
        j_star = cache["best_expert"]
        sel = expert_selector(j_star)
        if method == "base_star":
            return sel
        return mint_projector(shrink(resid[panel.expert_rows(j_star)])) @ sel
    if method == "base_shr":
        best, best_mse = None, np.inf
        for j in range(panel.p):
            m_j = mint_projector(shrink(resid[panel.expert_rows(j)]))
            rec_mse = np.mean((m_j @ resid[panel.expert_rows(j)]) ** 2)
            if rec_mse < best_mse:
                best, best_mse = m_j @ expert_selector(j), rec_mse
        return best
    raise ValueError(f"unknown simulation method {method!r}")
