"""Independent reference implementations used only for verification.

These deliberately avoid the production code paths: explicit inverses, naive
loops, dense block solves and an exact rational solve instead of Cholesky
pipelines, one scalar DM test per pair of loss series, one nearest-correlation
projection per matrix, CSV readers that take one ``csv.DictReader`` row at a
time, and CSV writers that pass one list per row to ``csv.writer``, each float
formatted on its own by ``format(x, ".17g")``.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg

from cocomb.exceptions import DataError, NumericalError


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


def exact_occ(W, var, S, y_hat):
    """The coherent combination ``S b`` in exact rational arithmetic.

    Solves ``S' K' W^-1 K S b = S' K' W^-1 y_hat``, ``K = I_n[var]``, with
    every float read as the rational it is: ``W^-1 [K S | y_hat]`` by Gaussian
    elimination on the SPD ``W`` (whose pivots are positive), then the small
    normal equations the same way. With ``K = I_n`` it is MinT, with
    ``S = I_n`` the multi-task combination. Returns the exact ``S b`` as floats.
    """
    S = [[Fraction(x) for x in row] for row in np.asarray(S, dtype=float).tolist()]
    k_s = [S[v] + [Fraction(y)] for v, y in zip(np.asarray(var).tolist(),
                                                  np.asarray(y_hat, dtype=float).tolist())]
    solved = _exact_solve([[Fraction(x) for x in row] for row in np.asarray(W).tolist()], k_s)
    n_b = len(S[0])
    normal = [[sum((k_s[r][i] * solved[r][j] for r in range(len(k_s))), Fraction(0))
               for j in range(n_b + 1)] for i in range(n_b)]
    b = [row[0] for row in _exact_solve([row[:n_b] for row in normal],
                                        [row[n_b:] for row in normal])]
    return np.array([float(sum((s * b_k for s, b_k in zip(row, b)), Fraction(0)))
                     for row in S])


def _exact_solve(a, rhs):
    """``a^-1 rhs`` for a square ``a`` with non-zero leading minors, both lists of
    ``Fraction`` rows: elimination without pivoting, then back substitution."""
    rows = [a_r + rhs_r for a_r, rhs_r in zip(a, rhs)]
    n = len(rows)
    for k in range(n):
        pivot = rows[k]
        for row in rows[k + 1:]:
            factor = row[k] / pivot[k]
            if factor:
                for j in range(k, len(row)):
                    row[j] -= factor * pivot[j]
    out = [None] * n
    for k in reversed(range(n)):
        row = rows[k]
        out[k] = [(row[j] - sum((row[i] * out[i][j - n] for i in range(k + 1, n)), Fraction(0)))
                  / row[k] for j in range(n, len(row))]
    return out


def gls_normal_equations(K, W, y_hat):
    """Multi-task combination by explicit normal equations: (y_c, W_c)."""
    w_inv = np.linalg.inv(W)
    a = K.T @ w_inv @ K
    return np.linalg.solve(a, K.T @ w_inv @ y_hat), np.linalg.inv(a)


def dense_precision(W, K):
    """The pooled precision ``K' W^-1 K`` through the explicit inverse of the dense ``W``."""
    return K.T @ np.linalg.inv(W) @ K


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


def shrink_estim(residuals):
    """The shrinkage intensity of R's ``shrink.estim`` (packages ``hts`` and
    ``FoReco``), one pair of rows at a time.

    With ``x`` the T x m residuals, ``xs`` its columns scaled by their root
    mean square: ``v = (crossprod(xs^2) - crossprod(xs)^2 / T) / (T (T - 1))``
    off the diagonal, ``lambda = sum(v) / sum(cor^2)`` over the off-diagonal
    correlations of the MSE, clamped to [0, 1]. ``xs`` enters only through
    squares, so each pair's sums are scaled by the product of the two mean
    squares and no root is taken: rows of ``Fraction``s give the exact value.
    """
    rows = [list(row) for row in residuals]
    T = len(rows[0])
    mean_sq = [sum(a * a for a in row) / T for row in rows]
    v_sum = corr_sq_sum = 0
    for i, x_i in enumerate(rows):
        for j, x_j in enumerate(rows):
            if i == j:
                continue
            scale = mean_sq[i] * mean_sq[j]  # xs_i xs_j = x_i x_j / scale^(1/2)
            cross = sum(a * b for a, b in zip(x_i, x_j))
            cross_sq = sum(a * a * b * b for a, b in zip(x_i, x_j))
            v_sum += (cross_sq - cross * cross / T) / scale / (T * (T - 1))
            corr_sq_sum += (cross / T) ** 2 / scale
    return min(1, max(0, v_sum / corr_sq_sum))


def simplex_support_min(sigma):
    """Minimizer of ``w' sigma w`` over the unit simplex, by brute force over
    every support: on each nonempty set of coordinates, the sum-to-one
    minimizer ``sigma_S^-1 1 / (1' sigma_S^-1 1)``, kept if non-negative."""
    k = sigma.shape[0]
    best, best_w = np.inf, None
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            idx = list(support)
            raw = np.linalg.solve(sigma[np.ix_(idx, idx)], np.ones(size))
            if (raw / raw.sum() < 0).any():
                continue
            w = np.zeros(k)
            w[idx] = raw / raw.sum()
            if float(w @ sigma @ w) < best:
                best, best_w = float(w @ sigma @ w), w
    return best_w


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


def dm_test_scalar(loss_a, loss_b, h=1):
    """One equal-predictive-accuracy test on a pair of loss series: (statistic, p-value).

    Mean loss differential over its Bartlett long-run standard error (h-1
    lags, no small-sample correction), two-sided normal p-value; identical
    losses give (0, 1) and a constant non-zero differential (+-inf, 0).
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
            return 0.0, 1.0
        return math.copysign(math.inf, d_bar), 0.0
    lrv = gamma0
    for k in range(1, h):
        gamma_k = float(centered[k:] @ centered[:-k]) / q
        lrv += 2.0 * (1.0 - k / h) * gamma_k
    if lrv <= 0.0:
        lrv = gamma0  # fall back on the no-lag variance when the kernel degenerates
    stat = d_bar / math.sqrt(lrv / q)
    return float(stat), float(math.erfc(abs(stat) / math.sqrt(2.0)))


def dm_win_table(actuals, forecasts, methods, series, horizon_list):
    """Pairwise DM win shares by one test per ordered pair and series.

    ``actuals[h]`` is Q_h x n and ``forecasts[method][h]`` matches it. Each
    row is (loss, horizon, method_a, method_b, pct): the share of series on
    which a is significantly (5%) more accurate than b, the losses of every
    horizon in ``hs`` concatenated per series and the lag set to ``max(hs)``.
    """
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
                        stat, p_value = dm_test_scalar(loss_a, loss_b, h=max(hs))
                        if p_value < 0.05 and stat < 0:
                            wins += 1
                    rows.append((loss_name, h, m_a, m_b, 100.0 * wins / len(series)))
    return rows


def nearest_correlation_scalar(r0, tol=1e-9, max_iter=100, pd_floor=1e-8):
    """Closest correlation matrix to one (d, d) matrix by alternating projections.

    The per-matrix loop that ``simulation.nearest_correlation`` runs on a
    whole stack: Dykstra-corrected alternation between the semidefinite cone
    and the unit diagonal, then an eigenvalue floor and a diagonal rescale.
    """

    def symmetrize(a):
        return 0.5 * (a + a.T)

    a = symmetrize(np.asarray(r0, dtype=float))
    y = a.copy()
    ds = np.zeros_like(a)
    for _ in range(max_iter):
        rk = y - ds
        w, v = np.linalg.eigh(rk)
        x = symmetrize((v * np.clip(w, 0.0, None)) @ v.T)
        ds = x - rk
        y_new = x.copy()
        np.fill_diagonal(y_new, 1.0)
        if np.max(np.abs(y_new - y)) <= tol and np.max(np.abs(y_new - x)) <= tol:
            y = y_new
            break
        y = y_new
    else:
        raise NumericalError(f"nearest-correlation projection did not converge in {max_iter} steps")
    w, v = np.linalg.eigh(symmetrize(y))
    x = symmetrize((v * np.clip(w, pd_floor, None)) @ v.T)
    d = np.sqrt(np.diag(x))
    x = x / np.outer(d, d)
    np.fill_diagonal(x, 1.0)
    return symmetrize(x)


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


# -- row-at-a-time CSV readers ------------------------------------------------------


def read_csv_dicts(path, required, what):
    """Yield the rows of a CSV file as ``csv.DictReader`` dicts, after checking its header."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise DataError(f"{what} CSV {path} must have columns {sorted(required)}")
        for row in reader:
            if None in row.values():
                raise DataError(f"{what} CSV {path} line {reader.line_num} has too few fields")
            yield row


def cell_records(path, what, key, default=None):
    """Yield (k, series, expert, value) per row; a missing or empty ``key`` cell is ``default``."""
    required = {"series", "expert", "value"} | ({key} if default is None else set())
    for row in read_csv_dicts(path, required, what):
        try:
            k = int(row.get(key) or default)
        except (TypeError, ValueError):
            raise DataError(f"bad {key} {row.get(key)!r} in {what} CSV") from None
        try:
            value = float(row["value"])
        except ValueError:
            raise DataError(f"non-numeric {what} value {row['value']!r}") from None
        yield k, row["series"].strip(), row["expert"].strip(), value


def fill_cells_records(records, panel, source, key):
    """(sorted keys, m x K cell matrix) from (k, series, expert, value) records.

    Every record is parsed before the first is checked, as the readers do;
    then each is checked one at a time, in record order.
    """
    row_of = {(panel.labels[i], panel.experts[j]): r for r, (i, j) in enumerate(panel.pairs)}
    columns = {}
    for k, label, expert, value in list(records):
        r = row_of.get((label, expert))
        if r is None:
            if label not in set(panel.labels):
                raise DataError(f"unknown series {label!r} in {source}")
            if expert not in set(panel.experts):
                raise DataError(f"unknown expert {expert!r} in {source}")
            raise DataError(f"pair ({label!r}, {expert!r}) in {source} is not part of the panel")
        value = float(value)
        column = columns.get(k)
        if column is None:
            column = columns[k] = np.full(panel.m, np.nan)
        if not (math.isfinite(value) and math.isnan(column[r])):
            defect = "duplicate cell" if math.isfinite(value) else f"non-finite value {value!r}"
            raise DataError(
                f"{defect} for series {label!r}, expert {expert!r}, {key} {k} in {source}")
        column[r] = value
    keys = sorted(columns)
    values = np.empty((panel.m, len(keys)))
    for c, k in enumerate(keys):
        values[:, c] = columns.pop(k)
    missing = np.argwhere(np.isnan(values))
    if missing.size:
        r, c = missing[0]
        first = (panel.labels[panel.var_idx[r]], panel.experts[panel.exp_idx[r]], keys[c])
        raise DataError(f"{source} does not cover every (series, expert, {key}) cell: "
                        f"{len(missing)} missing, first {first!r}")
    return keys, values


def read_panel_csv(path, sys_):
    """Panel CSV -> (zero-valued panel, horizons, m x H forecasts), row by row."""
    from cocomb.panel import panel_from_pairs

    records = list(cell_records(path, "panel", "horizon", default=1))
    if not records:
        raise DataError(f"panel CSV {path} holds no forecasts")
    panel = panel_from_pairs(((s, e) for _, s, e, _ in records), sys_, "panel CSV")
    horizons, y_hat = fill_cells_records(records, panel, "panel CSV", "horizon")
    return panel, horizons, y_hat


def read_residual_csv(path, panel):
    """Residual CSV -> m x T matrix in panel order, row by row."""
    return fill_cells_records(cell_records(path, "residual", "t"), panel, "residual CSV", "t")[1]


def read_eval_csv(path, what, label_cols, horizons, keep=()):
    """Evaluation CSV -> (sorted labels per label column, (h, q) keys, values), row by row."""
    wanted, cells, values = set(horizons), [], []
    codes = [{} for _ in label_cols]
    for row in read_csv_dicts(path, {*label_cols, "horizon", "q", "value"}, what):
        try:
            h, q, value = int(row["horizon"]), int(row["q"]), float(row["value"])
        except ValueError:
            raise DataError(f"bad evaluation row {row!r}") from None
        cell_labels = tuple(row[col].strip() for col in label_cols)
        if h not in wanted or (keep and cell_labels[-1] not in keep):
            continue
        cells.append([c.setdefault(x, len(c)) for c, x in zip(codes, cell_labels)] + [h, q])
        values.append(value)
    cells = np.array(cells, dtype=np.int64).reshape(len(values), len(label_cols) + 2)
    missing = wanted - set(cells[:, -2].tolist())
    if missing:
        raise DataError(f"no {what} for horizon {min(missing)}")
    for j, c in enumerate(codes):
        cells[:, j] = np.argsort(np.argsort(list(c)))[cells[:, j]]
    names = [sorted(c) for c in codes]
    keys, key_idx = np.unique(cells[:, -2:], axis=0, return_inverse=True)
    shape = (*map(len, names), len(keys))
    flat = np.ravel_multi_index((*cells[:, :-2].T, key_idx.reshape(-1)), shape)
    counts = np.bincount(flat, minlength=math.prod(shape))
    values = np.array(values)

    def cell(i):
        *at, k = np.unravel_index(i, shape)
        parts = [*(n[a] for n, a in zip(names, at)), *keys[k].tolist()]
        return ", ".join(f"{c} {v!r}" for c, v in zip((*label_cols, "horizon", "q"), parts))

    if not np.isfinite(values).all():
        bad = np.argmin(np.isfinite(values))
        raise DataError(f"non-finite value {values[bad]} for {cell(flat[bad])} in {what} CSV")
    if (counts != 1).any():
        i = np.argmax(counts != 1)
        raise DataError(f"{what} CSV must hold every ({', '.join(label_cols)}, horizon, q) cell "
                        f"exactly once: {cell(i)} appears {counts[i]} times")
    grid = np.empty(shape)
    grid.reshape(-1)[flat] = values
    return names, keys, grid


def fmt(x) -> str:
    """One float with 17 significant digits."""
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """``header`` and then each row, one list per row, through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_forecasts(path, horizons, y, labels) -> None:
    """The CLI's forecast table: the n x H ``y``, no horizon column for a lone horizon 1."""
    if horizons == [1]:
        write_csv(path, ["series", "value"],
                  ([label, fmt(v)] for label, v in zip(labels, y[:, 0])))
    else:
        write_csv(path, ["series", "horizon", "value"],
                  ([label, h, fmt(v)]
                   for h, y_h in zip(horizons, y.T) for label, v in zip(labels, y_h)))


def write_weights(path, panel, psi) -> None:
    """``reconcile --emit-weights``: one (expert, series, target, weight) row per cell."""
    write_csv(path, ["expert", "series", "target", "weight"], (
        [panel.experts[j], panel.labels[i], panel.labels[k], fmt(w)]
        for (i, j), psi_r in zip(panel.pairs, psi)
        for k, w in enumerate(psi_r.tolist())
    ))


def write_cov(path, labels, w_tilde) -> None:
    """``reconcile --emit-cov``: one row per series, one column per series."""
    write_csv(path, ["series"] + list(labels),
              ([label] + [fmt(v) for v in row.tolist()] for label, row in zip(labels, w_tilde)))


def write_summary(path, rows) -> None:
    """``simulate``'s table from ``summary_rows()``: floats formatted, other fields as is."""
    write_csv(path, list(rows[0]),
              ([fmt(v) if isinstance(v, float) else v for v in row.values()] for row in rows))


def write_accuracy(path, table) -> None:
    """``evaluate``'s accuracy table: per-horizon and overall relative indices per method."""
    write_csv(path, ["metric", "method", "horizon", "value"], (
        [metric, m, h, fmt(overall[m] if h == "all" else per_h[m][h])]
        for metric, per_h, overall in (("avg_rel_mae", table.avg_rel_mae_h, table.avg_rel_mae),
                                       ("avg_rel_mse", table.avg_rel_mse_h, table.avg_rel_mse))
        for m in table.methods for h in (*table.horizons, "all")
    ))


def write_dm(path, rows) -> None:
    """``evaluate --dm``'s table from ``dm_win_table`` rows."""
    write_csv(path, ["loss", "horizon", "method_a", "method_b", "pct_more_accurate"],
              ([loss, h, a, b, fmt(pct)] for loss, h, a, b, pct in rows))
