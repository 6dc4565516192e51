import numpy as np
import pytest

import cocomb.combiners
from cocomb import (
    CovarianceEstimate,
    NumericalError,
    as_covariance,
    block_by_variable,
    combine_multi_task,
    combine_single_task,
    from_aggregation,
    from_availability,
    simplex_weights,
    single_task_weights,
)
from conftest import random_panel, random_spd, random_system
from oracles import (
    dense_pool,
    dense_precision,
    gls_normal_equations,
    simplex_grid_min,
    simplex_support_min,
)


def panel_with_cov(rng, sys, balanced=None, p_max=6):
    panel = random_panel(rng, sys, p_max=p_max, balanced=balanced)
    w = random_spd(rng, panel.m)
    return panel, as_covariance(w)


def test_single_expert_gets_unit_weight(rng):
    sys = from_aggregation(np.zeros((0, 2)), ["a", "b"])
    avail = np.array([[True, False], [True, True]])
    panel = from_availability(avail, sys, values=np.array([1.0, 2.0, 5.0]))
    cov = as_covariance(random_spd(rng, 3))
    for scheme in ("ew", "ow_var", "ow_cov"):
        ws = single_task_weights(panel, scheme, cov)
        np.testing.assert_array_equal(ws.weights[0], [1.0])
        combined = combine_single_task(panel, scheme, cov)
        assert combined[0] == 1.0  # the lone expert's value


def test_identity_covariance_gives_equal_weights(rng):
    sys = from_aggregation(np.zeros((0, 2)), ["a", "b"])
    panel = from_availability(np.ones((2, 4), dtype=bool), sys, values=rng.standard_normal(8))
    cov = as_covariance(np.eye(8))
    for scheme in ("ew", "ow_var", "ow_cov"):
        ws = single_task_weights(panel, scheme, cov)
        for gamma in ws.weights:
            np.testing.assert_allclose(gamma, np.full(4, 0.25), atol=1e-12)


def test_ow_var_inverse_variance_closed_form():
    sys = from_aggregation(np.zeros((0, 1)), ["only"])
    panel = from_availability(np.ones((1, 2), dtype=bool), sys, values=np.array([1.0, 3.0]))
    cov = CovarianceEstimate(np.diag([1.0, 4.0]), "diagonal")
    ws = single_task_weights(panel, "ow_var", cov)
    np.testing.assert_allclose(ws.weights[0], [0.8, 0.2], atol=1e-15)
    assert combine_single_task(panel, "ow_var", cov) == pytest.approx(0.8 * 1.0 + 0.2 * 3.0)


def test_weights_sum_to_one(rng):
    for _ in range(50):
        sys = random_system(rng)
        panel, cov = panel_with_cov(rng, sys)
        for scheme in ("ew", "ow_var", "ow_cov"):
            ws = single_task_weights(panel, scheme, cov)
            for gamma in ws.weights:
                assert abs(gamma.sum() - 1.0) <= 1e-12
            if scheme == "ow_cov":
                for gamma in ws.weights:
                    assert gamma.min() >= -1e-12


def correlated_spd(rng, k):
    """Strongly correlated covariances: a random SPD matrix plus ``0.8 * 11'``."""
    return random_spd(rng, k, lo=0.2, hi=4.0) + 0.8 * np.outer(np.ones(k), np.ones(k))


def scaled_gram(rng, k):
    """``a a' + 1e-3 I``, ``a`` N(0,1) with each column scaled by U(0.1, 3): dropping
    the negative weights of the first solve often overshoots, so some re-enter."""
    a = rng.standard_normal((k, k)) * rng.uniform(0.1, 3.0, size=k)
    return a @ a.T + 1e-3 * np.eye(k)


def test_simplex_weights_satisfy_kkt(rng):
    draws = [correlated_spd(rng, int(rng.integers(2, 7))) for _ in range(100)]
    draws += [scaled_gram(rng, int(rng.integers(5, 7))) for _ in range(100)]
    draws.append(np.array([[2.5]]))  # one expert: its weight is 1 with no solve
    reentered = 0
    for sigma in draws:
        gamma = simplex_weights(sigma)
        free = np.linalg.solve(sigma, np.ones(len(sigma)))
        reentered += bool(((free / free.sum() < 0) & (gamma > 0)).any())
        assert abs(gamma.sum() - 1.0) <= 1e-12
        assert gamma.min() >= 0.0
        grad = sigma @ gamma
        active = gamma > 0
        mu = grad[active].mean()
        assert np.abs(grad[active] - mu).max() <= 1e-8
        if (~active).any():
            assert grad[~active].min() >= mu - 1e-8
    assert reentered  # a weight negative in the all-free solve is positive in the result


def test_simplex_weights_match_grid_oracle(rng):
    for _ in range(5):
        sigma = random_spd(rng, 3, lo=0.3, hi=3.0)
        sigma += 0.5 * np.outer([1.0, 1.0, -0.5], [1.0, 1.0, -0.5])
        gamma = simplex_weights(sigma)
        ours = float(gamma @ sigma @ gamma)
        grid = simplex_grid_min(sigma, step=0.02)
        assert ours <= grid + 1e-9


def test_ow_var_and_ow_cov_on_non_diagonal_covariances(rng):
    # on a diagonal covariance the two rules coincide; here ow_var is the
    # normalized 1/diag and ow_cov the simplex minimum found over every support.
    # In the first block the all-free weights of experts 0 and 1 are negative,
    # and expert 0 re-enters the optimum
    reentry = np.array([[16.0, 5.0, 10.0, -6.0], [5.0, 21.0, 13.0, -3.0],
                        [10.0, 13.0, 20.0, -18.0], [-6.0, -3.0, -18.0, 32.0]])
    free = np.linalg.solve(reentry, np.ones(4))
    assert (free[:2] < 0).all() and simplex_support_min(reentry)[0] > 0
    sys = from_aggregation(np.zeros((0, 3)), ["a", "b", "c"])
    panel = from_availability(np.ones((3, 4), dtype=bool), sys, values=np.arange(12.0))
    rows = panel.variable_rows(0)
    for _ in range(20):
        w = scaled_gram(rng, panel.m)
        w[rows], w[:, rows] = 0.0, 0.0
        w[np.ix_(rows, rows)] = reentry
        cov = as_covariance(w)
        by_var, by_cov = (single_task_weights(panel, s, cov).weights for s in ("ow_var", "ow_cov"))
        for i in range(panel.n):
            sigma = w[np.ix_(panel.variable_rows(i), panel.variable_rows(i))]
            inv_var = 1.0 / sigma.diagonal()
            np.testing.assert_allclose(by_var[i], inv_var / inv_var.sum(), rtol=1e-14)
            np.testing.assert_allclose(by_cov[i], simplex_support_min(sigma), rtol=0, atol=1e-12)


def test_multi_task_identity_covariance_is_per_variable_mean(rng):
    sys = from_aggregation(np.zeros((0, 3)), ["a", "b", "c"])
    p = 4
    values = rng.standard_normal((3, p))
    panel = from_availability(
        np.ones((3, p), dtype=bool), sys, values=values.T.reshape(-1)
    )
    res = combine_multi_task(panel, as_covariance(np.eye(3 * p)))
    np.testing.assert_allclose(res.y_c, values.mean(axis=1), atol=1e-12)
    np.testing.assert_allclose(res.W_c, np.eye(3) / p, atol=1e-12)


def test_multi_task_block_by_variable_reduces_to_single_task(rng):
    # with cross-variable independence the pooled solution is the per-variable
    # precision-weighted combination
    sys = random_system(rng)
    panel = random_panel(rng, sys)
    w = np.zeros((panel.m, panel.m))
    for i in range(panel.n):
        rows = panel.variable_rows(i)
        w[np.ix_(rows, rows)] = random_spd(rng, len(rows))
    res = combine_multi_task(panel, as_covariance(w))
    for i in range(panel.n):
        rows = panel.variable_rows(i)
        sigma_i = w[np.ix_(rows, rows)]
        ones = np.ones(len(rows))
        gamma = np.linalg.solve(sigma_i, ones)
        gamma /= ones @ gamma
        assert abs(res.y_c[i] - gamma @ panel.y_hat[rows]) <= 1e-10


@pytest.mark.parametrize("shrink_blocks", [False, True])
@pytest.mark.parametrize("balanced", [True, False])
def test_by_variable_pool_is_per_variable_gls(rng, monkeypatch, shrink_blocks, balanced):
    """Under ``bd_variable*`` the pooled precision is ``diag(1' Sigma_i^-1 1)``, and
    variable i's rows of ``Omega`` hold ``Sigma_i^-1 1 / 1' Sigma_i^-1 1`` in
    column i and exact zeros elsewhere."""
    factored = []
    invert = cocomb.combiners.pooled_covariance
    monkeypatch.setattr(cocomb.combiners, "pooled_covariance",
                        lambda a: factored.append(np.array(a)) or invert(a))
    for _ in range(10):
        sys = random_system(rng)
        panel = random_panel(rng, sys, balanced=balanced)
        T = 2 * panel.p + 10
        resid = rng.standard_normal((panel.m, T)) + rng.standard_normal(T)
        est = block_by_variable(resid, panel, shrink_blocks=shrink_blocks)
        factored.clear()
        omega = combine_multi_task(panel, est).Omega
        (precision,) = factored
        np.testing.assert_array_equal(precision, np.diag(np.diag(precision)))
        for i in range(panel.n):
            rows = panel.variable_rows(i)
            gamma = np.linalg.solve(est.W[np.ix_(rows, rows)], np.ones(len(rows)))
            assert abs(precision[i, i] - gamma.sum()) <= 1e-12 * gamma.sum()
            assert np.abs(omega[rows, i] - gamma / gamma.sum()).max() <= 1e-12
            np.testing.assert_array_equal(np.delete(omega[rows], i, axis=1), 0.0)


def test_gls_pool_on_unsorted_distinct_variables_matches_dense_pool(rng, monkeypatch):
    """Blocks whose rows are distinct variables in no sorted order take the inverse
    path; a block repeating a variable takes the selector solve. Both match the dense
    pooling of ``tests/oracles.py``."""
    inverted = []
    invert = cocomb.combiners.cho_inverse
    monkeypatch.setattr(cocomb.combiners, "cho_inverse",
                        lambda f: inverted.append(f) or invert(f))
    n = 9
    for _ in range(10):
        groups = [rng.permutation(n)[:5], rng.permutation(n), rng.permutation(n)[[0, 0, 1]]]
        var = np.concatenate(groups)
        rows = np.split(rng.permutation(var.size), np.cumsum([len(g) for g in groups])[:-1])
        var = var[np.argsort(np.concatenate(rows))]  # group g's variables at its rows
        w = np.zeros((var.size, var.size))
        blocks = []
        for r in rows:
            w[np.ix_(r, r)] = random_spd(rng, len(r))
            blocks.append((r, cocomb.combiners.cho_factor_spd(w[np.ix_(r, r)])))
        inverted.clear()
        precision, apply = cocomb.combiners.gls_pool(blocks, var, n)
        assert len(inverted) == 2
        k = np.eye(n)[var]
        omega, w_c = dense_pool(w, k)
        ref = dense_precision(w, k)
        assert np.abs(precision - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(apply(w_c) - omega).max() <= 1e-12 * np.abs(omega).max()


def test_multi_task_matches_normal_equation_oracle(rng):
    sys = from_aggregation(np.zeros((0, 3)), ["a", "b", "c"])
    avail = np.array(
        [
            [True, False, True, False],
            [False, True, False, False],
            [True, True, True, True],
        ]
    )
    panel = from_availability(avail, sys, values=rng.standard_normal(7))
    w = random_spd(rng, 7)
    res = combine_multi_task(panel, as_covariance(w))
    y_oracle, wc_oracle = gls_normal_equations(panel.K, w, panel.y_hat)
    np.testing.assert_allclose(res.y_c, y_oracle, atol=1e-10)
    np.testing.assert_allclose(res.W_c, wc_oracle, atol=1e-10)


def test_omega_is_a_left_inverse_of_k(rng):
    for _ in range(200):
        sys = random_system(rng)
        panel, cov = panel_with_cov(rng, sys)
        res = combine_multi_task(panel, cov)
        assert np.abs(res.Omega.T @ panel.K - np.eye(panel.n)).max() <= 1e-9


def test_combined_covariance_never_beats_no_expert(rng):
    for _ in range(50):
        sys = random_system(rng)
        panel, cov = panel_with_cov(rng, sys)
        res = combine_multi_task(panel, cov)
        for j in range(panel.p):
            lj = panel.selection(j)
            rows = panel.expert_rows(j)
            w_j = cov.W[rows, rows]
            gap = w_j - lj @ res.W_c @ lj.T
            assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-9


def test_multi_task_rejects_singular_covariance(rng):
    sys = from_aggregation(np.zeros((0, 2)), ["a", "b"])
    panel = from_availability(np.ones((2, 2), dtype=bool), sys)
    bad = CovarianceEstimate(np.eye(4), "sample", singular=True)
    with pytest.raises(NumericalError):
        combine_multi_task(panel, bad)


def test_ow_var_zero_variance_raises(rng):
    sys = from_aggregation(np.zeros((0, 1)), ["only"])
    panel = from_availability(np.ones((1, 2), dtype=bool), sys)
    cov = CovarianceEstimate(np.diag([0.0, 1.0]), "diagonal")
    with pytest.raises(NumericalError):
        single_task_weights(panel, "ow_var", cov)
