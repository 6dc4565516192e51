import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocomb import (
    DataError,
    NumericalError,
    CovarianceEstimate,
    as_covariance,
    block_by_expert,
    block_by_variable,
    combine_multi_task,
    from_aggregation,
    from_availability,
    is_coherent,
    mint_reconcile,
    occ,
    scr,
    shrink,
    src,
)
from cocomb import coherent
from cocomb._linalg import cho_factor_spd, cho_solve, symmetrize
from cocomb.coherent import FORMULATIONS, fit
from cocomb.covariance import ESTIMATORS, PATTERNS
from cocomb.panel import residuals_from_arrays
from cocomb.simulation import SimulationConfig, dgp_system, generate_replication
from conftest import random_availability, random_panel, random_spd, random_system
from oracles import (
    dense_pool, dense_precision, dense_struct, dense_zc, exact_occ, kkt_residual, kkt_solve,
    orthogonal_projector)

HIER_A = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
HIER_LABELS = ["X", "A", "B", "AA", "AB", "BA", "BB"]


def hierarchy():
    return from_aggregation(HIER_A, HIER_LABELS)


def worked_shape_panel(rng):
    """The unbalanced n=3, m=7 shape under a single-total constraint."""
    sys = from_aggregation([[1.0, 1.0]], ["y1", "y2", "y3"])
    avail = np.array(
        [
            [True, False, True, False],
            [False, True, False, False],
            [True, True, True, True],
        ]
    )
    panel = from_availability(avail, sys, values=rng.standard_normal(7))
    return sys, panel


def test_occ_leaves_coherent_average_unchanged(rng):
    sys = hierarchy()
    p = 3
    bottoms = rng.standard_normal((p, 4))
    values = np.concatenate([sys.S @ b for b in bottoms])
    panel = from_availability(np.ones((7, p), dtype=bool), sys, values=values)
    res = occ(panel, sys, as_covariance(np.eye(7 * p)))
    expected = sys.S @ bottoms.mean(axis=0)
    np.testing.assert_allclose(res.y_tilde, expected, atol=1e-12)


def test_occ_single_expert_is_mint_bitwise(rng):
    sys = hierarchy()
    y_hat = rng.standard_normal(7)
    w = random_spd(rng, 7)
    panel = from_availability(np.ones((7, 1), dtype=bool), sys, values=y_hat)
    res_occ = occ(panel, sys, as_covariance(w), "zc_be")
    res_mint = mint_reconcile(y_hat, sys, w)
    np.testing.assert_array_equal(res_occ.y_tilde, res_mint.y_tilde)
    np.testing.assert_array_equal(res_occ.Psi, res_mint.Psi)
    np.testing.assert_array_equal(res_occ.W_tilde, res_mint.W_tilde)


def test_mint_fixes_nothing_on_coherent_input(rng):
    sys = hierarchy()
    y = sys.S @ rng.standard_normal(4)
    res = mint_reconcile(y, sys, random_spd(rng, 7))
    np.testing.assert_allclose(res.y_tilde, y, atol=1e-10)


def test_mint_identity_covariance_is_orthogonal_projection():
    sys = hierarchy()
    e1 = np.zeros(7)
    e1[0] = 1.0
    res = mint_reconcile(e1, sys, np.eye(7))
    np.testing.assert_allclose(res.y_tilde, orthogonal_projector(sys.C) @ e1, atol=1e-12)


def test_unconstrained_system_is_the_multi_task_combination(rng):
    """With no constraint (``C`` has no rows) every route is the multi-task
    combination, the projector is the identity and mint changes nothing."""
    sys = from_aggregation(np.zeros((0, 3)), ["a", "b", "c"])
    avail = np.array([[True, True], [True, False], [False, True]])
    panel = from_availability(avail, sys, values=rng.standard_normal(4))
    est = shrink(rng.standard_normal((panel.m, 40)))
    combined = combine_multi_task(panel, est)
    for f in FORMULATIONS:
        res = occ(panel, sys, est, f)
        np.testing.assert_array_equal(res.y_tilde, combined.y_c)
        np.testing.assert_array_equal(res.W_tilde, combined.W_c)
        if f.startswith("zc"):
            np.testing.assert_array_equal(res.W_c, combined.W_c)
            np.testing.assert_array_equal(res.M, np.eye(3))
    y_hat = rng.standard_normal(3)
    np.testing.assert_allclose(mint_reconcile(y_hat, sys, random_spd(rng, 3)).y_tilde, y_hat,
                               rtol=0, atol=1e-12)


def test_occ_worked_shape_matches_kkt_oracle(rng):
    sys, panel = worked_shape_panel(rng)
    w = random_spd(rng, 7)
    res = occ(panel, sys, as_covariance(w))
    y_oracle, _ = kkt_solve(panel.K, w, sys.C, panel.y_hat)
    np.testing.assert_allclose(res.y_tilde, y_oracle, atol=1e-10)
    assert kkt_residual(panel.K, w, sys.C, panel.y_hat, res.y_tilde) <= 1e-9


def test_formulations_agree(rng):
    for _ in range(25):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        cov = as_covariance(random_spd(rng, panel.m))
        results = {f: occ(panel, sys, cov, f) for f in FORMULATIONS}
        ys = [results[f].y_tilde for f in FORMULATIONS]
        scale = 1.0 + np.abs(ys[0]).max()
        for other in ys[1:]:
            assert np.abs(other - ys[0]).max() <= 1e-8 * scale
        # the weight matrices and reconciled covariances agree as well
        for f in FORMULATIONS[1:]:
            assert np.abs(results[f].Psi - results["zc_be"].Psi).max() <= 1e-8
            assert np.abs(results[f].W_tilde - results["zc_be"].W_tilde).max() <= 1e-8


def test_occ_output_is_coherent(rng):
    for _ in range(50):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        cov = as_covariance(random_spd(rng, panel.m))
        res = occ(panel, sys, cov)
        assert np.abs(sys.C @ res.y_tilde).max() <= 1e-9 * (1.0 + np.abs(res.y_tilde).max())
        # And the projector annihilates the constraints: C M = 0
        assert np.abs(sys.C @ res.M).max() <= 1e-10
        # Oblique projector idempotence
        assert np.abs(res.M @ res.M - res.M).max() <= 1e-10


def test_weight_identity_on_coherent_subspace(rng):
    """The per-expert weight blocks sum to the coherent projector.

    Sum_j Psi_j L_j equals the oblique projector M, hence acts as the identity
    on every coherent vector (it maps S onto S); the unrestricted identity
    Omega' K = I belongs to the incoherent multi-task weights.
    """
    for _ in range(50):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        cov = as_covariance(random_spd(rng, panel.m))
        res = occ(panel, sys, cov)
        total = np.zeros((panel.n, panel.n))
        for j in range(panel.p):
            rows = panel.expert_rows(j)
            psi_j = res.Psi[rows].T  # n x n_j weight block of expert j
            total += psi_j @ panel.selection(j)
        assert np.abs(total - res.M).max() <= 1e-10
        assert np.abs(total @ sys.S - sys.S).max() <= 1e-9
        if panel.balanced:
            summed = sum(res.Psi[panel.expert_rows(j)].T for j in range(panel.p))
            assert np.abs(summed - res.M).max() <= 1e-10


def test_loewner_ordering(rng):
    for _ in range(50):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        w = random_spd(rng, panel.m)
        res = occ(panel, sys, as_covariance(w))
        w_tilde = 0.5 * (res.W_tilde + res.W_tilde.T)
        for j in range(panel.p):
            lj = panel.selection(j)
            rows = panel.expert_rows(j)
            w_j = w[rows, rows]
            outer_gap = w_j - lj @ res.W_c @ lj.T
            inner_gap = lj @ (res.W_c - w_tilde) @ lj.T
            assert np.linalg.eigvalsh(0.5 * (outer_gap + outer_gap.T)).min() >= -1e-9
            assert np.linalg.eigvalsh(0.5 * (inner_gap + inner_gap.T)).min() >= -1e-9


def test_reconciled_covariance_is_psd(rng):
    for _ in range(30):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        res = occ(panel, sys, as_covariance(random_spd(rng, panel.m)))
        sym = 0.5 * (res.W_tilde + res.W_tilde.T)
        assert np.linalg.eigvalsh(sym).min() >= -1e-9


def test_occ_kkt_oracle_random_instances(rng):
    for _ in range(30):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        w = random_spd(rng, panel.m)
        for f in FORMULATIONS:
            res = occ(panel, sys, as_covariance(w), f)
            assert kkt_residual(panel.K, w, sys.C, panel.y_hat, res.y_tilde) <= 1e-9


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_occ_invariant_to_expert_relabelling(seed, data):
    """Permuting the experts permutes the weight rows and leaves y_tilde alone."""
    rng = np.random.default_rng(seed)
    sys = random_system(rng)
    panel = random_panel(rng, sys)
    w = random_spd(rng, panel.m)
    perm = data.draw(st.permutations(range(panel.p)))
    relabelled = from_availability(panel.availability[:, perm], sys)
    # by-expert row of the original panel behind each row of the relabelled one
    row_of = {pair: r for r, pair in enumerate(panel.pairs)}
    old = np.array([row_of[(i, perm[j])] for i, j in relabelled.pairs])
    relabelled = relabelled.with_values(panel.y_hat[old])
    w_relabelled = as_covariance(w[np.ix_(old, old)])
    for f in FORMULATIONS:
        ref = occ(panel, sys, as_covariance(w), f)
        res = occ(relabelled, sys, w_relabelled, f)
        assert np.abs(res.y_tilde - ref.y_tilde).max() <= 1e-9 * np.abs(ref.y_tilde).max()
        assert np.abs(res.Psi - ref.Psi[old]).max() <= 1e-9 * np.abs(ref.Psi).max()


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_occ_invariant_to_variable_relabelling(seed, data):
    """Permuting the upper and the bottom variables among themselves permutes y_tilde."""
    rng = np.random.default_rng(seed)
    sys = random_system(rng)
    panel = random_panel(rng, sys)
    m, n_u = panel.m, sys.A.shape[0]
    resid = np.linalg.cholesky(random_spd(rng, m)) @ rng.standard_normal(
        (m, int(rng.integers(m + 5, 2 * m + 10))))
    perm_u = np.array(data.draw(st.permutations(range(n_u))), dtype=int)
    perm_b = np.array(data.draw(st.permutations(range(sys.n - n_u))), dtype=int)
    var = np.concatenate([perm_u, n_u + perm_b])  # old variable behind each new one
    relabelled_sys = from_aggregation(sys.A[np.ix_(perm_u, perm_b)],
                                      [sys.labels[i] for i in var])
    relabelled = from_availability(panel.availability[var], relabelled_sys)
    row_of = {pair: r for r, pair in enumerate(panel.pairs)}
    old = np.array([row_of[(var[i], j)] for i, j in relabelled.pairs])
    relabelled = relabelled.with_values(panel.y_hat[old])
    for pattern in ("shrunk", "bd_expert_shrunk", "bd_variable_shrunk", "diagonal"):
        cov = ESTIMATORS[pattern](resid, panel)
        cov_relabelled = ESTIMATORS[pattern](resid[old], relabelled)
        for f in FORMULATIONS:
            ref = occ(panel, sys, cov, f).y_tilde[var]
            res = occ(relabelled, relabelled_sys, cov_relabelled, f).y_tilde
            assert np.abs(res - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), (pattern, f)


def _assert_close(new, ref, tol=1e-12):
    assert np.abs(new - ref).max() <= tol * np.abs(ref).max()


@pytest.mark.parametrize("estimator", [block_by_expert, block_by_variable])
@pytest.mark.parametrize("shrink_blocks", [False, True])
@pytest.mark.parametrize("balanced", [True, False])
@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_block_solve_matches_one_block_solve(estimator, shrink_blocks, balanced, seed):
    """Solving a block estimate block by block gives what its dense W gives."""
    rng = np.random.default_rng(seed)
    sys = random_system(rng)
    panel = random_panel(rng, sys, balanced=balanced)
    one_expert = from_availability(
        np.ones((sys.n, 1), dtype=bool), sys, values=rng.standard_normal(sys.n)
    )
    for pan in (panel, one_expert):
        T = 2 * max(pan.n, pan.p) + 10  # wider than every block
        resid = rng.standard_normal((pan.m, T)) + rng.standard_normal(T)
        est = estimator(resid, pan, shrink_blocks=shrink_blocks)
        dense = as_covariance(est.W)
        if pan is one_expert:
            pairs = [(mint_reconcile(pan.y_hat, sys, est), mint_reconcile(pan.y_hat, sys, dense))]
        else:
            pairs = [(occ(pan, sys, est, f), occ(pan, sys, dense, f)) for f in FORMULATIONS]
            new, ref = combine_multi_task(pan, est), combine_multi_task(pan, dense)
            for a, b in ((new.y_c, ref.y_c), (new.Omega, ref.Omega), (new.W_c, ref.W_c)):
                _assert_close(a, b)
        for new, ref in pairs:
            _assert_close(new.y_tilde, ref.y_tilde)
            _assert_close(new.Psi, ref.Psi)
            _assert_close(new.W_tilde, ref.W_tilde)


@pytest.mark.parametrize("balanced", [True, False])
@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_block_pooling_matches_dense_oracle(balanced, seed):
    """For every pattern, the blockwise pooling gives the dense pooling's results."""
    rng = np.random.default_rng(seed)
    sys = random_system(rng)
    panel = random_panel(rng, sys, balanced=balanced)
    one_expert = from_availability(
        np.ones((sys.n, 1), dtype=bool), sys, values=rng.standard_normal(sys.n)
    )
    bv = panel.bv_order
    be = np.argsort(bv)
    for pattern in PATTERNS:
        for pan in (panel, one_expert):
            T = 2 * pan.m + 10  # wider than every block, so nothing is singular
            resid = rng.standard_normal((pan.m, T)) + rng.standard_normal(T)
            est = ESTIMATORS[pattern](resid, pan)
            w, k = est.W, pan.K
            if pan is one_expert:
                res = mint_reconcile(pan.y_hat, sys, est)
                psi, w_tilde, w_c = dense_zc(w, np.eye(sys.n), sys.C)
                for new, ref in ((res.Psi, psi), (res.W_tilde, w_tilde), (res.W_c, w_c)):
                    _assert_close(new, ref)
                continue
            multi = combine_multi_task(pan, est)
            omega, w_c = dense_pool(w, k)
            _assert_close(multi.Omega, omega)
            _assert_close(multi.W_c, w_c)
            for f in FORMULATIONS:
                res = occ(pan, sys, est, f)
                w_f, k_f = (w, k) if f.endswith("_be") else (w[np.ix_(bv, bv)], k[bv])
                if f.startswith("zc"):
                    psi, w_tilde, w_c = dense_zc(w_f, k_f, sys.C)
                    _assert_close(res.W_c, w_c)
                else:
                    psi, w_tilde = dense_struct(w_f, k_f, sys.S)
                _assert_close(res.Psi, psi if f.endswith("_be") else psi[be])
                _assert_close(res.W_tilde, w_tilde)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_occ_single_expert_is_mint_bitwise_for_every_pattern(seed):
    """On a one-expert panel ``occ`` ``zc_be`` is ``mint_reconcile``, bit for bit."""
    rng = np.random.default_rng(seed)
    sys = random_system(rng)
    panel = from_availability(
        np.ones((sys.n, 1), dtype=bool), sys, values=rng.standard_normal(sys.n)
    )
    # T below n as often as above, so the sample and unshrunk block estimates
    # are sometimes tagged singular
    resid = rng.standard_normal((sys.n, int(rng.integers(2, 2 * sys.n + 2))))
    for pattern in PATTERNS:
        est = ESTIMATORS[pattern](resid, panel)
        if est.singular:
            continue
        res_occ, res_mint = occ(panel, sys, est, "zc_be"), mint_reconcile(panel.y_hat, sys, est)
        np.testing.assert_array_equal(res_occ.y_tilde, res_mint.y_tilde)
        np.testing.assert_array_equal(res_occ.Psi, res_mint.Psi)
        np.testing.assert_array_equal(res_occ.W_tilde, res_mint.W_tilde)


def test_mint_rejects_non_finite_or_non_square_covariance(rng):
    sys = hierarchy()
    y_hat = rng.standard_normal(7)
    w = np.eye(7)
    w[3, 3] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        mint_reconcile(y_hat, sys, w)
    with pytest.raises(DataError, match="square"):
        mint_reconcile(y_hat, sys, np.ones((7, 6)))


def test_occ_rejects_bad_inputs(rng):
    sys = hierarchy()
    panel = from_availability(np.ones((7, 2), dtype=bool), sys)
    with pytest.raises(DataError):
        occ(panel, sys, as_covariance(np.eye(14)), "nope")
    with pytest.raises(NumericalError):
        occ(panel, sys, CovarianceEstimate(np.eye(14), "sample", singular=True))
    other = from_aggregation(HIER_A, [f"v{k}" for k in range(7)])
    with pytest.raises(DataError):
        occ(panel, other, as_covariance(np.eye(14)))


def test_scr_on_coherent_equal_experts_is_their_average(rng):
    sys = hierarchy()
    b = rng.standard_normal(4)
    y = sys.S @ b
    panel = from_availability(np.ones((7, 2), dtype=bool), sys, values=np.tile(y, 2))
    res = scr(panel, sys, "ew", None, np.eye(7))
    np.testing.assert_allclose(res.y_tilde, y, atol=1e-10)
    assert res.formulation == "scr_ew"


def test_scr_single_expert_equals_mint(rng):
    sys = hierarchy()
    y_hat = rng.standard_normal(7)
    panel = from_availability(np.ones((7, 1), dtype=bool), sys, values=y_hat)
    w = random_spd(rng, 7)
    res = scr(panel, sys, "ew", None, w)
    expected = mint_reconcile(y_hat, sys, w)
    np.testing.assert_allclose(res.y_tilde, expected.y_tilde, atol=1e-12)


def test_scr_weight_matrix_reproduces_output(rng):
    sys, panel = worked_shape_panel(rng)
    cov = as_covariance(random_spd(rng, panel.m))
    res = scr(panel, sys, "ow_var", cov, random_spd(rng, sys.n))
    np.testing.assert_allclose(res.Psi.T @ panel.y_hat, res.y_tilde, atol=1e-12)
    assert is_coherent(sys, res.y_tilde, tol=1e-9 * (1 + np.abs(res.y_tilde).max()))


def test_src_identical_experts_reduce_to_mint(rng):
    sys = hierarchy()
    y_hat = rng.standard_normal(7)
    panel = from_availability(np.ones((7, 3), dtype=bool), sys, values=np.tile(y_hat, 3))
    w = random_spd(rng, 7)
    res = src(panel, sys, [w, w, w])
    expected = mint_reconcile(y_hat, sys, w)
    np.testing.assert_allclose(res.y_tilde, expected.y_tilde, atol=1e-12)


def test_fit_src_reconciles_each_expert_with_its_shrunk_mse(rng):
    sys = hierarchy()
    panel = from_availability(np.ones((7, 3), dtype=bool), sys, values=rng.standard_normal(21))
    resid = rng.standard_normal((panel.m, 30)) + rng.standard_normal(30)
    res = fit("src", panel, sys, resid, None)
    ref = src(panel, sys, [shrink(resid[panel.expert_rows(j)]) for j in range(panel.p)])
    for a, b in ((res.y_tilde, ref.y_tilde), (res.Psi, ref.Psi), (res.W_tilde, ref.W_tilde)):
        assert np.array_equal(a, b)


def test_src_rejects_unbalanced(rng):
    sys, panel = worked_shape_panel(rng)
    with pytest.raises(DataError):
        src(panel, sys, [np.eye(3)] * 4)


def test_src_output_is_coherent_and_psi_consistent(rng):
    sys = hierarchy()
    p = 3
    panel = from_availability(np.ones((7, p), dtype=bool), sys, values=rng.standard_normal(21))
    covs = [random_spd(rng, 7) for _ in range(p)]
    res = src(panel, sys, covs)
    assert is_coherent(sys, res.y_tilde, tol=1e-9 * (1 + np.abs(res.y_tilde).max()))
    np.testing.assert_allclose(res.Psi.T @ panel.y_hat, res.y_tilde, atol=1e-12)


def test_mint_rejects_singular_covariance(rng):
    sys = hierarchy()
    with pytest.raises(NumericalError):
        mint_reconcile(np.zeros(7), sys, np.zeros((7, 7)))


def test_mint_rejects_non_finite_forecasts():
    y_hat = np.zeros(7)
    y_hat[2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        mint_reconcile(y_hat, hierarchy(), np.eye(7))


@pytest.mark.parametrize("wrap", [np.asarray, as_covariance], ids=["ndarray", "estimate"])
def test_mint_rejects_covariance_of_wrong_size(wrap):
    # n = 7 variables against a 5 x 5 covariance
    with pytest.raises(DataError, match="covariance size 5"):
        mint_reconcile(np.zeros(7), hierarchy(), wrap(np.eye(5)))


def test_bv_formulations_store_by_expert_weights(rng):
    sys, panel = worked_shape_panel(rng)
    cov = as_covariance(random_spd(rng, panel.m))
    res_bv = occ(panel, sys, cov, "zc_bv")
    np.testing.assert_allclose(res_bv.Psi.T @ panel.y_hat, res_bv.y_tilde, atol=1e-12)


def test_scr_uses_shrunk_reconciliation_covariance(rng):
    # end-to-end: estimate, combine, reconcile; output coherent
    sys, panel = worked_shape_panel(rng)
    resid = rng.standard_normal((panel.m, 40))
    from cocomb import sample_mse, single_task_weights

    ws = single_task_weights(panel, "ow_var", sample_mse(resid))
    combined_resid = ws.matrix(panel).T @ resid
    res = scr(panel, sys, ws, None, shrink(combined_resid))
    assert is_coherent(sys, res.y_tilde, tol=1e-9 * (1 + np.abs(res.y_tilde).max()))


def _coherence(sys, y):
    """max|C y| relative to max(1, max|y|)."""
    return np.abs(sys.C @ y).max() / max(1.0, np.abs(y).max())


@pytest.mark.parametrize("balanced", [True, False])
@settings(derandomize=True, deadline=None, database=None, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.integers(-3, 6))
def test_every_fit_is_psi_applied_once_and_coherent(balanced, seed, log_scale):
    """Every fit method on every covariance pattern returns ``Psi' y_hat``, coherent.

    Its weights also return a coherent forecast that every expert shares
    unchanged (``Psi' K S = S``), and where ``W_c`` is filled the reconciled
    covariance lies below it in the Loewner order (``W_tilde <= W_c``).
    """
    rng = np.random.default_rng(seed)
    sys = random_system(rng)
    panel = random_panel(rng, sys, balanced=balanced)
    panel = panel.with_values(panel.y_hat * 10.0**log_scale)
    one_expert = from_availability(
        np.ones((sys.n, 1), dtype=bool), sys, values=rng.standard_normal(sys.n)
    )
    cases = [(pan, "occ", f) for pan in (panel, one_expert) for f in FORMULATIONS]
    cases += [(panel, m, "zc_be") for m in ("scr_ew", "scr_var", "scr_cov")]
    cases += [(one_expert, "mint", "zc_be")] + ([(panel, "src", "zc_be")] if balanced else [])
    resid = {}
    for pan in (panel, one_expert):  # T wider than every block: every pattern is SPD
        T = 2 * pan.m + 10
        resid[pan] = rng.standard_normal((pan.m, T)) + rng.standard_normal(T)
    for pattern in PATTERNS:
        covs = {pan: ESTIMATORS[pattern](r, pan) for pan, r in resid.items()}
        for pan, method, formulation in cases:
            res = fit(method, pan, sys, resid[pan], covs[pan], formulation)
            case = (pattern, method, formulation)
            assert np.array_equal(res.y_tilde, res.Psi.T @ pan.y_hat), case
            assert _coherence(sys, res.y_tilde) <= 1e-9, case
            assert np.abs(res.Psi.T @ pan.K @ sys.S - sys.S).max() <= 1e-9, case
            if res.W_c is not None:
                gap = res.W_c - res.W_tilde
                min_eig = np.linalg.eigvalsh(0.5 * (gap + gap.T)).min()
                assert min_eig >= -1e-9 * np.abs(res.W_c).max(), case


@pytest.mark.parametrize("spread", [1e6, 1e9, 1e12])
@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_formulations_under_extreme_conditioning(spread, seed):
    """W with eigenvalues spread over ``spread`` and random eigenvectors.

    Each formulation raises ``NumericalError`` or returns a coherent forecast,
    and those that return agree within 1e-9 relative or, where that is below
    double precision, within ``spread * eps`` (the forward error of a
    backward-stable solve: against a 50-digit bordered solve every formulation
    errs by up to ~1e-6 relative at a spread of 1e12).
    """
    rng = np.random.default_rng(seed)
    sys = random_system(rng)
    panel = random_panel(rng, sys)
    q, _ = np.linalg.qr(rng.standard_normal((panel.m, panel.m)))
    w = (q * np.logspace(0.0, np.log10(spread), panel.m)) @ q.T
    cov = as_covariance(0.5 * (w + w.T))
    ys = []
    for f in FORMULATIONS:
        try:
            ys.append(occ(panel, sys, cov, f).y_tilde)
        except NumericalError:
            continue
        assert _coherence(sys, ys[-1]) <= 1e-9, f
    tol = max(1e-9, spread * np.finfo(float).eps)
    for y in ys[1:]:
        assert np.abs(y - ys[0]).max() <= tol * max(1.0, np.abs(ys[0]).max())


# the sole-noisy-expert panel: expert 1 alone on AB and BB
_SOLE_NOISY = np.array([[1, 1], [1, 0], [1, 0], [1, 0], [0, 1], [1, 0], [0, 1]], dtype=bool)
# worst measured error / (cond(W) eps max|y|) over 300 draws of the property's
# families: 12.2 (zc_be, zc_bv at W = I), mint 4.4, struct 3.4, multi-task 1.2
_EXACT_C = 32.0


@settings(derandomize=True, deadline=None, database=None, max_examples=16)
@given(family=st.sampled_from(["spread", "sole-noisy"]), decades=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
def test_routes_err_within_c_cond_eps_of_the_exact_solve(family, decades, seed):
    """``occ`` (4 formulations), ``mint_reconcile`` and ``combine_multi_task``
    against ``exact_occ`` on the simulation's hierarchy (n = 7, m <= 21).

    ``spread``: ``W`` with eigenvalues log-spaced over ``10**decades`` and
    random eigenvectors, on a random panel of 1-3 experts. ``sole-noisy``: the
    pinned panel, diagonal ``W`` with ``10**decades`` times the variance on
    expert 1 (for MinT, on AB and BB). Each result errs by at most
    ``_EXACT_C * cond(W) * eps * max|y_exact|``.
    """
    rng = np.random.default_rng(seed)
    sys = dgp_system()

    def spread_w(m):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        w = (q * np.logspace(0.0, decades, m)) @ q.T
        return 0.5 * (w + w.T)

    if family == "spread":
        p = int(rng.integers(1, 4))
        avail = random_availability(rng, sys.n, p, balanced=p == 1 or rng.random() < 0.5)
    else:
        avail = _SOLE_NOISY
    panel = from_availability(avail, sys, values=rng.standard_normal(int(avail.sum())))
    if family == "spread":
        w, w_n = spread_w(panel.m), spread_w(sys.n)
    else:
        w = np.diag(np.where(panel.exp_idx == 1, 10.0**decades, 1.0))
        w_n = np.diag(np.where(avail[:, 0], 1.0, 10.0**decades))
    y_n = rng.standard_normal(sys.n)

    def assert_near_exact(results, w, var, s, y_hat):
        want = exact_occ(w, var, s, y_hat)
        bound = _EXACT_C * np.linalg.cond(w) * np.finfo(float).eps * np.abs(want).max()
        for what, got in results.items():
            assert np.abs(got - want).max() <= bound, what

    cov = as_covariance(w)
    assert_near_exact({f: occ(panel, sys, cov, f).y_tilde for f in FORMULATIONS},
                      w, panel.var_idx, sys.S, panel.y_hat)
    assert_near_exact({"combine_multi_task": combine_multi_task(panel, cov).y_c},
                      w, panel.var_idx, np.eye(sys.n), panel.y_hat)
    assert_near_exact({"mint_reconcile": mint_reconcile(y_n, sys, w_n).y_tilde},
                      w_n, np.arange(sys.n), sys.S, y_n)


# zc routes: C M = C - (C W_c C')(C W_c C')^-1 C leaves a residual of about
# eps * cond(C W_c C'), which a sole far-noisier expert drives to 1e9 and beyond
_ZC_COHERENCE_GAP = pytest.mark.xfail(
    strict=True,
    reason="the zero-constrained projector loses coherence when C W_c C' is ill-conditioned",
)


@pytest.mark.parametrize("formulation", [
    pytest.param(f, marks=_ZC_COHERENCE_GAP) if f.startswith("zc") else f for f in FORMULATIONS
])
def test_coherent_when_a_sole_expert_is_far_noisier(formulation, rng):
    """Expert 1, alone on AB and BB, has 1e9 times expert 0's error variance (WLS)."""
    sys = hierarchy()
    panel = from_availability(_SOLE_NOISY, sys, values=rng.standard_normal(int(_SOLE_NOISY.sum())))
    w = np.diag(np.where(panel.exp_idx == 1, 1e9, 1.0))
    res = occ(panel, sys, as_covariance(w), formulation)
    assert _coherence(sys, res.y_tilde) <= 1e-9


@pytest.mark.parametrize("balanced", [True, False])
@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_structural_routes_pool_through_the_exact_k_s(balanced, seed):
    """Every formulation pools the panel's own ``var_idx`` into the dense ``K' W^-1 K``.

    The zero-constrained routes invert that precision, the structural ones
    ``S' K' W^-1 K S``, the dense ``(K S)' W^-1 (K S)``.
    """
    rng = np.random.default_rng(seed)
    sys = random_system(rng)
    panel = random_panel(rng, sys, balanced=balanced)
    w = random_spd(rng, panel.m)
    pooled, inverted = [], []
    gls_pool, pooled_covariance = coherent.gls_pool, coherent.pooled_covariance

    def pool(blocks, var, n):
        precision, apply = gls_pool(blocks, var, n)
        pooled.append((var, n, precision))
        return precision, apply

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coherent, "gls_pool", pool)
        patch.setattr(coherent, "pooled_covariance",
                      lambda a: inverted.append(a) or pooled_covariance(a))
        for formulation in FORMULATIONS:
            occ(panel, sys, as_covariance(w), formulation)
    assert len(pooled) == len(inverted) == len(FORMULATIONS)
    for formulation, (var, n, precision), a in zip(FORMULATIONS, pooled, inverted):
        assert var is panel.var_idx and n == sys.n, formulation
        _assert_close(precision, dense_precision(w, panel.K))
        k = panel.K @ sys.S if formulation.startswith("struct") else panel.K
        _assert_close(a, dense_precision(w, k))


# patterns whose W is well conditioned on the simulation DGP (cond(W) <= ~1e3);
# under sample and bd_expert it reaches ~1e10, and the zero-constrained route's
# W_tilde then departs from Psi' W Psi by up to ~1e-3 relative
WELL_CONDITIONED = ("shrunk", "bd_expert_shrunk", "bd_variable", "bd_variable_shrunk",
                    "diagonal")


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(setting=st.integers(1, 6), balanced=st.booleans(), n_train=st.sampled_from([50, 200]),
       rep=st.integers(0, 999))
def test_w_tilde_is_psi_t_w_psi_on_the_simulation_dgp(setting, balanced, n_train, rep):
    """The error covariance ``occ`` and ``mint`` report is the paper's closed form
    ``Psi' W Psi`` under the estimate's own ``W``, to 1e-13 relative, by every route."""
    sys = dgp_system()
    cfg = SimulationConfig(setting=setting, balanced=balanced, n_train=n_train, test_len=1,
                           replications=rep + 1, seed=5)
    data = generate_replication(cfg, rep)
    panel = from_availability(data.availability, sys)
    resid = residuals_from_arrays(panel, data.actuals[:n_train], data.forecasts[:, :n_train])
    one_expert = from_availability(np.ones((sys.n, 1), dtype=bool), sys)
    for pattern in WELL_CONDITIONED:
        est = ESTIMATORS[pattern](resid, panel)
        fits = [(occ(panel, sys, est, f), est.W) for f in FORMULATIONS]
        if balanced:  # expert 1 alone covers every series
            est_1 = ESTIMATORS[pattern](resid[panel.expert_rows(0)], one_expert)
            fits.append((mint_reconcile(np.zeros(sys.n), sys, est_1), est_1.W))
        for res, w in fits:
            closed_form = res.Psi.T @ w @ res.Psi
            err = np.abs(res.W_tilde - closed_form).max() / np.abs(closed_form).max()
            assert err <= 1e-13, (pattern, res.formulation, err)


@pytest.mark.parametrize("setting", range(1, 7))
def test_src_w_tilde_is_psi_t_w_psi_under_its_block_estimate(setting):
    """``src`` reports ``Psi' W_bd Psi``, ``W_bd`` the ``bd_expert_shrunk`` estimate
    whose expert blocks it reconciles with, to 1e-12 relative."""
    sys = dgp_system()
    for rep in range(3):
        cfg = SimulationConfig(setting=setting, n_train=50, test_len=1, replications=3, seed=5)
        data = generate_replication(cfg, rep)
        panel = from_availability(data.availability, sys)
        resid = residuals_from_arrays(panel, data.actuals[:50], data.forecasts[:, :50])
        res = fit("src", panel, sys, resid, None)
        closed_form = res.Psi.T @ ESTIMATORS["bd_expert_shrunk"](resid, panel).W @ res.Psi
        err = np.abs(res.W_tilde - closed_form).max() / np.abs(closed_form).max()
        assert err <= 1e-12, (rep, err)


# every entry whose result comes from the zero-constrained kernel, as a function
# of (system, panel, its m x T residuals, the block_by_expert estimate, rng)
ZC_FITS = {
    "occ_zc_be": lambda sys, panel, resid, est, rng: occ(panel, sys, est, "zc_be"),
    "occ_zc_bv": lambda sys, panel, resid, est, rng: occ(panel, sys, est, "zc_bv"),
    "mint": lambda sys, panel, resid, est, rng: mint_reconcile(
        rng.standard_normal(sys.n), sys, random_spd(rng, sys.n)),
    **{m: (lambda sys, panel, resid, est, rng, m=m: fit(m, panel, sys, resid, est))
       for m in ("scr_ew", "scr_var", "scr_cov")},
}


def _zc_fit(name, sys, rng, balanced):
    avail = random_availability(rng, sys.n, 4, balanced)
    panel = from_availability(avail, sys, values=rng.standard_normal(int(avail.sum())))
    resid = rng.standard_normal((panel.m, 60))
    return ZC_FITS[name](sys, panel, resid, block_by_expert(resid, panel, shrink_blocks=True), rng)


@pytest.mark.parametrize("balanced", [True, False])
@pytest.mark.parametrize("name", sorted(ZC_FITS))
def test_w_tilde_and_m_form_on_first_read_with_their_bits(rng, name, balanced):
    """``W_tilde`` and ``M`` are stored unformed; the first read forms
    ``W_c - (W_c C')(G W_c)`` and ``I - (W_c C') G`` bit for bit, and keeps them.
    ``dataclasses.replace`` reads, hence forms, both and hands them on."""
    sys = dgp_system()
    res = _zc_fit(name, sys, rng, balanced)
    assert callable(vars(res)["W_tilde"]) and callable(vars(res)["M"])
    moved = replace(res, y_tilde=res.y_tilde + 1.0)
    w_tilde, m_proj = res.W_tilde, res.M
    assert res.W_tilde is w_tilde and res.M is m_proj
    assert moved.W_tilde is w_tilde and moved.M is m_proj and moved.Psi is res.Psi
    c, w_c = sys.C, res.W_c
    g = cho_solve(cho_factor_spd(symmetrize(c @ w_c @ c.T)), c)
    wc_ct = w_c @ c.T
    np.testing.assert_array_equal(w_tilde, w_c - wc_ct @ (g @ w_c))
    np.testing.assert_array_equal(m_proj, np.eye(sys.n) - wc_ct @ g)


@pytest.mark.parametrize("name", sorted(ZC_FITS))
def test_unconstrained_w_tilde_and_m_are_a_copy_of_w_c_and_the_identity(rng, name):
    sys = from_aggregation(np.zeros((0, 3)), ["a", "b", "c"])
    res = _zc_fit(name, sys, rng, balanced=False)
    assert res.W_tilde is not res.W_c and res.W_tilde is res.W_tilde
    np.testing.assert_array_equal(res.W_tilde, res.W_c)
    np.testing.assert_array_equal(res.M, np.eye(3))


def test_zero_constrained_result_holds_no_n_by_n_but_psi_and_w_c(rng):
    """Until ``W_tilde`` or ``M`` is read, an ``occ`` ``zc_be`` result at n = 201
    (p = 3, each variable covered twice) holds ``Psi``, ``W_c``, ``y_tilde`` and
    O(n n_u) bytes: no n x n array but ``W_c``."""
    groups, leaves = 8, 24
    a = np.zeros((1 + groups, groups * leaves))
    a[0] = 1.0
    for k in range(groups):
        a[1 + k, k * leaves:(k + 1) * leaves] = 1.0
    sys = from_aggregation(a, [f"v{i}" for i in range(a.shape[0] + a.shape[1])])
    n, n_u = sys.n, a.shape[0]
    avail = np.zeros((n, 3), dtype=bool)
    avail[np.arange(n), np.arange(n) % 3] = avail[np.arange(n), (np.arange(n) + 1) % 3] = True
    panel = from_availability(avail, sys, values=rng.standard_normal(int(avail.sum())))
    est = block_by_expert(rng.standard_normal((panel.m, 200)), panel, shrink_blocks=True)
    occ(panel, sys, est, "zc_be")  # loads LAPACK outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = occ(panel, sys, est, "zc_be")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    outputs = res.Psi.nbytes + res.W_c.nbytes + res.y_tilde.nbytes
    assert held <= outputs + 4 * n * n_u * 8 + 64 * 1024, (held, outputs)
