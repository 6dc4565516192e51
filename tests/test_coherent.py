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
from cocomb.coherent import FORMULATIONS, fit
from cocomb.covariance import ESTIMATORS, PATTERNS
from conftest import random_panel, random_spd, random_system
from oracles import (
    dense_pool, dense_struct, dense_zc, kkt_residual, kkt_solve, orthogonal_projector)

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
    """Every fit method on every covariance pattern returns ``Psi' y_hat``, coherent."""
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
    avail = np.array([[1, 1], [1, 0], [1, 0], [1, 0], [0, 1], [1, 0], [0, 1]], dtype=bool)
    panel = from_availability(avail, sys, values=rng.standard_normal(int(avail.sum())))
    w = np.diag(np.where(panel.exp_idx == 1, 1e9, 1.0))
    res = occ(panel, sys, as_covariance(w), formulation)
    assert _coherence(sys, res.y_tilde) <= 1e-9


@pytest.mark.parametrize("balanced", [True, False])
@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_structural_routes_pool_through_the_exact_k_s(balanced, seed):
    """The row gather ``S[var]`` that ``_struct`` pools through equals ``K S`` exactly."""
    rng = np.random.default_rng(seed)
    sys = random_system(rng)
    panel = random_panel(rng, sys, balanced=balanced)
    cov = as_covariance(random_spd(rng, panel.m))
    designs = []
    gls_pool = coherent.gls_pool
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coherent, "gls_pool",
                      lambda blocks, k: designs.append(k) or gls_pool(blocks, k))
        for formulation in ("struct_be", "struct_bv"):
            occ(panel, sys, cov, formulation)
    be, bv = designs
    assert np.array_equal(be, panel.K @ sys.S)
    assert np.array_equal(bv, panel.J @ sys.S)  # J = K[bv_order]
