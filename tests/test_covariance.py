import gc
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cocomb import (
    CovarianceEstimate,
    DataError,
    NumericalError,
    SimulationConfig,
    as_covariance,
    block_by_expert,
    block_by_variable,
    combine_multi_task,
    dgp_system,
    diagonal_mse,
    from_aggregation,
    from_availability,
    generate_replication,
    occ,
    sample_mse,
    shrink,
    shrink_intensity,
)
from cocomb._linalg import _lapack
from cocomb.coherent import FORMULATIONS
from cocomb.covariance import ESTIMATORS, _Moments
from cocomb.panel import residuals_from_arrays
from conftest import overflowing_residuals, random_panel, random_system
from oracles import kkt_residual, loop_mse, shrink_estim


def small_panel():
    sys = from_aggregation(np.zeros((0, 3)), ["v1", "v2", "v3"])
    return from_availability(np.ones((3, 2), dtype=bool), sys, experts=("e1", "e2"))


def test_sample_mse_rank_one():
    v = np.array([1.0, -2.0, 0.5])
    resid = np.tile(v[:, None], (1, 8))
    est = sample_mse(resid)
    np.testing.assert_allclose(est.W, np.outer(v, v), atol=1e-15)
    assert est.singular  # rank one cannot back a solve


def test_wider_than_T_is_singular_even_where_cholesky_succeeds():
    # an MSE of 3 rows over T = 2 observations has rank 2, yet rounding lets
    # its Cholesky factorization pass for about half of all draws
    for seed in range(20):
        resid = np.random.default_rng(seed).standard_normal((6, 2))
        assert sample_mse(resid[:3]).singular
        assert block_by_expert(resid, small_panel()).singular


def test_sample_mse_identity():
    T = 4
    resid = np.sqrt(T) * np.eye(T)
    est = sample_mse(resid)
    np.testing.assert_allclose(est.W, np.eye(T), atol=1e-15)
    assert not est.singular


def test_sample_mse_matches_loop_oracle(rng):
    resid = rng.standard_normal((5, 50))
    est = sample_mse(resid)
    assert np.abs(est.W - loop_mse(resid)).max() <= 1e-12


def test_sample_mse_flags_wide_panels(rng):
    resid = rng.standard_normal((12, 6))
    assert sample_mse(resid).singular


def test_sample_mse_requires_two_observations(rng):
    with pytest.raises(DataError):
        sample_mse(rng.standard_normal((3, 1)))


def test_shrink_endpoints_by_injection(rng):
    resid = rng.standard_normal((4, 30))
    base = sample_mse(resid).W
    at_zero = shrink(resid, lam=0.0)
    np.testing.assert_array_equal(at_zero.W, base)
    at_one = shrink(resid, lam=1.0)
    np.testing.assert_array_equal(at_one.W, np.diag(np.diag(base)))


def test_shrink_independent_noise_is_nearly_diagonal():
    rng = np.random.default_rng(555)
    resid = rng.standard_normal((6, 5000))
    lam = shrink_intensity(resid)
    assert 0.6 <= lam <= 1.0
    est = shrink(resid)
    base = sample_mse(resid).W
    off = ~np.eye(6, dtype=bool)
    # off-diagonals shrink exactly by the factor (1 - lam)
    np.testing.assert_allclose(est.W[off], (1.0 - est.lam) * base[off], atol=1e-15)


def test_shrink_intensity_range_and_correlation_sensitivity(rng):
    for _ in range(50):
        m = int(rng.integers(2, 8))
        T = int(rng.integers(5, 60))
        lam = shrink_intensity(rng.standard_normal((m, T)))
        assert 0.0 <= lam <= 1.0
    z = rng.standard_normal((1, 2000))
    near_collinear = np.vstack([z, z + 0.05 * rng.standard_normal((5, 2000))])
    assert shrink_intensity(near_collinear) < 0.05


def correlated_residuals(rng, m, T):
    """m x T residuals sharing one factor, each row on its own scale: their
    shrinkage intensity lies inside (0, 1), away from either clamp."""
    r = rng.standard_normal((m, T)) + rng.uniform(0.2, 1.0, (m, 1)) * rng.standard_normal(T)
    return r * rng.uniform(0.1, 10.0, (m, 1))


@pytest.mark.parametrize("m, T", [(3, 5), (7, 20), (20, 60), (50, 200), (12, 40)])
def test_shrink_intensity_is_shrink_estim(rng, m, T):
    r = correlated_residuals(rng, m, T)
    if m == 12:
        r[4, 7] *= 1e3  # one spiked observation
    want = shrink_estim(r)
    assert 0 < want < 1
    assert abs(shrink_intensity(r) - want) <= 1e-13 * want


def test_shrink_intensity_of_a_3_by_4_case_is_exact():
    # the intensity is rational in the residuals, so the oracle in Fractions is exact
    r = [[3, 1, 0, -2], [-2, -4, -4, -4], [-3, 3, 1, 4]]
    want = shrink_estim([[Fraction(v) for v in row] for row in r])
    assert want == Fraction(1921, 2121)
    assert abs(shrink_intensity(np.array(r, dtype=float)) - want) <= 1e-13 * want


@pytest.mark.parametrize("pattern", ["bd_expert_shrunk", "bd_variable_shrunk"])
def test_block_intensities_are_shrink_estim_of_their_rows(rng, pattern):
    # two experts, so every by-variable block has two rows; each block's
    # intensity, from the estimator and read off one pass, is its rows' own
    sys = from_aggregation(np.kron(np.eye(2), np.ones((1, 2))), [f"v{k}" for k in range(6)])
    panel = from_availability(np.ones((6, 2), dtype=bool), sys)
    r = correlated_residuals(rng, panel.m, 30)
    wants = [shrink_estim(r[rows]) for rows, _ in ESTIMATORS[pattern](r, panel).parts]
    assert min(wants) < 1
    for est in (ESTIMATORS[pattern](r, panel), _Moments(r).estimate(pattern, panel)):
        assert len(est.lam) == len(wants)
        for lam, want in zip(est.lam, wants):
            assert abs(lam - want) <= 1e-13 * want, pattern


def test_sub_block_intensities_are_shrink_estim_of_their_rows(rng):
    r = correlated_residuals(rng, 15, 40)
    moments = _Moments(r)
    for size in (2, 3, 7, 15):
        rows = rng.permutation(15)[:size]
        want = shrink_estim(r[rows])
        assert abs(moments.intensity(rows) - want) <= 1e-13 * want, size


@pytest.mark.filterwarnings("error")
def test_uncorrelated_rows_and_a_lone_row_shrink_fully():
    # every correlation is exactly 0 (rows of disjoint support): nothing to
    # divide by, so the intensity is 1, as it is for a single row
    r = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 3.0, 0.0, 1.0]])
    assert shrink_intensity(r) == 1.0
    assert shrink_intensity(r[:1]) == 1.0 and shrink(r[:1]).lam == 1.0


def test_rows_of_one_sign_pattern_are_not_shrunk(rng):
    # each row a multiple of one +-1 pattern: every z_i z_j is constant over t,
    # so no correlation varies; rounding can leave the summed variance below 0
    for _ in range(20):
        T, m = int(rng.integers(3, 12)), int(rng.integers(2, 5))
        r = rng.uniform(0.1, 10.0, (m, 1)) * rng.choice([-1.0, 1.0], T)
        assert 0.0 <= shrink_intensity(r) <= 1e-15


@pytest.mark.parametrize("lam", [-1e-12, 1.0 + 1e-12])
def test_shrink_refuses_an_intensity_outside_0_1(rng, lam):
    with pytest.raises(DataError, match="must lie in"):
        shrink(rng.standard_normal((4, 30)), lam=lam)


def test_shrink_holds_no_m_by_m_matrix_beyond_the_mse_and_its_estimate(rng):
    # in units of one m x m matrix: the intensity reads the MSE and one
    # buffer of squared correlations; shrink adds its estimate's temporaries
    m = 800
    r = rng.standard_normal((m, 60))
    for read, bound in ((shrink, 4.5), (shrink_intensity, 2.15)):
        read(r)  # loads LAPACK outside the trace
        tracemalloc.start()
        try:
            read(r)
            peak = tracemalloc.get_traced_memory()[1] / (m * m * 8)
        finally:
            tracemalloc.stop()
        assert peak < bound, (read.__name__, peak)


def test_shrink_zero_variance_coordinate_raises(rng):
    resid = rng.standard_normal((3, 20))
    resid[1] = 0.0
    for read in (shrink, shrink_intensity):
        with pytest.raises(NumericalError):
            read(resid)


def test_shrink_recovers_positive_definiteness(rng):
    resid = rng.standard_normal((30, 10))  # m > T: sample estimate is singular
    assert sample_mse(resid).singular
    est = shrink(resid)
    assert not est.singular
    scipy.linalg.cho_factor(est.W)


def test_block_by_expert_single_block_equals_whole(rng):
    sys = from_aggregation(np.zeros((0, 3)), ["v1", "v2", "v3"])
    panel = from_availability(np.ones((3, 1), dtype=bool), sys)
    resid = rng.standard_normal((3, 25))
    np.testing.assert_array_equal(block_by_expert(resid, panel).W, sample_mse(resid).W)
    np.testing.assert_array_equal(
        block_by_expert(resid, panel, shrink_blocks=True).W, shrink(resid).W
    )


def test_block_by_expert_zeroes_cross_expert_cells(rng):
    panel = small_panel()
    common = rng.standard_normal((1, 40))
    resid = np.vstack([common + 0.1 * rng.standard_normal((3, 40))] * 2)
    est = block_by_expert(resid, panel)
    assert est.pattern == "bd_expert"
    np.testing.assert_array_equal(est.W[:3, 3:], np.zeros((3, 3)))
    np.testing.assert_array_equal(est.W[3:, :3], np.zeros((3, 3)))


def test_block_by_expert_blocks_match_submatrix_oracle(rng):
    panel = small_panel()
    resid = rng.standard_normal((6, 30))
    est = block_by_expert(resid, panel)
    for j, rows in ((0, slice(0, 3)), (1, slice(3, 6))):
        np.testing.assert_allclose(est.W[rows, rows], loop_mse(resid[rows]), atol=1e-12)


def test_block_by_variable_single_variable_equals_sample(rng):
    sys = from_aggregation(np.zeros((0, 1)), ["only"])
    panel = from_availability(np.ones((1, 4), dtype=bool), sys)
    resid = rng.standard_normal((4, 20))
    np.testing.assert_array_equal(block_by_variable(resid, panel).W, sample_mse(resid).W)


def test_block_by_variable_zeroes_cross_variable_cells(rng):
    panel = small_panel()
    resid = rng.standard_normal((6, 40))
    est = block_by_variable(resid, panel)
    for a, (ia, _) in enumerate(panel.pairs):
        for b, (ib, _) in enumerate(panel.pairs):
            if ia != ib:
                assert est.W[a, b] == 0.0


def test_block_by_variable_matches_permuted_blocks(rng):
    for _ in range(10):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        resid = rng.standard_normal((panel.m, 30))
        est = block_by_variable(resid, panel)
        sigma = np.zeros((panel.m, panel.m))
        start = 0
        for i in range(panel.n):
            rows = panel.variable_rows(i)
            block = loop_mse(resid[rows])
            sigma[start : start + len(rows), start : start + len(rows)] = block
            start += len(rows)
        assert np.abs(est.W - panel.P.T @ sigma @ panel.P).max() <= 1e-12


def test_diagonal_mse(rng):
    resid = rng.standard_normal((4, 25))
    est = diagonal_mse(resid)
    assert est.pattern == "diagonal"
    np.testing.assert_allclose(est.W, np.diag(np.diag(sample_mse(resid).W)), atol=1e-15)


def test_estimators_positive_definite_when_long(rng):
    for _ in range(20):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        resid = rng.standard_normal((panel.m, panel.m + 30))
        for est in (
            sample_mse(resid),
            shrink(resid),
            block_by_expert(resid, panel, shrink_blocks=True),
            block_by_variable(resid, panel, shrink_blocks=True),
            diagonal_mse(resid),
        ):
            assert not est.singular
            scipy.linalg.cho_factor(est.W)
            assert np.isfinite(np.linalg.cond(est.W))
            assert np.abs(est.W - est.W.T).max() <= 1e-12


def test_per_block_intensities_are_reported(rng):
    panel = small_panel()
    resid = rng.standard_normal((6, 50))
    est = block_by_expert(resid, panel, shrink_blocks=True)
    assert est.pattern == "bd_expert_shrunk"
    assert len(est.lam) == 2
    assert all(0.0 <= lam <= 1.0 for lam in est.lam)


@pytest.mark.parametrize("shrink_blocks", [False, True])
@pytest.mark.parametrize("estimator, p", [(block_by_expert, 2), (block_by_variable, 8)])
def test_blocks_wider_than_T_are_singular_unless_shrunk(rng, estimator, p, shrink_blocks):
    # every block (9 variables per expert, 8 experts per variable) is wider
    # than the T = 6 observations: its sample MSE is rank deficient, so the
    # estimate is tagged singular, yet each shrunk block is positive definite
    a = np.kron(np.eye(3), np.ones((1, 2)))
    sys = from_aggregation(a, [f"v{k}" for k in range(9)])
    panel = from_availability(
        np.ones((9, p), dtype=bool), sys, values=rng.standard_normal(9 * p)
    )
    resid = rng.standard_normal((panel.m, 6))
    est = estimator(resid, panel, shrink_blocks=shrink_blocks)
    assert est.singular is not shrink_blocks
    if not shrink_blocks:
        with pytest.raises(NumericalError, match="flagged singular"):
            occ(panel, sys, est)
        return
    res = occ(panel, sys, est)
    assert kkt_residual(panel.K, est.W, sys.C, panel.y_hat, res.y_tilde) <= 1e-9


@pytest.mark.parametrize("estimator", [block_by_expert, block_by_variable])
@pytest.mark.parametrize("shrink_blocks", [False, True])
def test_block_patterns_factor_blocks_only(rng, monkeypatch, estimator, shrink_blocks):
    # the estimate factors each diagonal block exactly once; occ and the
    # multi-task pool solve with those factors, so they factor neither the
    # m x m W nor one of its blocks again
    factored = []
    dpotrf = _lapack().dpotrf
    monkeypatch.setattr(_lapack(), "dpotrf",
                        lambda a, *args, **kw: factored.append(np.array(a))
                        or dpotrf(a, *args, **kw))
    sys = from_aggregation(np.kron(np.eye(2), np.ones((1, 2))), [f"v{k}" for k in range(6)])
    panel = from_availability(np.ones((6, 3), dtype=bool), sys, values=np.arange(18.0))
    resid = rng.standard_normal((panel.m, 40))
    est = estimator(resid, panel, shrink_blocks=shrink_blocks)
    assert not est.singular
    if estimator is block_by_expert:
        groups = [np.arange(panel.m)[panel.expert_rows(j)] for j in range(panel.p)]
    else:
        groups = [panel.variable_rows(i) for i in range(panel.n)]
    blocks = [est.W[np.ix_(rows, rows)] for rows in groups]
    assert len(factored) == len(blocks)
    assert all(np.array_equal(a, b) for a, b in zip(factored, blocks))

    factored.clear()
    for f in FORMULATIONS:
        occ(panel, sys, est, f)
    combine_multi_task(panel, est)
    assert factored  # the pooled precisions are still factored
    assert all(a.shape != (panel.m, panel.m) for a in factored)
    assert not any(np.array_equal(a, b) for a in factored for b in blocks)
    scipy.linalg.cho_factor(est.W)


def test_estimates_are_freed_by_reference_counting(rng):
    # a dense estimate builds its one part on access: a stored part holding
    # the estimate itself would be a cycle, left to the cyclic collector
    panel = small_panel()
    resid = rng.standard_normal((6, 50))
    gc.disable()
    try:
        for build in (lambda: shrink(resid), lambda: block_by_expert(resid, panel, True)):
            est = build()
            est.parts, est.blocks(panel.m), est.W
            ref = weakref.ref(est)
            del est
            assert ref() is None
    finally:
        gc.enable()


def test_user_covariance_must_be_finite_and_square():
    with pytest.raises(DataError, match="non-finite"):
        CovarianceEstimate(np.diag([1.0, np.nan, 1.0]), "sample")
    with pytest.raises(DataError, match="square"):
        as_covariance(np.ones((2, 3)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pattern", sorted(ESTIMATORS))
def test_residuals_whose_products_overflow_give_no_estimate(pattern):
    # the package's own estimates pass the constructor's finiteness check too,
    # from the library estimator and from the simulation's one moment pass,
    # and numpy's overflow warning (an error here) stays quiet
    _, panel, resid = overflowing_residuals()
    for read in (lambda: ESTIMATORS[pattern](resid, panel),
                 lambda: _Moments(resid).estimate(pattern, panel),
                 lambda: shrink_intensity(resid)):
        with pytest.raises(DataError, match="covariance contains non-finite entries"):
            read()


def dgp_residuals(setting, balanced, seed, n_train):
    """The panel and in-sample residuals of one simulated replication."""
    cfg = SimulationConfig(setting=setting, p=4, n_train=n_train, test_len=1, replications=1,
                           seed=seed, balanced=balanced)
    data = generate_replication(cfg, 0)
    panel = from_availability(data.availability, dgp_system())
    return panel, residuals_from_arrays(panel, data.actuals[:n_train], data.forecasts[:, :n_train])


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(setting=st.integers(1, 6), balanced=st.booleans(), seed=st.integers(0, 2**16),
       n_train=st.sampled_from([20, 50, 200]))
def test_one_moment_pass_reads_every_pattern(setting, balanced, seed, n_train):
    # every block read off one pass over all rows matches the estimator's own
    # pass over that block's rows, within rounding
    panel, resid = dgp_residuals(setting, balanced, seed, n_train)
    moments = _Moments(resid)
    for pattern, estimator in ESTIMATORS.items():
        expected, got = estimator(resid, panel), moments.estimate(pattern, panel)
        assert (got.pattern, got.singular) == (pattern, expected.singular)
        assert np.abs(got.W - expected.W).max() <= 1e-14 * np.abs(expected.W).max(), pattern
        if expected.lam is None:
            assert got.lam is None
        else:
            lam, lam_expected = np.atleast_1d(got.lam), np.atleast_1d(expected.lam)
            assert lam.shape == lam_expected.shape
            assert np.all(np.abs(lam - lam_expected) <= 1e-14 * lam_expected), pattern


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("balanced", [True, False])
def test_one_moment_pass_refuses_to_shrink_a_zero_variance_row(balanced):
    # as the estimators: every shrunk pattern raises, sample and diagonal
    # patterns are tagged singular; a block without the row still shrinks,
    # and standardizing the zero row divides by nothing
    panel, resid = dgp_residuals(3, balanced, 5, 50)
    resid = resid.copy()
    resid[2] = 0.0
    moments = _Moments(resid)
    for pattern, estimator in ESTIMATORS.items():
        if pattern.endswith("shrunk"):
            for read in (lambda: estimator(resid, panel), lambda: moments.estimate(pattern, panel)):
                with pytest.raises(NumericalError, match="zero-variance"):
                    read()
        else:
            assert moments.estimate(pattern, panel).singular and estimator(resid, panel).singular
    for read in (lambda: shrink(resid[2:3]), lambda: moments.dense(True, np.array([2]))):
        with pytest.raises(NumericalError, match="zero-variance"):
            read()  # a one-row block, which has no correlation to standardize
    rows = np.arange(3, panel.m)
    got, expected = moments.dense(True, rows), shrink(resid[rows])
    assert np.abs(got.W - expected.W).max() <= 1e-14 * np.abs(expected.W).max()
    assert abs(got.lam - expected.lam) <= 1e-14 * expected.lam
