import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cocomb import (
    DataError,
    SimulationConfig,
    dgp_system,
    generate_replication,
    is_coherent,
    nearest_correlation,
    run_experiment,
)
from cocomb import simulation
from cocomb.exceptions import NumericalError
from cocomb.panel import from_availability, residuals_from_arrays
from cocomb.simulation import (
    SIMULATION_METHODS,
    _BALANCED_ONLY,
    _method_weights,
    _participation_mask,
    _raw_correlation,
    _replication_accuracy,
    _replications,
)
from oracles import method_weights_chain, nearest_correlation_scalar


def test_dgp_system_shape():
    sys = dgp_system()
    assert sys.n == 7 and sys.n_u == 3 and sys.n_b == 4
    assert sys.labels == ("X", "A", "B", "AA", "AB", "BA", "BB")
    np.testing.assert_array_equal(sys.S @ np.ones(4), [4, 2, 2, 1, 1, 1, 1])


def test_replication_is_deterministic():
    cfg = SimulationConfig(setting=4, p=3, n_train=30, test_len=10, replications=1, seed=9)
    a = generate_replication(cfg, 5)
    b = generate_replication(cfg, 5)
    np.testing.assert_array_equal(a.actuals, b.actuals)
    np.testing.assert_array_equal(a.forecasts, b.forecasts)
    np.testing.assert_array_equal(a.availability, b.availability)
    c = generate_replication(cfg, 6)
    assert not np.array_equal(a.actuals, c.actuals)


def test_actuals_are_coherent_by_construction():
    cfg = SimulationConfig(setting=1, p=2, n_train=50, test_len=20, replications=1, seed=1)
    sys = dgp_system()
    data = generate_replication(cfg, 0)
    scale = np.abs(data.actuals).max()
    for t in range(0, data.actuals.shape[0], 7):
        assert is_coherent(sys, data.actuals[t], tol=1e-10 * (1.0 + scale))


def test_error_variance_scales_with_aggregation_size():
    # with identity error correlation, the spread between two experts'
    # forecasts isolates their noise: variance ratio top/bottom is 4
    cfg = SimulationConfig(
        setting=1, p=2, n_train=50000, test_len=1, replications=1, seed=3,
        error_corr="identity",
    )
    data = generate_replication(cfg, 0)
    diff = data.forecasts[0] - data.forecasts[1]  # = eps_1 - eps_2, cov 2D
    var = diff.var(axis=0)
    np.testing.assert_allclose(var[0] / var[3:].mean(), 4.0, rtol=0.08)
    np.testing.assert_allclose(var[1:3].mean() / var[3:].mean(), 2.0, rtol=0.08)
    # cross-variable noise correlation vanishes under the identity choice
    corr = np.corrcoef(diff.T)
    assert np.abs(corr - np.eye(7)).max() < 0.05


def test_setting_three_factors_are_persistent():
    assert SimulationConfig(setting=3, p=2, n_train=10, replications=1).var_coef == 0.9
    assert SimulationConfig(setting=1, p=2, n_train=10, replications=1).var_coef == 0.0
    cfg = SimulationConfig(setting=3, p=2, n_train=5000, test_len=1, replications=1, seed=2)
    data = generate_replication(cfg, 0)
    bottom = data.actuals[:, 3]
    lag1 = np.corrcoef(bottom[1:], bottom[:-1])[0, 1]
    assert lag1 > 0.5
    cfg1 = SimulationConfig(setting=1, p=2, n_train=5000, test_len=1, replications=1, seed=2)
    white = generate_replication(cfg1, 0).actuals[:, 3]
    assert abs(np.corrcoef(white[1:], white[:-1])[0, 1]) < 0.05


def test_expert_bias_only_in_setting_six():
    for setting, biased in ((1, False), (6, True)):
        cfg = SimulationConfig(
            setting=setting, p=3, n_train=20000, test_len=1, replications=1, seed=11
        )
        data = generate_replication(cfg, 0)
        bias = (data.forecasts[:, :, 3:] - data.actuals[None, :, 3:]).mean(axis=(1, 2))
        if biased:
            assert np.abs(bias).max() > 0.2
        else:
            assert np.abs(bias).max() < 0.05


def test_nearest_correlation_properties(rng):
    for size in (4, 7):
        for _ in range(50):
            raw = np.eye(size)
            iu = np.triu_indices(size, k=1)
            raw[iu] = rng.uniform(-1.0, 1.0, size=len(iu[0]))
            raw.T[iu] = raw[iu]
            fixed = nearest_correlation(raw)
            assert np.abs(np.diag(fixed) - 1.0).max() <= 1e-10
            assert np.linalg.eigvalsh(fixed).min() >= 0.0
            np.linalg.cholesky(fixed)
    # an already valid correlation matrix passes through unchanged
    good = np.array([[1.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(nearest_correlation(good), good, atol=1e-8)


def _projection_input(rng, d, kind):
    """A raw draw (about 20 projection steps), a valid correlation matrix (one
    step), or a rank-2 correlation matrix with a small hollow symmetric
    perturbation (near singular, 10-30 steps)."""
    if kind == "raw":
        return _raw_correlation(rng, d)
    x = rng.standard_normal((d, 2 * d if kind == "valid" else 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if kind == "valid":
        return x @ x.T
    e = rng.uniform(-1e-3, 1e-3, size=(d, d))
    e = e + e.T
    np.fill_diagonal(e, 0.0)
    return x @ x.T + e


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([4, 7]),
    kinds=st.lists(st.sampled_from(["raw", "valid", "near_singular"]), min_size=1, max_size=12),
)
def test_stacked_projection_is_bitwise_the_per_matrix_projection(seed, d, kinds):
    rng = np.random.default_rng(seed)
    stack = np.stack([_projection_input(rng, d, kind) for kind in kinds])
    fixed = nearest_correlation(stack)
    assert fixed.shape == stack.shape
    for raw, got in zip(stack, fixed):
        assert np.array_equal(got, nearest_correlation_scalar(raw))
    alone = nearest_correlation(stack[0])  # a (d, d) input keeps its shape
    assert alone.shape == (d, d) and np.array_equal(alone, fixed[0])


def test_stack_with_one_unconverged_member_raises(rng):
    valid = [_projection_input(rng, 7, "valid") for _ in range(3)]
    raw = _raw_correlation(rng, 7)
    with pytest.raises(NumericalError) as solo:
        nearest_correlation_scalar(raw, max_iter=1)
    for v in valid:  # the valid members alone converge in the one step
        nearest_correlation(v, max_iter=1)
    with pytest.raises(NumericalError) as stacked:
        nearest_correlation(np.stack([*valid[:2], raw, valid[2]]), max_iter=1)
    assert str(stacked.value) == str(solo.value)
    assert str(stacked.value) == "nearest-correlation projection did not converge in 1 steps"


def test_participation_mask_covers_everything():
    cfg = SimulationConfig(setting=1, p=5, n_train=10, replications=1, balanced=False)
    rng = np.random.default_rng(0)
    freq_cover, infreq_cover = [], []
    n_frequent = 2  # round(0.4 * 5)
    for _ in range(200):
        mask = _participation_mask(cfg, rng, 7)
        assert mask.any(axis=1).all()  # every variable covered
        assert mask.any(axis=0).all()  # no idle expert
        freq_cover.append(mask[:, :n_frequent].mean())
        infreq_cover.append(mask[:, n_frequent:].mean())
    assert np.mean(freq_cover) > 0.85
    assert np.mean(infreq_cover) < 0.45


def test_unbalanced_replications_have_partial_masks():
    cfg = SimulationConfig(setting=1, p=4, n_train=30, test_len=5, replications=1,
                           seed=21, balanced=False)
    masks = [generate_replication(cfg, rep).availability for rep in range(20)]
    assert any(not m.all() for m in masks)
    assert all(m.any(axis=1).all() for m in masks)


def test_run_experiment_benchmark_is_exactly_one():
    cfg = SimulationConfig(setting=2, p=3, n_train=40, test_len=20, replications=4, seed=5)
    res = run_experiment(cfg, ["ew", "occ_be"])
    assert res.avg_rel_mae["ew"] == 1.0
    assert res.avg_rel_mse["ew"] == 1.0
    assert 0.0 < res.avg_rel_mae["occ_be"] < 1.5


def test_run_experiment_parallel_matches_serial():
    cfg = SimulationConfig(setting=1, p=3, n_train=40, test_len=10, replications=6, seed=8)
    serial = run_experiment(cfg, ["ew", "occ_be", "scr_ew"], n_jobs=1)
    parallel = run_experiment(cfg, ["ew", "occ_be", "scr_ew"], n_jobs=2)
    for m in serial.methods:
        np.testing.assert_array_equal(serial.mae[m], parallel.mae[m])
        assert serial.avg_rel_mae[m] == parallel.avg_rel_mae[m]


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("chunk", [1, 3, None])
def test_run_experiment_matches_replication_loop_across_chunks(monkeypatch, chunk, n_jobs):
    # R = 7 splits into chunks of 1, 3 or the default (one chunk serially,
    # 4 + 3 over two workers)
    if chunk is not None:
        monkeypatch.setattr(simulation, "_CHUNK", chunk)
    cfg = SimulationConfig(setting=4, p=3, n_train=30, test_len=10, replications=7,
                           seed=12, balanced=False)
    methods = ("ew", "occ_be", "scr_var")
    res = run_experiment(cfg, methods, n_jobs=n_jobs)
    sys = dgp_system()
    per_rep = [_replication_accuracy(cfg, generate_replication(cfg, r), sys, methods)
               for r in range(cfg.replications)]
    for k, m in enumerate(methods):
        assert np.array_equal(res.mae[m], np.stack([mae[k] for mae, _ in per_rep]))
        assert np.array_equal(res.mse[m], np.stack([mse[k] for _, mse in per_rep]))


@pytest.mark.parametrize("balanced", [True, False])
@pytest.mark.parametrize("error_corr", ["random_spd", "identity"])
def test_replication_alone_equals_its_place_in_a_chunk(error_corr, balanced):
    cfg = SimulationConfig(setting=3, p=3, n_train=30, test_len=5, replications=7, seed=6,
                           balanced=balanced, error_corr=error_corr)
    reps = range(2, 7)
    for r, member in zip(reps, _replications(cfg, reps, dgp_system()), strict=True):
        alone = generate_replication(cfg, r)
        for name in ("actuals", "forecasts", "availability"):
            assert np.array_equal(getattr(alone, name), getattr(member, name)), (r, name)


def test_run_experiment_validates_methods():
    cfg = SimulationConfig(setting=1, p=3, n_train=40, replications=2, balanced=False)
    with pytest.raises(DataError):
        run_experiment(cfg, ["nope"])
    with pytest.raises(DataError):
        run_experiment(cfg, ["src"])  # balanced only


def test_run_experiment_rejects_no_methods(monkeypatch):
    def no_replication(*args, **kwargs):
        raise AssertionError("a replication was run")

    monkeypatch.setattr("cocomb.simulation._replication_accuracy", no_replication)
    cfg = SimulationConfig(setting=1, p=3, n_train=40, replications=2)
    with pytest.raises(DataError, match="no methods"):
        run_experiment(cfg, ())


@pytest.mark.parametrize("balanced", [True, False])
def test_method_table_matches_branch_chain(balanced):
    # every method's weights match the per-method branch chain, and equal each
    # other bit for bit whichever order the methods fill the shared cache in.
    # The cache reads each block off one moment pass over all rows, which
    # rounds differently from the chain's pass per block: the worst case over
    # settings 1-6, balanced and unbalanced, 7 replications each, was 8.9e-15
    # relative to the largest weight, so the bound is 1e-13.
    cfg = SimulationConfig(setting=5, p=4, n_train=40, test_len=5, replications=1,
                           seed=21, balanced=balanced)
    sys = dgp_system()
    data = generate_replication(cfg, 0)
    panel = from_availability(data.availability, sys)
    resid = residuals_from_arrays(panel, data.actuals[:40], data.forecasts[:, :40])
    methods = [m for m in SIMULATION_METHODS if balanced or m not in _BALANCED_ONLY]
    assert len(methods) == (14 if balanced else 10)
    oracle_cache = {}
    expected = {m: method_weights_chain(m, panel, sys, resid, oracle_cache) for m in methods}
    first = {}
    for order in (methods, methods[::-1]):
        cache = {}
        for m in order:
            weights = _method_weights(m, panel, sys, resid, cache)
            scale = np.abs(expected[m]).max()
            assert np.abs(weights - expected[m]).max() <= 1e-13 * scale, m
            assert np.array_equal(first.setdefault(m, weights), weights), m


def test_shared_expert_blocks_are_factored_once(monkeypatch):
    # occ_be, src and the base_* projectors all read expert j's block from the
    # cached bd_expert_shrunk estimate, so no matrix is factored twice
    factored = []
    dpotrf = scipy.linalg.lapack.dpotrf
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf",
                        lambda a, *args, **kw: factored.append(np.array(a))
                        or dpotrf(a, *args, **kw))
    cfg = SimulationConfig(setting=5, p=4, n_train=40, test_len=5, replications=1, seed=21)
    sys = dgp_system()
    data = generate_replication(cfg, 0)
    panel = from_availability(data.availability, sys)
    resid = residuals_from_arrays(panel, data.actuals[:40], data.forecasts[:, :40])
    cache = {}
    for m in ("occ_be", "src", "base_star_shr", "base_shr"):
        _method_weights(m, panel, sys, resid, cache)
    assert len(factored) == 14  # 4 expert blocks; 2 pooled solves for occ_be and each expert
    assert not any(np.array_equal(a, b) for k, a in enumerate(factored) for b in factored[:k])


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_experiment_rejects_jobs_below_one(monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cfg = SimulationConfig(setting=1, p=3, n_train=40, replications=2)
    with pytest.raises(DataError, match="n_jobs"):
        run_experiment(cfg, ["ew"], n_jobs=jobs)


def test_improvement_ordering_settings_one_to_three():
    # directional check at pilot size: occ_be <= scr_ew <= 1 within noise
    for setting in (1, 2, 3):
        cfg = SimulationConfig(setting=setting, p=4, n_train=100, replications=40,
                               seed=31, balanced=True)
        res = run_experiment(cfg, ["ew", "scr_ew", "occ_be"])
        assert res.avg_rel_mae["occ_be"] <= res.avg_rel_mae["scr_ew"] + 0.01
        assert res.avg_rel_mae["scr_ew"] <= 1.0 + 0.01


def test_all_methods_run_balanced():
    cfg = SimulationConfig(setting=5, p=3, n_train=40, test_len=10, replications=3, seed=13)
    methods = ["base_star", "base_star_shr", "base_shr", "ew", "ow_var", "ow_cov",
               "src", "scr_ew", "scr_var", "scr_cov", "occ_be", "occ_bv", "occ_shr",
               "occ_wls"]
    res = run_experiment(cfg, methods)
    for m in methods:
        assert np.isfinite(res.avg_rel_mae[m])


def test_all_methods_run_unbalanced():
    cfg = SimulationConfig(setting=6, p=4, n_train=40, test_len=10, replications=3,
                           seed=14, balanced=False)
    methods = ["ew", "ow_var", "ow_cov", "scr_ew", "scr_var", "scr_cov",
               "occ_be", "occ_bv", "occ_shr", "occ_wls"]
    res = run_experiment(cfg, methods)
    for m in methods:
        assert np.isfinite(res.avg_rel_mae[m])


def test_config_validation():
    with pytest.raises(DataError):
        SimulationConfig(setting=7, p=4, n_train=10, replications=1)
    with pytest.raises(DataError):
        SimulationConfig(setting=1, p=1, n_train=10, replications=1)
    with pytest.raises(DataError):
        SimulationConfig(setting=1, p=4, n_train=10, replications=1, error_corr="huh")
    cfg = SimulationConfig(setting=1, p=4, n_train=10, replications=1)
    assert cfg.total_len == 110


@pytest.mark.parametrize(
    "field, value",
    [
        ("frequent_stay", -0.1),
        ("infrequent_stay", 1.5),
        ("frequent_enter", 0.0),
        ("infrequent_enter", 0.0),
        ("frequent_enter", 1.2),
        ("infrequent_stay", float("nan")),
    ],
)
def test_config_rejects_participation_probabilities_out_of_range(field, value):
    # construction only: a config with a zero entry rate would hang the mask draw
    with pytest.raises(DataError, match=field):
        SimulationConfig(setting=1, p=4, n_train=10, replications=1, **{field: value})
