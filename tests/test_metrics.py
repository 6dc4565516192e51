import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocomb import DataError, accuracy, dm_test
from oracles import dm_test_scalar, geo_mean_log


def make_case(rng, n_series=2, horizons=(1, 2), q=12):
    series = [f"s{i}" for i in range(n_series)]
    actuals = {h: rng.standard_normal((q, n_series)) for h in horizons}
    forecasts = {
        "ew": {h: actuals[h] + rng.standard_normal((q, n_series)) for h in horizons},
        "other": {h: actuals[h] + 0.5 * rng.standard_normal((q, n_series)) for h in horizons},
    }
    return series, actuals, forecasts


def test_perfect_forecasts_have_zero_loss(rng):
    series, actuals, forecasts = make_case(rng)
    forecasts["perfect"] = {h: actuals[h].copy() for h in actuals}
    table = accuracy(actuals, forecasts, benchmark="ew", series=series)
    for h in table.horizons:
        np.testing.assert_array_equal(table.mae["perfect"][h], 0.0)
        np.testing.assert_array_equal(table.mse["perfect"][h], 0.0)
        # a zero numerator is a legitimate (zero) relative index
        assert table.avg_rel_mae_h["perfect"][h] == 0.0


def test_benchmark_relative_indices_are_one(rng):
    series, actuals, forecasts = make_case(rng)
    table = accuracy(actuals, forecasts, benchmark="ew", series=series)
    for h in table.horizons:
        np.testing.assert_array_equal(table.rel_mae["ew"][h], np.ones(len(series)))
        assert table.avg_rel_mae_h["ew"][h] == 1.0
    assert table.avg_rel_mae["ew"] == 1.0
    assert table.avg_rel_mse["ew"] == 1.0


def test_accuracy_matches_log_mean_oracle(rng):
    series, actuals, forecasts = make_case(rng, n_series=2, horizons=(1, 2))
    table = accuracy(actuals, forecasts, benchmark="ew", series=series)
    for h in table.horizons:
        mae_other = np.abs(actuals[h] - forecasts["other"][h]).mean(axis=0)
        mae_ew = np.abs(actuals[h] - forecasts["ew"][h]).mean(axis=0)
        expected_h = geo_mean_log(mae_other / mae_ew)
        assert table.avg_rel_mae_h["other"][h] == pytest.approx(expected_h, rel=1e-12)
    expected = geo_mean_log([table.avg_rel_mae_h["other"][h] for h in table.horizons])
    assert table.avg_rel_mae["other"] == pytest.approx(expected, rel=1e-12)


def test_zero_benchmark_cells_are_excluded_with_warning(rng):
    series = ["a", "b"]
    actuals = {1: rng.standard_normal((10, 2))}
    forecasts = {
        "ew": {1: actuals[1].copy()},  # zero loss on every series
        "other": {1: actuals[1] + 1.0},
    }
    forecasts["ew"][1] = forecasts["ew"][1].copy()
    forecasts["ew"][1][:, 1] += 0.5  # only series "a" has zero benchmark loss
    with pytest.warns(UserWarning, match="zero-benchmark"):
        table = accuracy(actuals, forecasts, benchmark="ew", series=series)
    assert ("a", 1, "mae") in table.excluded
    assert np.isnan(table.rel_mae["other"][1][0])
    assert np.isfinite(table.avg_rel_mae_h["other"][1])


def test_scale_invariance_of_relative_indices(rng):
    series, actuals, forecasts = make_case(rng)
    table = accuracy(actuals, forecasts, benchmark="ew", series=series)
    scaled_actuals = {h: actuals[h].copy() for h in actuals}
    scaled_forecasts = {m: {h: forecasts[m][h].copy() for h in actuals} for m in forecasts}
    k = 37.5
    for h in actuals:
        scaled_actuals[h][:, 0] *= k
        for m in forecasts:
            scaled_forecasts[m][h][:, 0] *= k
    scaled = accuracy(scaled_actuals, scaled_forecasts, benchmark="ew", series=series)
    for m in forecasts:
        assert scaled.avg_rel_mae[m] == pytest.approx(table.avg_rel_mae[m], rel=1e-12)
        assert scaled.avg_rel_mse[m] == pytest.approx(table.avg_rel_mse[m], rel=1e-12)


def test_accuracy_validates_inputs(rng):
    series, actuals, forecasts = make_case(rng)
    with pytest.raises(DataError):
        accuracy(actuals, forecasts, benchmark="missing", series=series)
    bad = {m: {h: forecasts[m][h][:, :1] for h in actuals} for m in forecasts}
    with pytest.raises(DataError):
        accuracy(actuals, bad, benchmark="ew", series=series)


def test_dm_identical_losses_degenerate():
    loss = np.abs(np.sin(np.arange(30.0)))
    stat, p = dm_test(loss, loss, h=1)
    assert stat == 0.0 and p == 1.0


def test_dm_antisymmetry(rng):
    a = np.abs(rng.standard_normal(60))
    b = np.abs(rng.standard_normal(60))
    r_ab = dm_test(a, b, h=3)
    r_ba = dm_test(b, a, h=3)
    assert r_ab.statistic == pytest.approx(-r_ba.statistic, rel=1e-12)
    assert r_ab.p_value == pytest.approx(r_ba.p_value, rel=1e-12)


def test_dm_h1_reduces_to_sample_variance(rng):
    a = np.abs(rng.standard_normal(40))
    b = np.abs(rng.standard_normal(40))
    res = dm_test(a, b, h=1)
    d = a - b
    gamma0 = ((d - d.mean()) ** 2).mean()
    expected = d.mean() / math.sqrt(gamma0 / d.size)
    assert res.statistic == pytest.approx(expected, rel=1e-12)
    assert res.p_value == pytest.approx(math.erfc(abs(expected) / math.sqrt(2)), rel=1e-12)


def test_dm_power_against_constant_shift():
    rng = np.random.default_rng(4242)
    rejections = 0
    for _ in range(200):
        base = np.abs(rng.standard_normal(500))
        worse = base + 0.2 + 0.5 * rng.standard_normal(500)
        stat, p = dm_test(worse, base, h=1)
        if p < 0.05 and stat > 0:
            rejections += 1
    assert rejections / 200 > 0.95


def test_dm_constant_nonzero_differential():
    base = np.arange(50, dtype=float)
    stat, p = dm_test(base + 1.0, base, h=1)
    assert math.isinf(stat) and stat > 0 and p == 0.0


def test_dm_requires_enough_observations():
    with pytest.raises(DataError):
        dm_test(np.ones(5), np.zeros(5))
    with pytest.raises(DataError):
        dm_test(np.ones(20), np.zeros(20), h=0)


def test_dm_bartlett_weights_enter_for_longer_horizons(rng):
    d_noise = rng.standard_normal(200)
    a = np.cumsum(d_noise) * 0.05 + 2.0  # autocorrelated losses
    b = np.full(200, 2.0)
    r1 = dm_test(a, b, h=1)
    r4 = dm_test(a, b, h=4)
    assert r1.statistic != pytest.approx(r4.statistic)


def loss_pair(rng, kind, q):
    """Two loss series of length q whose differential is of the given kind."""
    base = rng.integers(0, 100, q).astype(float)
    if kind == "identical":
        return base, base.copy()
    if kind == "constant":  # integer-valued, so the differential is exactly constant
        return base + rng.choice([-3.0, 3.0]), base
    if kind == "subnormal":  # autocovariances round in the subnormal range
        return rng.integers(-6, 7, q) * math.sqrt(5e-324) * rng.uniform(0.5, 4), np.zeros(q)
    noise = rng.standard_normal(q)
    if kind == "autocorrelated":
        noise = np.cumsum(noise)
    return np.abs(base + noise), np.abs(base + rng.standard_normal(q))


@pytest.mark.filterwarnings("ignore:divide by zero")  # the scalar oracle on subnormal losses
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_batched_dm_matches_one_scalar_test_per_row(data):
    k = data.draw(st.integers(1, 5), label="k")
    q = data.draw(st.integers(10, 40), label="q")
    h = data.draw(st.integers(1, q - 1), label="h")
    kinds = data.draw(st.lists(st.sampled_from(
        ["random", "autocorrelated", "identical", "constant", "subnormal"]),
        min_size=k, max_size=k), label="kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a, b = (np.array(rows) for rows in zip(*(loss_pair(rng, kind, q) for kind in kinds)))
    stat, p = dm_test(a, b, h=h)
    assert stat.shape == p.shape == (k,)
    for i, kind in enumerate(kinds):
        s_i, p_i = dm_test_scalar(a[i], b[i], h=h)
        if kind == "identical":
            assert (stat[i], p[i]) == (s_i, p_i) == (0.0, 1.0)
        elif kind == "constant":
            assert (stat[i], p[i]) == (s_i, p_i) == (math.copysign(math.inf, a[i, 0] - b[i, 0]), 0.0)
        assert stat[i] == pytest.approx(s_i, rel=1e-12, abs=0.0)
        assert p[i] == p_i
        assert (p[i] < 0.05, stat[i] < 0, stat[i] > 0) == (p_i < 0.05, s_i < 0, s_i > 0)


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_dm_falls_back_on_the_no_lag_variance():
    """A Bartlett variance that rounds to zero falls back on gamma_0, row by row."""
    d = np.array([-7.347675238099128e-162, 7.347675238099128e-162, 2.939070095239651e-162,
                  -5.878140190479302e-162, -1.4695350476198256e-162, 8.817210285718954e-162,
                  0.0, -8.817210285718954e-162, 2.939070095239651e-162, 8.817210285718954e-162])
    centered = d - d.mean()
    gamma0 = float(centered @ centered) / d.size
    expected = d.mean() / math.sqrt(gamma0 / d.size)
    assert math.isfinite(expected) and dm_test_scalar(d, np.zeros(10), h=7)[0] == expected
    stat, p = dm_test(np.vstack([d, np.abs(d)]), np.zeros((2, 10)), h=7)
    assert stat[0] == expected
    assert p[0] == math.erfc(abs(expected) / math.sqrt(2.0))
    assert (stat[1], p[1]) == dm_test_scalar(np.abs(d), np.zeros(10), h=7)


def test_dm_batch_shapes():
    """Leading axes are kept; 1-D inputs give floats; unequal shapes are refused."""
    rng = np.random.default_rng(7)
    a, b = rng.random((2, 3, 20)), rng.random((2, 3, 20))
    stat, p = dm_test(a, b, h=2)
    assert stat.shape == p.shape == (2, 3)
    assert (stat[1, 2], p[1, 2]) == dm_test(a[1, 2], b[1, 2], h=2)
    assert all(type(x) is float for x in dm_test(a[0, 0], b[0, 0]))
    with pytest.raises(DataError, match="equal length"):
        dm_test(a, b[:, :2])
