import numpy as np
import pytest
import scipy.linalg

from cocomb import (
    DataError,
    as_covariance,
    build_panel,
    from_aggregation,
    from_availability,
    residual_panel,
    residuals_from_arrays,
    to_by_variable,
)
from cocomb.panel import fill_cells, panel_from_pairs
from conftest import random_panel, random_system
from oracles import fill_cells_records


def three_var_system():
    return from_aggregation(np.zeros((0, 3)), ["y1", "y2", "y3"])


def worked_example_panel(values=None):
    """n=3 with per-variable expert counts (2, 1, 4): m=7, p=4."""
    sys = three_var_system()
    avail = np.array(
        [
            [True, False, True, False],
            [False, True, False, False],
            [True, True, True, True],
        ]
    )
    return sys, from_availability(avail, sys, experts=("e1", "e2", "e3", "e4"), values=values)


def test_worked_example_selection_matrices():
    _, panel = worked_example_panel()
    assert panel.m == 7 and panel.p == 4
    np.testing.assert_array_equal(panel.p_i, [2, 1, 4])
    np.testing.assert_array_equal(panel.n_j, [2, 2, 2, 1])
    l13 = np.array([[1, 0, 0], [0, 0, 1]], dtype=float)
    l2 = np.array([[0, 1, 0], [0, 0, 1]], dtype=float)
    l4 = np.array([[0, 0, 1]], dtype=float)
    np.testing.assert_array_equal(panel.selection(0), l13)
    np.testing.assert_array_equal(panel.selection(1), l2)
    np.testing.assert_array_equal(panel.selection(2), l13)
    np.testing.assert_array_equal(panel.selection(3), l4)
    # the block-diagonal selector stacks the per-expert selectors
    np.testing.assert_array_equal(panel.L, scipy.linalg.block_diag(l13, l2, l13, l4))
    np.testing.assert_array_equal(panel.K, np.vstack([l13, l2, l13, l4]))


def test_worked_example_by_variable_order():
    values = np.array([11.0, 13.0, 22.0, 23.0, 31.0, 33.0, 43.0])
    # stacked by expert: e1:(y1,y3) e2:(y2,y3) e3:(y1,y3) e4:(y3)
    _, panel = worked_example_panel(values)
    np.testing.assert_array_equal(
        to_by_variable(panel), [11.0, 31.0, 22.0, 13.0, 23.0, 33.0, 43.0]
    )
    # orthogonality: the inverse reordering is the transpose
    np.testing.assert_array_equal(panel.P.T @ (panel.P @ values), values)


def test_balanced_panel_matrices():
    sys = from_aggregation(np.zeros((0, 2)), ["a", "b"])
    panel = from_availability(np.ones((2, 3), dtype=bool), sys)
    np.testing.assert_array_equal(panel.K, np.kron(np.ones((3, 1)), np.eye(2)))
    np.testing.assert_array_equal(panel.J, np.kron(np.eye(2), np.ones((3, 1))))
    np.testing.assert_array_equal(panel.L, np.eye(6))


def test_balanced_two_by_two_commutation():
    sys = from_aggregation(np.zeros((0, 2)), ["v1", "v2"])
    # experts {1,2} x variables {1,2}: by-expert [a,b,c,d] -> by-variable [a,c,b,d]
    panel = from_availability(
        np.ones((2, 2), dtype=bool), sys, values=np.array([1.0, 2.0, 3.0, 4.0])
    )
    np.testing.assert_array_equal(to_by_variable(panel), [1.0, 3.0, 2.0, 4.0])


def test_build_panel_from_triples():
    sys = three_var_system()
    triples = [
        ("y1", "e1", 11.0),
        ("y3", "e1", 13.0),
        ("y2", "e2", 22.0),
        ("y3", "e2", 23.0),
        ("y1", "e3", 31.0),
        ("y3", "e3", 33.0),
        ("y3", "e4", 43.0),
    ]
    panel = build_panel(triples, sys)
    assert panel.experts == ("e1", "e2", "e3", "e4")
    np.testing.assert_array_equal(panel.y_hat, [11.0, 13.0, 22.0, 23.0, 31.0, 33.0, 43.0])


def test_build_panel_errors():
    sys = three_var_system()
    with pytest.raises(DataError):
        build_panel([("zz", "e1", 1.0)], sys)
    with pytest.raises(DataError):
        build_panel([("y1", "e1", 1.0), ("y1", "e1", 2.0)], sys)
    with pytest.raises(DataError):
        # y2 never covered
        build_panel([("y1", "e1", 1.0), ("y3", "e1", 2.0)], sys)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_forecasts_rejected(bad):
    values = [1.0, 2.0, bad, 4.0, 5.0, 6.0, 7.0]
    with pytest.raises(DataError, match="non-finite"):
        worked_example_panel(values)


def test_residual_panel_perfect_fit():
    sys, panel = worked_example_panel()
    actuals = np.arange(12.0).reshape(4, 3)
    fitted = [
        (t, panel.labels[i], panel.experts[j], actuals[t, i])
        for t in range(4)
        for (i, j) in panel.pairs
    ]
    np.testing.assert_array_equal(residual_panel(panel, actuals, fitted), np.zeros((7, 4)))


def test_residual_panel_constant_offset():
    sys = from_aggregation(np.zeros((0, 1)), ["only"])
    panel = from_availability(np.ones((1, 1), dtype=bool), sys)
    actuals = np.full((5, 1), 5.0)
    fitted = [(t, "only", "expert1", 3.0) for t in range(5)]
    np.testing.assert_array_equal(residual_panel(panel, actuals, fitted), np.full((1, 5), 2.0))


def test_residual_panel_matches_elementwise_subtraction(rng):
    sys, panel = worked_example_panel()
    T = 6
    actuals = rng.standard_normal((T, 3))
    values = rng.standard_normal((7, T))
    fitted = [
        (t, panel.labels[i], panel.experts[j], values[r, t])
        for t in range(T)
        for r, (i, j) in enumerate(panel.pairs)
    ]
    res = residual_panel(panel, actuals, fitted)
    for r, (i, j) in enumerate(panel.pairs):
        for t in range(T):
            assert res[r, t] == actuals[t, i] - values[r, t]


def test_residual_panel_errors():
    sys, panel = worked_example_panel()
    actuals = np.zeros((4, 3))
    with pytest.raises(DataError):
        residual_panel(panel, actuals[:1], [])
    fitted = [
        (t, panel.labels[i], panel.experts[j], 0.0)
        for t in range(4)
        for (i, j) in panel.pairs
    ]
    with pytest.raises(DataError):
        residual_panel(panel, actuals, fitted[:-1])  # one missing cell


def test_residuals_from_arrays_bitwise(rng):
    sys, panel = worked_example_panel()
    T = 5
    actuals = rng.standard_normal((T, 3))
    forecasts = rng.standard_normal((4, T, 3))
    fitted = [
        (t, panel.labels[i], panel.experts[j], forecasts[j, t, i])
        for t in range(T)
        for (i, j) in panel.pairs
    ]
    np.testing.assert_array_equal(
        residuals_from_arrays(panel, actuals, forecasts),
        residual_panel(panel, actuals, fitted),
    )


def test_stack_matches_dense_path(rng):
    for _ in range(20):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        values = rng.standard_normal((panel.n, panel.p))
        dense = panel.L @ values.T.reshape(-1)
        np.testing.assert_array_equal(panel.stack(values), dense)


def test_table_relations_random_panels(rng):
    for _ in range(200):
        sys = random_system(rng)
        panel = random_panel(rng, sys)
        np.testing.assert_array_equal(panel.K, panel.P.T @ panel.J)
        np.testing.assert_array_equal(panel.P @ panel.P.T, np.eye(panel.m))
        sigma = rng.standard_normal((panel.m, panel.m))
        sigma = sigma + sigma.T
        w = panel.P.T @ sigma @ panel.P
        assert np.abs(panel.P @ w @ panel.P.T - sigma).max() <= 1e-14
        for j in range(panel.p):
            lj = panel.selection(j)
            np.testing.assert_array_equal(lj @ lj.T, np.eye(int(panel.n_j[j])))
        # each row of K selects exactly one variable; columns count the experts
        np.testing.assert_array_equal(panel.K.sum(axis=1), np.ones(panel.m))
        np.testing.assert_array_equal(panel.K.sum(axis=0), panel.p_i)


def test_j_stacks_repeated_variables(rng):
    sys = random_system(rng)
    panel = random_panel(rng, sys)
    y = rng.standard_normal(panel.n)
    jy = panel.J @ y
    expected = np.concatenate([np.full(int(panel.p_i[i]), y[i]) for i in range(panel.n)])
    np.testing.assert_array_equal(jy, expected)


def test_panel_validation_errors():
    sys = three_var_system()
    with pytest.raises(DataError):
        from_availability(np.zeros((3, 2), dtype=bool), sys)
    avail = np.array([[True, False], [True, False], [True, False]])
    with pytest.raises(DataError):
        from_availability(avail, sys)  # second expert idle
    with pytest.raises(DataError):
        from_availability(np.ones((2, 2), dtype=bool), sys)  # wrong row count


def record_columns(records):
    """(k, series, expert, value) records as the columns ``fill_cells`` takes."""
    records = list(records)
    k, series, expert, value = zip(*records) if records else ((),) * 4

    def label_column(labels):
        names = list(dict.fromkeys(labels))
        return tuple(names), np.array([names.index(x) for x in labels], dtype=np.int64)

    return k, label_column(series), label_column(expert), value


def test_fill_cells_orders_columns_by_key_and_checks_each_cell():
    sys, panel = worked_example_panel()
    records = [
        (t, panel.labels[i], panel.experts[j], 10.0 * t + r)
        for t in (5, 2, 9)
        for r, (i, j) in enumerate(panel.pairs)
    ]
    keys, values = fill_cells(*record_columns(reversed(records)), panel, "test records", "t")
    assert keys == [2, 5, 9]
    np.testing.assert_array_equal(values, np.arange(7.0)[:, None] + [20.0, 50.0, 90.0])
    with pytest.raises(DataError, match="duplicate cell .* t 5 in test records"):
        fill_cells(*record_columns(records + records[:1]), panel, "test records", "t")
    with pytest.raises(DataError, match="non-finite"):
        fill_cells(*record_columns([(0, "y1", "e1", np.inf)]), panel, "test records", "t")
    with pytest.raises(DataError, match="2 missing, first \\('y1', 'e1', 2\\)"):
        fill_cells(*record_columns(records[1:7] + records[8:]), panel, "test records", "t")


@pytest.mark.parametrize("defects", [
    [(3, (2, "y9", "e1", 1.0))],
    [(5, (9, "y1", "e9", 1.0))],
    [(6, (5, "y2", "e1", 1.0))],
    [(4, (7, "y1", "e1", np.nan)), (9, (5, "y1", "e1", 0.0))],
    [(9, (2, "y1", "e1", 0.0)), (12, (2, "y9", "e1", 1.0))],
    [(2, (9, "y1", "e1", 0.0)), (20, (5, "y1", "e1", 0.0))],
], ids=["unknown-series", "unknown-expert", "pair-not-in-panel", "nan-then-duplicate",
        "duplicate-then-unknown", "repeat-of-a-later-record"])
def test_fill_cells_reports_the_first_defective_record(defects):
    """The columns give the error a record-by-record fill raises first."""
    _, panel = worked_example_panel()
    records = [(t, panel.labels[i], panel.experts[j], 10.0 * t + r)
               for t in (5, 2, 9) for r, (i, j) in enumerate(panel.pairs)]
    for at, record in defects:
        records.insert(at, record)
    with pytest.raises(DataError) as expected:
        fill_cells_records(records, panel, "test records", "t")
    with pytest.raises(DataError) as got:
        fill_cells(*record_columns(records), panel, "test records", "t")
    assert str(got.value) == str(expected.value)


def test_panel_from_pairs_numbers_experts_by_first_appearance():
    sys = three_var_system()
    panel = panel_from_pairs(
        [("y3", "e2"), ("y1", "e1"), ("y2", "e2"), ("y3", "e2")], sys, "test pairs"
    )
    assert panel.experts == ("e2", "e1")
    np.testing.assert_array_equal(
        panel.availability, [[False, True], [True, False], [True, False]]
    )
    with pytest.raises(DataError, match="unknown series 'zz' in test pairs"):
        panel_from_pairs([("zz", "e1")], sys, "test pairs")


@pytest.mark.parametrize("make", [
    lambda: worked_example_panel()[1],
    three_var_system,
    lambda: as_covariance(np.eye(3)),
], ids=["panel", "system", "covariance"])
def test_array_holding_dataclasses_compare_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True
