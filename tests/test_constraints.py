import csv
import json

import numpy as np
import pytest

from cocomb import (
    DataError,
    NumericalError,
    from_aggregation,
    from_general_constraints,
    is_coherent,
    read_constraint_file,
)
from cocomb.constraints import open_input
from conftest import random_system

HIER_A = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
HIER_LABELS = ["X", "A", "B", "AA", "AB", "BA", "BB"]
HIER_C = np.array(
    [
        [1, 0, 0, -1, -1, -1, -1],
        [0, 1, 0, -1, -1, 0, 0],
        [0, 0, 1, 0, 0, -1, -1],
    ],
    dtype=float,
)


def test_from_aggregation_three_level_hierarchy():
    sys = from_aggregation(HIER_A, HIER_LABELS)
    assert sys.n == 7 and sys.n_u == 3 and sys.n_b == 4
    np.testing.assert_array_equal(sys.C, HIER_C)
    np.testing.assert_array_equal(sys.S, np.vstack([HIER_A, np.eye(4)]))
    assert np.abs(sys.C @ sys.S).max() == 0.0


def test_from_aggregation_empty_is_unconstrained():
    sys = from_aggregation(np.zeros((0, 3)), ["b0", "b1", "b2"])
    assert sys.C.shape == (0, 3)
    np.testing.assert_array_equal(sys.S, np.eye(3))
    assert is_coherent(sys, np.array([1.0, -2.0, 3.0]), tol=1e-12)


def test_from_aggregation_single_total():
    sys = from_aggregation([[1.0, 1.0]], ["tot", "x", "y"])
    np.testing.assert_array_equal(sys.C, [[1.0, -1.0, -1.0]])
    np.testing.assert_array_equal(sys.S, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


def test_from_aggregation_validates_inputs():
    with pytest.raises(DataError):
        from_aggregation([[np.nan, 1.0]], ["u", "a", "b"])
    with pytest.raises(DataError):
        from_aggregation([[1.0, 1.0]], ["u", "a"])
    with pytest.raises(DataError):
        from_aggregation([[1.0, 1.0]], ["u", "a", "a"])


def test_general_constraints_two_hierarchies_sharing_top():
    c_raw = np.array(
        [
            [1, 0, 0, 0, 0, -1, -1],
            [1, 0, -1, -1, -1, 0, 0],
            [0, 1, -1, -1, 0, 0, 0],
        ],
        dtype=float,
    )
    labels = ["X", "A", "AA", "AB", "B", "C", "D"]
    sys, perm = from_general_constraints(c_raw, labels)
    expected_a = np.array([[0, 0, 1, 1], [0, -1, 1, 1], [-1, -1, 1, 1]], dtype=float)
    np.testing.assert_allclose(sys.A, expected_a, atol=1e-12)
    assert sys.upper_labels == ("X", "A", "AA")
    assert sys.bottom_labels == ("AB", "B", "C", "D")
    assert perm == tuple(range(7))


def test_general_constraints_fixed_point():
    sys0 = from_aggregation(HIER_A, HIER_LABELS)
    sys1, perm = from_general_constraints(sys0.C, HIER_LABELS)
    np.testing.assert_array_equal(sys1.C, sys0.C)
    assert sys1.labels == sys0.labels
    assert perm == tuple(range(7))


def test_general_constraints_duplicate_row_is_rank_deficient():
    c_raw = np.array([[1.0, -1.0, -1.0], [1.0, -1.0, -1.0]])
    with pytest.raises(NumericalError):
        from_general_constraints(c_raw, ["t", "x", "y"])


def test_general_constraints_needs_column_exchange():
    # first column is identically zero, so a pivot must come from elsewhere
    c_raw = np.array([[0.0, 1.0, -1.0]])
    sys, perm = from_general_constraints(c_raw, ["a", "b", "c"])
    assert perm != (0, 1, 2)
    assert sorted(sys.labels) == ["a", "b", "c"]
    # the canonicalized system encodes the same constraint set
    y = np.array([5.0, 2.0, 2.0])  # b == c, a free
    reordered = np.array([y[["a", "b", "c"].index(lbl)] for lbl in sys.labels])
    assert is_coherent(sys, reordered, tol=1e-12)


def test_is_coherent_examples(rng):
    sys = from_aggregation(HIER_A, HIER_LABELS)
    for _ in range(1000):
        b = rng.standard_normal(4)
        assert is_coherent(sys, sys.S @ b, tol=1e-12)
    assert not is_coherent(sys, np.ones(7), tol=1e-6)


def test_is_coherent_detects_unit_norm_perturbation(rng):
    sys = from_aggregation(HIER_A, HIER_LABELS)
    b = rng.standard_normal(4)
    eps = rng.standard_normal(7)
    eps /= np.linalg.norm(eps)
    y = sys.S @ b + eps
    # direct evaluation of the constraint residual
    assert np.abs(sys.C @ y).max() > 1e-6
    assert not is_coherent(sys, y, tol=1e-6)


def test_is_coherent_validates():
    sys = from_aggregation(HIER_A, HIER_LABELS)
    with pytest.raises(DataError):
        is_coherent(sys, np.ones(7), tol=0.0)
    with pytest.raises(DataError):
        is_coherent(sys, np.ones(3), tol=1e-6)


def test_random_system_invariants(rng):
    for _ in range(200):
        sys = random_system(rng)
        assert np.abs(sys.C @ sys.S).max() <= 1e-12
        svals = np.linalg.svd(sys.C, compute_uv=False)
        assert svals.min() > 1e-8 * svals.max()
        np.testing.assert_array_equal(sys.C[:, : sys.n_u], np.eye(sys.n_u))
        np.testing.assert_array_equal(sys.S[sys.n_u :], np.eye(sys.n_b))
        # canonicalization is the identity on systems already in canonical form
        back, perm = from_general_constraints(sys.C, sys.labels)
        assert perm == tuple(range(sys.n))
        np.testing.assert_allclose(back.A, sys.A, atol=1e-12)


def test_read_constraint_file_json_a_form(tmp_path):
    path = tmp_path / "constraints.json"
    path.write_text(
        json.dumps(
            {
                "A": HIER_A.tolist(),
                "upper": HIER_LABELS[:3],
                "bottom": HIER_LABELS[3:],
            }
        )
    )
    sys, perm = read_constraint_file(path)
    np.testing.assert_array_equal(sys.C, HIER_C)
    assert perm == tuple(range(7))


def test_read_constraint_file_json_c_form(tmp_path):
    path = tmp_path / "constraints.json"
    path.write_text(json.dumps({"C": HIER_C.tolist(), "vars": HIER_LABELS}))
    sys, _ = read_constraint_file(path)
    np.testing.assert_array_equal(sys.C, HIER_C)


def test_read_constraint_file_csv(tmp_path):
    path = tmp_path / "constraints.csv"
    lines = [",".join(HIER_LABELS)]
    lines += [",".join(str(v) for v in row) for row in HIER_C]
    path.write_text("\n".join(lines) + "\n")
    sys, _ = read_constraint_file(path)
    np.testing.assert_array_equal(sys.C, HIER_C)


def test_read_constraint_file_missing(tmp_path):
    with pytest.raises(DataError):
        read_constraint_file(tmp_path / "nope.json")


def test_one_by_one_aggregation_builds():
    sys = from_aggregation([[2.0]], ["u", "b"])
    np.testing.assert_array_equal(sys.C, [[1.0, -2.0]])
    np.testing.assert_array_equal(sys.S, [[2.0], [1.0]])


def test_wrong_label_count_names_the_count_expected():
    with pytest.raises(DataError, match=r"^expected 3 labels \(n_u=1, n_b=2\), got 2$"):
        from_aggregation([[1.0, 1.0]], ["u", "a"])


def test_general_constraints_take_a_pivot_exactly_at_the_tolerance():
    """A pivot of magnitude ``pivot_tol`` is a pivot, in the current column and in
    a candidate column."""
    _, perm = from_general_constraints([[0.5, 1.0, 1.0]], ["a", "b", "c"], pivot_tol=0.5)
    assert perm == (0, 1, 2)
    _, perm = from_general_constraints([[0.0, 0.5, 1.0]], ["a", "b", "c"], pivot_tol=0.5)
    assert perm == (1, 0, 2)


def test_general_constraints_exchange_with_the_first_column_holding_a_pivot():
    """Column 0 holds no pivot: it is exchanged with column 1, whose only pivot lies
    in the middle row; each later step finds its pivot one column on."""
    c_raw = np.array([[0, 0, 1, 0, 1], [0, 1, 0, 0, 1], [0, 0, 0, 1, 1]], dtype=float)
    labels = ["a", "b", "c", "d", "e"]
    sys, perm = from_general_constraints(c_raw, labels)
    assert perm == (1, 2, 3, 0, 4)
    assert sys.labels == ("b", "c", "d", "a", "e")
    np.testing.assert_array_equal(sys.A, [[0.0, -1.0]] * 3)


def test_general_constraints_scale_each_pivot_row_to_one():
    sys, perm = from_general_constraints([[2.0, -2.0, -4.0]], ["t", "x", "y"])
    assert perm == (0, 1, 2)
    np.testing.assert_array_equal(sys.A, [[1.0, 2.0]])


def test_general_constraints_pivot_tolerance_is_relative_to_each_row():
    """Each row is scaled by a power of two before elimination: a row far below
    ``pivot_tol`` reads as the same row at unit scale; a zero row is refused."""
    sys, perm = from_general_constraints([[1e-11, -1e-11, -1e-11]], ["t", "x", "y"])
    assert perm == (0, 1, 2)
    np.testing.assert_array_equal(sys.A, [[1.0, 1.0]])
    with pytest.raises(NumericalError, match="rank-deficient"):
        from_general_constraints([[1.0, -1.0, -1.0], [0.0, 0.0, 0.0]], ["t", "x", "y"])


def test_is_coherent_holds_at_the_tolerance():
    sys = from_aggregation([[1.0, 1.0]], ["t", "a", "b"])
    assert is_coherent(sys, np.array([1.5, 1.0, 0.25]), tol=0.25)  # C y = 0.25 exactly


def test_open_input_lifts_the_field_limit_to_what_every_platform_accepts(tmp_path):
    """In the block the csv field limit is 2**31 - 1, the largest value a 32-bit C
    long holds (a larger one raises OverflowError where a long has 32 bits); it is
    restored on exit."""
    (path := tmp_path / "cells.csv").write_text("a\n")
    limit = csv.field_size_limit()
    with open_input(path, "panel"):
        assert csv.field_size_limit() == 2**31 - 1
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("payload", [
    {"A": [[[1.0, 1.0]]], "upper": ["t"], "bottom": ["a", "b"]},
    {"C": [[[1.0, -1.0, -1.0]]], "vars": ["t", "a", "b"]},
], ids=["A", "C"])
def test_read_constraint_file_refuses_a_three_dimensional_matrix(tmp_path, payload):
    (path := tmp_path / "constraints.json").write_text(json.dumps(payload))
    with pytest.raises(DataError, match="must be a numeric rectangular matrix"):
        read_constraint_file(path)
