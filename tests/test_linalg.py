"""``_linalg``: the Cholesky factor by LAPACK dpotrf and the inverse from it by dpotri."""

import numpy as np
import pytest
import scipy.linalg

from cocomb._linalg import cho_factor_spd, cho_inverse, cho_solve
from cocomb.exceptions import NumericalError
from conftest import random_spd


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 7, 28, 300])
def test_cho_factor_spd_is_scipys_cho_factor(rng, n, order):
    # the same array, upper triangle (a's own, untouched) included
    a = np.asarray(random_spd(rng, n), order=order)
    kept = a.copy()
    factor, lower = cho_factor_spd(a)
    expected, expected_lower = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    assert lower is expected_lower is True
    np.testing.assert_array_equal(factor, expected)
    np.testing.assert_array_equal(a, kept)


def test_cho_factor_spd_names_the_matrix_it_refuses():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    kept = a.copy()
    with pytest.raises(NumericalError, match="^pooled precision is not symmetric positive"):
        cho_factor_spd(a, "pooled precision")
    np.testing.assert_array_equal(a, kept)


@pytest.mark.parametrize("n", [1, 2, 7, 28, 373])
def test_cho_inverse_matches_the_solve_against_the_identity(rng, n):
    factor = cho_factor_spd(random_spd(rng, n))
    inv, ref = cho_inverse(factor), cho_solve(factor, np.eye(n))
    assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max()
    np.testing.assert_array_equal(inv, inv.T)


def test_cho_inverse_of_an_upper_factor(rng):
    a = random_spd(rng, 7)
    inv = cho_inverse((np.linalg.cholesky(a).T.copy(), False))
    np.testing.assert_array_equal(inv, inv.T)
    assert np.abs(inv @ a - np.eye(7)).max() <= 1e-13


def test_cho_inverse_refuses_a_zero_pivot():
    with pytest.raises(NumericalError, match="dpotri info 2"):
        cho_inverse((np.array([[1.0, 0.0], [0.5, 0.0]]), True))
