"""``_linalg.cho_inverse``: the inverse from a Cholesky factor, by LAPACK dpotri."""

import numpy as np
import pytest

from cocomb._linalg import cho_factor_spd, cho_inverse, cho_solve
from cocomb.exceptions import NumericalError
from conftest import random_spd


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
