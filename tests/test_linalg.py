"""``_linalg``: the Cholesky factor by LAPACK dpotrf and the inverse from it by dpotri."""

import numpy as np
import pytest
import scipy.linalg

from cocomb._linalg import cho_factor_spd, cho_inverse, cho_solve
from cocomb.exceptions import NumericalError
from conftest import fresh_python, random_spd


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 7, 28, 300])
def test_cho_factor_spd_is_scipys_cho_factor(rng, n, order):
    # the same array, upper triangle (a's own, untouched) included
    a = np.asarray(random_spd(rng, n), order=order)
    kept = a.copy()
    factor = cho_factor_spd(a)
    expected = scipy.linalg.cho_factor(a, lower=True, check_finite=False)[0]
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


def test_cho_inverse_refuses_a_zero_pivot():
    with pytest.raises(NumericalError, match="dpotri info 2"):
        cho_inverse(np.array([[1.0, 0.0], [0.5, 0.0]]))


def test_the_lapack_extension_is_shared_with_scipy_linalg_in_either_import_order():
    # cocomb first: one _flapack in sys.modules, which scipy.linalg then uses
    # (its cho_factor gives cocomb's factor bit for bit); scipy.linalg first:
    # _lapack() returns SciPy's own module
    out = fresh_python("""if True:
        import sys
        import numpy as np
        from cocomb._linalg import _lapack, cho_factor_spd
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 9))
        a = x.T @ x + np.eye(9)
        factor = cho_factor_spd(a)
        print("scipy.linalg" in sys.modules)
        import scipy.linalg
        print(*[name for name, module in sys.modules.items()
                if getattr(module, "__name__", "").endswith("_flapack")], sep=",")
        print(scipy.linalg.lapack.dpotrf is _lapack().dpotrf)
        print(np.array_equal(scipy.linalg.cho_factor(a, lower=True, check_finite=False)[0],
                             factor))
    """).split()
    assert out == ["False", "scipy.linalg._flapack", "True", "True"]
    out = fresh_python("import scipy.linalg, sys; from cocomb._linalg import _lapack;"
                       " print(_lapack() is sys.modules['scipy.linalg._flapack']"
                       " is scipy.linalg._flapack)").split()
    assert out == ["True"]
