"""Small dense linear-algebra helpers built on Cholesky factorizations.

All solvers in this package go through these helpers and solve SPD systems
through their factors; ``cho_inverse`` forms an explicit inverse only where
one is wanted: the pooled covariance, and GLS blocks of distinct variables.
The helpers call LAPACK's ``dpotrf``/``dpotrs``/``dpotri`` directly: scipy's
wrappers spend more on argument checks than the small factorizations of the
simulation take. Those routines live in one extension module,
``scipy.linalg._flapack``, which ``_lapack`` loads on the first call, not by
``import cocomb`` (``evaluate`` never factors), and alone: the ``scipy.linalg``
package around it takes about 15 times the time and 8 times the memory to
import. Each routine is still looked up on the module at call time.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .exceptions import NumericalError


@cache
def _lapack():
    """``scipy.linalg._flapack``, loaded by the first call without ``scipy.linalg``.

    Only the top-level ``scipy`` package is imported (on Windows it sets up
    the DLL paths the extension needs). The extension is found by the import
    system's own finder in ``scipy/linalg`` and registered in ``sys.modules``,
    so a later ``import scipy.linalg`` reuses it; if ``scipy.linalg`` was
    imported first, its module is returned. One wart: a child module already
    in ``sys.modules`` is not set as an attribute of the package, so
    ``scipy.linalg._flapack`` stays unset after a later ``import
    scipy.linalg``. SciPy reaches the module only by ``from scipy.linalg
    import _flapack`` (in ``scipy/linalg/lapack.py``), which falls back to
    ``sys.modules``, so ``scipy.linalg.lapack`` and ``cho_factor`` still work.
    Raises ImportError, naming the module, if the SciPy installed has none.
    """
    import os
    import sys
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
    from importlib.util import module_from_spec

    import scipy

    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        if (spec := finder.find_spec(name)) is None:
            raise ImportError(f"SciPy's LAPACK extension {name} was not found", name=name)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module  # registered once loaded, as a failed load leaves no entry
    return sys.modules[name]


def cho_factor_spd(a: np.ndarray, what: str = "matrix"):
    """Cholesky-factor a symmetric positive definite matrix by LAPACK ``dpotrf``.

    Returns the lower factor, the array of ``scipy.linalg.cho_factor(a,
    lower=True, check_finite=False)[0]``, with ``a``'s upper triangle left in
    place; ``a`` itself is not modified. Raises NumericalError, naming
    ``what``, so callers can map the failure to a structured exit code.
    """
    c, info = _lapack().dpotrf(a, lower=1, clean=0)
    if info != 0:
        raise NumericalError(f"{what} is not symmetric positive definite")
    return c


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` from ``cho_factor_spd(a)``, by LAPACK ``dpotrs`` directly.

    ``scipy.linalg.cho_solve`` calls the same routine behind ~20 us of
    argument checks, which dominate the small solves of the block patterns.
    """
    x, info = _lapack().dpotrs(factor, b, lower=1)
    if info != 0:
        raise NumericalError(f"Cholesky solve failed (LAPACK dpotrs info {info})")
    return x


def cho_inverse(factor: np.ndarray) -> np.ndarray:
    """``a^-1``, exactly symmetric, from ``cho_factor_spd(a)`` by LAPACK ``dpotri``:
    ⅔n³ flops, against 2n³ for a solve against the identity."""
    inv, info = _lapack().dpotri(factor, lower=1)
    if info != 0:
        raise NumericalError(f"Cholesky inverse failed (LAPACK dpotri info {info})")
    for j in range(inv.shape[0] - 1):  # dpotri filled the lower triangle: mirror it in place
        inv[j, j + 1:] = inv[j + 1:, j]
    return inv.T  # equal to inv, and C-ordered: dpotri returns Fortran order


def symmetrize(a: np.ndarray) -> np.ndarray:
    """``(a + a') / 2`` for a matrix or each matrix of a stack on the last two axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def pooled_covariance(precision: np.ndarray) -> np.ndarray:
    """The symmetric inverse of a pooled GLS precision, through its Cholesky factor."""
    return cho_inverse(cho_factor_spd(symmetrize(precision), "combined-forecast precision"))
