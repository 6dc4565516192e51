"""Small dense linear-algebra helpers built on Cholesky factorizations.

All solvers in this package go through these helpers and solve SPD systems
through their factors; ``cho_inverse`` forms an explicit inverse only where
one is wanted: the pooled covariance, and GLS blocks of distinct variables.
Each helper imports ``scipy.linalg`` when called, not with the package: that
import costs more than the rest of ``import cocomb``, and ``evaluate`` never factors.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericalError


def cho_factor_spd(a: np.ndarray, what: str = "matrix"):
    """Cholesky-factor a symmetric positive definite matrix.

    Raises NumericalError (not scipy's LinAlgError) so callers can map the
    failure to a structured exit code.
    """
    import scipy.linalg

    try:
        return scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not symmetric positive definite") from exc


def cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` from ``cho_factor_spd(a)``, by LAPACK ``dpotrs`` directly.

    ``scipy.linalg.cho_solve`` calls the same routine behind ~20 us of
    argument checks, which dominate the small solves of the block patterns.
    """
    from scipy.linalg import lapack

    x, info = lapack.dpotrs(factor[0], b, lower=factor[1])
    if info != 0:
        raise NumericalError(f"Cholesky solve failed (LAPACK dpotrs info {info})")
    return x


def cho_inverse(factor) -> np.ndarray:
    """``a^-1``, exactly symmetric, from ``cho_factor_spd(a)`` by LAPACK ``dpotri``:
    ⅔n³ flops, against 2n³ for a solve against the identity."""
    from scipy.linalg import lapack

    inv, info = lapack.dpotri(factor[0], lower=factor[1])
    if info != 0:
        raise NumericalError(f"Cholesky inverse failed (LAPACK dpotri info {info})")
    tri = inv if factor[1] else inv.T  # dpotri filled tri's lower triangle: mirror it in place
    for j in range(inv.shape[0] - 1):
        tri[j, j + 1:] = tri[j + 1:, j]
    return inv.T  # equal to inv, and C-ordered: dpotri returns Fortran order


def symmetrize(a: np.ndarray) -> np.ndarray:
    """``(a + a') / 2`` for a matrix or each matrix of a stack on the last two axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def pooled_covariance(precision: np.ndarray) -> np.ndarray:
    """The symmetric inverse of a pooled GLS precision, through its Cholesky factor."""
    return cho_inverse(cho_factor_spd(symmetrize(precision), "combined-forecast precision"))
