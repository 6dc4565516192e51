"""Small dense linear-algebra helpers built on Cholesky factorizations.

All solvers in this package go through these helpers so that symmetric
positive definite systems are never solved via explicit inverses; the one
inverse, ``pooled_covariance``, is an output.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .exceptions import NumericalError


def cho_factor_spd(a: np.ndarray, what: str = "matrix"):
    """Cholesky-factor a symmetric positive definite matrix.

    Raises NumericalError (not scipy's LinAlgError) so callers can map the
    failure to a structured exit code.
    """
    try:
        return scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not symmetric positive definite") from exc


def cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` from ``cho_factor_spd(a)``, by LAPACK ``dpotrs`` directly.

    ``scipy.linalg.cho_solve`` calls the same routine behind ~20 us of
    argument checks, which dominate the small solves of the block patterns.
    """
    x, info = lapack.dpotrs(factor[0], b, lower=factor[1])
    if info != 0:
        raise NumericalError(f"Cholesky solve failed (LAPACK dpotrs info {info})")
    return x


def symmetrize(a: np.ndarray) -> np.ndarray:
    """``(a + a') / 2`` for a matrix or each matrix of a stack on the last two axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def pooled_covariance(precision: np.ndarray) -> np.ndarray:
    """The symmetric inverse of a pooled GLS precision, through its Cholesky factor."""
    factor = cho_factor_spd(symmetrize(precision), "combined-forecast precision")
    return symmetrize(cho_solve(factor, np.eye(precision.shape[0])))
