"""Linearly constrained multiple time series: zero-constrained and structural forms.

A system of ``n`` variables subject to ``n_u`` independent linear constraints is
represented by the triple of matrices

* ``C`` (n_u x n): zero-constraints matrix, ``C y = 0`` for every coherent ``y``,
  stored in canonical form ``C = [I_{n_u}  -A]``;
* ``A`` (n_u x n_b): linear combination matrix mapping the ``n_b`` free (bottom)
  variables into the ``n_u`` constrained (upper) ones;
* ``S`` (n x n_b): structural matrix ``S = [A; I_{n_b}]`` with ``y = S b``.

Variables are ordered upper block first, then bottom block, and every object in
the package is keyed on these labels.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import DataError, NumericalError

PIVOT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Immutable description of the linear constraints on a variable vector.

    Attributes
    ----------
    A : (n_u, n_b) array
        Linear combination matrix; ``upper = A @ bottom``.
    labels : tuple of str
        Variable names, upper block first, then bottom block.
    C : (n_u, n) array
        Canonical zero-constraints matrix ``[I  -A]``.
    S : (n, n_b) array
        Structural matrix ``[A; I]``.
    """

    A: np.ndarray
    labels: tuple[str, ...]
    C: np.ndarray = field(init=False, repr=False)
    S: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        if a.size == 0:
            a = a.reshape(0, len(self.labels))
        if not np.all(np.isfinite(a)):
            raise DataError("combination matrix contains non-finite entries")
        n_u, n_b = a.shape
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != n_u + n_b:
            raise DataError(
                f"expected {n_u + n_b} labels (n_u={n_u}, n_b={n_b}), got {len(labels)}"
            )
        if len(set(labels)) != len(labels):
            raise DataError("variable labels must be unique")
        c = np.hstack([np.eye(n_u), -a])
        s = np.vstack([a, np.eye(n_b)])
        for arr in (a, c, s):
            arr.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "S", s)

    @property
    def n(self) -> int:
        return self.C.shape[1]

    @property
    def n_u(self) -> int:
        return self.A.shape[0]

    @property
    def n_b(self) -> int:
        return self.A.shape[1]

    @property
    def upper_labels(self) -> tuple[str, ...]:
        return self.labels[: self.n_u]

    @property
    def bottom_labels(self) -> tuple[str, ...]:
        return self.labels[self.n_u:]


def from_aggregation(A: np.ndarray, labels) -> ConstraintSystem:
    """Build a system from an aggregation matrix mapping bottom to upper variables.

    ``labels`` lists the upper variables first, then the bottom ones. An empty
    (0 x n_b) matrix yields an unconstrained system with ``S = I``.
    """
    return ConstraintSystem(A=np.asarray(A, dtype=float), labels=tuple(labels))


def from_general_constraints(
    C_raw: np.ndarray, labels, pivot_tol: float = PIVOT_TOL
) -> tuple[ConstraintSystem, tuple[int, ...]]:
    """Canonicalize a general full-row-rank zero-constraints matrix.

    Gauss-Jordan row reduction with partial pivoting brings ``C_raw`` to the
    form ``[I  -A]``. Each row is first scaled by an exact power of two that
    puts its largest magnitude in [1, 2), so ``pivot_tol`` is relative to each
    row's largest entry, to within a factor of 2; a zero row stays zero and is
    refused. Columns are exchanged only when the current column holds no pivot
    of magnitude >= ``pivot_tol``; any such exchange reorders the variables and
    is reported, never applied silently.

    Returns the induced system together with the applied column permutation
    ``perm`` (``new_labels[k] == labels[perm[k]]``).
    """
    r = np.atleast_2d(np.asarray(C_raw, dtype=float))
    n_u, n = r.shape
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise DataError(f"expected {n} labels, got {len(labels)}")
    if not np.all(np.isfinite(r)):
        raise DataError("constraint matrix contains non-finite entries")
    if n_u >= n:
        raise NumericalError("constraints must leave at least one free variable")
    scale = np.abs(r).max(axis=1, initial=0.0)
    r = np.ldexp(r, 1 - np.frexp(scale)[1][:, None])

    perm = list(range(n))
    for k in range(n_u):
        col = k
        piv = k + int(np.argmax(np.abs(r[k:, col])))
        if abs(r[piv, col]) < pivot_tol:
            for cand in range(k + 1, n):
                piv_c = k + int(np.argmax(np.abs(r[k:, cand])))
                if abs(r[piv_c, cand]) >= pivot_tol:
                    r[:, [col, cand]] = r[:, [cand, col]]
                    perm[col], perm[cand] = perm[cand], perm[col]
                    piv = piv_c
                    break
            else:
                raise NumericalError(
                    "rank-deficient constraints: redundant or conflicting rows"
                )
        if piv != k:
            r[[k, piv]] = r[[piv, k]]
        r[k] = r[k] / r[k, k]
        for other in range(n_u):
            if other != k and r[other, k] != 0.0:
                r[other] = r[other] - r[other, k] * r[k]

    a = -r[:, n_u:]
    new_labels = tuple(labels[p] for p in perm)
    return ConstraintSystem(A=a, labels=new_labels), tuple(perm)


def is_coherent(sys: ConstraintSystem, y: np.ndarray, tol: float) -> bool:
    """True iff ``max |C y| <= tol``."""
    if tol <= 0:
        raise DataError("tolerance must be positive")
    y = np.asarray(y, dtype=float)
    if y.shape != (sys.n,):
        raise DataError(f"expected a vector of length {sys.n}, got shape {y.shape}")
    if sys.n_u == 0:
        return True
    return float(np.max(np.abs(sys.C @ y))) <= tol


@contextmanager
def open_input(path, what: str, kind: str = "CSV"):
    """Text handle on the input file ``path``: UTF-8, a leading byte-order mark skipped.

    A missing file raises ``DataError``, and so does a ``csv.Error``,
    ``OSError`` or ``UnicodeDecodeError`` raised in the block, each naming
    ``what`` and ``path`` (``kind`` is the file's noun in "cannot read panel
    CSV ..."). The csv module's field limit, 131072 characters by default, is
    lifted in the block and restored on exit: numpy's tokenizer, which reads
    the label-keyed CSVs first, has no such limit, so a long field is judged
    on its merits on every path.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    old = csv.field_size_limit(2**31 - 1)  # a C long on every platform; sys.maxsize is not
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            yield fh
    except csv.Error as exc:  # a NUL byte, up to Python 3.10
        raise DataError(f"{what} CSV {path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or bytes that are not UTF-8
        raise DataError(f"cannot read {what} {kind} {path}: {exc}") from None
    finally:
        csv.field_size_limit(old)


def read_constraint_file(path) -> tuple[ConstraintSystem, tuple[int, ...]]:
    """Load a constraint system from JSON or CSV.

    JSON accepts either ``{"A": [[...]], "upper": [...], "bottom": [...]}`` or
    ``{"C": [[...]], "vars": [...]}``, labels as lists of strings, each
    stripped of surrounding whitespace like every CSV label. CSV holds a
    header row of variable names followed by one row of coefficients per
    constraint (general C form).
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        with open_input(path, "constraint", "file") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise DataError(f"constraint JSON in {path} must be an object")

        def matrix(key):
            try:
                out = np.array(payload[key], dtype=float)
                if out.ndim <= 2:
                    return out
            except (TypeError, ValueError):
                pass
            raise DataError(f"'{key}' in constraint JSON must be a numeric rectangular matrix")

        def names(key):
            if isinstance(payload[key], list) and all(isinstance(x, str) for x in payload[key]):
                return [x.strip() for x in payload[key]]
            raise DataError(f"'{key}' in constraint JSON must be a list of strings")

        if "A" in payload:
            if "upper" not in payload or "bottom" not in payload:
                raise DataError("A-form JSON requires 'upper' and 'bottom' lists")
            sys = from_aggregation(matrix("A"), names("upper") + names("bottom"))
            return sys, tuple(range(sys.n))
        if "C" in payload:
            if "vars" not in payload:
                raise DataError("C-form JSON requires a 'vars' list")
            return from_general_constraints(matrix("C"), names("vars"))
        raise DataError("constraint JSON must provide either 'A' or 'C'")

    with open_input(path, "constraint", "file") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise DataError("constraint CSV needs a header row and at least one constraint")
    names = [c.strip() for c in rows[0]]
    if any(len(row) != len(names) for row in rows[1:]):
        raise DataError("constraint CSV rows do not match the header length")
    try:
        c_raw = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise DataError(f"non-numeric entry in constraint CSV: {exc}") from exc
    return from_general_constraints(c_raw, names)
