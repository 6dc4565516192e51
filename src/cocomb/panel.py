"""Multi-expert base-forecast panels: which expert forecasts which variable.

The ``m`` available forecasts (expert j covers ``n_j`` variables, variable i is
covered by ``p_i`` experts, ``m = sum n_j = sum p_i``) are stacked *by-expert*:
expert-major, and within each expert the variables follow the constraint-system
label order. The companion *by-variable* stacking groups the forecasts of each
variable, experts in panel order.

A panel stores this structure as integer arrays:

* ``var_idx[r]`` and ``exp_idx[r]``: the variable and the expert of by-expert
  row r;
* ``bv_order``: the by-expert rows in by-variable order, so ``x[bv_order]``
  restacks a by-expert vector by variable;
* ``var_start``: the n + 1 offsets of each variable's rows within
  ``bv_order``, so variable i owns ``bv_order[var_start[i]:var_start[i + 1]]``.

The paper's dense 0/1 matrices and ``pairs`` are built from these arrays on
every access; none is stored or read by production code (``combiners.gls_pool``
pools from ``var_idx``, the CLI writes from ``var_idx`` and ``exp_idx``). They
are views for the tests and for callers who want the paper's notation:

* ``pairs``: the ``(var_idx[r], exp_idx[r])`` tuples, one per by-expert row;
* ``L_j`` (``selection(j)``, n_j x n): selects expert j's covered variables;
* ``L``  (m x n*p): block-diagonal of the ``L_j``;
* ``K``  (m x n): the stacked ``L_j``, row r is the unit vector of ``var_idx[r]``;
* ``P``  (m x m): by-expert to by-variable permutation, ``P x = x[bv_order]``;
* ``J``  (m x n): ``P K``.

Label-keyed records become by-expert rows here and nowhere else:
``panel_from_pairs`` builds a panel's structure from (series, expert) label
pairs, experts in first-appearance order, and ``fill_cells`` fills its
(m x K) cell matrix from the (k, series, expert, value) columns of a record
table, one matrix column per distinct k in ascending order; a label column
is a ``(labels, codes)`` pair as ``code_labels`` numbers it. ``build_panel``,
``residual_panel`` (k = t) and the CLI's panel (k = horizon) and residual
(k = t) CSV readers all go through these two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintSystem
from .exceptions import DataError


@dataclass(frozen=True, eq=False)
class ForecastPanel:
    """Immutable panel of base forecasts with its (variable, expert) index arrays.

    ``availability[i, j]`` is True when expert j forecasts variable i; ``y_hat``
    holds the m stacked values (by-expert order), all finite.
    """

    labels: tuple[str, ...]
    experts: tuple[str, ...]
    availability: np.ndarray
    y_hat: np.ndarray
    var_idx: np.ndarray = field(init=False, repr=False)
    exp_idx: np.ndarray = field(init=False, repr=False)
    bv_order: np.ndarray = field(init=False, repr=False)
    var_start: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        avail = np.asarray(self.availability, dtype=bool)
        n, p = avail.shape
        if len(self.labels) != n:
            raise DataError("availability rows must match the variable labels")
        if len(self.experts) != p:
            raise DataError("availability columns must match the expert labels")
        if len(set(self.experts)) != p:
            raise DataError("expert labels must be unique")
        p_i = avail.sum(axis=1)
        n_j = avail.sum(axis=0)
        if np.any(p_i < 1):
            missing = [self.labels[i] for i in np.flatnonzero(p_i < 1)]
            raise DataError(f"variables without any forecast: {missing}")
        if np.any(n_j < 1):
            idle = [self.experts[j] for j in np.flatnonzero(n_j < 1)]
            raise DataError(f"experts without any forecast: {idle}")

        exp_idx, var_idx = np.nonzero(avail.T)
        m = var_idx.size
        y_hat = np.asarray(self.y_hat, dtype=float).reshape(-1).copy()
        if y_hat.shape != (m,):
            raise DataError(f"expected {m} stacked values, got {y_hat.shape[0]}")
        bad = np.flatnonzero(~np.isfinite(y_hat))
        if bad.size:
            cells = [(self.labels[var_idx[r]], self.experts[exp_idx[r]]) for r in bad[:5]]
            raise DataError(f"non-finite base forecasts for (variable, expert) {cells}")
        # within one variable the by-expert rows already run in expert order
        bv_order = np.argsort(var_idx, kind="stable")
        var_start = np.concatenate(([0], np.cumsum(p_i)))

        for arr in (avail, y_hat, var_idx, exp_idx, bv_order, var_start):
            arr.setflags(write=False)
        object.__setattr__(self, "availability", avail)
        object.__setattr__(self, "y_hat", y_hat)
        object.__setattr__(self, "var_idx", var_idx)
        object.__setattr__(self, "exp_idx", exp_idx)
        object.__setattr__(self, "bv_order", bv_order)
        object.__setattr__(self, "var_start", var_start)

    # -- sizes ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.availability.shape[0]

    @property
    def p(self) -> int:
        return self.availability.shape[1]

    @property
    def m(self) -> int:
        return self.var_idx.size

    @property
    def n_j(self) -> np.ndarray:
        return self.availability.sum(axis=0)

    @property
    def p_i(self) -> np.ndarray:
        return self.availability.sum(axis=1)

    @property
    def balanced(self) -> bool:
        return bool(self.availability.all())

    # -- views ---------------------------------------------------------------

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(variable, expert) of each by-expert row."""
        return tuple(zip(self.var_idx.tolist(), self.exp_idx.tolist()))

    def selection(self, j: int) -> np.ndarray:
        """L_j: the (n_j x n) selector of expert j's covered variables."""
        return np.eye(self.n)[self.availability[:, j]]

    @property
    def K(self) -> np.ndarray:
        """The (m x n) stacked selector; built on each access."""
        return np.eye(self.n)[self.var_idx]

    @property
    def L(self) -> np.ndarray:
        """The (m x n*p) block-diagonal selector; built on each access."""
        sel = np.zeros((self.m, self.n * self.p))
        sel[np.arange(self.m), self.exp_idx * self.n + self.var_idx] = 1.0
        return sel

    @property
    def P(self) -> np.ndarray:
        """The (m x m) by-expert to by-variable permutation; built on each access."""
        perm = np.zeros((self.m, self.m))
        perm[np.arange(self.m), self.bv_order] = 1.0
        return perm

    @property
    def J(self) -> np.ndarray:
        """The (m x n) by-variable stacked selector ``P K``; built on each access."""
        return self.K[self.bv_order]

    def expert_rows(self, j: int) -> slice:
        """Positions of expert j's forecasts within the by-expert stack."""
        start = int(self.n_j[:j].sum())
        return slice(start, start + int(self.n_j[j]))

    def variable_rows(self, i: int) -> np.ndarray:
        """By-expert positions of the forecasts of variable i, expert order."""
        return self.bv_order[self.var_start[i]:self.var_start[i + 1]]

    def expert_vector(self, j: int) -> np.ndarray:
        return self.y_hat[self.expert_rows(j)]

    def stack(self, values: np.ndarray) -> np.ndarray:
        """Stack an (n x p) value matrix into the by-expert m-vector."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n, self.p):
            raise DataError(f"expected an {self.n}x{self.p} value matrix")
        return values[self.var_idx, self.exp_idx]

    def with_values(self, y_hat: np.ndarray) -> "ForecastPanel":
        """Same panel structure carrying a different stacked value vector."""
        return ForecastPanel(self.labels, self.experts, self.availability, y_hat)


def from_availability(
    availability: np.ndarray,
    sys: ConstraintSystem,
    experts=None,
    values: np.ndarray | None = None,
) -> ForecastPanel:
    """Build a panel from an availability mask (values default to zero)."""
    avail = np.asarray(availability, dtype=bool)
    if avail.ndim != 2 or avail.shape[0] != sys.n:
        raise DataError(f"availability must be {sys.n} x p")
    p = avail.shape[1]
    if experts is None:
        experts = tuple(f"expert{j + 1}" for j in range(p))
    m = int(avail.sum())
    y_hat = np.zeros(m) if values is None else values
    return ForecastPanel(sys.labels, tuple(experts), avail, y_hat)


def panel_from_pairs(pairs, sys: ConstraintSystem, source: str) -> ForecastPanel:
    """Zero-valued panel covering the given (series, expert) label pairs.

    Experts are numbered in order of first appearance; a pair may repeat (once
    per horizon or time index). ``source`` names the input in error messages.
    """
    index = {label: i for i, label in enumerate(sys.labels)}
    experts: dict[str, int] = {}
    cells: set[tuple[int, int]] = set()
    for label, expert in pairs:
        i = index.get(label)
        if i is None:
            raise DataError(f"unknown series {label!r} in {source}")
        cells.add((i, experts.setdefault(expert, len(experts))))
    avail = np.zeros((sys.n, len(experts)), dtype=bool)
    for i, j in cells:
        avail[i, j] = True
    return from_availability(avail, sys, experts=tuple(experts))


def code_labels(column, codes: dict) -> np.ndarray:
    """Int64 code of each label of ``column`` in ``codes`` (label -> code).

    A label not yet in ``codes`` is added with the next code, so codes number
    the labels in order of first appearance across calls sharing ``codes``.
    """
    for label in dict.fromkeys(column):
        codes.setdefault(label, len(codes))
    return np.fromiter(map(codes.__getitem__, column), np.int64, len(column))


def fill_cells(k, series, expert, value, panel: ForecastPanel, source: str, key: str):
    """Fill the (m x K) cell matrix of ``panel`` from the columns of a record table.

    Record r holds the integer ``k[r]``, the labels ``series`` and ``expert``
    and ``value[r]``; a label column is a ``(labels, codes)`` pair naming
    ``labels[codes[r]]``. Returns the K distinct ``k`` in ascending order and
    the matrix with one column per ``k``, rows in by-expert order. Each record
    must name a pair of the panel and a finite value; each cell may appear
    once and every cell must be covered. ``source`` names the input and
    ``key`` the meaning of ``k`` in error messages. The readers parse every
    row before calling this, so rows that do not parse are reported first;
    here the first record, in record order, with an unknown label, a
    non-finite value or a repeated cell, and after those the first missing
    cell.
    """
    (labels, s), (experts, e) = series, expert
    k, value = np.asarray(k, dtype=np.int64), np.asarray(value, dtype=float)
    var = {label: i for i, label in enumerate(panel.labels)}
    exp = {label: j for j, label in enumerate(panel.experts)}
    row_of = np.full((panel.n + 1, panel.p + 1), -1)  # code -1: not in the panel
    row_of[panel.var_idx, panel.exp_idx] = np.arange(panel.m)
    rows = row_of[np.array([var.get(x, -1) for x in labels], dtype=np.int64)[s],
                  np.array([exp.get(x, -1) for x in experts], dtype=np.int64)[e]]
    keys, column = np.unique(k, return_inverse=True)
    cell = rows * len(keys) + column.reshape(-1)
    finite = np.isfinite(value)
    known = rows >= 0
    counts = np.bincount(cell[known], minlength=panel.m * len(keys))
    if not (known.all() and finite.all() and counts.max(initial=0) <= 1):
        # the first record that is unknown, non-finite or repeats an earlier cell
        defective = ~known | ~finite
        order = np.flatnonzero(known)[np.argsort(cell[known], kind="stable")]
        defective[order[1:][cell[order[1:]] == cell[order[:-1]]]] = True
        r = int(np.argmax(defective))
        label, expert_label = labels[s[r]], experts[e[r]]
        if not known[r]:
            if label not in var:
                raise DataError(f"unknown series {label!r} in {source}")
            if expert_label not in exp:
                raise DataError(f"unknown expert {expert_label!r} in {source}")
            raise DataError(
                f"pair ({label!r}, {expert_label!r}) in {source} is not part of the panel")
        defect = "duplicate cell" if finite[r] else f"non-finite value {float(value[r])!r}"
        raise DataError(
            f"{defect} for series {label!r}, expert {expert_label!r}, {key} {int(k[r])} "
            f"in {source}"
        )
    keys = keys.tolist()
    missing = np.argwhere(counts.reshape(panel.m, len(keys)) == 0)
    if missing.size:
        r, c = missing[0]
        first = (panel.labels[panel.var_idx[r]], panel.experts[panel.exp_idx[r]], keys[c])
        raise DataError(
            f"{source} does not cover every (series, expert, {key}) cell: "
            f"{len(missing)} missing, first {first!r}"
        )
    values = np.empty((panel.m, len(keys)))
    values.reshape(-1)[cell] = value
    return keys, values


def _label_column(labels) -> tuple[tuple, np.ndarray]:
    """A sequence of labels as a ``(labels, codes)`` column of ``fill_cells``."""
    codes: dict = {}
    column = code_labels(labels, codes)
    return tuple(codes), column


def build_panel(forecasts, sys: ConstraintSystem) -> ForecastPanel:
    """Assemble a panel from (variable label, expert label, value) triples.

    Expert order is the input order of first appearance; variable order comes
    from the constraint system, which makes the stacking (and hence ``bv_order``)
    deterministic.
    """
    cells = [(str(label), str(expert), value) for label, expert, value in forecasts]
    panel = panel_from_pairs(((label, expert) for label, expert, _ in cells), sys,
                             "forecast list")
    labels, experts, values = zip(*cells)  # not empty: the panel has a forecast
    _, values = fill_cells(np.ones(len(cells), dtype=np.int64), _label_column(labels),
                           _label_column(experts), values, panel, "forecast list", "horizon")
    return panel.with_values(values[:, 0])


def to_by_variable(panel: ForecastPanel) -> np.ndarray:
    """Reorder the stacked base forecasts variable-major: ``P y_hat``."""
    return panel.y_hat[panel.bv_order]


def residual_panel(panel: ForecastPanel, actuals: np.ndarray, fitted) -> np.ndarray:
    """In-sample forecast errors, one (m,) column per time index.

    ``actuals`` is (T x n) in label order; ``fitted`` is an iterable of
    (t, variable label, expert label, value) with t in 0..T-1.  Every
    (variable, expert) pair in the panel must be observed at every t.
    The entries are actual minus fitted.
    """
    actuals = np.asarray(actuals, dtype=float)
    if actuals.ndim != 2 or actuals.shape[1] != panel.n:
        raise DataError(f"actuals must be T x {panel.n}")
    T = actuals.shape[0]
    if T < 2:
        raise DataError("need at least two residual observations")
    records = [(int(t), str(label), str(expert), value) for t, label, expert, value in fitted]
    t, labels, experts, values = zip(*records) if records else ((),) * 4
    times, fit = fill_cells(t, _label_column(labels), _label_column(experts), values, panel,
                            "fitted-value list", "t")
    if times != list(range(T)):
        raise DataError(f"fitted values must cover exactly the time indices 0..{T - 1}")
    return actuals.T[panel.var_idx] - fit


def residuals_from_arrays(
    panel: ForecastPanel, actuals: np.ndarray, forecasts: np.ndarray
) -> np.ndarray:
    """Residual matrix from dense arrays: ``forecasts`` is (p x T x n).

    Fast path for simulated data; bit-for-bit identical to ``residual_panel``
    on the same values.
    """
    actuals = np.asarray(actuals, dtype=float)
    forecasts = np.asarray(forecasts, dtype=float)
    return actuals.T[panel.var_idx] - forecasts[panel.exp_idx, :, panel.var_idx]
