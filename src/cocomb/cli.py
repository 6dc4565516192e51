"""Command-line front end: combine, reconcile, simulate and evaluate.

Every run writes all its outputs or none, in UTF-8 whatever the locale, among
them ``<output>.manifest.json`` recording the command, every option as parsed
(read from the click context) and the library version, so reruns from the
same inputs are byte-identical. ``_atomic_file`` streams each output into a
temp file in the nearest existing directory above its path; once the command
has returned, ``main`` alone refuses a path that is a directory or that two
outputs name (one inside the other too), makes the directories and renames
every file into place. So a refused run creates no directory. Each existing
target is first set aside beside its temp file: if a rename fails, the files
renamed in are removed and the set-aside ones put back, and on success the
set-aside ones are deleted.
``_write_table`` writes every table: labels quoted once by ``csv.writer`` and
``%``-escaped, one ``%.17g`` slot per value (17 digits round-trip), and one
``template % values`` per row.

Every label-keyed CSV (panel, residual, actuals, forecasts) goes through one
reader, ``_read_columns``: it parses ``_CHUNK_ROWS`` rows at a time and turns
each chunk into columns (integer keys, float values, labels coded in order of
first appearance), so no row outlives its chunk as a Python object. Chunks
come from ``np.loadtxt``'s C tokenizer, whose number columns are typed in a
plain-ASCII file and otherwise cast by ``int`` and ``float``; a file it
refuses anywhere is read again from the top by ``csv.DictReader``, which
alone words every input error. The panel and residual columns go to
``panel.panel_from_pairs`` and ``panel.fill_cells``, the one place that maps
labels to by-expert rows. A panel CSV is one zero-valued panel (its
availability, shared by every horizon) and one m x H forecast matrix ``Y``.
``--cov`` names a pattern of ``covariance.ESTIMATORS`` through
``COV_CHOICES``, and ``reconcile`` hands its method to ``coherent.fit``,
which the simulation shares. The weights depend only on the availability and
the error covariance, so ``reconcile`` and ``combine`` fit once and apply
once, ``Psi' Y`` (``combine``: ``Omega`` or ``WeightScheme.matrix`` as
``Psi``).

``evaluate`` reads each evaluation CSV through ``_read_eval_csv`` into one
array with sorted labels and a last axis over the sorted (horizon, q) keys,
computes each loss array once, and runs one batched DM test per loss and
horizon row over every unordered method pair and series: swapping the pair
negates the statistic and keeps the p-value.

Exit codes: 0 success, 2 bad arguments or an output path the OS refuses, 3
data/schema error, 4 numerical failure (non-SPD covariance, rank deficiency).
Errors, and warnings of a successful run (``"code": "warning"``), go to stderr
as JSON lines.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__
from .coherent import FORMULATIONS, fit
from .combiners import SINGLE_TASK_SCHEMES, combine_multi_task, single_task_weights
from .constraints import open_input, read_constraint_file
from .covariance import ESTIMATORS
from .exceptions import CocombError, DataError, NumericalError
from .metrics import LOSSES, accuracy, dm_test
from .panel import code_labels, fill_cells, panel_from_pairs
from .simulation import SIMULATION_METHODS, SimulationConfig, run_experiment

# --cov flag -> covariance pattern
COV_CHOICES = {
    "sample": "sample",
    "shrink": "shrunk",
    "bd-expert": "bd_expert",
    "bd-expert-shrink": "bd_expert_shrunk",
    "bd-variable": "bd_variable",
    "bd-variable-shrink": "bd_variable_shrunk",
    "diag": "diagonal",
}

# every --output, --emit-* and --dm-output: an existing directory there exits 2
_OUTPUT_PATH = click.Path(dir_okay=False, path_type=Path)


def _dashed(names) -> list[str]:
    """Library names (``ow_var``) as the command line spells them (``ow-var``)."""
    return [name.replace("_", "-") for name in names]


class _OutputRefused(CocombError):  # an output path the OS refuses: exit 2
    code = "output"


@contextmanager
def _atomic_file(path: Path):
    """UTF-8 handle on a temp file in the nearest existing directory above ``path``,
    staged as ``(tmp, path)`` in the command's ``obj`` for ``main`` to rename."""
    path = Path(path)
    try:  # an existing regular file above path is refused here
        fd, tmp = tempfile.mkstemp(dir=next(p for p in path.parents if p.exists()),
                                   prefix=path.name, suffix=".tmp")
    except OSError as exc:
        raise _OutputRefused(f"cannot write {path}: {exc.strerror or exc}") from None
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        click.get_current_context().obj.append((tmp, path))
        yield fh


def _fields(*fields) -> str:
    """``fields`` as ``csv.writer`` writes them mid-row (a lone "" gets quotes), ``%``-escaped."""
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerow([*fields, ""])
    return buf.getvalue()[:-2].replace("%", "%%")


def _write_table(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and each ``(template, values)`` row as ``template % values``."""
    with _atomic_file(path) as fh:
        fh.write(_fields(*header) % () + "\n")
        fh.writelines(template % values for template, values in rows)


def _write_manifest(**resolved) -> None:
    """Manifest of the running command; ``resolved`` overrides parsed options."""
    ctx = click.get_current_context()
    options = {**ctx.params, **resolved}
    manifest = {
        "command": ctx.info_name,
        "options": {k: (str(v) if isinstance(v, Path) else v) for k, v in options.items()},
        "version": __version__,
    }
    with _atomic_file(Path(str(options["output"]) + ".manifest.json")) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


# -- input readers -------------------------------------------------------------


# rows per chunk on both paths (np.loadtxt's, and csv.DictReader's, which alone
# words input errors): bounds what one chunk holds as Python objects
_CHUNK_ROWS = 4096


def _read_columns(path: Path, what: str, ints, labels, bad, defaults=None):
    """Label-keyed CSV -> (int64 array per ``ints`` column, float values, label columns).

    Each label column is a ``(labels, codes)`` pair: the stripped labels in
    order of first appearance and the int64 code of each row. A missing or
    empty cell of an ``ints`` column with an entry in ``defaults`` reads as
    that default; the other named columns and ``value`` are required. Rows
    are read under ``csv.DictReader``'s rules: blank lines are skipped, extra
    fields ignored, a repeated column name means its last column, and a short
    row is an error. A cell that does not parse raises
    ``DataError(bad(row, column))``, ``row`` as ``DictReader`` gives it.
    Every row parses before a label or value is checked, so the defect a file
    reports is, in this order: the first row that does not parse, then (in
    ``panel.fill_cells``) the first record with an unknown label, a
    non-finite value or a repeated cell, then the first missing cell.

    ``_numpy_chunks`` reads the rows after the header with ``np.loadtxt``'s C
    tokenizer, ``_CHUNK_ROWS`` at a time. Where it refuses anything (a short
    row, an empty cell that takes a default, a number ``int`` or ``float``
    refuses, an int beyond int64), the whole file is read again from the top
    by ``_csv_chunks``, ``csv.DictReader`` row by row: the reference reader,
    and the only one that names a defect. Both read the handle of
    ``open_input``, so a long field is judged on its merits on either.
    """
    path, defaults = Path(path), defaults or {}
    required = {*ints, *labels, "value"} - defaults.keys()
    parsed = [(name, int, np.int64) for name in ints] + [("value", float, np.float64)]
    with open_input(path, what) as fh:
        header = next(csv.reader(fh), None)
        if header is None or not required.issubset(header):
            raise DataError(f"{what} CSV {path} must have columns {sorted(required)}")
        try:
            return _collect(_numpy_chunks(fh, header, parsed, labels, defaults,
                                          _plain_ascii(path)), parsed, labels)
        except (ValueError, OverflowError, Warning):  # DictReader reads it or names why
            return _collect(_csv_chunks(fh, path, what, parsed, labels, bad, defaults),
                            parsed, labels)


def _collect(chunks, parsed, labels):
    """Join per-chunk (number columns, label cells) into ``_read_columns``' result."""
    numbers = [[np.empty(0, dtype)] for _, _, dtype in parsed]
    codes = [({}, [np.empty(0, np.int64)]) for _ in labels]
    for chunk, cells in chunks:
        for part, column in zip(numbers, chunk):
            part.append(column)
        for (code, part), column in zip(codes, cells):
            part.append(code_labels(list(map(str.strip, column)), code))
    *ints, values = map(np.concatenate, numbers)
    return ints, values, [(tuple(code), np.concatenate(part)) for code, part in codes]


def _plain_ascii(path: Path) -> bool:
    """Whether ``path`` is ASCII without U+001C-U+001F: numbers numpy parses as Python does.

    Outside ASCII, numpy's integer parser takes digit signs such as U+2460
    that ``int`` refuses; within it, numpy skips the separators U+001C-U+001F
    as whitespace where ``int`` and ``float`` refuse them.
    """
    with path.open("rb") as raw:
        return all(piece.isascii() and not any(map(piece.__contains__, b"\x1c\x1d\x1e\x1f"))
                   for piece in iter(lambda: raw.read(io.DEFAULT_BUFFER_SIZE), b""))


def _numpy_chunks(fh, header, parsed, labels, defaults, typed):
    """Yield (number columns, label cells) per ``np.loadtxt`` chunk of the rows left in ``fh``.

    With ``typed``, only the last column of each parsed name is read as its
    dtype by numpy's own number parser (a repeated name means its last
    column). Otherwise every column is read as ``object`` and each number
    column is cast with ``astype``, which calls ``int`` and ``float``.
    ``usecols`` over the whole header keeps ``DictReader``'s field rules.
    loadtxt pulls lines from the file's iterator, so each call resumes where
    the last one stopped, quoted commas, newlines and doubled quotes included.
    Raises ``ValueError``, ``OverflowError`` or the ``Warning`` where a row or
    a cell is refused.
    """
    at = {name: i for i, name in enumerate(header)}
    numbers = {at[name]: dtype for name, _, dtype in parsed if typed and name in at}
    dtype = np.dtype([(f"f{i}", numbers.get(i, object)) for i in range(len(header))])
    while True:
        with warnings.catch_warnings():
            # any notice is a refusal (numpy 1.24 reads "1.0" as an int with a
            # DeprecationWarning) but the "contained no data" of a blank line or the end
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", ".*contained no data")
            chunk = np.loadtxt(fh, dtype, comments=None, delimiter=",", quotechar='"',
                               usecols=range(len(header)), max_rows=_CHUNK_ROWS, ndmin=1)
        if not chunk.size:  # the end of input: never the warning, which blank lines share
            return
        yield ([chunk[f"f{at[name]}"].astype(dtype) if name in at else
                np.full(chunk.size, defaults[name], dtype) for name, _, dtype in parsed],
               [chunk[f"f{at[name]}"].tolist() for name in labels])


def _csv_chunks(fh, path, what, parsed, labels, bad, defaults):
    """Yield (number columns, label cells) per ``_CHUNK_ROWS`` ``csv.DictReader`` rows of ``fh``,
    read from the top: the first defective row raises its ``DataError``."""
    fh.seek(0)
    reader = csv.DictReader(fh)

    def parse_row(row):  # numbers, then labels
        if None in row.values():
            raise DataError(f"{what} CSV {path} line {reader.line_num} has too few fields")
        numbers = []
        for name, parse, dtype in parsed:
            try:
                numbers.append(dtype(parse(
                    (row.get(name) or defaults[name]) if name in defaults else row[name])))
            except (ValueError, OverflowError):
                raise DataError(bad(row, name)) from None
        return (*numbers, *(row[name] for name in labels))

    # zip takes a row from the reader only while the range lasts
    while rows := [parse_row(row) for _, row in zip(range(_CHUNK_ROWS), reader)]:
        columns = list(zip(*rows))
        yield ([np.array(column, dtype) for column, (_, _, dtype) in zip(columns, parsed)],
               columns[len(parsed):])


def _cell_columns(path: Path, what: str, key: str, default=None):
    """(k, series, expert, value) columns of a label-keyed CSV; column ``key`` holds k."""
    def bad(row, column):
        if column == "value":
            return f"non-numeric {what} value {row['value']!r}"
        return f"bad {column} {row.get(column)!r} in {what} CSV"

    (k,), value, (series, expert) = _read_columns(
        path, what, (key,), ("series", "expert"), bad,
        {} if default is None else {key: default})
    return k, series, expert, value


def _read_panel_csv(path: Path, sys_):
    """Panel CSV (series,expert[,horizon],value) -> (panel, horizons, y_hat).

    The panel is zero-valued, experts in first-appearance order over the whole
    file; ``y_hat`` is m x H, one column per ascending horizon, and every
    horizon covers every (series, expert) pair of the panel.
    """
    k, series, expert, value = _cell_columns(path, "panel", "horizon", default=1)
    if not value.size:
        raise DataError(f"panel CSV {path} holds no forecasts")
    (labels, s), (experts, e) = series, expert
    _, first = np.unique(s * len(experts) + e, return_index=True)
    pairs = ((labels[s[r]], experts[e[r]]) for r in np.sort(first).tolist())
    panel = panel_from_pairs(pairs, sys_, "panel CSV")
    horizons, y_hat = fill_cells(k, series, expert, value, panel, "panel CSV", "horizon")
    return panel, horizons, y_hat


def _read_residual_csv(path: Path, panel) -> np.ndarray:
    """Residual CSV (t,series,expert,value) -> m x T matrix in panel order, t ascending."""
    return fill_cells(*_cell_columns(path, "residual", "t"), panel, "residual CSV", "t")[1]


def _write_forecasts(path: Path, horizons: list[int], y: np.ndarray, labels) -> None:
    """Write the n x H forecasts ``y``, one n-line template per horizon (a lone 1: no column)."""
    single, quoted = horizons == [1], [_fields(label) for label in labels]
    _write_table(path, ["series", "value"] if single else ["series", "horizon", "value"], (
        ("".join(f"{q},%.17g\n" if single else f"{q},{h},%.17g\n" for q in quoted),
         tuple(y_h.tolist())) for h, y_h in zip(horizons, y.T)))


# -- command group ---------------------------------------------------------------


@click.group(name="cocomb")
@click.version_option(__version__)
def cli() -> None:
    """Coherent combination of multi-expert forecasts under linear constraints."""


def _common_inputs(fn):
    """The input and output options that ``combine`` and ``reconcile`` share."""
    for option in reversed([
        click.option("--constraints", required=True, type=Path,
                     help="Constraint file (JSON with A/upper/bottom or C/vars, or CSV)."),
        click.option("--panel", required=True, type=Path,
                     help="Base forecast CSV: series,expert[,horizon],value."),
        click.option("--residuals", type=Path, default=None,
                     help="In-sample residual CSV: t,series,expert,value."),
        click.option("--cov", default="shrink",
                     type=click.Choice(sorted(COV_CHOICES)), show_default=True,
                     help="Covariance estimator; the shrinkage intensity is the "
                          "closed-form estimate on standardized residuals, clamped to [0,1]."),
        click.option("--output", required=True, type=_OUTPUT_PATH, help="Output CSV path."),
    ]):
        fn = option(fn)
    return fn


def _load_inputs(constraints, panel, residuals, cov, need_cov):
    """-> (system, zero-valued panel, horizons, m x H forecasts, residuals, estimate)."""
    sys_, _ = read_constraint_file(constraints)
    frame, horizons, y_hat = _read_panel_csv(panel, sys_)
    resid = est = None
    if residuals is not None:
        resid = _read_residual_csv(residuals, frame)
        est = ESTIMATORS[COV_CHOICES[cov]](resid, frame)
    elif need_cov:
        raise DataError("this method requires --residuals to estimate a covariance")
    return sys_, frame, horizons, y_hat, resid, est


@cli.command()
@_common_inputs
@click.option("--scheme", default="ew", show_default=True,
              type=click.Choice([*_dashed(SINGLE_TASK_SCHEMES), "multi-task"]),
              help="Combination scheme; ow-cov solves for non-negative weights "
                   "summing to one via an active-set iteration.")
def combine(constraints, panel, residuals, cov, output, scheme):
    """Combine the panel per variable (or jointly) without reconciling."""
    sys_, frame, horizons, y_hat, _, est = _load_inputs(
        constraints, panel, residuals, cov, need_cov=scheme != "ew"
    )
    if scheme == "multi-task":
        weights = combine_multi_task(frame, est).Omega
    else:
        weights = single_task_weights(frame, scheme.replace("-", "_"), est).matrix(frame)
    _write_forecasts(output, horizons, weights.T @ y_hat, sys_.labels)
    _write_manifest()


@cli.command()
@_common_inputs
@click.option("--method", default="occ", show_default=True,
              type=click.Choice(["occ", "mint", "src", "scr-ew", "scr-var", "scr-cov"]))
@click.option("--formulation", default="zc-be", show_default=True,
              type=click.Choice(_dashed(FORMULATIONS)),
              help="Equivalent closed forms of the occ solution.")
@click.option("--emit-weights", type=_OUTPUT_PATH, default=None,
              help="Also write the combination weight matrix as CSV.")
@click.option("--emit-cov", type=_OUTPUT_PATH, default=None,
              help="Also write the reconciled error covariance W_tilde = Psi' W Psi as "
                   "CSV; model-based, it is the error covariance only if the --cov "
                   "pattern holds.")
def reconcile(constraints, panel, residuals, cov, output, method, formulation,
              emit_weights, emit_cov):
    """Produce coherent forecasts from the panel."""
    sys_, frame, horizons, y_hat, resid, est = _load_inputs(
        constraints, panel, residuals, cov, need_cov=True
    )
    res = fit(method.replace("-", "_"), frame, sys_, resid, est, formulation.replace("-", "_"))
    _write_forecasts(output, horizons, res.Psi.T @ y_hat, sys_.labels)

    if emit_weights is not None:  # one template of n lines per row of Psi
        tails = ["", *(f",{_fields(target)},%.17g\n" for target in frame.labels)]
        _write_table(emit_weights, ["expert", "series", "target", "weight"], (
            (_fields(frame.experts[j], frame.labels[i]).join(tails), tuple(psi_r.tolist()))
            for i, j, psi_r in zip(frame.var_idx.tolist(), frame.exp_idx.tolist(), res.Psi)
        ))
    if emit_cov is not None:
        _write_table(emit_cov, ["series", *sys_.labels], (
            (_fields(label) + ",%.17g" * len(row) + "\n", tuple(row.tolist()))
            for label, row in zip(sys_.labels, res.W_tilde)
        ))
    _write_manifest()


@cli.command()
@click.option("--setting", type=click.IntRange(1, 6), required=True)
@click.option("--p", type=int, default=4, show_default=True)
@click.option("--n-train", type=int, default=200, show_default=True)
@click.option("--test-len", type=int, default=100, show_default=True)
@click.option("--reps", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--balanced/--unbalanced", default=True, show_default=True)
@click.option("--error-corr", type=click.Choice(["random-spd", "identity"]),
              default="random-spd", show_default=True,
              help="Expert error correlation: a random correlation matrix or none.")
@click.option("--methods", default="ew,scr-ew,occ-be", show_default=True,
              help=f"Comma-separated: {', '.join(_dashed(SIMULATION_METHODS))}.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes, each given chunks of replications; results are "
                   "identical to a serial run.")
@click.option("--output", required=True, type=_OUTPUT_PATH)
def simulate(setting, p, n_train, test_len, reps, seed, balanced, error_corr, methods,
             jobs, output):
    """Run the Monte-Carlo experiment and write the relative-accuracy table."""
    method_keys = tuple(m.strip().replace("-", "_") for m in methods.split(",") if m.strip())
    if not method_keys:
        raise click.BadParameter(f"no methods in {methods!r}", param_hint="'--methods'")
    cfg = SimulationConfig(
        setting=setting, p=p, n_train=n_train, test_len=test_len,
        replications=reps, seed=seed, balanced=balanced,
        error_corr=error_corr.replace("-", "_"),
    )
    rows = run_experiment(cfg, method_keys, n_jobs=jobs).summary_rows()  # accuracies last
    _write_table(output, list(rows[0]), ((_fields(*r[:-2]) + ",%.17g,%.17g\n", r[-2:])
                                         for r in [tuple(row.values()) for row in rows]))
    _write_manifest()


def _parse_horizons(expr: str) -> list[int]:
    """``lo:hi`` or a comma list -> horizons, each once, in order of first appearance."""
    lo, colon, hi = expr.partition(":")
    try:
        horizons = (list(range(int(lo), int(hi) + 1)) if colon
                    else [int(tok) for tok in expr.split(",") if tok.strip()])
    except ValueError:
        horizons = []
    if not horizons:
        raise click.BadParameter(f"no horizons in {expr!r}", param_hint="'--horizons'")
    return list(dict.fromkeys(horizons))


def _read_eval_csv(path: Path, what: str, label_cols: tuple[str, ...], horizons, keep=()):
    """Evaluation CSV -> (sorted labels of each label column, (h, q) keys, values).

    Rows outside ``horizons``, and rows whose last label is not in a given
    ``keep``, are skipped. ``values`` has one axis per label column and a last
    axis over the sorted (horizon, q) ``keys``. The alignment rule: every
    selected horizon appears, and each (labels, key) cell exactly once, finite.
    """
    (h, q), values, columns = _read_columns(
        path, what, ("horizon", "q"), label_cols, lambda row, _: f"bad evaluation row {row!r}")
    wanted = np.unique(horizons)
    take = np.isin(h, wanted)
    if keep:
        labels, codes = columns[-1]
        take &= np.array([x in keep for x in labels], dtype=bool)[codes]
    h, q, values = h[take], q[take], values[take]
    missing = wanted[~np.isin(wanted, h)]
    if missing.size:
        raise DataError(f"no {what} for horizon {missing[0]}")
    names, ranks = [], []
    for labels, codes in columns:  # first-appearance codes of the kept rows -> sorted ranks
        codes = codes[take]
        present = sorted(np.unique(codes).tolist(), key=labels.__getitem__)
        rank = np.zeros(len(labels), dtype=np.int64)
        rank[present] = np.arange(len(present))
        names.append([labels[c] for c in present])
        ranks.append(rank[codes])
    q_values, q_rank = np.unique(q, return_inverse=True)  # (h, q) -> one integer key
    hq, key_idx = np.unique(np.searchsorted(wanted, h) * len(q_values) + q_rank.reshape(-1),
                            return_inverse=True)
    keys = np.column_stack((wanted[hq // len(q_values)], q_values[hq % len(q_values)]))
    shape = (*map(len, names), len(keys))
    flat = np.ravel_multi_index((*ranks, key_idx.reshape(-1)), shape)
    counts = np.bincount(flat, minlength=math.prod(shape))

    def cell(i):  # "series 's', horizon 1, q 0" for the flat index i
        *at, k = np.unravel_index(i, shape)
        parts = [*(n[a] for n, a in zip(names, at)), *keys[k].tolist()]
        return ", ".join(f"{c} {v!r}" for c, v in zip((*label_cols, "horizon", "q"), parts))

    if not np.isfinite(values).all():
        bad = np.argmin(np.isfinite(values))
        raise DataError(f"non-finite value {values[bad]} for {cell(flat[bad])} in {what} CSV")
    if (counts != 1).any():
        i = np.argmax(counts != 1)
        raise DataError(f"{what} CSV must hold every ({', '.join(label_cols)}, horizon, q) cell "
                        f"exactly once: {cell(i)} appears {counts[i]} times")
    grid = np.empty(shape)
    grid.reshape(-1)[flat] = values
    return names, keys, grid


@cli.command()
@click.option("--actuals", required=True, type=Path,
              help="Actuals CSV: series,horizon,q,value.")
@click.option("--forecasts", required=True, type=Path,
              help="Forecast CSV: method,series,horizon,q,value.")
@click.option("--benchmark", default="ew", show_default=True)
@click.option("--horizons", default="1:1", show_default=True,
              help="Range 'lo:hi' or comma list of horizons to evaluate.")
@click.option("--dm/--no-dm", default=False, show_default=True,
              help="Also write the pairwise equal-predictive-accuracy matrix "
                   "(Bartlett kernel with h-1 lags, two-sided normal p-values, "
                   "no small-sample correction).")
@click.option("--output", required=True, type=_OUTPUT_PATH)
@click.option("--dm-output", type=_OUTPUT_PATH, default=None)
def evaluate(actuals, forecasts, benchmark, horizons, dm, output, dm_output):
    """Score methods against actuals with relative accuracy indices."""
    if dm_output is not None and not dm:
        raise click.BadParameter("only written with --dm", param_hint="'--dm-output'")
    horizon_list = _parse_horizons(horizons)
    (series,), keys, y = _read_eval_csv(actuals, "actuals", ("series",), horizon_list)
    (methods, fc_series), fc_keys, f = _read_eval_csv(
        forecasts, "forecasts", ("method", "series"), horizon_list, keep=set(series))
    if fc_series != series or not np.array_equal(fc_keys, keys):
        raise DataError("forecasts CSV does not cover the actuals' series and (horizon, q) cells")
    cols = {h: np.flatnonzero(keys[:, 0] == h) for h in horizon_list}

    # accuracy() takes Q_h x n arrays per horizon, C-ordered as the sums expect
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = accuracy(
            {h: y[:, c].T.copy() for h, c in cols.items()},
            {m: {h: f_m[:, c].T.copy() for h, c in cols.items()} for m, f_m in zip(methods, f)},
            benchmark, series,
        )
    for w in caught:
        click.echo(json.dumps({"code": "warning", "message": str(w.message)}), err=True)
    if dm:
        dm_output = dm_output or Path(str(output) + ".dm.csv")
        n_m, dm_rows = len(methods), []
        a, b = np.triu_indices(n_m, 1)  # the unordered pairs; none, and nothing is tested
        for loss_name, loss_of in zip(("absolute", "squared"), LOSSES.values() if a.size else ()):
            loss = loss_of(y - f)  # methods x series x keys
            for h in horizon_list + ["all"]:
                hs = horizon_list if h == "all" else [h]
                idx = np.concatenate([cols[hh] for hh in hs])
                loss_h = loss[:, :, idx]
                stat, p = dm_test(loss_h[a], loss_h[b], h=max(hs))  # pairs x series
                wins = np.zeros((n_m, n_m), dtype=np.int64)
                significant = p < 0.05
                wins[a, b] = (significant & (stat < 0)).sum(axis=1)
                wins[b, a] = significant.sum(axis=1) - wins[a, b]
                dm_rows += ((_fields(loss_name, h, methods[i], methods[j]) + ",%.17g\n", (v,))
                            for (i, j), v in np.ndenumerate(100.0 * wins / len(series)) if i != j)
        _write_table(dm_output,
                     ["loss", "horizon", "method_a", "method_b", "pct_more_accurate"], dm_rows)
    _write_table(output, ["metric", "method", "horizon", "value"], (
        (_fields(metric, m, h) + ",%.17g\n", (overall[m] if h == "all" else per_h[m][h],))
        for metric, per_h, overall in (("avg_rel_mae", table.avg_rel_mae_h, table.avg_rel_mae),
                                       ("avg_rel_mse", table.avg_rel_mse_h, table.avg_rel_mse))
        for m in table.methods for h in (*table.horizons, "all")
    ))
    _write_manifest(dm_output=dm_output)


def main(argv=None) -> int:
    """Entry point with structured error reporting and stable exit codes."""
    staged: list[tuple[str, Path]] = []
    try:
        cli.main(args=argv, standalone_mode=False, obj=staged)
        # each target as os.replace sees it: a name in a real directory
        real = [Path(os.path.realpath(path.parent), path.name) for _, path in staged]
        for i, (_, path) in enumerate(staged):
            if path.is_dir():
                raise _OutputRefused(f"cannot write {path}: it is a directory")
            for (_, other), at in zip(staged, real[:i]):  # the same file, or one inside the other
                if at == real[i] or at in real[i].parents or real[i] in at.parents:
                    raise _OutputRefused(f"cannot write {path}: it collides with {other}")
        os.umask(umask := os.umask(0))  # mkstemp made each 0600; honour the umask
        try:
            for tmp, path in staged:
                path.parent.mkdir(parents=True, exist_ok=True)
                os.chmod(tmp, 0o666 & ~umask)
                if os.path.lexists(path):  # set aside beside its temp file, a unique name
                    os.replace(path, tmp + ".old")
            for tmp, path in staged:
                os.replace(tmp, path)
        except OSError as exc:  # remove what was renamed into place, put back what was set aside
            for tmp, target in staged:
                if not os.path.exists(tmp):
                    os.unlink(target)
                if os.path.lexists(tmp + ".old"):
                    os.replace(tmp + ".old", target)
            raise _OutputRefused(f"cannot write {path}: {exc.strerror or exc}") from None
        return 0
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except (_OutputRefused, DataError, NumericalError) as exc:
        click.echo(json.dumps({"code": exc.code, "message": str(exc)}), err=True)
        return {"output": 2, "schema": 3, "numeric": 4}[exc.code]
    finally:
        for tmp, _ in staged:  # a failed run's temp files, a successful run's set-aside targets
            for leftover in (tmp, tmp + ".old"):
                if os.path.lexists(leftover):
                    os.unlink(leftover)


def script() -> None:
    sys.exit(main())
