"""Command-line front end: combine, reconcile, simulate and evaluate.

Every run writes its outputs atomically (rows streamed into a temp file, then
renamed) and drops a ``<output>.manifest.json`` recording the command, every
option as parsed (read from the click context) and the library version, so
reruns from the same inputs are byte-identical. Numeric output is printed with
17 significant digits and round-trips exactly.

Every label-keyed CSV (panel, residual, actuals, forecasts) goes through one
reader, ``_read_columns``: it takes ``csv.reader`` rows ``_CHUNK_ROWS`` at a
time and turns each chunk into columns (integer keys, float values, labels
coded in order of first appearance), so no row outlives its chunk as a Python
object. The panel and residual columns go to ``panel.panel_from_pairs`` and
``panel.fill_cells``, the one place that maps labels to by-expert rows. A
panel CSV is one zero-valued panel (its availability, shared by every
horizon) and one m x H forecast matrix ``Y``. ``--cov`` names a pattern of
``covariance.ESTIMATORS`` through ``COV_CHOICES``, and ``reconcile`` hands its
method to ``coherent.fit``, which the simulation shares. The weights depend
only on the availability and the error covariance, so ``reconcile`` and
``combine`` fit once and apply once, ``Psi' Y`` (``combine``: ``Omega`` or
``WeightScheme.matrix`` as ``Psi``).

``evaluate`` reads each evaluation CSV through ``_read_eval_csv`` into one
array with sorted labels and a last axis over the sorted (horizon, q) keys,
computes each loss array once, and runs one batched DM test per loss and
horizon row over every unordered method pair and series: swapping the pair
negates the statistic and keeps the p-value.

Exit codes: 0 success, 2 bad arguments, 3 data/schema error, 4 numerical
failure (non-SPD covariance, rank deficiency).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

import click
import numpy as np

from . import __version__
from .coherent import FORMULATIONS, fit
from .combiners import SINGLE_TASK_SCHEMES, combine_multi_task, single_task_weights
from .constraints import read_constraint_file
from .covariance import ESTIMATORS
from .exceptions import DataError, NumericalError
from .metrics import accuracy, dm_test
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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dashed(names) -> list[str]:
    """Library names (``ow_var``) as the command line spells them (``ow-var``)."""
    return [name.replace("_", "-") for name in names]


@contextmanager
def _atomic_file(path: Path):
    """Text file handle on a temp file next to ``path``, renamed onto it on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.umask(umask := os.umask(0))  # mkstemp made it 0600; honour the umask
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and the (lazily produced) ``rows`` atomically to ``path``."""
    with _atomic_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


_CHUNK_ROWS = 4096  # rows parsed per batch: bounds the memory held as Python lists


def _read_columns(path: Path, what: str, ints, labels, bad, defaults=None):
    """Label-keyed CSV -> (int64 array per ``ints`` column, float values, label columns).

    Each label column is a ``(labels, codes)`` pair: the stripped labels in
    order of first appearance and the int64 code of each row. A missing or
    empty cell of an ``ints`` column with an entry in ``defaults`` reads as
    that default; the other named columns and ``value`` are required. Rows
    are parsed ``_CHUNK_ROWS`` at a time under ``csv.DictReader``'s rules:
    blank lines are skipped, extra fields ignored, a repeated column name
    means its last column, and a short row is an error. A cell that does not
    parse raises ``DataError(bad(row, column))``, ``row`` as ``DictReader``
    gives it.
    """
    path, defaults = Path(path), defaults or {}
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    required = {*ints, *labels, "value"} - defaults.keys()
    parsed = [(name, int, np.int64) for name in ints] + [("value", float, np.float64)]
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not required.issubset(header):
            raise DataError(f"{what} CSV {path} must have columns {sorted(required)}")
        at = {name: i for i, name in enumerate(header)}  # a repeated name: its last column

        def cells(rows, name):
            if name not in defaults:
                return map(itemgetter(at[name]), rows)
            if name not in at:
                return [defaults[name]] * len(rows)
            return [x or defaults[name] for x in map(itemgetter(at[name]), rows)]

        numbers = [[np.empty(0, dtype)] for _, _, dtype in parsed]
        codes = [({}, [np.empty(0, np.int64)]) for _ in labels]
        while raw := list(itertools.islice(reader, _CHUNK_ROWS)):
            rows = [row for row in raw if row] if [] in raw else raw
            try:
                if min(map(len, rows), default=len(header)) < len(header):
                    raise ValueError("short row")
                chunk = [np.fromiter(map(parse, cells(rows, name)), dtype, len(rows))
                         for name, parse, dtype in parsed]
            except (ValueError, OverflowError):
                _raise_first_defect(path, what, header, rows, parsed, bad, defaults)
            for part, column in zip(numbers, chunk):
                part.append(column)
            for (code, part), name in zip(codes, labels):
                part.append(code_labels(list(map(str.strip, cells(rows, name))), code))
            del raw, rows  # free this chunk's rows before the next one is read
    *ints, values = map(np.concatenate, numbers)
    return ints, values, [(tuple(code), np.concatenate(part)) for code, part in codes]


def _raise_first_defect(path, what, header, rows, parsed, bad, defaults) -> None:
    """Raise the error of the first defective row of a chunk, as a row-by-row read would."""
    for row in rows:
        if len(row) < len(header):
            with path.open(newline="") as fh:  # the line number DictReader reports
                reader = csv.DictReader(fh)
                next(r for r in reader if None in r.values())
            raise DataError(f"{what} CSV {path} line {reader.line_num} has too few fields")
        record = dict(zip(header, row))
        if len(row) > len(header):
            record[None] = row[len(header):]
        for name, parse, dtype in parsed:
            cell = (record.get(name) or defaults[name]) if name in defaults else record[name]
            try:
                dtype(parse(cell))
            except (ValueError, OverflowError):
                raise DataError(bad(record, name)) from None
    raise AssertionError("a chunk failed to parse without a defective row")


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
    """Write the n x H forecasts ``y``, one column per horizon."""
    if horizons == [1]:
        rows = ([label, _fmt(v)] for label, v in zip(labels, y[:, 0]))
        _write_csv(path, ["series", "value"], rows)
    else:
        rows = ([label, h, _fmt(v)]
                for h, y_h in zip(horizons, y.T) for label, v in zip(labels, y_h))
        _write_csv(path, ["series", "horizon", "value"], rows)


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
        click.option("--output", required=True, type=Path, help="Output CSV path."),
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
@click.option("--emit-weights", type=Path, default=None,
              help="Also write the combination weight matrix as CSV.")
@click.option("--emit-cov", type=Path, default=None,
              help="Also write the reconciled error covariance as CSV.")
def reconcile(constraints, panel, residuals, cov, output, method, formulation,
              emit_weights, emit_cov):
    """Produce coherent forecasts from the panel."""
    sys_, frame, horizons, y_hat, resid, est = _load_inputs(
        constraints, panel, residuals, cov, need_cov=True
    )
    res = fit(method.replace("-", "_"), frame, sys_, resid, est, formulation.replace("-", "_"))
    _write_forecasts(output, horizons, res.Psi.T @ y_hat, sys_.labels)

    if emit_weights is not None:
        labels, experts = frame.labels, frame.experts
        _write_csv(emit_weights, ["expert", "series", "target", "weight"], (
            [experts[j], labels[i], labels[k], _fmt(w)]
            for (i, j), psi_r in zip(frame.pairs, res.Psi)
            for k, w in enumerate(psi_r.tolist())
        ))
    if emit_cov is not None:
        _write_csv(emit_cov, ["series"] + list(sys_.labels), (
            [label] + [_fmt(v) for v in row.tolist()]
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
              help="Parallel replication workers; results are identical to a serial run.")
@click.option("--output", required=True, type=Path)
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
    rows = run_experiment(cfg, method_keys, n_jobs=jobs).summary_rows()
    _write_csv(output, list(rows[0]), (  # the accuracies are the floats
        [_fmt(v) if isinstance(v, float) else v for v in row.values()] for row in rows
    ))
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
@click.option("--output", required=True, type=Path)
@click.option("--dm-output", type=Path, default=None)
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
    table = accuracy(
        {h: y[:, c].T.copy() for h, c in cols.items()},
        {m: {h: f_m[:, c].T.copy() for h, c in cols.items()} for m, f_m in zip(methods, f)},
        benchmark, series,
    )
    if dm:  # DM rows first: a failing test must leave no output behind
        dm_output = dm_output or Path(str(output) + ".dm.csv")
        n_m, dm_rows = len(methods), []
        a, b = np.triu_indices(n_m, 1)  # the unordered pairs; none, and nothing is tested
        for loss_name, power in (("absolute", 1), ("squared", 2)) if a.size else ():
            loss = np.abs(y - f) ** power  # methods x series x keys
            for h in horizon_list + ["all"]:
                hs = horizon_list if h == "all" else [h]
                idx = np.concatenate([cols[hh] for hh in hs])
                loss_h = loss[:, :, idx]
                stat, p = dm_test(loss_h[a], loss_h[b], h=max(hs))  # pairs x series
                wins = np.zeros((n_m, n_m), dtype=np.int64)
                significant = p < 0.05
                wins[a, b] = (significant & (stat < 0)).sum(axis=1)
                wins[b, a] = significant.sum(axis=1) - wins[a, b]
                dm_rows += ([loss_name, h, methods[i], methods[j], _fmt(100.0 * w / len(series))]
                            for (i, j), w in np.ndenumerate(wins) if i != j)
        _write_csv(dm_output,
                   ["loss", "horizon", "method_a", "method_b", "pct_more_accurate"], dm_rows)
    _write_csv(output, ["metric", "method", "horizon", "value"], (
        [metric, m, h, _fmt(overall[m] if h == "all" else per_h[m][h])]
        for metric, per_h, overall in (("avg_rel_mae", table.avg_rel_mae_h, table.avg_rel_mae),
                                       ("avg_rel_mse", table.avg_rel_mse_h, table.avg_rel_mse))
        for m in table.methods for h in (*table.horizons, "all")
    ))
    _write_manifest(dm_output=dm_output)


def main(argv=None) -> int:
    """Entry point with structured error reporting and stable exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
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
    except DataError as exc:
        click.echo(json.dumps({"code": exc.code, "message": str(exc)}), err=True)
        return 3
    except NumericalError as exc:
        click.echo(json.dumps({"code": exc.code, "message": str(exc)}), err=True)
        return 4


def script() -> None:
    sys.exit(main())
