"""Command-line front end: combine, reconcile, simulate and evaluate.

Every run writes its outputs atomically (rows streamed into a temp file, then
renamed) and drops a ``<output>.manifest.json`` recording the command, options,
seed and library version, so reruns from the same inputs are byte-identical.
Numeric output is printed with 17 significant digits and round-trips exactly.

The panel and residual CSVs stream their rows, as (k, series, expert, value)
records, into ``panel.panel_from_pairs`` and ``panel.fill_cells``, the one place
that maps labels to by-expert rows. ``--cov`` names a pattern of
``covariance.ESTIMATORS`` through ``COV_CHOICES``, and ``reconcile`` hands its
method to ``coherent.fit``, which the simulation shares. ``reconcile`` and
``combine`` fit their weights once, on the first horizon's panel: the weights
depend only on the panel's availability and the error covariance, so one fit is
applied to every horizon as one apply, ``Psi' y_h`` (``combine``: ``Omega`` or
``WeightScheme.matrix`` as ``Psi``); the emitted weights and reconciled
covariance are those of that fit.

``evaluate`` streams each evaluation CSV through ``_read_eval_csv`` into one
array with sorted labels and a last axis over the sorted (horizon, q) keys,
computes each loss array once, and runs one DM test per unordered method pair
and series: swapping the pair negates the statistic and keeps the p-value.

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
from pathlib import Path

import click
import numpy as np

from . import __version__
from .coherent import fit
from .combiners import combine_multi_task, single_task_weights
from .constraints import read_constraint_file
from .covariance import ESTIMATORS
from .exceptions import DataError, NumericalError
from .metrics import accuracy, dm_test
from .panel import fill_cells, panel_from_pairs
from .simulation import SimulationConfig, run_experiment

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


def _write_manifest(output: Path, command: str, params: dict) -> None:
    manifest = {
        "command": command,
        "options": {k: (str(v) if isinstance(v, Path) else v) for k, v in params.items()},
        "version": __version__,
    }
    with _atomic_file(Path(str(output) + ".manifest.json")) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


# -- input readers -------------------------------------------------------------


def _read_csv_dicts(path: Path, required: set[str], what: str):
    """Yield the rows of a CSV file as dicts, after checking its header."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise DataError(
                f"{what} CSV {path} must have columns {sorted(required)}"
            )
        for row in reader:
            if None in row.values():
                raise DataError(f"{what} CSV {path} line {reader.line_num} has too few fields")
            yield row


def _cell_records(path: Path, what: str, key: str, default=None):
    """Yield (k, series, expert, value) from a label-keyed CSV; column ``key`` holds k.

    A missing or empty ``key`` cell reads as ``default``; with no default the
    column is required.
    """
    required = {"series", "expert", "value"} | ({key} if default is None else set())
    for row in _read_csv_dicts(path, required, what):
        try:
            k = int(row.get(key) or default)
        except (TypeError, ValueError):
            raise DataError(f"bad {key} {row.get(key)!r} in {what} CSV") from None
        try:
            value = float(row["value"])
        except ValueError:
            raise DataError(f"non-numeric {what} value {row['value']!r}") from None
        yield k, row["series"].strip(), row["expert"].strip(), value


def _read_panel_csv(path: Path, sys_):
    """Panel CSV (series,expert[,horizon],value) -> per-horizon panels.

    Expert order is first appearance over the whole file; all horizons must
    share the same availability so one weight matrix applies throughout.
    """
    records = list(_cell_records(path, "panel", "horizon", default=1))
    if not records:
        raise DataError(f"panel CSV {path} holds no forecasts")
    panel = panel_from_pairs(((s, e) for _, s, e, _ in records), sys_, "panel CSV")
    horizons, values = fill_cells(records, panel, "panel CSV", "horizon")
    return {h: panel.with_values(values[:, c]) for c, h in enumerate(horizons)}


def _read_residual_csv(path: Path, panel) -> np.ndarray:
    """Residual CSV (t,series,expert,value) -> m x T matrix in panel order, t ascending."""
    records = _cell_records(path, "residual", "t")
    _, resid = fill_cells(records, panel, "residual CSV", "t")
    if resid.shape[1] < 2:
        raise DataError("need residuals for at least two time points")
    return resid


def _write_forecasts(path: Path, results: dict[int, np.ndarray], labels) -> None:
    horizons = sorted(results)
    if horizons == [1]:
        rows = ([label, _fmt(v)] for label, v in zip(labels, results[1]))
        _write_csv(path, ["series", "value"], rows)
    else:
        rows = ([label, h, _fmt(v)] for h in horizons for label, v in zip(labels, results[h]))
        _write_csv(path, ["series", "horizon", "value"], rows)


# -- command group ---------------------------------------------------------------


@click.group(name="cocomb")
@click.version_option(__version__)
def cli() -> None:
    """Coherent combination of multi-expert forecasts under linear constraints."""


_common_inputs = [
    click.option("--constraints", "constraints_path", required=True, type=Path,
                 help="Constraint file (JSON with A/upper/bottom or C/vars, or CSV)."),
    click.option("--panel", "panel_path", required=True, type=Path,
                 help="Base forecast CSV: series,expert[,horizon],value."),
    click.option("--residuals", "residuals_path", type=Path, default=None,
                 help="In-sample residual CSV: t,series,expert,value."),
    click.option("--cov", "cov_kind", default="shrink",
                 type=click.Choice(sorted(COV_CHOICES)), show_default=True,
                 help="Covariance estimator; the shrinkage intensity is the "
                      "closed-form estimate on standardized residuals, clamped to [0,1]."),
    click.option("--output", "output_path", required=True, type=Path,
                 help="Output CSV path."),
]


def _with_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


def _load_inputs(constraints_path, panel_path, residuals_path, cov_kind, need_cov):
    sys_, _ = read_constraint_file(constraints_path)
    panels = _read_panel_csv(panel_path, sys_)
    first = panels[sorted(panels)[0]]
    cov = None
    resid = None
    if residuals_path is not None:
        resid = _read_residual_csv(residuals_path, first)
        cov = ESTIMATORS[COV_CHOICES[cov_kind]](resid, first)
    elif need_cov:
        raise DataError("this method requires --residuals to estimate a covariance")
    return sys_, panels, first, cov, resid


@cli.command()
@_with_options(_common_inputs)
@click.option("--scheme", default="ew", show_default=True,
              type=click.Choice(["ew", "ow-var", "ow-cov", "multi-task"]),
              help="Combination scheme; ow-cov solves for non-negative weights "
                   "summing to one via an active-set iteration.")
def combine(constraints_path, panel_path, residuals_path, cov_kind, output_path, scheme):
    """Combine the panel per variable (or jointly) without reconciling."""
    need_cov = scheme != "ew"
    sys_, panels, first, cov, _ = _load_inputs(
        constraints_path, panel_path, residuals_path, cov_kind, need_cov
    )
    if scheme == "multi-task":
        weights = combine_multi_task(first, cov).Omega
    else:
        weights = single_task_weights(first, scheme.replace("-", "_"), cov).matrix(first)
    results = {h: weights.T @ panel_h.y_hat for h, panel_h in panels.items()}
    _write_forecasts(output_path, results, sys_.labels)
    _write_manifest(output_path, "combine", {
        "constraints": constraints_path, "panel": panel_path,
        "residuals": residuals_path, "cov": cov_kind, "scheme": scheme,
        "output": output_path,
    })


@cli.command()
@_with_options(_common_inputs)
@click.option("--method", default="occ", show_default=True,
              type=click.Choice(["occ", "mint", "src", "scr-ew", "scr-var", "scr-cov"]))
@click.option("--formulation", default="zc-be", show_default=True,
              type=click.Choice(["zc-be", "zc-bv", "struct-be", "struct-bv"]),
              help="Equivalent closed forms of the occ solution.")
@click.option("--emit-weights", "weights_path", type=Path, default=None,
              help="Also write the combination weight matrix as CSV.")
@click.option("--emit-cov", "cov_path", type=Path, default=None,
              help="Also write the reconciled error covariance as CSV.")
def reconcile(constraints_path, panel_path, residuals_path, cov_kind, output_path,
              method, formulation, weights_path, cov_path):
    """Produce coherent forecasts from the panel."""
    sys_, panels, first, cov, resid = _load_inputs(
        constraints_path, panel_path, residuals_path, cov_kind, need_cov=True
    )
    res = fit(method.replace("-", "_"), first, sys_, resid, cov, formulation.replace("-", "_"))
    results = {h: res.Psi.T @ panel_h.y_hat for h, panel_h in panels.items()}
    _write_forecasts(output_path, results, sys_.labels)

    if weights_path is not None:
        labels, experts = first.labels, first.experts
        _write_csv(weights_path, ["expert", "series", "target", "weight"], (
            [experts[j], labels[i], labels[k], _fmt(w)]
            for (i, j), psi_r in zip(first.pairs, res.Psi)
            for k, w in enumerate(psi_r.tolist())
        ))
    if cov_path is not None:
        _write_csv(cov_path, ["series"] + list(sys_.labels), (
            [label] + [_fmt(v) for v in row.tolist()]
            for label, row in zip(sys_.labels, res.W_tilde)
        ))
    _write_manifest(output_path, "reconcile", {
        "constraints": constraints_path, "panel": panel_path,
        "residuals": residuals_path, "cov": cov_kind, "method": method,
        "formulation": formulation, "output": output_path,
        "emit_weights": weights_path, "emit_cov": cov_path,
    })


@cli.command()
@click.option("--setting", type=click.IntRange(1, 6), required=True)
@click.option("--p", "n_experts", type=int, default=4, show_default=True)
@click.option("--n-train", type=int, default=200, show_default=True)
@click.option("--test-len", type=int, default=100, show_default=True)
@click.option("--reps", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--balanced/--unbalanced", default=True, show_default=True)
@click.option("--error-corr", type=click.Choice(["random-spd", "identity"]),
              default="random-spd", show_default=True,
              help="Expert error correlation: a random correlation matrix or none.")
@click.option("--methods", default="ew,scr-ew,occ-be", show_default=True,
              help="Comma-separated: ew, ow-var, ow-cov, src, scr-ew, scr-var, "
                   "scr-cov, occ-be, occ-bv, occ-shr, occ-wls, base-star, "
                   "base-star-shr, base-shr.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Parallel replication workers; results are identical to a serial run.")
@click.option("--output", "output_path", required=True, type=Path)
def simulate(setting, n_experts, n_train, test_len, reps, seed, balanced,
             error_corr, methods, jobs, output_path):
    """Run the Monte-Carlo experiment and write the relative-accuracy table."""
    method_keys = tuple(m.strip().replace("-", "_") for m in methods.split(",") if m.strip())
    cfg = SimulationConfig(
        setting=setting, p=n_experts, n_train=n_train, test_len=test_len,
        replications=reps, seed=seed, balanced=balanced,
        error_corr=error_corr.replace("-", "_"),
    )
    result = run_experiment(cfg, method_keys, n_jobs=jobs)
    rows = (
        [r["setting"], r["p"], r["n_train"], r["balanced"], r["method"],
         _fmt(r["avg_rel_mae"]), _fmt(r["avg_rel_mse"])]
        for r in result.summary_rows()
    )
    _write_csv(output_path,
               ["setting", "p", "n_train", "balanced", "method", "avg_rel_mae", "avg_rel_mse"],
               rows)
    _write_manifest(output_path, "simulate", {
        "setting": setting, "p": n_experts, "n_train": n_train, "test_len": test_len,
        "reps": reps, "seed": seed, "balanced": balanced, "error_corr": error_corr,
        "methods": methods, "output": output_path,
    })


def _parse_horizons(expr: str) -> list[int]:
    lo, colon, hi = expr.partition(":")
    try:
        horizons = (list(range(int(lo), int(hi) + 1)) if colon
                    else [int(tok) for tok in expr.split(",") if tok.strip()])
    except ValueError:
        horizons = []
    if not horizons:
        raise click.BadParameter(f"no horizons in {expr!r}", param_hint="'--horizons'")
    return horizons


def _read_eval_csv(path: Path, what: str, label_cols: tuple[str, ...], horizons, keep=()):
    """Evaluation CSV -> (sorted labels of each label column, (h, q) keys, values).

    Rows outside ``horizons``, and rows whose last label is not in a given
    ``keep``, are skipped. ``values`` has one axis per label column and a last
    axis over the sorted (horizon, q) ``keys``. The alignment rule: every
    selected horizon appears, and each (labels, key) cell exactly once, finite.
    """
    wanted, cells, values = set(horizons), [], []
    codes = [{} for _ in label_cols]  # label -> code, in order of first appearance
    for row in _read_csv_dicts(path, {*label_cols, "horizon", "q", "value"}, what):
        try:
            h, q, value = int(row["horizon"]), int(row["q"]), float(row["value"])
        except ValueError:
            raise DataError(f"bad evaluation row {row!r}") from None
        cell_labels = tuple(row[col].strip() for col in label_cols)
        if h not in wanted or (keep and cell_labels[-1] not in keep):
            continue
        cells.append([c.setdefault(x, len(c)) for c, x in zip(codes, cell_labels)] + [h, q])
        values.append(value)
    cells = np.array(cells, dtype=np.int64).reshape(len(values), len(label_cols) + 2)
    missing = wanted - set(cells[:, -2].tolist())
    if missing:
        raise DataError(f"no {what} for horizon {min(missing)}")
    for j, c in enumerate(codes):  # first-appearance codes -> sorted ranks
        cells[:, j] = np.argsort(np.argsort(list(c)))[cells[:, j]]
    names = [sorted(c) for c in codes]
    keys, key_idx = np.unique(cells[:, -2:], axis=0, return_inverse=True)
    shape = (*map(len, names), len(keys))
    flat = np.ravel_multi_index((*cells[:, :-2].T, key_idx.reshape(-1)), shape)
    counts = np.bincount(flat, minlength=math.prod(shape))
    values = np.array(values)

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
@click.option("--actuals", "actuals_path", required=True, type=Path,
              help="Actuals CSV: series,horizon,q,value.")
@click.option("--forecasts", "forecasts_path", required=True, type=Path,
              help="Forecast CSV: method,series,horizon,q,value.")
@click.option("--benchmark", default="ew", show_default=True)
@click.option("--horizons", default="1:1", show_default=True,
              help="Range 'lo:hi' or comma list of horizons to evaluate.")
@click.option("--dm/--no-dm", "run_dm", default=False, show_default=True,
              help="Also write the pairwise equal-predictive-accuracy matrix "
                   "(Bartlett kernel with h-1 lags, two-sided normal p-values, "
                   "no small-sample correction).")
@click.option("--output", "output_path", required=True, type=Path)
@click.option("--dm-output", "dm_output_path", type=Path, default=None)
def evaluate(actuals_path, forecasts_path, benchmark, horizons, run_dm,
             output_path, dm_output_path):
    """Score methods against actuals with relative accuracy indices."""
    horizon_list = _parse_horizons(horizons)
    (series,), keys, y = _read_eval_csv(actuals_path, "actuals", ("series",), horizon_list)
    (methods, fc_series), fc_keys, f = _read_eval_csv(
        forecasts_path, "forecasts", ("method", "series"), horizon_list, keep=set(series))
    if fc_series != series or not np.array_equal(fc_keys, keys):
        raise DataError("forecasts CSV does not cover the actuals' series and (horizon, q) cells")
    cols = {h: np.flatnonzero(keys[:, 0] == h) for h in horizon_list}

    # accuracy() takes Q_h x n arrays per horizon, C-ordered as the sums expect
    table = accuracy(
        {h: y[:, c].T.copy() for h, c in cols.items()},
        {m: {h: f_m[:, c].T.copy() for h, c in cols.items()} for m, f_m in zip(methods, f)},
        benchmark, series,
    )
    if run_dm:  # DM rows first: a failing test must leave no output behind
        dm_output_path = dm_output_path or Path(str(output_path) + ".dm.csv")
        n_m, dm_rows = len(methods), []
        for loss_name, power in (("absolute", 1), ("squared", 2)):
            loss = np.abs(y - f) ** power  # methods x series x keys
            for h in horizon_list + ["all"]:
                hs = horizon_list if h == "all" else [h]
                idx = np.concatenate([cols[hh] for hh in hs])
                wins = np.zeros((n_m, n_m), dtype=np.int64)
                for a, b in itertools.combinations(range(n_m), 2):
                    for i in range(len(series)):
                        res = dm_test(loss[a, i, idx], loss[b, i, idx], h=max(hs))
                        if res.p_value < 0.05:
                            wins[(a, b) if res.statistic < 0 else (b, a)] += 1
                dm_rows += ([loss_name, h, methods[a], methods[b], _fmt(100.0 * w / len(series))]
                            for (a, b), w in np.ndenumerate(wins) if a != b)
        _write_csv(dm_output_path,
                   ["loss", "horizon", "method_a", "method_b", "pct_more_accurate"], dm_rows)
    _write_csv(output_path, ["metric", "method", "horizon", "value"], (
        [metric, m, h, _fmt(overall[m] if h == "all" else per_h[m][h])]
        for metric, per_h, overall in (("avg_rel_mae", table.avg_rel_mae_h, table.avg_rel_mae),
                                       ("avg_rel_mse", table.avg_rel_mse_h, table.avg_rel_mse))
        for m in table.methods for h in (*table.horizons, "all")
    ))
    _write_manifest(output_path, "evaluate", {
        "actuals": actuals_path, "forecasts": forecasts_path, "benchmark": benchmark,
        "horizons": horizons, "dm": run_dm, "output": output_path,
        "dm_output": dm_output_path,
    })


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
