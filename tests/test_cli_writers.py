"""Every CLI table against the row-by-row writers in ``tests/oracles.py``, byte for byte.

The CLI quotes each label once, escapes its ``%`` and writes each row with one
``%``-template; the oracles pass one list per row to ``csv.writer`` and format
each float with ``format(x, ".17g")``. Labels hold commas, double quotes,
padding, ``%``, ``%%``, ``%s``, a line break, non-ASCII and the empty string;
values hold nan, +-inf, -0.0, the smallest subnormal and 1e+-300.
"""

import csv
import json
import math
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np
import pytest

import cocomb.cli
import oracles
from cocomb import from_aggregation, from_availability
from cocomb.cli import main
from conftest import evaluation_csvs, fresh_python

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"

LABELS = ("total, all", 'say "hi"', " padded ", "100%", "%%", "%s", "né €", "", "a\nb", "x")
EXPERTS = ("a,b", "50%", ' "q" ', "%d", "ü")
SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300,
           0.1, 1 / 3)
HORIZONS = ([1], [1, 2, 5])


def special(rng, shape):
    """Normal draws with every ``SPECIAL`` value (or as many as fit) at random cells."""
    values = rng.standard_normal(shape)
    flat = values.reshape(-1)
    k = min(len(SPECIAL), flat.size)
    flat[rng.permutation(flat.size)[:k]] = SPECIAL[:k]
    return values


def weird_panel(rng):
    sys_ = from_aggregation(np.ones((1, len(LABELS) - 1)), LABELS)
    avail = rng.random((sys_.n, len(EXPERTS))) < 0.6
    avail[:, 0] = True
    avail[0] = True  # every expert covers something
    return sys_, from_availability(avail, sys_, experts=EXPERTS)


def assert_same_bytes(got, expected):
    assert got.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("horizons", HORIZONS, ids=["one", "three"])
def test_forecast_table_matches_row_writer(tmp_path, horizons):
    """The temp file the writer stages for ``main`` holds the oracle's bytes."""
    y = special(np.random.default_rng(1), (len(LABELS), len(horizons)))
    with click.Context(cocomb.cli.cli, obj=(staged := [])):
        cocomb.cli._write_forecasts(tmp_path / "y.csv", horizons, y, LABELS)
    [(tmp, target)] = staged
    assert target == tmp_path / "y.csv"
    oracles.write_forecasts(tmp_path / "ref.csv", horizons, y, LABELS)
    assert_same_bytes(Path(tmp), tmp_path / "ref.csv")


@pytest.mark.parametrize("horizons", HORIZONS, ids=["one", "three"])
def test_reconcile_tables_match_row_writers(tmp_path, monkeypatch, horizons):
    """Forecasts, ``--emit-weights`` and ``--emit-cov`` from a fit whose ``Psi`` and
    ``W_tilde`` hold the special values, on labels no CSV reader would pass through."""
    rng = np.random.default_rng(2)
    sys_, panel = weird_panel(rng)
    y_hat = rng.standard_normal((panel.m, len(horizons)))
    res = SimpleNamespace(Psi=special(rng, (panel.m, sys_.n)),
                          W_tilde=special(rng, (sys_.n, sys_.n)))
    monkeypatch.setattr(cocomb.cli, "_load_inputs",
                        lambda *args, **kwargs: (sys_, panel, horizons, y_hat, None, None))
    monkeypatch.setattr(cocomb.cli, "fit", lambda *args: res)
    outs = [tmp_path / name for name in ("y.csv", "psi.csv", "w.csv")]
    assert main(["reconcile", "--constraints", "c.json", "--panel", "p.csv",
                 "--residuals", "r.csv", "--output", str(outs[0]),
                 "--emit-weights", str(outs[1]), "--emit-cov", str(outs[2])]) == 0
    refs = [tmp_path / f"ref-{out.name}" for out in outs]
    oracles.write_forecasts(refs[0], horizons, res.Psi.T @ y_hat, sys_.labels)
    oracles.write_weights(refs[1], panel, res.Psi)
    oracles.write_cov(refs[2], sys_.labels, res.W_tilde)
    for out, ref in zip(outs, refs):
        assert_same_bytes(out, ref)


def fake_summary(cfg, methods, n_jobs=1):
    """An experiment result whose accuracies are the special values."""
    rows = [{"setting": cfg.setting, "p": cfg.p, "n_train": cfg.n_train,
             "balanced": k % 2 == 0, "method": method, "avg_rel_mae": mae, "avg_rel_mse": mse}
            for k, (method, mae, mse) in enumerate(zip(LABELS + EXPERTS, SPECIAL, SPECIAL[::-1]))]
    return SimpleNamespace(summary_rows=lambda: rows)


@pytest.mark.parametrize("source", ["special", "run"])
def test_simulate_table_matches_row_writer(tmp_path, monkeypatch, source):
    results = []
    experiment = fake_summary if source == "special" else cocomb.cli.run_experiment
    monkeypatch.setattr(cocomb.cli, "run_experiment",
                        lambda *args, **kwargs: results.append(experiment(*args, **kwargs))
                        or results[-1])
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--setting", "1", "--reps", "2", "--n-train", "50",
                 "--test-len", "20", "--output", str(out)]) == 0
    oracles.write_summary(tmp_path / "ref.csv", results[0].summary_rows())
    assert_same_bytes(out, tmp_path / "ref.csv")
    assert "True" in out.read_text() and ",50," in out.read_text()


def relabel(path, renames):
    """Rewrite a CSV with its labels renamed (every cell is looked up)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [[renames.get(cell, cell) for cell in row] for row in rows])


@pytest.mark.parametrize("values", ["run", "special"])
def test_evaluate_tables_match_row_writers(tmp_path, rng, monkeypatch, values):
    """The accuracy and DM tables on the evaluation fixtures, methods and series
    renamed to labels that need quoting or hold ``%``."""
    paths, series, actuals, forecasts = evaluation_csvs(tmp_path, rng)
    renames = {"base": "base, 50%", "occ": 'occ "x"', "scr": "%s%%", "east": "é%d"}
    for path in paths:
        relabel(path, renames)
    series = sorted(renames.get(s, s) for s in series)
    forecasts = {renames.get(m, m): fc for m, fc in forecasts.items()}
    tables = []

    def accuracy(*args, real=cocomb.cli.accuracy):
        table = real(*args)
        if values == "special":
            cells = iter(SPECIAL * 8)
            for per_h, overall in ((table.avg_rel_mae_h, table.avg_rel_mae),
                                   (table.avg_rel_mse_h, table.avg_rel_mse)):
                for m in table.methods:
                    overall[m] = next(cells)
                    per_h[m] = {h: next(cells) for h in table.horizons}
        tables.append(table)
        return table

    monkeypatch.setattr(cocomb.cli, "accuracy", accuracy)
    out, dm_out = tmp_path / "acc.csv", tmp_path / "dm.csv"
    assert main(["evaluate", "--actuals", str(paths[0]), "--forecasts", str(paths[1]),
                 "--horizons", "1:3", "--dm", "--output", str(out),
                 "--dm-output", str(dm_out)]) == 0
    oracles.write_accuracy(tmp_path / "ref-acc.csv", tables[0])
    assert_same_bytes(out, tmp_path / "ref-acc.csv")
    oracles.write_dm(tmp_path / "ref-dm.csv",
                     oracles.dm_win_table(actuals, forecasts, sorted(forecasts), series, [1, 2, 3]))
    assert_same_bytes(dm_out, tmp_path / "ref-dm.csv")


def test_percent_labels_round_trip_bit_for_bit(tmp_path, monkeypatch):
    """Weights and ``W_tilde`` read back through ``csv.reader`` are ``res.Psi`` and
    ``res.W_tilde`` bit for bit, on labels holding ``%`` and commas."""
    upper, bottom = ["100% total"], ["east, %s", "west%", "%%d", "%(x)s"]
    labels, experts = upper + bottom, ["e%1", "f,g", "%"]
    rng = np.random.default_rng(5)
    (tmp_path / "c.json").write_text(json.dumps(
        {"A": [[1.0] * len(bottom)], "upper": upper, "bottom": bottom}))
    cells = [(s, e) for e in experts for s in labels if e == "e%1" or rng.random() < 0.6]
    oracles.write_csv(tmp_path / "p.csv", ["series", "expert", "value"],
                      ([s, e, repr(10.0 + rng.standard_normal())] for s, e in cells))
    oracles.write_csv(tmp_path / "r.csv", ["t", "series", "expert", "value"],
                      ([t, s, e, repr(float(rng.standard_normal()))]
                       for t in range(40) for s, e in cells))
    fits = []
    monkeypatch.setattr(cocomb.cli, "fit",
                        lambda *args, fit=cocomb.cli.fit: fits.append(fit(*args)) or fits[-1])
    outs = [tmp_path / name for name in ("y.csv", "psi.csv", "w.csv")]
    assert main(["reconcile", "--constraints", str(tmp_path / "c.json"),
                 "--panel", str(tmp_path / "p.csv"), "--residuals", str(tmp_path / "r.csv"),
                 "--cov", "bd-expert-shrink", "--output", str(outs[0]),
                 "--emit-weights", str(outs[1]), "--emit-cov", str(outs[2])]) == 0
    res = fits[0]
    row_of = {(e, s): r for r, (s, e) in enumerate(cells)}
    with open(outs[1], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    psi = np.full(res.Psi.shape, np.nan)
    for expert, series, target, weight in rows:
        psi[row_of[expert, series], labels.index(target)] = float(weight)
    assert len(rows) == res.Psi.size and psi.tobytes() == res.Psi.tobytes()
    with open(outs[2], newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["series", *labels] and [row[0] for row in rows] == labels
    w_tilde = np.array([[float(v) for v in row[1:]] for row in rows])
    assert w_tilde.tobytes() == res.W_tilde.tobytes()
    with open(outs[0], newline="") as fh:
        assert [row[0] for row in list(csv.reader(fh))[1:]] == labels


class WriteFailed(Exception):
    pass


class FailingValue:
    def __float__(self):  # what a %.17g slot calls
        raise WriteFailed


def failing_replace(*_):
    raise OSError("rename refused")


@pytest.mark.parametrize("failure", ["rows", "replace"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_write_leaves_no_temp_file_and_the_old_bytes(tmp_path, monkeypatch, failure,
                                                              existing):
    """Through ``main``, a row that raises mid-write propagates its error and a
    refused rename exits 2; the temp files are removed and a target already
    there keeps its bytes."""
    target = tmp_path / "table.csv"
    if existing:
        target.write_bytes(b"old,bytes\r\n")
    last = FailingValue() if failure == "rows" else 1.0
    rows = [{"method": "ew", "avg_rel_mae": 1.0, "avg_rel_mse": 1.0},
            {"method": "occ", "avg_rel_mae": 1.0, "avg_rel_mse": last}]
    monkeypatch.setattr(cocomb.cli, "run_experiment",
                        lambda *args, **kwargs: SimpleNamespace(summary_rows=lambda: rows))
    argv = ["simulate", "--setting", "1", "--output", str(target)]
    if failure == "rows":
        with pytest.raises(WriteFailed):
            main(argv)
    else:
        monkeypatch.setattr(cocomb.cli.os, "replace", failing_replace)
        assert main(argv) == 2
    assert list(tmp_path.glob("*.tmp")) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == (["table.csv"] if existing else [])
    if existing:
        assert target.read_bytes() == b"old,bytes\r\n"


def test_outputs_are_utf8_whatever_the_locale(tmp_path, monkeypatch):
    """``reconcile`` on the sample with ``total`` renamed ``totél`` in all three
    inputs writes the same bytes under the C locale, UTF-8 mode off, as under UTF-8."""
    (inputs := tmp_path / "in").mkdir()
    for name in ("constraints.json", "panel.csv", "residuals.csv"):
        text = (SAMPLE / name).read_text(encoding="utf-8")
        (inputs / name).write_text(text.replace("total", "totél"), encoding="utf-8")
    argv = ["reconcile", "--constraints", "../in/constraints.json", "--panel", "../in/panel.csv",
            "--residuals", "../in/residuals.csv", "--output", "c.csv",
            "--emit-weights", "w.csv", "--emit-cov", "wt.csv"]
    written = []
    for utf8 in ("1", "0"):
        monkeypatch.setenv("LC_ALL", "C" if utf8 == "0" else "C.UTF-8")
        monkeypatch.setenv("PYTHONUTF8", utf8)
        monkeypatch.setenv("PYTHONCOERCECLOCALE", "0")
        (out := tmp_path / f"utf8-{utf8}").mkdir()
        fresh_python("import sys; from cocomb.cli import main; sys.exit(main(sys.argv[1:]))",
                     *argv, cwd=out)
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    assert sorted(written[0]) == ["c.csv", "c.csv.manifest.json", "w.csv", "wt.csv"]
    assert "totél".encode() in written[0]["c.csv"]
