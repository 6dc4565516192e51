"""``evaluate`` against independent loops: the DM win table and its test count."""

import csv

import pytest

import cocomb.cli
from cocomb.cli import main
from conftest import evaluation_csvs
from oracles import dm_win_table

HORIZON_SPECS = {"1:3": [1, 2, 3], "3,1": [3, 1], "1,1": [1, 1]}


def run_evaluate(tmp_path, paths, horizons):
    out, dm_out = tmp_path / "accuracy.csv", tmp_path / "dm.csv"
    code = main([
        "evaluate", "--actuals", str(paths[0]), "--forecasts", str(paths[1]),
        "--benchmark", "ew", "--horizons", horizons, "--dm",
        "--output", str(out), "--dm-output", str(dm_out),
    ])
    assert code == 0
    with open(dm_out, newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.mark.parametrize("horizons", sorted(HORIZON_SPECS))
def test_evaluate_dm_table_matches_ordered_pair_oracle(tmp_path, rng, horizons):
    paths, series, actuals, forecasts = evaluation_csvs(tmp_path, rng)
    rows = run_evaluate(tmp_path, paths, horizons)
    expected = dm_win_table(actuals, forecasts, sorted(forecasts), series,
                            HORIZON_SPECS[horizons])
    assert [(loss, h, a, b, float(pct)) for loss, h, a, b, pct in rows] == [
        (loss, str(h), a, b, pct) for loss, h, a, b, pct in expected]
    pct = {(loss, h, a, b): float(v) for loss, h, a, b, v in rows}
    assert all(v + pct[loss, h, b, a] <= 100.0 for (loss, h, a, b), v in pct.items())
    assert any(0.0 < v < 100.0 for v in pct.values())  # the table is not trivial


def test_evaluate_runs_one_dm_test_per_unordered_pair(tmp_path, rng, monkeypatch):
    calls = []
    dm_test = cocomb.cli.dm_test
    monkeypatch.setattr(cocomb.cli, "dm_test", lambda *a, **k: calls.append(1) or dm_test(*a, **k))
    paths, *_ = evaluation_csvs(tmp_path, rng)
    run_evaluate(tmp_path, paths, "1:3")
    # 4 methods -> 6 unordered pairs; 5 series; 3 horizons + "all"; 2 losses
    assert len(calls) == 6 * 5 * 4 * 2


def test_evaluate_dm_failure_writes_nothing(tmp_path, rng, capsys):
    """Five origins per series is too few for a DM test: exit 3, no accuracy CSV either."""
    paths, *_ = evaluation_csvs(tmp_path, rng)
    for path in paths:  # keep the header and the rows with q < 5
        lines = path.read_text().splitlines()
        path.write_text("\n".join(
            [lines[0]] + [line for line in lines[1:] if int(line.split(",")[-2]) < 5]) + "\n")
    out = tmp_path / "out"
    code = main([
        "evaluate", "--actuals", str(paths[0]), "--forecasts", str(paths[1]),
        "--horizons", "1:3", "--dm",
        "--output", str(out / "accuracy.csv"), "--dm-output", str(out / "dm.csv"),
    ])
    assert code == 3
    assert "need at least 10 loss observations" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
