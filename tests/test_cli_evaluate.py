"""``evaluate`` against independent loops: the DM win table and its test count."""

import csv
import itertools
import json

import numpy as np
import pytest

import cocomb.cli
from cocomb.cli import main
from conftest import evaluation_csvs
from oracles import dm_win_table

HORIZON_SPECS = {"1:3": [1, 2, 3], "3,1": [3, 1], "1,1": [1]}  # a repeat counts once


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
    """One batched call per (loss, horizon row), each testing every unordered pair and
    series once, on the losses the ordered-pair oracle tests."""
    calls = []
    dm_test = cocomb.cli.dm_test
    monkeypatch.setattr(cocomb.cli, "dm_test",
                        lambda a, b, h: calls.append((a, b, h)) or dm_test(a, b, h=h))
    paths, series, actuals, forecasts = evaluation_csvs(tmp_path, rng)
    run_evaluate(tmp_path, paths, "1:3")

    whose = {}  # loss series bytes -> (loss, horizon row, method, series)
    for loss_name, power in (("absolute", 1), ("squared", 2)):
        for h, hs in ((1, [1]), (2, [2]), (3, [3]), ("all", [1, 2, 3])):
            for m, f_m in forecasts.items():
                for i, s in enumerate(series):
                    loss = np.concatenate(
                        [np.abs(actuals[hh][:, i] - f_m[hh][:, i]) ** power for hh in hs])
                    whose[loss.tobytes()] = (loss_name, h, m, s)
    pairs = set(itertools.combinations(sorted(forecasts), 2))
    rows = []
    for a, b, h in calls:
        assert a.shape == b.shape == (len(pairs), len(series), a.shape[-1])
        cells = [(whose[a_r.tobytes()], whose[b_r.tobytes()])
                 for a_r, b_r in zip(a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1]))]
        (loss_name, h_row), = {ca[:2] for ca, _ in cells} | {cb[:2] for _, cb in cells}
        assert h == (3 if h_row == "all" else h_row)
        assert all(ca[3] == cb[3] and ca[2] != cb[2] for ca, cb in cells)  # same series
        tested = sorted((tuple(sorted((ca[2], cb[2]))), ca[3]) for ca, cb in cells)
        assert tested == sorted(itertools.product(pairs, series))  # each once
        rows.append((loss_name, h_row))
    # 2 losses x (3 horizons + "all"), one call each
    assert sorted(rows, key=str) == sorted(
        itertools.product(("absolute", "squared"), (1, 2, 3, "all")), key=str)
    assert len(calls) == 8


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


def test_repeated_horizons_are_used_once(tmp_path, rng):
    """``--horizons 1,1,2`` writes the same accuracy and DM tables as ``1,2``."""
    paths, *_ = evaluation_csvs(tmp_path, rng)
    tables = []
    for k, horizons in enumerate(("1,1,2", "1,2")):
        out, dm_out = tmp_path / f"accuracy{k}.csv", tmp_path / f"dm{k}.csv"
        assert main([
            "evaluate", "--actuals", str(paths[0]), "--forecasts", str(paths[1]),
            "--horizons", horizons, "--dm", "--output", str(out), "--dm-output", str(dm_out),
        ]) == 0
        tables.append((out.read_bytes(), dm_out.read_bytes()))
    assert tables[0] == tables[1]


def test_dm_output_without_dm_exits_2(tmp_path, rng, capsys):
    """``--dm-output`` names the file ``--dm`` writes; alone it is a usage error."""
    paths, *_ = evaluation_csvs(tmp_path, rng)
    out = tmp_path / "out"
    code = main([
        "evaluate", "--actuals", str(paths[0]), "--forecasts", str(paths[1]),
        "--horizons", "3,1", "--output", str(out / "accuracy.csv"),
        "--dm-output", str(out / "dm.csv"),
    ])
    assert code == 2
    assert "--dm-output" in capsys.readouterr().err
    assert not out.exists()


def test_zero_benchmark_warning_is_one_json_line(tmp_path, capsys):
    """The benchmark's zero loss on one series is reported on stderr as JSON, exit 0."""
    paths = tmp_path / "actuals.csv", tmp_path / "forecasts.csv"
    actual = {("a", q): q + 1.0 for q in range(10)} | {("b", q): 2.0 * q for q in range(10)}
    paths[0].write_text("series,horizon,q,value\n" + "".join(
        f"{s},1,{q},{v!r}\n" for (s, q), v in actual.items()))
    shift = {("ew", "a"): 0.0, ("ew", "b"): 0.5, ("other", "a"): 1.0, ("other", "b"): 1.0}
    paths[1].write_text("method,series,horizon,q,value\n" + "".join(
        f"{m},{s},1,{q},{v + shift[m, s]!r}\n" for m in ("ew", "other")
        for (s, q), v in actual.items()))
    out = tmp_path / "accuracy.csv"
    code = main(["evaluate", "--actuals", str(paths[0]), "--forecasts", str(paths[1]),
                 "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 0 and out.exists()
    assert "UserWarning" not in err
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "code": "warning",
        "message": "excluded 2 zero-benchmark cells from the relative indices"}
