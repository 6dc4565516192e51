"""Malformed constraint JSON and panel, residual and evaluation CSVs: exit 3, a
schema error naming the defect, no output; an unusable ``--horizons``,
``--jobs`` or ``--methods`` exits 2."""

import json
from pathlib import Path

import pytest

import cocomb.cli
import oracles
from cocomb.cli import main
from conftest import evaluation_csvs

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"

PANEL_LINES = (SAMPLE / "panel.csv").read_text().splitlines()
RESID_LINES = (SAMPLE / "residuals.csv").read_text().splitlines()

# (input edited, edit of its lines, fragments the error message must contain)
DEFECTS = {
    "resid-unknown-series": (
        "residuals", lambda ls: ls + ["0,north,alpha,0.5"],
        ["unknown series 'north'", "residual"]),
    "resid-unknown-expert": (
        "residuals", lambda ls: ls + ["0,total,omega,0.5"],
        ["unknown expert 'omega'", "residual"]),
    "resid-pair-not-in-panel": (
        "residuals", lambda ls: ls + ["0,east,alpha,0.5"],
        ["('east', 'alpha')", "residual", "panel"]),
    "resid-duplicate-cell": (
        "residuals", lambda ls: ls + ["0,total,alpha,0.5"],
        ["duplicate", "residual", "'total'", "'alpha'"]),
    "resid-missing-cell": (
        "residuals", lambda ls: ls[:-1],
        ["residual CSV does not cover every (series, expert, t) cell"]),
    "resid-non-integer-t": (
        "residuals", lambda ls: ls + ["1.5,total,alpha,0.5"],
        ["residual", "'1.5'"]),
    "resid-single-time-point": (
        "residuals", lambda ls: ls[:1] + [line for line in ls[1:] if line.startswith("0,")],
        ["residuals", "two time points"]),
    "panel-unknown-series": (
        "panel", lambda ls: ls + ["north,alpha,1,1.0"],
        ["'north'"]),
    "panel-duplicate-cell": (
        "panel", lambda ls: ls + ["total,alpha,1,17.0"],
        ["duplicate", "'total'", "'alpha'", "horizon 1"]),
    "panel-bad-horizon": (
        "panel", lambda ls: ls + ["total,alpha,one,17.0"],
        ["bad horizon 'one' in panel CSV"]),
    "panel-non-numeric-value": (
        "panel", lambda ls: ls + ["total,alpha,2,abc"],
        ["non-numeric panel value 'abc'"]),
    "panel-availability-differs": (
        "panel", lambda ls: ls + ["total,alpha,2,17.0"],
        ["panel", "horizon"]),
    "panel-empty": (
        "panel", lambda ls: ls[:1],
        ["panel CSV", "no forecasts"]),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_malformed_input_exits_3_without_output(tmp_path, capsys, defect):
    which, edit, fragments = DEFECTS[defect]
    panel_path, resid_path = tmp_path / "panel.csv", tmp_path / "residuals.csv"
    panel_path.write_text("\n".join(PANEL_LINES) + "\n")
    resid_path.write_text("\n".join(RESID_LINES) + "\n")
    target = panel_path if which == "panel" else resid_path
    target.write_text("\n".join(edit(target.read_text().splitlines())) + "\n")
    out = tmp_path / "out" / "coherent.csv"
    code = main([
        "reconcile",
        "--constraints", str(SAMPLE / "constraints.json"),
        "--panel", str(panel_path),
        "--residuals", str(resid_path),
        "--method", "occ",
        "--output", str(out),
        "--emit-weights", str(tmp_path / "out" / "weights.csv"),
    ])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "schema"
    for fragment in fragments:
        assert fragment in err["message"]
    assert not out.parent.exists() or not any(out.parent.iterdir())


@pytest.mark.parametrize("which", ["panel", "residual"])
def test_short_row_exits_3(tmp_path, capsys, which):
    panel_path, resid_path = tmp_path / "panel.csv", tmp_path / "residuals.csv"
    panel_path.write_text("\n".join(PANEL_LINES) + "\n")
    resid_path.write_text("\n".join(RESID_LINES) + "\n")
    target = panel_path if which == "panel" else resid_path
    target.write_text(target.read_text() + "west,alpha\n")
    code = main([
        "reconcile",
        "--constraints", str(SAMPLE / "constraints.json"),
        "--panel", str(panel_path),
        "--residuals", str(resid_path),
        "--output", str(tmp_path / "coherent.csv"),
    ])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "schema" and "too few fields" in err["message"]
    assert not (tmp_path / "coherent.csv").exists()


def with_value(line, value):
    return line.rsplit(",", 1)[0] + "," + value


def edit_value(lines, match, value):
    """Set the value of the first data line whose fields satisfy ``match``."""
    k = next(k for k, line in enumerate(lines) if k and match(line.split(",")))
    return lines[:k] + [with_value(lines[k], value)] + lines[k + 1:]


# evaluation input that gives numbers without complaint unless rejected:
# (input edited, edit of its lines, fragments the error message must contain)
EVAL_DEFECTS = {
    "actuals-duplicate-cell": (
        "actuals", lambda ls: ls + [with_value(ls[1], "0.0")],
        ["actuals CSV must hold every (series, horizon, q) cell exactly once", "appears 2 times"]),
    "forecasts-duplicate-cell": (
        "forecasts", lambda ls: ls + [with_value(ls[1], "0.0")],
        ["forecasts CSV must hold every (method, series, horizon, q) cell exactly once",
         "appears 2 times"]),
    "actuals-nan": (
        "actuals", lambda ls: edit_value(ls, lambda f: f[1] == "2", "nan"),
        ["non-finite value nan", "horizon 2", "actuals CSV"]),
    "forecasts-inf": (
        "forecasts", lambda ls: edit_value(ls, lambda f: f[0] == "occ", "inf"),
        ["non-finite value inf", "method 'occ'", "forecasts CSV"]),
    "actuals-series-missing-at-one-horizon": (
        "actuals", lambda ls: [line for line in ls if not line.startswith("east,2,")],
        ["actuals CSV must hold every", "series 'east', horizon 2, q 0 appears 0 times"]),
}


@pytest.mark.parametrize("defect", sorted(EVAL_DEFECTS))
def test_malformed_evaluation_input_exits_3_without_output(tmp_path, rng, capsys, defect):
    which, edit, fragments = EVAL_DEFECTS[defect]
    (actuals_path, forecasts_path), *_ = evaluation_csvs(tmp_path, rng)
    target = actuals_path if which == "actuals" else forecasts_path
    target.write_text("\n".join(edit(target.read_text().splitlines())) + "\n")
    out = tmp_path / "out"
    code = main([
        "evaluate", "--actuals", str(actuals_path), "--forecasts", str(forecasts_path),
        "--horizons", "1:3", "--dm",
        "--output", str(out / "accuracy.csv"), "--dm-output", str(out / "dm.csv"),
    ])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "schema"
    for fragment in fragments:
        assert fragment in err["message"]
    assert not out.exists() or not any(out.iterdir())


# defects the tables above leave out, all at the end of the file
MORE_DEFECTS = {
    "panel-short-row": ("panel", lambda ls: ls + ["west,alpha"]),
    "resid-short-row": ("residuals", lambda ls: ls + ["0,west"]),
    "panel-short-row-after-blank-lines": ("panel", lambda ls: ls + ["", "", "west,alpha"]),
    "panel-bad-horizon-extra-fields": ("panel", lambda ls: ls + ["total,alpha,one,17.0,x,y"]),
    "resid-empty-t": ("residuals", lambda ls: ls + [",total,alpha,0.5"]),
}
MORE_EVAL_DEFECTS = {
    "actuals-bad-q-extra-fields": ("actuals", lambda ls: ls + ["east,1,1.5,0.0,extra"]),
    "forecasts-short-row": ("forecasts", lambda ls: ls + ["occ,east,1"]),
    "forecasts-non-numeric-value": ("forecasts", lambda ls: ls + ["occ,east,1,0,abc"]),
}


def error_of(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err.strip().splitlines()[-1]


def run_with_row_readers(monkeypatch, argv, capsys):
    """Exit code and error line of ``argv`` read through the row-by-row oracle readers."""
    with monkeypatch.context() as patch:
        patch.setattr(cocomb.cli, "_read_panel_csv", oracles.read_panel_csv)
        patch.setattr(cocomb.cli, "_read_residual_csv", oracles.read_residual_csv)
        patch.setattr(cocomb.cli, "_read_eval_csv", oracles.read_eval_csv)
        return error_of(argv, capsys)


@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
@pytest.mark.parametrize("defect", sorted(DEFECTS) + sorted(MORE_DEFECTS))
def test_input_defect_in_any_chunk_gives_the_row_reader_error(
        tmp_path, capsys, monkeypatch, defect, chunk_rows):
    """Exit code and message equal those of a row-by-row read, wherever the chunks end."""
    which, edit = {**DEFECTS, **MORE_DEFECTS}[defect][:2]
    panel_path, resid_path = tmp_path / "panel.csv", tmp_path / "residuals.csv"
    panel_path.write_text("\n".join(PANEL_LINES) + "\n")
    resid_path.write_text("\n".join(RESID_LINES) + "\n")
    target = panel_path if which == "panel" else resid_path
    target.write_text("\n".join(edit(target.read_text().splitlines())) + "\n")
    argv = ["reconcile", "--constraints", str(SAMPLE / "constraints.json"),
            "--panel", str(panel_path), "--residuals", str(resid_path),
            "--output", str(tmp_path / "out" / "coherent.csv")]
    expected = run_with_row_readers(monkeypatch, argv, capsys)
    assert expected[0] == 3
    if chunk_rows is not None:
        monkeypatch.setattr(cocomb.cli, "_CHUNK_ROWS", chunk_rows)
    assert error_of(argv, capsys) == expected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
@pytest.mark.parametrize("defect", sorted(EVAL_DEFECTS) + sorted(MORE_EVAL_DEFECTS))
def test_evaluation_defect_in_any_chunk_gives_the_row_reader_error(
        tmp_path, rng, capsys, monkeypatch, defect, chunk_rows):
    which, edit = {**EVAL_DEFECTS, **MORE_EVAL_DEFECTS}[defect][:2]
    (actuals_path, forecasts_path), *_ = evaluation_csvs(tmp_path, rng)
    target = actuals_path if which == "actuals" else forecasts_path
    target.write_text("\n".join(edit(target.read_text().splitlines())) + "\n")
    argv = ["evaluate", "--actuals", str(actuals_path), "--forecasts", str(forecasts_path),
            "--horizons", "1:3", "--dm", "--output", str(tmp_path / "out" / "accuracy.csv")]
    expected = run_with_row_readers(monkeypatch, argv, capsys)
    assert expected[0] == 3
    if chunk_rows is not None:
        monkeypatch.setattr(cocomb.cli, "_CHUNK_ROWS", chunk_rows)
    assert error_of(argv, capsys) == expected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizons", ["1:x", "a,b", "3:1", ""])
def test_bad_horizons_exits_2(tmp_path, rng, capsys, horizons):
    (actuals_path, forecasts_path), *_ = evaluation_csvs(tmp_path, rng)
    out = tmp_path / "out" / "accuracy.csv"
    code = main([
        "evaluate", "--actuals", str(actuals_path), "--forecasts", str(forecasts_path),
        "--horizons", horizons, "--output", str(out),
    ])
    assert code == 2
    assert "--horizons" in capsys.readouterr().err
    assert not out.parent.exists()


# JSON that parses but is no constraint system: (file text, message fragment)
BAD_CONSTRAINT_JSON = {
    "not-an-object": ("42", "must be an object"),
    "A-not-a-matrix": ('{"A": "x", "upper": ["total"], "bottom": ["east", "west"]}',
                       "'A' in constraint JSON must be a numeric rectangular matrix"),
    "C-non-numeric-entry": ('{"C": [[1, -1, "z"]], "vars": ["total", "east", "west"]}',
                            "'C' in constraint JSON must be a numeric rectangular matrix"),
    "A-ragged": ('{"A": [[1, 1], [1]], "upper": ["total", "t2"], "bottom": ["east", "west"]}',
                 "'A' in constraint JSON must be a numeric rectangular matrix"),
    "upper-a-number": ('{"A": [[1, 1]], "upper": 5, "bottom": ["east", "west"]}',
                       "'upper' in constraint JSON must be a list of strings"),
    "upper-a-string": ('{"A": [[1, 1]], "upper": "total", "bottom": ["east", "west"]}',
                       "'upper' in constraint JSON must be a list of strings"),
    "vars-a-string": ('{"C": [[1, -1, -1]], "vars": "tew"}',
                      "'vars' in constraint JSON must be a list of strings"),
    "bottom-holds-a-number": ('{"A": [[1, 1]], "upper": ["total"], "bottom": ["east", 7]}',
                              "'bottom' in constraint JSON must be a list of strings"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONSTRAINT_JSON))
def test_malformed_constraint_json_exits_3_without_output(tmp_path, capsys, case):
    text, fragment = BAD_CONSTRAINT_JSON[case]
    constraints = tmp_path / "constraints.json"
    constraints.write_text(text)
    out = tmp_path / "coherent.csv"
    code = main([
        "reconcile",
        "--constraints", str(constraints),
        "--panel", str(SAMPLE / "panel.csv"),
        "--residuals", str(SAMPLE / "residuals.csv"),
        "--output", str(out),
    ])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "schema" and fragment in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_simulate_jobs_below_one_exits_2(tmp_path, capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("cocomb.simulation.ProcessPoolExecutor", no_pool)
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--setting", "1", "--reps", "2", "--jobs", jobs,
                 "--output", str(out)])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods", ["", ",,", " , "])
def test_simulate_without_methods_exits_2(tmp_path, capsys, monkeypatch, methods):
    def no_run(*args, **kwargs):
        raise AssertionError("the experiment was run")

    monkeypatch.setattr("cocomb.cli.run_experiment", no_run)
    out = tmp_path / "out" / "sim.csv"
    code = main(["simulate", "--setting", "1", "--reps", "2", "--methods", methods,
                 "--output", str(out)])
    assert code == 2
    assert "--methods" in capsys.readouterr().err
    assert not out.parent.exists()
