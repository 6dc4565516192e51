"""Malformed constraint JSON and panel, residual and evaluation CSVs: exit 3, a
schema error naming the defect, no output; an unusable ``--horizons``,
``--jobs`` or ``--methods`` exits 2."""

import csv
import errno
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import cocomb.cli
import oracles
from cocomb.cli import COV_CHOICES, main
from conftest import evaluation_csvs, overflowing_residuals

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
    "panel-float-horizon": (
        "panel", lambda ls: ls + ["total,alpha,1.0,17.0"],
        ["bad horizon '1.0' in panel CSV"]),
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

# keys beyond int64, which the row readers (Python ints) take without complaint;
# an extra field outside ASCII makes the cast of an object column refuse them
INT64_DEFECTS = {
    "panel-horizon-beyond-int64": (
        "panel", lambda ls: ls + ["total,alpha,9223372036854775808,17.0"],
        ["bad horizon '9223372036854775808' in panel CSV"]),
    "resid-t-beyond-int64": (
        "residuals", lambda ls: ls + ["9223372036854775808,total,alpha,0.5"],
        ["bad t '9223372036854775808' in residual CSV"]),
    "resid-t-beyond-int64-outside-ascii": (
        "residuals", lambda ls: ls + ["9223372036854775808,total,alpha,0.5,\u00e9"],
        ["bad t '9223372036854775808' in residual CSV"]),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS) + sorted(INT64_DEFECTS))
def test_malformed_input_exits_3_without_output(tmp_path, capsys, defect):
    which, edit, fragments = {**DEFECTS, **INT64_DEFECTS}[defect]
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


def test_missing_panel_file_exits_3(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    out = tmp_path / "out" / "coherent.csv"
    code = main(["reconcile", "--constraints", str(SAMPLE / "constraints.json"),
                 "--panel", str(panel), "--residuals", str(SAMPLE / "residuals.csv"),
                 "--output", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"code": "schema", "message": f"panel file not found: {panel}"}
    assert not out.parent.exists()


def test_reconcile_without_residuals_exits_3(tmp_path, capsys):
    out = tmp_path / "out" / "coherent.csv"
    code = main(["reconcile", "--constraints", str(SAMPLE / "constraints.json"),
                 "--panel", str(SAMPLE / "panel.csv"), "--output", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "schema" and "requires --residuals" in err["message"]
    assert not out.parent.exists()


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
    "forecasts-series-missing": (
        "forecasts", lambda ls: [line for line in ls if line.split(",")[1] != "west"],
        ["forecasts CSV does not cover the actuals' series and (horizon, q) cells"]),
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


# a field beyond csv.field_size_limit() (131072 by default), which every reader
# lifts: (input edited, edit of its lines, fragments the error message must
# contain). Each long data row is followed by a short row, which numpy's
# tokenizer refuses: the file then reaches csv.DictReader, which must name the
# file's real defect, not the long field.
LONG_LABEL = "\u00e9" * 140_000
FIELD_LIMIT_DEFECTS = {
    "panel": ("panel", lambda ls: ls + [f"{LONG_LABEL},alpha,1,1.0", "west"],
              ["panel CSV", "has too few fields"]),
    "residuals": ("residuals", lambda ls: ls + [f"0,{LONG_LABEL},alpha,0.5", "0"],
                  ["residual CSV", "has too few fields"]),
    "residuals-header": ("residuals", lambda ls: [f"{ls[0]},{LONG_LABEL}"] + ls[1:],
                         ["residual CSV", "line 2 has too few fields"]),
    "actuals": ("actuals", lambda ls: ls + [f"{LONG_LABEL},1,0,0.0", "east"],
                ["actuals CSV", "has too few fields"]),
    "constraints": ("constraints", lambda ls: ls + [f'"{LONG_LABEL}",0,0'],
                    ["non-numeric entry in constraint CSV"]),
    "forecasts": ("forecasts", lambda ls: ls + [f"occ,{LONG_LABEL},1,0,0.0", "occ"],
                  ["forecasts CSV", "has too few fields"]),
}


def edited_inputs_argv(tmp_path, rng, which, edit):
    """(argv, output directory): reconcile on the sample panel, residuals and a
    CSV constraint system, or evaluate, with input ``which`` edited by ``edit``."""
    panel_path, resid_path = tmp_path / "panel.csv", tmp_path / "residuals.csv"
    panel_path.write_text("\n".join(PANEL_LINES) + "\n")
    resid_path.write_text("\n".join(RESID_LINES) + "\n")
    constraints_path = tmp_path / "constraints.csv"
    constraints_path.write_text("total,east,west\n1,-1,-1\n")
    (actuals_path, forecasts_path), *_ = evaluation_csvs(tmp_path, rng)
    target = {"panel": panel_path, "residuals": resid_path, "constraints": constraints_path,
              "actuals": actuals_path, "forecasts": forecasts_path}[which]
    target.write_text("\n".join(edit(target.read_text().splitlines())) + "\n")
    out = tmp_path / "out"
    if which in ("panel", "residuals", "constraints"):
        constraints = constraints_path if which == "constraints" else SAMPLE / "constraints.json"
        return ["reconcile", "--constraints", str(constraints),
                "--panel", str(panel_path), "--residuals", str(resid_path),
                "--output", str(out / "coherent.csv")], out
    return ["evaluate", "--actuals", str(actuals_path), "--forecasts", str(forecasts_path),
            "--horizons", "1:3", "--output", str(out / "accuracy.csv")], out


@pytest.mark.parametrize("defect", sorted(FIELD_LIMIT_DEFECTS))
def test_field_beyond_the_csv_limit_exits_3_without_output(tmp_path, rng, capsys, defect):
    which, edit, fragments = FIELD_LIMIT_DEFECTS[defect]
    argv, out = edited_inputs_argv(tmp_path, rng, which, edit)
    limit = csv.field_size_limit()
    code, line = error_of(argv, capsys)
    assert csv.field_size_limit() == limit  # restored
    assert code == 3
    err = json.loads(line)
    assert err["code"] == "schema"
    assert "field limit" not in err["message"]
    for fragment in fragments:
        assert fragment in err["message"]
    assert not out.exists()


# one record holding a label, alone at the end of the file: (input edited, the
# record as a format string, exit code, fragment of the message). The panel's
# empty horizon takes its default, which numpy refuses, so that file is read
# by csv.DictReader; the others stay on numpy's tokenizer.
LONG_LABEL_RECORDS = {
    "panel": ("panel", "{},alpha,1,1.0", 3, "unknown series"),
    "panel-default-horizon": ("panel", "{},alpha,,1.0", 3, "unknown series"),
    "residuals": ("residuals", "0,{},alpha,0.5", 3, "unknown series"),
    "actuals": ("actuals", "{},1,0,0.0", 3, "must hold every (series, horizon, q) cell"),
    "forecasts": ("forecasts", "occ,{},1,0,0.0", 0, None),  # a series evaluate never reads
}


@pytest.mark.parametrize("case", sorted(LONG_LABEL_RECORDS))
def test_a_field_beyond_the_csv_limit_is_judged_on_its_merits(tmp_path, capsys, case):
    """A label over the csv module's default field limit gets what a short label
    unknown to the inputs gets in its place: the same exit code, message and output."""
    which, record, expected_code, fragment = LONG_LABEL_RECORDS[case]
    outcomes = []
    for label in (LONG_LABEL, "far"):
        (tmp_path / label[:3]).mkdir()
        argv, out = edited_inputs_argv(tmp_path / label[:3], np.random.default_rng(5), which,
                                       lambda ls: ls + [record.format(label)])
        code, err = main(argv), capsys.readouterr().err
        written = {path.name: path.read_bytes() for path in out.glob("*.csv")}
        outcomes.append((code, err.replace(json.dumps(label)[1:-1], "<label>"), written))
    assert outcomes[0] == outcomes[1]
    code, err, _ = outcomes[0]
    assert code == expected_code
    if fragment is not None:
        assert fragment in json.loads(err)["message"]


# a NUL byte: the one input that still reaches the readers' csv.Error handler,
# as csv.reader refuses it up to Python 3.10; from 3.11 on it is a character of
# the name it sits in, which then names no expected column or variable
NUL_DEFECTS = {
    "panel-header": ("panel", lambda ls: [ls[0].replace("value", "val\0ue")] + ls[1:],
                     "must have columns"),
    "constraints-header": ("constraints", lambda ls: [ls[0].replace("east", "ea\0st")] + ls[1:],
                           "unknown series 'east'"),
}


@pytest.mark.parametrize("defect", sorted(NUL_DEFECTS))
def test_nul_byte_exits_3_without_output(tmp_path, rng, capsys, defect):
    which, edit, later = NUL_DEFECTS[defect]
    argv, out = edited_inputs_argv(tmp_path, rng, which, edit)
    code, line = error_of(argv, capsys)
    assert code == 3
    message = json.loads(line)["message"]
    assert ("line contains NUL" if sys.version_info < (3, 11) else later) in message
    assert not out.exists()


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
    "truncated": ('{"A": [[1, 1]], "upper": ["total"], "bott', "invalid JSON in"),
    "A-without-bottom": ('{"A": [[1, 1]], "upper": ["total"]}',
                         "A-form JSON requires 'upper' and 'bottom' lists"),
    "C-without-vars": ('{"C": [[1, -1, -1]]}', "C-form JSON requires a 'vars' list"),
    "neither-A-nor-C": ('{"vars": ["total", "east", "west"]}',
                        "constraint JSON must provide either 'A' or 'C'"),
    "vars-count-differs": ('{"C": [[1, -1, -1]], "vars": ["total", "east"]}',
                           "expected 3 labels, got 2"),
    "NaN-entry": ('{"C": [[1, NaN, -1]], "vars": ["total", "east", "west"]}',
                  "constraint matrix contains non-finite entries"),
}

# constraint CSVs (header of names, one row of coefficients per constraint) that
# are no constraint system: (file text, message fragment)
BAD_CONSTRAINT_CSV = {
    "header-only": ("total,east,west\n",
                    "constraint CSV needs a header row and at least one constraint"),
    "non-numeric-entry": ("total,east,west\n1,x,-1\n", "non-numeric entry in constraint CSV"),
    "row-shorter-than-header": ("total,east,west\n1,-1\n",
                                "constraint CSV rows do not match the header length"),
    "ragged-rows": ("total,east,west\n1,-1,-1\n1,-1\n",
                    "constraint CSV rows do not match the header length"),
}


def reconcile_sample(constraints, out):
    return main(["reconcile", "--constraints", str(constraints),
                 "--panel", str(SAMPLE / "panel.csv"),
                 "--residuals", str(SAMPLE / "residuals.csv"), "--output", str(out)])


def reconcile_under(constraints, text, capsys):
    """Exit code, and the last stderr JSON line, of reconcile on the sample under
    the constraint file ``constraints`` written with ``text``."""
    constraints.write_text(text)
    code = reconcile_sample(constraints, constraints.parent / "coherent.csv")
    return code, json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("case", sorted(BAD_CONSTRAINT_JSON))
def test_malformed_constraint_json_exits_3_without_output(tmp_path, capsys, case):
    text, fragment = BAD_CONSTRAINT_JSON[case]
    code, err = reconcile_under(tmp_path / "constraints.json", text, capsys)
    assert code == 3
    assert err["code"] == "schema" and fragment in err["message"]
    assert not (tmp_path / "coherent.csv").exists()


@pytest.mark.parametrize("case", sorted(BAD_CONSTRAINT_CSV))
def test_malformed_constraint_csv_exits_3_without_output(tmp_path, capsys, case):
    text, fragment = BAD_CONSTRAINT_CSV[case]
    code, err = reconcile_under(tmp_path / "constraints.csv", text, capsys)
    assert code == 3
    assert err["code"] == "schema" and fragment in err["message"]
    assert not (tmp_path / "coherent.csv").exists()


def test_constraints_leaving_no_free_variable_exit_4(tmp_path, capsys):
    text = '{"C": [[1, -1, -1], [0, 1, 0], [0, 0, 1]], "vars": ["total", "east", "west"]}'
    code, err = reconcile_under(tmp_path / "constraints.json", text, capsys)
    assert code == 4
    assert err == {"code": "numeric",
                   "message": "constraints must leave at least one free variable"}
    assert not (tmp_path / "coherent.csv").exists()


@pytest.mark.parametrize("text", [
    '{"A": [[1, 1]], "upper": [" total"], "bottom": ["east ", " west "]}',
    '{"C": [[1, -1, -1]], "vars": ["total ", " east", " west "]}',
])
def test_padded_json_labels_match_the_panel_labels(tmp_path, text):
    # JSON labels are stripped like every CSV label, so " east" names the panel's east
    padded = tmp_path / "padded.json"
    padded.write_text(text)
    plain_out, padded_out = tmp_path / "plain.csv", tmp_path / "padded.csv"
    assert reconcile_sample(SAMPLE / "constraints.json", plain_out) == 0
    assert reconcile_sample(padded, padded_out) == 0
    assert padded_out.read_bytes() == plain_out.read_bytes()


@pytest.mark.parametrize("text", [
    '{"A": [[1, 1]], "upper": ["total"], "bottom": ["east", " east"]}',
    '{"C": [[1, -1, -1]], "vars": ["total", "west ", " west"]}',
])
def test_json_labels_equal_once_stripped_exit_3(tmp_path, capsys, text):
    constraints = tmp_path / "constraints.json"
    constraints.write_text(text)
    out = tmp_path / "coherent.csv"
    assert reconcile_sample(constraints, out) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "schema" and "labels must be unique" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_simulate_jobs_below_one_exits_2(tmp_path, capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
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


def overflow_inputs(tmp_path):
    """(constraint JSON, panel CSV, residual CSV) of ``overflowing_residuals``."""
    sys_, panel, resid = overflowing_residuals()
    constraints, panel_csv, resid_csv = (tmp_path / name for name in (
        "constraints.json", "panel.csv", "residuals.csv"))
    constraints.write_text(json.dumps({"A": sys_.A.tolist(), "upper": list(sys_.labels[:1]),
                                       "bottom": list(sys_.labels[1:])}))
    cells = [(panel.labels[i], panel.experts[j])
             for i, j in zip(panel.var_idx.tolist(), panel.exp_idx.tolist())]
    panel_csv.write_text("series,expert,value\n" + "".join(f"{s},{e},10.0\n" for s, e in cells))
    resid_csv.write_text("t,series,expert,value\n" + "".join(
        f"{t},{s},{e},{v!r}\n" for (s, e), row in zip(cells, resid.tolist())
        for t, v in enumerate(row)))
    return constraints, panel_csv, resid_csv


OVERFLOW_METHODS = {
    "occ-zc-be": ["--method", "occ", "--formulation", "zc-be"],
    "occ-struct-be": ["--method", "occ", "--formulation", "struct-be"],
    "scr-ew": ["--method", "scr-ew"],
    "scr-cov": ["--method", "scr-cov"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", sorted(OVERFLOW_METHODS))
@pytest.mark.parametrize("cov", sorted(COV_CHOICES))
def test_residuals_whose_products_overflow_exit_3_without_output(tmp_path, capsys, cov, method):
    # finite residuals whose squares overflow: every pattern refuses the
    # non-finite W before any solve, and stderr holds the error's JSON line alone
    constraints, panel, residuals = overflow_inputs(tmp_path)
    out = tmp_path / "out"
    code = main(["reconcile", "--constraints", str(constraints), "--panel", str(panel),
                 "--residuals", str(residuals), "--cov", cov, *OVERFLOW_METHODS[method],
                 "--output", str(out / "coherent.csv"),
                 "--emit-weights", str(out / "weights.csv"), "--emit-cov", str(out / "cov.csv")])
    assert code == 3
    assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
        {"code": "schema", "message": "covariance contains non-finite entries"}]
    assert not out.exists()


# (the input whose ``edited_inputs_argv`` to run, the file to spoil): a label
# of that file gets a Latin-1 byte (0xe9), so the file is not UTF-8
NOT_UTF8 = {
    "panel": ("panel", "panel.csv"),
    "residuals": ("residuals", "residuals.csv"),
    "constraints-csv": ("constraints", "constraints.csv"),
    "constraints-json": ("panel", "constraints.json"),
    "actuals": ("actuals", "actuals.csv"),
    "forecasts": ("forecasts", "forecasts.csv"),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_input_outside_utf8_exits_3_naming_the_file(tmp_path, rng, capsys, case):
    which, name = NOT_UTF8[case]
    argv, out = edited_inputs_argv(tmp_path, rng, which, lambda lines: lines)
    path = tmp_path / name
    if name == "constraints.json":  # the argv names the sample's: point it at a copy
        shutil.copy(SAMPLE / name, path)
        argv[argv.index("--constraints") + 1] = str(path)
    path.write_bytes(path.read_bytes().replace(b"east", b"\xe9ast"))
    code, text = main(argv), capsys.readouterr().err
    assert code == 3
    assert len(text.splitlines()) == 1 and "Traceback" not in text
    err = json.loads(text)
    assert err["code"] == "schema"
    assert str(path) in err["message"] and "'utf-8' codec can't decode" in err["message"]
    assert not out.exists()


# (option, the command's input whose argv holds it)
INPUT_OPTIONS = {"--constraints": "panel", "--panel": "panel", "--residuals": "residuals",
                 "--actuals": "actuals", "--forecasts": "forecasts"}


@pytest.mark.parametrize("option", sorted(INPUT_OPTIONS))
def test_directory_as_input_exits_3_naming_it(tmp_path, rng, capsys, option):
    argv, out = edited_inputs_argv(tmp_path, rng, INPUT_OPTIONS[option], lambda lines: lines)
    argv[argv.index(option) + 1] = str(folder := tmp_path / "folder")
    folder.mkdir()
    code, line = error_of(argv, capsys)
    assert code == 3
    err = json.loads(line)
    assert err["code"] == "schema" and "cannot read " in err["message"]
    assert str(folder) in err["message"]
    assert not out.exists()


# (option, the command's input whose argv it joins)
OUTPUT_OPTIONS = {"--output": "panel", "--emit-weights": "panel", "--emit-cov": "panel",
                  "--dm-output": "actuals"}


@pytest.mark.parametrize("option", sorted(OUTPUT_OPTIONS))
def test_directory_as_output_exits_2(tmp_path, rng, capsys, option):
    argv, out = edited_inputs_argv(tmp_path, rng, OUTPUT_OPTIONS[option], lambda lines: lines)
    (folder := tmp_path / "folder").mkdir()
    if option == "--output":
        argv[argv.index(option) + 1] = str(folder)
    else:
        argv += [*(["--dm"] if option == "--dm-output" else []), option, str(folder)]
    assert main(argv) == 2
    assert f"Invalid value for '{option}'" in capsys.readouterr().err
    assert not out.exists() and not any(folder.iterdir())


# (input given a UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes one, the
# command's input whose argv holds it, the file's name, and an edit of its lines)
BOM_INPUTS = {
    "panel": ("panel", "panel.csv", lambda lines: lines),
    # an empty horizon takes its default: numpy refuses it, so csv.DictReader
    # reads the file again from the top, past the mark once more
    "panel-row-reader": ("panel", "panel.csv",
                         lambda lines: [lines[0], lines[1].replace(",1,", ",,"), *lines[2:]]),
    "residuals": ("residuals", "residuals.csv", lambda lines: lines),
    "constraints-csv": ("constraints", "constraints.csv", lambda lines: lines),
    "constraints-json": ("panel", "constraints.json", lambda lines: lines),
    "actuals": ("actuals", "actuals.csv", lambda lines: lines),
    "forecasts": ("forecasts", "forecasts.csv", lambda lines: lines),
}


@pytest.mark.parametrize("case", sorted(BOM_INPUTS))
def test_input_with_a_byte_order_mark_reads_as_without(tmp_path, rng, capsys, case):
    which, name, edit = BOM_INPUTS[case]
    argv, out = edited_inputs_argv(tmp_path, rng, which, edit)
    path = tmp_path / name
    if name == "constraints.json":  # the argv names the sample's: point it at a copy
        shutil.copy(SAMPLE / name, path)
        argv[argv.index("--constraints") + 1] = str(path)
    written = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(prefix + path.read_bytes())
        assert main(argv) == 0, capsys.readouterr().err
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
        shutil.rmtree(out)
    assert written[0] == written[1]
    assert len(written[0]) == 2  # the output and its manifest


def output_refused(argv, capsys, path):
    """Run ``argv``: exit 2 with one JSON line on stderr naming ``path``, no traceback."""
    code, err = main(argv), capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    message = json.loads(err)
    assert message["code"] == "output" and str(path) in message["message"]


def test_output_below_a_regular_file_exits_2(tmp_path, rng, capsys):
    argv, out = edited_inputs_argv(tmp_path, rng, "panel", lambda lines: lines)
    (afile := tmp_path / "afile").write_bytes(b"kept")
    argv[argv.index("--output") + 1] = str(target := afile / "coherent.csv")
    output_refused(argv, capsys, target)
    assert afile.read_bytes() == b"kept" and not out.exists()


def test_manifest_path_holding_a_directory_exits_2_writing_nothing(tmp_path, rng, capsys):
    argv, out = edited_inputs_argv(tmp_path, rng, "panel", lambda lines: lines)
    argv += ["--emit-weights", str(out / "weights.csv"), "--emit-cov", str(out / "cov.csv")]
    (manifest := out / "coherent.csv.manifest.json").mkdir(parents=True)
    output_refused(argv, capsys, manifest)
    assert list(out.iterdir()) == [manifest] and not any(manifest.iterdir())


def test_default_dm_path_holding_a_directory_exits_2_writing_nothing(tmp_path, rng, capsys):
    argv, out = edited_inputs_argv(tmp_path, rng, "actuals", lambda lines: lines)
    (dm_path := out / "accuracy.csv.dm.csv").mkdir(parents=True)
    output_refused(argv + ["--dm"], capsys, dm_path)
    assert list(out.iterdir()) == [dm_path] and not any(dm_path.iterdir())


# two outputs of one run naming one file (or, last, one file below the other):
# (input edited, the extra argv as a function of the output directory; its
# last item is the second spelling, the path refused)
SHARED_OUTPUTS = {
    "output-emit-weights": ("panel", lambda out: ["--emit-weights", str(out / "coherent.csv")]),
    "output-emit-cov": ("panel", lambda out: ["--emit-cov", str(out / "coherent.csv")]),
    "output-dm-output": ("actuals", lambda out: ["--dm", "--dm-output", str(out / "accuracy.csv")]),
    "emit-weights-manifest": (
        "panel", lambda out: ["--emit-weights", str(out / "coherent.csv.manifest.json")]),
    "dotdot": ("panel", lambda out: ["--emit-cov", str(out / ".." / "out" / "coherent.csv")]),
    "symlink": ("panel", lambda out: ["--emit-weights", str(out.parent / "link" / "coherent.csv")]),
    "below-output": ("panel", lambda out: ["--emit-weights", str(out / "coherent.csv" / "w.csv")]),
}


@pytest.mark.parametrize("case", sorted(SHARED_OUTPUTS))
def test_two_outputs_naming_one_file_exit_2_writing_nothing(tmp_path, rng, capsys, case):
    which, extra = SHARED_OUTPUTS[case]
    argv, out = edited_inputs_argv(tmp_path, rng, which, lambda lines: lines)
    if case == "symlink":
        out.mkdir()
        (tmp_path / "link").symlink_to(out, target_is_directory=True)
    output_refused(argv + extra(out), capsys, extra(out)[-1])
    assert not any(out.iterdir()) if case == "symlink" else not out.exists()
    assert not list(tmp_path.rglob("*.tmp"))


def test_refused_output_creates_no_directory(tmp_path, rng, capsys):
    argv, _ = edited_inputs_argv(tmp_path, rng, "panel", lambda lines: lines)
    (afile := tmp_path / "afile").write_bytes(b"kept")
    argv[argv.index("--output") + 1] = str(tmp_path / "new" / "sub" / "c.csv")
    output_refused(argv + ["--emit-weights", str(afile / "w.csv")], capsys, afile / "w.csv")
    assert not (tmp_path / "new").exists() and not list(tmp_path.rglob("*.tmp"))
    assert afile.read_bytes() == b"kept"
    assert main(argv) == 0  # the same output alone makes its directories
    assert sorted(p.name for p in (tmp_path / "new" / "sub").iterdir()) == [
        "c.csv", "c.csv.manifest.json"]


def fail_second_staged_rename(monkeypatch):
    """Make the second temp file renamed into place fail with ENOSPC; returns
    the list of targets renamed to, that one included."""
    real_replace, renamed = os.replace, []

    def replace(src, dst):
        if str(src).endswith(".tmp"):  # a staged output, renamed into place
            renamed.append(dst)
            if len(renamed) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return renamed


@pytest.mark.parametrize("existing", [False, True])
def test_failed_rename_leaves_every_target_as_it_was(tmp_path, rng, capsys, monkeypatch, existing):
    """The second temp file renamed into place fails with ENOSPC: the run exits 2,
    removes the outputs renamed before it and puts back the files they replaced,
    leaving no temp or set-aside file. Reruns keep no set-aside file either."""
    argv, out = edited_inputs_argv(tmp_path, rng, "panel", lambda lines: lines)
    argv[argv.index("--output") + 1] = str(coherent := out / "c.csv")
    argv += ["--emit-weights", str(weights := out / "w.csv")]
    out.mkdir()
    if existing:
        coherent.write_bytes(b"old forecasts\n")
    renamed = fail_second_staged_rename(monkeypatch)
    output_refused(argv, capsys, weights)  # renamed second, after c.csv
    assert renamed[:2] == [coherent, weights]
    assert sorted(p.name for p in out.iterdir()) == (["c.csv"] if existing else [])
    if existing:
        assert coherent.read_bytes() == b"old forecasts\n"
    monkeypatch.undo()
    for _ in range(2):
        assert main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == ["c.csv", "c.csv.manifest.json", "w.csv"]


@pytest.mark.parametrize("existing", [(), ("new",)], ids=["none", "new"])
def test_failed_rename_removes_the_directories_the_run_made(tmp_path, rng, capsys, monkeypatch,
                                                            existing):
    """The weights go to ``new/sub/``, which the run makes before renaming; the
    second rename fails: the run exits 2 and removes what it made, deepest
    first, and keeps every directory that was there before."""
    argv, out = edited_inputs_argv(tmp_path, rng, "panel", lambda lines: lines)
    argv[argv.index("--output") + 1] = str(coherent := out / "c.csv")
    argv += ["--emit-weights", str(weights := out / "new" / "sub" / "w.csv")]
    out.mkdir()
    for name in existing:
        (out / name).mkdir()
    renamed = fail_second_staged_rename(monkeypatch)
    output_refused(argv, capsys, weights)
    assert renamed[:2] == [coherent, weights]
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == list(existing)
