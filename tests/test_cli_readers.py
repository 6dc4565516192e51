"""The chunked column readers against the row-by-row ``csv.DictReader`` readers.

Every reader must return the same labels and the same array bits as the
oracle in ``tests/oracles.py`` whatever the chunk size, or raise the oracle's
``DataError`` message: on shuffled files whose labels first appear in
different chunks, with blank lines, quoted labels holding commas, padded
labels, extra trailing fields, missing or empty horizons and a repeated column
name (the last one is read); at the end of input and at every line ending; on
generated CSV text; and on numbers spelled as only Python reads them. Inputs
that numpy reads, non-ASCII ones included, must not reach the
``csv.DictReader`` path at all.
"""

import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cocomb.cli
import oracles
from cocomb import from_aggregation, from_availability
from cocomb.exceptions import DataError
from conftest import evaluation_csvs

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"

CHUNKS = [1, 3, None]  # None: the module's own chunk size
SERIES = ("total, all", "east", "west", "north")
EXPERTS = ("alpha", "beta, b", "gamma")


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk{c or 'default'}")
def chunk_rows(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(cocomb.cli, "_CHUNK_ROWS", request.param)
    return request.param


def system():
    return from_aggregation(np.ones((1, 3)), list(SERIES))


def covered(rng):
    """(series, expert) pairs of an unbalanced panel: every series and expert used."""
    while True:
        mask = rng.random((len(SERIES), len(EXPERTS))) < 0.6
        if mask.any(axis=0).all() and mask.any(axis=1).all():
            return [(SERIES[i], EXPERTS[j]) for i, j in zip(*np.nonzero(mask))]


def pad(rng, label):
    return " " * int(rng.integers(0, 3)) + label + " " * int(rng.integers(0, 3))


def write_rows(path, rng, header, rows):
    """Shuffled rows with blank lines and, on some rows, extra trailing fields."""
    rows = [rows[i] for i in rng.permutation(len(rows))]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if rng.random() < 0.1:
                fh.write("\n")
            writer.writerow(list(row) + ["extra", "1"] * int(rng.random() < 0.2))
    return path


def value(rng):
    return repr(float(rng.standard_normal()))


@pytest.mark.parametrize("horizon", ["column", "some-empty", "missing"])
def test_panel_and_residual_readers_match_row_readers(tmp_path, chunk_rows, horizon):
    rng = np.random.default_rng(11)
    sys_, pairs = system(), covered(rng)
    horizons = [1] if horizon == "missing" else [1, 2, 3]
    # the first "value" column is junk: a repeated name means its last column
    rows = [["junk", pad(rng, s), pad(rng, e)]
            + ([] if horizon == "missing" else
               ["" if h == 1 and horizon == "some-empty" and rng.random() < 0.5 else str(h)])
            + [value(rng)] for h in horizons for s, e in pairs]
    header = ["value", "series", "expert"] + ([] if horizon == "missing" else ["horizon"])
    panel_path = write_rows(tmp_path / "panel.csv", rng, header + ["value"], rows)
    resid_path = write_rows(tmp_path / "residuals.csv", rng, ["t", "series", "expert", "value"],
                            [[str(t), pad(rng, s), pad(rng, e), value(rng)]
                             for t in range(7) for s, e in pairs])

    panel, got_h, got_y = cocomb.cli._read_panel_csv(panel_path, sys_)
    frame, want_h, want_y = oracles.read_panel_csv(panel_path, sys_)
    assert (panel.labels, panel.experts) == (frame.labels, frame.experts)
    np.testing.assert_array_equal(panel.availability, frame.availability)
    assert got_h == want_h == horizons
    assert got_y.tobytes() == want_y.tobytes() and got_y.shape == want_y.shape
    got_r = cocomb.cli._read_residual_csv(resid_path, panel)
    want_r = oracles.read_residual_csv(resid_path, frame)
    assert got_r.tobytes() == want_r.tobytes() and got_r.shape == want_r.shape


def test_evaluation_readers_match_row_readers(tmp_path, chunk_rows):
    rng = np.random.default_rng(12)
    methods = ("ew", "occ, be", "base")
    q_of = {1: range(11), 2: range(3, 13), 3: range(5)}  # horizon 3 is not read
    actual_rows = [[pad(rng, s), str(h), str(q), value(rng), "junk"]
                   for h, qs in q_of.items() for q in qs for s in SERIES[1:]]
    forecast_rows = [[pad(rng, m), pad(rng, s), str(h), str(q), value(rng)]
                     for m in methods for h, qs in q_of.items() for q in qs for s in SERIES]
    actuals = write_rows(tmp_path / "actuals.csv", rng,
                         ["series", "horizon", "q", "value", "value"],
                         [[s, h, q, "junk", v] for s, h, q, v, _ in actual_rows])
    forecasts = write_rows(tmp_path / "forecasts.csv", rng,
                           ["method", "series", "horizon", "q", "value"], forecast_rows)

    got = cocomb.cli._read_eval_csv(actuals, "actuals", ("series",), [2, 1])
    want = oracles.read_eval_csv(actuals, "actuals", ("series",), [2, 1])
    keep = set(want[0][0])  # "total, all" has forecasts but no actuals
    got_f = cocomb.cli._read_eval_csv(forecasts, "forecasts", ("method", "series"), [2, 1],
                                      keep=keep)
    want_f = oracles.read_eval_csv(forecasts, "forecasts", ("method", "series"), [2, 1],
                                   keep=keep)
    for (names, keys, grid), (names_o, keys_o, grid_o) in ((got, want), (got_f, want_f)):
        assert names == names_o
        assert keys.dtype == keys_o.dtype and keys.tolist() == keys_o.tolist()
        assert grid.shape == grid_o.shape and grid.tobytes() == grid_o.tobytes()
    assert got_f[0] == [sorted(methods), sorted(SERIES[1:])]


def test_first_appearance_spans_chunks(tmp_path, monkeypatch):
    """An expert first seen in a later chunk keeps its place in the expert order."""
    monkeypatch.setattr(cocomb.cli, "_CHUNK_ROWS", 2)
    path = tmp_path / "panel.csv"
    path.write_text("series,expert,value\n"
                    "east, gamma ,1\nwest,gamma,2\n\n\"total, all\",alpha,3\n"
                    "north,\"beta, b\",4\neast,alpha,5\n")
    panel, horizons, y_hat = cocomb.cli._read_panel_csv(path, system())
    assert panel.experts == ("gamma", "alpha", "beta, b")
    assert horizons == [1]
    assert y_hat[:, 0].tolist() == [1.0, 2.0, 3.0, 5.0, 4.0]  # by expert, then series


def fingerprint(result):
    """A reader's result as comparable values: labels, array dtypes, shapes and bits."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (list, tuple)):
        return tuple(map(fingerprint, result))
    if hasattr(result, "availability"):  # a panel
        return result.labels, result.experts, fingerprint(result.availability)
    return result


def outcome(read, *args):
    try:
        return "read", fingerprint(read(*args))
    except DataError as e:
        return "DataError", str(e)


def assert_readers_agree(path, sys_, horizons):
    """Panel, residual and evaluation readers against their row oracles on ``path``.

    A read equals the oracle's bits, and an error is the oracle's
    ``DataError`` message. Returns each reader's (outcome, oracle outcome).
    """
    panel_read = outcome(oracles.read_panel_csv, path, sys_)
    panel = (oracles.read_panel_csv(path, sys_)[0] if panel_read[0] == "read" else
             from_availability(np.ones((sys_.n, len(EXPERTS)), bool), sys_,
                               experts=tuple(e.strip() for e in EXPERTS)))
    pairs = []
    for read, oracle, args in (
            (cocomb.cli._read_panel_csv, oracles.read_panel_csv, (path, sys_)),
            (cocomb.cli._read_residual_csv, oracles.read_residual_csv, (path, panel)),
            (cocomb.cli._read_eval_csv, oracles.read_eval_csv,
             (path, "forecasts", ("expert", "series"), horizons))):
        got, want = outcome(read, *args), outcome(oracle, *args)
        assert got == want
        pairs.append((got, want))
    return pairs


def test_a_row_that_does_not_parse_is_named_before_an_unknown_label(tmp_path):
    """Row 1 names a series outside the panel, row 2 has too few fields: the
    residual reader, and its row oracle, report the short row."""
    path = tmp_path / "cells.csv"
    path.write_text("t,q,expert,value,series\n0,0,alpha,0.0,two\nlines\n")
    _, (residual, _), _ = assert_readers_agree(path, system(), [1])
    assert residual == ("DataError", f"residual CSV {path} line 3 has too few fields")


def csv_line(fields):
    csv.writer(buf := io.StringIO(), lineterminator="").writerow(fields)
    return buf.getvalue()


def end_of_input_lines(size):
    """Header and data lines of a file read as panel, residuals and forecasts.

    ``t`` is the residual key and ``horizon`` the panel key (both run over the
    same origins, one horizon per origin, ``q`` 0); the data lines are a
    whole number of chunks of ``size`` rows.
    """
    cells = [(s, e) for s in SERIES for e in EXPERTS]
    return [csv_line(["t", "q", "series", "expert", "horizon", "value"])] + [
        csv_line([r // len(cells), 0, *cells[r % len(cells)], r // len(cells) + 1,
                  repr(float(np.sin(r + 0.5)))])
        for r in range(math.lcm(len(cells), size))]


# case -> text of the file from its lines (header first) and the chunk size
END_OF_INPUT = {
    "blank-line-ends-each-chunk": lambda ls, size: "\n".join(
        ls[:1] + [x for k, row in enumerate(ls[1:], 1)
                  for x in ([row, ""] if k % size == 0 else [row])]) + "\n",
    "whitespace-only-line": lambda ls, size: "\n".join(
        ls[:size + 1] + [" \t "] + ls[size + 1:]) + "\n",
    "whole-number-of-chunks": lambda ls, size: "\n".join(ls) + "\n",
    "no-trailing-newline": lambda ls, size: "\n".join(ls),
    "header-only": lambda ls, size: ls[0] + "\n",
    "crlf": lambda ls, size: "\r\n".join(ls) + "\r\n",
    "bare-cr": lambda ls, size: "\r".join(ls) + "\r",
}


@pytest.mark.parametrize("case", sorted(END_OF_INPUT))
def test_end_of_input_matches_row_readers(tmp_path, chunk_rows, case):
    size = cocomb.cli._CHUNK_ROWS
    lines = end_of_input_lines(size)
    path = tmp_path / "cells.csv"
    path.write_text(END_OF_INPUT[case](lines, size), newline="")
    origins = (len(lines) - 1) // (len(SERIES) * len(EXPERTS))
    outcomes = assert_readers_agree(path, system(), list(range(1, origins + 1)))
    if case not in ("whitespace-only-line", "header-only"):
        assert all(got[0] == "read" for got, _ in outcomes)
    if case in ("crlf", "bare-cr"):  # reads as the same lines ended by "\n"
        path.write_text(END_OF_INPUT["whole-number-of-chunks"](lines, size), newline="")
        assert outcomes == assert_readers_agree(path, system(), list(range(1, origins + 1)))


QUOTED_SERIES = ("total, all", 'say "hi"', "two\nlines", "east")  # upper first


def spellings(label, clean):
    """``label`` as a CSV field: quoted, padded inside quotes or, where that keeps
    the field intact, bare or padded; unless ``clean``, also bare or padded
    whatever it holds, or with a space before the opening quote (which makes
    the quotes part of the field)."""
    quoted = '"' + label.replace('"', '""') + '"'
    kept = [quoted, quoted.replace('"', '" ', 1)]
    bare = [label, f" {label}  "]
    if not clean:
        return st.sampled_from(kept + bare + [" " + quoted])
    return st.sampled_from(kept + (bare if label.isalnum() else []))


@st.composite
def generated_csv(draw):
    """CSV text of (t, q, series, expert[, horizon], value) cells in any column
    order, with blank lines, extra fields, a repeated column name (its first
    copy junk), any line ending and spellings of labels and numbers; half the
    files also hold defects: short rows, empty horizons, broken quoting and
    non-finite values. A ``1_0`` value in half the files is read by Python alone,
    and half the files spell their junk outside ASCII."""
    clean = draw(st.booleans())
    names = draw(st.permutations(["t", "q", "series", "expert", "value"]
                                 + ["horizon"] * draw(st.booleans())))
    repeated = draw(st.sampled_from([[], ["value"], ["series"], ["t"]]))
    header = repeated + names
    balanced = draw(st.booleans())  # only a balanced file reads as forecasts
    pairs = [(s, e) for s in QUOTED_SERIES
             for e in (EXPERTS if balanced else draw(st.sets(st.sampled_from(EXPERTS),
                                                              min_size=1)))]
    keys = draw(st.integers(1, 3))
    cells = draw(st.permutations([(k, s, e) for k in range(keys) for s, e in pairs]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    python_only = ["1_0"] * draw(st.booleans())  # sends an ASCII file to csv.DictReader
    junk = draw(st.sampled_from(["junk", "j\u00fcnk"]))  # outside ASCII: object columns
    number = st.one_of(st.floats(allow_nan=not clean, allow_infinity=not clean).map(repr),
                       st.sampled_from([" 2 ", "-0", *python_only]))
    shapes = ["whole"] * 8 + ["extra", "blank-before"] + ([] if clean else ["short"])
    lines = [",".join(header)]
    for k, series, expert in cells:
        field = {"t": str(k), "q": str(k), "value": draw(number),
                 "horizon": draw(st.sampled_from([str(k + 1)] * 4 + [""] * (not clean))),
                 "series": draw(spellings(series, clean)),
                 "expert": draw(spellings(expert, clean))}
        row = [junk] * len(repeated) + [field[name] for name in names]
        shape = draw(st.sampled_from(shapes))
        if shape == "extra":
            row += ["extra", f'"x,{junk}"']
        elif shape == "short":
            row = row[:-1]
        elif shape == "blank-before":
            lines.append("")
        lines.append(",".join(row))
    return end.join(lines) + end * draw(st.booleans())


@settings(derandomize=True, deadline=None, database=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=generated_csv(), size=st.sampled_from([1, 2, 3, None]))
def test_generated_csv_matches_row_readers(tmp_path, text, size):
    """Generated text reads as the row oracles read it, at any chunk size."""
    path = tmp_path / "generated.csv"
    path.write_text(text, newline="")
    sys_ = from_aggregation(np.ones((1, 3)), list(QUOTED_SERIES))
    with pytest.MonkeyPatch.context() as patch:
        if size is not None:
            patch.setattr(cocomb.cli, "_CHUNK_ROWS", size)
        assert_readers_agree(path, sys_, [1, 2])


class CsvPath(Exception):
    """Raised in place of the ``csv.DictReader`` path: the numpy path refused the file."""


def no_csv_path(*_):
    raise CsvPath


# characters of numbers, the blanks int() and float() strip, and characters numpy
# reads otherwise than they do: the separators U+001C-U+001F, digit signs (U+2460)
SPELLING = st.text(st.sampled_from([*"0123456789+-._eEinfatyINFATYxj ", "\t", "\x0b", "\x0c",
                                    "\x1c", "\x1f", "\xa0", "\u3000", "\u0663", "\u2460"]),
                   max_size=8)


@settings(derandomize=True, deadline=None, database=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spelling=SPELLING, quoted=st.booleans())
def test_numpy_path_reads_a_number_as_int_and_float_do(tmp_path, spelling, quoted):
    """Whatever the numpy path accepts, int() and float() read to the same bits."""
    path = tmp_path / "number.csv"
    cell = f'"{spelling}"' if quoted else spelling
    for key, value, parse, column in ((cell, "0", int, 0), ("0", cell, float, 1)):
        path.write_text(f"t,series,expert,value\n{key},a,b,{value}\n", newline="")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cocomb.cli, "_csv_chunks", no_csv_path)
            try:
                (t,), values, _ = cocomb.cli._read_columns(
                    path, "residual", ("t",), ("series", "expert"), None)
            except CsvPath:
                continue
        got = (t, values)[column]
        assert got.tobytes() == np.array([parse(spelling)], got.dtype).tobytes()


@pytest.mark.parametrize("horizon, value, want_h, want_y", [
    ("1_0", "1_0", 10, 10.0), ("\u0663", "\u0663", 3, 3.0), ("2", " 1_5 ", 2, 15.0)])
def test_python_only_spellings_read_as_int_and_float_do(tmp_path, chunk_rows, horizon, value,
                                                        want_h, want_y):
    """Spellings numpy's own parser refuses read as the row reader reads them: ``1_0``
    in an ASCII file through ``csv.DictReader``, the Arabic-Indic digit on the
    numpy path, whose object columns are cast by ``int`` and ``float``."""
    path = tmp_path / "panel.csv"
    path.write_text("series,expert,horizon,value\n" + "".join(
        f"{s},alpha,{horizon},{value}\n" for s in ('"total, all"', "east", "west", "north")),
        encoding="utf-8")
    assert (outcome(cocomb.cli._read_panel_csv, path, system())
            == outcome(oracles.read_panel_csv, path, system()))
    _, horizons, y_hat = cocomb.cli._read_panel_csv(path, system())
    assert horizons == [want_h] and y_hat.tolist() == [[want_y]] * 4


def test_numpy_path_reads_every_supported_input(tmp_path, monkeypatch, rng):
    """Sample, evaluation, quoted-label and non-ASCII files never reach the
    csv.DictReader path; a non-ASCII copy of the sample reads to its bits."""
    monkeypatch.setattr(cocomb.cli, "_csv_chunks", no_csv_path)
    sys_ = from_aggregation(np.array([[1.0, 1.0]]), ["total", "east", "west"])
    panel, horizons, y_hat = cocomb.cli._read_panel_csv(SAMPLE / "panel.csv", sys_)
    resid = cocomb.cli._read_residual_csv(SAMPLE / "residuals.csv", panel)
    for name in ("panel.csv", "residuals.csv"):  # a "note" column holding "\u00e9"
        head, *rows = (SAMPLE / name).read_text().splitlines()
        text = "".join(f"{row},\u00e9\n" for row in rows)
        (tmp_path / name).write_text(f"{head},note\n{text}", encoding="utf-8")
    noted = cocomb.cli._read_panel_csv(tmp_path / "panel.csv", sys_)
    assert fingerprint(noted) == fingerprint((panel, horizons, y_hat))
    noted_resid = cocomb.cli._read_residual_csv(tmp_path / "residuals.csv", noted[0])
    assert fingerprint(noted_resid) == fingerprint(resid)
    (actuals, forecasts), *_ = evaluation_csvs(tmp_path, rng)
    cocomb.cli._read_eval_csv(actuals, "actuals", ("series",), [1, 2, 3])
    cocomb.cli._read_eval_csv(forecasts, "forecasts", ("method", "series"), [1, 2, 3])
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('series,expert,value\n"total, all",alpha,1\n" east ","beta, b",2\n'
                      '"west","a ""b""",3\n"north","two\nlines",4\n')
    panel, _, y_hat = cocomb.cli._read_panel_csv(quoted, system())
    assert panel.experts == ("alpha", "beta, b", 'a "b"', "two\nlines")
    assert y_hat[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
    quoted.write_text("series,expert,horizon,value\ntotal,alpha,1_0,1\n")
    with pytest.raises(CsvPath):
        cocomb.cli._read_panel_csv(quoted, sys_)
