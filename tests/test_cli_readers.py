"""The chunked column readers against the row-by-row ``csv.DictReader`` readers.

Every reader must return the same labels and the same array bits as the
oracle in ``tests/oracles.py`` whatever the chunk size, on shuffled files whose
labels first appear in different chunks, with blank lines, quoted labels
holding commas, padded labels, extra trailing fields, missing or empty
horizons and a repeated column name (the last one is read).
"""

import csv

import numpy as np
import pytest

import cocomb.cli
import oracles
from cocomb import from_aggregation

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
