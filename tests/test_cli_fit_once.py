"""Multi-horizon runs fit once and apply that fit to every horizon.

A multi-horizon panel's forecasts and emitted weights must match single-horizon
runs on each of its horizons, and ``occ`` must be solved once per command.
"""

import csv
import random
from pathlib import Path

import pytest

import cocomb.cli
from cocomb.cli import main

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"
HORIZONS = (1, 2, 3)


def write_panels(tmp_path, cells, rng):
    """A shuffled 3-horizon panel CSV and one single-horizon CSV per horizon.

    ``cells`` lists (series, expert, value) at the first horizon; later
    horizons perturb the values. A single-horizon file lists each pair at its
    first position in the shuffled file, so experts appear in the same order.
    """
    values = {
        (s, e, h): v * (1.0 + 0.1 * (h - 1)) + (h - 1) * rng.normal(0.0, 0.3)
        for s, e, v in cells for h in HORIZONS
    }
    rows = [(s, e, h) for s, e, _ in cells for h in HORIZONS]
    random.Random(7).shuffle(rows)
    paths = {"all": tmp_path / "panel_all.csv"}
    with open(paths["all"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "expert", "horizon", "value"])
        writer.writerows([s, e, h, repr(values[s, e, h])] for s, e, h in rows)
    first_seen = list(dict.fromkeys((s, e) for s, e, _ in rows))
    for h in HORIZONS:
        paths[h] = tmp_path / f"panel_h{h}.csv"
        with open(paths[h], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "expert", "horizon", "value"])
            writer.writerows([s, e, h, repr(values[s, e, h])] for s, e in first_seen)
    return paths


def sample_panels(tmp_path, rng):
    with open(SAMPLE / "panel.csv", newline="") as fh:
        cells = [(r["series"], r["expert"], float(r["value"])) for r in csv.DictReader(fh)]
    return write_panels(tmp_path, cells, rng), SAMPLE / "residuals.csv"


def balanced_panels(tmp_path, rng, experts):
    series = {"total": 17.0, "east": 8.3, "west": 8.5}
    cells = [(s, e, v + rng.normal(0.0, 0.5)) for e in experts for s, v in series.items()]
    resid_path = tmp_path / "resid.csv"
    with open(resid_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "series", "expert", "value"])
        for t in range(30):
            writer.writerows(
                [t, s, e, repr(rng.normal(0.0, 0.5))] for e in experts for s in series
            )
    return write_panels(tmp_path, cells, rng), resid_path


def read_forecasts(path):
    with open(path, newline="") as fh:
        return {(r["series"], int(r.get("horizon", 1))): float(r["value"])
                for r in csv.DictReader(fh)}


def run(tmp_path, tag, command, panel, resid, extra, emit):
    out = tmp_path / f"{tag}.csv"
    argv = [command, "--constraints", SAMPLE / "constraints.json", "--panel", panel,
            "--residuals", resid, "--cov", "shrink", "--output", out, *extra]
    if emit:
        argv += ["--emit-weights", tmp_path / f"{tag}.w.csv",
                 "--emit-cov", tmp_path / f"{tag}.c.csv"]
    assert main([str(a) for a in argv]) == 0
    return out


# (experts of a balanced panel, or None for the sample panel; command; its options)
CASES = (
    [(None, "reconcile", ["--method", "occ", "--formulation", f])
     for f in ("zc-be", "zc-bv", "struct-be", "struct-bv")]
    + [(None, "reconcile", ["--method", m]) for m in ("scr-ew", "scr-var", "scr-cov")]
    + [(("m1", "m2"), "reconcile", ["--method", "src"]),
       (("m1",), "reconcile", ["--method", "mint"])]
    + [(None, "combine", ["--scheme", s]) for s in ("ew", "ow-var", "ow-cov", "multi-task")]
)


@pytest.mark.parametrize("experts,command,extra", CASES,
                         ids=["-".join([c, *x[1::2]]) for _, c, x in CASES])
def test_multi_horizon_run_matches_single_horizon_runs(tmp_path, rng, experts, command, extra):
    if experts is None:
        paths, resid = sample_panels(tmp_path, rng)
    else:
        paths, resid = balanced_panels(tmp_path, rng, experts)
    emit = command == "reconcile"
    multi = read_forecasts(run(tmp_path, "all", command, paths["all"], resid, extra, emit))
    assert {h for _, h in multi} == set(HORIZONS)
    for h in HORIZONS:
        single = read_forecasts(run(tmp_path, f"h{h}", command, paths[h], resid, extra, emit))
        for (series, hh), value in single.items():
            assert hh == h
            assert abs(multi[series, h] - value) <= 1e-14 * abs(value)
        if emit:
            for part in ("w", "c"):
                assert ((tmp_path / f"all.{part}.csv").read_bytes()
                        == (tmp_path / f"h{h}.{part}.csv").read_bytes())


def test_reconcile_solves_occ_once_per_run(tmp_path, rng, monkeypatch):
    paths, resid = sample_panels(tmp_path, rng)
    calls = []
    original = cocomb.cli.occ

    def counting_occ(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cocomb.cli, "occ", counting_occ)
    run(tmp_path, "all", "reconcile", paths["all"], resid, ["--method", "occ"], emit=True)
    assert len(calls) == 1
