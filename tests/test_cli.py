import csv
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cocomb
from cocomb import read_constraint_file
from cocomb.cli import COV_CHOICES, _read_panel_csv, _read_residual_csv, cli, main
from cocomb.covariance import PATTERNS
from conftest import evaluation_csvs
from oracles import kkt_residual

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(*argv):
    return main([str(a) for a in argv])


def test_reconcile_occ_end_to_end(tmp_path):
    out = tmp_path / "coherent.csv"
    weights = tmp_path / "weights.csv"
    covout = tmp_path / "wtilde.csv"
    code = run(
        "reconcile",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", SAMPLE / "panel.csv",
        "--residuals", SAMPLE / "residuals.csv",
        "--cov", "bd-expert-shrink",
        "--method", "occ",
        "--output", out,
        "--emit-weights", weights,
        "--emit-cov", covout,
    )
    assert code == 0
    rows = {r["series"]: float(r["value"]) for r in read_rows(out)}
    assert abs(rows["total"] - rows["east"] - rows["west"]) <= 1e-9 * (1 + abs(rows["total"]))

    # end-to-end against the dense first-order-system oracle
    sys_, _ = read_constraint_file(SAMPLE / "constraints.json")
    panel, _, y_hat = _read_panel_csv(SAMPLE / "panel.csv", sys_)
    panel = panel.with_values(y_hat[:, 0])
    resid = _read_residual_csv(SAMPLE / "residuals.csv", panel)
    from cocomb import block_by_expert

    cov = block_by_expert(resid, panel, shrink_blocks=True)
    y_tilde = np.array([rows[lbl] for lbl in sys_.labels])
    assert kkt_residual(panel.K, cov.W, sys_.C, panel.y_hat, y_tilde) <= 1e-9

    # emitted weights reproduce the forecast and act as the identity on
    # coherent vectors
    psi = np.zeros((panel.m, panel.n))
    pair_index = {
        (panel.labels[i], panel.experts[j]): r for r, (i, j) in enumerate(panel.pairs)
    }
    for row in read_rows(weights):
        r = pair_index[(row["series"], row["expert"])]
        psi[r, panel.labels.index(row["target"])] = float(row["weight"])
    np.testing.assert_allclose(psi.T @ panel.y_hat, y_tilde, atol=1e-10)
    assert np.abs(psi.T @ panel.K @ sys_.S - sys_.S).max() <= 1e-9

    w_rows = read_rows(covout)
    assert len(w_rows) == 3 and set(w_rows[0]) == {"series", "total", "east", "west"}
    assert (Path(str(out) + ".manifest.json")).exists()


def test_reconcile_is_byte_identical_on_rerun(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert run(
            "reconcile",
            "--constraints", SAMPLE / "constraints.json",
            "--panel", SAMPLE / "panel.csv",
            "--residuals", SAMPLE / "residuals.csv",
            "--cov", "shrink",
            "--method", "occ",
            "--formulation", "struct-bv",
            "--output", out,
        ) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("method", ["scr-ew", "scr-var", "scr-cov"])
def test_reconcile_sequential_methods(tmp_path, method):
    out = tmp_path / "seq.csv"
    code = run(
        "reconcile",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", SAMPLE / "panel.csv",
        "--residuals", SAMPLE / "residuals.csv",
        "--cov", "sample",
        "--method", method,
        "--output", out,
    )
    assert code == 0
    rows = {r["series"]: float(r["value"]) for r in read_rows(out)}
    assert abs(rows["total"] - rows["east"] - rows["west"]) <= 1e-8


def balanced_fixture(tmp_path, rng):
    """A balanced two-expert panel with residuals, for mint/src runs."""
    panel_path = tmp_path / "panel.csv"
    resid_path = tmp_path / "resid.csv"
    series = ["total", "east", "west"]
    experts = ["m1", "m2"]
    with open(panel_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "expert", "value"])
        base = {"total": 17.0, "east": 8.3, "west": 8.5}
        for expert in experts:
            for s in series:
                writer.writerow([s, expert, base[s] + rng.normal(0, 0.5)])
    with open(resid_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "series", "expert", "value"])
        for t in range(30):
            for expert in experts:
                for s in series:
                    writer.writerow([t, s, expert, rng.normal(0, 0.5)])
    return panel_path, resid_path


def test_reconcile_mint_single_expert(tmp_path, rng):
    panel_path, resid_path = balanced_fixture(tmp_path, rng)
    # keep only the first expert to form a single-expert panel
    for path in (panel_path, resid_path):
        rows = [r for r in path.read_text().splitlines() if ",m2," not in r]
        path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "mint.csv"
    code = run(
        "reconcile",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", panel_path,
        "--residuals", resid_path,
        "--cov", "shrink",
        "--method", "mint",
        "--output", out,
    )
    assert code == 0
    rows = {r["series"]: float(r["value"]) for r in read_rows(out)}
    assert abs(rows["total"] - rows["east"] - rows["west"]) <= 1e-9


def test_reconcile_non_finite_forecast_exits_3(tmp_path, rng, capsys):
    panel_path, resid_path = balanced_fixture(tmp_path, rng)
    for path in (panel_path, resid_path):
        rows = [r for r in path.read_text().splitlines() if ",m2," not in r]
        path.write_text("\n".join(rows) + "\n")
    rows = panel_path.read_text().splitlines()
    rows[1] = "total,m1,nan"
    panel_path.write_text("\n".join(rows) + "\n")
    code = run(
        "reconcile",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", panel_path,
        "--residuals", resid_path,
        "--method", "mint",
        "--output", tmp_path / "mint.csv",
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "schema"
    assert not (tmp_path / "mint.csv").exists()


def test_reconcile_src_balanced(tmp_path, rng):
    panel_path, resid_path = balanced_fixture(tmp_path, rng)
    out = tmp_path / "src.csv"
    code = run(
        "reconcile",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", panel_path,
        "--residuals", resid_path,
        "--method", "src",
        "--output", out,
    )
    assert code == 0
    rows = {r["series"]: float(r["value"]) for r in read_rows(out)}
    assert abs(rows["total"] - rows["east"] - rows["west"]) <= 1e-9


def test_reconcile_src_unbalanced_exits_3(tmp_path, capsys):
    code = run(
        "reconcile",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", SAMPLE / "panel.csv",
        "--residuals", SAMPLE / "residuals.csv",
        "--method", "src",
        "--output", tmp_path / "x.csv",
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "schema"


def test_combine_schemes(tmp_path):
    out = tmp_path / "combined.csv"
    assert run(
        "combine",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", SAMPLE / "panel.csv",
        "--scheme", "ew",
        "--output", out,
    ) == 0
    rows = {r["series"]: float(r["value"]) for r in read_rows(out)}
    # equal weights: plain averages of the available expert values
    panel_rows = read_rows(SAMPLE / "panel.csv")
    for series in ("total", "east", "west"):
        vals = [float(r["value"]) for r in panel_rows if r["series"] == series]
        assert rows[series] == pytest.approx(sum(vals) / len(vals), rel=1e-15)

    out2 = tmp_path / "mt.csv"
    assert run(
        "combine",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", SAMPLE / "panel.csv",
        "--residuals", SAMPLE / "residuals.csv",
        "--cov", "shrink",
        "--scheme", "multi-task",
        "--output", out2,
    ) == 0


def test_reconcile_multi_horizon_panel(tmp_path):
    # same availability at two horizons: one weight matrix, two output rows
    # per series
    panel_path = tmp_path / "panel.csv"
    lines = (SAMPLE / "panel.csv").read_text().splitlines()
    out_lines = [lines[0]]
    for line in lines[1:]:
        series, expert, _, value = line.split(",")
        out_lines.append(f"{series},{expert},1,{value}")
        out_lines.append(f"{series},{expert},2,{float(value) * 1.05!r}")
    panel_path.write_text("\n".join(out_lines) + "\n")
    out = tmp_path / "coherent.csv"
    code = run(
        "reconcile",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", panel_path,
        "--residuals", SAMPLE / "residuals.csv",
        "--cov", "bd-expert-shrink",
        "--method", "occ",
        "--output", out,
    )
    assert code == 0
    rows = read_rows(out)
    assert {r["horizon"] for r in rows} == {"1", "2"}
    by_h = {h: {r["series"]: float(r["value"]) for r in rows if r["horizon"] == h}
            for h in ("1", "2")}
    for h in ("1", "2"):
        vals = by_h[h]
        assert abs(vals["total"] - vals["east"] - vals["west"]) <= 1e-9
    # fixed weights: scaling the panel scales the output
    for s in ("total", "east", "west"):
        assert by_h["2"][s] == pytest.approx(1.05 * by_h["1"][s], rel=1e-12)


def test_missing_constraint_file_exits_3(tmp_path, capsys):
    code = run(
        "combine",
        "--constraints", tmp_path / "missing.json",
        "--panel", SAMPLE / "panel.csv",
        "--scheme", "ew",
        "--output", tmp_path / "out.csv",
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "schema"


def test_singular_covariance_exits_4(tmp_path, capsys):
    # two residual observations for seven coordinates: the sample estimate is
    # flagged and the solver must refuse it
    resid_path = tmp_path / "resid.csv"
    with open(SAMPLE / "residuals.csv") as fh:
        rows = list(csv.DictReader(fh))
    with open(resid_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "series", "expert", "value"])
        for row in rows:
            if int(row["t"]) < 2:
                writer.writerow([row["t"], row["series"], row["expert"], row["value"]])
    code = run(
        "reconcile",
        "--constraints", SAMPLE / "constraints.json",
        "--panel", SAMPLE / "panel.csv",
        "--residuals", resid_path,
        "--cov", "sample",
        "--method", "occ",
        "--output", tmp_path / "out.csv",
    )
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "numeric"


def test_cov_choices_map_one_to_one_onto_patterns():
    assert sorted(COV_CHOICES.values()) == sorted(PATTERNS)
    assert len(set(COV_CHOICES.values())) == len(COV_CHOICES)


def test_bad_flag_exits_2(capsys):
    assert run("reconcile", "--method", "bogus") == 2


def test_simulate_writes_table_and_manifest(tmp_path):
    out = tmp_path / "sim.csv"
    code = run(
        "simulate",
        "--setting", "1",
        "--p", "3",
        "--n-train", "30",
        "--test-len", "10",
        "--reps", "3",
        "--seed", "7",
        "--methods", "ew,occ-be",
        "--output", out,
    )
    assert code == 0
    rows = read_rows(out)
    assert {r["method"] for r in rows} == {"ew", "occ_be"}
    ew_row = next(r for r in rows if r["method"] == "ew")
    assert float(ew_row["avg_rel_mae"]) == 1.0
    manifest = json.loads((Path(str(out) + ".manifest.json")).read_text())
    assert manifest["command"] == "simulate"
    assert manifest["options"]["seed"] == 7

    out2 = tmp_path / "sim2.csv"
    assert run(
        "simulate", "--setting", "1", "--p", "3", "--n-train", "30", "--test-len", "10",
        "--reps", "3", "--seed", "7", "--methods", "ew,occ-be", "--output", out2,
    ) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_manifest_records_every_parsed_option(tmp_path, rng):
    """A manifest's options are its command's click parameters, ``--jobs`` included."""
    (actuals, forecasts), *_ = evaluation_csvs(tmp_path, rng)
    inputs = ["--constraints", SAMPLE / "constraints.json", "--panel", SAMPLE / "panel.csv",
              "--residuals", SAMPLE / "residuals.csv"]
    argv = {
        "combine": [*inputs, "--scheme", "ow-var"],
        "reconcile": [*inputs, "--emit-weights", tmp_path / "w.csv"],
        "simulate": ["--setting", "1", "--p", "3", "--n-train", "30", "--test-len", "10",
                     "--reps", "2", "--methods", "ew"],
        "evaluate": ["--actuals", actuals, "--forecasts", forecasts, "--horizons", "1:3",
                     "--dm"],
    }
    for command, args in argv.items():
        out = tmp_path / f"{command}.csv"
        assert run(command, *args, "--output", out) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["options"]) == {p.name for p in cli.commands[command].params}
    # evaluate --dm without --dm-output records where the DM table went
    assert manifest["options"]["dm_output"] == str(out) + ".dm.csv"
    assert Path(str(out) + ".dm.csv").exists()


def evaluate_fixture(tmp_path, rng):
    series = ["total", "east", "west"]
    horizons = [1, 2]
    q = 30
    actual_rows = []
    forecast_rows = []
    for h in horizons:
        y = rng.standard_normal((q, 3)) + 5.0
        f_ew = y + rng.standard_normal((q, 3))
        f_occ = y + 0.6 * rng.standard_normal((q, 3))
        for qi in range(q):
            for i, s in enumerate(series):
                actual_rows.append((s, h, qi, y[qi, i]))
                forecast_rows.append(("ew", s, h, qi, f_ew[qi, i]))
                forecast_rows.append(("occ", s, h, qi, f_occ[qi, i]))
                forecast_rows.append(("ew_clone", s, h, qi, f_ew[qi, i]))
    actuals_path = tmp_path / "actuals.csv"
    with open(actuals_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "horizon", "q", "value"])
        writer.writerows(actual_rows)
    forecasts_path = tmp_path / "forecasts.csv"
    with open(forecasts_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "series", "horizon", "q", "value"])
        writer.writerows(forecast_rows)
    return actuals_path, forecasts_path


def test_evaluate_relative_indices_and_dm(tmp_path, rng):
    actuals_path, forecasts_path = evaluate_fixture(tmp_path, rng)
    out = tmp_path / "accuracy.csv"
    dm_out = tmp_path / "dm.csv"
    code = run(
        "evaluate",
        "--actuals", actuals_path,
        "--forecasts", forecasts_path,
        "--benchmark", "ew",
        "--horizons", "1:2",
        "--dm",
        "--output", out,
        "--dm-output", dm_out,
    )
    assert code == 0
    rows = read_rows(out)
    bench = [r for r in rows if r["method"] == "ew"]
    assert bench and all(float(r["value"]) == 1.0 for r in bench)
    # a method identical to the benchmark scores exactly one everywhere
    clone = [r for r in rows if r["method"] == "ew_clone"]
    assert clone and all(float(r["value"]) == 1.0 for r in clone)
    occ_all = next(
        r for r in rows
        if r["method"] == "occ" and r["horizon"] == "all" and r["metric"] == "avg_rel_mae"
    )
    assert float(occ_all["value"]) < 1.0

    dm_rows = read_rows(dm_out)
    assert {r["loss"] for r in dm_rows} == {"absolute", "squared"}
    # the clone is never significantly different from the benchmark
    clone_cells = [
        r for r in dm_rows
        if {r["method_a"], r["method_b"]} == {"ew", "ew_clone"}
    ]
    assert clone_cells and all(float(r["pct_more_accurate"]) == 0.0 for r in clone_cells)


def test_evaluate_misaligned_grid_exits_3(tmp_path, rng, capsys):
    actuals_path, forecasts_path = evaluate_fixture(tmp_path, rng)
    lines = forecasts_path.read_text().splitlines()
    forecasts_path.write_text("\n".join(lines[:-1]) + "\n")  # drop one cell
    code = run(
        "evaluate",
        "--actuals", actuals_path,
        "--forecasts", forecasts_path,
        "--horizons", "1:2",
        "--output", tmp_path / "x.csv",
    )
    assert code == 3


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_outputs_honour_the_umask(tmp_path, umask):
    out = tmp_path / "combined.csv"
    old = os.umask(umask)
    try:
        code = run("combine", "--constraints", SAMPLE / "constraints.json",
                   "--panel", SAMPLE / "panel.csv", "--scheme", "ew", "--output", out)
    finally:
        os.umask(old)
    assert code == 0
    for path in (out, Path(str(out) + ".manifest.json")):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


def test_importing_the_cli_loads_no_scipy_subpackage_but_linalg():
    """Every command pays this import; ``scipy.special`` alone would add tens of ms."""
    code = ("import sys, cocomb.cli; print(*sorted(name for name, mod in sys.modules.items()"
            " if name.count('.') == 1 and name.startswith('scipy.')"
            " and not name.startswith('scipy._') and hasattr(mod, '__path__')))")
    src = str(Path(cocomb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.split() == ["scipy.linalg"]
