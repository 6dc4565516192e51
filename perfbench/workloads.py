"""The benchmark's four workloads: seeded inputs, references, jobs and output checks.

Every workload is a closed loop: one single-threaded process runs a fixed batch
of jobs back to back, each job starting when the previous one has returned.
A workload object is used twice, by two processes:

* the parent process (``run.py``) calls ``generate`` to write the inputs for a
  seed into a work directory, and ``write_reference`` to store the values the
  outputs are checked against;
* the worker process (``worker.py``) calls ``load``, then ``run_job`` for each
  job (the only timed call) and ``check`` on what it returned.

Inputs are a pure function of the workload seed and the scale, so the same seed
gives byte-identical files. ``reconcile_cli`` and ``occ_large`` are checked
against the same inputs solved untimed through the structural ``occ``
formulations; ``sim_paper`` and ``evaluate_dm`` against values recorded in
``reference.json`` (see ``record_reference.py``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

SCALES = ("full", "toy")

# Recorded references exist for simulation seeds 0..N_REF_SEEDS-1; the
# sim_paper and evaluate_dm inputs are drawn from the workload seed modulo this.
N_REF_SEEDS = 8

# Relative tolerances of the output checks. Outputs depend on the BLAS thread
# count and CPU kernels in the last bits, so nothing is compared byte for byte.
REF_RTOL = 1e-8
COHERENCE_RTOL = 1e-9
RECORDED_RTOL = 1e-9

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


# -- shared helpers ------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="ascii", newline="")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def hierarchy(groups: int, leaves: int):
    """total -> ``groups`` groups -> ``groups * leaves`` leaves, upper block first."""
    n_b = groups * leaves
    a = np.zeros((1 + groups, n_b))
    a[0] = 1.0
    for g in range(groups):
        a[1 + g, g * leaves:(g + 1) * leaves] = 1.0
    upper = ["total"] + [f"g{g:02d}" for g in range(groups)]
    bottom = [f"g{g:02d}_{k:02d}" for g in range(groups) for k in range(leaves)]
    s = np.vstack([a, np.eye(n_b)])
    return a, upper + bottom, s


def _pairs(avail: np.ndarray) -> list[tuple[int, int]]:
    """(variable, expert) pairs in cocomb's by-expert stacking order."""
    n, p = avail.shape
    return [(i, j) for j in range(p) for i in range(n) if avail[i, j]]


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref))) or 1.0
    return float(np.max(np.abs(np.asarray(got) - ref))) / scale


def _coherence_error(c: np.ndarray, y: np.ndarray) -> str | None:
    """None when ``max|C y| <= COHERENCE_RTOL * max|y|`` for every column of y."""
    y = y.reshape(c.shape[1], -1)
    resid = float(np.max(np.abs(c @ y)))
    scale = float(np.max(np.abs(y)))
    if not math.isfinite(resid) or resid > COHERENCE_RTOL * scale:
        return f"incoherent output: max|C y| = {resid:.3g}, max|y| = {scale:.3g}"
    return None


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def corrupt_csv(path: Path) -> None:
    """Perturb the last field of the first data row (used to test the checks)."""
    header, rows = _read_rows(path)
    rows[0][-1] = _fmt(float(rows[0][-1]) * 1.01 + 1e-3)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + rows)


def load_recorded(scale: str, workload: str) -> dict:
    """Recorded row keys and values ({} until ``record_reference.py`` has run)."""
    if not REFERENCE_FILE.exists():
        return {"keys": {}, "values": {}}
    with open(REFERENCE_FILE) as fh:
        return json.load(fh).get(scale, {}).get(workload, {"keys": {}, "values": {}})


def _check_recorded(path: Path, keys: list, values: list, key_cols: int) -> str | None:
    """Compare a CSV's key columns exactly and its value columns to a tolerance."""
    header, rows = _read_rows(path)
    got_keys = [row[:key_cols] for row in rows]
    if got_keys != keys:
        return f"{path.name}: row keys differ from the recorded reference"
    got = np.array([[float(v) for v in row[key_cols:]] for row in rows])
    ref = np.array(values, dtype=float).reshape(got.shape)
    if not np.all(np.isfinite(got)):
        return f"{path.name}: non-finite values"
    err = _rel_err(got, ref)
    if err > RECORDED_RTOL:
        return f"{path.name}: relative error {err:.3g} against the recorded reference"
    return None


def _check_benchmark_rows(path: Path, method_col: int, method: str, n_values: int) -> str | None:
    """Relative indices of the benchmark method against itself must be exactly 1."""
    _, rows = _read_rows(path)
    vals = [float(v) for row in rows if row[method_col] == method for v in row[-n_values:]]
    if not vals or any(abs(v - 1.0) > 1e-12 for v in vals):
        return f"{path.name}: benchmark {method!r} is not at relative accuracy 1"
    return None


class Workload:
    """Base class; subclasses set the sizes per scale and implement the hooks."""

    name: str
    why: str
    # Job time per scale at the seed commit (1 BLAS thread, 2-core x86 box).
    # The batch size is derived from it and --seconds, so it is fixed for a
    # given --seconds and a later, faster commit runs the same batch sooner.
    nominal_job_s: dict[str, float]
    # Jobs come in whole cycles (one cycle covers every distinct job).
    cycle = 1

    def __init__(self, scale: str):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}")
        self.scale = scale

    def job_count(self, seconds: float) -> int:
        cycle_s = self.nominal_job_s[self.scale] * self.cycle
        return self.cycle * max(1, round(seconds / cycle_s))

    # parent-process side
    def generate(self, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def write_reference(self, work: Path) -> None:
        """Store what ``check`` compares against (recorded workloads need nothing)."""

    # worker side
    def load(self, work: Path) -> None:
        raise NotImplementedError

    def run_job(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> str | None:
        raise NotImplementedError

    def corrupt(self, out):
        raise NotImplementedError


# -- reconcile_cli ---------------------------------------------------------------


class ReconcileCLI(Workload):
    name = "reconcile_cli"
    why = ("the forecaster's reconcile command end to end: CSV parsing, per-horizon "
           "occ refits and the m x n weight CSV write, at n=211, m=592, T=120, H=12")
    nominal_job_s = {"full": 1.9, "toy": 0.03}
    SIZES = {
        "full": dict(groups=10, leaves=20, p=4, cover=0.6, T=120, H=12),
        "toy": dict(groups=3, leaves=4, p=3, cover=0.6, T=30, H=3),
    }

    def generate(self, seed: int, work: Path) -> dict:
        z = self.SIZES[self.scale]
        rng = np.random.default_rng([seed, 1])
        a, labels, s = hierarchy(z["groups"], z["leaves"])
        n, n_b, p, T, H = s.shape[0], s.shape[1], z["p"], z["T"], z["H"]
        avail = np.zeros((n, p), dtype=bool)
        avail[:, 0] = True  # one expert covers every variable
        for j in range(1, p):
            avail[rng.choice(n, size=round(z["cover"] * n), replace=False), j] = True
        pairs = _pairs(avail)
        experts = [f"exp{j}" for j in range(p)]
        var_idx = np.array([i for i, _ in pairs])
        exp_idx = np.array([j for _, j in pairs])
        scale = np.sqrt(s.sum(axis=1))[var_idx] * (1.0 + 0.25 * exp_idx)
        truth = s @ (100.0 + 5.0 * rng.standard_normal((n_b, H)))
        y_hat = truth[var_idx] + scale[:, None] * rng.standard_normal((len(pairs), H))
        common = rng.standard_normal((n, T))[var_idx]
        resid = scale[:, None] * (0.6 * common + 0.8 * rng.standard_normal((len(pairs), T)))

        payload = {"A": a.astype(int).tolist(), "upper": labels[: a.shape[0]],
                   "bottom": labels[a.shape[0]:]}
        _write_text(work / "constraints.json", json.dumps(payload))
        lines = ["series,expert,horizon,value\n"]
        for h in range(H):
            lines += [f"{labels[i]},{experts[j]},{h + 1},{_fmt(y_hat[r, h])}\n"
                      for r, (i, j) in enumerate(pairs)]
        _write_text(work / "panel.csv", "".join(lines))
        lines = ["t,series,expert,value\n"]
        for t in range(T):
            lines += [f"{t},{labels[i]},{experts[j]},{_fmt(resid[r, t])}\n"
                      for r, (i, j) in enumerate(pairs)]
        _write_text(work / "residuals.csv", "".join(lines))
        np.save(work / "avail.npy", avail)
        np.save(work / "y_hat.npy", y_hat)
        np.save(work / "resid.npy", resid)
        files = ["constraints.json", "panel.csv", "residuals.csv"]
        return {"sizes": {"n": n, "n_u": a.shape[0], "n_b": n_b, "p": p, "m": len(pairs),
                          "T": T, "H": H},
                "inputs": {f: sha256_file(work / f) for f in files},
                "input_bytes": sum((work / f).stat().st_size for f in files)}

    def write_reference(self, work: Path) -> None:
        import cocomb as cc

        sys_, _ = cc.read_constraint_file(work / "constraints.json")
        avail = np.load(work / "avail.npy")
        y_hat = np.load(work / "y_hat.npy")
        experts = tuple(f"exp{j}" for j in range(avail.shape[1]))
        panel = cc.from_availability(avail, sys_, experts=experts, values=y_hat[:, 0])
        cov = cc.block_by_variable(np.load(work / "resid.npy"), panel, shrink_blocks=True)
        ref = cc.occ(panel, sys_, cov, "struct_bv")
        np.save(work / "ref_y.npy", ref.Psi.T @ y_hat)
        np.save(work / "ref_psi.npy", ref.Psi)
        np.save(work / "ref_wtilde.npy", ref.W_tilde)
        np.save(work / "C.npy", sys_.C)
        with open(work / "labels.json", "w") as fh:
            json.dump({"labels": list(sys_.labels), "experts": list(experts),
                       "pairs": _pairs(avail)}, fh)

    def load(self, work: Path) -> None:
        self.ref_y = np.load(work / "ref_y.npy")
        self.ref_psi = np.load(work / "ref_psi.npy")
        self.ref_wtilde = np.load(work / "ref_wtilde.npy")
        self.c = np.load(work / "C.npy")
        with open(work / "labels.json") as fh:
            meta = json.load(fh)
        self.labels = {lab: i for i, lab in enumerate(meta["labels"])}
        self.row_of = {(meta["experts"][j], meta["labels"][i]): r
                       for r, (i, j) in enumerate(meta["pairs"])}
        out = work / "out"
        out.mkdir(exist_ok=True)
        self.out = {"y": out / "coherent.csv", "psi": out / "weights.csv",
                    "wtilde": out / "wtilde.csv"}
        self.argv = [
            "reconcile", "--constraints", str(work / "constraints.json"),
            "--panel", str(work / "panel.csv"), "--residuals", str(work / "residuals.csv"),
            "--cov", "bd-variable-shrink", "--method", "occ", "--formulation", "zc-be",
            "--output", str(self.out["y"]), "--emit-weights", str(self.out["psi"]),
            "--emit-cov", str(self.out["wtilde"]),
        ]

    def run_job(self, k: int):
        import cocomb.cli

        return cocomb.cli.main(self.argv)

    def check(self, k: int, rc) -> str | None:
        if rc != 0:
            return f"exit status {rc}"
        n, H = self.ref_y.shape
        y = np.full((n, H), np.nan)
        _, rows = _read_rows(self.out["y"])
        for series, h, value in rows:
            y[self.labels[series], int(h) - 1] = float(value)
        psi = np.full(self.ref_psi.shape, np.nan)
        _, rows = _read_rows(self.out["psi"])
        for expert, series, target, value in rows:
            psi[self.row_of[(expert, series)], self.labels[target]] = float(value)
        _, rows = _read_rows(self.out["wtilde"])
        wtilde = np.array([[float(v) for v in row[1:]] for row in rows])
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(psi))):
            return "output does not cover every cell"
        json.loads(Path(str(self.out["y"]) + ".manifest.json").read_text())
        err = _coherence_error(self.c, y)
        if err:
            return err
        for what, got, ref in (("forecasts", y, self.ref_y), ("weights", psi, self.ref_psi),
                               ("W_tilde", wtilde, self.ref_wtilde)):
            e = _rel_err(got, ref)
            if e > REF_RTOL:
                return f"{what}: relative error {e:.3g} against struct_bv"
        return None

    def corrupt(self, rc):
        corrupt_csv(self.out["y"])
        return rc


# -- occ_large ---------------------------------------------------------------------


class OccLarge(Workload):
    name = "occ_large"
    why = ("library occ_be (README path, no CSV) at n=745, m=2235, where the O(m^3) solve "
           "and dense m x m panel dominate; T < widest expert block excluded until ROADMAP item 4")
    nominal_job_s = {"full": 1.05, "toy": 0.01}
    SIZES = {
        "full": dict(groups=24, leaves=30, p=6, per_var=3, extra_T=40),
        "toy": dict(groups=3, leaves=5, p=4, per_var=2, extra_T=10),
    }

    def generate(self, seed: int, work: Path) -> dict:
        z = self.SIZES[self.scale]
        rng = np.random.default_rng([seed, 2])
        a, labels, s = hierarchy(z["groups"], z["leaves"])
        n, p = s.shape[0], z["p"]
        # every variable is covered by exactly per_var consecutive experts
        # (cyclically), starting at an offset spread evenly over the experts
        offsets = rng.permutation(np.arange(n) % p)
        avail = np.zeros((n, p), dtype=bool)
        for d in range(z["per_var"]):
            avail[np.arange(n), (offsets + d) % p] = True
        pairs = _pairs(avail)
        m = len(pairs)
        # T stays above the widest expert block: at the seed commit a wider
        # shrunk block is tagged singular and refused (ROADMAP aim 3).
        T = int(avail.sum(axis=0).max()) + z["extra_T"]
        var_idx = np.array([i for i, _ in pairs])
        exp_idx = np.array([j for _, j in pairs])
        scale = np.sqrt(s.sum(axis=1))[var_idx] * (1.0 + 0.2 * exp_idx)
        truth = s @ (100.0 + 5.0 * rng.standard_normal(s.shape[1]))
        y_hat = truth[var_idx] + scale * rng.standard_normal(m)
        common = rng.standard_normal((n, T))[var_idx]
        resid = scale[:, None] * (0.5 * common + 0.9 * rng.standard_normal((m, T)))
        arrays = {"A.npy": a, "avail.npy": avail, "y_hat.npy": y_hat, "resid.npy": resid}
        for fname, arr in arrays.items():
            np.save(work / fname, arr)
        with open(work / "labels.json", "w") as fh:
            json.dump(labels, fh)
        files = list(arrays) + ["labels.json"]
        return {"sizes": {"n": n, "n_u": a.shape[0], "n_b": a.shape[1], "p": p, "m": m,
                          "T": T, "max_n_j": int(avail.sum(axis=0).max())},
                "inputs": {f: sha256_file(work / f) for f in files},
                "input_bytes": sum((work / f).stat().st_size for f in files)}

    def _inputs(self, work: Path):
        with open(work / "labels.json") as fh:
            labels = json.load(fh)
        return (np.load(work / "A.npy"), labels, np.load(work / "avail.npy"),
                np.load(work / "y_hat.npy"), np.load(work / "resid.npy"))

    def write_reference(self, work: Path) -> None:
        import cocomb as cc

        a, labels, avail, y_hat, resid = self._inputs(work)
        sys_ = cc.from_aggregation(a, labels)
        panel = cc.from_availability(avail, sys_, values=y_hat)
        cov = cc.block_by_expert(resid, panel, shrink_blocks=True)
        ref = cc.occ(panel, sys_, cov, "struct_be")
        np.save(work / "ref_y.npy", ref.y_tilde)
        np.save(work / "ref_psi.npy", ref.Psi)
        np.save(work / "C.npy", sys_.C)

    def load(self, work: Path) -> None:
        self.inputs = self._inputs(work)
        self.ref_y = np.load(work / "ref_y.npy")
        self.ref_psi = np.load(work / "ref_psi.npy")
        self.c = np.load(work / "C.npy")

    def run_job(self, k: int):
        import cocomb as cc

        a, labels, avail, y_hat, resid = self.inputs
        sys_ = cc.from_aggregation(a, labels)
        panel = cc.from_availability(avail, sys_, values=y_hat)
        cov = cc.block_by_expert(resid, panel, shrink_blocks=True)
        return cc.occ(panel, sys_, cov, "zc_be")

    def check(self, k: int, res) -> str | None:
        y = np.asarray(res.y_tilde, dtype=float)
        if y.shape != self.ref_y.shape or not np.all(np.isfinite(y)):
            return "forecast vector has the wrong shape or non-finite entries"
        err = _coherence_error(self.c, y)
        if err:
            return err
        for what, got, ref in (("forecasts", y, self.ref_y), ("weights", res.Psi, self.ref_psi)):
            e = _rel_err(got, ref)
            if e > REF_RTOL:
                return f"{what}: relative error {e:.3g} against struct_be"
        return None

    def corrupt(self, res):
        y = np.array(res.y_tilde, dtype=float)
        y[0] = y[0] * 1.01 + 1e-3
        return replace(res, y_tilde=y)


# -- sim_paper -----------------------------------------------------------------------

_SIM_BALANCED = ("ew,ow-var,ow-cov,src,scr-ew,scr-var,scr-cov,occ-be,occ-bv,occ-shr,"
                 "occ-wls,base-star,base-star-shr,base-shr")
_SIM_UNBALANCED = "ew,ow-var,ow-cov,scr-ew,scr-var,scr-cov,occ-be,occ-bv,occ-shr,occ-wls"


class SimPaper(Workload):
    name = "sim_paper"
    why = ("the paper's table grid: simulate settings 1-6 x balanced/unbalanced, every "
           "covariance pattern and route on m<=28, where per-call overhead dominates")
    nominal_job_s = {"full": 0.69, "toy": 0.05}
    cycle = 12
    REPS = {"full": 40, "toy": 2}

    def cells(self) -> list[tuple[int, bool]]:
        return [(setting, balanced) for setting in range(1, 7) for balanced in (True, False)]

    def job_key(self, k: int) -> str:
        setting, balanced = self.cells()[k % self.cycle]
        return f"s{setting}-{'bal' if balanced else 'unbal'}"

    def generate(self, seed: int, work: Path) -> dict:
        self.sim_seed = seed % N_REF_SEEDS
        spec = {"sim_seed": self.sim_seed, "reps": self.REPS[self.scale],
                "cells": [self.job_key(k) for k in range(self.cycle)]}
        _write_text(work / "jobs.json", json.dumps(spec, sort_keys=True))
        return {"sizes": {"n": 7, "n_u": 3, "n_b": 4, "p": 4, "m_max": 28,
                          "T": "200 (balanced) / 50 (unbalanced)", "test_len": 100,
                          "R": self.REPS[self.scale], "cells": self.cycle},
                "inputs": {"jobs.json": sha256_file(work / "jobs.json")},
                "input_bytes": (work / "jobs.json").stat().st_size}

    def load(self, work: Path) -> None:
        spec = json.loads((work / "jobs.json").read_text())
        self.sim_seed, self.reps = spec["sim_seed"], spec["reps"]
        rec = load_recorded(self.scale, self.name)
        self.keys, self.values = rec["keys"], rec["values"].get(str(self.sim_seed))
        (work / "out").mkdir(exist_ok=True)
        self.out = work / "out" / "table.csv"

    def argv(self, k: int) -> list[str]:
        setting, balanced = self.cells()[k % self.cycle]
        return ["simulate", "--setting", str(setting), "--p", "4",
                "--n-train", "200" if balanced else "50", "--reps", str(self.reps),
                "--seed", str(self.sim_seed), "--balanced" if balanced else "--unbalanced",
                "--methods", _SIM_BALANCED if balanced else _SIM_UNBALANCED,
                "--jobs", "1", "--output", str(self.out)]

    def run_job(self, k: int):
        import cocomb.cli

        return cocomb.cli.main(self.argv(k))

    def output_values(self, k: int) -> tuple[list, list]:
        _, rows = _read_rows(self.out)
        return [row[:5] for row in rows], [float(v) for row in rows for v in row[5:]]

    def check(self, k: int, rc) -> str | None:
        if rc != 0:
            return f"exit status {rc}"
        if self.values is None:
            return f"no recorded reference for simulation seed {self.sim_seed}"
        key = self.job_key(k)
        return (_check_benchmark_rows(self.out, 4, "ew", 2)
                or _check_recorded(self.out, self.keys[key], self.values[key], 5))

    def corrupt(self, rc):
        corrupt_csv(self.out)
        return rc


# -- evaluate_dm ---------------------------------------------------------------------


class EvaluateDM(Workload):
    name = "evaluate_dm"
    why = ("evaluate --dm over 12 horizons: the only workload reaching the metrics layer "
           "and the evaluation CSV readers (80 series, 6 methods, 40 origins)")
    nominal_job_s = {"full": 4.1, "toy": 0.03}
    SIZES = {
        "full": dict(series=80, methods=6, origins=40, H=12),
        "toy": dict(series=6, methods=3, origins=12, H=3),
    }
    METHODS = ("ew", "occ_be", "occ_bv", "scr_ew", "src", "base")

    def generate(self, seed: int, work: Path) -> dict:
        z = self.SIZES[self.scale]
        rng = np.random.default_rng([seed % N_REF_SEEDS, 4])
        S, M, Q, H = z["series"], z["methods"], z["origins"], z["H"]
        methods = self.METHODS[:M]
        series = [f"s{i:03d}" for i in range(S)]
        level = 50.0 + 10.0 * rng.random(S)
        actual = level[:, None, None] + rng.standard_normal((S, H, Q)) * np.sqrt(
            np.arange(1, H + 1))[None, :, None]
        fc = {}
        for k, m in enumerate(methods[1:], start=1):
            err = (0.2 * k * rng.standard_normal(S))[:, None, None] + (0.6 + 0.15 * k) * \
                rng.standard_normal((S, H, Q)) * np.sqrt(np.arange(1, H + 1))[None, :, None]
            fc[m] = actual + err
        fc["ew"] = np.mean([fc[m] for m in methods[1:]], axis=0)
        lines = ["series,horizon,q,value\n"]
        lines += [f"{series[i]},{h + 1},{q},{_fmt(actual[i, h, q])}\n"
                  for h in range(H) for q in range(Q) for i in range(S)]
        _write_text(work / "actuals.csv", "".join(lines))
        lines = ["method,series,horizon,q,value\n"]
        lines += [f"{m},{series[i]},{h + 1},{q},{_fmt(fc[m][i, h, q])}\n"
                  for m in methods for h in range(H) for q in range(Q) for i in range(S)]
        _write_text(work / "forecasts.csv", "".join(lines))
        spec = {"ref_seed": seed % N_REF_SEEDS, "horizons": f"1:{H}"}
        _write_text(work / "spec.json", json.dumps(spec, sort_keys=True))
        files = ["actuals.csv", "forecasts.csv", "spec.json"]
        return {"sizes": {"series": S, "methods": M, "origins": Q, "H": H,
                          "forecast_rows": S * M * H * Q},
                "inputs": {f: sha256_file(work / f) for f in files},
                "input_bytes": sum((work / f).stat().st_size for f in files)}

    def load(self, work: Path) -> None:
        spec = json.loads((work / "spec.json").read_text())
        rec = load_recorded(self.scale, self.name)
        self.keys, self.values = rec["keys"], rec["values"].get(str(spec["ref_seed"]))
        out = work / "out"
        out.mkdir(exist_ok=True)
        self.out = {"acc": out / "accuracy.csv", "dm": out / "dm.csv"}
        self.argv = ["evaluate", "--actuals", str(work / "actuals.csv"),
                     "--forecasts", str(work / "forecasts.csv"), "--benchmark", "ew",
                     "--horizons", spec["horizons"], "--dm",
                     "--output", str(self.out["acc"]), "--dm-output", str(self.out["dm"])]

    def run_job(self, k: int):
        import cocomb.cli

        return cocomb.cli.main(self.argv)

    def job_key(self, k: int) -> str:
        return "evaluate"

    def output_values(self, k: int) -> tuple[dict, dict]:
        keys, values = {}, {}
        for part, key_cols in (("acc", 3), ("dm", 4)):
            _, rows = _read_rows(self.out[part])
            keys[part] = [row[:key_cols] for row in rows]
            values[part] = [float(row[key_cols]) for row in rows]
        return keys, values

    def check(self, k: int, rc) -> str | None:
        if rc != 0:
            return f"exit status {rc}"
        if self.values is None:
            return "no recorded reference for this seed"
        keys, values = self.keys["evaluate"], self.values["evaluate"]
        return (_check_benchmark_rows(self.out["acc"], 1, "ew", 1)
                or _check_recorded(self.out["acc"], keys["acc"], values["acc"], 3)
                or _check_recorded(self.out["dm"], keys["dm"], values["dm"], 4))

    def corrupt(self, rc):
        corrupt_csv(self.out["acc"])
        return rc


WORKLOADS = {w.name: w for w in (ReconcileCLI, OccLarge, SimPaper, EvaluateDM)}


def make(name: str, scale: str) -> Workload:
    return WORKLOADS[name](scale)
