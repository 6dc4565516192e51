"""Write the output-contract matrix of ``cocomb`` into a directory, with a ``SHA256SUMS`` file.

Usage: ``python tests/contract_outputs.py OUTDIR``, or
``python tests/contract_outputs.py --reference`` to rewrite the reference.

Runs ``cocomb.cli.main`` in process, from ``OUTDIR``, on inputs it first
copies or writes into ``OUTDIR/inputs``, so every path a manifest records is
relative and two checkouts write the same manifests:

* ``reconcile`` on ``sample_data/`` and on a balanced 3-expert, 2-horizon panel,
  under each of the 7 ``--cov`` choices x (``occ`` in its 4 formulations,
  ``scr-ew``, ``scr-var``, ``scr-cov``, ``src``), with ``--emit-weights`` and
  ``--emit-cov``;
* ``reconcile`` on a one-expert panel (seeded values on
  ``sample_data/constraints.json``) under the 7 choices x (``mint``, ``occ`` in
  its 4 formulations), with both emits;
* ``combine`` on ``sample_data/`` and the balanced panel, 4 schemes x 7 choices;
* ``simulate`` setting 2 balanced (14 methods) and setting 6 unbalanced
  (10 methods), 20 replications each, at ``--jobs`` 1 and 2;
* ``evaluate --dm`` on a seeded 3-series, 3-method, 7-horizon, 12-origin pair.

``runs.txt`` holds each run's name, exit code and stderr (``src`` exits 3 on the
unbalanced sample). ``SHA256SUMS`` lists every other file in ``sha256sum``'s
format. To show which outputs a change moves, run the script at both commits
and compare with ``diff -r``. Bytes depend on the BLAS build and its thread
count: the script pins ``OPENBLAS_NUM_THREADS=1`` unless the caller set it.
Pytest does not collect this file; ``test_contract.py`` runs the matrix and
compares it with ``REFERENCE``, the outputs (``inputs/`` and ``SHA256SUMS``
left out) as ``--reference`` packed them.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import hashlib
import io
import os
import random
import shutil
import sys
import tarfile
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads its BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cocomb.cli import main  # noqa: E402

REFERENCE = ROOT / "tests" / "contract_reference.tar.gz"

COVS = ("sample", "shrink", "bd-expert", "bd-expert-shrink", "bd-variable",
        "bd-variable-shrink", "diag")
FORMULATIONS = ("zc-be", "zc-bv", "struct-be", "struct-bv")
SCHEMES = ("ew", "ow-var", "ow-cov", "multi-task")
BALANCED = ("ew,ow-var,ow-cov,src,scr-ew,scr-var,scr-cov,occ-be,occ-bv,occ-shr,occ-wls,"
            "base-star,base-star-shr,base-shr")
UNBALANCED = "ew,ow-var,ow-cov,scr-ew,scr-var,scr-cov,occ-be,occ-bv,occ-shr,occ-wls"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _panel(path: Path, experts, horizons, seed: int, t_len: int = 40) -> None:
    """A panel on ``sample_data``'s total = east + west: each expert forecasts every
    series, with seeded values and residuals correlated across experts."""
    rng = np.random.default_rng(seed)
    series = ("total", "east", "west")
    path.mkdir(parents=True)
    shutil.copy(ROOT / "sample_data" / "constraints.json", path)
    _write_csv(path / "panel.csv", ["series", "expert", "horizon", "value"],
               [(s, e, h, repr(float(10.0 + rng.standard_normal())))
                for h in horizons for e in experts for s in series])
    common = rng.standard_normal((len(series), t_len))
    _write_csv(path / "residuals.csv", ["t", "series", "expert", "value"],
               [(t, s, e, repr(float(common[i, t] + (0.5 + k) * rng.standard_normal())))
                for k, e in enumerate(experts) for i, s in enumerate(series)
                for t in range(t_len)])


def _evaluation(path: Path) -> None:
    """Actuals and forecasts for ``evaluate``, as the CI workflow writes them."""
    rng = random.Random(7)
    path.mkdir(parents=True)
    act, fc = [], []
    for h in range(1, 8):
        for q in range(12):
            for series in ("total", "east", "west"):
                y = rng.gauss(5.0, 1.0)
                act.append([series, h, q, repr(y)])
                for method, sd in (("ew", 1.0), ("occ", 0.6), ("mint", 0.8)):
                    fc.append([method, series, h, q, repr(y + rng.gauss(0.0, sd))])
    _write_csv(path / "actuals.csv", ["series", "horizon", "q", "value"], act)
    _write_csv(path / "forecasts.csv", ["method", "series", "horizon", "q", "value"], fc)


def _runs():
    """(name, argv) of every run in the matrix, outputs relative to the output directory."""
    for data in ("sample", "balanced", "one-expert"):
        inputs = [f"--{f}=inputs/{data}/{name}" for f, name in (
            ("constraints", "constraints.json"), ("panel", "panel.csv"),
            ("residuals", "residuals.csv"))]
        methods = ([("mint", "zc-be")] if data == "one-expert"
                   else [(m, "zc-be") for m in ("scr-ew", "scr-var", "scr-cov", "src")])
        methods += [("occ", f) for f in FORMULATIONS]
        for cov in COVS:
            for method, formulation in methods:
                name = f"reconcile/{data}-{cov}-{method}" + (
                    f"-{formulation}" if method == "occ" else "")
                yield name, ["reconcile", *inputs, f"--cov={cov}", f"--method={method}",
                             f"--formulation={formulation}", f"--output={name}-coherent.csv",
                             f"--emit-weights={name}-weights.csv",
                             f"--emit-cov={name}-wtilde.csv"]
            if data != "one-expert":
                for scheme in SCHEMES:
                    name = f"combine/{data}-{cov}-{scheme}"
                    yield name, ["combine", *inputs, f"--cov={cov}", f"--scheme={scheme}",
                                 f"--output={name}.csv"]
    for jobs in (1, 2):
        for name, args in (("setting2", ["--setting=2", f"--methods={BALANCED}"]),
                           ("setting6-unbalanced", ["--setting=6", "--unbalanced",
                                                    f"--methods={UNBALANCED}"])):
            name = f"simulate/{name}-jobs{jobs}"
            yield name, ["simulate", *args, "--reps=20", f"--jobs={jobs}",
                         f"--output={name}.csv"]
    yield "evaluate/dm", ["evaluate", "--actuals=inputs/eval/actuals.csv",
                          "--forecasts=inputs/eval/forecasts.csv", "--benchmark=ew",
                          "--horizons=1:7", "--dm", "--output=evaluate/accuracy.csv",
                          "--dm-output=evaluate/dm.csv"]


def write_contract(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=False)
    shutil.copytree(ROOT / "sample_data", out / "inputs" / "sample")
    _panel(out / "inputs" / "balanced", ("e1", "e2", "e3"), (1, 2), seed=11)
    _panel(out / "inputs" / "one-expert", ("solo",), (1,), seed=12)
    _evaluation(out / "inputs" / "eval")
    log, cwd = [], os.getcwd()
    os.chdir(out)
    try:
        for name, argv in _runs():
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            log.append(f"{name}\texit {code}\t{err.getvalue().strip()}\n")
    finally:
        os.chdir(cwd)
    (out / "runs.txt").write_text("".join(log))
    sums = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}\n"
            for p in sorted(out.rglob("*")) if p.is_file()]
    (out / "SHA256SUMS").write_text("".join(sums))


def outputs(out: Path) -> list[str]:
    """The outputs of a matrix written to ``out``: every file but the inputs and the sums."""
    return sorted(name for p in out.rglob("*") if p.is_file()
                  and (name := p.relative_to(out).as_posix()) != "SHA256SUMS"
                  and not name.startswith("inputs/"))


def write_reference() -> None:
    """Run the matrix and pack its outputs into ``REFERENCE``, byte for byte reproducibly."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        write_contract(out)
        with open(REFERENCE, "wb") as fh, \
                gzip.GzipFile("", "wb", compresslevel=9, fileobj=fh, mtime=0) as gz, \
                tarfile.open(fileobj=gz, mode="w", format=tarfile.PAX_FORMAT) as tar:
            for name in outputs(out):
                data = (out / name).read_bytes()
                info = tarfile.TarInfo(name)
                info.size, info.mode = len(data), 0o644
                tar.addfile(info, io.BytesIO(data))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    if sys.argv[1] == "--reference":
        write_reference()
    else:
        write_contract(Path(sys.argv[1]))
