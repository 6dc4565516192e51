"""cocomb benchmark: one workload, one seed, one run.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``README.md``): ``reconcile_cli``,
``occ_large``, ``sim_paper``, ``evaluate_dm``. The run

1. times ``import cocomb, cocomb.cli`` in fresh interpreters (``setup_s``,
   median of several),
2. writes the seeded inputs and the check references into a work directory
   under ``.perfbench_work/``,
3. starts one worker process with the BLAS thread count pinned, which runs an
   untimed warm-up job and then a fixed batch sized from ``--seconds``; with
   ``--trace 1`` the batch is halved and run twice, untraced then traced,
4. prints every metric by name and unit, writes the full result with its
   environment stamp to ``.perfbench_work/results/``, and prints one JSON
   object as the last line: the end-to-end metrics with ``--trace 0``, the
   per-layer metrics with ``--trace 1``.

``--scale toy`` and ``--corrupt-job`` exist for ``selftest.py``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child. Output bits depend on
# the thread count, and one thread measured steadier on a 2-core box.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cocomb, cocomb.cli; "
                "print(repr(time.perf_counter() - t))")


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _setup_times(env: dict) -> list[float]:
    """Import time of cocomb and cocomb.cli in fresh interpreters (first one untimed)."""
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    times = []
    for k in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60,
                             check=True)
        if k:
            times.append(float(out.stdout))
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"],
                    help="one workload, or 'all' to run the four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    ap.add_argument("--corrupt-job", type=int, default=None,
                    help="corrupt this job's output before checking it (self-test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            args.workload = name
            status = max(status, run(args))
        return status
    return run(args)


def run(args) -> int:
    """Measure one workload; print its metrics and the final JSON line."""
    root = Path.cwd()
    src = root / "src"
    if not (src / "cocomb" / "__init__.py").is_file():
        print("perfbench: no cocomb source at src/cocomb; run from the repository root",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    work_root = root / ".perfbench_work"
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    work = work_root / f"{tag}-{os.getpid()}"
    results_dir = work_root / "results"
    work.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    try:
        setup = _setup_times(env)
        sys.path.insert(0, str(src))
        wl = workloads.make(args.workload, args.scale)
        info = wl.generate(args.seed, work)
        wl.write_reference(work)
        n_jobs = wl.job_count(args.seconds / (2 if args.trace else 1))
        plan = {"workload": args.workload, "scale": args.scale, "jobs": n_jobs,
                "trace": bool(args.trace), "corrupt_job": args.corrupt_job, "src": str(src)}
        (work / "plan.json").write_text(json.dumps(plan))
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        with open(work / "worker.log", "w") as log:
            try:
                proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work)],
                                      env=env, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(remaining, 5.0))
            except subprocess.TimeoutExpired:
                print(f"perfbench: worker exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
                return 1
        if proc.returncode != 0 or not (work / "result.json").exists():
            sys.stderr.write((work / "worker.log").read_text()[-4000:])
            print(f"perfbench: worker exited with status {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads((work / "result.json").read_text())
        if args.trace:
            shutil.copyfile(work / "spans.csv.gz",
                            results_dir / f"spans-{args.workload}-{args.scale}.csv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_s": (res["job_p50_s"], "s"),
        "wall_s": (res["wall_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    fail_frac = res["failed"] / res["attempted"]
    record = {
        "workload": args.workload, "why": wl.why, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "jobs": n_jobs,
        "warmup_jobs": 1, "traced_jobs": n_jobs if args.trace else 0,
        "loop": "closed, one client, one process, jobs back to back",
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "fail_frac": {"value": fail_frac, "unit": "ratio", "base": "jobs attempted"},
        "tracing_off": list(e2e) + ["fail_frac"],
        "per_layer": res.get("per_layer"),
        "per_layer_bases": res.get("per_layer_bases"),
        "trace_missing": res.get("trace_missing"),
        "sizes": info["sizes"], "input_bytes": info["input_bytes"],
        "input_sha256": info["inputs"],
        "env": dict(res["env"], git_commit=_git_commit(root),
                    src_sha256=_src_digest(src / "cocomb"), blas_threads=BLAS_THREADS,
                    nproc=os.cpu_count()),
        "samples": {"setup_s": setup, "job_s": res["job_s"], "warmup_s": res["warmup_s"]},
        "cpu_s": res["cpu_s"],
        "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"],
    }
    result_path = results_dir / f"{tag}.json"
    result_path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} ({args.scale}) seed={args.seed} trace={args.trace}: "
          f"{n_jobs} jobs after 1 warm-up, BLAS threads={BLAS_THREADS}, nproc={os.cpu_count()}")
    for name, (value, unit) in e2e.items():
        note = f"  (median of {n_jobs} jobs)" if name == "job_p50_s" else ""
        print(f"  {name:<32} {value:.6g} {unit}{note}")
    print(f"  {'fail_frac':<32} {fail_frac:.6g} ratio  "
          f"({res['failed']} of {res['attempted']} jobs)")
    for failure in res["failures"]:
        print(f"  failed job {failure['job']}: {failure['error'].strip()[:300]}")
    layer = res.get("per_layer") or {}
    for name, m in layer.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    if res.get("trace_missing"):
        print(f"  not traced (missing in cocomb): {', '.join(res['trace_missing'])}")
    print(f"  result: {result_path.relative_to(root)}")

    metrics = ({k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
               if not args.trace else layer)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
