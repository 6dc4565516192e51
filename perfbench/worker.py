"""Runs one workload's batch in a fresh process; started by ``run.py``.

Usage: ``python3 perfbench/worker.py WORKDIR``. ``WORKDIR/plan.json`` names the
workload, scale, job count, whether to add a traced batch, and (for the
self-test only) a job whose output is corrupted before it is checked. The
result goes to ``WORKDIR/result.json``.

The process runs one untimed warm-up job, then the batch with tracing off;
with tracing on it then runs the same batch again under the tracer. Only the
job call itself is timed; output checks run between jobs.
"""

from __future__ import annotations

import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import BASES, Tracer  # noqa: E402


def _blas_version() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return None


def _run_batch(wl, n_jobs: int, corrupt: int | None, tracer: Tracer | None, failures: list):
    """Run jobs 0..n_jobs-1 in order; return their wall times and total CPU time."""
    times = []
    cpu = 0.0
    for k in range(n_jobs):
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run_job(k)
            else:
                out = tracer.run_job(k, lambda: wl.run_job(k))
        except Exception:
            times.append(time.perf_counter() - t0)
            cpu += time.process_time() - c0
            failures.append({"job": k, "traced": tracer is not None,
                             "error": traceback.format_exc(limit=3)})
            continue
        times.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        try:
            if k == corrupt:
                out = wl.corrupt(out)
            err = wl.check(k, out)
        except Exception:
            err = "output check raised: " + traceback.format_exc(limit=3)
        if err:
            failures.append({"job": k, "traced": tracer is not None, "error": err})
        del out
    return times, cpu


def main() -> int:
    work = Path(sys.argv[1])
    plan = json.loads((work / "plan.json").read_text())
    sys.path.insert(0, plan["src"])
    import cocomb
    import scipy

    wl = workloads.make(plan["workload"], plan["scale"])
    wl.load(work)
    n_jobs = plan["jobs"]
    failures: list[dict] = []

    warm, _ = _run_batch(wl, 1, None, None, failures)  # untimed warm-up job
    times, cpu_s = _run_batch(wl, n_jobs, plan.get("corrupt_job"), None, failures)
    attempted = 1 + n_jobs

    result = {
        "warmup_s": warm[0],
        "job_s": times,
        "job_p50_s": statistics.median(times),
        "wall_s": sum(times),
        "cpu_s": cpu_s,
    }
    if plan["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = _run_batch(wl, n_jobs, None, tracer, failures)
        finally:
            tracer.uninstall()
        attempted += n_jobs
        layer = tracer.metrics()
        layer["panel.peak_mb"] = (tracer.panel_peak_mb(), "MB")
        layer["process.cpu_s"] = (cpu_s, "s")
        layer["trace.overhead_frac"] = ((sum(traced) - sum(times)) / sum(times), "ratio")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["per_layer_bases"] = BASES
        result["trace_missing"] = tracer.missing
        tracer.write_spans(work / "spans.csv.gz")

    result.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_version(),
            "cocomb": cocomb.__version__,
        },
    })
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
