"""Record the reference outputs that sim_paper and evaluate_dm are checked against.

Usage, from the repository root: ``python3 perfbench/record_reference.py``.
Runs every distinct job of both workloads once per reference seed
(0..N_REF_SEEDS-1) and scale, and rewrites ``perfbench/reference.json`` with the
row keys and values of their output CSVs. Run it only at a commit whose outputs
are trusted; the benchmark then checks later commits against these values.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main() -> int:
    work = Path.cwd() / ".perfbench_work" / "record"
    out: dict = {}
    for scale in workloads.SCALES:
        for name in ("sim_paper", "evaluate_dm"):
            rec = out.setdefault(scale, {}).setdefault(name, {"keys": {}, "values": {}})
            for seed in range(workloads.N_REF_SEEDS):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                wl = workloads.make(name, scale)
                wl.generate(seed, work)
                wl.load(work)
                per_seed = rec["values"].setdefault(str(seed), {})
                for k in range(wl.cycle):
                    rc = wl.run_job(k)
                    if rc != 0:
                        raise SystemExit(f"{name} job {k} exited with {rc}")
                    keys, values = wl.output_values(k)
                    rec["keys"][wl.job_key(k)] = keys
                    per_seed[wl.job_key(k)] = values
                print(f"recorded {scale} {name} seed {seed}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
