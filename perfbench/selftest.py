"""Self-test of the benchmark at toy sizes (about two minutes on a 2-core box).

Usage, from the repository root: ``python3 perfbench/selftest.py``. Exits 0
when every check passes. It shows that

* every workload runs, traced and untraced, with every job passing its check;
* every metric named in ``BENCHMARK.json`` is printed with its unit, both in
  the text lines and in the final JSON line;
* an injected wrong answer is counted as a failed job;
* per-layer self times plus unattributed time add up to the traced wall time,
  and named layer spans cover at least 90% of it;
* the deterministic counts repeat exactly across two traced runs;
* the same seed gives byte-identical inputs;
* without the program's source next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DETERMINISTIC = ("panel.builds", "linalg.factor.calls", "linalg.factor.gflop",
                 "simulation.nearest_corr.calls", "metrics.dm_test.calls")
FAILURES: list[str] = []


def expect(ok: bool, what: str, detail: str = "") -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)
        if detail:
            print("     " + detail.strip()[-600:].replace("\n", "\n     "))


def run(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(HERE / "run.py") if cwd == ROOT else "perfbench/run.py",
           "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
           "--trace", str(trace), "--scale", "toy", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def printed_with_unit(stdout: str, name: str, unit: str) -> bool:
    return re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b", stdout, re.M) is not None


def check_metrics(stdout: str, result: dict, spec: list[dict], what: str) -> None:
    names = [m["name"] for m in spec]
    expect(sorted(result["metrics"]) == sorted(names),
           f"{what}: JSON metrics are exactly the BENCHMARK.json names")
    bad = [m["name"] for m in spec
           if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]
           or not printed_with_unit(stdout, m["name"], m["unit"])]
    expect(not bad, f"{what}: every metric printed by name with its unit {bad or ''}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(workloads.WORKLOADS), "BENCHMARK.json lists the four workloads")
    for w in bench["workloads"]:
        expect(w["why"] == workloads.WORKLOADS[w["name"]].why,
               f"{w['name']}: BENCHMARK.json reason matches workloads.py")

    for name in names:
        proc, res = run(name, 1, 0)
        expect(res is not None and res["correct"] and res["failed"] == 0,
               f"{name}: untraced run passes every check", proc.stdout + proc.stderr)
        if res:
            check_metrics(proc.stdout, res, bench["end_to_end"], f"{name} trace 0")
            expect("fail_frac" in proc.stdout, f"{name}: fail_frac printed")

        traced = []
        for _ in range(2):
            proc, res = run(name, 1, 1)
            expect(res is not None and res["correct"], f"{name}: traced run passes every check",
                   proc.stdout + proc.stderr)
            if res is None:
                break
            traced.append(res["metrics"])
        if len(traced) == 2:
            check_metrics(proc.stdout, res, bench["per_layer"], f"{name} trace 1")
            m = {k: v["value"] for k, v in traced[0].items()}
            layers = sum(v for k, v in m.items()
                         if k.count(".") == 1 and k.endswith(".self_s"))
            total = layers + m["trace.unattributed_s"]
            expect(math.isclose(total, m["trace.wall_s"], rel_tol=1e-9),
                   f"{name}: layer self times + unattributed = traced wall_s "
                   f"({total:.6f} vs {m['trace.wall_s']:.6f})")
            expect(m["trace.coverage_frac"] >= 0.9,
                   f"{name}: layer spans cover {m['trace.coverage_frac']:.3f} >= 0.9 of traced wall")
            same = all(traced[0][k]["value"] == traced[1][k]["value"] for k in DETERMINISTIC)
            expect(same, f"{name}: deterministic counts repeat across runs")

        proc, res = run(name, 1, 0, "--corrupt-job", "0")
        expect(res is not None and not res["correct"] and res["failed"] == 1,
               f"{name}: a corrupted output is counted as a failure")

        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
            shas = []
            for sub in ("a", "b"):
                work = Path(tmp) / sub
                work.mkdir()
                shas.append(workloads.make(name, "full").generate(7, work)["inputs"])
            expect(shas[0] == shas[1], f"{name}: same seed gives byte-identical inputs")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, res = run(names[0], 1, 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
