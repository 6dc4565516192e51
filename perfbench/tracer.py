"""Span tracer for the traced run, wrapping cocomb's layer entry points from outside.

Nothing under ``src/`` is edited. ``install`` rebinds each target function in
every ``cocomb`` module namespace that holds it (and on the classes and on
``scipy.linalg`` for methods and the Cholesky calls), so calls that cocomb
resolves at call time are recorded. ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, job, extra]``; spans are kept in memory
and written out when the benchmark ends. A span's self time is its duration
minus the durations of its direct children. The span names are
``<layer>.<op>``; the job root span is ``job`` and its self time is the time
no layer accounts for.
"""

from __future__ import annotations

import csv
import functools
import gzip
import hashlib
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "constraints", "panel", "covariance", "combiners", "coherent",
          "linalg", "simulation", "metrics")

MB = float(1 << 20)

# (module, attribute, span name, extra-recording hook name or None)
TARGETS = (
    ("cocomb.cli", "main", "cli.main", None),
    ("cocomb.cli", "_read_csv_dicts", "cli.parse", "path"),
    ("cocomb.cli", "_read_panel_csv", "cli.parse", "path"),
    ("cocomb.cli", "_read_residual_csv", "cli.parse", "path"),
    ("cocomb.cli", "_write_atomic", "cli.write", "text_len"),
    ("cocomb.cli", "_write_manifest", "cli.write", None),
    ("cocomb.cli", "_csv_text", "cli.write", None),
    ("cocomb.cli", "_forecast_csv", "cli.write", None),
    ("cocomb.constraints", "read_constraint_file", "constraints.read", None),
    ("cocomb.constraints", "from_aggregation", "constraints.build", None),
    ("cocomb.constraints", "from_general_constraints", "constraints.build", None),
    ("cocomb.constraints", "is_coherent", "constraints.check", None),
    ("cocomb.panel", "ForecastPanel.__init__", "panel.build", "panel"),
    ("cocomb.panel", "from_availability", "panel.assemble", None),
    ("cocomb.panel", "build_panel", "panel.assemble", None),
    ("cocomb.panel", "residual_panel", "panel.residuals", None),
    ("cocomb.panel", "residuals_from_arrays", "panel.residuals", None),
    ("cocomb.panel", "to_by_variable", "panel.permute", None),
    ("cocomb.covariance", "sample_mse", "covariance.estimate", "singular"),
    ("cocomb.covariance", "shrink", "covariance.estimate", "singular"),
    ("cocomb.covariance", "shrink_intensity", "covariance.estimate", None),
    ("cocomb.covariance", "diagonal_mse", "covariance.estimate", "singular"),
    ("cocomb.covariance", "block_by_expert", "covariance.estimate", "singular"),
    ("cocomb.covariance", "block_by_variable", "covariance.estimate", "singular"),
    ("cocomb.covariance", "as_covariance", "covariance.estimate", "singular"),
    ("cocomb.combiners", "single_task_weights", "combiners.weights", None),
    ("cocomb.combiners", "simplex_weights", "combiners.simplex", None),
    ("cocomb.combiners", "combine_single_task", "combiners.combine", None),
    ("cocomb.combiners", "combine_multi_task", "combiners.combine", None),
    ("cocomb.combiners", "WeightScheme.matrix", "combiners.apply", None),
    ("cocomb.combiners", "WeightScheme.apply", "combiners.apply", None),
    ("cocomb.coherent", "occ", "coherent.occ", None),
    ("cocomb.coherent", "mint_reconcile", "coherent.mint", None),
    ("cocomb.coherent", "scr", "coherent.scr", None),
    ("cocomb.coherent", "src", "coherent.src", None),
    ("cocomb._linalg", "cho_factor_spd", "linalg.factor", None),
    ("cocomb._linalg", "cho_solve", "linalg.solve", None),
    ("cocomb._linalg", "symmetrize", "linalg.symmetrize", None),
    ("scipy.linalg", "cho_factor", "linalg.factor", "factor"),
    ("scipy.linalg", "cho_solve", "linalg.solve", None),
    ("cocomb.simulation", "run_experiment", "simulation.run", None),
    ("cocomb.simulation", "generate_replication", "simulation.generate", None),
    ("cocomb.simulation", "nearest_correlation", "simulation.nearest_corr", None),
    ("cocomb.metrics", "accuracy", "metrics.accuracy", None),
    ("cocomb.metrics", "dm_test", "metrics.dm_test", None),
)


def _fingerprint(a) -> tuple:
    """Identity of a matrix's contents: exact for small ones, sampled for large."""
    a = np.asarray(a)
    flat = a.ravel(order="K")
    if flat.size > 65536:
        flat = flat[:: flat.size // 4096]
    return a.shape, hashlib.blake2b(np.ascontiguousarray(flat).tobytes(), digest_size=16).digest()


class Tracer:
    """Records spans of the wrapped calls made while ``job`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self.largest_build = None  # (m, args, kwargs) of the widest panel built

    # -- hooks: small facts recorded with a span, computed after it has ended --

    def _extra(self, hook, args, kwargs, out):
        if hook == "path":
            return str(args[0])
        if hook == "text_len":
            return len(args[1])
        if hook == "singular":
            return bool(getattr(out, "singular", False))
        if hook == "factor":
            a = np.asarray(args[0])
            return a.shape[0], _fingerprint(a)
        if hook == "panel":
            panel = args[0]
            m = int(panel.y_hat.size)
            if self.largest_build is None or m > self.largest_build[0]:
                self.largest_build = (m, args[1:], kwargs)
            stored = getattr(panel, "__dict__", {})
            dense = sum(stored[k].nbytes for k in ("L", "K", "P", "J")
                        if isinstance(stored.get(k), np.ndarray))
            avail = np.asarray(panel.availability)
            return avail.shape, avail.tobytes(), dense
        return None

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.job, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                span[5] = tracer._extra(hook, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cocomb" or n.startswith("cocomb."))]
        for mod_name, attr, name, hook in TARGETS:
            mod = importlib.import_module(mod_name)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:  # a method: rebind it on its class
                owner = getattr(mod, owner_name, None)
                orig = getattr(owner, member, None) if owner is not None else None
                if orig is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._rebind(owner, member, orig, self._wrap(orig, name, hook))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(orig, name, hook)
            self._rebind(mod, attr, orig, wrapper)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._rebind(other, key, orig, wrapper)

    def _rebind(self, owner, key, orig, wrapper) -> None:
        if getattr(owner, key) is orig:
            self._restore.append((owner, key, orig))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def run_job(self, job: int, fn):
        """Run ``fn()`` as job ``job`` under a root span."""
        self.job = job
        idx = len(self.spans)
        span = ["job", 0.0, 0.0, -1, job, None]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn()
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.job = None

    def panel_peak_mb(self) -> float:
        """tracemalloc peak of rebuilding the widest panel seen, outside any span."""
        if self.largest_build is None:
            return 0.0
        from cocomb.panel import ForecastPanel

        _, args, kwargs = self.largest_build
        tracemalloc.start()
        try:
            ForecastPanel(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / MB

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start", "end", "parent", "job"])
            for i, (name, t0, t1, parent, job, _) in enumerate(self.spans):
                writer.writerow([i, name, repr(t0), repr(t1), parent, job])

    # -- derived per-layer metrics -------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics over all traced jobs, as {name: (value, unit)}."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        op_self = defaultdict(float)
        counts = defaultdict(int)
        entry = defaultdict(int)
        wall = 0.0
        for i, (name, t0, t1, parent, job, extra) in enumerate(spans):
            s = (t1 - t0) - child[i]
            layer = name.split(".")[0]
            self_s[layer] += s
            op_self[name] += s
            counts[name] += 1
            if name == "job":
                wall += t1 - t0
            elif parent < 0 or spans[parent][0].split(".")[0] != layer:
                entry[layer] += 1

        parse_bytes = parse_rows = write_bytes = 0
        for name, _, _, parent, _, extra in spans:
            if name == "cli.parse" and extra and (parent < 0 or spans[parent][0] != "cli.parse"):
                with open(extra, "rb") as fh:
                    data = fh.read()
                parse_bytes += len(data)
                parse_rows += max(0, data.count(b"\n") - 1)
            elif name == "cli.write" and extra is not None:
                write_bytes += extra

        builds = [(job, extra) for name, _, _, _, job, extra in spans if name == "panel.build"]
        masks = {(job, extra[0], extra[1]) for job, extra in builds}
        dense_mb = max((extra[2] for _, extra in builds), default=0) / MB

        singular = sum(1 for name, _, _, parent, _, extra in spans
                       if name == "covariance.estimate" and extra
                       and (parent < 0 or not spans[parent][0].startswith("covariance.")))

        factors = [(job, extra) for name, _, _, _, job, extra in spans
                   if name == "linalg.factor" and extra is not None]
        seen = set()
        flops = repeat = 0.0
        max_dim = 0
        for job, (dim, fp) in factors:
            f = dim ** 3 / 3.0
            flops += f
            if (job, fp) in seen:
                repeat += f
            seen.add((job, fp))
            max_dim = max(max_dim, dim)

        unattributed = self_s["job"]
        out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
        out.update({
            "cli.main.self_s": (op_self["cli.main"], "s"),
            "cli.parse.self_s": (op_self["cli.parse"], "s"),
            "cli.parse.rows": (parse_rows, "count"),
            "cli.parse.bytes": (parse_bytes, "B"),
            "cli.write.self_s": (op_self["cli.write"], "s"),
            "cli.write.bytes": (write_bytes, "B"),
            "panel.builds": (len(builds), "count"),
            "panel.builds_per_mask": (len(builds) / len(masks) if masks else 0.0, "ratio"),
            "panel.dense_mb": (dense_mb, "MB"),
            "covariance.calls": (entry["covariance"], "count"),
            "covariance.singular": (singular, "count"),
            "linalg.factor.calls": (len(factors), "count"),
            "linalg.factor.self_s": (op_self["linalg.factor"], "s"),
            "linalg.factor.gflop": (flops / 1e9, "GFLOP"),
            "linalg.factor.max_dim": (max_dim, "rows"),
            "linalg.factor.repeat_frac": (repeat / flops if flops else 0.0, "ratio"),
            "linalg.solve.self_s": (op_self["linalg.solve"], "s"),
            "coherent.calls": (entry["coherent"], "count"),
            "combiners.simplex.calls": (counts["combiners.simplex"], "count"),
            "simulation.generate.self_s": (op_self["simulation.generate"], "s"),
            "simulation.nearest_corr.calls": (counts["simulation.nearest_corr"], "count"),
            "simulation.nearest_corr.self_s": (op_self["simulation.nearest_corr"], "s"),
            "metrics.dm_test.calls": (counts["metrics.dm_test"], "count"),
            "trace.wall_s": (wall, "s"),
            "trace.unattributed_s": (unattributed, "s"),
            "trace.coverage_frac": ((wall - unattributed) / wall if wall else 0.0, "ratio"),
            "trace.spans": (len(spans), "count"),
        })
        return out


BASES = {
    "panel.builds_per_mask": "distinct (job, availability mask) pairs",
    "panel.dense_mb": "bytes of the dense L, K, P, J held by the widest panel built",
    "panel.peak_mb": "tracemalloc peak of rebuilding the widest panel, outside the spans",
    "linalg.factor.gflop": "sum of d^3/3 over scipy.linalg.cho_factor calls (computed, not counted)",
    "linalg.factor.repeat_frac": "flops re-factorizing a matrix already factorized in the "
                                 "same job / all factorization flops",
    "covariance.calls": "calls into the covariance layer from another layer",
    "coherent.calls": "calls into the coherent layer from another layer",
    "trace.coverage_frac": "traced wall time covered by named layer spans over traced wall_s",
    "trace.overhead_frac": "(traced wall_s - untraced wall_s) / untraced wall_s, same jobs",
    "process.cpu_s": "process CPU time of the untraced batch's job calls",
}
