"""Mutation probe: which small edits of a module does the test suite let through?

Usage: ``python tests/mutation_probe.py MODULE ...``, each MODULE a file under
``src/cocomb`` (``coherent.py``). Pytest does not collect this file.

Each mutant changes one site of the module: a binary ``+ - * /`` swapped
(``+``/``-``, ``*``/``/``), a comparison turned (``<`` to ``<=`` and ``>``,
``==`` to ``!=``, ``is`` to ``is not``, and so on), a numeric constant ``c``
made ``c + 1``, a ``~`` or ``not`` dropped, or ``argmin`` swapped with
``argmax``. A mutant runs in a private copy of ``src`` and ``tests``: first
its module's own test files (``FAST``) with ``-x``, then, if they pass, the
whole suite. It is killed when either run fails or outlasts ``TIMEOUT_FACTOR``
times the unmutated whole-suite run, which the probe times first. A survivor is
reported unless ``EQUIVALENT`` lists it with the reason it cannot be told
apart by any test (an equivalent mutant, or one on a tolerance boundary).
The exit code is 1 when a survivor is not on that list.

Before the mutants, the unmutated copy must pass the whole suite. Mutants are
written with ``ast.unparse``, so they carry no comments; that changes no
behaviour. One worker per CPU this process may run on judges one mutant at a
time, each in its own copy. No ``.pyc`` is written: two mutants of one size
rewritten within one second would otherwise share a stale one. SIGTERM ends
the probe as Ctrl-C does: the pytest runs in flight are killed and the copies
removed.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NUMERIC = ("tests/test_coherent.py", "tests/test_combiners.py", "tests/test_linalg.py",
            "tests/test_acceptance.py", "tests/test_covariance.py")
_CLI = tuple(f"tests/test_cli{part}.py" for part in
             ("", "_evaluate", "_fit_once", "_inputs", "_readers", "_writers"))


def _own_first(own: str) -> tuple[str, ...]:
    return (own, *(f for f in _NUMERIC if f != own))


# each module's own test files first; a module not listed goes straight to the whole suite
FAST = {
    "_linalg.py": _own_first("tests/test_linalg.py"),
    "coherent.py": _own_first("tests/test_coherent.py"),
    "combiners.py": _own_first("tests/test_combiners.py"),
    "covariance.py": _own_first("tests/test_covariance.py"),
    "metrics.py": ("tests/test_metrics.py", "tests/test_cli_evaluate.py"),
    "cli.py": _CLI,
    "constraints.py": ("tests/test_constraints.py",),
    "panel.py": ("tests/test_panel.py",),
    "simulation.py": ("tests/test_simulation.py",),
}
TIMEOUT_FACTOR = 4  # a mutant's run may take this many times the unmutated suite's
_RUNNING: set = set()  # the pytest processes in flight, killed when the probe ends

# (module, the mutated line as written, "before -> after" of the mutated node): why no
# test can fail on it. Keyed by text, not line number, so an edit elsewhere keeps it.
EQUIVALENT = {
    ("covariance.py", "d = 1.0 / np.sqrt(self.var)", "1.0 -> 2.0"):
        "the intensity is invariant to one common scale of d, and doubling is exact",
    ("covariance.py", "self.singular, self.m = self._factor is None, w.shape[0]", "0 -> 1"):
        "w is square: the constructor refused any other",
    ("covariance.py", 'return CovarianceEstimate(w, "sample", singular=w.shape[0] > self.T)',
     "0 -> 1"): "w is the whole MSE, which is square",
    ("_linalg.py", "for j in range(inv.shape[0] - 1):  # dpotri filled the lower triangle: "
     "mirror it in place", "0 -> 1"): "dpotri's inverse is square",
    ("combiners.py", "violated = np.flatnonzero(~free & (grad < mu - tol))",
     "grad < mu - tol -> grad <= mu - tol"):
        "differs only for a gradient exactly at mu - tol",
    ("combiners.py", "violated = np.flatnonzero(~free & (grad < mu - tol))",
     "mu - tol -> mu + tol"):
        "tolerance boundary: re-enters only coordinates within tol of mu, which no "
        "non-degenerate input has",
    ("combiners.py", "free[violated[np.argmin(grad[violated])]] = True",
     "np.argmin -> np.argmax"):
        "changes only which violated weight re-enters first, not the minimum reached",
    ("combiners.py", "def simplex_weights(sigma: np.ndarray, tol: float = 1e-8, "
     "max_iter: int = 200) -> np.ndarray:", "200 -> 201"):
        "the cap only ends an iteration that cycles; none does within 200 steps",
    ("combiners.py", "k = sigma.shape[0]", "0 -> 1"): "sigma is square",
    ("combiners.py", "gamma_free = raw / raw.sum()", "raw / raw.sum() -> raw * raw.sum()"):
        "tolerance boundary: raw.sum() = 1' sigma^-1 1 > 0, so the rescale keeps every "
        "sign and gamma is renormalized; only a weight within tol of 0 can differ",
    ("combiners.py", "if (gamma_free < -tol).any():", "gamma_free < -tol -> gamma_free <= -tol"):
        "differs only for a weight exactly at -tol",
    ("combiners.py", "free[idx[gamma_free < -tol]] = False",
     "gamma_free < -tol -> gamma_free <= -tol"):
        "differs only for a weight exactly at -tol",
    ("combiners.py", "w = 1.0 / variances", "1.0 -> 2.0"):
        "the weights are divided by their sum, and doubling is exact",
    ("cli.py", "_CHUNK_ROWS = 4096", "4096 -> 4097"):
        "chunking changes no result: the chunked-read tests agree at 1, 3 and 4096 rows",
    ("cli.py", "hq, key_idx = np.unique(np.searchsorted(wanted, h) * len(q_values) + "
     "q_rank.reshape(-1),", "1 -> 2"):
        "numpy reads any negative size as the one unknown dimension",
    ("cli.py", "flat = np.ravel_multi_index((*ranks, key_idx.reshape(-1)), shape)", "1 -> 2"):
        "numpy reads any negative size as the one unknown dimension",
    ("cli.py", "grid.reshape(-1)[flat] = values", "1 -> 2"):
        "numpy reads any negative size as the one unknown dimension",
    ("cli.py", "significant = p < 0.05", "p < 0.05 -> p <= 0.05"):
        "differs only for a p-value exactly at 0.05",
    ("cli.py", "wins[a, b] = (significant & (stat < 0)).sum(axis=1)", "0 -> 1"):
        "a significant statistic has |stat| > 1.96, so 0 and 1 split it alike",
    ("cli.py", "wins[a, b] = (significant & (stat < 0)).sum(axis=1)",
     "stat < 0 -> stat <= 0"): "a statistic of 0 has p = 1 and is never significant",
    ("cli.py", "os.umask(umask := os.umask(0))  # mkstemp made each 0600; honour the umask",
     "0 -> 1"): "the umask is read and set back at once; no file is made in between",
    ("coherent.py", "y_hat = np.asarray(y_hat, dtype=float).reshape(-1)", "1 -> 2"):
        "numpy reads any negative size as the one unknown dimension",
    ("panel.py", "y_hat = np.asarray(self.y_hat, dtype=float).reshape(-1).copy()", "1 -> 2"):
        "numpy reads any negative size as the one unknown dimension",
    ("panel.py", "var = np.array([index.get(label, -1) for label in labels], dtype=np.int64)",
     "1 -> 2"): "any negative code reads as an unknown series",
    ("panel.py", "row_of = np.full((panel.n + 1, panel.p + 1), -1)  # code -1: not in the panel",
     "1 -> 2"): "the spare row and column are read only through index -1, and any "
                "negative code reads as not in the panel",
    ("panel.py", "cell = rows * len(keys) + column.reshape(-1)", "1 -> 2"):
        "numpy reads any negative size as the one unknown dimension",
    ("panel.py", "if not (known.all() and finite.all() and counts.max(initial=0) <= 1):",
     "0 -> 1"): "the bound is 1, so an initial of 0 or 1 gives the same verdict",
    ("panel.py", "values.reshape(-1)[cell] = value", "1 -> 2"):
        "numpy reads any negative size as the one unknown dimension",
    ("simulation.py", "_CHUNK = 64  # replications drawn and projected together (module "
     "docstring)", "64 -> 65"):
        "chunking changes no bit: each replication has its own stream and solo projection",
    ("simulation.py", "r0: np.ndarray, tol: float = 1e-9, max_iter: int = 100, pd_floor: "
     "float = 1e-8", "100 -> 101"):
        "the cap only ends a projection that has not converged; 2000 draws each of the "
        "simulation's 4x4 and 7x7 matrices converged within 50 steps",
    ("simulation.py", "y = symmetrize(r0.reshape(-1, *r0.shape[-2:]))", "1 -> 2"):
        "numpy reads any negative size as the one unknown dimension",
    ("simulation.py", "live, diag = np.arange(len(y)), np.arange(y.shape[-1])", "1 -> 2"):
        "y is a stack of square matrices",
    ("simulation.py", "done = np.maximum(np.abs(y_new - y), np.abs(y_new - x)).max(axis=(1, 2))"
     " <= tol", "np.maximum(np.abs(y_new - y), np.abs(y_new - x)).max(axis=(1, 2)) <= tol -> "
     "np.maximum(np.abs(y_new - y), np.abs(y_new - x)).max(axis=(1, 2)) < tol"):
        "differs only for a step exactly at tol",
    ("simulation.py", "raw[iu] = rng.uniform(-1.0, 1.0, size=len(iu[0]))", "0 -> 1"):
        "iu's two index arrays have one length",
    ("simulation.py", "row = rng.random(cfg.p) < rates",
     "rng.random(cfg.p) < rates -> rng.random(cfg.p) <= rates"):
        "differs only for a uniform draw exactly at a rate",
    ("simulation.py", "beta = np.full((p, 2), 1.0 if cfg.setting == 1 else 0.5)", "2 -> 3"):
        "only beta's first two columns are read",
    ("simulation.py", "thetas = (nearest_correlation(np.stack(raw_expert)).reshape(-1, cfg.p, n, n)"
     " if raw_expert", "1 -> 2"):
        "numpy reads any negative size as the one unknown dimension",
}

_BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_COMPARE = {ast.Lt: (ast.LtE, ast.Gt), ast.LtE: (ast.Lt, ast.GtE), ast.Gt: (ast.GtE, ast.Lt),
            ast.GtE: (ast.Gt, ast.LtE), ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
            ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,)}
_ATTRS = {"argmin": "argmax", "argmax": "argmin"}


def _annotations(tree: ast.AST) -> set[int]:
    """ids of every node inside an annotation (not evaluated under ``annotations``)."""
    roots = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    roots += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def _edits(node: ast.AST):
    """The mutations of one node, each a function that applies it in place."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        yield lambda n: setattr(n, "op", _BINOPS[type(n.op)]())
    elif isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            for new in _COMPARE.get(type(op), ()):
                yield lambda n, k=k, new=new: n.ops.__setitem__(k, new())
    elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
        yield lambda n: setattr(n, "value", n.value + 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Invert, ast.Not)):
        yield "drop"
    elif isinstance(node, ast.Attribute) and node.attr in _ATTRS:
        yield lambda n: setattr(n, "attr", _ATTRS[n.attr])


class _Drop(ast.NodeTransformer):
    """Replaces one ``~x`` or ``not x`` node by ``x``."""

    def __init__(self, target: int):
        self.target = target

    def generic_visit(self, node):
        super().generic_visit(node)
        return node.operand if id(node) == self.target else node


def mutants(path: Path):
    """(line, source line, "before -> after", mutated module source) of every site."""
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    skip = _annotations(tree)
    count = sum(len(list(_edits(node))) for node in ast.walk(tree) if id(node) not in skip)
    for k in range(count):
        tree = ast.parse(source)
        skip, seen = _annotations(tree), 0
        for node in ast.walk(tree):
            edits = [] if id(node) in skip else list(_edits(node))
            if seen + len(edits) > k:
                break
            seen += len(edits)
        edit, before = edits[k - seen], ast.unparse(node)
        if edit == "drop":
            tree, after = _Drop(id(node)).visit(tree), ast.unparse(node.operand)
        else:
            edit(node)
            after = ast.unparse(node)
        yield (node.lineno, lines[node.lineno - 1].strip(), f"{before} -> {after}",
               ast.unparse(tree))


def _passes(copy: Path, args: list[str], timeout: float | None) -> bool:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    with subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL) as proc:
        _RUNNING.add(proc)
        try:
            return proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            return False
        finally:  # ended by a timeout or SIGTERM; a no-op on a process that exited
            proc.kill()
            _RUNNING.discard(proc)


def _survives(copy: Path, name: str, timeout: float | None) -> bool:
    fast = FAST.get(name)
    return ((fast is None or _passes(copy, ["-x", *fast], timeout))
            and _passes(copy, ["--continue-on-collection-errors"], timeout))


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    work = Path(tempfile.mkdtemp(prefix="mutation-probe-"))
    workers = len(os.sched_getaffinity(0))
    pool = ThreadPoolExecutor(workers)
    try:
        copies = []
        for j in range(workers):
            copies.append(work / str(j))
            for sub in ("src", "tests", "sample_data"):
                shutil.copytree(ROOT / sub, copies[-1] / sub,
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", copies[-1])  # pytest's settings
        start = time.monotonic()
        if not _survives(copies[0], None, None):
            print("the unmutated suite fails; no mutant can be judged", file=sys.stderr)
            return 2
        elapsed = time.monotonic() - start
        timeout = TIMEOUT_FACTOR * elapsed
        print(f"unmutated suite: {elapsed:.0f} s; a mutant's run times out after "
              f"{timeout:.0f} s", flush=True)
        todo = sorted((name, *m) for name in args.modules
                      for m in mutants(ROOT / "src" / "cocomb" / name))
        free = queue.SimpleQueue()  # the copies no worker is using
        for copy in copies:
            free.put(copy)

        def judge(item):
            name, line, text, change, source = item
            copy = free.get()
            target = copy / "src" / "cocomb" / name
            original = target.read_text()
            try:
                target.write_text(source)
                return item, _survives(copy, name, timeout)
            finally:
                target.write_text(original)
                free.put(copy)

        killed, unexplained = 0, 0
        for (name, line, text, change, _), survived in pool.map(judge, todo):
            reason = EQUIVALENT.get((name, text, change))
            killed += not survived
            unexplained += survived and reason is None
            verdict = ("killed" if not survived
                       else f"survived, allowed: {reason}" if reason else "SURVIVED")
            print(f"{name}:{line}: {change}: {verdict}", flush=True)
        print(f"{len(todo)} mutants: {killed} killed, {len(todo) - killed} survived, "
              f"{unexplained} not on the allowlist")
        return 1 if unexplained else 0
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in list(_RUNNING):
            proc.kill()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
