import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cocomb
from cocomb import from_aggregation, from_availability


def random_system(rng, n_max=12):
    """A random constraint system with 1-4 constrained and 2-8 free variables."""
    n_b = int(rng.integers(2, 9))
    n_u = int(rng.integers(1, min(4, n_max - n_b) + 1))
    if rng.random() < 0.5:
        a = rng.integers(0, 2, size=(n_u, n_b)).astype(float)
    else:
        a = np.round(rng.uniform(-1.5, 1.5, size=(n_u, n_b)), 2)
    labels = [f"u{k}" for k in range(n_u)] + [f"b{k}" for k in range(n_b)]
    return from_aggregation(a, labels)


def random_availability(rng, n, p, balanced):
    if balanced:
        return np.ones((n, p), dtype=bool)
    while True:
        mask = rng.random((n, p)) < 0.6
        if mask.any(axis=1).all() and mask.any(axis=0).all() and not mask.all():
            return mask


def random_panel(rng, sys, p_max=6, balanced=None):
    p = int(rng.integers(2, p_max + 1))
    if balanced is None:
        balanced = bool(rng.random() < 0.5)
    avail = random_availability(rng, sys.n, p, balanced)
    values = rng.standard_normal(int(avail.sum()))
    return from_availability(avail, sys, values=values)


def random_spd(rng, m, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eigs = rng.uniform(lo, hi, size=m)
    w = (q * eigs) @ q.T
    return 0.5 * (w + w.T)


def overflowing_residuals():
    """(system, panel, 8 x 20 residuals) whose entries are finite but whose
    squares overflow: every row near 1e150, and expert alpha's ``c`` row
    (row 3) near 6.7e161, so its products with itself and the rest pass
    1.8e308. Two experts each forecast all four series of ``total = a + b + c``."""
    system = from_aggregation(np.ones((1, 3)), ["total", "a", "b", "c"])
    r = np.random.default_rng(3).standard_normal((8, 20)) * 1e150
    r[3] *= 6.7e11
    return system, from_availability(np.ones((4, 2), dtype=bool), system, ["alpha", "beta"]), r


def evaluation_csvs(tmp_path, rng):
    """Actuals and forecast CSVs for ``evaluate``, rows shuffled, Q_h unequal.

    Returns the two paths, the sorted series, ``actuals[h]`` (Q_h x n) and
    ``forecasts[method][h]`` as written (values round-trip exactly), methods sorted.
    """
    series = ("east", "north", "south", "total", "west")
    methods = ("base", "ew", "occ", "scr")
    actuals, forecasts = {}, {m: {} for m in methods}
    act_rows, fc_rows = [], []
    for h, q in ((1, 30), (2, 24), (3, 18)):
        actuals[h] = rng.standard_normal((q, len(series))) + 5.0
        act_rows += [(s, h, k, repr(float(actuals[h][k, i])))
                     for k in range(q) for i, s in enumerate(series)]
        for j, m in enumerate(methods):
            forecasts[m][h] = (actuals[h] + 0.3 * j
                               + (0.4 + 0.3 * j) * rng.standard_normal(actuals[h].shape))
            fc_rows += [(m, s, h, k, repr(float(forecasts[m][h][k, i])))
                        for k in range(q) for i, s in enumerate(series)]
    paths = tmp_path / "actuals.csv", tmp_path / "forecasts.csv"
    for path, header, rows in (
        (paths[0], ["series", "horizon", "q", "value"], act_rows),
        (paths[1], ["method", "series", "horizon", "q", "value"], fc_rows),
    ):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows[i] for i in rng.permutation(len(rows)))
    return paths, series, actuals, forecasts


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def fresh_python(code, *args, cwd=None):
    """Stdout of ``python -c code *args`` in a new interpreter importing this checkout's cocomb."""
    src = str(Path(cocomb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True, timeout=120).stdout
