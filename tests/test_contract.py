"""The output contract: ``contract_outputs.py``'s matrix against its committed reference.

The matrix (every ``--cov`` choice under every ``reconcile`` method and ``occ``
formulation, every ``combine`` scheme, ``simulate`` and ``evaluate --dm``) is
written once per session under a temporary directory (``conftest.contract``).
Its file list, every manifest and ``runs.txt`` must equal the reference
exactly. Each numeric CSV cell must lie within ``TOLERANCE`` of the reference
cell, relative to the largest |value| of the reference file; every other cell
must be equal. The reference was written at one BLAS thread; one against two
threads moved 4 of the matrix's 696 files, by at most 5.6e-19 of their
largest value.
"""

from __future__ import annotations

import csv
import io
import tarfile

import numpy as np

from contract_outputs import REFERENCE, outputs

TOLERANCE = 1e-12


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_mismatch(got: str, want: str) -> str | None:
    """Why the CSV text ``got`` differs from ``want`` beyond ``TOLERANCE``, or None."""
    got_rows, want_rows = (list(csv.reader(io.StringIO(t))) for t in (got, want))
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return "rows or columns differ"
    pairs = [(g, w) for gr, wr in zip(got_rows, want_rows) for g, w in zip(gr, wr)]
    numeric = [(_number(g), _number(w)) for g, w in pairs]
    if any((x is None or y is None) and g != w for (g, w), (x, y) in zip(pairs, numeric)):
        return "a text cell differs"
    x, y = np.array([v for v in numeric if None not in v], dtype=float).reshape(-1, 2).T
    finite = np.isfinite(y)
    scale = np.abs(y[finite]).max(initial=0.0)
    off = ~((x == y) | (np.isnan(x) & np.isnan(y))
            | (finite & (np.abs(x - y) <= TOLERANCE * scale)))
    if off.any():
        return f"{off.sum()} numeric cells differ, by up to {np.abs(x - y)[off].max():.3g}"
    return None


def test_the_contract_matrix_matches_its_reference(contract):
    with tarfile.open(REFERENCE) as tar:
        reference = {m.name: tar.extractfile(m).read().decode() for m in tar.getmembers()}
    assert outputs(contract) == sorted(reference)
    wrong = {}
    for name, want in reference.items():
        got = (contract / name).read_text()
        if not name.endswith(".csv"):  # manifests and runs.txt
            if got != want:
                wrong[name] = "differs"
        elif (why := _csv_mismatch(got, want)) is not None:
            wrong[name] = why
    assert not wrong, wrong
