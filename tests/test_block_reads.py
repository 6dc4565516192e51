"""Production reads a block estimate by its parts, never its assembled ``W``."""

from __future__ import annotations

from cocomb import CovarianceEstimate
from contract_outputs import write_contract


def test_no_run_assembles_a_block_estimates_w(contract, tmp_path, monkeypatch):
    """Every ``fit`` method, ``combine`` scheme and ``occ`` formulation under each
    block pattern writes the bytes of the unpatched run with a block estimate's
    ``W`` raising; a dense estimate's ``W``, its parts' included, stays readable."""

    def parts_only(est):
        if est._parts is not None:
            raise AssertionError("a block estimate's W was assembled")
        return est._W

    monkeypatch.setattr(CovarianceEstimate, "W", property(parts_only))
    write_contract(tmp_path / "out")
    assert (tmp_path / "out" / "SHA256SUMS").read_text() == (contract / "SHA256SUMS").read_text()
