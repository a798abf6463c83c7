"""Engine tests run under the max-min certificate and the run-level
invariants: every allocator solve any ``tests/sim`` test triggers is
checked by :func:`~tests.sim.certificate.assert_max_min_fair`, and every
:meth:`FlowSimulator.run` by
:func:`~tests.sim.certificate.assert_run_conserves`."""

from __future__ import annotations

import pytest

from repro.sim.flowsim import FlowSimulator
from repro.sim.warmfill import WarmFill

from tests.sim.certificate import assert_max_min_fair, assert_run_conserves


@pytest.fixture(autouse=True)
def certified_solves(monkeypatch):
    """Certify every allocation the engine's allocator returns."""
    solve = WarmFill.solve

    def certified(self, ent, lnk, val, active, link_refs, scratch):
        levels, iterations = solve(
            self, ent, lnk, val, active, link_refs, scratch
        )
        assert_max_min_fair(ent, lnk, val, self.caps, active, levels)
        return levels, iterations

    monkeypatch.setattr(WarmFill, "solve", certified)


@pytest.fixture(autouse=True)
def conserving_runs(monkeypatch):
    """Check every simulator run against the flows it was given."""
    run = FlowSimulator.run

    def checked(self, flows):
        flows = list(flows)
        bytes_before = self._link_bytes.copy()
        results = run(self, flows)
        assert_run_conserves(self, flows, results, bytes_before)
        return results

    monkeypatch.setattr(FlowSimulator, "run", checked)
