"""Engine tests run under the max-min certificate and the run-level
invariants: every allocator solve any ``tests/sim`` test triggers, in
the flow simulator and in the commodity throughput solver, is checked by
:func:`~tests.sim.certificate.assert_max_min_fair`, and every
:meth:`FlowSimulator.run` by
:func:`~tests.sim.certificate.assert_run_conserves`."""

from __future__ import annotations

import pytest

from repro.sim import flowsim, throughput
from repro.sim.flowsim import FlowSimulator
from repro.sim.maxmin import fill_levels

from tests.sim.certificate import assert_max_min_fair, assert_run_conserves


@pytest.fixture(autouse=True)
def certified_solves(monkeypatch):
    """Certify every allocation the simulators' allocator returns."""

    def certified(ent, lnk, val, caps, active, links=None, scratch=None):
        levels, iterations = fill_levels(
            ent, lnk, val, caps, active, links=links, scratch=scratch
        )
        assert_max_min_fair(ent, lnk, val, caps, active, levels)
        return levels, iterations

    for module in (flowsim, throughput):
        monkeypatch.setattr(module, "fill_levels", certified)


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
