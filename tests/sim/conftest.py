"""Engine tests run under the max-min certificate and the run-level
invariants: every flow-simulator event's allocation, solved or skipped,
and every commodity throughput solve any ``tests/sim`` test triggers is
checked by :func:`~tests.sim.certificate.assert_max_min_fair`, and every
:meth:`FlowSimulator.run` by
:func:`~tests.sim.certificate.assert_run_conserves`."""

from __future__ import annotations

import pytest

from repro.sim import throughput
from repro.sim.flowsim import FlowSimulator
from repro.sim.maxmin import fill_levels

from tests.sim.certificate import assert_max_min_fair, assert_run_conserves


@pytest.fixture(autouse=True)
def certified_solves(monkeypatch):
    """Certify every event's allocation over the full live incidence,
    and every allocation the throughput solver's allocator returns."""
    allocate = FlowSimulator._allocate

    def certified_event(self, *args):
        levels = allocate(self, *args)
        inc = self._incidence
        alive = self._slot_alive[: len(self._meta)]
        assert_max_min_fair(inc.ent, inc.lnk, inc.val, self._caps, alive, levels)
        return levels

    def certified(ent, lnk, val, caps, active, links=None):
        levels, iterations = fill_levels(
            ent, lnk, val, caps, active, links=links
        )
        assert_max_min_fair(ent, lnk, val, caps, active, levels)
        return levels, iterations

    monkeypatch.setattr(FlowSimulator, "_allocate", certified_event)
    monkeypatch.setattr(throughput, "fill_levels", certified)


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
