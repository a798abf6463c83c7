"""Engine tests run under the max-min certificate: every allocator solve
any ``tests/sim`` test triggers is checked by
:func:`~tests.sim.certificate.assert_max_min_fair`."""

from __future__ import annotations

import pytest

from repro.sim.warmfill import WarmFill

from tests.sim.certificate import assert_max_min_fair


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
