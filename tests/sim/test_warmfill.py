"""WarmFill vs cold fill_levels: randomized bitwise equivalence.

The warm-start layer (:mod:`repro.sim.warmfill`) promises results
*bitwise identical* to a from-scratch :func:`repro.sim.maxmin.fill_levels`
call after every admit/retire delta — whichever internal mode handled
the solve (scalar replay or the cold fallback).  These tests drive
randomized admit/retire/solve sessions through both solvers in lockstep
and compare every solve exactly, then pin that both modes actually fired
and that the two guards (dirty limit, round limit) degrade to the cold
path without changing bits.  The guards are module constants, so the
tests patch them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.maxmin import FillScratch, Incidence, fill_levels
from repro.sim import warmfill
from repro.sim.warmfill import WarmFill

PRODUCTION_ROUND_LIMIT = warmfill._ROUND_LIMIT


@pytest.fixture(autouse=True)
def many_rounds(monkeypatch):
    """Cache solves of up to 96 filling rounds instead of 2.

    The sessions' 24-32-link networks make solves take many rounds; at
    the production cap most of them would run cold (4 of the 5
    ``test_default_limits`` seeds would engage no warm solve at all),
    leaving multi-round and residual replays untested.
    """
    monkeypatch.setattr(warmfill, "_ROUND_LIMIT", 96)


class Session:
    """One warm/cold lockstep simulation of an event-driven caller.

    Mirrors the flow simulator's contract with :class:`WarmFill`: a
    persistent :class:`Incidence`, per-link reference counts, an active
    mask over never-reused slots, and unit entry values.  Every
    :meth:`solve` runs the warm solver and an independent cold solve on
    identical inputs and asserts exact equality.
    """

    def __init__(self, num_links: int, seed: int, warm: WarmFill = None) -> None:
        self.rng = np.random.default_rng(seed)
        self.caps = self.rng.integers(1, 40, size=num_links).astype(float)
        self.warm = warm if warm is not None else WarmFill(self.caps)
        self.inc = Incidence()
        self.scratch = FillScratch()
        self.link_refs = np.zeros(num_links, dtype=np.intp)
        self.active = np.zeros(64, dtype=bool)
        self.next_slot = 0
        self.alive = []
        self.links_of = {}

    def admit(self) -> None:
        path_len = int(self.rng.integers(1, min(6, len(self.caps) + 1)))
        links = np.sort(
            self.rng.choice(len(self.caps), size=path_len, replace=False)
        ).astype(np.intp)
        slot = self.next_slot
        self.next_slot += 1
        if slot >= len(self.active):
            grown = np.zeros(2 * len(self.active), dtype=bool)
            grown[: len(self.active)] = self.active
            self.active = grown
        self.active[slot] = True
        self.inc.append(slot, links)
        self.warm.admit(slot, links)
        np.add.at(self.link_refs, links, 1)
        self.alive.append(slot)
        self.links_of[slot] = links

    def retire(self, count: int) -> None:
        count = min(count, len(self.alive))
        picks = self.rng.choice(len(self.alive), size=count, replace=False)
        done = [self.alive[i] for i in sorted(int(p) for p in picks)]
        for slot in done:
            self.active[slot] = False
            np.subtract.at(self.link_refs, self.links_of[slot], 1)
            self.alive.remove(slot)
        self.warm.retire(done)
        self.inc.compact(self.active)

    def solve(self) -> None:
        active = self.active[: self.next_slot]
        warm_levels, warm_iters = self.warm.solve(
            self.inc.ent, self.inc.lnk, self.inc.val,
            active, self.link_refs, self.scratch,
        )
        cold_levels, cold_iters = fill_levels(
            self.inc.ent, self.inc.lnk, self.inc.val, self.caps, active,
            links=np.flatnonzero(self.link_refs > 0),
        )
        assert warm_iters == cold_iters
        got = warm_levels[: len(cold_levels)]
        mismatch = np.flatnonzero(got != cold_levels)
        assert mismatch.size == 0, (
            f"solve diverged at entities {mismatch[:5].tolist()}: "
            f"warm={got[mismatch[:5]].tolist()} "
            f"cold={cold_levels[mismatch[:5]].tolist()}"
        )

    def churn(self, events: int) -> None:
        """Random admit/retire cohorts, solving after every event."""
        for _ in range(3):
            self.admit()
        self.solve()
        for _ in range(events):
            if self.alive and self.rng.random() < 0.45:
                self.retire(int(self.rng.integers(1, 4)))
            admits = int(self.rng.integers(0, 4))
            for _ in range(admits):
                self.admit()
            if not self.alive:
                self.admit()
            self.solve()


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 101])
    def test_default_limits(self, seed):
        session = Session(num_links=32, seed=seed)
        session.churn(events=90)
        counters = session.warm.counters
        assert counters["alloc_solves"] > 90
        assert counters.get("alloc_warm_solves", 0) > 0

    def test_all_three_modes_fire(self):
        """Across a seed sweep, scalar replay and cold both handle solves."""
        totals = {}
        for seed in range(8):
            session = Session(num_links=24, seed=seed)
            session.churn(events=80)
            for key, value in session.warm.counters.items():
                totals[key] = totals.get(key, 0) + value
        assert totals.get("alloc_warm_scalar", 0) > 0
        assert totals.get("alloc_cold_solves", 0) > 0

    def test_counter_bookkeeping(self):
        session = Session(num_links=24, seed=3)
        session.churn(events=60)
        counters = session.warm.counters
        warm = counters.get("alloc_warm_solves", 0)
        cold = counters.get("alloc_cold_solves", 0)
        assert warm + cold == counters["alloc_solves"]
        # Warm solves each contribute the full link space once to the
        # re-solved-fraction denominator.
        assert counters.get("alloc_link_space", 0) == warm * 24
        if warm:
            assert counters.get("alloc_resolved_links", 0) > 0

    def test_single_link_network(self):
        session = Session(num_links=1, seed=5)
        session.churn(events=30)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_production_round_limit(self, seed, monkeypatch):
        """Flow-simulator-like sessions at the production round cap.

        Equal capacities on a large sparse network keep solves at one or
        two rounds, the regime where the scalar replay does the work.
        """
        monkeypatch.setattr(warmfill, "_ROUND_LIMIT", PRODUCTION_ROUND_LIMIT)
        caps = np.full(2000, 10.0)
        session = Session(num_links=2000, seed=seed, warm=WarmFill(caps))
        session.caps = caps
        session.churn(events=120)
        counters = session.warm.counters
        assert counters["alloc_warm_solves"] > counters["alloc_cold_solves"]


class TestGuardDegradation:
    """Exceeding any tuning guard falls back cold, bits unchanged."""

    def test_dirty_limit_zero_forces_cold(self, monkeypatch):
        monkeypatch.setattr(warmfill, "_DIRTY_LIMIT", 0)
        session = Session(num_links=24, seed=2)
        session.churn(events=40)
        counters = session.warm.counters
        # Only empty-delta solves (nothing admitted or retired since the
        # last solve) may replay warm; every real delta trips the guard.
        assert counters.get("alloc_resolved_links", 0) == 0

    def test_tiny_round_limit(self, monkeypatch):
        monkeypatch.setattr(warmfill, "_ROUND_LIMIT", 1)
        session = Session(num_links=24, seed=2)
        session.churn(events=40)


class TestLifecycle:
    def test_shadow_validation_passes(self, monkeypatch):
        """Validation shadow-checks every solve against a cold run."""
        monkeypatch.setattr(warmfill, "_VALIDATE_DEFAULT", True)
        session = Session(num_links=24, seed=11)
        session.churn(events=50)

    def test_reset_reuse(self):
        """A reset WarmFill behaves like a fresh one on a new session."""
        first = Session(num_links=20, seed=4)
        first.churn(events=40)
        first.warm.reset()
        first.warm.counters.clear()
        second = Session(num_links=20, seed=9, warm=first.warm)
        second.caps = first.caps  # the warm solver kept its capacities
        second.churn(events=40)

    def test_retire_everything_then_readmit(self):
        session = Session(num_links=16, seed=6)
        for _ in range(5):
            session.admit()
        session.solve()
        session.retire(len(session.alive))
        session.admit()
        session.solve()
