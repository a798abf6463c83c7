"""Exact warm-started re-solving of max-min allocations across events.

The event loop re-solves the max-min allocation after every admission and
completion.  Consecutive solves differ by a handful of entities, yet the
cold solver (:func:`repro.sim.maxmin.fill_levels`) recomputes every
filling round from scratch — O(active incidence) per event.  This module
replays the *previous* solve against the delta instead, touching only
the links whose fill level can change, and falls back to the cold solver
whenever the replay cannot prove it is exact.

Bit-for-bit exactness argument
------------------------------

A filling round is fully described by its increment (the global minimum
headroom), the per-link demand, and the freeze decision.  Three facts
make incremental replay exact rather than approximate:

* **Integer demands.**  The flow simulator's incidence carries value 1.0
  per (flow, link) entry, so per-link demand is a sum of ones — an exact
  integer below 2**53 regardless of summation order.  Cached demand plus
  an integer correction therefore reproduces the cold solver's demand
  float exactly.
* **Elementwise remaining.**  ``remaining -= increment * demand`` is
  elementwise: link ``l``'s remaining depends only on the per-round
  ``(increment, demand[l])`` history.  Replaying that history with
  scalar IEEE ops produces the identical float chain.
* **Compressed vs full link space.**  The cold solver works on the
  sorted distinct referenced links; the cache keys rounds by full link
  id.  Unreferenced links carry zero demand and infinite headroom, so
  they never set an increment, tie, or saturate, and a link the delta
  newly references replays from its full capacity.

Two modes, tried in order:

* **Scalar replay** (`_try_scalar`): succeeds when every cached round's
  increment survives the delta bitwise.  Per round it re-derives the
  headroom of the *dirty* links (links of the added/removed entities)
  with Python-scalar IEEE arithmetic and checks the cached increment is
  still the global minimum — cached tie links outside the dirty set pin
  the clean-link minimum exactly.  Admissions still unfrozen after the
  cached rounds get extra rounds over the dirty links alone
  (`_run_residual`).  Cost is O(dirty links x rounds), independent of
  network size.  A forced cached round, a changed increment, or an old
  entity freezing in a different round means the cached structure
  diverged, and the solve runs cold.
* **Cold** (`fill_levels` + a :class:`FillRecorder`): the ground truth.
  Runs on the first event, on a divergence, and when a guard trips, and
  records the round cache for subsequent warm solves.

Two guards bound the warm bookkeeping; past them a solve runs cold,
which is always exact, just slower:

* ``_DIRTY_LIMIT``: deltas touching more links are not replayed.
* ``_ROUND_LIMIT``: only solves of at most this many filling rounds are
  cached or extended.  A many-round solve rarely survives the next
  delta, and recording it costs more than a plain cold solve; DESIGN.md
  §6.1 has the measured round counts behind the cap.

``_VALIDATE_DEFAULT`` shadows every warm solve with a cold solve and
asserts the levels match bitwise; the regression tests switch it on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.sim.maxmin import _EPSILON, FillScratch, fill_levels

#: Fallback guards (see the module docstring).
_DIRTY_LIMIT = 160
_ROUND_LIMIT = 2

_INF = math.inf

#: Shadow validation only adds a cold solve plus a bitwise compare, so it
#: cannot change any result; tests turn it on by patching this constant.
_VALIDATE_DEFAULT = False

#: A replayed cached round: demand and headroom at the dirty links, the
#: dirty links that saturated, and the admissions that froze.
_Patch = Tuple[Dict[int, float], Dict[int, float], Set[int], List[int]]
#: A residual round past the cache: increment, level, demand and headroom
#: at the dirty links, saturated links, frozen admissions, forced flag.
_Residual = Tuple[
    float, float, Dict[int, float], Dict[int, float], Set[int], List[int], bool
]


class _Cold(Exception):
    """Internal: replay cannot proceed; fall back to the cold solver."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Recorder:
    """Snapshots a cold solve's rounds into full-link-space caches."""

    def __init__(self, num_links: int) -> None:
        self._num_links = num_links
        self.overflow = False
        self.inc: List[float] = []
        self.cur: List[float] = []
        self.frz: List[Set[int]] = []
        self.sat: List[Set[int]] = []
        self.tie: List[Set[int]] = []
        self.forced: List[bool] = []
        self.d: List[np.ndarray] = []

    def on_round(
        self,
        links: np.ndarray,
        demand: np.ndarray,
        increment: float,
        current: float,
        frozen: np.ndarray,
        sat_mask: np.ndarray,
        tie_mask: np.ndarray,
        forced: bool,
    ) -> None:
        if self.overflow:
            return
        if len(self.inc) >= _ROUND_LIMIT:
            self.overflow = True
            return
        d_full = np.zeros(self._num_links)
        d_full[links] = demand
        self.inc.append(increment)
        self.cur.append(current)
        self.frz.append(set(int(e) for e in frozen))
        self.sat.append(set(int(l) for l in links[sat_mask]))
        self.tie.append(set(int(l) for l in links[tie_mask]))
        self.forced.append(forced)
        self.d.append(d_full)


class WarmFill:
    """Persistent warm-start state for one event-driven simulation.

    The owner notifies it of every admission (:meth:`admit`) and
    retirement (:meth:`retire`) and calls :meth:`solve` wherever it
    previously called :func:`fill_levels`; results are bitwise
    identical.  Whether a warm solve is also cheaper depends on the
    workload: DESIGN.md §6.1 records the measurements.
    """

    def __init__(self, caps: np.ndarray) -> None:
        self.caps = np.asarray(caps, dtype=float)
        self.num_links = len(self.caps)
        #: Same floats as the cold solver's per-link saturation cutoff.
        self._satv = self.caps * _EPSILON
        self.counters: Dict[str, int] = {}

        # Entity bookkeeping (ids are simulator slots; never reused).
        self._links: Dict[int, List[int]] = {}
        self._users: Dict[int, Set[int]] = {}
        self._frz_round: Dict[int, int] = {}
        self._adds: List[int] = []
        self._rems: List[int] = []

        # Per-round solve cache (full link space).
        self._valid = False
        self._inc: List[float] = []
        self._cur: List[float] = []
        self._frz: List[Set[int]] = []
        self._sat: List[Set[int]] = []
        self._tie: List[Set[int]] = []
        self._forced: List[bool] = []
        self._d: List[np.ndarray] = []
        self._levels = np.zeros(1024)

    # ------------------------------------------------------------------
    # Owner notifications
    # ------------------------------------------------------------------

    def admit(self, entity: int, links: Sequence[int]) -> None:
        """Register a newly admitted entity and its link ids."""
        ll = [int(l) for l in links]
        self._links[entity] = ll
        for l in ll:
            self._users.setdefault(l, set()).add(entity)
        self._adds.append(entity)
        if entity >= len(self._levels):
            grown = np.zeros(max(2 * len(self._levels), entity + 1))
            grown[: len(self._levels)] = self._levels
            self._levels = grown

    def retire(self, entities: Sequence[int]) -> None:
        """Mark entities finished; they leave the next solve's actives."""
        for e in entities:
            self._rems.append(int(e))
            for l in self._links[int(e)]:
                users = self._users.get(l)
                if users is not None:
                    users.discard(int(e))
                    if not users:
                        del self._users[l]

    def reset(self) -> None:
        """Forget all entities and cached rounds (fresh run)."""
        self._links.clear()
        self._users.clear()
        self._frz_round.clear()
        self._adds.clear()
        self._rems.clear()
        self._invalidate()
        self._levels[:] = 0.0

    def _invalidate(self) -> None:
        self._valid = False
        self._inc.clear()
        self._cur.clear()
        self._frz.clear()
        self._sat.clear()
        self._tie.clear()
        self._forced.clear()
        self._d.clear()

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------

    def solve(
        self,
        ent: np.ndarray,
        lnk: np.ndarray,
        val: np.ndarray,
        active: np.ndarray,
        link_refs: np.ndarray,
        scratch: FillScratch,
    ) -> Tuple[np.ndarray, int]:
        """Levels for the current actives, bitwise equal to a cold solve.

        ``ent``/``lnk``/``val``/``active``/``link_refs`` describe the
        same state a cold :func:`fill_levels` call would see; the scalar
        replay only reads the cached rounds plus the admit/retire delta,
        and the cold fallback consumes the arrays directly.
        """
        self._count("alloc_solves")
        adds = self._adds
        rems = self._rems
        iterations = -1
        if self._valid:
            try:
                iterations = self._try_scalar(adds, rems)
                self._count("alloc_warm_scalar")
            except _Cold as bail:
                self._count("alloc_cold_" + bail.reason)
        else:
            self._count("alloc_cold_nocache")
        if iterations < 0:
            iterations = self._run_cold(ent, lnk, val, active, link_refs, scratch)
        else:
            self._count("alloc_warm_solves")
            self._count("alloc_resolved_links", len(self._dirty(adds, rems)))
            # Denominator for the re-solved-links fraction: what a cold
            # solve would have swept for each of these warm solves.
            self._count("alloc_link_space", self.num_links)
        self._count("alloc_rounds", iterations)
        self._finish_delta()
        if _VALIDATE_DEFAULT:
            self._shadow_check(ent, lnk, val, active, link_refs)
        return self._levels, iterations

    def _dirty(self, adds: List[int], rems: List[int]) -> Set[int]:
        dirty: Set[int] = set()
        for e in adds:
            dirty.update(self._links[e])
        for e in rems:
            dirty.update(self._links[e])
        return dirty

    def _finish_delta(self) -> None:
        for e in self._rems:
            del self._links[e]
            self._frz_round.pop(e, None)
        self._adds.clear()
        self._rems.clear()

    def _shadow_check(
        self,
        ent: np.ndarray,
        lnk: np.ndarray,
        val: np.ndarray,
        active: np.ndarray,
        link_refs: np.ndarray,
    ) -> None:
        expect, _ = fill_levels(
            ent, lnk, val, self.caps, active,
            links=np.flatnonzero(link_refs > 0),
        )
        got = self._levels[: len(expect)]
        if not np.array_equal(expect, got):
            bad = np.flatnonzero(expect != got)
            raise AssertionError(
                f"warm solve diverged from cold at entities {bad[:8].tolist()}: "
                f"warm={got[bad[:8]].tolist()} cold={expect[bad[:8]].tolist()}"
            )

    # ------------------------------------------------------------------
    # Cold fallback (records the cache for the next event)
    # ------------------------------------------------------------------

    def _run_cold(
        self,
        ent: np.ndarray,
        lnk: np.ndarray,
        val: np.ndarray,
        active: np.ndarray,
        link_refs: np.ndarray,
        scratch: FillScratch,
    ) -> int:
        self._count("alloc_cold_solves")
        self._invalidate()
        recorder = _Recorder(self.num_links)
        levels, iterations = fill_levels(
            ent, lnk, val, self.caps, active,
            links=np.flatnonzero(link_refs > 0),
            scratch=scratch,
            recorder=recorder,
        )
        if len(levels) > len(self._levels):
            self._levels = np.zeros(max(2 * len(self._levels), len(levels)))
        self._levels[: len(levels)] = levels
        self._levels[len(levels):] = 0.0
        if not recorder.overflow:
            self._inc = recorder.inc
            self._cur = recorder.cur
            self._frz = recorder.frz
            self._sat = recorder.sat
            self._tie = recorder.tie
            self._forced = recorder.forced
            self._d = recorder.d
            self._frz_round = {
                e: j for j, frz in enumerate(self._frz) for e in frz
            }
            self._valid = True
        return iterations

    # ------------------------------------------------------------------
    # Scalar replay of every cached round
    # ------------------------------------------------------------------

    def _try_scalar(self, adds: List[int], rems: List[int]) -> int:
        caps = self.caps
        satv = self._satv
        dirty = self._dirty(adds, rems)
        if len(dirty) > _DIRTY_LIMIT:
            raise _Cold("dirty_guard")
        dlist = sorted(dirty)
        rem_a: Dict[int, float] = {l: float(caps[l]) for l in dlist}
        sat_a: Dict[int, float] = {l: float(satv[l]) for l in dlist}
        corr: Dict[int, int] = {}
        for e in adds:
            for l in self._links[e]:
                corr[l] = corr.get(l, 0) + 1
        for e in rems:
            for l in self._links[e]:
                corr[l] = corr.get(l, 0) - 1
        unf_adds = set(adds)
        rmset = set(rems)
        # Per-round patch data, applied only if the whole replay succeeds.
        patch: List[_Patch] = []

        for j in range(len(self._inc)):
            inc = self._inc[j]
            if self._forced[j]:
                # A forced round's argmin needs every link's headroom.
                raise _Cold("diverged")
            dcj = self._d[j]
            dj: Dict[int, float] = {}
            hj: Dict[int, float] = {}
            min_dirty = _INF
            for l in dlist:
                v = float(dcj[l]) + corr.get(l, 0)
                dj[l] = v
                if v > 0.0:
                    h = rem_a[l] / v
                    hj[l] = h
                    if h < min_dirty:
                        min_dirty = h
            clean_tie = False
            for t in self._tie[j]:
                if t not in dirty:
                    clean_tie = True
                    break
            if clean_tie:
                effective = inc if inc <= min_dirty else min_dirty
            else:
                effective = min_dirty
            if effective != inc:
                raise _Cold("diverged")
            dsat: Set[int] = set()
            for l, v in dj.items():
                if v > 0.0:
                    r = rem_a[l] - inc * v
                    rem_a[l] = r
                    if r <= sat_a[l]:
                        dsat.add(l)
            newly_set: Set[int] = set()
            for l in sorted(dsat):
                for e in self._users.get(l, ()):
                    fr = self._frz_round.get(e)
                    if fr is None:
                        if e in unf_adds:
                            newly_set.add(e)
                    elif fr > j:
                        # An old entity would freeze earlier than cached:
                        # its other (possibly clean) links lose demand.
                        raise _Cold("diverged")
            for e in self._frz[j]:
                if e in rmset:
                    continue
                covered = False
                sat_j = self._sat[j]
                for l in self._links[e]:
                    if l in dsat or (l in sat_j and l not in dirty):
                        covered = True
                        break
                if not covered:
                    raise _Cold("diverged")
            newly = sorted(newly_set)
            for a in newly:
                unf_adds.discard(a)
                self._levels[a] = self._cur[j]
                for l in self._links[a]:
                    corr[l] = corr.get(l, 0) - 1
            for e in self._frz[j]:
                if e in rmset:
                    for l in self._links[e]:
                        corr[l] = corr.get(l, 0) + 1
            patch.append((dj, hj, dsat, newly))

        residual = self._run_residual(unf_adds, corr, rem_a, sat_a, dlist)
        self._commit_prefix(patch, dlist, rmset)
        self._commit_residual(residual)
        for r in rems:
            self._levels[r] = 0.0
        return len(self._inc)

    def _run_residual(
        self,
        unf_adds: Set[int],
        corr: Dict[int, int],
        rem_a: Dict[int, float],
        sat_a: Dict[int, float],
        dlist: List[int],
    ) -> List[_Residual]:
        """Extra rounds past the cached ones for still-unfrozen adds."""
        out: List[_Residual] = []
        cur = self._cur[-1] if self._cur else 0.0
        while unf_adds:
            if len(self._inc) + len(out) >= _ROUND_LIMIT:
                raise _Cold("round_guard")
            dj: Dict[int, float] = {}
            hj: Dict[int, float] = {}
            min_h = _INF
            arg_l = -1
            for l in dlist:
                c = corr.get(l, 0)
                if c > 0:
                    v = float(c)
                    dj[l] = v
                    h = rem_a[l] / v
                    hj[l] = h
                    if h < min_h:
                        min_h = h
                        arg_l = l
            if arg_l < 0 or not math.isfinite(min_h) or min_h < 0:
                raise _Cold("residual_bail")
            inc = min_h
            cur = cur + inc
            dsat: Set[int] = set()
            for l, v in dj.items():
                r = rem_a[l] - inc * v
                rem_a[l] = r
                if r <= sat_a[l]:
                    dsat.add(l)
            newly_set: Set[int] = set()
            forced = not dsat
            freeze_links: Tuple[int, ...] = (
                tuple(sorted(dsat)) if dsat else (arg_l,)
            )
            for l in freeze_links:
                for e in self._users.get(l, ()):
                    if e in unf_adds:
                        newly_set.add(e)
            if not newly_set:
                raise _Cold("residual_bail")
            newly = sorted(newly_set)
            for a in newly:
                unf_adds.discard(a)
                self._levels[a] = cur
                for l in self._links[a]:
                    corr[l] = corr.get(l, 0) - 1
            out.append((inc, cur, dj, hj, dsat, newly, forced))
        return out

    def _commit_prefix(
        self, patch: List[_Patch], dlist: List[int], rmset: Set[int]
    ) -> None:
        """Patch the cached rounds with the replayed deltas."""
        for j, (dj, hj, dsat, newly) in enumerate(patch):
            inc = self._inc[j]
            darr = self._d[j]
            tie = self._tie[j]
            sat = self._sat[j]
            for l in dlist:
                darr[l] = dj[l]
                h = hj.get(l)
                if h is not None and h == inc:
                    tie.add(l)
                else:
                    tie.discard(l)
                if l in dsat:
                    sat.add(l)
                else:
                    sat.discard(l)
            frz = self._frz[j]
            if not rmset.isdisjoint(frz):
                frz -= rmset
            for a in newly:
                frz.add(a)
                self._frz_round[a] = j

    def _commit_residual(self, residual: List[_Residual]) -> None:
        for inc, cur, dj, hj, dsat, newly, forced in residual:
            d_full = np.zeros(self.num_links)
            for l, v in dj.items():
                d_full[l] = v
            j = len(self._inc)
            self._inc.append(inc)
            self._cur.append(cur)
            self._frz.append(set(newly))
            self._sat.append(set(dsat))
            # Every link with headroom here carries positive demand.
            self._tie.append({l for l, h in hj.items() if h == inc})
            self._forced.append(forced)
            self._d.append(d_full)
            for a in newly:
                self._frz_round[a] = j
