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
* **Compressed = full link space.**  The cold solver works on the sorted
  distinct referenced links.  Unreferenced links carry zero demand and
  infinite headroom, so a full-link-space replay computes the same
  minima, the same argmin tie-breaks (ids ascend in both spaces), and
  the same saturation sets.

Three modes, tried in order:

* **Scalar replay** (`_try_scalar`): succeeds when every cached round's
  increment survives the delta bitwise.  Per round it re-derives the
  headroom of the *dirty* links (links of the added/removed entities)
  with Python-scalar IEEE arithmetic and checks the cached increment is
  still the global minimum — cached tie links outside the dirty set pin
  the clean-link minimum exactly.  Cost is O(dirty links x rounds),
  independent of network size.
* **Vector suffix replay** (`_run_vector`): from the first divergent
  round, re-runs the remaining rounds as full-link-space vector ops
  seeded from the cached pre-round remaining snapshot (patched at dirty
  links) and the cached demand plus integer corrections.  It assembles
  the identical floats the cold solver would, so it is exact by
  construction, with no O(incidence) pass.
* **Cold** (`fill_levels` + a :class:`FillRecorder`): the ground truth.
  Runs on the first event, when a guard trips (dirty set too large,
  correction set cascading, round count past budget), and rebuilds the
  round cache for subsequent warm solves.

Setting ``REPRO_WARM_VALIDATE=1`` shadows every warm solve with a cold
solve and asserts the levels match bitwise — the regression suite runs
with it on.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.sim.maxmin import _EPSILON, FillScratch, fill_levels

#: Smallest positive subnormal: ``max(d, _TINY)`` equals ``d`` for every
#: positive float, so guarding the divisor this way changes no headroom
#: of a used link while keeping zero-demand links out of 0/0 territory.
_TINY = 5e-324

#: Fallback guards.  Solves whose delta or replay outgrows these run cold
#: (always exact, just slower); the limits only bound warm bookkeeping.
_DIRTY_LIMIT = 160
_ROUND_LIMIT = 96
_CORR_LIMIT = 2048
#: Cache budget in array cells (rounds x links); about 50 MB of float64
#: for the two per-round snapshots together.
_CACHE_CELLS = 3_200_000
#: Vector replay works in the full link space; a cold solve works in the
#: compressed active space.  When the replayed suffix would sweep more
#: than this multiple of the estimated cold work, run cold instead.
_VECTOR_FACTOR = 4.0

_INF = math.inf

#: Shadow validation, read once at import.  Validation only adds a cold
#: shadow solve plus a bitwise compare — it cannot change any result, so
#: it is cache-key neutral by construction.
_VALIDATE_DEFAULT = os.environ.get("REPRO_WARM_VALIDATE", "") not in ("", "0")  # repro-lint: disable=cache-key-purity


class _B(Exception):
    """Internal: scalar replay diverged; carries the vector handoff."""

    def __init__(self, j0: int, rem_pre: Dict[int, float]) -> None:
        super().__init__(j0)
        self.j0 = j0
        self.rem_pre = rem_pre


class _Cold(Exception):
    """Internal: replay cannot proceed; fall back to the cold solver."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Recorder:
    """Snapshots a cold solve's rounds into full-link-space caches."""

    def __init__(self, owner: "WarmFill") -> None:
        self._owner = owner
        self.overflow = False
        self.inc: List[float] = []
        self.cur: List[float] = []
        self.frz: List[Set[int]] = []
        self.sat: List[Set[int]] = []
        self.tie: List[Set[int]] = []
        self.forced: List[bool] = []
        self.d: List[np.ndarray] = []
        self.rem: List[np.ndarray] = []
        self.done = False

    def on_round(
        self,
        links: np.ndarray,
        demand: np.ndarray,
        rem_pre: np.ndarray,
        increment: float,
        current: float,
        frozen: np.ndarray,
        sat_mask: np.ndarray,
        tie_mask: np.ndarray,
        forced: bool,
    ) -> None:
        if self.overflow:
            return
        owner = self._owner
        if (len(self.inc) + 1) * owner.num_links > _CACHE_CELLS or len(
            self.inc
        ) >= _ROUND_LIMIT:
            self.overflow = True
            return
        d_full = np.zeros(owner.num_links)
        d_full[links] = demand
        rem_full = owner.caps.copy()
        rem_full[links] = rem_pre
        self.inc.append(increment)
        self.cur.append(current)
        self.frz.append(set(int(e) for e in frozen))
        self.sat.append(set(int(l) for l in links[sat_mask]))
        self.tie.append(set(int(l) for l in links[tie_mask]))
        self.forced.append(forced)
        self.d.append(d_full)
        self.rem.append(rem_full)

    def on_done(self, levels: np.ndarray, iterations: int) -> None:
        self.done = True


class WarmFill:
    """Persistent warm-start state for one event-driven simulation.

    The owner notifies it of every admission (:meth:`admit`) and
    retirement (:meth:`retire`) and calls :meth:`solve` wherever it
    previously called :func:`fill_levels`; results are bitwise
    identical.  Whether a warm solve is also cheaper depends on the
    workload: DESIGN.md §6.1 records the measured mode mix.
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
        self._rem: List[np.ndarray] = []
        self._levels = np.zeros(1024)

        # Vector-replay scratch.
        self._b_dsafe = np.empty(self.num_links)
        self._b_h = np.empty(self.num_links)
        self._b_unused = np.empty(self.num_links, dtype=bool)

        # Scalar-replay handoff state (rebuilt by every _try_scalar call).
        self._corr: Dict[int, int] = {}
        self._unf_adds: Set[int] = set()
        self._rmset: Set[int] = set()
        self._patch_prefix: List[
            Tuple[Dict[int, float], Dict[int, float], Dict[int, float], Set[int], List[int]]
        ] = []
        self._dlist: List[int] = []
        self._rem_a: Dict[int, float] = {}
        self._sat_a: Dict[int, float] = {}

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
        self._rem.clear()

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
        same state a cold :func:`fill_levels` call would see; the warm
        modes only read the cached rounds plus the admit/retire delta,
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
            except _B as handoff:
                # The vector suffix sweeps full-link-space arrays once per
                # replayed round; a cold solve sweeps only the active
                # entries plus referenced links.  On large networks with
                # few actives the replay can cost more than starting over,
                # so compare the two estimates before committing to it.
                suffix = max(len(self._inc) - handoff.j0, 1)
                cold_work = (len(self._inc) + 1) * (
                    lnk.size + int(np.count_nonzero(link_refs))
                )
                if suffix * self.num_links > _VECTOR_FACTOR * cold_work:
                    self._count("alloc_cold_vector_guard")
                    iterations = -1
                else:
                    try:
                        iterations = self._run_vector(adds, rems, handoff)
                        self._count("alloc_warm_vector")
                    except _Cold as bail:
                        self._count("alloc_cold_" + bail.reason)
                        iterations = -1
            except _Cold as bail:
                self._count("alloc_cold_" + bail.reason)
                iterations = -1
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
        recorder = _Recorder(self)
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
        if recorder.done and not recorder.overflow:
            self._inc = recorder.inc
            self._cur = recorder.cur
            self._frz = recorder.frz
            self._sat = recorder.sat
            self._tie = recorder.tie
            self._forced = recorder.forced
            self._d = recorder.d
            self._rem = recorder.rem
            self._frz_round = {
                e: j for j, frz in enumerate(self._frz) for e in frz
            }
            self._valid = True
        return iterations

    # ------------------------------------------------------------------
    # Mode A: scalar replay of every cached round
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
        rounds = len(self._inc)
        # Per-round patch data, applied only if the whole replay succeeds.
        patch: List[
            Tuple[Dict[int, float], Dict[int, float], Dict[int, float], Set[int], List[int]]
        ] = []

        self._corr = corr  # vector handoff reads the live correction map
        self._unf_adds = unf_adds
        self._rmset = rmset
        self._patch_prefix = patch
        self._dlist = dlist
        self._rem_a = rem_a
        self._sat_a = sat_a

        for j in range(rounds):
            inc = self._inc[j]
            if self._forced[j]:
                # A forced round's argmin needs every link's headroom;
                # the vector replay recomputes it exactly.
                raise _B(j, dict(rem_a))
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
                raise _B(j, dict(rem_a))
            rem_pre = dict(rem_a)
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
                        raise _B(j, rem_pre)
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
                    raise _B(j, rem_pre)
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
            patch.append((dj, rem_pre, hj, dsat, newly))

        residual = self._run_residual()
        self._commit_prefix(rounds)
        self._commit_residual(residual)
        for r in rems:
            self._levels[r] = 0.0
        return len(self._inc)

    def _run_residual(
        self,
    ) -> List[Tuple[float, float, Dict[int, float], Dict[int, float], Dict[int, float], Set[int], List[int], bool]]:
        """Extra rounds past the cached ones for still-unfrozen adds."""
        out: List[
            Tuple[float, float, Dict[int, float], Dict[int, float], Dict[int, float], Set[int], List[int], bool]
        ] = []
        unf_adds = self._unf_adds
        if not unf_adds:
            return out
        corr = self._corr
        rem_a = self._rem_a
        sat_a = self._sat_a
        dlist = self._dlist
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
            rem_pre = dict(rem_a)
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
            out.append((inc, cur, dj, hj, rem_pre, dsat, newly, forced))
        return out

    def _commit_prefix(self, upto: int) -> None:
        """Patch cached rounds ``[0, upto)`` with the replayed deltas."""
        dlist = self._dlist
        rmset = self._rmset
        for j in range(upto):
            dj, rem_pre, hj, dsat, newly = self._patch_prefix[j]
            inc = self._inc[j]
            darr = self._d[j]
            rarr = self._rem[j]
            tie = self._tie[j]
            sat = self._sat[j]
            for l in dlist:
                darr[l] = dj[l]
                rarr[l] = rem_pre[l]
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

    def _commit_residual(
        self,
        residual: List[
            Tuple[float, float, Dict[int, float], Dict[int, float], Dict[int, float], Set[int], List[int], bool]
        ],
    ) -> None:
        if not residual:
            return
        if (len(self._inc) + len(residual)) * self.num_links > _CACHE_CELLS:
            self._invalidate()
            return
        base = self._rem[-1] - self._inc[-1] * self._d[-1]
        for inc, cur, dj, hj, rem_pre, dsat, newly, forced in residual:
            d_full = np.zeros(self.num_links)
            rem_full = base.copy()
            for l, v in dj.items():
                d_full[l] = v
            for l, v in rem_pre.items():
                rem_full[l] = v
            j = len(self._inc)
            self._inc.append(inc)
            self._cur.append(cur)
            self._frz.append(set(newly))
            self._sat.append(set(dsat))
            self._tie.append(
                {l for l, h in hj.items() if dj.get(l, 0.0) > 0.0 and h == inc}
            )
            self._forced.append(forced)
            self._d.append(d_full)
            self._rem.append(rem_full)
            for a in newly:
                self._frz_round[a] = j

    # ------------------------------------------------------------------
    # Mode B: exact vector replay of the divergent suffix
    # ------------------------------------------------------------------

    def _run_vector(
        self, adds: List[int], rems: List[int], handoff: _B
    ) -> int:
        j0 = handoff.j0
        rounds = len(self._inc)
        num_links = self.num_links
        corr = self._corr
        rmset = self._rmset
        # Full-space remaining at round j0: cached snapshot, dirty links
        # patched with the scalar-replayed chain.
        rem = self._rem[j0].copy()
        for l, v in handoff.rem_pre.items():
            rem[l] = v
        unf: Set[int] = set(self._unf_adds)
        for r in range(j0, rounds):
            for e in self._frz[r]:
                if e not in rmset:
                    unf.add(e)
        cur = self._cur[j0 - 1] if j0 > 0 else 0.0
        jc = j0
        satv = self._satv
        dsafe = self._b_dsafe
        h = self._b_h
        unused = self._b_unused
        new_rounds: List[
            Tuple[float, float, Set[int], Set[int], Set[int], bool, np.ndarray, np.ndarray]
        ] = []

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while unf:
                if j0 + len(new_rounds) >= _ROUND_LIMIT:
                    raise _Cold("round_guard")
                if len(corr) > _CORR_LIMIT:
                    raise _Cold("corr_guard")
                self._count("alloc_replay_rounds")
                while jc < rounds and all(
                    (e in rmset or e not in unf) for e in self._frz[jc]
                ):
                    for e in self._frz[jc]:
                        for l in self._links[e]:
                            corr[l] = corr.get(l, 0) + 1
                    jc += 1
                d_eff = self._d[jc].copy() if jc < rounds else np.zeros(num_links)
                if corr:
                    idx = np.fromiter(corr.keys(), dtype=np.intp, count=len(corr))
                    vals = np.fromiter(
                        corr.values(), dtype=np.float64, count=len(corr)
                    )
                    d_eff[idx] += vals
                used = d_eff > 0.0
                if not used.any():
                    raise _Cold("vector_bail")
                np.maximum(d_eff, _TINY, out=dsafe)
                np.divide(rem, dsafe, out=h)
                np.logical_not(used, out=unused)
                np.copyto(h, np.inf, where=unused)
                inc = float(h.min())
                if not math.isfinite(inc) or inc < 0:
                    raise _Cold("vector_bail")
                rem_pre = rem.copy()
                cur = cur + inc
                rem -= inc * d_eff
                sat_mask = used & (rem <= satv)
                sat_ids = np.flatnonzero(sat_mask)
                frz: Set[int] = set()
                forced = sat_ids.size == 0
                if forced:
                    freeze_from: Tuple[int, ...] = (int(np.argmin(h)),)
                else:
                    freeze_from = tuple(int(l) for l in sat_ids)
                for l in freeze_from:
                    for e in self._users.get(l, ()):
                        if e in unf:
                            frz.add(e)
                if not frz:
                    raise _Cold("vector_bail")
                tie_ids = np.flatnonzero(used & (h == inc))
                for e in sorted(frz):
                    unf.discard(e)
                    self._levels[e] = cur
                    for l in self._links[e]:
                        corr[l] = corr.get(l, 0) - 1
                new_rounds.append(
                    (
                        inc,
                        cur,
                        frz,
                        set(int(l) for l in sat_ids),
                        set(int(l) for l in tie_ids),
                        forced,
                        d_eff,
                        rem_pre,
                    )
                )

        # Commit: patch the identical prefix, replace the suffix.
        self._commit_prefix(j0)
        del self._inc[j0:]
        del self._cur[j0:]
        del self._frz[j0:]
        del self._sat[j0:]
        del self._tie[j0:]
        del self._forced[j0:]
        del self._d[j0:]
        del self._rem[j0:]
        for inc, cur, frz, sat, tie, forced, d_full, rem_pre in new_rounds:
            j = len(self._inc)
            self._inc.append(inc)
            self._cur.append(cur)
            self._frz.append(frz)
            self._sat.append(sat)
            self._tie.append(tie)
            self._forced.append(forced)
            self._d.append(d_full)
            self._rem.append(rem_pre)
            for e in sorted(frz):
                self._frz_round[e] = j
        for r in rems:
            self._levels[r] = 0.0
        if len(self._inc) * num_links > _CACHE_CELLS:
            self._invalidate()
        return len(self._inc)
