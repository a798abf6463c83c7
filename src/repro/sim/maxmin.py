"""Weighted max-min fair bandwidth allocation by progressive filling.

This is the fluid model both simulators share.  Long-lived TCP flows
sharing a network converge approximately to a max-min fair allocation on
their paths; progressive filling computes it exactly: all entities' fair
level rises together, a link saturates, the entities crossing it freeze,
repeat.

The allocator is generic over "entities" (individual flows in the FCT
simulator, rack-pair commodities in the throughput solver): entity ``i``
consumes ``value`` units of link ``l`` per unit of its fair level
``lambda_i``, and its rate is ``lambda_i`` times its weight.  For a flow,
weight 1 and value 1 on every link of its path recovers classic max-min;
for a commodity of ``w`` flows splitting over many paths, weight ``w``
and value ``w * fraction(l)`` makes each *flow* of the commodity as fair
as a standalone flow.

Two entry points share one numpy core (:func:`fill_levels`):

* :func:`progressive_filling` — the legacy list-of-pairs interface.  It
  validates and flattens its input per call; fine for one-shot solves.
* :class:`Incidence` — a persistent flat entity→link incidence that the
  array-backed engine updates incrementally on flow admit/finish, so the
  per-event flatten disappears from the simulation hot loop entirely.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Relative tolerance for declaring a link saturated.
_EPSILON = 1e-12

#: Smallest positive subnormal double.  ``max(demand, tiny)`` leaves
#: every positive demand bit-identical while keeping zero-demand links
#: out of 0/0; see the guarded division in :func:`fill_levels`.
_SUBNORMAL_TINY = 5e-324


class AllocationError(RuntimeError):
    """Raised when the allocation cannot make progress (bad inputs)."""


# Re-solved at every event that may move a live flow's rate.
def fill_levels(
    ent: np.ndarray,
    lnk: np.ndarray,
    val: np.ndarray,
    caps: np.ndarray,
    active: np.ndarray,
    links: Optional[np.ndarray] = None,
    saturated_at: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Progressive filling on a pre-flattened incidence.

    Parameters
    ----------
    ent, lnk, val:
        Parallel arrays: incidence entry ``j`` says entity ``ent[j]``
        consumes ``val[j] * lambda`` on link ``lnk[j]``.  Entries must
        already be validated (positive values, in-range link ids).
    caps:
        Positive capacity per link id.
    active:
        Boolean mask of entities whose levels should rise; entities
        starting inactive keep level 0 and contribute no demand.  The
        mask is copied, not mutated.
    links:
        Optional sorted array of exactly the distinct link ids among
        *active* entries, when the caller already tracks them (the flow
        simulator keeps per-link reference counts).  Skips the
        ``np.unique`` sort on the hot path; semantics are unchanged.
    saturated_at:
        Optional per-link-id output.  For every link among active
        entries the solve writes the level at which the link saturated
        (the same float its frozen entities received), or ``+inf`` if it
        ends with capacity to spare; other entries are left untouched.
        An entity whose level equals the entry of one of its links is
        bottlenecked there: the link is full and no entity on it runs
        faster.  The flow simulator reads it to prove later solves
        unnecessary.

    Returns
    -------
    (levels, iterations):
        ``lambda`` per entity and the number of filling rounds run.

    Notes
    -----
    The loop works in a compressed link space (only links referenced by
    active entries) and keeps a working copy of the active entries that
    shrinks as entities freeze.  Both transformations are exact: links
    with no active entries carry zero demand and infinite headroom, so
    dropping them changes no float operation, and the working entries
    preserve admission order, so ``bincount`` accumulates demand sums in
    the identical order the full-mask formulation used.
    """
    level = np.zeros(len(active))
    active = active.copy()
    sel = active[ent]
    if sel.all():
        w_ent, w_lnk, w_val = ent, lnk, val
    else:
        w_ent, w_lnk, w_val = ent[sel], lnk[sel], val[sel]
    if not w_ent.size and active.any():
        raise AllocationError("active entities consume no capacity")
    # Compress to the referenced links; ids stay ascending, so argmin
    # tie-breaks agree with the full link space.
    if links is None:
        links, w_lnk = np.unique(w_lnk, return_inverse=True)
    else:
        # Scatter-then-gather beats searchsorted: O(1) per entry with no
        # binary-search comparisons, and every w_lnk value is in links.
        remap = np.empty(len(caps), dtype=np.intp)
        remap[links] = np.arange(len(links))
        w_lnk = remap[w_lnk]
    num_links = len(links)
    remaining = caps[links]
    saturation = remaining * _EPSILON
    saturated_level = np.full(num_links, np.inf)
    current = 0.0
    iterations = 0

    while w_ent.size:
        iterations += 1
        demand = np.bincount(w_lnk, weights=w_val, minlength=num_links)
        used = demand > 0
        if not used.any():
            raise AllocationError("active entities consume no capacity")
        # Guarded full division instead of a masked one: ``max(d, tiny)``
        # with the smallest subnormal equals ``d`` for every positive
        # demand, so used links divide by the identical float, and the
        # ``where=``-masked inner loop (5-10x slower than plain ufunc
        # dispatch at these sizes) disappears from the hot path.  Unused
        # links still end up at +inf, exactly as the mask produced.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            headroom = remaining / np.maximum(demand, _SUBNORMAL_TINY)
        headroom[~used] = np.inf
        increment = float(headroom.min())
        if not math.isfinite(increment) or increment < 0:
            raise AllocationError("allocation cannot make progress")
        current += increment
        remaining -= increment * demand
        # Freeze entities crossing any saturated link they use.  A link
        # saturated in an earlier round has no active entries left (its
        # entities froze with it), so the ``used`` guard is implicit in
        # the working-set filtering below.
        saturated_links = used & (remaining <= saturation)
        touches = saturated_links[w_lnk]
        frozen = w_ent[touches]
        if frozen.size == 0:
            # Numerical corner: force the single most-loaded link.
            forced = int(np.argmin(headroom))
            frozen = w_ent[w_lnk == forced]
        if saturated_at is not None:
            saturated_level[saturated_links] = current
        level[frozen] = current
        active[frozen] = False
        keep = active[w_ent]
        w_ent = w_ent[keep]
        w_lnk = w_lnk[keep]
        w_val = w_val[keep]

    if saturated_at is not None:
        saturated_at[links] = saturated_level
    return level, iterations


def progressive_filling(
    entity_links: Sequence[Sequence[Tuple[int, float]]],
    capacities: Sequence[float],
) -> np.ndarray:
    """Max-min fair levels for entities consuming capacity on links.

    Parameters
    ----------
    entity_links:
        ``entity_links[i]`` lists ``(link_index, value)`` pairs: entity i
        consumes ``value * lambda_i`` on that link.  Values must be
        positive; an entity with no links gets an infinite level, which
        is reported as an error because it indicates a modelling bug.
    capacities:
        Positive capacity per link index.

    Returns
    -------
    numpy.ndarray
        ``lambda_i`` per entity, the max-min fair levels.
    """
    num_entities = len(entity_links)
    caps = np.asarray(capacities, dtype=float)
    if np.any(caps <= 0):
        raise AllocationError("all link capacities must be positive")
    num_links = len(caps)

    # Flatten the incidence into parallel arrays for numpy bincount use.
    entity_index: List[int] = []
    link_index: List[int] = []
    values: List[float] = []
    for i, links in enumerate(entity_links):
        if not links:
            raise AllocationError(f"entity {i} uses no links")
        for link, value in links:
            if value <= 0:
                raise AllocationError(
                    f"entity {i} has non-positive value {value} on link {link}"
                )
            if not 0 <= link < num_links:
                raise AllocationError(f"entity {i} references bad link {link}")
            entity_index.append(i)
            link_index.append(link)
            values.append(value)
    ent = np.array(entity_index, dtype=np.intp)
    lnk = np.array(link_index, dtype=np.intp)
    val = np.array(values, dtype=float)

    active = np.ones(num_entities, dtype=bool)
    level, _iterations = fill_levels(ent, lnk, val, caps, active)
    return level


def flow_rates(
    flow_paths: Sequence[Sequence[int]],
    capacities: Sequence[float],
) -> np.ndarray:
    """Max-min fair rates for unit-weight flows over integer link ids."""
    entity_links = [
        [(link, 1.0) for link in path] for path in flow_paths
    ]
    return progressive_filling(entity_links, capacities)


class Incidence:
    """A persistent flat entity→link incidence for the engine's hot loop.

    Stores the same parallel ``(ent, lnk, val)`` arrays that
    :func:`progressive_filling` flattens per call, but keeps them alive
    across events: :meth:`append` adds one entity's entries on flow
    admit, :meth:`compact` drops retired entities' entries on finish.
    Arrays grow by doubling, so the steady-state cost per event is a few
    slice writes instead of rebuilding O(flows × path length) Python
    lists.

    Entries stay in admission order (compaction is order-preserving), so
    ``bincount``/``add.at`` reductions over them sum floats in exactly
    the order the legacy per-event rebuild did — bit-for-bit parity.
    """

    _INITIAL_CAPACITY = 1024

    def __init__(self) -> None:
        self._ent = np.empty(self._INITIAL_CAPACITY, dtype=np.intp)
        self._lnk = np.empty(self._INITIAL_CAPACITY, dtype=np.intp)
        self._val = np.empty(self._INITIAL_CAPACITY, dtype=float)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def ent(self) -> np.ndarray:
        """Entity id per entry (view; do not mutate)."""
        return self._ent[: self._size]

    @property
    def lnk(self) -> np.ndarray:
        """Link id per entry (view; do not mutate)."""
        return self._lnk[: self._size]

    @property
    def val(self) -> np.ndarray:
        """Consumption value per entry (view; do not mutate)."""
        return self._val[: self._size]

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = len(self._ent)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_ent", "_lnk", "_val"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    def append(self, entity: int, links: Sequence[int], value: float = 1.0) -> None:
        """Add ``(entity, link, value)`` entries for each link in order."""
        count = len(links)
        self._reserve(count)
        start = self._size
        end = start + count
        self._ent[start:end] = entity
        self._lnk[start:end] = links
        self._val[start:end] = value
        self._size = end

    def compact(self, keep_entity: np.ndarray) -> None:
        """Drop entries whose entity id has ``keep_entity[id]`` False.

        Order-preserving: surviving entries keep their relative order,
        so float-summation order over the incidence is unchanged.
        """
        ent = self._ent[: self._size]
        mask = keep_entity[ent]
        kept = int(np.count_nonzero(mask))
        if kept == self._size:
            return
        self._ent[:kept] = ent[mask]
        self._lnk[:kept] = self._lnk[: self._size][mask]
        self._val[:kept] = self._val[: self._size][mask]
        self._size = kept

