"""Output checks: invariants every run must satisfy, plus a seed-0 reference.

Records are compared as invariants, never bit for bit, so a change that
legitimately reorders float arithmetic still passes:

* every input flow yields exactly one record with the same
  (src, dst, size, start);
* no flow finishes before it could at the line rate of the slowest link
  on its path: ``finish >= start + size * 8 / min capacity``;
* for the default seed, the headline numbers match the recorded
  reference at the precision the repository's tables print.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: A record row in the harness's JSON form:
#: ``[src, dst, size_bytes, start, finish, path]``.
Row = Sequence[Any]

#: Slack on the line-rate bound, relative to the flow's ideal FCT.
_BOUND_RTOL = 1e-9

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")


def capacity_of_path(network: Any) -> Callable[[Sequence[int]], float]:
    """Min capacity (Gbps) along a switch path, server links included."""
    table = network.link_table()
    capacities = table.capacities
    server_cap = float(network.server_link_capacity)

    def capacity(path: Sequence[int]) -> float:
        slowest = server_cap
        for u, v in zip(path, path[1:]):
            slowest = min(slowest, float(capacities[table.id_of(u, v)]))
        return slowest

    return capacity


def record_problems(
    expected: Iterable[Tuple[int, int, float, float]],
    rows: Iterable[Row],
    capacity: Callable[[Sequence[int]], float],
) -> List[str]:
    """Check one simulator run's records against the flows it was given.

    ``expected`` yields each input flow as (src, dst, size, start) in
    network server ids.  Both arguments are read once, as streams, and
    the two multisets are compared by count and by the sum of their
    members' hashes, so the check holds nothing per flow and adds
    nothing to the peak memory of the run it checks.
    """
    problems: List[str] = []
    flows = flow_hashes = 0
    for key in expected:
        flows += 1
        flow_hashes += hash(key)
    records = record_hashes = early = 0
    for src, dst, size, start, finish, path in rows:
        records += 1
        record_hashes += hash((src, dst, size, start))
        ideal = size * 8.0 / (capacity(path) * 1e9)
        if finish < start + ideal * (1.0 - _BOUND_RTOL):
            early += 1
    if records != flows:
        problems.append(f"{records} records for {flows} flows")
    elif record_hashes != flow_hashes:
        problems.append("records do not match the flows' (src, dst, size, start)")
    if early:
        problems.append(f"{early} flows finish faster than line rate allows")
    return problems


def load_reference() -> Dict[str, Dict[str, str]]:
    return json.loads(REFERENCE_PATH.read_text())


def reference_problems(
    workload: str, observed: Dict[str, str]
) -> List[str]:
    """Compare printed-precision headline numbers with the reference."""
    reference = load_reference().get(workload)
    if reference is None:
        return [f"no reference recorded for {workload!r}"]
    problems = []
    for key in sorted(set(reference) | set(observed)):
        if reference.get(key) != observed.get(key):
            problems.append(
                f"{key}: got {observed.get(key)}, reference "
                f"{reference.get(key)}"
            )
    return problems
