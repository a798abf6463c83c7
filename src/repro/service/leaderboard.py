"""Ranking completed cells: which (topology, routing, workload) wins.

The leaderboard reads the result store (never the simulators) and is
built around two small registries:

* a **metric registry** (:func:`register_metric`) naming each rankable
  quantity and its direction — lower-is-better for the FCT and
  iteration-time metrics, higher-is-better for throughput;
* an **entry-builder registry** (:func:`register_entry_builder`) that
  turns a stored cache payload into a :class:`LeaderboardEntry` — one
  builder per experiment family (fig4's per-flow FCT record sets, the
  ML sweep's collective timelines).  New experiments register a builder
  and their metrics; the ranking code never changes.

Cells are ranked by one metric with stable tie-breaks on the cell's
identity (scheme, pattern, scale, seed, key), so equal scores always
list in the same order and reruns render byte-identical boards.
Entries that don't carry the requested metric simply don't compete.

The (topology, routing) pair lives in the cell's scheme label (for
fig4, e.g. ``"DRing (su2)"``; for ml, ``"ecmp"`` with the topology in
the pattern field) and the workload in its pattern label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.service.store import ServiceStore


@dataclass(frozen=True)
class MetricSpec:
    """One rankable metric: its name and which direction wins."""

    name: str
    higher_is_better: bool
    description: str = ""


#: Registration-ordered metric registry.
METRIC_REGISTRY: Dict[str, MetricSpec] = {}


def register_metric(
    name: str, higher_is_better: bool, description: str = ""
) -> MetricSpec:
    """Register (or re-register) a leaderboard metric."""
    spec = MetricSpec(
        name=name,
        higher_is_better=higher_is_better,
        description=description,
    )
    METRIC_REGISTRY[name] = spec
    return spec


def metric_names() -> Tuple[str, ...]:
    """Every registered metric, in registration order."""
    return tuple(METRIC_REGISTRY)


DEFAULT_METRIC = "p99_fct_ms"


@dataclass(frozen=True)
class LeaderboardEntry:
    """One ranked cell and its recomputed metrics.

    ``extras`` are identity-adjacent display columns (flow counts, job
    counts); ``values`` are the entry's metric values, in the order its
    builder wants them rendered.  Both are ordered tuples so
    :meth:`to_dict` reproduces each family's historical key order
    exactly (fig4 boards must stay byte-identical).
    """

    key: str
    experiment: str
    scale: str
    scheme: str
    pattern: str
    seed: int
    created_at: float
    extras: Tuple[Tuple[str, Any], ...] = field(default=())
    values: Tuple[Tuple[str, float], ...] = field(default=())

    def metric(self, name: str) -> Optional[float]:
        for metric_name, value in self.values:
            if metric_name == name:
                return float(value)
        return None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "key": self.key,
            "experiment": self.experiment,
            "scale": self.scale,
            "scheme": self.scheme,
            "pattern": self.pattern,
            "seed": self.seed,
        }
        for name, value in self.extras:
            payload[name] = value
        for name, value in self.values:
            payload[name] = value
        payload["created_at"] = self.created_at
        return payload


#: Payload -> entry builders, tried in registration order.
ENTRY_BUILDERS: List[
    Callable[[Mapping[str, Any]], Optional[LeaderboardEntry]]
] = []


def register_entry_builder(
    builder: Callable[[Mapping[str, Any]], Optional[LeaderboardEntry]]
) -> Callable[[Mapping[str, Any]], Optional[LeaderboardEntry]]:
    """Register a payload->entry builder (usable as a decorator)."""
    ENTRY_BUILDERS.append(builder)
    return builder


def _identity(
    payload: Mapping[str, Any], spec: Mapping[str, Any]
) -> Dict[str, Any]:
    return {
        "key": str(payload.get("key", "")),
        "experiment": str(spec.get("experiment", "")),
        "scale": str(spec.get("scale", "")),
        "scheme": str(spec.get("scheme", "")),
        "pattern": str(spec.get("pattern", "")),
        "seed": int(spec.get("seed", 0)),
        "created_at": float(payload.get("created_at", 0.0)),
    }


@register_entry_builder
def _fig4_entry(
    payload: Mapping[str, Any]
) -> Optional[LeaderboardEntry]:
    """Cells whose result is a per-flow FCT record set (fig4)."""
    from repro.sim.results import FctResults

    spec = payload.get("spec")
    result = payload.get("result")
    if not isinstance(spec, Mapping) or not isinstance(result, Mapping):
        return None
    if spec.get("experiment") != "fig4" or "records" not in result:
        return None
    try:
        fct = FctResults.from_json_dict(dict(result))
    except (KeyError, TypeError, ValueError):
        return None
    if not fct.records:
        return None
    throughput = sum(r.throughput_gbps for r in fct.records)
    return LeaderboardEntry(
        **_identity(payload, spec),
        extras=(("num_flows", fct.num_flows),),
        values=(
            ("median_fct_ms", fct.median_fct_ms()),
            ("p99_fct_ms", fct.p99_fct_ms()),
            ("throughput_gbps", throughput / fct.num_flows),
        ),
    )


@register_entry_builder
def _ml_entry(payload: Mapping[str, Any]) -> Optional[LeaderboardEntry]:
    """Cells from the ML collective sweep, ranked by iteration time."""
    spec = payload.get("spec")
    result = payload.get("result")
    if not isinstance(spec, Mapping) or not isinstance(result, Mapping):
        return None
    if spec.get("experiment") != "ml" or "iteration_time_s" not in result:
        return None
    try:
        iteration_time = float(result["iteration_time_s"])
        straggler_time = float(
            result.get("max_iteration_time_s", iteration_time)
        )
        num_jobs = int(result.get("num_jobs", 0))
        num_workers = int(result.get("num_workers", 0))
    except (TypeError, ValueError):
        return None
    return LeaderboardEntry(
        **_identity(payload, spec),
        extras=(
            ("num_jobs", num_jobs),
            ("num_workers", num_workers),
        ),
        values=(
            ("iteration_time", iteration_time),
            ("max_iteration_time", straggler_time),
        ),
    )


register_metric(
    "p99_fct_ms", False, "99th-percentile flow completion time (ms)"
)
register_metric("median_fct_ms", False, "median flow completion time (ms)")
register_metric("throughput_gbps", True, "mean per-flow throughput (Gbps)")
register_metric(
    "iteration_time", False, "mean training iteration time (seconds)"
)
register_metric(
    "max_iteration_time", False, "straggler job iteration time (seconds)"
)


def entry_from_payload(
    payload: Mapping[str, Any]
) -> Optional[LeaderboardEntry]:
    """A leaderboard entry from one stored cache payload, if rankable.

    Builders are tried in registration order; the first one that
    recognizes the payload wins.  Unrecognized cells return None.
    """
    for builder in ENTRY_BUILDERS:
        entry = builder(payload)
        if entry is not None:
            return entry
    return None


def rank_entries(
    entries: List[LeaderboardEntry], metric: str = DEFAULT_METRIC
) -> List[LeaderboardEntry]:
    """Sort entries by ``metric`` with deterministic tie-breaks.

    Entries that don't carry the metric are dropped — a fig4 cell never
    competes on iteration time, nor an ML cell on p99 FCT.
    """
    try:
        higher_is_better = METRIC_REGISTRY[metric].higher_is_better
    except KeyError:
        raise ValueError(
            f"unknown leaderboard metric {metric!r}; "
            f"know {sorted(METRIC_REGISTRY)}"
        ) from None
    sign = -1.0 if higher_is_better else 1.0
    scored = [
        (entry, value)
        for entry in entries
        for value in [entry.metric(metric)]
        if value is not None
    ]
    ranked = sorted(
        scored,
        key=lambda pair: (
            sign * pair[1],
            pair[0].scheme,
            pair[0].pattern,
            pair[0].scale,
            pair[0].seed,
            pair[0].key,
        ),
    )
    return [entry for entry, _value in ranked]


def build_leaderboard(
    store: ServiceStore,
    metric: str = DEFAULT_METRIC,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Rank every rankable cell in the store; returns row dicts.

    Rows carry a 1-based ``rank`` plus the entry's metrics; ``limit``
    truncates after ranking.
    """
    entries: List[LeaderboardEntry] = []
    for meta in store.list_entries():
        payload = store.payload_for(str(meta["key"]))
        if payload is None:
            continue
        entry = entry_from_payload(payload)
        if entry is not None:
            entries.append(entry)
    ranked = rank_entries(entries, metric=metric)
    if limit is not None:
        ranked = ranked[: max(0, limit)]
    return [
        dict(entry.to_dict(), rank=position)
        for position, entry in enumerate(ranked, start=1)
    ]


def _render_fig4_rows(rows: List[Dict[str, Any]], metric: str) -> str:
    arrow = "^" if METRIC_REGISTRY[metric].higher_is_better else "v"
    lines = [
        f"leaderboard by {metric} ({arrow} best first)",
        f"{'rank':>4}  {'scheme':<18} {'workload':<12} {'scale':<8}"
        f"{'seed':>5} {'median ms':>11} {'p99 ms':>9} {'gbps':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row['rank']:>4}  {row['scheme']:<18} {row['pattern']:<12} "
            f"{row['scale']:<8}{row['seed']:>4} "
            f"{row['median_fct_ms']:>11.4f} {row['p99_fct_ms']:>9.4f} "
            f"{row['throughput_gbps']:>7.3f}"
        )
    return "\n".join(lines)


def _render_ml_rows(rows: List[Dict[str, Any]], metric: str) -> str:
    lines = [
        f"leaderboard by {metric} (v best first)",
        f"{'rank':>4}  {'topology':<12} {'scheme':<10} {'scale':<8}"
        f"{'seed':>5} {'jobs':>6} {'iter ms':>10} {'straggler':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row['rank']:>4}  {row['pattern']:<12} {row['scheme']:<10} "
            f"{row['scale']:<8}{row['seed']:>4} {row['num_jobs']:>6} "
            f"{1e3 * row['iteration_time']:>10.3f} "
            f"{1e3 * row['max_iteration_time']:>9.3f}ms"
        )
    return "\n".join(lines)


def _render_generic_rows(
    rows: List[Dict[str, Any]], metric: str
) -> str:
    arrow = "^" if METRIC_REGISTRY[metric].higher_is_better else "v"
    lines = [
        f"leaderboard by {metric} ({arrow} best first)",
        f"{'rank':>4}  {'scheme':<18} {'workload':<12} {'scale':<8}"
        f"{'seed':>5} {metric:>18}",
    ]
    for row in rows:
        lines.append(
            f"{row['rank']:>4}  {row['scheme']:<18} {row['pattern']:<12} "
            f"{row['scale']:<8}{row['seed']:>4} {row[metric]:>18.6f}"
        )
    return "\n".join(lines)


def render_leaderboard(
    rows: List[Dict[str, Any]], metric: str = DEFAULT_METRIC
) -> str:
    """A fixed-width text board, one row per ranked cell.

    The column set follows the rows' experiment family: fig4 rows keep
    their historical (and byte-identical) median/p99/gbps board, ML
    rows render iteration times, anything else falls back to a single
    metric column.
    """
    if not rows:
        return "leaderboard: no rankable results yet"
    if all("median_fct_ms" in row for row in rows):
        return _render_fig4_rows(rows, metric)
    if all("iteration_time" in row for row in rows):
        return _render_ml_rows(rows, metric)
    return _render_generic_rows(rows, metric)
