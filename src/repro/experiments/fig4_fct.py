"""Figure 4: median and 99th-percentile FCT across traffic matrices.

Reproduces the paper's headline comparison: seven traffic patterns (A2A,
R2R, C-S skewed, FB skewed/uniform and their random-placement variants)
against five (topology, routing) combinations.  Every TM is scaled so
the offered load equals 30% of the baseline leaf-spine's spine capacity,
with the sparse-pattern correction of Section 6.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    SMALL,
    Scale,
    build_scheme,
    build_topology,
    scheme_labels,
)
from repro.sim.flowsim import simulate_fct
from repro.sim.results import FctResults, fct_table
from repro.traffic import (
    TrafficMatrix,
    cs_skewed_fig4,
    fb_skewed,
    fb_uniform,
    generate_flows,
    window_for_budget,
    rack_to_rack,
    spine_utilization_load,
    uniform,
)


@dataclass(frozen=True)
class PatternSpec:
    """One Figure 4 column: a TM plus whether placement is shuffled."""

    label: str
    tm: TrafficMatrix
    random_placement: bool = False


def fig4_patterns(scale: Scale, seed: int = 0) -> List[PatternSpec]:
    """The seven traffic patterns of Figure 4, in paper order."""
    cluster = scale.cluster
    return [
        PatternSpec("A2A", uniform(cluster)),
        PatternSpec("R2R", rack_to_rack(cluster)),
        PatternSpec("CS skewed", cs_skewed_fig4(cluster, seed=seed)),
        PatternSpec("FB skewed", fb_skewed(cluster, seed=seed)),
        PatternSpec("FB uniform", fb_uniform(cluster, seed=seed)),
        PatternSpec("FB skewed (RP)", fb_skewed(cluster, seed=seed), True),
        PatternSpec("FB uniform (RP)", fb_uniform(cluster, seed=seed), True),
    ]


@dataclass
class Fig4Result:
    """All FCT results, indexed [pattern][scheme]."""

    rows: Dict[str, Dict[str, FctResults]]

    def median_table(self) -> str:
        return fct_table(self.rows, metric="median")

    def p99_table(self) -> str:
        return fct_table(self.rows, metric="p99")

    def ratio(
        self, pattern: str, scheme_a: str, scheme_b: str, metric: str = "p99"
    ) -> float:
        """FCT(scheme_a) / FCT(scheme_b) for one pattern."""
        results_a = self.rows[pattern][scheme_a]
        results_b = self.rows[pattern][scheme_b]
        if metric == "median":
            return results_a.median_fct_ms() / results_b.median_fct_ms()
        return results_a.p99_fct_ms() / results_b.p99_fct_ms()


def _pattern_flows(scale: Scale, pattern: PatternSpec, seed: int,
                   utilization: float):
    """The identical workload every scheme receives for one column.

    The baseline for load scaling is the scale's leaf-spine regardless
    of the topology under test, so every scheme sees the same endpoints
    in canonical space, same sizes, same start times.
    """
    baseline = build_topology("leaf-spine", scale)
    load = spine_utilization_load(baseline, pattern.tm, utilization)
    window, num_flows = window_for_budget(
        load.offered_gbps,
        scale.max_flows,
        scale.window_seconds,
        size_cap=scale.size_cap_bytes,
    )
    return generate_flows(
        pattern.tm,
        num_flows,
        window,
        seed=seed,
        size_cap=scale.size_cap_bytes,
    )


def run_fig4_cell(
    scale: Scale,
    pattern: str,
    scheme: str,
    seed: int = 0,
    utilization: float = 0.30,
) -> FctResults:
    """One Figure 4 grid cell, independently executable.

    The only place a Figure 4 record is computed: ``run_fig4``, the
    sweep harness, the service and the robustness scorecard all run
    this.  Each call rebuilds its scheme and regenerates the column's
    seeded workload, so every scheme in a column sees the same flows.
    """
    by_label = {p.label: p for p in fig4_patterns(scale, seed=seed)}
    try:
        pattern_spec = by_label[pattern]
    except KeyError:
        raise KeyError(
            f"unknown fig4 pattern {pattern!r}; know {list(by_label)}"
        ) from None
    tut = build_scheme(scheme, scale, seed=seed)
    flows = _pattern_flows(scale, pattern_spec, seed, utilization)
    placement = tut.placement(
        shuffle=pattern_spec.random_placement, seed=seed
    )
    return simulate_fct(tut.network, tut.routing, placement, flows, seed=seed)


def fig4_result_from_cells(
    cells: Dict[Tuple[str, str], FctResults],
    patterns: Sequence[str],
    schemes: Sequence[str],
) -> Fig4Result:
    """Assemble a :class:`Fig4Result` from per-cell results.

    ``cells`` maps ``(pattern label, scheme label)`` to results; missing
    cells (a failed sweep job) simply leave a hole the table renders as
    ``-``.  Rows and columns follow ``patterns`` and ``schemes``, so the
    tables render the same whichever way the cells were run.
    """
    rows: Dict[str, Dict[str, FctResults]] = {}
    for pattern in dict.fromkeys(patterns):
        by_scheme = {
            scheme: cells[(pattern, scheme)]
            for scheme in schemes
            if (pattern, scheme) in cells
        }
        if by_scheme:
            rows[pattern] = by_scheme
    return Fig4Result(rows=rows)


def run_fig4(
    scale: Scale = SMALL,
    seed: int = 0,
    patterns: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    utilization: float = 0.30,
) -> Fig4Result:
    """Run the Figure 4 grid at the given scale, one cell at a time.

    ``patterns`` and ``schemes`` are labels, as ``fig4_jobs`` takes
    them; by default the full seven-pattern, five-scheme grid.
    """
    if patterns is None:
        patterns = [p.label for p in fig4_patterns(scale, seed=seed)]
    if schemes is None:
        schemes = scheme_labels()
    cells = {
        (pattern, scheme): run_fig4_cell(
            scale, pattern, scheme, seed=seed, utilization=utilization
        )
        for pattern in patterns
        for scheme in schemes
    }
    return fig4_result_from_cells(cells, patterns, schemes)
