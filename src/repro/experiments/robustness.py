"""Seed-robustness scorecard: do the paper's conclusions survive noise?

A reproduction that holds at one seed proves little; this experiment
re-runs the core Figure 4 / Figure 5 claims across several workload
seeds and reports, per claim, in how many runs it held.  The claims are
deliberately the qualitative statements EXPERIMENTS.md records —
orderings and factor bounds, not absolute numbers.

The claims read ordinary Figure 4 and Figure 5 cells, computed by
``run_fig4_cell`` and ``run_fig5_cell`` as every other consumer computes
them, so through the harness the scorecard shares its cells' cache
entries with ``repro fig4`` and keeps no grid of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.experiments.fig4_fct import run_fig4_cell
from repro.experiments.fig5_heatmap import run_fig5_cell
from repro.experiments.runner import SMALL, Scale

LEAF = "leaf-spine (ecmp)"
DRING_SU2 = "DRing (su2)"
DRING_ECMP = "DRing (ecmp)"
RRG_SU2 = "RRG (su2)"

#: Every cell the claims read, per seed: eleven Figure 4 cells as
#: pattern -> schemes, and the Figure 5 ``(DRing routing, clients,
#: servers)`` cell of the skewed C-S throughput claim.
FIG4_CELLS: Dict[str, Tuple[str, ...]] = {
    "A2A": (LEAF, DRING_SU2, RRG_SU2),
    "R2R": (DRING_SU2, DRING_ECMP),
    "CS skewed": (LEAF, DRING_SU2, RRG_SU2),
    "FB skewed": (LEAF, DRING_SU2, RRG_SU2),
}
FIG5_CELL: Tuple[str, int, int] = ("su2", 24, 96)


@dataclass(frozen=True)
class ClaimResult:
    """One claim's pass count over the seed sweep."""

    claim: str
    passes: int
    runs: int

    @property
    def rate(self) -> float:
        return self.passes / self.runs


def seed_claims(
    p99: Mapping[Tuple[str, str], float], cs: Mapping[str, float]
) -> Dict[str, bool]:
    """Every claim at one seed, from that seed's cells.

    ``p99`` maps each ``(pattern, scheme)`` of :data:`FIG4_CELLS` to its
    p99 FCT (ms); ``cs`` is the :data:`FIG5_CELL` payload
    (``dring_gbps``, ``leafspine_gbps``).
    """
    return {
        "flat beats leaf-spine on CS-skewed tail": (
            min(p99["CS skewed", DRING_SU2], p99["CS skewed", RRG_SU2])
            < p99["CS skewed", LEAF]
        ),
        "flat beats leaf-spine on FB-skewed tail": (
            min(p99["FB skewed", DRING_SU2], p99["FB skewed", RRG_SU2])
            < p99["FB skewed", LEAF]
        ),
        "SU(2) <= ECMP on DRing R2R tail": (
            p99["R2R", DRING_SU2] <= p99["R2R", DRING_ECMP] * 1.05
        ),
        "uniform comparable (within 2x)": (
            max(p99["A2A", DRING_SU2], p99["A2A", RRG_SU2])
            < 2.0 * p99["A2A", LEAF]
        ),
        "skewed C-S throughput gain > 1.3x": (
            cs["dring_gbps"] > 1.3 * cs["leafspine_gbps"]
        ),
    }


def robustness_from_cells(
    per_seed: Sequence[Dict[str, bool]]
) -> List[ClaimResult]:
    """Aggregate per-seed claim outcomes into the scorecard.

    ``runs`` counts the seeds actually present, so a seed with a failed
    sweep cell shrinks the denominator instead of killing the scorecard.
    """
    tallies: Dict[str, int] = {}
    for outcomes in per_seed:
        for claim, held in outcomes.items():
            tallies[claim] = tallies.get(claim, 0) + int(held)
    return [
        ClaimResult(claim=claim, passes=passes, runs=len(per_seed))
        for claim, passes in tallies.items()
    ]


# The scorecard's whole point is fanning out over an explicit seed
# *list*; each seed's cells are ordinary seeded fig4/fig5 cells.
def run_robustness(  # repro-lint: disable=seed-threading
    scale: Scale = SMALL, seeds: Sequence[int] = (0, 1, 2, 3, 4)
) -> List[ClaimResult]:
    """Evaluate every claim at every seed; aggregate pass counts."""
    routing, clients, servers = FIG5_CELL
    per_seed = []
    for seed in seeds:
        p99 = {
            (pattern, scheme): run_fig4_cell(
                scale, pattern, scheme, seed=seed
            ).p99_fct_ms()
            for pattern, schemes in FIG4_CELLS.items()
            for scheme in schemes
        }
        cs = run_fig5_cell(scale, routing, clients, servers, seed=seed)
        per_seed.append(seed_claims(p99, cs))
    return robustness_from_cells(per_seed)


def render_robustness(results: List[ClaimResult]) -> str:
    header = f"{'claim':<44}{'held':>8}"
    lines = [
        "Seed-robustness scorecard (paper claims across workload seeds)",
        header,
        "-" * len(header),
    ]
    for r in results:
        lines.append(f"{r.claim:<44}{r.passes:>4}/{r.runs}")
    return "\n".join(lines)
