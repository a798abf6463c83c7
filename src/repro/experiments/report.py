"""One-shot report: regenerate every paper artifact into a directory.

``python -m repro report --out results/`` runs each experiment driver at
the requested scale and writes the rendered tables — the same artifacts
the benchmark suite produces, without the benchmarking machinery.
Useful for CI jobs and for refreshing EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import SMALL, Scale, build_topology
from repro.harness.clock import perf


def _fig4(scale: Scale, seed: int) -> str:
    from repro.experiments.fig4_fct import run_fig4

    result = run_fig4(scale, seed=seed)
    return result.median_table() + "\n\n" + result.p99_table()


def _fig5(scale: Scale, seed: int) -> str:
    from repro.experiments.fig5_heatmap import run_fig5

    panels = run_fig5(scale, seed=seed)
    return panels["ecmp"].render() + "\n\n" + panels["su2"].render()


def _fig6(scale: Scale, seed: int) -> str:
    from repro.experiments.fig6_scale import Fig6Config, render_fig6, run_fig6

    return render_fig6(run_fig6(Fig6Config(), seed=seed))


def _udf(scale: Scale, seed: int) -> str:
    from repro.experiments.udf_table import render_udf_table, run_udf_table

    return render_udf_table(run_udf_table(seed=seed))


def _microburst(scale: Scale, seed: int) -> str:
    from repro.experiments.microburst import render_microburst, run_microburst

    return render_microburst(run_microburst(scale, seed=seed))


def _other_topologies(scale: Scale, seed: int) -> str:
    from repro.experiments.other_topologies import (
        render_other_topologies,
        run_other_topologies,
    )

    return render_other_topologies(run_other_topologies(seed=seed))


def _expansion(scale: Scale, seed: int) -> str:
    from repro.experiments.expansion import render_expansion, run_expansion_study

    return render_expansion(run_expansion_study(seed=seed))


def _dynamic(scale: Scale, seed: int) -> str:
    from repro.experiments.dynamic import (
        render_dynamic,
        run_dynamic_study,
        skewed_demand,
        uniform_demand,
    )

    results = {
        "skewed": run_dynamic_study(skewed_demand(16, 3, seed=seed)),
        "uniform": run_dynamic_study(uniform_demand(16)),
    }
    return render_dynamic(results)


def _tiers(scale: Scale, seed: int) -> str:
    from repro.experiments.tiers import render_tiers, run_tier_study

    return render_tiers(run_tier_study(seed=seed))


def _scheme_zoo(scale: Scale, seed: int) -> str:
    from repro.experiments.ablations import run_scheme_zoo
    from repro.topology import dring
    from repro.traffic import CanonicalCluster

    net = dring(8, 2, servers_per_rack=6)
    cluster = CanonicalCluster(16, 6)
    points = run_scheme_zoo(net, cluster, seed=seed)
    lines = [
        f"{'pattern':>9}{'scheme':>9}{'median ms':>11}{'p99 ms':>9}{'hops':>7}"
    ]
    for p in points:
        lines.append(
            f"{p.pattern:>9}{p.scheme:>9}{p.median_ms:>11.4f}"
            f"{p.p99_ms:>9.4f}{p.mean_hops:>7.2f}"
        )
    return "\n".join(lines)


def _permutation(scale: Scale, seed: int) -> str:
    from repro.experiments.permutation import (
        render_permutation,
        run_permutation_study,
    )

    return render_permutation(run_permutation_study(seed=seed))


def _heterogeneous(scale: Scale, seed: int) -> str:
    from repro.experiments.ablations import run_heterogeneous_study

    points = run_heterogeneous_study(seed=seed)
    lines = [f"{'uplinks':>8}{'leafspine p99':>15}{'flat p99':>10}{'gain':>7}"]
    for p in points:
        lines.append(
            f"{'x' + str(p.uplink_mult):>8}{p.leafspine_p99_ms:>15.3f}"
            f"{p.flat_p99_ms:>10.3f}{p.flat_gain:>7.2f}"
        )
    return "\n".join(lines)


def _cabling(scale: Scale, seed: int) -> str:
    from repro.core.cabling import compare_cabling, render_cabling

    networks = [
        build_topology(kind, scale, seed=seed)
        for kind in ("leaf-spine", "rrg", "dring")
    ]
    return render_cabling(compare_cabling(networks))


def _verify(scale: Scale, seed: int) -> str:
    from repro.bgp import verify_fabric

    network = build_topology("dring", scale)
    stats = verify_fabric(network, 2)
    return (
        f"{network.name}: Theorem 1 + Shortest-Union(2) verified over "
        f"{stats['pairs']} pairs ({stats['rounds']} rounds, "
        f"{stats['updates']} updates)"
    )


#: artifact name -> generator; ordered roughly by paper section.
ARTIFACTS: Dict[str, Callable[[Scale, int], str]] = {
    "udf_table": _udf,
    "fig4_fct": _fig4,
    "fig5_heatmaps": _fig5,
    "fig6_scale": _fig6,
    "theorem1_verification": _verify,
    "microburst": _microburst,
    "other_topologies": _other_topologies,
    "expansion_churn": _expansion,
    "dynamic_networks": _dynamic,
    "tiers": _tiers,
    "scheme_zoo": _scheme_zoo,
    "permutation_boundary": _permutation,
    "cabling": _cabling,
    "heterogeneous": _heterogeneous,
}


def generate_report(
    out_dir: pathlib.Path,
    scale: Scale = SMALL,
    seed: int = 0,
    only: Optional[List[str]] = None,
) -> List[Tuple[str, float]]:
    """Write every artifact (or the requested subset) to ``out_dir``.

    Returns ``(artifact, seconds)`` timings; raises KeyError on unknown
    artifact names so typos do not silently skip work.
    """
    names = list(ARTIFACTS) if only is None else list(only)
    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        raise KeyError(f"unknown artifacts: {unknown}; know {list(ARTIFACTS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: List[Tuple[str, float]] = []
    for name in names:
        start = perf()
        text = ARTIFACTS[name](scale, seed)
        (out_dir / f"{name}.txt").write_text(text + "\n")
        timings.append((name, perf() - start))
    index = "\n".join(
        f"{name}.txt  ({seconds:.1f}s)" for name, seconds in timings
    )
    (out_dir / "INDEX.txt").write_text(index + "\n")
    return timings
