"""Shared experiment infrastructure: scales, recipes, topology suites.

Every experiment runs at a configurable :class:`Scale`.  ``SMALL`` is the
default for tests and benchmarks (seconds on a laptop); ``PAPER`` matches
Section 5.1's instances (leaf-spine(48,16) with 3072 servers, the 80-rack
DRing with 2988 servers) for full-fidelity runs.

The topology suite mirrors the paper's Figure 4 legend: leaf-spine with
ECMP, and DRing/RRG each with ECMP and Shortest-Union(2).  The legend is
a declarative registry (:data:`SCHEME_REGISTRY`), so the suite builder,
``scheme_labels`` and the sweep harness all share one source of truth,
and a single (topology, routing) cell can be built independently with
:func:`build_scheme` — the unit of work for ``repro.harness`` jobs.

Every named instance comes from one recipe: :func:`build_topology` maps
a topology name and a :class:`Scale` to a network, :func:`build_routing`
a routing name to a scheme.  The CLI, the suite and the sweeps call
them, and each sweep only checks which names its axes accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.network import Network
from repro.routing import (
    CoarseAdaptiveRouting,
    EcmpRouting,
    RoutingScheme,
    ShortestUnionRouting,
)
from repro.topology import (
    dragonfly,
    dring,
    fat_tree,
    flatten,
    leaf_spine,
    slimfly,
    xpander,
)
from repro.traffic import CanonicalCluster, Placement


@dataclass(frozen=True)
class Scale:
    """One experiment size: topology parameters + workload knobs."""

    name: str
    leaf_x: int
    leaf_y: int
    dring_m: int
    dring_n: int
    dring_servers: int
    max_flows: int
    window_seconds: float
    #: Truncation for Pareto sizes, keeps quick runs from being dominated
    #: by one elephant; None reproduces the unbounded paper workload.
    size_cap_bytes: float

    @property
    def cluster(self) -> CanonicalCluster:
        """Canonical authoring space = the leaf-spine's racks/servers."""
        return CanonicalCluster(
            num_racks=self.leaf_x + self.leaf_y,
            servers_per_rack=self.leaf_x,
        )


#: Default scale: 16-rack leaf-spine(12,4), 24-rack DRing, 192 servers.
SMALL = Scale(
    name="small",
    leaf_x=12,
    leaf_y=4,
    dring_m=12,
    dring_n=2,
    dring_servers=192,
    max_flows=1500,
    window_seconds=0.04,
    size_cap_bytes=10e6,
)

#: An intermediate scale for longer local runs.
MEDIUM = Scale(
    name="medium",
    leaf_x=24,
    leaf_y=8,
    dring_m=10,
    dring_n=4,
    dring_servers=768,
    max_flows=4000,
    window_seconds=0.04,
    size_cap_bytes=10e6,
)

#: The paper's Section 5.1 configuration.
PAPER = Scale(
    name="paper",
    leaf_x=48,
    leaf_y=16,
    dring_m=16,
    dring_n=5,
    dring_servers=2988,
    max_flows=20000,
    window_seconds=0.05,
    size_cap_bytes=100e6,
)


#: Named scales; harness jobs reference scales by name so a JobSpec stays
#: a plain record.  Extend with :func:`register_scale` (tests register
#: their TINY variants here so sweep jobs can resolve them).
SCALES: Dict[str, Scale] = {s.name: s for s in (SMALL, MEDIUM, PAPER)}


def register_scale(scale: Scale) -> Scale:
    """Make a custom scale resolvable by name (idempotent)."""
    existing = SCALES.get(scale.name)
    if existing is not None and existing != scale:
        raise ValueError(f"scale {scale.name!r} already registered differently")
    SCALES[scale.name] = scale
    return scale


def scale_by_name(name: str) -> Scale:
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; know {sorted(SCALES)}"
        ) from None


@dataclass
class TopologyUnderTest:
    """One (topology, routing) combination of the Figure 4 legend."""

    label: str
    network: Network
    routing: RoutingScheme
    placement_factory: Callable[[bool, int], Placement]

    def placement(self, shuffle: bool = False, seed: int = 0) -> Placement:
        return self.placement_factory(shuffle, seed)


@dataclass(frozen=True)
class SchemeSpec:
    """One legend entry: which topology, which routing, core or extra."""

    label: str
    topology: str  # "leaf-spine" | "dring" | "rrg"
    routing: str  # "ecmp" | "su2"
    #: Core schemes survive ``include_ecmp_flats=False``.
    core: bool = True


#: The Figure 4 legend, in paper order.  Single source of truth shared by
#: ``build_suite``, ``scheme_labels`` and the harness job registry.
SCHEME_REGISTRY: Dict[str, SchemeSpec] = {
    spec.label: spec
    for spec in (
        SchemeSpec("leaf-spine (ecmp)", "leaf-spine", "ecmp", core=True),
        SchemeSpec("DRing (su2)", "dring", "su2", core=True),
        SchemeSpec("RRG (su2)", "rrg", "su2", core=True),
        SchemeSpec("DRing (ecmp)", "dring", "ecmp", core=False),
        SchemeSpec("RRG (ecmp)", "rrg", "ecmp", core=False),
    )
}


#: Topology names :func:`build_topology` knows, in CLI choice order.
TOPOLOGIES: Tuple[str, ...] = (
    "dring",
    "rrg",
    "leaf-spine",
    "xpander",
    "slimfly",
    "dragonfly",
    "fat-tree",
)


def build_topology(kind: str, scale: Scale, seed: int = 0) -> Network:
    """The named topology at ``scale``: the one recipe every caller uses.

    The CLI, the Figure 4 legend, Figure 5 and the fault and ML sweeps
    all build their instances here, so a comparison across them compares
    the same networks.  ``seed`` only reaches the randomized families
    (RRG, Xpander).
    """
    if kind == "leaf-spine":
        return leaf_spine(scale.leaf_x, scale.leaf_y)
    if kind == "dring":
        return dring(
            scale.dring_m, scale.dring_n, total_servers=scale.dring_servers
        )
    if kind == "rrg":
        return flatten(
            leaf_spine(scale.leaf_x, scale.leaf_y), seed=seed, name="rrg"
        )
    # The Section 7 families come in fixed admissible sizes; pick small
    # instances in the same band as the SMALL scale.
    if kind == "xpander":
        return xpander(7, 4, servers_per_rack=scale.leaf_x // 2, seed=seed)
    if kind == "slimfly":
        return slimfly(5, servers_per_rack=scale.leaf_x // 2)
    if kind == "dragonfly":
        return dragonfly(4, 2, servers_per_rack=scale.leaf_x // 2)
    if kind == "fat-tree":
        return fat_tree(8)
    raise ValueError(f"unknown topology {kind!r}")


def build_routing(kind: str, network: Network) -> RoutingScheme:
    """The named routing scheme on ``network``: ECMP, SU(2) or adaptive."""
    if kind == "ecmp":
        return EcmpRouting(network)
    if kind == "su2":
        return ShortestUnionRouting(network, 2)
    if kind == "adaptive":
        return CoarseAdaptiveRouting(network)
    raise ValueError(f"unknown routing {kind!r}")


def build_scheme(
    label: str,
    scale: Scale,
    seed: int = 0,
    _topology_cache: Optional[Dict[str, Network]] = None,
) -> TopologyUnderTest:
    """Build a single legend cell — the unit of work for harness jobs."""
    try:
        spec = SCHEME_REGISTRY[label]
    except KeyError:
        raise KeyError(
            f"unknown scheme {label!r}; know {list(SCHEME_REGISTRY)}"
        ) from None
    cache: Dict[str, Network] = (
        {} if _topology_cache is None else _topology_cache
    )
    if spec.topology not in cache:
        cache[spec.topology] = build_topology(spec.topology, scale, seed)
    network = cache[spec.topology]
    cluster = scale.cluster

    def placement(shuffle: bool, pseed: int) -> Placement:
        return Placement(cluster, network, shuffle=shuffle, seed=pseed)

    return TopologyUnderTest(
        label, network, build_routing(spec.routing, network), placement
    )


def build_suite(
    scale: Scale, seed: int = 0, include_ecmp_flats: bool = True
) -> List[TopologyUnderTest]:
    """The five-scheme suite of Figure 4 at the requested scale.

    Topologies are shared across legend entries (the DRing under ECMP is
    the same object as the DRing under SU(2)).
    """
    topology_cache: Dict[str, Network] = {}
    return [
        build_scheme(label, scale, seed=seed, _topology_cache=topology_cache)
        for label in scheme_labels(include_ecmp_flats)
    ]


def scheme_labels(include_ecmp_flats: bool = True) -> List[str]:
    return [
        spec.label
        for spec in SCHEME_REGISTRY.values()
        if spec.core or include_ecmp_flats
    ]
