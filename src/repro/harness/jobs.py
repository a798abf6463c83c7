"""Declarative experiment jobs and the sweep registry.

A :class:`JobSpec` names one independently executable cell of a paper
sweep — e.g. Figure 4's ("FB skewed", "DRing (su2)") cell at SMALL scale
with seed 0.  Specs are frozen, hashable and JSON-round-trippable; their
content-addressed :meth:`~JobSpec.key` folds in a fingerprint of the
source modules the experiment depends on, so the on-disk cache
invalidates itself when the simulator changes.

The module also hosts the experiment registry (name -> runner +
dependency list), the job-list builders that decompose each figure's
sweep into cells, and the assembly functions that fold per-cell results
back into the figure-level result objects the renderers expect.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.harness.fingerprint import module_fingerprint

if TYPE_CHECKING:  # runtime imports stay lazy inside the job runners
    from repro.core.network import Network
    from repro.experiments.fig6_scale import Fig6Config, ScalePoint
    from repro.experiments.runner import Scale
    from repro.traffic import CanonicalCluster

#: Params are canonicalized to sorted (key, value) tuples; values must be
#: JSON scalars so a spec serializes losslessly.
ParamItems = Tuple[Tuple[str, Any], ...]

_SCALAR_TYPES = (bool, int, float, str, type(None))


def _canonical_params(params: Dict[str, Any]) -> ParamItems:
    for key, value in params.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"job param {key!r} must be a JSON scalar, got "
                f"{type(value).__name__}"
            )
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class JobSpec:
    """One independently executable sweep cell."""

    experiment: str
    scale: str = ""
    scheme: str = ""
    pattern: str = ""
    seed: int = 0
    params: ParamItems = ()

    @classmethod
    def make(
        cls,
        experiment: str,
        scale: str = "",
        scheme: str = "",
        pattern: str = "",
        seed: int = 0,
        **params: Any,
    ) -> "JobSpec":
        return cls(
            experiment=experiment,
            scale=scale,
            scheme=scheme,
            pattern=pattern,
            seed=seed,
            params=_canonical_params(params),
        )

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "scheme": self.scheme,
            "pattern": self.pattern,
            "seed": self.seed,
            "params": [list(item) for item in self.params],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        return cls(
            experiment=payload["experiment"],
            scale=payload.get("scale", ""),
            scheme=payload.get("scheme", ""),
            pattern=payload.get("pattern", ""),
            seed=int(payload.get("seed", 0)),
            params=tuple(
                (key, value) for key, value in payload.get("params", [])
            ),
        )

    def key(self) -> str:
        """Content-addressed cache key: spec fields + code fingerprint."""
        experiment = experiment_by_name(self.experiment)
        material = json.dumps(
            {
                "spec": self.to_dict(),
                "code": module_fingerprint(experiment.deps),
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()[:24]

    def label(self) -> str:
        """A compact human-readable identity for progress lines."""
        parts = [self.experiment]
        if self.scale:
            parts.append(f"[{self.scale}]")
        for piece in (self.pattern, self.scheme):
            if piece:
                parts.append(piece)
        parts.append(f"seed={self.seed}")
        if self.params:
            parts.append(
                ",".join(f"{k}={v}" for k, v in self.params)
            )
        return " ".join(parts)


# ----------------------------------------------------------------------
# Experiment registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One runnable experiment kind: runner + fingerprinted dependencies."""

    name: str
    run: Callable[[JobSpec], Any]
    deps: Tuple[str, ...]


EXPERIMENT_REGISTRY: Dict[str, Experiment] = {}


def register_experiment(
    name: str, run: Callable[[JobSpec], Any], deps: Sequence[str]
) -> Experiment:
    """Register (or re-register) an experiment kind.

    ``run`` must return a JSON-serializable value — that value is what
    the cache persists and what the assembly functions consume.
    """
    experiment = Experiment(name=name, run=run, deps=tuple(deps))
    EXPERIMENT_REGISTRY[name] = experiment
    return experiment


def experiment_by_name(name: str) -> Experiment:
    try:
        return EXPERIMENT_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; know {sorted(EXPERIMENT_REGISTRY)}"
        ) from None


def execute_job(spec: JobSpec) -> Any:
    """Run one job to completion and return its JSON-serializable result."""
    return experiment_by_name(spec.experiment).run(spec)


# ----------------------------------------------------------------------
# Built-in experiments: per-cell runners
# ----------------------------------------------------------------------

#: Everything the flow-level figures transitively lean on.  Deliberately
#: broad: a stale cache is a correctness bug, an over-invalidated one
#: only costs a re-run.
_SIM_DEPS = (
    "repro.bgp",
    "repro.core",
    "repro.routing",
    "repro.sim",
    "repro.topology",
    "repro.traffic",
)


def _scale(spec: JobSpec) -> "Scale":
    from repro.experiments.runner import scale_by_name

    return scale_by_name(spec.scale)


def _read_params(spec: JobSpec, *names: str) -> Dict[str, Any]:
    """``spec``'s params, refusing any the runner does not read.

    A runner that reads its params through ``.get(name, default)`` would
    otherwise run a misspelt param at its default while caching the
    result under a key that names the param.
    """
    params = spec.params_dict()
    unread = sorted(set(params) - set(names))
    if unread:
        raise ValueError(
            f"{spec.experiment} jobs read only {list(names)}; "
            f"unread params {unread}"
        )
    return params


def _run_fig4_job(spec: JobSpec) -> Dict[str, Any]:
    from repro.experiments.fig4_fct import run_fig4_cell

    params = _read_params(spec, "utilization")
    results = run_fig4_cell(
        _scale(spec),
        pattern=spec.pattern,
        scheme=spec.scheme,
        seed=spec.seed,
        utilization=params.get("utilization", 0.30),
    )
    return results.to_json_dict()


def _run_fig5_job(spec: JobSpec) -> Dict[str, Any]:
    from repro.experiments.fig5_heatmap import run_fig5_cell

    params = _read_params(spec, "clients", "servers")
    return run_fig5_cell(
        _scale(spec),
        routing=spec.scheme,
        num_clients=int(params["clients"]),
        num_servers=int(params["servers"]),
        seed=spec.seed,
    )


def _run_fig6_job(spec: JobSpec) -> Dict[str, Any]:
    import dataclasses

    from repro.experiments.fig6_scale import Fig6Config, run_fig6_point

    fields = [f.name for f in dataclasses.fields(Fig6Config)]
    fields.remove("supernode_counts")
    params = _read_params(spec, "supernodes", *fields)
    supernodes = int(params.pop("supernodes"))
    config = Fig6Config(supernode_counts=(supernodes,), **params)
    point = run_fig6_point(config, supernodes, seed=spec.seed)
    return dataclasses.asdict(point)


def _ablation_network(
    spec: JobSpec,
) -> Tuple["Network", "CanonicalCluster"]:
    from repro.experiments.runner import build_topology
    from repro.traffic import CanonicalCluster

    scale = _scale(spec)
    racks = scale.dring_m * scale.dring_n
    network = build_topology("dring", scale)
    cluster = CanonicalCluster(racks, scale.dring_servers // racks)
    return network, cluster


def _run_ablation_k_job(spec: JobSpec) -> List[Dict[str, Any]]:
    import dataclasses

    from repro.experiments.ablations import run_k_sweep

    params = _read_params(spec, "k")
    network, cluster = _ablation_network(spec)
    k = int(params["k"])
    points = run_k_sweep(network, cluster, ks=(k,), seed=spec.seed)
    return [dataclasses.asdict(p) for p in points]


def _run_ablation_shape_job(spec: JobSpec) -> List[Dict[str, Any]]:
    import dataclasses

    from repro.experiments.ablations import run_dring_shape_sweep

    params = _read_params(spec, "m", "n")
    shape = (int(params["m"]), int(params["n"]))
    points = run_dring_shape_sweep(shapes=(shape,), seed=spec.seed)
    return [dataclasses.asdict(p) for p in points]


def _run_faults_job(spec: JobSpec) -> Dict[str, Any]:
    from repro.experiments.failure_sweep import run_failure_cell

    params = _read_params(
        spec, "kind", "fraction", "trial", "capacity_factor"
    )
    return run_failure_cell(
        _scale(spec),
        topology=spec.pattern,
        scheme=spec.scheme,
        kind=str(params["kind"]),
        fraction=float(params["fraction"]),
        trial=int(params["trial"]),
        seed=spec.seed,
        capacity_factor=float(params["capacity_factor"]),
    )


def _run_ml_job(spec: JobSpec) -> Dict[str, Any]:
    from repro.experiments.ml_sweep import run_ml_cell

    params = _read_params(spec, "policy", "placement_seed")
    # The placement seed rides in params; absent (hand-rolled specs) it
    # follows the job seed, so nothing is ever hard-coded to 0.
    return run_ml_cell(
        _scale(spec),
        topology=spec.pattern,
        scheme=spec.scheme,
        policy=str(params.get("policy", "compact")),
        placement_seed=int(params.get("placement_seed", spec.seed)),
        seed=spec.seed,
    )


def _run_selftest_job(spec: JobSpec) -> Dict[str, Any]:
    """A tiny built-in job for exercising the executor itself.

    Modes: ``ok`` returns immediately, ``raise`` fails with an
    exception, ``exit`` kills the worker process outright (simulating a
    native crash), ``sleep`` burns wall time to trip timeouts.
    """
    params = spec.params_dict()
    mode = params.get("mode", "ok")
    if mode == "raise":
        raise RuntimeError("selftest: deliberate failure")
    if mode == "exit":
        os._exit(17)
    if mode == "sleep":
        time.sleep(float(params.get("seconds", 60.0)))
    return {"echo": params.get("value", 0), "pid": os.getpid()}


#: What every built-in cell may execute: the simulator stack, every
#: experiment module (they share recipes and scales across modules), the
#: fault and IGP layers, and this module, which holds the runners and
#: their param defaults.  The same set ``cache-key-purity`` checks.
_CELL_DEPS = _SIM_DEPS + (
    "repro.experiments",
    "repro.faults",
    "repro.igp",
    "repro.harness.jobs",
)

register_experiment("fig4", _run_fig4_job, _CELL_DEPS)
register_experiment("fig5", _run_fig5_job, _CELL_DEPS)
register_experiment("fig6", _run_fig6_job, _CELL_DEPS)
register_experiment("ablation-k", _run_ablation_k_job, _CELL_DEPS)
register_experiment("ablation-shape", _run_ablation_shape_job, _CELL_DEPS)
register_experiment("faults", _run_faults_job, _CELL_DEPS)
register_experiment("ml", _run_ml_job, _CELL_DEPS)
register_experiment("selftest", _run_selftest_job, ("repro.harness.jobs",))


# ----------------------------------------------------------------------
# Job-list builders: one sweep -> many cells
# ----------------------------------------------------------------------


def fig4_jobs(
    scale: str,
    seed: int = 0,
    patterns: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
) -> List[JobSpec]:
    """The Figure 4 grid as one job per (pattern, scheme) cell."""
    from repro.experiments.fig4_fct import fig4_patterns
    from repro.experiments.runner import scale_by_name, scheme_labels

    resolved = scale_by_name(scale)
    if patterns is None:
        patterns = [p.label for p in fig4_patterns(resolved, seed=seed)]
    if schemes is None:
        schemes = scheme_labels()
    return [
        JobSpec.make(
            "fig4",
            scale=scale,
            scheme=scheme,
            pattern=pattern,
            seed=seed,
        )
        for pattern in patterns
        for scheme in schemes
    ]


#: Figure 5 panel name -> DRing routing label used in rendering.
FIG5_PANELS: Dict[str, str] = {"ecmp": "ecmp", "su2": "su(2)"}


def fig5_jobs(
    scale: str,
    seed: int = 0,
    values: Optional[Sequence[int]] = None,
) -> List[JobSpec]:
    """Both Figure 5 panels as one job per (routing, C, S) cell."""
    from repro.experiments.fig5_heatmap import fig5_sweep_values
    from repro.experiments.runner import scale_by_name

    if values is None:
        values = fig5_sweep_values(scale_by_name(scale))
    return [
        JobSpec.make(
            "fig5",
            scale=scale,
            scheme=routing,
            seed=seed,
            clients=int(c),
            servers=int(s),
        )
        for routing in FIG5_PANELS
        for c in values
        for s in values
    ]


def fig6_jobs(
    seed: int = 0, config: Optional["Fig6Config"] = None
) -> List[JobSpec]:
    """The Figure 6 scale sweep as one job per supernode count."""
    import dataclasses

    from repro.experiments.fig6_scale import Fig6Config

    if config is None:
        config = Fig6Config()
    base = dataclasses.asdict(config)
    base.pop("supernode_counts")
    return [
        JobSpec.make("fig6", seed=seed, supernodes=int(m), **base)
        for m in config.supernode_counts
    ]


def robustness_jobs(
    scale: str, seeds: Sequence[int] = (0, 1, 2, 3, 4)
) -> List[JobSpec]:
    """The cells the seed-robustness scorecard reads, for every seed.

    They are ordinary fig4 and fig5 cells: a fig4 sweep at the same seed
    has already cached 11 of each seed's 12.
    """
    from repro.experiments.robustness import FIG4_CELLS, FIG5_CELL

    routing, clients, servers = FIG5_CELL
    jobs: List[JobSpec] = []
    for seed in seeds:
        for pattern, schemes in FIG4_CELLS.items():
            jobs += fig4_jobs(scale, seed, patterns=[pattern], schemes=schemes)
        jobs.append(
            JobSpec.make(
                "fig5", scale=scale, scheme=routing, seed=seed,
                clients=clients, servers=servers,
            )
        )
    return jobs


def ablation_jobs(
    scale: str,
    seed: int = 0,
    ks: Sequence[int] = (1, 2, 3),
    shapes: Sequence[Tuple[int, int]] = ((12, 2), (8, 3), (6, 4)),
) -> List[JobSpec]:
    """The K-sweep and DRing-shape ablations as independent cells."""
    jobs = [
        JobSpec.make("ablation-k", scale=scale, seed=seed, k=int(k))
        for k in ks
    ]
    jobs += [
        JobSpec.make(
            "ablation-shape", scale=scale, seed=seed, m=int(m), n=int(n)
        )
        for m, n in shapes
    ]
    return jobs


def faults_jobs(
    scale: str,
    seed: int = 0,
    topologies: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
    fractions: Optional[Sequence[float]] = None,
    trials: int = 2,
    capacity_factor: Optional[float] = None,
) -> List[JobSpec]:
    """The failure-resilience sweep as one job per scenario cell.

    Topology lands in ``pattern`` and the routing scheme in ``scheme``
    (the JobSpec's scalar-only fields); fault kind, failed fraction,
    trial index and gray capacity ride along as params.
    """
    from repro.experiments.failure_sweep import (
        DEFAULT_FRACTIONS,
        FAULT_SCHEMES,
        FAULT_TOPOLOGIES,
    )
    from repro.faults import DEFAULT_GRAY_CAPACITY

    if topologies is None:
        topologies = FAULT_TOPOLOGIES
    if schemes is None:
        schemes = FAULT_SCHEMES
    if kinds is None:
        kinds = ("link",)
    if fractions is None:
        fractions = DEFAULT_FRACTIONS
    if capacity_factor is None:
        capacity_factor = DEFAULT_GRAY_CAPACITY
    return [
        JobSpec.make(
            "faults",
            scale=scale,
            scheme=scheme,
            pattern=topology,
            seed=seed,
            kind=str(kind),
            fraction=float(fraction),
            trial=int(trial),
            capacity_factor=float(capacity_factor),
        )
        for topology in topologies
        for scheme in schemes
        for kind in kinds
        for fraction in fractions
        for trial in range(trials)
    ]


def ml_jobs(
    scale: str,
    seed: int = 0,
    topologies: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    placement_seeds: Optional[Sequence[int]] = None,
) -> List[JobSpec]:
    """The ML collective sweep as one job per cell.

    Topology lands in ``pattern`` and the routing scheme in ``scheme``
    (mirroring the faults sweep); placement policy and placement seed
    ride along as params.  Placement seeds default to two draws derived
    from the run seed — never a hard-coded constant — so ``--seed``
    reseeds the whole sweep.
    """
    from repro.experiments.ml_sweep import ML_POLICIES, ML_TOPOLOGIES

    if topologies is None:
        topologies = ML_TOPOLOGIES
    if schemes is None:
        schemes = ("ecmp", "su2")
    if policies is None:
        policies = ML_POLICIES
    if placement_seeds is None:
        placement_seeds = (seed, seed + 1)
    return [
        JobSpec.make(
            "ml",
            scale=scale,
            scheme=scheme,
            pattern=topology,
            seed=seed,
            policy=str(policy),
            placement_seed=int(placement_seed),
        )
        for topology in topologies
        for scheme in schemes
        for policy in policies
        for placement_seed in placement_seeds
    ]


#: Sweep names accepted by ``repro sweep --experiment``.
SWEEPS: Tuple[str, ...] = (
    "fig4", "fig5", "fig6", "robustness", "ablations", "faults", "ml"
)


def sweep_jobs(
    experiments: Sequence[str], scale: str, seed: int = 0
) -> List[JobSpec]:
    """The combined job list for ``repro sweep``."""
    jobs: List[JobSpec] = []
    for name in experiments:
        if name == "fig4":
            jobs += fig4_jobs(scale, seed=seed)
        elif name == "fig5":
            jobs += fig5_jobs(scale, seed=seed)
        elif name == "fig6":
            jobs += fig6_jobs(seed=seed)
        elif name == "robustness":
            jobs += robustness_jobs(scale)
        elif name == "ablations":
            jobs += ablation_jobs(scale, seed=seed)
        elif name == "faults":
            jobs += faults_jobs(scale, seed=seed)
        elif name == "ml":
            jobs += ml_jobs(scale, seed=seed)
        else:
            raise KeyError(f"unknown sweep {name!r}; know {list(SWEEPS)}")
    return jobs


# ----------------------------------------------------------------------
# Assembly: per-cell results -> figure-level result objects.  Each
# assembler takes the specs of its own sweep only: robustness's cells
# are fig4 and fig5 cells at other seeds and coordinates.
# ----------------------------------------------------------------------


def _present(
    specs: Iterable[JobSpec], results: Dict[str, Any]
) -> List[Tuple[JobSpec, Any]]:
    """(spec, result) for every cell that actually produced a result."""
    pairs = []
    for spec in specs:
        key = spec.key()
        if key in results:
            pairs.append((spec, results[key]))
    return pairs


def assemble_fig4(specs: Sequence[JobSpec], results: Dict[str, Any]) -> Any:
    """Fold fig4 cell payloads into a :class:`Fig4Result`."""
    from repro.experiments.fig4_fct import fig4_result_from_cells
    from repro.sim.results import FctResults

    cells = {
        (spec.pattern, spec.scheme): FctResults.from_json_dict(payload)
        for spec, payload in _present(specs, results)
    }
    patterns = list(dict.fromkeys(s.pattern for s in specs))
    schemes = list(dict.fromkeys(s.scheme for s in specs))
    return fig4_result_from_cells(cells, patterns, schemes)


def assemble_fig5(
    specs: Sequence[JobSpec], results: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold fig5 cell payloads into ``{"ecmp": ..., "su2": ...}`` panels."""
    from repro.experiments.fig5_heatmap import heatmap_from_cells

    panels: Dict[str, Any] = {}
    for routing, label in FIG5_PANELS.items():
        panel_specs = [s for s in specs if s.scheme == routing]
        if not panel_specs:
            continue
        values = sorted(
            {int(s.params_dict()["clients"]) for s in panel_specs}
            | {int(s.params_dict()["servers"]) for s in panel_specs}
        )
        cells = {
            (
                int(spec.params_dict()["clients"]),
                int(spec.params_dict()["servers"]),
            ): payload
            for spec, payload in _present(panel_specs, results)
        }
        panels[routing] = heatmap_from_cells(values, values, label, cells)
    return panels


def assemble_fig6(
    specs: Sequence[JobSpec], results: Dict[str, Any]
) -> List["ScalePoint"]:
    """Fold fig6 cell payloads into the ordered ``ScalePoint`` list."""
    from repro.experiments.fig6_scale import ScalePoint

    points = [ScalePoint(**payload) for _s, payload in _present(specs, results)]
    return sorted(points, key=lambda p: p.supernodes)


def assemble_faults(
    specs: Sequence[JobSpec], results: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Collect the faults sweep's per-cell records, in spec order."""
    return [payload for _spec, payload in _present(specs, results)]


def assemble_ml(
    specs: Sequence[JobSpec], results: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Collect the ML sweep's per-cell records, in spec order."""
    return [payload for _spec, payload in _present(specs, results)]


def assemble_robustness(
    specs: Sequence[JobSpec], results: Dict[str, Any]
) -> Any:
    """Evaluate the scorecard's claims per seed from its fig4/fig5 cells.

    A seed with a failed cell is left out, so it shrinks the scorecard's
    denominator.
    """
    from repro.experiments.robustness import robustness_from_cells, seed_claims
    from repro.sim.results import FctResults

    p99: Dict[int, Dict[Tuple[str, str], float]] = {}
    cs: Dict[int, Dict[str, float]] = {}
    for spec, payload in _present(specs, results):
        if spec.experiment == "fig4":
            p99.setdefault(spec.seed, {})[spec.pattern, spec.scheme] = (
                FctResults.from_json_dict(payload).p99_fct_ms()
            )
        else:
            cs[spec.seed] = payload
    failed = {spec.seed for spec in specs if spec.key() not in results}
    return robustness_from_cells([
        seed_claims(p99[seed], cs[seed])
        for seed in dict.fromkeys(spec.seed for spec in specs)
        if seed not in failed
    ])
