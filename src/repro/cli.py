"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main workflows without writing any Python:

* ``summarize``        — structural comparison of the topology suite
* ``udf``              — the Section 3.1 UDF table
* ``fig4``             — Figure 4 FCT tables
* ``fig5``             — Figure 5 C-S heatmaps
* ``fig6``             — Figure 6 scale sweep
* ``sweep``            — cached parallel sweeps over the paper figures
* ``ml``               — ML collective sweep: per-job iteration time
* ``cache``            — inspect / prune / clear the sweep result cache
* ``serve``            — run the simulation-as-a-service HTTP server
* ``submit``           — submit one cell to a running server
* ``status``           — job states (and event streams) from a server
* ``results``          — the server's cached-result inventory
* ``leaderboard``      — ranked cells, from a server or a local cache
* ``microburst``       — the Section 3 microburst study
* ``other-topologies`` — the Section 7 Slim Fly / Dragonfly comparison
* ``verify``           — exhaustive Theorem 1 / path-set verification
* ``lint``             — domain-aware static analysis (see repro.lint)
* ``configs``          — emit per-router Cisco or FRR configurations

``fig4``, ``fig6``, ``sweep``, ``faults`` and ``ml`` run their cells
through the ``repro.harness`` orchestrator: ``--jobs N`` worker
processes, results memoized in a content-addressed on-disk cache
(``--cache-dir``, or none with ``--no-cache``), so re-rendering a figure
is incremental.  ``fig5`` joins them only when given one of those flags.
Harness telemetry goes to stderr; stdout carries only the tables.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any, Dict, List, Optional

from repro.experiments.runner import SCALES, TOPOLOGIES, build_topology


def _scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="experiment size (default: small)",
    )


def _harness_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run cells in N worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: ~/.cache/repro or "
        "$REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run through the harness without reading or writing the cache",
    )


def _cache_for(args: argparse.Namespace):
    from repro.harness import ResultCache

    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return ResultCache(pathlib.Path(args.cache_dir))
    return ResultCache.default()


def _run_harness(args: argparse.Namespace, specs, sweep: str):
    """Run a job list with CLI-configured workers/cache; report to stderr.

    Returns the results-by-key map; stdout is reserved for the rendered
    artifacts so harness runs stay byte-identical to the serial path.
    """
    from repro.harness import ProgressPrinter, RunManifest, clock, run_jobs

    cache = _cache_for(args)
    workers = args.jobs if args.jobs is not None else 1
    timeout = getattr(args, "timeout", None)
    started = clock.now()
    t0 = clock.perf()
    results, outcomes = run_jobs(
        specs,
        jobs=workers,
        cache=cache,
        timeout=timeout,
        progress=ProgressPrinter(),
    )
    manifest = RunManifest.from_outcomes(
        outcomes,
        sweep=sweep,
        wall_seconds=clock.perf() - t0,
        scale=getattr(args, "scale", ""),
        seed=getattr(args, "seed", 0),
        workers=workers,
        cache_dir=str(cache.root) if cache is not None else "",
        started_at=started,
    )
    print(manifest.render(), file=sys.stderr)
    trace_totals = manifest.sim_trace_totals
    if trace_totals:
        counters = trace_totals.get("counters", {})
        timers = trace_totals.get("timers", {})
        parts = [f"{name}={value}" for name, value in counters.items()]
        parts += [f"{name}={seconds:.2f}s" for name, seconds in timers.items()]
        print("  engine: " + " ".join(parts), file=sys.stderr)
    manifest_out = getattr(args, "manifest_out", None)
    if manifest_out:
        path = manifest.save(pathlib.Path(manifest_out))
        print(f"manifest written to {path}", file=sys.stderr)
    elif cache is not None:
        path = manifest.save(
            cache.root / "manifests" / f"{sweep}-{int(started)}.json"
        )
        print(f"manifest written to {path}", file=sys.stderr)
    return results


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------


def cmd_summarize(args: argparse.Namespace) -> int:
    from repro.core import summarize, summary_table

    scale = SCALES[args.scale]
    networks = [
        build_topology(kind, scale, seed=args.seed)
        for kind in ("leaf-spine", "rrg", "dring")
    ]
    print(summary_table([summarize(net) for net in networks]))
    return 0


def cmd_udf(args: argparse.Namespace) -> int:
    from repro.experiments import render_udf_table, run_udf_table

    print(render_udf_table(run_udf_table()))
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    from repro.harness import assemble_fig4, fig4_jobs

    specs = fig4_jobs(args.scale, seed=args.seed)
    result = assemble_fig4(specs, _run_harness(args, specs, "fig4"))
    print(result.median_table())
    print()
    print(result.p99_table())
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    # Figure 5 keeps its in-process grid unless harness flags are given:
    # a panel's 16 cells share one routing's edge-fraction cache, which
    # per-cell jobs would each rebuild.
    if args.jobs is not None or args.cache_dir is not None or args.no_cache:
        from repro.harness import assemble_fig5, fig5_jobs

        specs = fig5_jobs(args.scale, seed=args.seed)
        panels = assemble_fig5(specs, _run_harness(args, specs, "fig5"))
    else:
        from repro.experiments import run_fig5

        panels = run_fig5(SCALES[args.scale], seed=args.seed)
    for key in ("ecmp", "su2"):
        print(panels[key].render())
        print()
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments import render_fig6
    from repro.harness import assemble_fig6, fig6_jobs

    specs = fig6_jobs(seed=args.seed)
    points = assemble_fig6(specs, _run_harness(args, specs, "fig6"))
    print(render_fig6(points))
    return 0


def _render_ablation_results(specs, results) -> str:
    """Text tables for the K-sweep and shape-sweep ablation cells."""
    lines: List[str] = []
    k_rows = []
    shape_rows = []
    for spec in specs:
        payload = results.get(spec.key())
        if payload is None:
            continue
        if spec.experiment == "ablation-k":
            k_rows.extend(payload)
        elif spec.experiment == "ablation-shape":
            shape_rows.extend(payload)
    if k_rows:
        lines.append("Shortest-Union(K) sweep")
        lines.append(
            f"{'k':>3}{'pattern':>10}{'median ms':>12}{'p99 ms':>10}"
            f"{'paths':>8}"
        )
        for row in k_rows:
            lines.append(
                f"{row['k']:>3}{row['pattern']:>10}{row['median_ms']:>12.4f}"
                f"{row['p99_ms']:>10.4f}{row['mean_paths']:>8.2f}"
            )
    if shape_rows:
        if lines:
            lines.append("")
        lines.append("DRing shape sweep (fixed rack budget)")
        lines.append(
            f"{'m':>3}{'n':>3}{'racks':>7}{'degree':>8}{'diam':>6}"
            f"{'p99 ms':>10}"
        )
        for row in shape_rows:
            lines.append(
                f"{row['m']:>3}{row['n']:>3}{row['racks']:>7}"
                f"{row['network_degree']:>8}{row['diameter']:>6}"
                f"{row['p99_ms']:>10.4f}"
            )
    return "\n".join(lines)


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import (
        render_failure_sweep,
        render_fig6,
        render_ml_sweep,
        render_robustness,
    )
    from repro.harness import (
        assemble_faults,
        assemble_fig4,
        assemble_fig5,
        assemble_fig6,
        assemble_ml,
        assemble_robustness,
        sweep_jobs,
    )

    # Each assembler reads only its own sweep's specs.
    sweeps = [
        (name, sweep_jobs([name], args.scale, seed=args.seed))
        for name in args.experiment
    ]
    specs = [spec for _name, own in sweeps for spec in own]
    results = _run_harness(args, specs, "+".join(args.experiment))
    for name, own in sweeps:
        if name == "fig4":
            fig4 = assemble_fig4(own, results)
            print(fig4.median_table())
            print()
            print(fig4.p99_table())
        elif name == "fig5":
            panels = assemble_fig5(own, results)
            for key in ("ecmp", "su2"):
                if key in panels:
                    print(panels[key].render())
        elif name == "fig6":
            print(render_fig6(assemble_fig6(own, results)))
        elif name == "robustness":
            print(render_robustness(assemble_robustness(own, results)))
        elif name == "ablations":
            print(_render_ablation_results(own, results))
        elif name == "faults":
            print(render_failure_sweep(assemble_faults(own, results)))
        elif name == "ml":
            print(render_ml_sweep(assemble_ml(own, results)))
        print()
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments import render_failure_sweep, render_hot_links
    from repro.harness import assemble_faults, faults_jobs

    specs = faults_jobs(
        args.scale,
        seed=args.seed,
        topologies=args.topology,
        schemes=args.scheme,
        kinds=args.kind,
        fractions=args.fractions,
        trials=args.trials,
        capacity_factor=args.gray_capacity_fraction,
    )
    # Always route through the harness: every scenario cell is cached
    # and crash-isolated, so reruns and wider sweeps are incremental.
    cells = assemble_faults(specs, _run_harness(args, specs, "faults"))
    print(render_failure_sweep(cells))
    hot = render_hot_links(cells)
    if hot:
        print()
        print(hot)
    return 0


def cmd_ml(args: argparse.Namespace) -> int:
    from repro.experiments import render_ml_sweep
    from repro.harness import assemble_ml, ml_jobs

    placement_seeds = args.placement_seeds
    if placement_seeds is None:
        # Derived from --seed, mirroring the rrg/xpander seed threading:
        # reseeding the run reseeds every placement draw too.
        placement_seeds = [args.seed, args.seed + 1]
    specs = ml_jobs(
        args.scale,
        seed=args.seed,
        topologies=args.topology,
        schemes=args.scheme,
        policies=args.policy,
        placement_seeds=placement_seeds,
    )
    # Always route through the harness: every collective cell is cached
    # and crash-isolated, so reruns and wider sweeps are incremental.
    cells = assemble_ml(specs, _run_harness(args, specs, "ml"))
    print(render_ml_sweep(cells))
    return 0


def _format_age(seconds: float) -> str:
    """Compact human age: 42s, 3.5m, 2.1h, 4.0d."""
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness import ResultCache

    root = (
        pathlib.Path(args.cache_dir)
        if args.cache_dir is not None
        else ResultCache.default_root()
    )
    cache = ResultCache(root)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {root}")
        return 0
    if args.action == "prune":
        if args.max_bytes is None:
            print("cache prune requires --max-bytes", file=sys.stderr)
            return 2
        from repro.service.store import ServiceStore

        store = ServiceStore(root)
        before = store.total_bytes()
        evicted = store.prune(args.max_bytes)
        print(
            f"pruned {len(evicted)} entries ({before} -> "
            f"{store.total_bytes()} bytes, budget {args.max_bytes})"
        )
        for key in evicted:
            print(f"  evicted {key}")
        return 0
    entries = list(cache.entries())
    if not entries:
        print(f"cache at {root} is empty")
        return 0
    total_bytes = sum(e["bytes"] for e in entries)
    print(
        f"cache at {root}: {len(entries)} results, "
        f"{total_bytes} bytes total"
    )
    for entry in entries:
        print(
            f"  {entry['key']}  {entry['label']:<48} "
            f"{entry['elapsed_seconds']:>7.2f}s  {entry['bytes']:>9}B  "
            f"age {_format_age(entry['age_seconds']):>6}"
        )
    return 0


# ----------------------------------------------------------------------
# Service commands (repro serve / submit / status / results / leaderboard)
# ----------------------------------------------------------------------

DEFAULT_SERVICE_URL = "http://127.0.0.1:8277"


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.server)


def _print_event(event: dict) -> None:
    parts = [f"[{event['seq']}] {event['kind']}"]
    outcome = event.get("outcome")
    if outcome:
        parts.append(f"status={outcome['status']}")
        trace = outcome.get("sim_trace") or {}
        counters = trace.get("counters", {})
        if counters:
            parts.append(
                "engine: "
                + " ".join(f"{k}={v}" for k, v in counters.items())
            )
    if event.get("error"):
        parts.append(f"error={event['error']}")
    print("  " + " ".join(parts))


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.harness import ResultCache
    from repro.service import JobManager, ServiceStore, create_server

    root = (
        pathlib.Path(args.cache_dir)
        if args.cache_dir is not None
        else ResultCache.default_root()
    )
    store = ServiceStore(root, max_bytes=args.max_bytes)
    manager = JobManager(
        store,
        workers=args.workers,
        queue_limit=args.queue_limit,
        job_timeout=args.timeout,
    ).start()
    server = create_server(
        args.host, args.port, manager, store, quiet=args.quiet
    )
    print(
        f"repro service on {server.url} "
        f"(store {root}, {args.workers} workers)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("shutting down", file=sys.stderr)
        manager.shutdown()
        server.server_close()
    return 0


def _parse_param(raw: str):
    key, sep, value = raw.partition("=")
    if not sep or not key:
        raise ValueError(f"--param wants KEY=VALUE, got {raw!r}")
    lowered = value.lower()
    if lowered in ("true", "false"):
        return key, lowered == "true"
    for cast in (int, float):
        try:
            return key, cast(value)
        except ValueError:
            continue
    return key, value


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceError

    submission: dict = {"experiment": args.experiment, "seed": args.seed}
    if args.scale:
        submission["scale"] = args.scale
    if args.scheme:
        submission["scheme"] = args.scheme
    if args.pattern:
        submission["pattern"] = args.pattern
    if args.param:
        try:
            submission["params"] = dict(
                _parse_param(raw) for raw in args.param
            )
        except ValueError as exc:
            print(f"submit: {exc}", file=sys.stderr)
            return 2
    client = _service_client(args)
    try:
        job = client.submit(submission)
        print(f"{job['id']} {job['state']} key={job['key']}")
        if not args.wait:
            return 0
        final = client.wait(job["id"], on_event=_print_event)
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    print(f"{final['id']} {final['state']}"
          + (f" — {final['error']}" if final["error"] else ""))
    return 0 if final["state"] == "done" else 1


def cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        if args.job_id:
            job = client.job(args.job_id)
            print(
                f"{job['id']} {job['state']} {job['label']} "
                f"key={job['key']}"
                + (" (cache hit)" if job["cache_hit"] else "")
                + (f" — {job['error']}" if job["error"] else "")
            )
            if args.events:
                for event in client.events(args.job_id)["events"]:
                    _print_event(event)
            return 0
        jobs = client.jobs()
    except ServiceError as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 1
    if not jobs:
        print("no jobs submitted yet")
        return 0
    for job in jobs:
        print(f"{job['id']}  {job['state']:<10} {job['label']}")
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    from repro.service import ServiceError

    try:
        inventory = _service_client(args).results()
    except ServiceError as exc:
        print(f"results: {exc}", file=sys.stderr)
        return 1
    budget = inventory.get("max_bytes")
    print(
        f"{inventory['count']} cached results, "
        f"{inventory['total_bytes']} bytes"
        + (f" (budget {budget})" if budget else "")
    )
    for entry in inventory["results"]:
        print(
            f"  {entry['key']}  {entry['label']:<48} "
            f"{entry['bytes']:>9}B"
        )
    return 0


def cmd_leaderboard(args: argparse.Namespace) -> int:
    from repro.service import ServiceError, render_leaderboard

    if args.cache_dir is not None:
        from repro.service import ServiceStore, build_leaderboard

        rows = build_leaderboard(
            ServiceStore(pathlib.Path(args.cache_dir)),
            metric=args.metric,
            limit=args.limit,
        )
    else:
        try:
            board = _service_client(args).leaderboard(
                metric=args.metric, limit=args.limit
            )
        except ServiceError as exc:
            print(f"leaderboard: {exc}", file=sys.stderr)
            return 1
        rows = board["rows"]
    print(render_leaderboard(rows, metric=args.metric))
    return 0


def cmd_microburst(args: argparse.Namespace) -> int:
    from repro.experiments import render_microburst, run_microburst

    print(render_microburst(run_microburst(SCALES[args.scale], seed=args.seed)))
    return 0


def cmd_other_topologies(args: argparse.Namespace) -> int:
    from repro.experiments import (
        render_other_topologies,
        run_other_topologies,
    )

    print(render_other_topologies(run_other_topologies(seed=args.seed)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.bgp import verify_fabric

    network = build_topology(args.topology, SCALES[args.scale], seed=args.seed)
    stats = verify_fabric(network, args.k)
    print(
        f"{network.name}: Theorem 1 and Shortest-Union({args.k}) verified "
        f"over {stats['pairs']} rack pairs "
        f"({stats['rounds']} BGP rounds, {stats['updates']} updates)"
    )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.core.export import to_dot, to_json

    network = build_topology(args.topology, SCALES[args.scale], seed=args.seed)
    text = to_dot(network) if args.format == "dot" else to_json(network)
    if args.out == "-":
        print(text)
    else:
        pathlib.Path(args.out).write_text(text + "\n")
        print(f"wrote {network.name} as {args.format} to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    timings = generate_report(
        pathlib.Path(args.out),
        scale=SCALES[args.scale],
        seed=args.seed,
        only=args.only,
    )
    total = sum(seconds for _name, seconds in timings)
    for name, seconds in timings:
        print(f"  {name:<24} {seconds:6.1f}s")
    print(f"wrote {len(timings)} artifacts to {args.out} in {total:.1f}s")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import RULE_REGISTRY, all_rules, lint_paths
    from repro.lint import render_json, render_text
    from repro.lint.flow import FLOW_REGISTRY, all_flow_rules
    from repro.lint.flow.registry import ENGINE_SECTIONS

    if args.list_rules:
        # One registry walk covers every engine: AST rules file under
        # "ast", deep rules under their own engine tag, and any tag
        # missing from ENGINE_SECTIONS gets an untitled trailing
        # section instead of being silently dropped.
        by_engine: Dict[str, List[Any]] = {"ast": list(all_rules())}
        for flow_rule in all_flow_rules():
            by_engine.setdefault(flow_rule.engine, []).append(flow_rule)
        titles = dict(ENGINE_SECTIONS)
        order = [engine for engine, _title in ENGINE_SECTIONS]
        order += sorted(set(by_engine) - set(titles))
        first = True
        for engine in order:
            rules = by_engine.get(engine, [])
            if not rules:
                continue
            if not first:
                print()
            first = False
            title = titles.get(engine, "unregistered engine [deep]")
            print(f"{engine} — {title}")
            for rule in rules:
                print(f"  {rule.name:<28} {rule.summary}")
        return 0
    paths = args.paths or [
        p for p in ("src", "tests") if pathlib.Path(p).exists()
    ]
    if not paths:
        print("lint: no paths given and no src/tests here", file=sys.stderr)
        return 2

    file_rules = args.rule
    deep_rules = None
    if args.rule is not None:
        all_flow_rules()  # populate FLOW_REGISTRY
        unknown = [
            n for n in args.rule
            if n not in RULE_REGISTRY and n not in FLOW_REGISTRY
        ]
        if unknown:
            print(f"lint: unknown rule '{unknown[0]}'", file=sys.stderr)
            return 2
        file_rules = [n for n in args.rule if n in RULE_REGISTRY]
        deep_rules = [n for n in args.rule if n in FLOW_REGISTRY]
        if deep_rules and not args.deep:
            print(
                f"lint: '{deep_rules[0]}' is a deep rule; pass --deep",
                file=sys.stderr,
            )
            return 2

    findings = []
    if file_rules is None or file_rules:
        findings = lint_paths(paths, rule_names=file_rules)
    if args.deep and (deep_rules is None or deep_rules):
        from repro.lint.flow import deep_lint_paths

        deep_findings, _stats = deep_lint_paths(
            paths, rule_names=deep_rules
        )
        findings = sorted(set(findings) | set(deep_findings))

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def cmd_configs(args: argparse.Namespace) -> int:
    from repro.bgp import ConfigGenerator
    from repro.bgp.frr import FrrConfigGenerator

    network = build_topology(args.topology, SCALES[args.scale], seed=args.seed)
    generator_cls = (
        FrrConfigGenerator if args.format == "frr" else ConfigGenerator
    )
    generator = generator_cls(network, args.k)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "conf" if args.format == "frr" else "cfg"
    for switch, text in generator.render_all().items():
        (out_dir / f"router-{switch}.{suffix}").write_text(text + "\n")
    print(
        f"wrote {network.num_switches} {args.format} configurations "
        f"for {network.name} to {out_dir}"
    )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spineless Data Centers reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="structural topology comparison")
    _scale_argument(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("udf", help="Section 3.1 UDF table")
    p.set_defaults(func=cmd_udf)

    for name, func, doc in (
        ("fig4", cmd_fig4, "Figure 4 FCT tables"),
        ("fig5", cmd_fig5, "Figure 5 C-S heatmaps"),
    ):
        p = sub.add_parser(name, help=doc)
        _scale_argument(p)
        p.add_argument("--seed", type=int, default=0)
        _harness_arguments(p)
        p.set_defaults(func=func)

    p = sub.add_parser("microburst", help="Section 3 microburst study")
    _scale_argument(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_microburst)

    p = sub.add_parser("fig6", help="Figure 6 scale sweep")
    p.add_argument("--seed", type=int, default=1)
    _harness_arguments(p)
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser(
        "sweep",
        help="run experiment sweeps in parallel with result caching",
    )
    from repro.harness.jobs import SWEEPS

    p.add_argument(
        "--experiment",
        nargs="+",
        choices=SWEEPS,
        default=["fig4", "fig5", "fig6"],
        help="which sweeps to run (default: fig4 fig5 fig6)",
    )
    _scale_argument(p)
    p.add_argument("--seed", type=int, default=0)
    _harness_arguments(p)
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget",
    )
    p.add_argument(
        "--manifest-out",
        default=None,
        help="write the run manifest JSON to this path",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "faults",
        help="failure-resilience sweep: degradation under injected faults",
    )
    from repro.experiments.failure_sweep import (
        DEFAULT_FRACTIONS,
        FAULT_SCHEMES,
        FAULT_TOPOLOGIES,
    )
    from repro.faults import DEFAULT_GRAY_CAPACITY, FAULT_KINDS

    _scale_argument(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--topology",
        nargs="+",
        choices=FAULT_TOPOLOGIES,
        default=list(FAULT_TOPOLOGIES),
        help="topologies to degrade (default: all)",
    )
    p.add_argument(
        "--scheme",
        nargs="+",
        choices=FAULT_SCHEMES,
        default=list(FAULT_SCHEMES),
        help="routing schemes to compare (default: ecmp su2)",
    )
    p.add_argument(
        "--kind",
        nargs="+",
        choices=FAULT_KINDS,
        default=["link"],
        help="fault models to inject (default: link)",
    )
    p.add_argument(
        "--fractions",
        nargs="+",
        type=float,
        default=list(DEFAULT_FRACTIONS),
        metavar="F",
        help="failed fractions per kind (default: 0.02 0.05 0.10)",
    )
    p.add_argument(
        "--trials",
        type=int,
        default=2,
        help="independent scenarios per curve point (default: 2)",
    )
    p.add_argument(
        "--gray-capacity",
        dest="gray_capacity_fraction",
        type=float,
        default=DEFAULT_GRAY_CAPACITY,
        metavar="SCALE",
        help="surviving capacity fraction of gray-failed trunks",
    )
    _harness_arguments(p)
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget",
    )
    p.add_argument(
        "--manifest-out",
        default=None,
        help="write the run manifest JSON to this path",
    )
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "ml",
        help="ML collective sweep: iteration time across "
        "topology x routing x placement",
    )
    from repro.experiments.ml_sweep import (
        ML_POLICIES,
        ML_SCHEMES,
        ML_TOPOLOGIES,
    )
    from repro.traffic.collectives import PLACEMENT_POLICIES

    _scale_argument(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--topology",
        nargs="+",
        choices=ML_TOPOLOGIES,
        default=list(ML_TOPOLOGIES),
        help="topologies to compare (default: all)",
    )
    p.add_argument(
        "--scheme",
        nargs="+",
        choices=ML_SCHEMES,
        default=["ecmp", "su2"],
        help="routing schemes to compare (default: ecmp su2)",
    )
    p.add_argument(
        "--policy",
        nargs="+",
        choices=PLACEMENT_POLICIES,
        default=list(ML_POLICIES),
        help="placement policies to compare (default: compact random)",
    )
    p.add_argument(
        "--placement-seeds",
        nargs="+",
        type=int,
        default=None,
        metavar="S",
        help="placement-policy seeds (default: two draws derived "
        "from --seed)",
    )
    _harness_arguments(p)
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget",
    )
    p.add_argument(
        "--manifest-out",
        default=None,
        help="write the run manifest JSON to this path",
    )
    p.set_defaults(func=cmd_ml)

    p = sub.add_parser(
        "cache", help="inspect, prune, or clear the result cache"
    )
    p.add_argument("action", choices=("ls", "prune", "clear"))
    p.add_argument("--cache-dir", default=None)
    p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="with prune: evict least-recently-used entries until the "
        "cache holds at most N bytes (the service's eviction policy)",
    )
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "serve", help="run the simulation-as-a-service HTTP server"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8277)
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent jobs (each in its own worker process)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        metavar="N",
        help="max queued jobs before POST /jobs answers 429",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget",
    )
    p.add_argument("--cache-dir", default=None)
    p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="result-store byte budget; LRU eviction on insert",
    )
    p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access logging",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit one cell to a server")
    p.add_argument("--server", default=DEFAULT_SERVICE_URL)
    p.add_argument("--experiment", required=True)
    p.add_argument("--scale", default="")
    p.add_argument("--scheme", default="")
    p.add_argument("--pattern", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="extra job param (repeatable); values parse as "
        "bool/int/float/str",
    )
    p.add_argument(
        "--wait",
        action="store_true",
        help="stream events until the job finishes; exit 0 only on done",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="job states from a server")
    p.add_argument("job_id", nargs="?", default=None)
    p.add_argument("--server", default=DEFAULT_SERVICE_URL)
    p.add_argument(
        "--events",
        action="store_true",
        help="with a job id: also print its event stream",
    )
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "results", help="the server's cached-result inventory"
    )
    p.add_argument("--server", default=DEFAULT_SERVICE_URL)
    p.set_defaults(func=cmd_results)

    p = sub.add_parser(
        "leaderboard",
        help="ranked (topology, routing, workload) cells",
    )
    p.add_argument("--server", default=DEFAULT_SERVICE_URL)
    p.add_argument(
        "--cache-dir",
        default=None,
        help="rank a local result store instead of querying a server",
    )
    from repro.service.leaderboard import DEFAULT_METRIC, metric_names

    p.add_argument(
        "--metric",
        choices=metric_names(),
        default=DEFAULT_METRIC,
    )
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_leaderboard)

    p = sub.add_parser(
        "other-topologies", help="Section 7 Slim Fly / Dragonfly comparison"
    )
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_other_topologies)

    p = sub.add_parser("verify", help="verify Theorem 1 and the path sets")
    _scale_argument(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--topology", choices=TOPOLOGIES, default="dring")
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="export a topology as JSON or dot")
    _scale_argument(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--topology", choices=TOPOLOGIES, default="dring")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", default="-", help="output file, or - for stdout")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "report", help="regenerate every paper artifact into a directory"
    )
    _scale_argument(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="report")
    p.add_argument(
        "--only",
        nargs="+",
        default=None,
        help="subset of artifact names (see repro.experiments.report)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "lint",
        help="domain-aware static analysis of the repository invariants",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable; default: all rules)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    p.add_argument(
        "--deep",
        action="store_true",
        help="also run the interprocedural (whole-package) concurrency "
        "suite: lockset races, lock order, blocking under a lock and "
        "module state shared across threads",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("configs", help="emit router configurations")
    _scale_argument(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--topology", choices=TOPOLOGIES, default="dring")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--format", choices=("cisco", "frr"), default="cisco")
    p.add_argument("--out", default="router-configs")
    p.set_defaults(func=cmd_configs)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
