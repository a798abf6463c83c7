"""no-wallclock: package code may not read real time directly.

Simulated time is the only time that exists inside the simulators and
the code they call — a wall-clock read there either leaks into results
(breaking byte-identical reruns) or silently couples behavior to
machine speed.  Harness, service and report code *does* need wall time
(manifests, cache timestamps, job and artifact timing), so every read
in the ``repro`` package flows through the single injectable source in
``repro/harness/clock.py`` — the one file this rule allowlists — keeping
tests independent of real time and leaving no module where a clock read
can slip into a seed or a result unnoticed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

_BANNED_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: The one sanctioned wall-clock reader (see module docstring).
_ALLOWLIST = ("harness/clock.py",)


@register_rule
class NoWallclock(Rule):
    name = "no-wallclock"
    summary = (
        "wall-clock reads (time.time, perf_counter, datetime.now) "
        "anywhere in the repro package outside harness/clock.py"
    )
    invariant = (
        "simulator output depends only on (inputs, seed); harness time "
        "flows through the injectable repro.harness.clock source"
    )

    def applies(self, context: FileContext) -> bool:
        return (
            bool(context.repro_subpath)
            and not context.is_repro_file(*_ALLOWLIST)
            and not context.is_test
        )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = context.resolve(node.func)
            if dotted in _BANNED_CALLS:
                yield self.finding(
                    context, node.lineno, node.col_offset,
                    f"wall-clock read '{dotted}'; simulation code must "
                    "be time-free, harness code must go through "
                    "repro.harness.clock",
                )
