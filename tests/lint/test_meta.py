"""The gate itself: the repository at HEAD is lint-clean.

If one of these fails, either a determinism invariant was just broken
(fix the code) or a rule misfires on a legitimate new pattern (fix the
rule, or suppress with a justification comment).
"""

from __future__ import annotations

import pathlib

from repro.cli import main
from repro.lint import lint_paths, render_text

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _existing(*names: str) -> list:
    return [REPO_ROOT / name for name in names if (REPO_ROOT / name).is_dir()]


def test_src_is_clean():
    findings = lint_paths(_existing("src"))
    assert findings == [], "\n" + render_text(findings)


def test_tests_are_clean():
    findings = lint_paths(_existing("tests"))
    assert findings == [], "\n" + render_text(findings)


class TestDeepGate:
    """The interprocedural gate: deep-clean at HEAD, bounded optimism."""

    def test_deep_lint_is_clean(self):
        """The ratchet: lint-baseline.json is empty, so any deep
        finding anywhere in src/tests fails CI outright."""
        import json

        from repro.lint.flow import deep_lint_paths

        findings, _ = deep_lint_paths(
            [str(p) for p in _existing("src", "tests")]
        )
        assert findings == [], "\n" + render_text(findings)
        baseline = json.loads(
            (REPO_ROOT / "lint-baseline.json").read_text()
        )
        assert baseline["findings"] == []

    def test_call_graph_resolution_floor(self):
        """Deep rules treat unresolved call sites as effect-free; that
        optimism is sound only while almost every site resolves.  If
        this ratio sinks, teach the call-graph builder the new pattern
        rather than loosening the floor."""
        from repro.lint.flow import deep_lint_paths

        _, stats = deep_lint_paths([str(REPO_ROOT / "src")])
        assert stats["resolved_fraction"] >= 0.90, stats
        assert stats["call_sites"] > 1000, stats

    def test_cli_deep_flag(self, capsys):
        code = main(["lint", "--deep", str(REPO_ROOT / "src")])
        assert code == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_deep_rule_filter_through_the_cli(self, capsys):
        code = main([
            "lint", "--deep", "--rule", "deep-lock-order",
            str(REPO_ROOT / "src"),
        ])
        assert code == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_deep_rules_listed(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "deep-cache-purity", "deep-seed-provenance",
            "deep-unit-consistency", "deep-worker-safety",
        ):
            assert name in out
        sections = [
            line for line in out.splitlines()
            if line and not line.startswith(" ")
        ]
        assert sections == [
            "ast — per-file AST rules",
            "flow — call-graph rules [deep]",
            "concurrency — lockset/order/blocking rules [deep]",
        ]

    def test_every_engine_tag_has_a_section_title(self):
        from repro.lint.flow.registry import (
            ENGINE_SECTIONS,
            all_flow_rules,
        )

        titled = {engine for engine, _title in ENGINE_SECTIONS}
        for rule in all_flow_rules():
            assert rule.engine in titled, rule.name


class TestConcurrencyGate:
    """The concurrency suite at HEAD: rules registered, the service
    lock-order graph pinned, every guard annotation justified."""

    def _graph(self):
        from repro.lint.flow import build_call_graph
        from repro.lint.flow.program import Program

        program = Program.from_paths([REPO_ROOT / "src"], "repro")
        assert program is not None
        return build_call_graph(program)

    def test_concurrency_rules_listed_under_their_engine(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "concurrency — lockset/order/blocking rules" in out
        ast_part, _, concurrency_part = out.partition("concurrency —")
        for name in (
            "deep-lockset-races", "deep-lock-order",
            "deep-blocking-under-lock",
        ):
            assert name in concurrency_part
            assert name not in ast_part

    def test_rules_carry_the_concurrency_engine_tag(self):
        from repro.lint.flow.registry import all_flow_rules

        engines = {
            rule.name: rule.engine for rule in all_flow_rules()
        }
        assert engines["deep-lockset-races"] == "concurrency"
        assert engines["deep-lock-order"] == "concurrency"
        assert engines["deep-blocking-under-lock"] == "concurrency"
        assert engines["deep-cache-purity"] == "flow"

    def test_service_lock_order_graph_is_golden(self):
        """The service layer's lock-order graph is a design artifact:
        two locks, no nesting between them.  A new node or edge here is
        a reviewable design change, not an incidental one — update this
        pin deliberately."""
        from repro.lint.flow.concurrency import build_lock_order

        order = build_lock_order(self._graph())
        assert sorted(order.nodes) == [
            "repro.service.jobs.JobManager._cond",
            "repro.service.store.ServiceStore._lock",
        ]
        assert order.edge_list() == []
        assert order.self_reacquires == []
        assert order.cycles() == []

    def test_declared_contracts_at_head(self):
        """The repo's locking contracts, as declared: ServiceJob's
        mutable fields are guarded by the manager condition and the
        internal transition helpers require it."""
        from repro.lint.flow.concurrency import concurrency_facts

        facts = concurrency_facts(self._graph())
        job = "repro.service.jobs.ServiceJob"
        guarded = {
            attr for cls, attr in facts.model.guards if cls == job
        }
        assert {"state", "started_at", "finished_at", "error",
                "events", "cache_hit"} <= guarded
        assert {
            "repro.service.jobs.JobManager._append_event",
            "repro.service.jobs.JobManager._finish",
        } <= set(facts.model.requires)
        for decl in facts.model.guards.values():
            assert decl.reason, f"unjustified guard at {decl.path}:{decl.line}"
        for decl in facts.model.requires.values():
            assert decl.reason, f"unjustified requires at {decl.path}:{decl.line}"


class TestCliLint:
    def test_clean_tree_exits_zero(self, capsys):
        code = main(["lint", str(REPO_ROOT / "src")])
        assert code == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "sim" / "dirty.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        code = main(["lint", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "no-wallclock" in out

    def test_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "src" / "repro" / "sim" / "dirty.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        code = main(["lint", "--format", "json", str(tmp_path)])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["counts"] == {"no-wallclock": 1}

    def test_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "sim" / "dirty.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f(x=[]):\n    return time.time()\n")
        code = main(["lint", "--rule", "mutable-default", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "mutable-default" in out
        assert "no-wallclock" not in out

    def test_unknown_rule_rejected(self, tmp_path, capsys):
        assert main(["lint", "--rule", "bogus", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ("no-wallclock", "seed-threading", "float-eq"):
            assert name in out
