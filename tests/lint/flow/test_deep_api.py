"""deep_lint_paths: the library entry the CLI and CI build on."""

from __future__ import annotations

import pathlib

from repro.lint.flow import deep_lint_paths

BAD_WORK = (
    "from http.server import BaseHTTPRequestHandler\n"
    "\n"
    "HITS = []\n"
    "\n"
    "\n"
    "class Handler(BaseHTTPRequestHandler):\n"
    "    def do_GET(self):\n"
    "        HITS.append(self.path)\n"
)


def _write_package(tmp_path: pathlib.Path, work_source: str):
    root = tmp_path / "src" / "repro"
    root.mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "work.py").write_text(work_source)
    return root


class TestDeepLintPaths:
    def test_finds_package_and_reports(self, tmp_path, monkeypatch):
        _write_package(tmp_path, BAD_WORK)
        monkeypatch.chdir(tmp_path)
        findings, stats = deep_lint_paths(["src"])
        assert len(findings) == 1
        assert findings[0].rule == "deep-worker-safety"
        assert findings[0].path == str(
            pathlib.Path("src") / "repro" / "work.py"
        )
        assert stats["resolved_fraction"] > 0.0

    def test_suppression_comment_honored(self, tmp_path, monkeypatch):
        _write_package(
            tmp_path,
            BAD_WORK.replace(
                "HITS.append(self.path)",
                "HITS.append(self.path)"
                "  # repro-lint: disable=deep-worker-safety",
            ),
        )
        monkeypatch.chdir(tmp_path)
        findings, _ = deep_lint_paths(["src"])
        assert findings == []

    def test_rule_selection(self, tmp_path, monkeypatch):
        _write_package(tmp_path, BAD_WORK)
        monkeypatch.chdir(tmp_path)
        findings, _ = deep_lint_paths(
            ["src"], rule_names=["deep-lock-order"]
        )
        assert findings == []

    def test_path_filter_limits_reports(self, tmp_path, monkeypatch):
        """The whole package is analyzed but only requested files are
        reported — the changed-files pre-commit contract."""
        root = _write_package(tmp_path, BAD_WORK)
        (root / "other.py").write_text(
            BAD_WORK.replace("class Handler", "class OtherHandler")
        )
        monkeypatch.chdir(tmp_path)
        findings, _ = deep_lint_paths([str(root / "other.py")])
        assert len(findings) == 1
        assert findings[0].path.endswith("other.py")

    def test_no_package_returns_empty(self, tmp_path):
        findings, stats = deep_lint_paths([str(tmp_path)])
        assert findings == []
        assert stats == {}
