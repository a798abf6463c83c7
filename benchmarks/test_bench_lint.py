"""Deep lint stays fast enough to gate every commit.

Runs the full-repository ``repro lint --deep`` in a fresh interpreter
(cold: includes interpreter start, imports, parsing all ~100 modules,
call-graph construction and all three engine groups — the per-file AST
rules plus the flow and concurrency deep suites) and asserts it lands
under a wall-clock budget with a wide margin over the measured ~11s on
a 2-vCPU VM.  If this fails, the pre-commit hook and the CI deep-lint
job have become a tax on every contributor — fix the regression, don't
raise the budget first.
"""

import json
import pathlib
import subprocess
import sys
import time

from conftest import save_artifact

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Seconds a cold full-repo deep lint may take.
COLD_BUDGET_SECONDS = 30.0


def test_cold_deep_lint_under_budget():
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "lint", "--deep",
            "--format", "json",
            str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"),
        ],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""},
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start

    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["clean"] is True

    assert elapsed < COLD_BUDGET_SECONDS, (
        f"cold deep lint took {elapsed:.1f}s "
        f"(budget {COLD_BUDGET_SECONDS:.0f}s)"
    )
    save_artifact(
        "bench_lint.txt",
        f"cold full-repo `repro lint --deep`: {elapsed:.2f}s "
        f"(budget {COLD_BUDGET_SECONDS:.0f}s, clean)",
    )
