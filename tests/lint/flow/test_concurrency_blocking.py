"""The deep-blocking-under-lock rule and its effect lattice."""

from __future__ import annotations

from repro.lint.flow import deep_lint_paths
from repro.lint.flow.concurrency import (
    BlockingAnalysis,
    DeepBlockingUnderLock,
    concurrency_facts,
)
from repro.lint.flow.concurrency.blocking import (
    JOINS_PROCESS,
    LONG_POLLS,
    SLEEPS,
    WAITS_NETWORK,
    classify_external,
    classify_unresolved,
    collect_effect_allowances,
)

from tests.lint.flow.util import build_fixture_graph

#: A sleep reached transitively while a lock is held, plus a clean
#: variant that sleeps outside the critical section.
SLEEPY_FIXTURE = {
    "pool.py": (
        "import threading\n"
        "import time\n"
        "\n"
        "\n"
        "class Pool:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.jobs = []\n"
        "\n"
        "    def bad(self):\n"
        "        with self._lock:\n"
        "            self._backoff()\n"
        "            self.jobs.append(1)\n"
        "\n"
        "    def good(self):\n"
        "        self._backoff()\n"
        "        with self._lock:\n"
        "            self.jobs.append(1)\n"
        "\n"
        "    def _backoff(self):\n"
        "        time.sleep(0.01)\n"
    ),
}


class TestClassifiers:
    def test_external_classification(self):
        assert classify_external("time.sleep") == SLEEPS
        assert classify_external("threading.Thread.join") == JOINS_PROCESS
        assert (
            classify_external("multiprocessing.connection.wait")
            == JOINS_PROCESS
        )
        assert (
            classify_external("urllib.request.urlopen") == WAITS_NETWORK
        )
        assert classify_external("queue.Queue.get") == LONG_POLLS
        assert classify_external("math.sqrt") is None

    def test_unresolved_stream_syntax(self):
        assert classify_unresolved("self.wfile.write") == WAITS_NETWORK
        assert classify_unresolved("self.rfile.read") == WAITS_NETWORK
        assert classify_unresolved("self.jobs.append") is None


class TestAllowanceParsing:
    def test_collects_effects_by_line(self):
        source = (
            "def a():  # repro-effect: allow=sleeps\n"
            "    pass\n"
            "\n"
            "def b():  # repro-effect: allow=joins-process, long-polls\n"
            "    pass\n"
        )
        allowances = collect_effect_allowances(source)
        assert allowances == {
            1: {"sleeps"},
            4: {"joins-process", "long-polls"},
        }


class TestBlockingAnalysis:
    def test_sleep_propagates_bottom_up(self, tmp_path):
        _, graph = build_fixture_graph(tmp_path, SLEEPY_FIXTURE, "ppkg")
        facts = concurrency_facts(graph)
        analysis = BlockingAnalysis(graph, facts.model)
        assert SLEEPS in analysis.effects_of("ppkg.pool.Pool._backoff")
        assert SLEEPS in analysis.effects_of("ppkg.pool.Pool.bad")

    def test_explain_names_the_origin(self, tmp_path):
        _, graph = build_fixture_graph(tmp_path, SLEEPY_FIXTURE, "ppkg")
        facts = concurrency_facts(graph)
        analysis = BlockingAnalysis(graph, facts.model)
        explanation = analysis.explain("ppkg.pool.Pool.bad", SLEEPS)
        assert "time.sleep" in explanation


class TestDeepBlockingUnderLock:
    def test_transitive_sleep_under_lock_flagged_once(self, tmp_path):
        _, graph = build_fixture_graph(tmp_path, SLEEPY_FIXTURE, "ppkg")
        findings = list(DeepBlockingUnderLock().check(graph))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "deep-blocking-under-lock"
        assert "Pool.bad holds Pool._lock" in finding.message
        assert "'sleeps'" in finding.message

    def test_direct_external_call_under_lock(self, tmp_path):
        fixture = dict(SLEEPY_FIXTURE)
        fixture["pool.py"] = fixture["pool.py"].replace(
            "            self._backoff()\n"
            "            self.jobs.append(1)\n",
            "            time.sleep(0.01)\n"
            "            self.jobs.append(1)\n",
        )
        _, graph = build_fixture_graph(tmp_path, fixture, "ppkg")
        findings = list(DeepBlockingUnderLock().check(graph))
        assert len(findings) == 1
        assert "calling time.sleep" in findings[0].message

    def test_allowance_absorbs_the_effect(self, tmp_path):
        fixture = dict(SLEEPY_FIXTURE)
        fixture["pool.py"] = fixture["pool.py"].replace(
            "    def bad(self):\n",
            "    def bad(self):  # repro-effect: allow=sleeps\n",
        )
        _, graph = build_fixture_graph(tmp_path, fixture, "ppkg")
        assert list(DeepBlockingUnderLock().check(graph)) == []

    def test_cond_wait_holding_only_its_condition_is_legal(self, tmp_path):
        fixture = {
            "cv.py": (
                "import threading\n"
                "\n"
                "\n"
                "class Waiter:\n"
                "    def __init__(self):\n"
                "        self._cond = threading.Condition()\n"
                "        self.ready = False\n"
                "\n"
                "    def block(self):\n"
                "        with self._cond:\n"
                "            while not self.ready:\n"
                "                self._cond.wait()\n"
            ),
        }
        _, graph = build_fixture_graph(tmp_path, fixture, "cvpkg")
        assert list(DeepBlockingUnderLock().check(graph)) == []

    def test_cond_wait_holding_an_extra_lock_is_flagged(self, tmp_path):
        fixture = {
            "cv.py": (
                "import threading\n"
                "\n"
                "\n"
                "class Waiter:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._cond = threading.Condition()\n"
                "        self.ready = False\n"
                "\n"
                "    def block(self):\n"
                "        with self._lock:\n"
                "            with self._cond:\n"
                "                while not self.ready:\n"
                "                    self._cond.wait()\n"
            ),
        }
        _, graph = build_fixture_graph(tmp_path, fixture, "cvpkg")
        findings = list(DeepBlockingUnderLock().check(graph))
        assert len(findings) == 1
        message = findings[0].message
        assert "waits on condition Waiter._cond" in message
        assert "Waiter._lock" in message

    def test_worker_join_under_lock_via_typed_receiver(self, tmp_path):
        fixture = {
            "mgr.py": (
                "import threading\n"
                "from typing import List\n"
                "\n"
                "\n"
                "class Manager:\n"
                "    workers: List[threading.Thread]\n"
                "\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.workers = []\n"
                "\n"
                "    def stop(self):\n"
                "        with self._lock:\n"
                "            for worker in self.workers:\n"
                "                worker.join()\n"
                "\n"
                "    def spawn(self):\n"
                "        worker: threading.Thread = threading.Thread()\n"
                "        with self._lock:\n"
                "            self.workers.append(worker)\n"
                "        worker.start()\n"
            ),
        }
        _, graph = build_fixture_graph(tmp_path, fixture, "mpkg")
        findings = list(DeepBlockingUnderLock().check(graph))
        assert len(findings) == 1
        assert "'joins-process'" in findings[0].message

    def test_stream_write_under_lock(self, tmp_path):
        fixture = {
            "h.py": (
                "import threading\n"
                "\n"
                "\n"
                "class Handler:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.sent = 0\n"
                "\n"
                "    def reply(self, body):\n"
                "        with self._lock:\n"
                "            self.wfile.write(body)\n"
                "            self.sent += 1\n"
            ),
        }
        _, graph = build_fixture_graph(tmp_path, fixture, "hpkg")
        findings = list(DeepBlockingUnderLock().check(graph))
        assert len(findings) == 1
        assert "'waits-network'" in findings[0].message

    def test_suppression_comment_silences(self, tmp_path):
        fixture = dict(SLEEPY_FIXTURE)
        fixture["pool.py"] = fixture["pool.py"].replace(
            "            self._backoff()\n"
            "            self.jobs.append(1)\n",
            "            self._backoff()  "
            "# repro-lint: disable=deep-blocking-under-lock\n"
            "            self.jobs.append(1)\n",
        )
        build_fixture_graph(tmp_path, fixture, "ppkg")
        findings, _ = deep_lint_paths(
            [str(tmp_path / "ppkg")],
            rule_names=["deep-blocking-under-lock"],
            package="ppkg",
        )
        assert findings == []
