"""deep-worker-safety on fixture packages: thread entry points and the
module state reachable from them."""

from __future__ import annotations

from repro.lint.flow.concurrency.worker import (
    DeepWorkerSafety,
    find_thread_entry_points,
    reachable_from,
)

from tests.lint.flow.util import build_fixture_graph, build_fixture_program


def _check(tmp_path, files, package="wpkg"):
    _, graph = build_fixture_graph(tmp_path, files, package)
    return list(DeepWorkerSafety().check(graph))


def _handler(body):
    """An HTTP handler module whose do_GET runs ``body`` (one line)."""
    return (
        "from http.server import BaseHTTPRequestHandler\n"
        "\n"
        "\n"
        "class Handler(BaseHTTPRequestHandler):\n"
        "    def do_GET(self):\n"
        f"        {body}\n"
    )


class TestGlobalMutation:
    FIXTURE = {
        "work.py": (
            "RESULTS = []\n"
            "COUNTER = 0\n"
            "\n"
            "\n"
            "def accumulate(spec):\n"
            "    global COUNTER\n"
            "    COUNTER = COUNTER + 1\n"
            "    RESULTS.append(spec)\n"
            "    return COUNTER\n"
            "\n"
            "\n"
            "def untouched(spec):\n"
            "    RESULTS.append(spec)\n"
            "    return spec\n"
        ),
        "api.py": (
            "from wpkg.work import accumulate\n"
            + _handler("accumulate(self.path)")
        ),
    }

    def test_reachable_mutations_flagged(self, tmp_path):
        findings = _check(tmp_path, self.FIXTURE)
        messages = [f.message for f in findings]
        assert any("rebinds module global 'COUNTER'" in m for m in messages)
        assert any(
            "mutates module-level 'RESULTS' (.append())" in m
            for m in messages
        )
        assert len(findings) == 2

    def test_unreachable_mutation_not_flagged(self, tmp_path):
        """`untouched` also appends to RESULTS but no thread reaches it."""
        findings = _check(tmp_path, self.FIXTURE)
        lines = {f.line for f in findings}
        assert all(line < 12 for line in lines)

    def test_local_shadow_not_flagged(self, tmp_path):
        assert _check(tmp_path, {
            "work.py": (
                "RESULTS = []\n"
                "\n"
                "\n"
                "def collect(spec):\n"
                "    RESULTS = list()\n"
                "    RESULTS.append(spec)\n"
                "    return RESULTS\n"
            ),
            "api.py": (
                "from wpkg.work import collect\n"
                + _handler("collect(self.path)")
            ),
        }) == []

    def test_import_time_registration_not_flagged(self, tmp_path):
        """Module-level registry population runs once at import, before
        any thread starts; only runtime mutation races."""
        assert _check(tmp_path, {
            "work.py": (
                "TABLE = {}\n"
                "\n"
                "\n"
                "def lookup(key):\n"
                "    return TABLE.get(key)\n"
                "\n"
                "\n"
                "TABLE['job'] = lookup\n"
            ),
            "api.py": (
                "from wpkg.work import lookup\n"
                + _handler("lookup(self.path)")
            ),
        }) == []

    def test_subscript_store_into_module_dict_flagged(self, tmp_path):
        """``TABLE[key] = v`` reads the module-level TABLE; the store
        does not make TABLE a local."""
        findings = _check(tmp_path, {
            "api.py": "HITS = {}\n\n" + _handler("HITS[self.path] = 1"),
        })
        assert len(findings) == 1
        assert (
            "mutates module-level 'HITS' ([...] assignment)"
            in findings[0].message
        )


class TestThreadEntryPoints:
    HANDLER = (
        "from http.server import BaseHTTPRequestHandler\n"
        "\n"
        "HITS = []\n"
        "\n"
        "\n"
        "class Handler(BaseHTTPRequestHandler):\n"
        "    def do_GET(self):\n"
        "        record(self.path)\n"
        "\n"
        "    def helper(self):\n"
        "        return None\n"
        "\n"
        "\n"
        "def record(path):\n"
        "    HITS.append(path)\n"
    )

    def test_handler_do_methods_are_entries(self, tmp_path):
        program = build_fixture_program(
            tmp_path, {"api.py": self.HANDLER}, "tpkg"
        )
        entries = find_thread_entry_points(program)
        assert "tpkg.api.Handler.do_GET" in entries
        assert "tpkg.api.Handler.helper" not in entries

    def test_handler_subclass_inherits_entry_status(self, tmp_path):
        program = build_fixture_program(tmp_path, {
            "base.py": (
                "from http.server import BaseHTTPRequestHandler\n"
                "\n"
                "\n"
                "class Base(BaseHTTPRequestHandler):\n"
                "    pass\n"
            ),
            "api.py": (
                "from tpkg.base import Base\n"
                "\n"
                "\n"
                "class Handler(Base):\n"
                "    def do_POST(self):\n"
                "        return None\n"
            ),
        }, "tpkg")
        assert "tpkg.api.Handler.do_POST" in find_thread_entry_points(
            program
        )

    def test_thread_target_is_entry(self, tmp_path):
        program = build_fixture_program(tmp_path, {
            "mgr.py": (
                "import threading\n"
                "\n"
                "\n"
                "def worker_loop():\n"
                "    return None\n"
                "\n"
                "\n"
                "def start():\n"
                "    thread = threading.Thread(target=worker_loop)\n"
                "    thread.start()\n"
            ),
        }, "tpkg")
        assert "tpkg.mgr.worker_loop" in find_thread_entry_points(program)

    def test_self_method_thread_target_is_entry(self, tmp_path):
        program = build_fixture_program(tmp_path, {
            "mgr.py": (
                "import threading\n"
                "\n"
                "\n"
                "class Manager:\n"
                "    def start(self):\n"
                "        threading.Thread(target=self._loop).start()\n"
                "\n"
                "    def _loop(self):\n"
                "        return None\n"
            ),
        }, "tpkg")
        assert "tpkg.mgr.Manager._loop" in find_thread_entry_points(
            program
        )

    def test_thread_reachable_mutation_flagged(self, tmp_path):
        findings = _check(
            tmp_path, {"api.py": self.HANDLER}, package="tpkg"
        )
        assert len(findings) == 1
        message = findings[0].message
        assert "thread-reachable 'record'" in message
        assert "mutates module-level 'HITS' (.append())" in message
        assert "behind a lock" in message

    def test_instance_state_not_flagged(self, tmp_path):
        """Mutating self-owned state under a lock is the sanctioned
        pattern — nothing module-level, nothing to flag."""
        assert _check(tmp_path, {
            "api.py": (
                "from http.server import BaseHTTPRequestHandler\n"
                "\n"
                "\n"
                "class Handler(BaseHTTPRequestHandler):\n"
                "    def do_GET(self):\n"
                "        self.server.hits.append(self.path)\n"
            ),
        }, package="tpkg") == []


class TestReachability:
    def test_reachable_from_closure(self, tmp_path):
        _, graph = build_fixture_graph(tmp_path, {
            "a.py": (
                "def entry():\n"
                "    return middle()\n"
                "\n"
                "def middle():\n"
                "    return leaf()\n"
                "\n"
                "def leaf():\n"
                "    return 1\n"
                "\n"
                "def island():\n"
                "    return 2\n"
            ),
        }, "rpkg")
        reach = reachable_from(graph, ["rpkg.a.entry"])
        assert reach == {"rpkg.a.entry", "rpkg.a.middle", "rpkg.a.leaf"}
