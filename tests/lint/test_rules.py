"""Per-rule fixtures: each rule fires exactly once, and a suppression
comment on the offending line silences it.

Fixtures are in-memory sources linted under *virtual* paths, so
path-scoped rules can be exercised without touching the working tree.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_source

#: (rule name, virtual path, source tripping the rule exactly once).
FIXTURES = [
    (
        "no-unseeded-rng",
        "src/repro/topology/fixture.py",
        (
            "import random\n"
            "\n"
            "def pick(items):\n"
            "    return random.choice(items)\n"
        ),
    ),
    (
        "no-unseeded-rng",
        "src/repro/sim/fixture.py",
        (
            "import numpy as np\n"
            "\n"
            "def jumble(values):\n"
            "    np.random.shuffle(values)\n"
        ),
    ),
    (
        "no-wallclock",
        "src/repro/sim/fixture.py",
        (
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    ),
    (
        "no-wallclock",
        "src/repro/harness/fixture.py",
        (
            "from time import perf_counter\n"
            "\n"
            "def elapsed():\n"
            "    return perf_counter()\n"
        ),
    ),
    (
        "deterministic-iteration",
        "src/repro/sim/fixture.py",
        (
            "def spread(items):\n"
            "    seen = set(items)\n"
            "    return [x for x in seen]\n"
        ),
    ),
    (
        "cache-key-purity",
        "src/repro/experiments/fixture.py",
        (
            "import os\n"
            "\n"
            "def mode():\n"
            "    return os.getenv('REPRO_MODE')\n"
        ),
    ),
    (
        "float-eq",
        "src/repro/sim/fixture.py",
        (
            "def halved(a, b):\n"
            "    return a == b / 2\n"
        ),
    ),
    (
        "network-mutation",
        "src/repro/routing/fixture.py",
        (
            "def degrade(network, u, v):\n"
            "    network.graph.remove_edge(u, v)\n"
        ),
    ),
    (
        "network-mutation",
        "src/repro/faults/fixture.py",
        (
            "def throttle(network, u, v):\n"
            "    network.graph[u][v]['mult'] = 0\n"
        ),
    ),
    (
        "mutable-default",
        "src/repro/topology/fixture.py",
        (
            "def extend(items=[]):\n"
            "    return items\n"
        ),
    ),
    (
        "seed-threading",
        "src/repro/experiments/fixture.py",
        (
            "def run_study(scale):\n"
            "    return scale\n"
        ),
    ),
    (
        "seed-threading",
        "src/repro/experiments/fixture.py",
        (
            "def run_study(scale, seed=0):\n"
            "    return scale\n"
        ),
    ),
    (
        "cache-key-purity",
        "src/repro/harness/jobs.py",
        (
            "import os\n"
            "\n"
            "def _run_job(spec):\n"
            "    return float(os.environ['UTILIZATION'])\n"
        ),
    ),
    (
        "no-unseeded-rng",
        "src/repro/topology/fixture.py",
        (
            "import random\n"
            "\n"
            "def build(n):\n"
            "    return random.Random().sample(range(n), n)\n"
        ),
    ),
    (
        "no-unseeded-rng",
        "src/repro/traffic/fixture.py",
        (
            "import numpy as np\n"
            "\n"
            "def draw():\n"
            "    return np.random.RandomState(seed=None)\n"
        ),
    ),
    (
        "no-wallclock",
        "src/repro/traffic/fixture.py",
        (
            "import time\n"
            "\n"
            "def skewed(seed):\n"
            "    return seed + int(time.time())\n"
        ),
    ),
]

_IDS = [f"{rule}-{i}" for i, (rule, _, _) in enumerate(FIXTURES)]


def _suppress_line(source: str, line: int, rule: str) -> str:
    """Append an inline suppression to ``line`` (1-based) of ``source``."""
    lines = source.splitlines()
    lines[line - 1] += f"  # repro-lint: disable={rule}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rule,path,source", FIXTURES, ids=_IDS)
def test_fixture_fires_exactly_once(rule, path, source):
    findings = lint_source(source, path)
    assert [f.rule for f in findings] == [rule]
    assert findings[0].path == path
    assert rule in findings[0].message or findings[0].message


@pytest.mark.parametrize("rule,path,source", FIXTURES, ids=_IDS)
def test_inline_suppression_silences(rule, path, source):
    findings = lint_source(source, path)
    suppressed = _suppress_line(source, findings[0].line, rule)
    assert lint_source(suppressed, path) == []


@pytest.mark.parametrize("rule,path,source", FIXTURES, ids=_IDS)
def test_file_wide_suppression_silences(rule, path, source):
    suppressed = f"# repro-lint: disable-file={rule}\n" + source
    assert lint_source(suppressed, path) == []


def test_disable_all_wildcard():
    rule, path, source = FIXTURES[0]
    findings = lint_source(source, path)
    suppressed = _suppress_line(source, findings[0].line, "all")
    assert lint_source(suppressed, path) == []


def test_suppression_inside_string_is_inert():
    rule, path, source = FIXTURES[0]
    decoy = source.replace(
        "return random.choice(items)",
        'text = "# repro-lint: disable=no-unseeded-rng"\n'
        "    return random.choice(items)",
    )
    assert [f.rule for f in lint_source(decoy, path)] == [rule]


class TestRuleScoping:
    def test_wallclock_allowlists_harness_clock(self):
        source = "import time\n\ndef now():\n    return time.time()\n"
        assert lint_source(source, "src/repro/harness/clock.py") == []
        assert len(lint_source(source, "src/repro/harness/other.py")) == 1

    def test_wallclock_ignores_tests(self):
        source = "import time\n\ndef now():\n    return time.time()\n"
        assert lint_source(source, "tests/sim/test_fixture.py") == []

    def test_float_eq_scoped_to_sim(self):
        source = "def same(a, b):\n    return a == b / 2\n"
        assert lint_source(source, "src/repro/routing/fixture.py") == []

    def test_seeded_rng_constructors_allowed(self):
        source = (
            "import random\n"
            "import numpy\n"
            "\n"
            "def make(seed):\n"
            "    rng = random.Random(seed)\n"
            "    gen = numpy.random.default_rng(seed)\n"
            "    return rng.choice([1, 2]), gen\n"
        )
        assert lint_source(source, "src/repro/sim/fixture.py") == []

    def test_sorted_set_iteration_allowed(self):
        source = (
            "def spread(items):\n"
            "    seen = set(items)\n"
            "    return [x for x in sorted(seen)]\n"
        )
        assert lint_source(source, "src/repro/sim/fixture.py") == []

    def test_order_free_reduction_over_set_allowed(self):
        source = (
            "def shortest(paths):\n"
            "    pool = set(paths)\n"
            "    return min(len(p) for p in pool)\n"
        )
        assert lint_source(source, "src/repro/sim/fixture.py") == []

    def test_graph_metadata_write_allowed(self):
        source = (
            "def label(network):\n"
            "    network.graph.graph['name'] = 'x'\n"
        )
        assert lint_source(source, "src/repro/routing/fixture.py") == []

    def test_network_primitives_allowed(self):
        source = (
            "def degrade(network, u, v):\n"
            "    network.remove_link(u, v)\n"
            "    network.set_link_capacity_scale(u, v, 0.5)\n"
        )
        assert lint_source(source, "src/repro/routing/fixture.py") == []

    def test_core_network_exempt_from_mutation_rule(self):
        source = (
            "def _install(self, u, v):\n"
            "    self.graph.add_edge(u, v, mult=1)\n"
        )
        assert lint_source(source, "src/repro/core/network.py") == []

    def test_purity_allows_artifact_writes(self):
        source = (
            "def emit(path, text):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(text)\n"
        )
        assert lint_source(source, "src/repro/experiments/fixture.py") == []

    def test_run_entry_point_forwarding_seed_is_clean(self):
        source = (
            "def run_study(scale, seed=0):\n"
            "    return scale, seed\n"
        )
        assert lint_source(source, "src/repro/experiments/fixture.py") == []
