"""E1/E2: Figure 4 — median and p99 FCT across traffic matrices.

Paper shape to reproduce: flat topologies (DRing, RRG) significantly
outperform the leaf-spine for skewed traffic (CS skewed, FB skewed) and
are comparable for uniform matrices; ECMP on flat networks is poor for
rack-to-rack, and Shortest-Union(2) repairs it.  Absolute numbers differ
(flow-level simulator, scaled-down instance); the orderings are asserted.
"""


import pytest

from conftest import save_artifact
from repro.experiments import SMALL, build_suite, run_fig4
from repro.sim.flowsim import simulate_fct
from repro.traffic import generate_flows, uniform

LEAF = "leaf-spine (ecmp)"
DRING_SU2 = "DRing (su2)"
DRING_ECMP = "DRing (ecmp)"
RRG_SU2 = "RRG (su2)"
RRG_ECMP = "RRG (ecmp)"


@pytest.fixture(scope="module")
def fig4():
    result = run_fig4(SMALL, seed=0)
    save_artifact("fig4_median.txt", result.median_table())
    save_artifact("fig4_p99.txt", result.p99_table())
    return result


def _p99(fig4, pattern, scheme):
    return fig4.rows[pattern][scheme].p99_fct_ms()


def test_bench_fig4_single_cell(benchmark):
    """Times one (pattern, scheme) cell: the simulator's unit of work."""
    suite = build_suite(SMALL, seed=0, include_ecmp_flats=False)
    tut = suite[1]  # DRing (su2)
    tm = uniform(SMALL.cluster)
    flows = generate_flows(tm, 400, 0.005, seed=0, size_cap=SMALL.size_cap_bytes)
    placement = tut.placement(shuffle=False, seed=0)

    benchmark.pedantic(
        simulate_fct,
        args=(tut.network, tut.routing, placement, flows),
        rounds=2,
        iterations=1,
    )


def test_bench_fig4_flat_wins_skewed_traffic(benchmark, fig4):
    """Flat topologies beat leaf-spine at the tail for skewed TMs."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for pattern in ("CS skewed", "FB skewed"):
        leaf = _p99(fig4, pattern, LEAF)
        assert _p99(fig4, pattern, DRING_SU2) < leaf
        assert _p99(fig4, pattern, DRING_ECMP) < leaf


def test_bench_fig4_comparable_uniform_traffic(benchmark, fig4):
    """For uniform matrices flat networks are comparable (within 2x)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for pattern in ("A2A", "FB uniform", "FB uniform (RP)"):
        leaf = _p99(fig4, pattern, LEAF)
        for scheme in (DRING_SU2, RRG_SU2, DRING_ECMP, RRG_ECMP):
            assert _p99(fig4, pattern, scheme) < 2.0 * leaf


def test_bench_fig4_su2_fixes_r2r_on_dring(benchmark, fig4):
    """SU(2) resolves the flat-network R2R weakness (Section 6.1)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert _p99(fig4, "R2R", DRING_SU2) <= _p99(fig4, "R2R", DRING_ECMP)


def test_bench_fig4_median_positive_everywhere(benchmark, fig4):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for by_scheme in fig4.rows.values():
        for results in by_scheme.values():
            assert results.median_fct_ms() > 0


def test_bench_fig4_medium_scale_confirmation(benchmark):
    """One FB-skewed column at MEDIUM scale (768 servers): the flat
    advantage grows with scale and skew, as the paper's full-size runs
    show (their headline is up to 7x at 3072 servers)."""
    from repro.experiments import MEDIUM

    result = benchmark.pedantic(
        run_fig4,
        args=(MEDIUM,),
        kwargs={"seed": 0, "patterns": ["FB skewed"]},
        rounds=1,
        iterations=1,
    )
    save_artifact("fig4_medium_skewed.txt", result.p99_table())
    leaf = result.rows["FB skewed"][LEAF].p99_fct_ms()
    dring = result.rows["FB skewed"][DRING_SU2].p99_fct_ms()
    assert leaf / dring > 2.0
