"""Tests for the progressive-filling max-min allocator.

Includes the hypothesis property tests of the three defining invariants:
feasibility (no link over capacity), non-waste (every flow is bottlenecked
somewhere), and the max-min property itself (no flow can be raised without
lowering a flow at or below its level).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.maxmin import (
    AllocationError,
    flow_rates,
    progressive_filling,
)


class TestBasicCases:
    def test_single_flow_gets_full_link(self):
        rates = flow_rates([[0]], [10.0])
        assert rates[0] == pytest.approx(10.0)

    def test_two_flows_share_equally(self):
        rates = flow_rates([[0], [0]], [10.0])
        assert list(rates) == pytest.approx([5.0, 5.0])

    def test_classic_three_flow_example(self):
        # Flow A uses links 0 and 1; B uses 0; C uses 1. caps 10 each.
        rates = flow_rates([[0, 1], [0], [1]], [10.0, 10.0])
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(5.0)

    def test_bottleneck_hierarchy(self):
        # Link 0 cap 2 shared by flows 0,1; link 1 cap 10 used by flows 1,2.
        rates = flow_rates([[0], [0, 1], [1]], [2.0, 10.0])
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(1.0)
        assert rates[2] == pytest.approx(9.0)

    def test_weighted_entities(self):
        # Entity of weight 3 vs weight 1 on one unit link: levels equal,
        # rates proportional to weight.
        levels = progressive_filling([[(0, 3.0)], [(0, 1.0)]], [8.0])
        assert levels[0] == pytest.approx(levels[1])
        assert 3 * levels[0] + levels[1] == pytest.approx(8.0)


class TestValidation:
    def test_rejects_empty_path(self):
        with pytest.raises(AllocationError):
            flow_rates([[]], [10.0])

    def test_rejects_bad_link_index(self):
        with pytest.raises(AllocationError):
            flow_rates([[5]], [10.0])

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(AllocationError):
            flow_rates([[0]], [0.0])

    def test_rejects_nonpositive_value(self):
        with pytest.raises(AllocationError):
            progressive_filling([[(0, -1.0)]], [10.0])


@st.composite
def allocation_problems(draw):
    num_links = draw(st.integers(min_value=1, max_value=8))
    capacities = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=100.0),
            min_size=num_links,
            max_size=num_links,
        )
    )
    num_flows = draw(st.integers(min_value=1, max_value=12))
    flows = [
        sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=num_links - 1),
                    min_size=1,
                    max_size=num_links,
                )
            )
        )
        for _ in range(num_flows)
    ]
    return flows, capacities


class TestMaxMinProperties:
    @given(problem=allocation_problems())
    @settings(max_examples=80, deadline=None)
    def test_feasible(self, problem):
        flows, capacities = problem
        rates = flow_rates(flows, capacities)
        loads = np.zeros(len(capacities))
        for path, rate in zip(flows, rates):
            for link in path:
                loads[link] += rate
        assert np.all(loads <= np.asarray(capacities) * (1 + 1e-6))

    @given(problem=allocation_problems())
    @settings(max_examples=80, deadline=None)
    def test_every_flow_bottlenecked(self, problem):
        flows, capacities = problem
        rates = flow_rates(flows, capacities)
        loads = np.zeros(len(capacities))
        for path, rate in zip(flows, rates):
            for link in path:
                loads[link] += rate
        for path in flows:
            saturated = any(
                loads[link] >= capacities[link] * (1 - 1e-6) for link in path
            )
            assert saturated, "a flow has headroom everywhere: waste"

    @given(problem=allocation_problems())
    @settings(max_examples=80, deadline=None)
    def test_max_min_property(self, problem):
        # A flow's rate can only be limited by a saturated link where it
        # is among the largest flows (no smaller flow blocks it).
        flows, capacities = problem
        rates = flow_rates(flows, capacities)
        loads = np.zeros(len(capacities))
        for path, rate in zip(flows, rates):
            for link in path:
                loads[link] += rate
        for i, path in enumerate(flows):
            has_fair_bottleneck = False
            for link in path:
                if loads[link] >= capacities[link] * (1 - 1e-6):
                    max_on_link = max(
                        rates[j]
                        for j, other in enumerate(flows)
                        if link in other
                    )
                    if rates[i] >= max_on_link * (1 - 1e-6):
                        has_fair_bottleneck = True
                        break
            assert has_fair_bottleneck

    @given(problem=allocation_problems())
    @settings(max_examples=40, deadline=None)
    def test_all_rates_positive(self, problem):
        flows, capacities = problem
        rates = flow_rates(flows, capacities)
        assert np.all(rates > 0)

