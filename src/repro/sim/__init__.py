"""Simulators: max-min allocator, flow-level FCT, steady-state throughput."""

from repro.sim.maxmin import (
    AllocationError,
    Incidence,
    fill_levels,
    flow_rates,
    progressive_filling,
)
from repro.sim.flowsim import FlowSimulator, simulate_fct
from repro.sim.throughput import (
    ConcreteCs,
    ThroughputReport,
    commodity_throughput,
    cs_throughput,
    place_cs_concrete,
    tm_throughput,
)
from repro.sim.results import (
    CollectiveResults,
    FctResults,
    FlowRecord,
    IterationRecord,
    JobTimeline,
    fct_table,
    heatmap_text,
)
from repro.sim.phases import PhaseCohortDriver, phase_seed, run_collectives
from repro.sim.idealflow import (
    EfficiencyReport,
    IdealFlowError,
    ideal_throughput,
    oblivious_throughput,
    routing_efficiency,
)
from repro.sim.packet import PacketSimulator, simulate_fct_packet

__all__ = [
    "AllocationError",
    "Incidence",
    "fill_levels",
    "flow_rates",
    "progressive_filling",
    "FlowSimulator",
    "simulate_fct",
    "ConcreteCs",
    "ThroughputReport",
    "commodity_throughput",
    "cs_throughput",
    "place_cs_concrete",
    "tm_throughput",
    "CollectiveResults",
    "FctResults",
    "FlowRecord",
    "IterationRecord",
    "JobTimeline",
    "fct_table",
    "heatmap_text",
    "PhaseCohortDriver",
    "phase_seed",
    "run_collectives",
    "EfficiencyReport",
    "IdealFlowError",
    "ideal_throughput",
    "oblivious_throughput",
    "routing_efficiency",
    "PacketSimulator",
    "simulate_fct_packet",
]
