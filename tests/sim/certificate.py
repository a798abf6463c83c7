"""The checks every engine solve and every engine run must pass.

Bit-parity with an older copy of the engine shows "same as before", not
"right"; these checks judge each allocation and each run on its own.
``tests/sim/conftest.py`` applies :func:`assert_max_min_fair` to every
solve and :func:`assert_run_conserves` to every run a ``tests/sim`` test
makes.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

#: Relative slack for the certificate's load-vs-capacity comparisons: the
#: loads are sums of levels, the solver's saturation test a subtraction
#: chain, so the two agree only up to rounding.
CERTIFICATE_RTOL = 1e-9

#: Relative slack for the run-level checks: finish times and link bytes
#: are sums over events, exact up to rounding.
RUN_RTOL = 1e-9


def assert_max_min_fair(ent, lnk, val, caps, active, levels):
    """Certify an allocation max-min fair by its bottleneck links.

    An allocation is max-min fair iff it is feasible and every active
    entity crosses a saturated link on which its level is the largest
    (Bertsekas & Gallager, *Data Networks* §6.5).  ``ent``/``lnk``/``val``
    is the incidence the solver saw, ``active`` its entity mask, and
    ``levels`` the level per entity id.  O(incidence), vectorised.
    """
    on = active[ent]
    ent, lnk, val = ent[on], lnk[on], val[on]
    level = levels[ent]
    load = np.bincount(lnk, weights=val * level, minlength=len(caps))
    over = np.flatnonzero(load > caps * (1 + CERTIFICATE_RTOL))
    assert over.size == 0, (
        f"links {over[:8].tolist()} loaded past capacity: "
        f"load={load[over[:8]].tolist()} cap={caps[over[:8]].tolist()}"
    )
    saturated = load >= caps * (1 - CERTIFICATE_RTOL)
    top = np.full(len(caps), -np.inf)
    np.maximum.at(top, lnk, level)
    bottlenecked = saturated[lnk] & (level >= top[lnk])
    has_bottleneck = np.zeros(len(active), dtype=bool)
    has_bottleneck[ent[bottlenecked]] = True
    missing = np.flatnonzero(active & ~has_bottleneck)
    assert missing.size == 0, (
        f"entities {missing[:8].tolist()} have no bottleneck link: "
        f"levels={levels[missing[:8]].tolist()}"
    )


def assert_run_conserves(simulator, flows, results, bytes_before):
    """Check one ``FlowSimulator.run`` against the flows it was given.

    * Every input flow, mapped through the placement, yields exactly one
      record with the same (src, dst, size, start).
    * No flow finishes before its bytes could cross the slowest link on
      its path (server links included) at line rate, plus the hop
      latency of every link it used.
    * The bytes the run added to each link equal the sizes of the flows
      that crossed it.

    ``bytes_before`` is the simulator's per-link byte count from before
    the run.  The simulator numbers its links as its link table does,
    then one uplink per server, then one downlink per server.
    """
    placement = simulator.placement
    expected = Counter(
        (
            placement.network_server(flow.src_server),
            placement.network_server(flow.dst_server),
            flow.size_bytes,
            flow.start_time,
        )
        for flow in flows
    )
    got = Counter(
        (r.src_server, r.dst_server, r.size_bytes, r.start_time)
        for r in results.records
    )
    assert got == expected, (
        f"records without a flow: {list((got - expected).elements())[:4]}; "
        f"flows without a record: {list((expected - got).elements())[:4]}"
    )

    table = simulator._table
    num_net = len(table)
    num_servers = simulator.network.num_servers
    caps = np.concatenate(
        [
            table.capacities,
            np.full(2 * num_servers, simulator.network.server_link_capacity),
        ]
    )
    link_ids = []
    link_sizes = []
    early = []
    for record in results.records:
        links = [num_net + record.src_server]
        if record.dst_server != record.src_server:
            links.append(num_net + num_servers + record.dst_server)
        links.extend(
            table.id_of(u, v) for u, v in zip(record.path, record.path[1:])
        )
        line_rate_s = record.size_bytes * 8.0 / (caps[links].min() * 1e9)
        bound = line_rate_s + simulator.hop_latency_s * len(links)
        if record.finish_time < record.start_time + bound * (1 - RUN_RTOL):
            early.append(record)
        link_ids.extend(links)
        link_sizes.extend([record.size_bytes] * len(links))
    assert not early, (
        f"{len(early)} flows finish faster than line rate allows: {early[:4]}"
    )

    credited = np.bincount(link_ids, weights=link_sizes, minlength=len(caps))
    added = simulator._link_bytes - bytes_before
    off = np.flatnonzero(
        np.abs(added - credited) > RUN_RTOL * np.abs(credited)
    )
    assert off.size == 0, (
        f"links {off[:8].tolist()} carried {added[off[:8]].tolist()} bytes; "
        f"their flows sent {credited[off[:8]].tolist()}"
    )
