"""The max-min fairness certificate every engine solve must pass.

Bit-parity with an older copy of the engine shows "same as before", not
"right"; the certificate checks each allocation on its own.
``tests/sim/conftest.py`` applies it to every solve a ``tests/sim`` test
runs.
"""

from __future__ import annotations

import numpy as np

#: Relative slack for the certificate's load-vs-capacity comparisons: the
#: loads are sums of levels, the solver's saturation test a subtraction
#: chain, so the two agree only up to rounding.
CERTIFICATE_RTOL = 1e-9


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
