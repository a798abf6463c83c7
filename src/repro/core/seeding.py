"""Cross-process-stable seed derivation.

Sweep cells run in worker processes with ``PYTHONHASHSEED``
randomization; any seed derived with the builtin ``hash`` would differ
between the parent that builds a cache key and the worker that runs the
cell.  :func:`stable_seed` folds heterogeneous identifying parts
(strings, ints, floats) through sha256 instead, so every process — and
every platform — derives the same child seed from the same parts.

The helper grew out of ``repro.experiments.failure_sweep.derived_seed``
and was promoted to :mod:`repro.core` when the collective-workload
subsystem needed the same discipline from inside :mod:`repro.traffic`
(which must not import the experiments layer).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def stable_seed(*parts: Any) -> int:
    """A cross-process-stable seed from heterogeneous parts.

    Built on sha256 (never the builtin ``hash``, which PYTHONHASHSEED
    randomizes), so harness worker processes agree with the parent.
    Parts must be JSON-serializable; the JSON encoding (sorted keys)
    makes the digest independent of dict insertion order.
    """
    material = json.dumps(list(parts), sort_keys=True)
    return int.from_bytes(
        hashlib.sha256(material.encode()).digest()[:8], "big"
    )
