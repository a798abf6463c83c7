"""no-unseeded-rng: all randomness must flow through an injected RNG.

Module-level ``random.*`` / ``numpy.random.*`` calls draw from hidden
global state: two call sites interleave differently when code moves,
and reruns of "the same" experiment stop being byte-identical.  The
sanctioned pattern everywhere in this repository is a
``random.Random(seed)`` (or ``numpy.random.default_rng(seed)``)
constructed from an explicit seed and passed down.  Constructing one
with no seed, or a literal ``None``, seeds it from OS entropy instead,
so that is flagged too.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

#: ``random`` module functions that read or mutate the hidden global RNG.
_BANNED_RANDOM = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: ``numpy.random`` attributes that construct *seedable* generators —
#: everything else on the module draws from the hidden legacy global.
_ALLOWED_NUMPY = frozenset({
    "Generator", "RandomState", "SeedSequence", "default_rng",
})

#: Generator constructors that fall back to OS entropy without a seed.
_SEEDED_CONSTRUCTORS = frozenset({
    "random.Random", "numpy.random.default_rng", "numpy.random.RandomState",
})


def _unseeded(node: ast.Call) -> bool:
    """No seed argument at all, or only literal ``None``s."""
    values = list(node.args) + [keyword.value for keyword in node.keywords]
    return all(
        isinstance(value, ast.Constant) and value.value is None
        for value in values
    )


@register_rule
class NoUnseededRng(Rule):
    name = "no-unseeded-rng"
    summary = (
        "bare random.* / numpy.random.* module calls, or a generator "
        "built without a seed, instead of an injected Random(seed)"
    )
    invariant = (
        "every random draw is attributable to an explicit seed, so any "
        "experiment cell can be replayed bit-for-bit"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = context.resolve(node.func)
            if dotted is None:
                continue
            if dotted in _SEEDED_CONSTRUCTORS and _unseeded(node):
                yield self.finding(
                    context, node.lineno, node.col_offset,
                    f"'{dotted}' built without a seed draws from OS "
                    "entropy; pass an explicit seed",
                )
            parts = dotted.split(".")
            if parts[0] == "random" and len(parts) == 2:
                if parts[1] in _BANNED_RANDOM:
                    yield self.finding(
                        context, node.lineno, node.col_offset,
                        f"call to global-state '{dotted}'; construct a "
                        "random.Random(seed) and pass it down instead",
                    )
            elif parts[:2] == ["numpy", "random"] and len(parts) == 3:
                if parts[2] not in _ALLOWED_NUMPY:
                    yield self.finding(
                        context, node.lineno, node.col_offset,
                        f"call to legacy global '{dotted}'; use "
                        "numpy.random.default_rng(seed) and pass the "
                        "generator down instead",
                    )
