"""Layer spans recorded from outside the program.

A :class:`SpanRecorder` replaces a layer's public functions and methods
with timing wrappers for the length of a ``with`` block, and restores
them afterwards.  Spans nest: a call into one layer made while another
layer's span is open counts as that span's child, so every layer gets a
*self* time (its own duration minus its children's), and the self times
of all layers plus the time outside every span add up to the traced
wall time exactly.

A call into a layer whose span is already the innermost open one (the
adaptive router delegating to its active scheme's ``sample``) is part
of that span, not a new one, so call counts are counts of entries into
the layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Inclusive time, self time and call counts per layer name.

    ``install`` wraps the layers when the recorder is entered as a
    context manager; leaving it restores every wrapped attribute.
    """

    def __init__(self, install: Callable[["SpanRecorder"], None]) -> None:
        self.install = install
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Sizes of results, for layers wrapped with ``size_of``.
        self.items: Counter = Counter()
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping --------------------------------------------------------

    def _wrapper(
        self,
        layer: str,
        func: Callable[..., Any],
        size_of: Optional[Callable[[Any], int]],
    ) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == layer:
                return func(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self.total[layer] += elapsed
                self.self_time[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if size_of is not None:
                self.items[layer] += size_of(result)
            return result

        return wrapper

    def wrap_method(
        self,
        owner: type,
        name: str,
        layer: str,
        size_of: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Time ``owner.name`` (a method defined on ``owner`` itself)."""
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self._wrapper(layer, original, size_of))

    def wrap_function(
        self,
        func: Callable[..., Any],
        layer: str,
        size_of: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Time a module-level function wherever a ``repro`` module binds it.

        ``from x import f`` copies the binding, so every loaded module of
        the package that holds ``func`` gets the wrapper, including the
        ones later lazy imports read from.
        """
        wrapper = self._wrapper(layer, func, size_of)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "SpanRecorder":
        try:
            self.install(self)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *_exc: object) -> None:
        self.restore()
