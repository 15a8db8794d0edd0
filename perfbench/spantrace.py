"""Outside-in tracing of a package's public functions.

``Patcher`` swaps a function or method for a wrapper. A module-level
function is replaced under every name that holds it in the package's
modules, including dicts at module level such as ``layers.ACTIVATIONS``:
a name bound by ``from x import f`` or captured in a table at import time
is looked up there, not in the defining module, and a wrapper installed
only at the definition would leave those calls untimed without a warning.

``Tracer`` records one span (name, start, end, parent) per wrapped call in
memory, plus optional per-call counters computed from arguments and
results. ``summarize`` turns spans into inclusive time, self time (the
span minus the part its child spans cover) and call counts per name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

# A counter takes (args, kwargs, result) and yields (key, amount) pairs.
Counter = Callable[[tuple, dict, object], Iterable[tuple[str, float]]]


class Patcher:
    """Replaces functions inside one package and undoes it on ``restore``."""

    def __init__(self, package: str):
        self.package = package
        self._undo: list[Callable[[], None]] = []

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def replace(self, module_name: str, qualname: str, make_wrapper: Callable) -> Callable:
        """Wrap ``module_name.qualname``; returns the original function.

        ``qualname`` is ``func`` or ``Class.method``.
        """
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{module_name}.{qualname} is not a plain function")
        wrapper = make_wrapper(original)
        if inspect.isclass(owner):
            self._set(owner, attr, wrapper)
            return original
        rebound = 0
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)
                    rebound += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set_item(value, key, wrapper)
                            rebound += 1
        if rebound == 0:
            raise LookupError(f"{module_name}.{qualname} is bound nowhere in {self.package}")
        return original

    def _set(self, owner, attr: str, value) -> None:
        previous = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, previous))

    def _set_item(self, table: dict, key, value) -> None:
        previous = table[key]
        table[key] = value
        self._undo.append(lambda: table.__setitem__(key, previous))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """In-memory span recorder for single-threaded code."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrapper(self, name: str, counter: Optional[Counter] = None) -> Callable:
        """Return a ``make_wrapper`` for ``Patcher.replace`` recording ``name``."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                record = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                record[1] = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if counter is not None:
                    for key, amount in counter(args, kwargs, result):
                        counts[f"{name}.{key}"] += amount
                return result
            return traced
        return make


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per name: ``s`` (inclusive, nested same-name spans counted once),
    ``self_s`` and ``calls``."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["s"] += end - start
    return out
