"""In-memory spans around calls into the massfractal modules.

The traced run replaces, for its duration, every public function of the
layer modules with a wrapper that records a span (name, start, end, parent,
op id) and, for a few calls, the sizes the per-layer ratios need.  The
wrappers are installed by rebinding module attributes (and the module-level
dispatch dictionaries that hold function references); no program source is
changed, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("core", "entropy", "multifractal", "cli", "oracle")


# Per-span sizes: name -> (args, result) -> (items in, items out).  A size
# that cannot be read from a changed API is recorded as missing, not fatal.
SIZERS = {
    "core.validate_mass_function": lambda a, r: (len(a[1]), r.focal_count),
    "entropy.as_profile_bands": lambda a, r: (a[0].focal_count, len(r)),
    "multifractal.dimension_from_profile": lambda a, r: (len(a[0]), 1),
    "multifractal.spectrum": lambda a, r: (a[0].focal_count, len(r.points)),
    "multifractal.spectrum_from_profile": lambda a, r: (len(a[0]), len(r.points)),
    "multifractal.dimension_sweep": lambda a, r: (
        len(r), sum(entry.error is not None for entry in r)),
    "multifractal.dimension_sweep_from_profile": lambda a, r: (
        len(r), sum(entry.error is not None for entry in r)),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "size")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.size = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds every span of one traced run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None
        self._patched: list = []

    def begin(self, name: str, op) -> int:
        self.op = op
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else None, op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack.pop()
        return span.seconds

    def wrap(self, name: str, fn):
        sizer = SIZERS.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name, self.op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if sizer is not None:
                try:
                    self.spans[index].size = sizer(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"massfractal.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self.wrap(f"{layer}.{attr}", value)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("massfractal"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((namespace, attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            value[key] = wrappers[item]
                            self._patched.append((value, key, item))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            holder[key] = original
        self._patched.clear()

    # --- analysis ---

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own
