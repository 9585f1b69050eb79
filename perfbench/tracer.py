"""Span tracer installed from outside the program under test.

``Tracer.install`` wraps every public function of the ``qpump`` modules
and rebinds the wrapper in *every* namespace that holds the function by
name: ``sample_cycle``, for example, is imported into ``shift``,
``optimal`` and ``transport``, and patching only the defining module would
miss the calls made through the other two.  ``PumpModel.eval``,
``ModelConfig.from_file`` and ``Filling.from_occupation`` are wrapped at
their classes.  ``uninstall`` restores every original binding.

Each call becomes a span (name, start, end, parent, operation id) kept in
memory; ``write`` saves them as tab-separated text.  Self time is a span's
duration minus the durations of its direct children; calls are strictly
nested on one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

#: Modules whose public functions are traced, by layer name.
LAYERS = ("matcore", "models", "shift", "transport", "optimal", "bathtub",
          "report", "cli")

#: (module, class, attribute) of methods traced at their class.
METHODS = (("models", "PumpModel", "eval"),
           ("models", "ModelConfig", "from_file"),
           ("bathtub", "Filling", "from_occupation"))


class Stat:
    __slots__ = ("calls", "total", "self_time", "out_bytes")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.out_bytes = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []   # (name index, start, end, parent span, op id)
        self.stats: dict[str, Stat] = {}
        self.op_id = -1
        self._stack: list[list] = []   # [span index, child time]
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, Stat())
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            slot = len(spans)
            spans.append(None)
            frame = [slot, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                spans[slot] = (index, start, end, parent, self.op_id)
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if isinstance(result, str):
                stat.out_bytes += len(result.encode("utf-8"))
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        layers = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, module in layers.items():
            for attr in module.__all__:
                fn = module.__dict__.get(attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in [package, *layers.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._set(module, attr, wrapped[id(value)][1])
        for layer, cls_name, attr in METHODS:
            cls = getattr(layers[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(f"{layer}.{attr}", raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(f"{layer}.{attr}", raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ output

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def write(self, path: str) -> None:
        """Spans as tab-separated text; times in microseconds from the first start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for i, (index, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{i}\t{self.names[index]}\t{1e6 * (start - origin):.3f}\t"
                             f"{1e6 * (end - origin):.3f}\t{parent}\t{op}\n")
