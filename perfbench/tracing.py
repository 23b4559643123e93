"""Spans around the calls into noisylab's public functions, installed from outside.

A :class:`Tracer` wraps each target in a span with a name, a start, an end and a
parent span. Per-layer statistics (calls, inclusive seconds, self seconds and
the extra counts) accumulate in memory for every traced round; the spans
themselves are kept only while ``record_spans`` is set, and written once, at
the end, by the caller.

Many targets are bound by name in other modules (``select_best_hypothesis`` in
``sep`` and ``icesep``, most of ``learn`` in ``bench.scenarios``), so
:meth:`Tracer.install` replaces a function in every loaded ``noisylab`` module
that holds it, not only where it is defined. Methods and properties are
wrapped on their class. :meth:`Tracer.uninstall` puts every original back, so
traced and untraced rounds can alternate in one process.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter
SCENARIO_LAYER = "bench.scenario"


@dataclass(frozen=True)
class Target:
    """One traced entry point.

    ``owner`` is a module or class path (``"noisylab.codes"``,
    ``"noisylab.codes.ReceivedWord"``) and ``attr`` the attribute on it.
    ``count`` maps the call's arguments to an extra count named
    ``<layer>.<count_name>``. ``span=False`` only counts calls, for targets hit
    so often that a span per call would dominate the run. ``durations=True``
    keeps each call's duration so a median per call can be reported.
    """

    layer: str
    owner: str
    attr: str
    count_name: str | None = None
    count: Callable[..., int] | None = None
    span: bool = True
    durations: bool = False


def _resolve(path: str):
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:i]))
        if mod is not None:
            obj = mod
            for p in parts[i:]:
                obj = getattr(obj, p)
            return obj
    raise LookupError(f"{path} is not loaded")


class LayerStats:
    __slots__ = ("calls", "s", "self_s", "extra", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.extra = 0
        self.durations: list[float] = []


class Tracer:
    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # frames: [span id, child seconds]
        self._depth: dict[str, int] = {}
        self._next_id = 0
        self.record_spans = False
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._undo: list[Callable[[], None]] = []

    def reset(self) -> None:
        """Clear per-layer statistics before a new traced round."""
        self.stats = {t.layer: LayerStats() for t in self.targets}
        self.stats[SCENARIO_LAYER] = LayerStats()

    def _wrap(self, t: Target, fn: Callable) -> Callable:
        layer = t.layer
        count = t.count
        if not t.span:

            def counted(*args, **kwargs):
                self.stats[layer].calls += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        depth = self._depth
        depth.setdefault(layer, 0)
        keep_durations = t.durations

        def traced(*args, **kwargs):
            st = self.stats[layer]
            if count is not None:
                st.extra += count(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[layer] += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                st.calls += 1
                st.self_s += dur - frame[1]
                if depth[layer] == 0:  # inclusive time of the outermost call only
                    st.s += dur
                if keep_durations:
                    st.durations.append(dur)
                if stack:
                    stack[-1][1] += dur
                if self.record_spans:
                    self.spans.append((span_id, layer, t0, t1, parent))

        return traced

    def run_scenario(self, fn: Callable, *args):
        """Call ``fn`` (``run_scenario``) inside the ``bench.scenario`` span."""
        return self._wrap(Target(SCENARIO_LAYER, "", ""), fn)(*args)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("noisylab") and m]
        for t in self.targets:
            owner = _resolve(t.owner)
            if isinstance(owner, type):
                original = owner.__dict__[t.attr]
                if isinstance(original, property):
                    wrapped = property(self._wrap(t, original.fget))
                else:
                    wrapped = self._wrap(t, original)
                setattr(owner, t.attr, wrapped)
                self._undo.append(lambda o=owner, a=t.attr, v=original: setattr(o, a, v))
                continue
            original = getattr(owner, t.attr)
            wrapped = self._wrap(t, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._undo.append(lambda m=mod, n=name, v=original: setattr(m, n, v))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """This round's per-layer figures as ``{name: (value, unit)}``."""
        out: dict[str, tuple[float, str]] = {}
        for t in self.targets:
            st = self.stats[t.layer]
            out[f"{t.layer}.calls"] = (st.calls, "count")
            if t.span:
                out[f"{t.layer}.s"] = (st.s, "s")
                out[f"{t.layer}.self_s"] = (st.self_s, "s")
            if t.count_name:
                out[f"{t.layer}.{t.count_name}"] = (st.extra, "count")
            if t.durations:
                d = sorted(st.durations)
                med = 0.0
                if d:
                    mid = len(d) // 2
                    med = d[mid] if len(d) % 2 else (d[mid - 1] + d[mid]) / 2
                out[f"{t.layer}.median_ms"] = (med * 1e3, "ms")
        scen = self.stats[SCENARIO_LAYER]
        out[f"{SCENARIO_LAYER}.s"] = (scen.s, "s")
        out[f"{SCENARIO_LAYER}.self_s"] = (scen.self_s, "s")
        return out
