"""Spans and call counters around gcsim's public functions, from outside.

The tracer replaces a function by a wrapper in every loaded ``gcsim``
module that holds a reference to it (modules import each other's
functions by name), or a method on its class.  Every wrapped call keeps a
per-name tally of calls, inclusive time and self time (inclusive minus the
time of wrapped calls made inside it).  Coarse calls additionally record a
span (name, start, end, parent) in memory; the caller writes them out when
the run ends.  Per-event calls such as ``LogicalClock.value`` record no
span, so a traced run stays usable.  Time that ``paused[0]`` grows by
during a call (the speed probes' own time) is left out of its times.
"""
from __future__ import annotations

import sys
import time


class Tracer:
    def __init__(self, paused: list):
        self.paused = paused
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._child = [0.0]  # child time of each open frame, root sentinel first
        self._open_spans: list[int] = []

    def _wrap(self, name: str, fn, span: bool, on_return=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        spans = self.spans
        open_spans = self._open_spans
        paused = self.paused
        clock = time.perf_counter

        if not span:
            def counted(*args, **kwargs):
                child.append(0.0)
                p0 = paused[0]
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0 - (paused[0] - p0)
                    inner = child.pop()
                    child[-1] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - inner
            return counted

        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1])
            open_spans.append(idx)
            child.append(0.0)
            p0 = paused[0]
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0 - (paused[0] - p0)
                inner = child.pop()
                child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                spans[idx][1] = t0
                spans[idx][2] = t1
                open_spans.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out
        return spanned

    def function(self, module: str, attr: str, span: bool = True, on_return=None) -> None:
        """Wrap ``module.attr`` wherever a gcsim module refers to it."""
        orig = getattr(sys.modules[module], attr)
        name = f"{module.rsplit('.', 1)[-1]}.{attr}"
        wrapped = self._wrap(name, orig, span, on_return)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gcsim" or mod_name.startswith("gcsim.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)

    def method(self, cls, attr: str) -> None:
        """Wrap a per-event method on its class: counts and times, no span."""
        orig = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        setattr(cls, attr, self._wrap(name, orig, span=False))

    def innermost(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open_spans[-1]][0] if self._open_spans else None

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]
