"""In-memory spans and call counters around calls into efs's public functions.

A function is replaced under the name its caller looks it up by, so the
wrapper sees exactly the calls the program makes.  A span records
``[name, start, end, parent]``; spans are kept in memory and written out when
the benchmark ends.  Functions called hundreds of thousands of times per run
(the inner solver's gradient) are recorded as a call count and a total time
only.  The program runs single-threaded, so a span's children run one after
another inside it and its self time is its duration minus theirs.
"""

from __future__ import annotations

import json
import time


def clock() -> float:
    """CLOCK_MONOTONIC seconds; the same clock in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans and counters recorded while patched functions are installed."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patches = []

    # -- spans opened by the benchmark itself ------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int):
        self.spans[idx][2] = clock()
        self._stack.pop()

    # -- patching ------------------------------------------------------------

    def add_span(self, module, attr: str, name: str):
        """Record a span around every call of ``module.attr``."""
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)

        self._patches.append((module, attr, orig, wrapper))

    def add_counter(self, module, attr: str, name: str, on_result=None):
        """Count calls of ``module.attr`` and their total time.

        ``on_result(args, result)`` is called after each successful call.
        """
        orig = getattr(module, attr)
        counter = self.counters.setdefault(name, {"calls": 0, "seconds": 0.0})

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                counter["calls"] += 1
                counter["seconds"] += clock() - t0
            if on_result is not None:
                on_result(args, out)
            return out

        self._patches.append((module, attr, orig, wrapper))

    def install(self):
        for module, attr, _orig, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, orig, _wrapper in self._patches:
            setattr(module, attr, orig)

    def reset_counters(self):
        for counter in self.counters.values():
            counter.update(calls=0, seconds=0.0)

    # -- analysis --------------------------------------------------------------

    def self_seconds(self):
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def subtree(self, root: int):
        """Indices of ``root`` and every span below it (spans are in start order)."""
        inside = {root}
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx][3] in inside:
                inside.add(idx)
        return sorted(inside)

    def layer_self(self, root: int) -> dict:
        """Self seconds summed per layer (the span-name prefix) under ``root``."""
        own = self.self_seconds()
        out = {}
        for idx in self.subtree(root):
            layer = self.spans[idx][0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own[idx]
        return out

    def durations(self, name: str, roots):
        """Durations of the spans called ``name`` under the given roots."""
        allowed = set()
        for root in roots:
            allowed.update(self.subtree(root))
        return [end - start for idx, (n, start, end, _p) in enumerate(self.spans)
                if n == name and idx in allowed]

    def containment_errors(self):
        """Spans that start before or end after their parent."""
        bad = []
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent is None:
                continue
            _pname, pstart, pend, _pp = self.spans[parent]
            if start < pstart or end > pend:
                bad.append(idx)
        return bad

    def write(self, path, origin: float):
        """Write spans as JSON, with times in seconds from ``origin``."""
        rows = [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent}
                for name, start, end, parent in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": rows, "counters": self.counters}, f)
