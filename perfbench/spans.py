"""In-memory span tracing around the library's functions, installed from outside.

A Tracer rebinds named functions in every loaded quadperfect module (and
methods on named classes) to wrappers.  Span targets record one span per call
(name, start, end, parent); counter targets, for functions called millions of
times per scan, only add to a call count and a time total, so they are not
children of any span and their time stays inside their caller's self time.
A target that no longer exists is recorded as missing and skipped.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  "Class.method" patches a class attribute.
SPAN_TARGETS = (
    ("quadperfect.scan", "scan_shard", "scan.shard"),
    ("quadperfect.scan", "_coords", "scan.coords"),
    ("quadperfect.scan", "_factor_segment", "scan.sieve"),
    ("quadperfect.splitting", "factor_integer", "splitting.factor_integer"),
    ("quadperfect.splitting", "prime_above", "splitting.prime_above"),
    ("quadperfect.factorize", "factor_element", "factorize.factor_element"),
    ("quadperfect.abundancy", "index_n", "abundancy.index_n"),
    ("quadperfect.prospect", "search_t_perfect", "prospect.search_t_perfect"),
    ("quadperfect.prospect", "search_powerfully", "prospect.search_powerfully"),
    ("quadperfect.prospect", "direct_scan", "prospect.direct_scan"),
)
COUNTER_TARGETS = (
    ("quadperfect.splitting", "_classify", "splitting.classify"),
    ("quadperfect.ring", "try_div", "ring.try_div"),
    ("quadperfect.ring", "canonicalize", "ring.canonicalize"),
    ("quadperfect.abundancy", "SurdSum.__mul__", "abundancy.surd_mul"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, attrs]
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        # Bookkeeping time (counting distinct norms) is cut out of every span.
        self.paused = 0.0
        self._last_norms = None

    def now(self) -> float:
        return time.perf_counter() - self.paused

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPAN_TARGETS:
            self._patch(module, attr, name, self._span_wrapper)
        for module, attr, name in COUNTER_TARGETS:
            self._patch(module, attr, name, self._counter_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module: str, attr: str, name: str, make) -> None:
        mod = sys.modules.get(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, fn_name, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(name, original)
        if owner_name:
            # Every class attribute bound to this function (e.g. __rmul__ = __mul__).
            holders = [(owner, k) for k, v in vars(owner).items() if v is original]
        else:
            # Every quadperfect module that imported the function by name.
            holders = [
                (m, k)
                for mname, m in list(sys.modules.items())
                if mname == "quadperfect" or mname.startswith("quadperfect.")
                for k, v in vars(m).items()
                if v is original
            ]
        for holder, key in holders:
            self._undo.append((holder, key, original))
            setattr(holder, key, wrapper)

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, now = self.spans, self.stack, self.now

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, now(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if name == "scan.coords":
                span[4] = {"elements": int(result[2].size)}
                self._last_norms = result[2]
            elif name == "scan.shard":
                span[4] = {"hits": len(result), "distinct_norms": self._distinct_norms()}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _distinct_norms(self) -> int:
        t0 = time.perf_counter()
        norms, self._last_norms = self._last_norms, None
        count = 0 if norms is None else int(np.unique(norms).size)
        self.paused += time.perf_counter() - t0
        return count

    def _counter_wrapper(self, name: str, fn):
        calls, seconds = self.calls, self.seconds
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading --------------------------------------------------------

    def summarize(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "seconds", "self_seconds"} over span and counter targets."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["seconds"] += end - start
            row["self_seconds"] += end - start - child_time[i]
        for name, n in self.calls.items():
            out[name]["calls"] += n
            out[name]["seconds"] += self.seconds[name]
            out[name]["self_seconds"] += self.seconds[name]
        return dict(out)

    def children(self, idx: int, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] == idx and s[0] == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")
            for name, n in sorted(self.calls.items()):
                fh.write(json.dumps({"counter": name, "calls": n, "seconds": self.seconds[name]}) + "\n")
