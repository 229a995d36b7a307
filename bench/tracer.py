"""In-memory span tracer that wraps gmmodes' public functions from outside.

A span is ``[name, start, end, parent, work]``: ``start``/``end`` are
``time.monotonic()`` readings (one clock for every process on the
machine, so spans written by a child process merge with the parent's),
``parent`` is the index of the enclosing span or -1, and ``work`` is a
per-call count (rows, rows x components, or the find_critical_points
start counts). Spans stay in a list until the run ends.

This module imports no numpy, so a traced child can import it before
``gmmodes``.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

# Batched Mixture methods: work is rows (and rows x components for log_terms).
MIXTURE_METHODS = ("log_terms", "log_density", "responsibilities", "grad_over_density")
LAYERS = ("mixture", "modefinder", "constructions", "cli")


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _work(name: str, args, result):
    if name == "mixture.log_terms":
        return _rows(args[1]) * args[0].k
    if name.startswith("mixture.") and name[8:] in MIXTURE_METHODS:
        return _rows(args[1])
    if name == "modefinder.find_critical_points":
        return [result.starts_used, result.starts_converged, len(result.critical_points)]
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original) while installed

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.monotonic(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, work=None) -> None:
        span = self.spans[sid]
        span[2] = time.monotonic()
        span[4] = work
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            work = None
            try:
                result = fn(*args, **kwargs)
                work = _work(name, args, result)
                return result
            finally:
                self.end(sid, work)

        return traced

    def install(self, modules) -> None:
        """Wrap every public function of the gmmodes layer modules.

        Each original is replaced wherever a module holds a reference to
        it, because ``modefinder`` and ``cli`` import names such as
        ``evaluate`` and ``default_starts`` into their own namespaces.
        """
        wrappers = {}
        mixture = modules["mixture"]
        for meth in MIXTURE_METHODS:
            self._patch(mixture.Mixture, meth, self.wrap(f"mixture.{meth}", getattr(mixture.Mixture, meth)))
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                obj = getattr(mod, n)
                if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == mod.__name__:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{n}", obj)  # keeps obj alive, so ids stay unique
        for mod in modules.values():
            for n, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, n, wrappers[id(obj)])

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put back every original that :meth:`install` replaced."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, t0, t1, par, work in spans:
            self.spans.append([name, t0, t1, parent if par < 0 else base + par, work])

    def dump(self, path: str, env: dict | None = None) -> None:
        """Write the spans as gzipped JSON: names as indices into ``names``,
        times in integer microseconds from the first span's start."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((a - t0) * 1e6), round((b - t0) * 1e6), p, w] for n, a, b, p, w in self.spans]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"env": env or {}, "names": names, "fields": ["name", "start_us", "end_us", "parent", "work"],
                       "spans": rows}, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list[list], root: int, end: int, selfs: list[float]) -> dict:
    """Per-layer totals over spans[root:end], the subtree of one pass span."""
    m: dict[str, float] = {}

    def add(key, v):
        m[key] = m.get(key, 0.0) + v

    fcp = "modefinder.find_critical_points"
    for i in range(root + 1, end):
        name, _, _, parent, work = spans[i]
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            continue
        add(f"{layer}.self_s", selfs[i])
        add(f"{name}.self_s", selfs[i])
        add(f"{name}.calls", 1)
        if name == "mixture.log_terms" and work is not None:
            add("mixture.log_terms.point_components", work)
        elif name.startswith("mixture.") and name[8:] in MIXTURE_METHODS and work is not None:
            add(f"{name}.rows", work)
        elif name == fcp and work is not None:
            add("modefinder.starts_used", work[0])
            add("modefinder.starts_converged", work[1])
            add("modefinder.distinct_points", work[2])
        elif name == "mixture.evaluate":
            p = parent
            while p >= 0 and spans[p][0] != fcp:
                p = spans[p][3]
            if p >= 0:
                add("modefinder.fcp_evaluate_calls", 1)
    return m
