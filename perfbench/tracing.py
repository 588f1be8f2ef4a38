"""Spans around the public rowpack calls a workload makes, with a profile per call.

A workload reaches the library only through `wrap(name, fn)` and `op(kind)`.
Untraced, `wrap` returns `fn` itself and `op` does nothing, so measured runs
carry no tracing cost.  Traced, every wrapped call becomes a span (name,
start, end, parent) and runs under its own cProfile profiler; the profile is
folded into per-span-name totals keyed by (rowpack module, function).  That
gives self time and call counts for the modules that have no call boundary
in a workload (quadint inside search, max_violation inside to_svg, ...).

`count(module, name)` is the cheaper alternative for a pure-Python kernel
the library calls as a module global: under a profiler every Python
instruction runs 2-3x slower, so it replaces the global with a wrapper that
counts calls and sums their wall time.
"""
from __future__ import annotations

import contextlib
import cProfile
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("quadint", "packings", "search", "improve", "tables", "compactor", "render", "theory")


class NullTracer:
    traced = False

    def wrap(self, name, fn, profile=True):
        return fn

    def op(self, kind):
        return contextlib.nullcontext()

    def count(self, module, name):
        pass


def _code_owners() -> dict:
    """code object -> (module, qualname) for every rowpack function.

    Dataclass-generated methods (`__init__`, `__eq__`, ...) are compiled
    from strings, so their file name says nothing; they are found through
    the classes that own them.
    """
    owners = {}
    for name in MODULES:
        mod = importlib.import_module(f"rowpack.{name}")
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr_name, attr in vars(obj).items():
                    fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                    code = getattr(fn, "__code__", None)
                    if code is not None:
                        owners[code] = (name, f"{obj.__qualname__}.{attr_name}")
    return owners


class Tracer:
    traced = True

    def __init__(self) -> None:
        import rowpack

        self._src = Path(rowpack.__file__).resolve().parent
        self._owners = _code_owners()
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self.spans: list[list] = []  # [id, name, start_s, end_s, parent_id]
        # span name -> (module, qualname) -> [calls, self_s]
        self.profile: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.last: dict = {}  # profile of the most recent wrapped call
        self.counted: dict = {}  # "module.name" -> [calls, busy_s], from count()

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, name, time.perf_counter() - self._t0, None, parent]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            span[3] = time.perf_counter() - self._t0

    def op(self, kind: str):
        return self._span(f"op.{kind}")

    def wrap(self, name: str, fn, profile: bool = True):
        def traced(*args, **kwargs):
            prof = cProfile.Profile(builtins=False) if profile else None
            with self._span(name):
                if prof is None:
                    return fn(*args, **kwargs)
                prof.enable()
                try:
                    return fn(*args, **kwargs)
                finally:
                    prof.disable()
                    self.last = self._fold(name, prof)

        return traced

    def count(self, module, name: str) -> None:
        """Count calls to, and wall time inside, `module.name` for the rest of this process.

        Only calls that look the name up in `module` (as a global) are seen.
        """
        fn = getattr(module, name)
        acc = self.counted.setdefault(f"{module.__name__.rpartition('.')[2]}.{name}", [0, 0.0])

        def counted(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += 1
                acc[1] += time.perf_counter() - t

        setattr(module, name, counted)

    def _fold(self, name: str, prof: cProfile.Profile) -> dict:
        call = {}
        totals = self.profile[name]
        for entry in prof.getstats():
            code = entry.code
            if isinstance(code, str):
                continue
            key = self._owners.get(code)
            if key is None:
                path = Path(code.co_filename)
                if path.parent != self._src:
                    continue
                key = (path.stem, code.co_qualname)
            call[key] = (entry.callcount, entry.inlinetime)
            acc = totals[key]
            acc[0] += entry.callcount
            acc[1] += entry.inlinetime
        return call

    # summaries ---------------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def calls(self, module: str, qualname: str | None = None, spans=None) -> int:
        return self._sum(0, module, qualname, spans)

    def self_s(self, module: str, qualname: str | None = None, spans=None) -> float:
        return self._sum(1, module, qualname, spans)

    def _sum(self, field: int, module: str, qualname: str | None, spans) -> float:
        """Sum one profile field over the given span names (default: all)."""
        return sum(
            v[field]
            for name in (self.profile if spans is None else spans)
            for key, v in self.profile.get(name, {}).items()
            if key[0] == module and (qualname is None or key[1] == qualname)
        )

    def modules(self) -> dict:
        out = {}
        for name in self.profile.values():
            for (module, _), (calls, self_s) in name.items():
                m = out.setdefault(module, {"calls": 0, "self_s": 0.0})
                m["calls"] += calls
                m["self_s"] += self_s
        return out
