"""Span tracing of disclab's layers, installed from outside the package.

``Tracer.install`` wraps every public function of the layer modules
(setsystem, smoothing, fourier, inversion, solvers, harness, rng), plus
the JSON round trip of ``IncidenceMatrix``, and rebinds each wrapper
under every name a disclab module imported it as. The generators
``rng.stream`` returns are wrapped too, so the time spent drawing random
numbers counts towards the rng layer. Spans (name, start, end, parent,
counts) stay in memory; ``layer_metrics`` turns them into the per-layer
figures.

A span opened in a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent, so the thread pool
of ``run_theorem_experiment`` is charged to that call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time
import tracemalloc
from typing import Dict, List, Optional

LAYERS = ("setsystem", "smoothing", "fourier", "inversion", "solvers", "harness", "rng")
KERNELS = ("fourier.dhat_batch", "fourier.dhat_log_abs_batch", "fourier.dhat_partial")
MC_LOOPS = ("fourier.integrate_mc", "fourier.far_region_integral")
RHAT = ("smoothing.rhat_1d", "smoothing.rhat_md", "smoothing.parity_rhat")
FULL_ENUMS = ("solvers.coloring_disc_counts", "solvers.count_colorings_within")
ENUMS = FULL_ENUMS + ("solvers.exhaustive_min_disc",)
EXACT_QUERIES = ("inversion.prob_exact", "inversion.distribution_exact",
                 "solvers.count_colorings_within")
MATRIX_METHODS = ("to_dict", "from_dict")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "phase", "info")

    def __init__(self, sid, name, parent, phase):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.phase = phase
        self.info: Dict[str, float] = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "phase": self.phase, **self.info}


def _bound(f, args, kwargs):
    return inspect.signature(f).bind(*args, **kwargs).arguments


def _info_before(name, f, args, kwargs) -> Dict[str, float]:
    """Counts known from the arguments of a call."""
    if name in KERNELS:
        a = _bound(f, args, kwargs)
        if name == "fourier.dhat_partial":
            return {"points": 1, "columns": int(a["k"])}
        thetas = a["thetas"]
        th = getattr(thetas, "coords", thetas)
        rows = 1 if getattr(th, "ndim", 2) == 1 else len(th)
        return {"points": rows, "columns": a["A"].n}
    if name in MC_LOOPS:
        return {"samples": int(_bound(f, args, kwargs)["samples"])}
    if name in FULL_ENUMS or name in EXACT_QUERIES:
        return {"colorings": 2 ** _bound(f, args, kwargs)["A"].n}
    return {}


def _info_after(name, result) -> Dict[str, float]:
    """Counts known from the result of a call."""
    if name == "inversion.prob_fourier_mc":
        return {"samples": result.samples}
    if name in ("solvers.random_search", "solvers.local_search"):
        return {"flips": result.flips}
    if name == "harness.run_theorem_experiment":
        return {"flips": sum(row.flips for row in result.rows)}
    return {}


class _TracedGenerator:
    """A numpy Generator whose draw methods open rng spans."""

    def __init__(self, tracer: "Tracer", gen):
        self._tracer = tracer
        self._gen = gen

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        tracer = self._tracer

        def draw(*args, **kwargs):
            span = tracer.open("rng." + attr)
            try:
                return value(*args, **kwargs)
            finally:
                tracer.close(span)
        return draw


class Tracer:
    """Collects spans while ``phase`` is set; wraps disclab on ``install``."""

    def __init__(self):
        self.spans: List[Span] = []
        self.phase: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: List[int] = []
        self._patches = []

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Optional[Span]:
        if self.phase is None:
            return None
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), name, parent, self.phase)
        stack.append(span.sid)
        return span

    def close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, f):
        tracer = self
        kernel = name in KERNELS

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return f(*args, **kwargs)
            info = _info_before(name, f, args, kwargs)
            if kernel:
                tracemalloc.start()
            span = tracer.open(name)
            try:
                result = f(*args, **kwargs)
            finally:
                tracer.close(span)
                if kernel:
                    info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span.info.update(info)
            span.info.update(_info_after(name, result))
            if name == "rng.stream":
                return _TracedGenerator(tracer, result)
            return result
        return wrapper

    def install(self, package) -> None:
        """Wrap every layer function of ``package`` (the imported disclab)."""
        import importlib
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
        everything = [package] + [m for m in vars(package).values()
                                  if inspect.ismodule(m) and m.__name__.startswith(package.__name__)]
        for extra in ("cli", "suites"):
            everything.append(importlib.import_module(f"{package.__name__}.{extra}"))
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for mod in set(everything) | set(modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        cls = modules["setsystem"].IncidenceMatrix
        for attr in MATRIX_METHODS:
            raw = cls.__dict__[attr]
            self._patches.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(f"setsystem.IncidenceMatrix.{attr}", raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(f"setsystem.IncidenceMatrix.{attr}", raw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


# -- per-layer metrics ------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _round_metrics(spans: List[Span]) -> Dict[str, float]:
    by_id = {s.sid: s for s in spans}
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def self_time(names) -> float:
        total = 0.0
        for s in spans:
            if s.name in names:
                covered = [(max(c.start, s.start), min(c.end, s.end))
                           for c in children.get(s.sid, ())]
                total += s.duration - _union_length([iv for iv in covered if iv[1] > iv[0]])
        return total

    def pick(names):
        return [s for s in spans if s.name in names]

    def total(names, key=None) -> float:
        return float(sum(s.duration if key is None else s.info.get(key, 0) for s in pick(names)))

    def under_far(s: Span) -> bool:
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name == "fourier.far_region_integral":
                return True
            p = by_id[p].parent
        return False

    kernels = pick(KERNELS)
    kernel_s = total(KERNELS)
    walk_s = total(("solvers.random_search",))
    experiment = ("harness.run_theorem_experiment",)
    return {
        "fourier.kernel_s": kernel_s,
        "fourier.kernel_points": sum(s.info["points"] for s in kernels),
        "fourier.kernel_point_columns_per_s": _ratio(
            sum(s.info["points"] * s.info["columns"] for s in kernels), kernel_s),
        "fourier.kernel_peak_mb": max((s.info["peak_bytes"] for s in kernels), default=0) / 2 ** 20,
        "fourier.mc_self_s": self_time(MC_LOOPS),
        "fourier.far_hit_rate": _ratio(
            sum(s.info["points"] for s in kernels if under_far(s)),
            total(("fourier.far_region_integral",), "samples")),
        "smoothing.rhat_s": total(RHAT),
        "rng.s": sum(s.duration for s in spans if s.layer == "rng"),
        "inversion.mc_self_s": self_time(("inversion.prob_fourier_mc",)),
        "inversion.assembly_self_s": self_time(("inversion.three_region_assembly",)),
        "inversion.exact_self_s": self_time(("inversion.prob_exact", "inversion.distribution_exact")),
        "inversion.exact_colorings_per_s": _ratio(
            total(EXACT_QUERIES, "colorings"), total(EXACT_QUERIES)),
        "solvers.enum_per_exact_query": _ratio(len(pick(FULL_ENUMS)), len(pick(EXACT_QUERIES))),
        "solvers.enum_s": total(ENUMS),
        "solvers.enum_colorings_per_s": _ratio(total(FULL_ENUMS, "colorings"), total(FULL_ENUMS)),
        "solvers.walk_s": walk_s,
        "solvers.walk_flips_per_s": _ratio(total(("solvers.random_search",), "flips"), walk_s),
        "solvers.local_s": total(("solvers.local_search",)),
        "harness.self_s": self_time(experiment),
        "harness.walk_flips_per_s": _ratio(total(experiment, "flips"), total(experiment)),
    }


def _build_time(spans: List[Span]) -> float:
    """Time in setsystem spans not nested in another setsystem span."""
    names = {s.sid: s.name for s in spans}
    return sum(s.duration for s in spans
               if s.layer == "setsystem" and not names.get(s.parent, "").startswith("setsystem."))


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer figures: set-up from the "setup:*" phases, the rest per
    "round:*" phase; each is the median over its phases."""
    phases: Dict[str, List[Span]] = {}
    for s in spans:
        phases.setdefault(s.phase, []).append(s)
    setups = [_build_time(v) for k, v in phases.items() if k.startswith("setup:")]
    rounds = [_round_metrics(v) for k, v in phases.items() if k.startswith("round:")]
    out = {"setsystem.build_s": statistics.median(setups)}
    for key in rounds[0]:
        out[key] = statistics.median(r[key] for r in rounds)
    return out
