"""In-memory layer spans around the program's public functions.

The traced run wraps calls into each layer from *outside* the program:
:func:`instrument` replaces public functions and methods with timing
wrappers, and :class:`SpanRecorder` keeps every span (name, start,
end, parent span, thread) in memory until the run ends.  Nothing here
edits ``src/repro``; undoing the patches restores the originals.  The
paper's seven hydro timers are not wrapped: the program's own
``TraceRecorder`` already times them (``category="kernel"``), and
:func:`graft_kernel_spans` adds those spans to the tree.

With ``track_alloc`` each span also records its ``tracemalloc`` peak:
the peak is reset at every span start, and the highest traced memory
seen while the span was open (minus what was live when it opened) is
the span's largest temporary.  The peak is process-wide, so with
concurrent threads (the service's workers) it also counts the other
threads' allocations.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: the paper's seven hydro timers, as the driver labels its kernel spans
TIMERS = ("upGeo", "upCor", "upBarEx", "upBarAc", "upBarDu", "upBarAcF", "upBarDuF")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    tid: int = 0
    #: bytes above the span-start baseline at the tracemalloc peak
    peak_bytes: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_row(self) -> list[Any]:
        return [
            self.name,
            self.start,
            self.end,
            self.parent,
            self.tid,
            self.peak_bytes,
            self.attrs,
        ]

    @classmethod
    def from_row(cls, row: list[Any]) -> "Span":
        name, start, end, parent, tid, peak, attrs = row
        return cls(name, start, end, parent, tid, peak, dict(attrs))


class _Frame:
    __slots__ = ("index", "baseline", "peak")

    def __init__(self, index: int, baseline: int):
        self.index = index
        self.baseline = baseline
        self.peak = baseline


class SpanRecorder:
    """Thread-aware span store with optional allocation peaks."""

    def __init__(self, *, track_alloc: bool = False):
        self.spans: list[Span] = []
        self.track_alloc = track_alloc
        self._local = threading.local()
        self._lock = threading.Lock()
        #: frames of every open span on every thread (peak bookkeeping)
        self._open: list[_Frame] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            record = Span(
                name,
                start=0.0,
                parent=stack[-1].index if stack else None,
                tid=threading.get_ident(),
                attrs=attrs,
            )
            self.spans.append(record)
            frame = _Frame(len(self.spans) - 1, 0)
            if self.track_alloc:
                current, peak = tracemalloc.get_traced_memory()
                # the reset below erases the open spans' peaks so far
                for other in self._open:
                    other.peak = max(other.peak, peak)
                tracemalloc.reset_peak()
                frame.baseline = frame.peak = current
            self._open.append(frame)
        stack.append(frame)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._open.remove(frame)
                if self.track_alloc:
                    peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
                    record.peak_bytes = peak - frame.baseline
                    for other in self._open:
                        other.peak = max(other.peak, peak)

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        count: Callable[[tuple, dict, Any], dict[str, Any]] | None = None,
    ) -> Callable:
        """``fn`` inside a span; ``name`` may depend on the arguments,
        and ``count(args, kwargs, result)`` adds counts to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.attrs.update(count(args, kwargs, result))
            return result

        return wrapper


# ----------------------------------------------------------------------
# span tree arithmetic


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for k, s in enumerate(spans):
        if s.parent is not None:
            out.setdefault(s.parent, []).append(k)
    return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    kids = children_of(spans)
    out = []
    for k, s in enumerate(spans):
        covered = _covered(
            [(spans[c].start, spans[c].end) for c in kids.get(k, ())], s.start, s.end
        )
        out.append(max(0.0, (s.end - s.start) - covered))
    return out


def outermost(spans: list[Span], prefix: str) -> list[int]:
    """Indices of spans named ``prefix*`` with no ancestor of that prefix
    (so nested searches are not counted twice)."""
    out = []
    for k, s in enumerate(spans):
        if not s.name.startswith(prefix):
            continue
        p = s.parent
        while p is not None and not spans[p].name.startswith(prefix):
            p = spans[p].parent
        if p is None:
            out.append(k)
    return out


def clock_offset(tracer) -> float:
    """``time.perf_counter()`` minus ``tracer.now()``: turns the times of a
    ``TraceRecorder`` on the default clock into span times."""
    before = time.perf_counter()
    now = tracer.now()
    after = time.perf_counter()
    return (before + after) / 2 - now


def graft_kernel_spans(spans: list[Span], events: list, offset: float) -> list[Span]:
    """``spans`` plus the program tracer's hydro-kernel spans.

    Each kernel span of :data:`TIMERS` in ``events`` (the tracer's
    ``SpanEvent`` list, its times shifted by ``offset``) becomes a
    ``sph.<timer>`` child of the ``timestep.step`` span that ran it.
    That step is found through the tracer's own ``step`` span on the
    same tracer thread: the ``timestep.step`` wrapper starting closest to
    it (concurrent service workers each have their own).  Times are
    clipped to the parent, which absorbs the sub-microsecond error of
    :func:`clock_offset`.
    """
    out = list(spans)
    steps = [k for k, s in enumerate(spans) if s.name == "timestep.step"]
    step_events: dict[tuple[int, int], list] = {}
    for e in events:
        if e.category == "step":
            step_events.setdefault((e.pid, e.tid), []).append(e)
    for e in events:
        if e.category != "kernel" or e.name not in TIMERS or not steps:
            continue
        owner = next(
            (s for s in step_events.get((e.pid, e.tid), ()) if s.start <= e.start and e.end <= s.end),
            None,
        )
        if owner is None:
            continue
        k = min(steps, key=lambda j: abs(spans[j].start - (owner.start + offset)))
        parent = spans[k]
        start = min(max(e.start + offset, parent.start), parent.end)
        end = min(max(e.end + offset, start), parent.end)
        out.append(Span(f"sph.{e.name}", start, end, k, parent.tid))
    return out


# ----------------------------------------------------------------------
# patching the program's public layer boundaries


class _FFTProxy:
    """Stands in for ``repro.xp`` inside ``repro.hacc.pm`` only, so the
    PM solver's FFTs are timed without touching other FFT callers."""

    def __init__(self, xp, recorder: SpanRecorder):
        self._xp = xp
        self.rfftn = recorder.wrap(xp.rfftn, "pm.fft")
        self.irfftn = recorder.wrap(xp.irfftn, "pm.fft")

    def __getattr__(self, name: str):
        return getattr(self._xp, name)


def _search_count(args, kwargs, result):
    """Pairs found, and whether the search fell back to brute force
    (``None`` when ``find_pairs`` binned its own list: the child
    ``neighbors.build`` span then says)."""
    cell_list = kwargs.get("cell_list")
    brute = None if cell_list is None else int(not cell_list.use_cells)
    return {"pairs": int(len(result[0])), "brute": brute}


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every benchmarked layer boundary; returns the undo."""
    from repro import xp
    from repro.hacc import halo, neighbors, pm, short_range, timestep
    from repro.hacc.sph import pairs as sph_pairs
    from repro.service import workers

    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(owner: Any, attr: str, name, count=None) -> None:
        patch(owner, attr, recorder.wrap(getattr(owner, attr), name, count))

    def patch_classmethod(cls: type, attr: str, name, count=None) -> None:
        original = cls.__dict__[attr].__func__
        patch(cls, attr, classmethod(recorder.wrap(original, name, count)))

    # neighbours: the public search entry points, wherever imported.
    # PairContext.build queries the step's shared CellList directly;
    # that query is part of the SPH pair build, not of this layer.
    for module in (neighbors, short_range, sph_pairs, halo):
        patch_function(module, "find_pairs", "neighbors.search", _search_count)
    patch_classmethod(
        neighbors.CellList,
        "build",
        "neighbors.build",
        lambda a, k, r: {"brute": int(not r.use_cells)},
    )
    patch_function(neighbors.CellListCache, "get", "neighbors.cache_get")

    # short-range gravity: evaluation around its (memoised) pair list
    patch_function(short_range.ShortRangeSolver, "accelerations", "short_range.eval")
    patch_function(
        short_range.ShortRangeSolver,
        "pair_list",
        "short_range.pair_list",
        lambda a, k, r: {"pairs": int(len(r[0]))},
    )

    # the SPH pair context (the hydro timers are the program's own spans)
    patch_classmethod(
        sph_pairs.PairContext,
        "build",
        "sph.pairs.build",
        lambda a, k, r: {"pairs": int(r.n_pairs)},
    )

    # particle-mesh gravity
    patch_function(pm.PMSolver, "accelerations", "pm.accelerations")
    patch_function(pm, "cic_deposit", "pm.deposit")
    patch_function(pm, "cic_interpolate", "pm.interp")
    patch(pm, "xp", _FFTProxy(xp, recorder))

    # the integrator, each step tagged with the hydro interactions it
    # added to the driver's own WorkloadTrace; the initial conditions
    counted: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def hydro_interactions(args, kwargs, result):
        driver = args[0]
        total = sum(
            i.n_workitems * i.interactions_per_item
            for i in driver.trace.invocations
            if i.name in TIMERS
        )
        before = counted.get(driver, 0.0)
        counted[driver] = total
        return {"interactions": total - before}

    patch_function(timestep.AdiabaticDriver, "step", "timestep.step", hydro_interactions)
    patch_function(timestep, "zeldovich_ics", "ic.zeldovich")

    # the service's per-job products and IC path
    patch_function(workers, "zeldovich_ics", "ic.zeldovich")
    patch_function(workers, "measure_power_spectrum", "analysis.power_spectrum")
    patch_function(workers, "fof", "halo.fof")

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo
