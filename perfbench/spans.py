"""In-memory spans at the layer boundaries of ``repro``, and their self times.

The benchmark never edits the package.  A traced iteration installs
:class:`Instrumentation`, which rebinds the public functions at each layer
boundary (``NPBBenchmark.run``, ``repro.core.criticality.backward``,
``ResultStore.load``, ...) to wrappers that open a :class:`Span` around the
original call and bump counters from its arguments and result.  Uninstalling
puts every original back.

A span's name is ``<layer>.<what>``; the layer is one of :data:`LAYERS`, the
``repro`` sub-packages.  Work inside an ``ad`` span is AD work even when it
runs benchmark kernels (tracing ``run`` on ``ADArray`` state, plan-replay
refills), so ``npb`` wrappers open no span while an ``ad`` span is open.

A span's *self time* is its duration minus the part of it covered by its
direct children; summed per layer, plus the root's own self time
(``other_s``), it adds up to the root's duration by construction.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: the ``repro`` packages the time is split over (``viz`` is left out: figure
#: export is a few milliseconds of a class-S regeneration)
LAYERS = ("npb", "ad", "core", "ckpt", "experiments")

#: name of the span that wraps one whole workload iteration
ROOT = "iteration"


@dataclass
class Span:
    """One timed call: name, interval and the index of its parent span."""

    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and counters of one iteration, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, self.clock(), parent=parent, attrs=attrs)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = self.clock()

    def inside(self, layer: str) -> bool:
        """True while a span of ``layer`` is open."""
        return any(self.spans[i].layer == layer for i in self._open)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def to_json(self) -> dict[str, Any]:
        """Spans and counters as plain data (written out after the run)."""
        return {
            "spans": [{"name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, **s.attrs} for s in self.spans],
            "counters": dict(self.counters),
        }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result


def _subtree(spans: list[Span], root: int) -> list[int]:
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index].parent in inside:
            inside.add(index)
    return sorted(inside)


def layer_split(spans: list[Span], root: int = 0) -> dict[str, float]:
    """Self seconds per span name and per layer under ``spans[root]``.

    Keys are ``<span name>_s`` (e.g. ``ad.reverse_s``), ``<layer>.self_s``
    for every layer of :data:`LAYERS`, ``other_s`` (the root's own time,
    outside every layer span) and ``wall_s`` (the root's duration).
    """
    own = self_times(spans)
    split: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        split[f"{layer}.self_s"] = 0.0
    for index in _subtree(spans, root):
        if index == root:
            continue
        span = spans[index]
        split[f"{span.name}_s"] += own[index]
        split[f"{span.layer}.self_s"] += own[index]
    split["other_s"] = own[root]
    split["wall_s"] = spans[root].duration
    return dict(split)


def layer_sum_error(split: dict[str, float]) -> float:
    """|sum of layer self times + other_s - wall_s| as a share of wall_s."""
    total = sum(split[f"{layer}.self_s"] for layer in LAYERS) \
        + split["other_s"]
    return abs(total - split["wall_s"]) / split["wall_s"]


def inclusive_by_attr(spans: list[Span], name: str, attr: str
                      ) -> dict[str, float]:
    """Summed durations of the spans called ``name``, keyed by ``attr``."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name == name and attr in span.attrs:
            totals[span.attrs[attr]] += span.duration
    return dict(totals)


# ----------------------------------------------------------------------
# instrumentation: rebinding the layer-boundary functions
# ----------------------------------------------------------------------
def _file_bytes(*paths: Path) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


class Rebindings:
    """Attributes of modules and classes rebound until the context exits."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def rebind(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, value)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def __enter__(self) -> "Rebindings":
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            self._undo.pop()()


class Instrumentation(Rebindings):
    """Wraps the layer-boundary functions of ``repro`` with spans.

    Use as a context manager around one traced iteration; every rebinding
    is undone on exit, so untraced iterations run the package untouched.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def _spanned(self, fn: Callable, name: str, *, skip_in: str | None = None,
                 attrs: Callable[..., dict] | None = None,
                 after: Callable[..., None] | None = None) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_in is not None and tracer.inside(skip_in):
                return fn(*args, **kwargs)
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            result = None
            try:
                with tracer.span(name, **extra):
                    result = fn(*args, **kwargs)
                return result
            finally:
                if after is not None:
                    after(result, *args, **kwargs)

        return wrapper

    def wrap(self, owners: Any, attr: str, name: str, **options: Any) -> None:
        """Wrap ``attr`` on each owner (module or class) in a span."""
        if not isinstance(owners, (list, tuple)):
            owners = [owners]
        for owner in owners:
            fn = getattr(owner, attr)
            self.rebind(owner, attr, self._spanned(fn, name, **options))

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    # -- the boundaries ----------------------------------------------------
    def install(self) -> None:
        import repro.ad.segmented as segmented_module
        import repro.ckpt as ckpt
        import repro.ckpt.failure as failure
        import repro.ckpt.manager as manager
        import repro.ckpt.restart as restart
        import repro.ckpt.storage as storage
        import repro.ckpt.writer as writer
        import repro.core.criticality as criticality
        import repro.viz.ascii_plot as ascii_plot
        import repro.viz.export as export
        from repro.core.store import ResultStore
        from repro.experiments import (figures, table1, table2, table3,
                                       verify)
        from repro.experiments.faults import BatchJournal
        from repro.experiments.parallel import ParallelRunner
        from repro.npb import registry
        from repro.npb.base import NPBBenchmark

        count = self.tracer.count

        # -- npb: concrete forward runs, verification, construction ------
        def steps_run(result, bench, state, steps):
            count("npb.steps", steps)

        self.wrap(NPBBenchmark, "run", "npb.forward", skip_in="ad",
                  after=steps_run)
        self.wrap(NPBBenchmark, "checkpoint_state", "npb.forward",
                  skip_in="ad")
        for attr, name in (("initial_state", "npb.forward"),
                           ("verify", "npb.verify")):
            owners = {next(k for k in cls.__mro__ if attr in vars(k))
                      for cls in registry.BENCHMARKS.values()}
            self.wrap(sorted(owners, key=lambda k: k.__name__), attr, name,
                      skip_in="ad")
        self.wrap(registry, "create", "npb.construct")

        def steps_checkpointed(result, bench, mgr, steps=None,
                               fail_at_step=None, state=None, start_step=0):
            total = bench.total_steps if steps is None else int(steps)
            end = total if fail_at_step is None else int(fail_at_step)
            count("npb.steps", end - start_step)

        # the Section IV-C scenario advances the benchmark itself, with the
        # checkpoint writes nested inside
        self.wrap(failure, "run_with_checkpoints", "npb.forward",
                  after=steps_checkpointed)

        # -- ad: monolithic trace + reverse sweep, segmented sweep --------
        def tape_nodes(result, *args, **kwargs):
            if result is not None:
                count("ad.tape_nodes", len(result[0]))

        self.wrap(NPBBenchmark, "traced_restart", "ad.trace",
                  after=tape_nodes)
        self.wrap(criticality, "backward", "ad.reverse")

        # the segmented sweep's telemetry is read from the objects it already
        # keeps -- the analyzer's plan cache (counter deltas) and the sweep's
        # snapshot schedule -- rather than by passing it a SweepStats, which
        # would make it measure every tape
        schedules: list = []
        make_schedule = segmented_module.make_schedule

        @functools.wraps(make_schedule)
        def kept_schedule(*args, **kwargs):
            schedules.append(make_schedule(*args, **kwargs))
            return schedules[-1]

        self.rebind(segmented_module, "make_schedule", kept_schedule)
        segmented = criticality.segmented_gradients
        tracer = self.tracer

        @functools.wraps(segmented)
        def segmented_sweep(*args, **kwargs):
            cache = kwargs.get("plan_cache")
            before = cache.counters() if cache is not None else None
            try:
                with tracer.span("ad.segmented"):
                    return segmented(*args, **kwargs)
            finally:
                if before is not None:
                    now = cache.counters()
                    for key in ("hits", "misses", "compiles"):
                        count(f"ad.plan_{key}", now[key] - before[key])
                for schedule in schedules:
                    count("ad.snapshot_peak_bytes",
                          schedule.peak_snapshot_nbytes)
                schedules.clear()

        self.rebind(criticality, "segmented_gradients", segmented_sweep)

        # -- core: analysis, mask reduction, regions, result store --------
        self.wrap(criticality.CriticalityAnalyzer, "analyze", "core.analyze",
                  attrs=lambda analyzer, bench, *a, **k: {"port": bench.name})
        self.wrap(criticality, "criticality_from_gradient", "core.mask")
        self.wrap([criticality, writer, ascii_plot, export], "encode_mask",
                  "core.regions")

        def store_loaded(result, store, benchmark, key):
            if result is None:
                count("core.store_misses")
                return
            count("core.store_hits")
            count("core.store_bytes_read",
                  _file_bytes(*store._paths(benchmark, key)))

        def store_saved(result, store, key, scrutiny):
            count("core.store_bytes_written",
                  _file_bytes(*store._paths(scrutiny.benchmark, key)))

        self.wrap(ResultStore, "load", "core.store_load", after=store_loaded)
        self.wrap(ResultStore, "save", "core.store_save", after=store_saved)

        # -- ckpt: write, read, restore (corrupting the base included) ----
        for attr in ("write_full_checkpoint", "write_pruned_checkpoint"):
            self.wrap([ckpt, manager, storage], attr, "ckpt.write")
        self.wrap([ckpt, manager, restart], "read_checkpoint", "ckpt.read")
        self.wrap([ckpt, failure, restart], "restore_state", "ckpt.restore")
        self.wrap([ckpt, failure], "corrupt_state", "ckpt.restore")

        # -- experiments: the scheduling engine and the paper reports -----
        self.wrap(ParallelRunner, "run", "experiments.engine")
        mark_done = BatchJournal.mark_done

        @functools.wraps(mark_done)
        def counted_mark_done(*args, **kwargs):
            count("experiments.journal_writes")
            return mark_done(*args, **kwargs)

        self.rebind(BatchJournal, "mark_done", counted_mark_done)
        for module in (table1, table2, table3, verify):
            self.wrap(module, "run", "experiments.report")
        self.wrap(figures, "run_all", "experiments.report")
