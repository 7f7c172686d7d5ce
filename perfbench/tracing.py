"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: :func:`patched` swaps the
public layer functions the harness and the benchmark call for wrappers that
time each call, and restores them on exit. The iteration's root span and
every span of a layer that runs Spark (``SPARK_LAYERS``) get their own
``SparkContext.setJobGroup`` id, so the jobs, stages and tasks they launched
are read back from ``statusTracker()`` afterwards. Driver-only layers share
the root's group: any Spark task they launched counts against the root. A
group id per span for them as well would add two JVM calls to each of the
~1,300 ``simulate`` spans of a Table 4 slice.
"""
from __future__ import annotations

import functools
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.exp import harness, tables
from repro.partitioning import quality
from repro.partitioning.base import VERTEX_CUT
from repro.simulate import distdgl, distgnn

#: Layers whose Spark jobs are counted in their own job group.
SPARK_LAYERS = ("partitioning.quality", "sampling.epoch")
#: Seconds to wait for Spark's listener bus to report a span's jobs as ended.
STATUS_TIMEOUT_S = 30.0


@dataclass
class Span:
    name: str
    group: str
    parent: Span | None
    seconds: float = 0.0
    jobs: int = 0
    tasks: int = 0
    failed_tasks: int = 0


@dataclass
class Epoch:
    """One ``sample_epoch`` call with what the health checks need."""

    cell: str
    graph: str
    seeds: object
    fanouts: tuple[int, ...]
    stats: object


@dataclass
class Tracer:
    """Spans of one traced iteration, in start order."""

    sc: object
    spans: list[Span] = field(default_factory=list)
    epochs: list[Epoch] = field(default_factory=list)
    bundles: dict = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)
    _run: str = field(default_factory=lambda: uuid.uuid4().hex)
    _graph: str = ""
    _partitioner: str = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        own_group = parent is None or name in SPARK_LAYERS
        group = f"perfbench-{self._run}-{len(self.spans)}" if own_group else parent.group
        s = Span(name, group, parent)
        self.spans.append(s)
        self._stack.append(s)
        if own_group:
            self.sc.setJobGroup(group, name)
        t0 = time.perf_counter()
        try:
            yield s
        finally:
            s.seconds = time.perf_counter() - t0
            self._stack.pop()
            if own_group:
                if parent is None:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
                else:
                    self.sc.setJobGroup(parent.group, parent.name)

    def collect_spark_counts(self) -> None:
        """Fill jobs/tasks/failed_tasks of every span that owns a job group."""
        tracker = self.sc.statusTracker()
        for s in self.spans:
            if s.parent is not None and s.group == s.parent.group:
                continue
            job_ids = list(tracker.getJobIdsForGroup(s.group))
            deadline = time.monotonic() + STATUS_TIMEOUT_S
            while any(_running(tracker, j) for j in job_ids):
                if time.monotonic() > deadline:
                    raise RuntimeError(f"jobs of span {s.name} did not end")
                time.sleep(0.05)
            stage_ids = set()
            for j in job_ids:
                info = tracker.getJobInfo(j)
                if info is not None:
                    stage_ids.update(info.stageIds)
            s.jobs = len(job_ids)
            for sid in stage_ids:
                st = tracker.getStageInfo(sid)
                if st is not None:
                    s.tasks += st.numCompletedTasks
                    s.failed_tasks += st.numFailedTasks

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_load_bundle(self, fn):
        @functools.wraps(fn)
        def wrapper(name, **kwargs):
            with self.span("graphs.load"):
                b = fn(name, **kwargs)
            self.bundles[name] = b
            self._graph = name
            return b

        return wrapper

    def _wrap_run_partitioner(self, fn):
        @functools.wraps(fn)
        def wrapper(p, *args, **kwargs):
            family = "edge" if p.cut_type == VERTEX_CUT else "vertex"
            with self.span(f"partitioning.{family}.{p.name}"):
                run = fn(p, *args, **kwargs)
            self._partitioner = p.name
            return run

        return wrapper

    def _wrap_sample_epoch(self, fn):
        @functools.wraps(fn)
        def wrapper(spark, sym_edges, seeds, owner_of, fanouts, **kwargs):
            with self.span("sampling.epoch"):
                stats = fn(spark, sym_edges, seeds, owner_of, fanouts, **kwargs)
            cell = f"{self._graph}/{self._partitioner}/{stats.k}/{len(fanouts)}"
            self.epochs.append(Epoch(cell, self._graph, seeds, tuple(fanouts), stats))
            return stats

        return wrapper


def _running(tracker, job_id: int) -> bool:
    info = tracker.getJobInfo(job_id)
    return info is not None and info.status in ("RUNNING", "UNKNOWN")


@contextmanager
def patched(tracer: Tracer):
    """Route the layers' public functions through ``tracer`` while active."""
    named = lambda name: (lambda f: tracer._wrap(f, name))  # noqa: E731
    targets = [
        (harness, "load_bundle", tracer._wrap_load_bundle),
        (harness, "run_partitioner", tracer._wrap_run_partitioner),
        (harness, "plan_batches", named("sampling.plan")),
        (harness, "sample_epoch", tracer._wrap_sample_epoch),
        (distdgl, "phase_times", named("simulate.phase_times")),
        (distgnn, "partition_stats", named("simulate.partition_stats")),
        (distgnn, "epoch_metrics", named("simulate.epoch_metrics")),
        (quality, "edge_cut_quality", named("partitioning.quality")),
        (tables, "amortization_table", named("exp.tables")),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, wrap in targets:
            setattr(mod, attr, wrap(getattr(mod, attr)))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
