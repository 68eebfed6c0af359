"""Sharded corpus runtime: one segment executor for every corpus run.

A corpus is split into contiguous *segments* balanced by estimated token
count (the same whitespace-word length proxy the scheduler and serving
engine budget by). The fitted host — a GoalSpotter pipeline, an
extractor or a text classifier — is broadcast to worker processes
exactly **once** at spawn: model weights travel as compact ``.npz``
payloads via :mod:`repro.nn.serialize`, never re-pickled per document.
Each segment is a :class:`SegmentWork` run by :func:`_execute_segment`,
which resets the host's run-scoped state (fresh quarantine, a
per-segment :class:`~repro.runtime.resilience.FaultInjector` under
:func:`shard_seed`, zeroed stats) and returns a :class:`SegmentOutcome`:
rows, quarantine, the segment's stats and a typed error.

Segments run in order on one host restored from the broadcast, or on a
:class:`WorkerPool` of such hosts. The non-durable entry points here
(:func:`process_reports_parallel`, :func:`extract_batch_parallel`,
:func:`classify_batch_parallel`) map over the pool and merge; the
durable drivers of :mod:`repro.runtime.supervisor` lease the same pool
under a :class:`~repro.runtime.supervisor.RunSupervisor` and journal
each outcome.

**Correctness contract**: ``workers=N`` is bitwise-identical to
``workers=1``. Three properties underwrite this:

* segments are contiguous index ranges, so concatenating outcomes in
  segment order restores exact input order (records *and* quarantine);
* a sequence's logits are bitwise-invariant to microbatch packing (the
  PR 1/PR 3 width-invariance guarantees), so per-segment batched
  detection and extraction produce the same scores as one corpus-wide
  batch;
* caches (BPE, normalize, and the content-addressed result cache of
  :mod:`repro.runtime.rescache`) are value-transparent and every worker's
  RNG state derives deterministically from the broadcast — a pickled
  :class:`~repro.runtime.rescache.ResultCache` arrives *empty* with fresh
  stats, and the single-worker path restores from the same broadcast, so
  ``workers=1`` and ``workers=N`` stay bitwise-identical with caching on.

Per-segment ``RunStats`` merge back through :meth:`RunStats.merge`, so
run-wide counters equal the sum of per-segment counters exactly.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time
from collections.abc import Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.nn.module import Module
from repro.nn.serialize import state_from_bytes, state_to_bytes
from repro.runtime.errors import ReproError, error_from_context
from repro.runtime.profiling import PerfCounters, RunStats
from repro.runtime.resilience import (
    FaultInjector,
    FaultSpec,
    QuarantineEntry,
    QuarantineQueue,
    resilient_rows,
)

if TYPE_CHECKING:  # avoid an import cycle through repro.runtime.__init__
    from repro.core.extractor import WeakSupervisionExtractor
    from repro.datasets.reports import SustainabilityReport
    from repro.goalspotter.pipeline import ExtractedRecord, GoalSpotter

__all__ = [
    "PipelineBroadcast",
    "Shard",
    "WorkerPool",
    "broadcast_classifier",
    "broadcast_extractor",
    "broadcast_pipeline",
    "classify_batch_parallel",
    "estimate_report_cost",
    "estimate_text_cost",
    "extract_batch_parallel",
    "map_shards",
    "plan_shards",
    "process_reports_parallel",
    "resolve_workers",
    "restore_pipeline",
    "shard_seed",
]


# -- worker-count resolution --------------------------------------------------


def resolve_workers(workers: int | str | None) -> int:
    """Resolve a worker-count knob to a concrete positive integer.

    ``None``, ``0`` and ``"auto"`` mean "one worker per CPU core"; any
    other value must be a positive integer.
    """
    if workers in (None, 0, "auto"):
        return max(1, os.cpu_count() or 1)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return count


# -- shard planning -----------------------------------------------------------


def estimate_text_cost(text: str) -> int:
    """Cheap token-cost estimate for one text (words, min 1).

    The same length proxy the serving engine budgets micro-batches by;
    exact BPE lengths would cost a tokenizer pass per block, which is the
    work we are trying to parallelize.
    """
    return max(1, len(text.split()))


def estimate_report_cost(report: "SustainabilityReport") -> int:
    """Estimated token count of one report (the shard-balancing weight)."""
    return max(
        1,
        sum(
            estimate_text_cost(block.text)
            for page in report.pages
            for block in page.blocks
            if isinstance(getattr(block, "text", None), str)
        ),
    )


@dataclasses.dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, stop)`` of the input corpus."""

    index: int
    start: int
    stop: int
    cost: int  # summed estimated token count of the slice

    @property
    def size(self) -> int:
        return self.stop - self.start


def _shards_needed(costs: Sequence[int], capacity: int) -> int:
    """How many contiguous shards a greedy split needs under ``capacity``."""
    shards, load = 1, 0
    for cost in costs:
        if load and load + cost > capacity:
            shards += 1
            load = 0
        load += cost
    return shards


def plan_shards(costs: Sequence[int], num_shards: int) -> list[Shard]:
    """Partition ``costs`` into at most ``num_shards`` contiguous shards.

    Minimizes the maximum shard cost (binary search over the capacity, then
    one greedy split), which is the makespan under perfectly parallel
    workers. Contiguity is what makes order restoration exact: shard
    results concatenated in shard order *are* input order.

    Returns non-empty shards only; with fewer items than shards, every
    item gets its own shard.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if not costs:
        return []
    if any(cost < 0 for cost in costs):
        raise ValueError("costs must be non-negative")
    low, high = max(costs), sum(costs)
    while low < high:
        middle = (low + high) // 2
        if _shards_needed(costs, middle) <= num_shards:
            high = middle
        else:
            low = middle + 1
    capacity = low
    shards: list[Shard] = []
    start, load = 0, 0
    for position, cost in enumerate(costs):
        if position > start and load + cost > capacity:
            shards.append(Shard(len(shards), start, position, load))
            start, load = position, 0
        load += cost
    shards.append(Shard(len(shards), start, len(costs), load))
    return shards


def shard_seed(seed: int, shard_index: int) -> int:
    """Deterministic per-shard fault-injector seed."""
    return (seed * 1_000_003 + 7_919 * (shard_index + 1)) & 0x7FFFFFFF


# -- model broadcast ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ModelState:
    """One fitted model detached from the broadcast skeleton."""

    component: str  # attribute name on the host object ("" = the object)
    encoder_config: Any  # the fitted model's actual EncoderConfig
    payload: bytes  # npz bytes from repro.nn.serialize.state_to_bytes


@dataclasses.dataclass(frozen=True)
class PipelineBroadcast:
    """Everything a worker needs, shipped once at spawn.

    ``skeleton`` is the host object pickled with its fitted models
    detached (configs, tokenizers, policies — small); ``states`` carries
    each model's parameters as one compact npz payload produced by
    :func:`repro.nn.serialize.state_to_bytes`.
    """

    skeleton: bytes
    states: tuple[_ModelState, ...]

    @property
    def num_bytes(self) -> int:
        return len(self.skeleton) + sum(
            len(state.payload) for state in self.states
        )


def _component(host: Any, path: str) -> Any:
    return host if path == "" else getattr(host, path, None)


def _broadcast(host: Any, components: Sequence[str]) -> PipelineBroadcast:
    """Detach fitted models, pickle the skeleton, restore the host."""
    states: list[_ModelState] = []
    detached: list[tuple[Any, Module]] = []
    try:
        for name in components:
            owner = _component(host, name)
            model = getattr(owner, "model", None)
            if owner is None or not isinstance(model, Module):
                continue
            states.append(
                _ModelState(
                    component=name,
                    encoder_config=getattr(model, "config", None),
                    payload=state_to_bytes(model),
                )
            )
            detached.append((owner, model))
            owner.model = None
        skeleton = pickle.dumps(host, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        for owner, model in detached:
            owner.model = model
    return PipelineBroadcast(skeleton=skeleton, states=tuple(states))


_PIPELINE_COMPONENTS = ("detector", "extractor", "fallback_extractor")


def broadcast_pipeline(pipeline: "GoalSpotter") -> PipelineBroadcast:
    """Package a fitted :class:`GoalSpotter` for worker processes.

    Run-scoped state (quarantine, breakers, stats) is excluded so every
    worker starts clean; the caller's pipeline is left untouched.
    """
    saved = (
        pipeline.quarantine,
        pipeline._breakers,
        pipeline.last_run_stats,
    )
    pipeline.quarantine = QuarantineQueue()
    pipeline._breakers = {}
    pipeline.last_run_stats = None
    try:
        return _broadcast(pipeline, _PIPELINE_COMPONENTS)
    finally:
        (
            pipeline.quarantine,
            pipeline._breakers,
            pipeline.last_run_stats,
        ) = saved


def broadcast_extractor(
    extractor: "WeakSupervisionExtractor",
) -> PipelineBroadcast:
    """Package a fitted extractor for the bulk-extraction worker pool."""
    return _broadcast(extractor, ("",))


def broadcast_classifier(classifier: Any) -> PipelineBroadcast:
    """Package a fitted text classifier for the worker pool.

    Works for any host exposing ``.model`` (a :class:`Module`) and
    ``build_model(encoder_config)`` — the same contract the extractor
    broadcast relies on; :class:`repro.models.text_classifier.
    TextLabelClassifier` satisfies it.
    """
    return _broadcast(classifier, ("",))


def restore_pipeline(broadcast: PipelineBroadcast) -> Any:
    """Rebuild the broadcast host: unpickle the skeleton, reload weights.

    Each detached model is rebuilt from its owner's ``build_model`` (with
    the fitted model's actual encoder config, so pretrained or distilled
    geometries restore exactly) and its parameters loaded via
    :func:`repro.nn.serialize.state_from_bytes`.
    """
    host = pickle.loads(broadcast.skeleton)
    for state in broadcast.states:
        owner = _component(host, state.component)
        owner.model = owner.build_model(state.encoder_config)
        state_from_bytes(owner.model, state.payload)
    return host


# -- segment execution --------------------------------------------------------

#: Work kinds the segment executor understands.
KIND_PIPELINE = "pipeline"
KIND_EXTRACTION = "extraction"
KIND_CLASSIFICATION = "classification"


@dataclasses.dataclass(frozen=True)
class SegmentWork:
    """One contiguous slice of the corpus: the unit every run executes.

    Parallel runs call the slices shards and durable runs call them
    journal segments; both execute them through :func:`_execute_segment`.
    ``mode`` is the ``on_error`` policy. Rows kinds (extraction,
    classification) with ``mode=None`` return the host's raw batch
    output; with a policy they return ``{"row", "status"}`` payloads.
    """

    index: int
    start: int
    stop: int
    kind: str  # pipeline | extraction | classification
    items: tuple  # SustainabilityReports (pipeline) or texts (rows kinds)
    mode: str | None  # on_error policy
    fields: tuple[str, ...]  # empty-row schema for skip/degrade
    specs: tuple[FaultSpec, ...] = ()  # host-level fault specs
    seed: int = 0  # per-segment injector seed


@dataclasses.dataclass
class SegmentOutcome:
    """What one segment execution sends back."""

    index: int
    rows: Any  # row payloads, or the host's raw batch output (mode=None)
    quarantine: list  # list[dict] — QuarantineEntry.as_dict payloads
    error: dict | None = None  # ReproError.context() + {"retryable": bool}
    stats: dict | None = None  # RunStats per owner; "pipeline": run dict


def _item_costs(kind: str, items: Sequence[Any]) -> list[int]:
    """Estimated token cost of each item: the segment planner's weights."""
    if kind == KIND_PIPELINE:
        return [estimate_report_cost(report) for report in items]
    return [estimate_text_cost(text) for text in items]


def _segment_works(
    host: Any,
    kind: str,
    segments: Sequence[Shard],
    items: Sequence[Any],
    mode: str | None,
    *,
    fields: Sequence[str] = (),
    shard_faults: Mapping[int, Sequence[FaultSpec]] | None = None,
) -> list[SegmentWork]:
    """One :class:`SegmentWork` per planned segment of ``items``.

    Specs on the host's fault injector apply to every segment, each
    under its own :func:`shard_seed`; ``shard_faults`` adds specs to
    single segments by index.
    """
    injector = getattr(host, "fault_injector", None)
    specs = tuple(injector.specs) if injector is not None else ()
    seed = injector.seed if injector is not None else 0
    extra = shard_faults or {}
    return [
        SegmentWork(
            index=segment.index,
            start=segment.start,
            stop=segment.stop,
            kind=kind,
            items=tuple(items[segment.start : segment.stop]),
            mode=mode,
            fields=tuple(fields),
            specs=specs + tuple(extra.get(segment.index, ())),
            seed=shard_seed(seed, segment.index),
        )
        for segment in segments
    ]


def _host_batch(host: Any, kind: str, texts: list[str]) -> Any:
    """The host's own batch call for a rows kind."""
    if kind == KIND_EXTRACTION:
        return host.extract_batch(texts)
    if kind == KIND_CLASSIFICATION:
        return host.predict_proba(texts)
    raise ReproError(f"unknown segment kind {kind!r}", stage="run")


def _host_rows(host: Any, kind: str, texts: list[str]) -> list[dict]:
    """One raw row per text — must match ``TaskModel.run_batch`` exactly."""
    batch = _host_batch(host, kind, texts)
    if kind == KIND_CLASSIFICATION:
        from repro.models.text_classifier import classification_rows

        return classification_rows(host.labels, batch)
    return batch


def _rows_segment(host: Any, work: SegmentWork) -> Any:
    """Rows of one text segment.

    Without a policy this is the host's batch call; with one it is the
    :func:`~repro.runtime.resilience.resilient_rows` ladder that
    :meth:`repro.tasks.models.TaskModel.run_resilient` runs, as
    ``{"row", "status"}`` journal payloads.
    """
    texts = list(work.items)
    if work.mode is None:
        return _host_batch(host, work.kind, texts)
    pairs = resilient_rows(
        lambda batch: _host_rows(host, work.kind, batch),
        texts,
        on_error=work.mode,
        fields=work.fields,
        stage=work.kind,
    )
    return [{"row": row, "status": status} for row, status in pairs]


def _stat_owners(host: Any, kind: str) -> dict[str, Any]:
    """The components whose ``RunStats`` a segment of ``kind`` reports."""
    if kind == KIND_PIPELINE:
        return {"detector": host.detector, "extractor": host.extractor}
    return {"host": host}


def _execute_segment(host: Any, work: SegmentWork) -> SegmentOutcome:
    """Run one segment on a broadcast-restored host.

    Run-scoped state is reset first — a per-segment fault injector
    (``work.specs`` under ``work.seed``), fresh quarantine, zeroed stage
    stats — so the outcome depends only on the segment's inputs and the
    broadcast: never on pool scheduling, a re-grant or a resume.
    Failures come back as typed error payloads.
    """
    if hasattr(host, "fault_injector"):
        host.fault_injector = (
            FaultInjector(work.specs, seed=work.seed) if work.specs else None
        )
    pipeline = work.kind == KIND_PIPELINE
    owners = _stat_owners(host, work.kind)
    if pipeline:
        host.quarantine = QuarantineQueue()
    for owner in owners.values():
        if hasattr(owner, "total_run_stats"):
            owner.total_run_stats = RunStats()
            owner.last_run_stats = None
    try:
        if pipeline:
            from repro.goalspotter.pipeline import record_to_payload

            records = host.process_reports(
                list(work.items), on_error=work.mode, workers=1
            )
            rows = [record_to_payload(record) for record in records]
            quarantine = host.quarantine.as_dicts()
        else:
            rows, quarantine = _rows_segment(host, work), []
    except ReproError as error:
        payload = error.context()
        payload["retryable"] = error.retryable
        return SegmentOutcome(
            index=work.index, rows=[], quarantine=[], error=payload
        )
    stats = {
        name: getattr(owner, "total_run_stats", None)
        for name, owner in owners.items()
    }
    if pipeline:
        stats["pipeline"] = host.last_run_stats
    return SegmentOutcome(
        index=work.index, rows=rows, quarantine=quarantine, stats=stats
    )


def _local_outcomes(
    broadcast: PipelineBroadcast, works: Sequence[SegmentWork]
) -> Iterator[SegmentOutcome]:
    """The in-process path: every work in order on one restored host.

    Never the caller's host, so ``workers=1`` and ``workers=N`` traverse
    the same code and state and the caller's run state stays untouched.
    Lazy, so a durable run can stop between segments.
    """
    host = restore_pipeline(broadcast)
    for work in works:
        yield _execute_segment(host, work)


_WORKER_HOST: Any = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: restore the broadcast host exactly once."""
    global _WORKER_HOST
    _WORKER_HOST = restore_pipeline(pickle.loads(payload))


def _worker_segment(work: SegmentWork) -> SegmentOutcome:
    if _WORKER_HOST is None:
        raise RuntimeError("segment worker was not initialized")
    return _execute_segment(_WORKER_HOST, work)


def _mp_context(start_method: str | None):
    """``start_method``'s context; default ``fork`` where available."""
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


class WorkerPool:
    """Process pool of broadcast-restored hosts executing segments.

    The broadcast ships once, at spawn; each worker restores it and runs
    every :class:`SegmentWork` it receives through
    :func:`_execute_segment`. The pool is the
    :class:`~repro.runtime.supervisor.RunSupervisor` transport
    (``submit``/``poll``/``heartbeat``/``close``/``capacity``) for
    durable runs; non-durable runs :meth:`map` over it with no leases.

    Args:
        broadcast: a :class:`PipelineBroadcast` shipped once at spawn.
        workers: pool size (submission beyond it queues inside the pool).
        start_method: multiprocessing start method (default ``fork``
            where available, else ``spawn``).
    """

    def __init__(
        self,
        broadcast: PipelineBroadcast,
        *,
        workers: int,
        start_method: str | None = None,
    ) -> None:
        self.capacity = max(1, int(workers))
        payload = pickle.dumps(broadcast, protocol=pickle.HIGHEST_PROTOCOL)
        self._pool = _mp_context(start_method).Pool(
            processes=self.capacity,
            initializer=_init_worker,
            initargs=(payload,),
        )
        self._closed = False

    def submit(self, work: SegmentWork):
        """Dispatch one segment; returns its ``AsyncResult`` handle."""
        return self._pool.apply_async(_worker_segment, (work,))

    def poll(self, handle) -> SegmentOutcome | None:
        """The outcome if ``handle`` finished, else ``None`` (non-blocking).

        A worker that died un-caught (e.g. killed) comes back as a
        retryable error outcome, so the supervisor can re-grant.
        """
        if not handle.ready():
            return None
        try:
            return handle.get(timeout=0)
        except Exception as error:
            wrapped = ReproError(
                f"segment worker failed: {type(error).__name__}: {error}",
                stage="run",
            )
            payload = wrapped.context()
            payload["retryable"] = True
            return SegmentOutcome(
                index=-1, rows=[], quarantine=[], error=payload
            )

    def heartbeat(self, handle) -> float | None:
        """Always ``None``: a worker cannot heartbeat mid-segment.

        A segment is one call, so lease expiry falls back to grant time +
        ``lease_timeout`` — size the timeout to cover a whole segment.
        """
        return None

    def map(self, works: Sequence[SegmentWork]) -> list[SegmentOutcome]:
        """Outcomes of ``works`` in order; a crashed worker's error raises."""
        handles = [self.submit(work) for work in works]
        return [handle.get() for handle in handles]

    def close(self, *, force: bool = False) -> None:
        """Shut the pool down; ``force`` kills workers instead of waiting.

        ``force=True`` is the hung-worker/deadline path — a graceful
        close would join forever on a wedged process.
        """
        if self._closed:
            return
        self._closed = True
        if force:
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close(force=exc[0] is not None)


# -- non-durable runs ---------------------------------------------------------


def _run_shards(
    host: Any,
    kind: str,
    broadcast: PipelineBroadcast,
    items: list,
    *,
    workers: int,
    num_shards: int | None,
    mode: str | None,
    start_method: str | None,
    shard_faults: Mapping[int, Sequence[FaultSpec]] | None = None,
) -> tuple[list[SegmentOutcome], dict[str, RunStats]]:
    """Plan shards, execute them, and merge: the parallel entry points' body.

    Outcomes come back in shard order, so concatenating their rows *is*
    input order. There are no leases, re-grants or lease timeout: one
    shard per worker can run for as long as it needs. Under
    ``on_error="raise"`` the lowest-indexed failing shard's error is
    raised, the same failure a sequential run meets first. Otherwise
    each owner's per-shard :class:`RunStats` sum into one that becomes
    its ``last_run_stats`` and folds into its ``total_run_stats``.
    """
    shards = plan_shards(
        _item_costs(kind, items), min(num_shards or workers, len(items))
    )
    works = _segment_works(
        host, kind, shards, items, mode, shard_faults=shard_faults
    )
    if workers <= 1 or len(works) <= 1:
        outcomes = list(_local_outcomes(broadcast, works))
    else:
        with WorkerPool(
            broadcast,
            workers=min(workers, len(works)),
            start_method=start_method,
        ) as pool:
            outcomes = pool.map(works)
    for outcome in outcomes:
        if outcome.error is not None:
            raise error_from_context(outcome.error)
    merged: dict[str, RunStats] = {}
    for name, owner in _stat_owners(host, kind).items():
        stats = RunStats()
        for outcome in outcomes:
            if outcome.stats.get(name) is not None:
                stats = stats.merge(outcome.stats[name])
        if hasattr(owner, "total_run_stats"):
            with owner._stats_lock:
                owner.last_run_stats = stats
                owner.total_run_stats = owner.total_run_stats.merge(stats)
        merged[name] = stats
    return outcomes, merged


def map_shards(
    tasks: Sequence[Any],
    func: Any,
    *,
    workers: int | str | None = None,
    start_method: str | None = None,
) -> list[Any]:
    """Map a picklable top-level function over shard task payloads.

    For shard work that needs no model broadcast (e.g. knowledge-graph
    ingestion): results come back in input order, ``workers<=1`` runs
    in-process through the exact same call path, and ``func`` must be a
    module-level function so it pickles under the ``spawn`` start method.
    """
    tasks = list(tasks)
    count = resolve_workers(workers)
    if not tasks:
        return []
    if count <= 1 or len(tasks) <= 1:
        return [func(task) for task in tasks]
    with _mp_context(start_method).Pool(
        processes=min(count, len(tasks))
    ) as pool:
        return pool.map(func, tasks, chunksize=1)


#: last_run_stats keys summed across shards by the merge.
_SUMMED_STAT_KEYS = (
    "detect_seconds",
    "extract_seconds",
    "blocks",
    "detected_blocks",
    "extraction_units",
    "records",
    "retries",
    "failures",
    "degraded_records",
    "failed_records",
    "fallback_documents",
    "quarantined_documents",
    "sanitized_blocks",
)


def process_reports_parallel(
    pipeline: "GoalSpotter",
    reports: Sequence["SustainabilityReport"],
    *,
    workers: int | str | None = None,
    on_error: str | None = None,
    num_shards: int | None = None,
    shard_faults: Mapping[int, Sequence[FaultSpec]] | None = None,
    start_method: str | None = None,
) -> list["ExtractedRecord"]:
    """Run ``pipeline.process_reports`` data-parallel over shards.

    Bitwise-identical to the sequential call (records, scores,
    quarantine) for any ``workers``/``num_shards`` split; see the module
    docstring for why. Results are restored to exact input order;
    quarantine entries merge into ``pipeline.quarantine`` in input order;
    ``pipeline.last_run_stats`` becomes a merged view whose counters are
    the exact sums of the per-shard counters (kept under ``"shards"``).

    Args:
        workers: process count (``None``/``"auto"`` = CPU count).
        on_error: overrides the pipeline's policy for this call.
        num_shards: shard count (default ``workers``); may exceed
            ``workers`` for finer balancing, or pin the shard layout
            while varying ``workers`` (the determinism suite does this).
        shard_faults: extra :class:`FaultSpec` lists keyed by shard
            index — chaos testing of exactly one shard. Specs on
            ``pipeline.fault_injector`` apply to *every* shard, each
            under its own :func:`shard_seed`.
        start_method: multiprocessing start method (default ``fork``
            where available, else ``spawn``).
    """
    from repro.goalspotter.pipeline import record_from_payload

    mode = on_error if on_error is not None else pipeline.on_error
    reports = list(reports)
    workers = resolve_workers(workers)
    if not reports:
        return pipeline.process_reports([], on_error=mode, workers=1)

    wall_start = time.perf_counter()
    timer = PerfCounters()
    with timer.timer("broadcast_seconds"):
        broadcast = broadcast_pipeline(pipeline)
    outcomes, owner_stats = _run_shards(
        pipeline,
        KIND_PIPELINE,
        broadcast,
        reports,
        workers=workers,
        num_shards=num_shards,
        mode=mode,
        start_method=start_method,
        shard_faults=shard_faults,
    )
    records = [
        record_from_payload(row)
        for outcome in outcomes
        for row in outcome.rows
    ]
    pipeline.quarantine.extend(
        QuarantineEntry.from_dict(entry)
        for outcome in outcomes
        for entry in outcome.quarantine
    )
    wall = time.perf_counter() - wall_start
    shard_stats = [outcome.stats["pipeline"] or {} for outcome in outcomes]
    merged = {
        name: sum(stats.get(name, 0) for stats in shard_stats)
        for name in _SUMMED_STAT_KEYS
    }
    blocks = int(merged["blocks"])
    merged.update(
        {
            "wall_seconds": wall,
            "blocks_per_second": blocks / wall if wall > 0 else 0.0,
            "records": len(records),
            "on_error": mode,
            "fast_path": all(
                bool(stats.get("fast_path", True)) for stats in shard_stats
            ),
            "extractor": owner_stats["extractor"].as_dict(),
            # Parallel-runtime observability:
            "workers": workers,
            "num_shards": len(outcomes),
            "shard_wall_seconds": sum(
                stats.get("wall_seconds", 0.0) for stats in shard_stats
            ),
            "broadcast_seconds": timer.get("broadcast_seconds"),
            "broadcast_bytes": broadcast.num_bytes,
            "shards": [outcome.stats["pipeline"] for outcome in outcomes],
        }
    )
    pipeline.last_run_stats = merged
    return records


def extract_batch_parallel(
    extractor: "WeakSupervisionExtractor",
    texts: Sequence[str],
    *,
    workers: int | str | None = None,
    num_shards: int | None = None,
    start_method: str | None = None,
) -> list[dict[str, str]]:
    """Shard ``extractor.extract_batch`` across worker processes.

    Bitwise-identical to the sequential call and restored to input
    order (contiguous shards, packing-invariant logits). The merged
    per-shard :class:`RunStats` lands in ``extractor.last_run_stats``
    and folds into ``extractor.total_run_stats``.

    With ``result_cache_capacity`` set on the extractor config, each
    shard worker runs its own *fresh* cache (the broadcast pickles the
    cache as empty): repeats within one worker's shards hit, repeats
    split across workers miss (a single worker therefore sees more hits
    than a wide pool), and the per-shard ``result_cache_*`` stats merge
    back additively. Values never depend on cache state, so caching
    keeps ``workers=N`` bitwise-identical to ``workers=1``.
    """
    texts = list(texts)
    workers = resolve_workers(workers)
    if not texts:
        return []
    outcomes, __ = _run_shards(
        extractor,
        KIND_EXTRACTION,
        broadcast_extractor(extractor),
        texts,
        workers=workers,
        num_shards=num_shards,
        mode=None,
        start_method=start_method,
    )
    return [row for outcome in outcomes for row in outcome.rows]


def classify_batch_parallel(
    classifier: Any,
    texts: Sequence[str],
    *,
    workers: int | str | None = None,
    num_shards: int | None = None,
    start_method: str | None = None,
):
    """Shard ``classifier.predict_proba`` across worker processes.

    The classification sibling of :func:`extract_batch_parallel`: the
    fitted classifier is broadcast once, contiguous token-balanced shards
    are scored independently, and the probability rows are concatenated
    back into exact input order. Packing-invariant logits make the result
    bitwise-identical to the sequential call for any ``workers``/
    ``num_shards`` split. Merged per-shard :class:`RunStats` land in
    ``classifier.last_run_stats`` / ``total_run_stats``.
    """
    import numpy as np

    texts = list(texts)
    workers = resolve_workers(workers)
    if not texts:
        return classifier.predict_proba([])
    outcomes, __ = _run_shards(
        classifier,
        KIND_CLASSIFICATION,
        broadcast_classifier(classifier),
        texts,
        workers=workers,
        num_shards=num_shards,
        mode=None,
        start_method=start_method,
    )
    return np.concatenate([outcome.rows for outcome in outcomes], axis=0)
