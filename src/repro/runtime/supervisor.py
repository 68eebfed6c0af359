"""Lease-based worker supervision for durable corpus runs (DESIGN §6i).

:mod:`repro.runtime.journal` makes committed work crash-safe; this
module makes the *execution* of the remaining work supervised. A
:class:`RunSupervisor` claims pending journal segments under leases,
dispatches them to a transport (the
:class:`~repro.runtime.parallel.WorkerPool` in production), and
enforces the failure model batch runs never had:

* **hung-worker reaping** — a lease whose worker stops heartbeating (or
  never completes within ``lease_timeout``) is reaped and re-granted to
  a fresh worker, up to ``max_regrants`` times. Re-executed segments are
  bitwise-identical (deterministic per-segment seeds + packing-invariant
  logits, the PR 7 at-least-once argument), and the journal's
  first-write-wins commit discards any late duplicate from the reaped
  worker.
* **global run deadline** — a wall-clock budget for the whole run; on
  expiry the transport is force-closed and :class:`StageTimeout` raised
  with every committed segment still durable (the run resumes).
* **graceful drain** — SIGINT/SIGTERM (via :class:`GracefulShutdown`)
  stops granting new leases, waits up to ``drain_timeout`` for in-flight
  segments to commit, then raises
  :class:`~repro.runtime.errors.RunInterrupted`; the CLI maps it to the
  documented partial-success exit code.

The module also hosts the two durable run drivers built on journal +
supervisor: :func:`run_durable_rows` (bulk text→row inference for any
registered task, extraction or classification) and
:func:`run_durable_reports` (the GoalSpotter corpus path, with
quarantine entries persisted into the journal so poison documents are
not retried on resume). Both execute segments through the one segment
executor of :mod:`repro.runtime.parallel`.
"""

from __future__ import annotations

import dataclasses
import math
import signal
import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from repro.runtime.checkpoint import config_fingerprint
from repro.runtime.errors import (
    RunInterrupted,
    StageTimeout,
    error_from_context,
)
from repro.runtime.journal import RunJournal, input_digest
from repro.runtime.parallel import (
    KIND_CLASSIFICATION,
    KIND_EXTRACTION,
    KIND_PIPELINE,
    SegmentOutcome,
    SegmentWork,
    WorkerPool,
    _item_costs,
    _local_outcomes,
    _segment_works,
    broadcast_classifier,
    broadcast_extractor,
    broadcast_pipeline,
    plan_shards,
    resolve_workers,
)
from repro.runtime.resilience import FaultInjector

__all__ = [
    "DEFAULT_SEGMENT_ITEMS",
    "DurableRunResult",
    "GracefulShutdown",
    "Lease",
    "RunSupervisor",
    "SegmentOutcome",
    "SegmentWork",
    "SupervisorConfig",
    "plan_segments",
    "run_durable_reports",
    "run_durable_rows",
]

#: Default documents/texts per journal segment (the commit granularity).
DEFAULT_SEGMENT_ITEMS = 16


# -- graceful shutdown --------------------------------------------------------


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into a drain request.

    Installs handlers on entry (previous handlers are restored on exit)
    that set :attr:`event` instead of killing the process mid-write; the
    durable run loops check the event between segments / supervisor
    ticks and drain. A *second* signal restores default handling, so a
    stuck drain can still be interrupted the ordinary way.

    ``on_signal`` (optional) runs inside the handler after the event is
    set — e.g. ``CheckpointManager.request_drain`` for training loops
    that poll a checkpoint cadence instead of the event.
    """

    def __init__(
        self,
        signals: Sequence[int] = (),
        *,
        on_signal: Callable[[], None] | None = None,
    ) -> None:
        self._signals = tuple(signals) or (signal.SIGINT, signal.SIGTERM)
        self._previous: dict[int, Any] = {}
        self._on_signal = on_signal
        self.event = threading.Event()
        self.signal_name: str | None = None

    def _handle(self, signum, frame) -> None:
        self.signal_name = signal.Signals(signum).name
        self.event.set()
        if self._on_signal is not None:
            self._on_signal()
        # Escalation path: a second signal behaves like an un-handled one.
        signal.signal(signum, self._previous.get(signum, signal.SIG_DFL))

    def __enter__(self) -> "GracefulShutdown":
        for signum in self._signals:
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()

    @property
    def requested(self) -> bool:
        return self.event.is_set()


# -- the supervisor -----------------------------------------------------------


@dataclasses.dataclass
class SupervisorConfig:
    """Failure-model knobs for one supervised run."""

    lease_timeout: float = 60.0  # seconds a lease may run un-heartbeated
    max_regrants: int = 2  # re-grants per segment before giving up
    run_deadline: float | None = None  # wall-clock budget for the run
    poll_interval: float = 0.01  # supervisor tick when nothing progressed
    drain_timeout: float = 10.0  # grace window for in-flight segments


@dataclasses.dataclass
class Lease:
    """One segment's claim: who ran it, since when, how many grants."""

    work: SegmentWork
    handles: list  # newest last; stale handles from reaped grants kept
    granted_at: float
    generation: int = 0  # 0 = first grant


class RunSupervisor:
    """Drive pending segments through a transport under leases.

    Every completed segment commits to ``journal`` immediately (no
    end-of-run barrier), so the crash window never exceeds one segment.
    Stale results from reaped grants are welcome: whichever execution
    finishes first commits, the journal's first-write-wins dedupe
    absorbs the rest, and the bitwise guarantee makes the choice
    unobservable.
    """

    def __init__(
        self,
        journal: RunJournal,
        transport,
        *,
        config: SupervisorConfig | None = None,
        drain_event: threading.Event | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.journal = journal
        self.transport = transport
        self.config = config or SupervisorConfig()
        self._drain = drain_event or threading.Event()
        self._clock = clock
        self._sleep = sleep
        self.stats = {
            "leases_granted": 0,
            "reaped": 0,
            "regrants": 0,
            "worker_failures": 0,
            "drained": False,
        }

    def request_drain(self) -> None:
        """Stop granting; commit in-flight work; raise ``RunInterrupted``."""
        self._drain.set()

    # -- lease bookkeeping -------------------------------------------------

    def _grant(self, work: SegmentWork) -> Lease:
        handle = self.transport.submit(work)
        self.stats["leases_granted"] += 1
        return Lease(work=work, handles=[handle], granted_at=self._clock())

    def _regrant(self, lease: Lease, *, keep_stale: bool) -> None:
        if not keep_stale:
            lease.handles.clear()
        lease.handles.append(self.transport.submit(lease.work))
        lease.granted_at = self._clock()
        lease.generation += 1
        self.stats["leases_granted"] += 1
        self.stats["regrants"] += 1

    def _poll_lease(self, lease: Lease) -> SegmentOutcome | None:
        # First finisher wins — a reaped grant's late result is as good
        # as the re-grant's (bitwise-identical by construction).
        for handle in lease.handles:
            outcome = self.transport.poll(handle)
            if outcome is not None:
                return outcome
        return None

    def _expired(self, lease: Lease, now: float) -> bool:
        basis = lease.granted_at
        beat = getattr(self.transport, "heartbeat", lambda handle: None)(
            lease.handles[-1]
        )
        if beat is not None:
            basis = max(basis, beat)
        return now - basis > self.config.lease_timeout

    # -- the loop ----------------------------------------------------------

    def run(self, works: Sequence[SegmentWork]) -> None:
        """Execute and commit every segment in ``works``.

        Raises :class:`StageTimeout` on the run deadline or an exhausted
        segment (``max_regrants`` re-grants all hung/failed),
        :class:`RunInterrupted` on drain, and the reconstructed worker
        error when a segment fails non-retryably — in every case with
        all previously committed segments durable in the journal.
        """
        started = self._clock()
        pending = deque(sorted(works, key=lambda work: work.index))
        leases: dict[int, Lease] = {}
        capacity = max(1, int(getattr(self.transport, "capacity", 1)))
        while pending or leases:
            now = self._clock()
            deadline = self.config.run_deadline
            if deadline is not None and now - started > deadline:
                self.transport.close(force=True)
                raise StageTimeout(
                    f"run deadline of {deadline}s exceeded with "
                    f"{len(self.journal.segments)} segments committed; "
                    "the journal is intact — re-run with --resume",
                    stage="run",
                )
            if self._drain.is_set():
                self._drain_in_flight(leases)
            while pending and len(leases) < capacity:
                work = pending.popleft()
                leases[work.index] = self._grant(work)
            progressed = False
            for index in list(leases):
                lease = leases[index]
                outcome = self._poll_lease(lease)
                if outcome is not None:
                    progressed = True
                    if self._settle(lease, outcome):
                        del leases[index]
                elif self._expired(lease, self._clock()):
                    progressed = True
                    self._reap(lease)
            if not progressed:
                self._sleep(self.config.poll_interval)

    def _settle(self, lease: Lease, outcome: SegmentOutcome) -> bool:
        """Commit a finished segment (True) or retry a failed one (False)."""
        if outcome.error is None:
            self.journal.commit_segment(
                lease.work.index, outcome.rows, quarantine=outcome.quarantine
            )
            return True
        self.stats["worker_failures"] += 1
        error = error_from_context(outcome.error)
        retryable = bool(outcome.error.get("retryable", error.retryable))
        if not retryable or lease.generation >= self.config.max_regrants:
            self.transport.close(force=True)
            raise error
        self._regrant(lease, keep_stale=False)
        return False

    def _reap(self, lease: Lease) -> None:
        """A lease ran past its timeout without a heartbeat: re-grant."""
        self.stats["reaped"] += 1
        if lease.generation >= self.config.max_regrants:
            self.transport.close(force=True)
            raise StageTimeout(
                f"segment {lease.work.index} hung through "
                f"{lease.generation + 1} grants of "
                f"{self.config.lease_timeout}s each",
                stage="run",
            )
        self._regrant(lease, keep_stale=True)

    def _drain_in_flight(self, leases: dict[int, Lease]) -> None:
        """Drain path: commit what finishes in the grace window, then stop."""
        self.stats["drained"] = True
        deadline = self._clock() + self.config.drain_timeout
        while leases and self._clock() < deadline:
            progressed = False
            for index in list(leases):
                outcome = self._poll_lease(leases[index])
                if outcome is not None and outcome.error is None:
                    self.journal.commit_segment(
                        index, outcome.rows, quarantine=outcome.quarantine
                    )
                    del leases[index]
                    progressed = True
                elif outcome is not None:
                    del leases[index]  # failed in-flight work: abandon
                    progressed = True
            if not progressed:
                self._sleep(self.config.poll_interval)
        self.transport.close(force=bool(leases))
        raise _drained(self.journal)


def _drained(journal: RunJournal) -> RunInterrupted:
    """The error a drained run raises, naming its committed progress."""
    return RunInterrupted(
        f"run drained: {len(journal.segments)}/"
        f"{len(journal.manifest['segments'])} segments committed; "
        "re-run with --resume to continue",
        stage="run",
    )


# -- segment planning ---------------------------------------------------------


def plan_segments(costs: Sequence[int], segment_items: int):
    """Token-balanced contiguous segments of ~``segment_items`` items.

    The segment count is fixed by the item count alone, so the plan —
    and therefore the journal identity — does not change with
    ``workers``; balancing within that count reuses the PR 4 makespan
    planner.
    """
    if segment_items < 1:
        raise ValueError("segment_items must be >= 1")
    if not costs:
        return []
    return plan_shards(costs, max(1, math.ceil(len(costs) / segment_items)))


# -- durable run drivers ------------------------------------------------------


@dataclasses.dataclass
class DurableRunResult:
    """Rows + provenance from a journaled run."""

    payloads: list  # raw journal row payloads, corpus order
    journal: RunJournal
    stats: dict

    @property
    def pairs(self) -> list[tuple[dict, str]]:
        """``(row, status)`` pairs (rows kinds), mirroring run_resilient."""
        return [
            (payload["row"], payload["status"]) for payload in self.payloads
        ]

    @property
    def rows(self) -> list[dict]:
        return [payload["row"] for payload in self.payloads]


def _broadcast_host(host: Any, kind: str):
    if kind == KIND_PIPELINE:
        return broadcast_pipeline(host)
    if kind == KIND_EXTRACTION:
        return broadcast_extractor(host)
    return broadcast_classifier(host)


def _run_segments(
    journal: RunJournal,
    works: list[SegmentWork],
    broadcast,
    *,
    workers: int,
    config: SupervisorConfig | None,
    drain_event: threading.Event | None,
    start_method: str | None,
) -> dict:
    """Execute pending works, committing each as it finishes; run stats.

    ``workers<=1`` (or one pending segment) runs the works in order on a
    broadcast-restored host and honors the drain event between
    segments; otherwise the pool runs them under supervisor leases.
    """
    if workers <= 1 or len(works) <= 1:
        outcomes = _local_outcomes(broadcast, works)
        for __ in works:
            # Checked before each segment starts: a drain begins no work.
            if drain_event is not None and drain_event.is_set():
                raise _drained(journal)
            outcome = next(outcomes)
            if outcome.error is not None:
                raise error_from_context(outcome.error)
            journal.commit_segment(
                outcome.index, outcome.rows, quarantine=outcome.quarantine
            )
        return {"workers": 1, "supervised": False}
    with WorkerPool(
        broadcast, workers=min(workers, len(works)), start_method=start_method
    ) as pool:
        supervisor = RunSupervisor(
            journal, pool, config=config, drain_event=drain_event
        )
        supervisor.run(works)
    return {"workers": workers, "supervised": True, **supervisor.stats}


def _run_durable(
    host: Any,
    kind: str,
    items: list,
    run_dir,
    *,
    mode: str,
    fields: Sequence[str],
    config_hash: str,
    digest: str,
    workers: int | str | None,
    resume: bool,
    segment_items: int,
    config: SupervisorConfig | None,
    fault_injector: FaultInjector | None,
    drain_event: threading.Event | None,
    start_method: str | None,
) -> DurableRunResult:
    """The durable drivers' body: plan, journal, run what is pending."""
    workers = resolve_workers(workers)
    segments = plan_segments(_item_costs(kind, items), segment_items)
    journal = RunJournal(run_dir, resume=resume, fault_injector=fault_injector)
    journal.begin(
        kind=kind,
        config_hash=config_hash,
        input_digest=digest,
        num_items=len(items),
        segments=[(segment.start, segment.stop) for segment in segments],
    )
    run_stats: dict = {"workers": workers, "supervised": False}
    pending = set(journal.pending())
    works = _segment_works(
        host,
        kind,
        [segment for segment in segments if segment.index in pending],
        items,
        mode,
        fields=fields,
    )
    if works:
        run_stats = _run_segments(
            journal,
            works,
            _broadcast_host(host, kind),
            workers=workers,
            config=config,
            drain_event=drain_event,
            start_method=start_method,
        )
    journal.mark_complete()
    return DurableRunResult(
        payloads=journal.rows(),
        journal=journal,
        stats={**journal.stats(), **run_stats},
    )


def run_durable_rows(
    host: Any,
    kind: str,
    texts: Sequence[str],
    run_dir,
    *,
    workers: int | str | None = 1,
    resume: bool = True,
    segment_items: int = DEFAULT_SEGMENT_ITEMS,
    on_error: str = "raise",
    fields: Sequence[str] | None = None,
    config: SupervisorConfig | None = None,
    fault_injector: FaultInjector | None = None,
    drain_event: threading.Event | None = None,
    start_method: str | None = None,
) -> DurableRunResult:
    """Journaled bulk inference: texts in, ``(row, status)`` pairs out.

    The durable sibling of ``TaskModel.run_resilient``: output is
    bitwise-identical to an uninterrupted (or non-durable) run no matter
    how many times the process was killed and resumed in between,
    because segments are contiguous, per-segment results equal the
    full-corpus results (packing invariance), and committed rows replay
    byte-exactly from the WAL.

    Args:
        host: a *fitted* backend — extractor (``kind="extraction"``) or
            text classifier (``kind="classification"``).
        texts: the corpus, order-significant.
        run_dir: journal directory; pass the same directory with
            ``resume=True`` to continue an interrupted run.
        fields: empty-row schema for skip/degrade (defaults to the
            host's configured fields / the classification row schema).
        fault_injector: journal-site injector (``journal_commit`` /
            ``journal_publish``) for crash testing.
        drain_event: external drain signal (see :class:`GracefulShutdown`).
    """
    texts = [str(text) for text in texts]
    if fields is None:
        if kind == KIND_CLASSIFICATION:
            fields = ("Label", "Score")
        else:
            fields = tuple(getattr(host.config, "fields", ()))
    return _run_durable(
        host,
        kind,
        texts,
        run_dir,
        mode=on_error,
        fields=fields,
        config_hash=config_fingerprint(
            kind=kind,
            fingerprint=_model_fingerprint(host),
            fields=list(fields),
            on_error=on_error,
        ),
        digest=input_digest(texts),
        workers=workers,
        resume=resume,
        segment_items=segment_items,
        config=config,
        fault_injector=fault_injector,
        drain_event=drain_event,
        start_method=start_method,
    )


def run_durable_reports(
    pipeline: Any,
    reports: Sequence[Any],
    run_dir,
    *,
    workers: int | str | None = 1,
    resume: bool = True,
    segment_items: int = 4,
    on_error: str | None = None,
    config: SupervisorConfig | None = None,
    fault_injector: FaultInjector | None = None,
    drain_event: threading.Event | None = None,
    start_method: str | None = None,
) -> DurableRunResult:
    """Journaled GoalSpotter corpus run: reports in, record payloads out.

    Quarantine entries commit alongside their segment's records, so
    poison documents survive restarts with full typed provenance and a
    resume never retries an already-settled segment. The caller's
    ``pipeline.quarantine`` is extended with the (replayed or fresh)
    entries after the run completes.
    """
    from repro.goalspotter.pipeline import ON_ERROR_POLICIES
    from repro.runtime.errors import InputError
    from repro.runtime.resilience import QuarantineEntry

    mode = on_error if on_error is not None else pipeline.on_error
    if mode not in ON_ERROR_POLICIES:
        raise InputError(
            f"unknown on_error {mode!r}; use {ON_ERROR_POLICIES}",
            stage="pipeline",
        )
    reports = list(reports)
    result = _run_durable(
        pipeline,
        KIND_PIPELINE,
        reports,
        run_dir,
        mode=mode,
        fields=(),
        config_hash=config_fingerprint(
            kind=KIND_PIPELINE,
            detector=_model_fingerprint(pipeline.detector),
            extractor=_model_fingerprint(pipeline.extractor),
            on_error=mode,
        ),
        digest=_reports_digest(reports),
        workers=workers,
        resume=resume,
        segment_items=segment_items,
        config=config,
        fault_injector=fault_injector,
        drain_event=drain_event,
        start_method=start_method,
    )
    pipeline.quarantine.extend(
        QuarantineEntry.from_dict(payload)
        for payload in result.journal.quarantine_payloads()
    )
    return result


def _model_fingerprint(owner: Any) -> str:
    model = getattr(owner, "model", None)
    if model is None or not hasattr(model, "fingerprint"):
        return ""
    return model.fingerprint()


def _reports_digest(reports: Sequence[Any]) -> str:
    """Order-sensitive content address of a report corpus."""
    parts: list[str] = []
    for report in reports:
        parts.append(
            "\x1d".join(
                [
                    report.company,
                    report.report_id,
                    str(report.reporting_year),
                ]
                + [
                    block.text
                    for page in report.pages
                    for block in page.blocks
                    if isinstance(getattr(block, "text", None), str)
                ]
            )
        )
    return input_digest(parts)
