"""Open-loop load generator for the fleet.

Independent users send on a seeded Poisson schedule whatever the fleet
is doing, so a stall delays every request scheduled after it. Each
request is timed from its *scheduled* send time to the moment its future
resolves, which bills that delay to the requests that suffered it; how
late the generator itself ran is reported next to the latencies.
Rejected submissions (``OverloadedError``) and failed futures are misses:
they count as failed operations and as infinitely slow.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from concurrent.futures import wait

import numpy as np

from perfbench.tracing import percentile

#: A level meets the latency limit when p95, misses included, is at most
#: this many seconds and its backlog does not grow.
P95_LIMIT_S = 0.050


@dataclasses.dataclass
class LevelResult:
    name: str
    rate: float
    requests: list[tuple[str, str]]  # (kind, text) in send order
    due: list[float]
    sent: list[float]
    done: list[float | None]
    outcomes: list  # ServeResult, or the exception a miss raised
    outstanding: list[int]  # requests in flight at each send
    elapsed: float  # first scheduled send to last resolution
    backlog_growth: bool  # in-flight count rose over the level

    @classmethod
    def pooled(cls, chunks: list["LevelResult"]) -> "LevelResult":
        """One level measured in several chunks spread over the run."""
        def joined(attr):
            return [item for chunk in chunks for item in getattr(chunk, attr)]

        return cls(
            name=chunks[0].name,
            rate=chunks[0].rate,
            requests=joined("requests"),
            due=joined("due"),
            sent=joined("sent"),
            done=joined("done"),
            outcomes=joined("outcomes"),
            outstanding=joined("outstanding"),
            elapsed=sum(chunk.elapsed for chunk in chunks),
            backlog_growth=any(chunk.backlog_growth for chunk in chunks),
        )

    @property
    def misses(self) -> int:
        return sum(1 for item in self.outcomes if isinstance(item, BaseException))

    @property
    def rejected(self) -> int:
        from repro.runtime.errors import OverloadedError

        return sum(1 for item in self.outcomes if isinstance(item, OverloadedError))

    def latencies(self) -> list[float]:
        """Seconds from scheduled send to result; misses are ``inf``."""
        return [
            math.inf if isinstance(outcome, BaseException) or done is None
            else done - due
            for due, done, outcome in zip(self.due, self.done, self.outcomes)
        ]

    def latency_ms(self, fraction: float) -> float:
        value = percentile(self.latencies(), fraction)
        # A miss at this rank has no finite latency; report the level's
        # whole span instead, an upper bound on any finite one.
        return 1e3 * (value if math.isfinite(value) else self.elapsed)

    @property
    def completed(self) -> int:
        return len(self.outcomes) - self.misses

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def lateness_ms(self) -> dict:
        late = [1e3 * (sent - due) for sent, due in zip(self.sent, self.due)]
        return {
            "p50": percentile(late, 0.50),
            "p95": percentile(late, 0.95),
            "max": max(late) if late else 0.0,
            "share_over_1ms": sum(1 for value in late if value > 1.0)
            / max(1, len(late)),
        }

    def served(self) -> list:
        return [
            item for item in self.outcomes
            if not isinstance(item, BaseException)
        ]


def run_level(router, name: str, rate: float, requests, seed: int,
              timeout: float = 60.0) -> LevelResult:
    """Send ``requests`` at Poisson rate ``rate`` and wait for all of them."""
    from repro.runtime.errors import OverloadedError

    count = len(requests)
    # A Poisson process conditioned on ``count`` arrivals in
    # ``count / rate`` seconds: sorted uniform arrival times. The offered
    # rate is then exact, so throughput does not wander with the draw.
    offsets = np.sort(
        np.random.default_rng(seed).uniform(0.0, count / rate, size=count)
    )
    offsets -= offsets[0]
    due = [0.0] * count
    sent = [0.0] * count
    done: list[float | None] = [None] * count
    outcomes: list = [None] * count
    outstanding = [0] * count
    futures = []
    finished = [0]
    lock = threading.Lock()

    def resolved(index: int):
        def callback(future) -> None:
            stamp = time.perf_counter()
            error = future.exception()
            done[index] = stamp
            outcomes[index] = error if error is not None else future.result()
            with lock:
                finished[0] += 1
        return callback

    start = time.perf_counter() + 0.005
    for index, (kind, text) in enumerate(requests):
        due[index] = start + float(offsets[index])
        delay = due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent[index] = time.perf_counter()
        with lock:
            outstanding[index] = index - finished[0]
        try:
            future = router.submit(kind=kind, texts=(text,))
        except OverloadedError as error:
            outcomes[index] = error
            with lock:
                finished[0] += 1
            continue
        future.add_done_callback(resolved(index))
        futures.append(future)
    wait(futures, timeout=timeout)
    # Callbacks run right after a future resolves; wait for the last ones.
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        with lock:
            if finished[0] >= count:
                break
        time.sleep(0.001)
    for index, outcome in enumerate(outcomes):
        if outcome is None:
            outcomes[index] = TimeoutError("request did not resolve")
    stamps = [stamp for stamp in done if stamp is not None] or [start]
    # Backlog growth: the in-flight count at send time is clearly higher
    # over the last quarter of the level than over the first.
    quarter = max(1, count // 4)
    first = float(np.mean(outstanding[:quarter]))
    last = float(np.mean(outstanding[-quarter:]))
    return LevelResult(
        name=name,
        rate=rate,
        requests=list(requests),
        due=due,
        sent=sent,
        done=done,
        outcomes=outcomes,
        outstanding=outstanding,
        elapsed=max(max(stamps), max(sent)) - due[0],
        backlog_growth=last > 2.0 * first + 4.0,
    )


def run_closed(router, requests, clients: int, timeout: float = 60.0) -> dict:
    """``clients`` callers that each send their next request on a reply.

    Returns the completed count, the span from first send to last reply,
    and the outcomes in ``requests`` order.
    """
    outcomes: list = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def caller() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            kind, text = requests[index]
            try:
                outcomes[index] = router.submit(
                    kind=kind, texts=(text,)
                ).result(timeout=timeout)
            except Exception as error:  # a miss: rejected or failed
                outcomes[index] = error

    threads = [threading.Thread(target=caller) for __ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    completed = sum(
        1 for item in outcomes if not isinstance(item, BaseException)
    )
    return {"completed": completed, "elapsed": elapsed, "outcomes": outcomes}
