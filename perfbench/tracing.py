"""Span tracing around the public callables of each layer.

The wrappers are installed only in traced runs and only from the
benchmark's own files: entering ``with Tracer():`` swaps each named
callable for a timing wrapper and leaving it puts the originals back. Every span
records its name, start, end, parent span and thread; spans are kept in
memory and written out when the run ends. A span's self time is its
duration minus the time its direct children cover (children run on the
same thread, strictly nested, so their durations add up to that cover).

FLOP and byte counts of ``Linear`` and attention calls are *computed*
from tensor shapes, not measured by hardware counters.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import pickle
import threading
import time
from pathlib import Path

import numpy as np

FLOPS_NOTE = (
    "FLOP and byte counts are computed from tensor shapes "
    "(2*M*K*N per GEMM, operands and result counted once), not measured"
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    thread: int
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """In-memory span recorder plus counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        #: (kind, shape key) -> [calls, flops, bytes, seconds]
        self.gemms: dict[tuple, list[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs ahead of the span and its return value
        reaches ``after(args, kwargs, result, seconds, token)``, which runs
        once the span has closed, so neither is billed to the layer.
        """
        tracer = self

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span = Span(name, 0.0, 0.0, parent, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child_seconds += span.seconds
            if after is not None:
                after(args, kwargs, result, span.seconds, token)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def gemm(self, kind: str, shape: tuple, flops: float, nbytes: float,
             seconds: float) -> None:
        with self._lock:
            entry = self.gemms.setdefault((kind, shape), [0, 0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += flops
            entry[2] += nbytes
            entry[3] += seconds

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, before, after))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def absorb(self, other: "Tracer") -> None:
        """Add another tracer's spans, counts and GEMM rows to this one."""
        offset = len(self.spans)
        for span in other.spans:
            self.spans.append(dataclasses.replace(
                span, parent=span.parent + offset if span.parent >= 0 else -1
            ))
        self.counts.update(other.counts)
        for key, row in other.gemms.items():
            entry = self.gemms.setdefault(key, [0, 0.0, 0.0, 0.0])
            for position, value in enumerate(row):
                entry[position] += value

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- views ---------------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name)

    def self_total(self, name: str) -> float:
        return sum(
            span.self_seconds for span in self.spans if span.name == name
        )

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def layer_table(self) -> dict:
        table: dict[str, dict] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            row["calls"] += 1
            row["seconds"] += span.seconds
            row["self_seconds"] += span.self_seconds
        return dict(sorted(table.items()))

    def gemm_table(self) -> list[dict]:
        rows = []
        for (kind, shape), (calls, flops, nbytes, seconds) in sorted(
            self.gemms.items(), key=lambda item: -item[1][1]
        ):
            rows.append({
                "kind": kind,
                "shape": list(shape),
                "calls": calls,
                "gflop": flops / 1e9,
                "mbytes": nbytes / 1e6,
                "seconds": seconds,
                "gflops_per_s": flops / seconds / 1e9 if seconds else 0.0,
            })
        return rows

    def write(self, path: Path) -> None:
        """Dump spans (compact rows) to ``path`` as JSON."""
        import json

        rows = [
            [s.name, s.start, s.end, s.parent, s.thread] for s in self.spans
        ]
        path.write_text(json.dumps({
            "columns": ["name", "start", "end", "parent", "thread"],
            "spans": rows,
        }))


# -- what gets wrapped ---------------------------------------------------------


def _itemsize(array) -> int:
    return int(getattr(array, "itemsize", 4))


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer the benchmark reports."""
    from repro.core import extractor as core_extractor
    from repro.goalspotter.detector import ObjectiveDetector
    from repro.models import sequence_classifier, token_classifier
    from repro.nn import attention, encoder, layers, optim
    from repro.runtime import checkpoint, journal, parallel
    from repro.serve.fleet import FleetRouter
    from repro.storage import store
    from repro.text.bpe import BpeTokenizer

    # text: BPE encode, with the word-cache hit ratio measured around it.
    def encode_before(args, kwargs):
        info = args[0].cache_info()
        return info["hits"], info["misses"]

    def encode_after(args, kwargs, result, seconds, token):
        info = args[0].cache_info()
        tracer.count("bpe_hits", info["hits"] - token[0])
        tracer.count("bpe_misses", info["misses"] - token[1])

    tracer.patch(BpeTokenizer, "encode", "text.encode",
                 encode_before, encode_after)

    # scheduler: the batch plans both classifiers build.
    def plan_after(args, kwargs, plan, seconds, token):
        tracer.count("plan_total_tokens", plan.total_tokens)
        tracer.count("plan_padded_tokens", plan.padded_tokens)
        tracer.count("plan_microbatches", len(plan.microbatches))

    for module in (token_classifier, sequence_classifier):
        tracer.patch(module, "plan_batches", "scheduler.plan",
                     after=plan_after)

    # nn: encoder layers, with computed GEMM FLOPs.
    def linear_after(args, kwargs, out, seconds, token):
        module, x = args[0], args[1]
        k, n = module.weight.value.shape
        m = int(np.prod(x.shape[:-1]))
        size = _itemsize(x)
        tracer.gemm("linear", (k, n), 2.0 * m * k * n,
                    size * (m * k + k * n + m * n), seconds)

    def attention_after(args, kwargs, out, seconds, token):
        module, x = args[0], args[1]
        batch, time_len, dim = x.shape
        heads, head_dim = module.num_heads, module.head_dim
        pinned = module.ctx_pad_to
        width = pinned if pinned is not None and time_len <= pinned else time_len
        size = _itemsize(x)
        rows = batch * time_len
        qkv = 2.0 * rows * dim * 3 * dim
        scores = 2.0 * batch * heads * time_len * time_len * head_dim
        context = 2.0 * batch * heads * time_len * width * head_dim
        nbytes = size * (
            rows * dim + dim * 3 * dim + rows * 3 * dim  # fused QKV
            + 2 * batch * heads * time_len * time_len  # scores + weights
            + batch * heads * (time_len + width) * head_dim  # V + context
        )
        tracer.count("attention_flops", qkv + scores + context)
        tracer.gemm("attention", (time_len, dim, heads, width),
                    qkv + scores + context, nbytes, seconds)

    tracer.patch(layers.Linear, "forward", "nn.linear", after=linear_after)
    tracer.patch(layers.Embedding, "forward", "nn.embedding")
    tracer.patch(layers.LayerNorm, "forward", "nn.layernorm")
    tracer.patch(attention.MultiHeadSelfAttention, "forward", "nn.attention",
                 after=attention_after)
    tracer.patch(attention, "masked_softmax", "nn.softmax")
    tracer.patch(encoder, "gelu", "nn.gelu")
    tracer.patch(encoder, "gelu_grad", "nn.gelu_grad")
    tracer.patch(token_classifier.TokenClassifier, "backward", "nn.backward")
    tracer.patch(sequence_classifier.SequenceClassifier, "backward",
                 "nn.backward")
    tracer.patch(optim.Adam, "step", "nn.optim_step")

    # models: the two classifiers' inference entry points.
    tracer.patch(sequence_classifier.SequenceClassifier, "predict_proba",
                 "models.detector")
    tracer.patch(token_classifier.TokenClassifier, "predict_logits",
                 "models.extractor")

    # core: decode steps and Algorithm 1 weak labelling.
    for attr in ("constrained_decode", "pieces_to_word_labels",
                 "decode_details"):
        tracer.patch(core_extractor, attr, "core.decode")

    def weak_after(args, kwargs, result, seconds, token):
        stats = args[0].weak_stats
        tracer.count("weak_matched", stats.annotations_matched)
        tracer.count("weak_total", stats.annotations_total)

    tracer.patch(core_extractor.WeakSupervisionExtractor,
                 "prepare_weak_labels", "core.weak_label", after=weak_after)

    # goalspotter: the detect and extract stages of the pipeline.
    tracer.patch(ObjectiveDetector, "predict_proba", "goalspotter.detect")
    tracer.patch(core_extractor.WeakSupervisionExtractor, "extract_batch",
                 "goalspotter.extract")

    # journal: durable segment commits.
    def commit_after(args, kwargs, committed, seconds, token):
        if committed:
            tracer.count("journal_commits")

    tracer.patch(journal.RunJournal, "commit_segment", "journal.commit",
                 after=commit_after)

    # parallel: model broadcast and the shard plan.
    def broadcast_after(args, kwargs, result, seconds, token):
        tracer.count("broadcast_bytes", len(pickle.dumps(result)))

    def shards_after(args, kwargs, shards, seconds, token):
        costs = [shard.cost for shard in shards]
        if costs:
            tracer.count("shard_plans")
            tracer.count("shard_skew_sum", max(costs) / (sum(costs) / len(costs)))

    tracer.patch(parallel, "broadcast_pipeline", "parallel.broadcast",
                 after=broadcast_after)
    tracer.patch(parallel, "plan_shards", "parallel.plan_shards",
                 after=shards_after)

    # checkpoint: saves and the bytes they write.
    def save_after(args, kwargs, path, seconds, token):
        tracer.count("checkpoint_saves")
        tracer.count("checkpoint_bytes", sum(
            item.stat().st_size for item in Path(path).rglob("*")
            if item.is_file()
        ))

    tracer.patch(checkpoint.CheckpointManager, "save", "checkpoint.save",
                 after=save_after)

    # storage: the atomic store publish.
    def store_after(args, kwargs, added, seconds, token):
        tracer.count("store_rows", added)

    tracer.patch(store, "atomic_store_records", "storage.store",
                 after=store_after)

    # serve: the router's submit call (results carry queue/compute times).
    tracer.patch(FleetRouter, "submit", "serve.submit")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, serve_stats: dict,
                  extract_share: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from the traced stages.

    ``serve_stats`` holds the serve-side numbers taken from the results
    (queue wait, compute, batch rows, ...); ``extract_share`` is the
    corpus stage's share of blocks that reached extraction.
    """
    counts = tracer.counts
    linear_seconds = tracer.total("nn.linear")
    linear_flops = sum(
        flops for (kind, __), (__c, flops, __b, __s) in tracer.gemms.items()
        if kind == "linear"
    )
    attention_self = tracer.self_total("nn.attention")
    metrics = {
        "text.encode_s": tracer.total("text.encode"),
        "text.bpe_hit_ratio": _ratio(
            counts["bpe_hits"], counts["bpe_hits"] + counts["bpe_misses"]
        ),
        "scheduler.padding_ratio": _ratio(
            counts["plan_padded_tokens"] - counts["plan_total_tokens"],
            counts["plan_padded_tokens"],
        ),
        "scheduler.microbatches": counts["plan_microbatches"],
        "nn.embedding_s": tracer.total("nn.embedding"),
        "nn.attention_self_s": attention_self,
        "nn.softmax_s": tracer.total("nn.softmax"),
        "nn.linear_s": linear_seconds,
        "nn.linear_gflops": _ratio(linear_flops, linear_seconds) / 1e9,
        "nn.gelu_s": tracer.total("nn.gelu"),
        "nn.layernorm_s": tracer.total("nn.layernorm"),
        "nn.backward_s": tracer.total("nn.backward"),
        "nn.gelu_grad_s": tracer.total("nn.gelu_grad"),
        "nn.optim_step_s": tracer.total("nn.optim_step"),
        "models.detector_s": tracer.total("models.detector"),
        "models.extractor_s": tracer.total("models.extractor"),
        "core.decode_s": tracer.total("core.decode"),
        "core.weak_label_s": tracer.total("core.weak_label"),
        "core.weak_coverage": _ratio(
            counts["weak_matched"], counts["weak_total"]
        ),
        "goalspotter.detect_s": tracer.total("goalspotter.detect"),
        "goalspotter.extract_s": tracer.total("goalspotter.extract"),
        "goalspotter.extract_share": extract_share,
        "journal.commit_s": tracer.total("journal.commit"),
        "journal.commits": counts["journal_commits"],
        "journal.bytes": counts["journal_bytes"],
        "parallel.broadcast_s": tracer.total("parallel.broadcast"),
        "parallel.broadcast_bytes": counts["broadcast_bytes"],
        "parallel.shard_skew": _ratio(
            counts["shard_skew_sum"], counts["shard_plans"]
        ),
        "checkpoint.save_s": tracer.total("checkpoint.save"),
        "checkpoint.saves": counts["checkpoint_saves"],
        "checkpoint.bytes": counts["checkpoint_bytes"],
        "storage.store_s": tracer.total("storage.store"),
        "storage.rows": counts["store_rows"],
    }
    metrics.update({
        "nn.attention_gflops": _ratio(
            counts["attention_flops"], attention_self
        ) / 1e9,
        "serve.submit_ms": 1e3 * _ratio(
            tracer.total("serve.submit"), tracer.calls("serve.submit")
        ),
        "serve.compute_ms": serve_stats["compute_p50_ms"],
        "serve.queue_wait_p50_ms": serve_stats["queue_wait_p50_ms"],
        "serve.queue_wait_p95_ms": serve_stats["queue_wait_p95_ms"],
        "serve.batch_rows": serve_stats["batch_rows"],
        "serve.rejected": serve_stats["rejected"],
        "serve.replica_skew": serve_stats["replica_skew"],
    })
    return {key: float(value) for key, value in metrics.items()}


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])
