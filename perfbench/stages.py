"""Inputs, models and the three measured stages of the benchmark.

* **corpus** — a Table-5-shaped report corpus through detect -> extract
  -> store: ``GoalSpotter.process_reports_durable(workers=1)``,
  ``process_reports(workers=1)`` or ``process_reports(workers=2)``, then
  ``atomic_store_records(dedupe=True)``.
* **serve** — single-text requests through a default ``FleetRouter``:
  closed-loop callers, then open-loop traffic at three fixed rates.
* **train** — ``WeakSupervisionExtractor.fit`` with a ``CheckpointManager``
  on a Sustainability-Goals-shaped subset, scored on held-out objectives.

Every input is generated from the run's seed. The detector and extractor
the corpus and serve stages use are trained once per source tree and
cached beside this file (see :func:`ensure_models`); that training is a
build step outside every timed window.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import pickle
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench import loadgen
from perfbench.envelope import source_digest
from perfbench.tracing import percentile

HERE = Path(__file__).resolve().parent

# -- frozen parameters ---------------------------------------------------------

#: The detector and extractor of the corpus and serve stages, trained once
#: per source tree: the deployment recipe, with 6 fine-tuning epochs.
MODEL_RECIPE = {
    "detector_seed": 0,
    "detector_blocks": 1200,
    "goals_seed": 1,
    "extractor_epochs": 6,
    "extractor_lr": 1e-3,
}

#: Share of the paper's 37,871-page deployment corpus in one corpus pass.
CORPUS_SCALE = 0.02
#: Reports per durable journal segment (``process_reports_durable``'s
#: default).
SEGMENT_ITEMS = 4

#: Open-loop rates (requests/s), frozen. The fleet's closed-loop capacity
#: on a 2-core x86-64 host is ~180 requests/s; low and mid sit at 25% and
#: 50% of it. High sits at capacity rather than 75%: at 75% the p95 there
#: straddled the 50 ms limit, so ``max_rps`` flipped between levels from
#: run to run.
SERVE_RATES = (("low", 45.0), ("mid", 90.0), ("high", 180.0))
#: Callers of the closed-loop chunks, the chunks in each serve round, and
#: the requests in one chunk; ``serve_rps`` is the median chunk rate.
SERVE_CLIENTS = 4
SERVE_CLOSED_CHUNKS = 3
SERVE_CLOSED = 100
#: Requests per rate in one serve round; a run pools two rounds, so
#: each rate's p95 has 10 samples beyond it.
SERVE_CHUNK = 100
#: Untimed closed-loop requests before each round's first chunk.
SERVE_WARMUP = 40
#: Extract requests per detect request.
SERVE_EXTRACT_PER_DETECT = 3

#: The fixed fit the train stage times.
TRAIN_OBJECTIVES = 240
HELDOUT_OBJECTIVES = 200
TRAIN_EPOCHS = 2
CHECKPOINT_EVERY = 10


def derive_seed(seed: int, *tags) -> int:
    """A stable 32-bit seed for one named input stream of a run."""
    text = json.dumps([seed, *tags])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


# -- models --------------------------------------------------------------------


def model_cache_path(root: Path) -> Path:
    key = hashlib.sha256(
        json.dumps([source_digest(root), MODEL_RECIPE]).encode()
    ).hexdigest()[:16]
    return HERE / ".cache" / f"models-{key}.pkl"


def ensure_models(root: Path) -> Path:
    """Train the detector + extractor unless this source tree has them."""
    path = model_cache_path(root)
    if path.exists():
        return path
    from repro.core.extractor import ExtractorConfig
    from repro.datasets import build_sustainability_goals
    from repro.deploy import build_trained_pipeline
    from repro.models.training import FineTuneConfig

    pipeline = build_trained_pipeline(
        build_sustainability_goals(seed=MODEL_RECIPE["goals_seed"]),
        seed=MODEL_RECIPE["detector_seed"],
        detector_blocks=MODEL_RECIPE["detector_blocks"],
        extractor_config=ExtractorConfig(
            finetune=FineTuneConfig(
                epochs=MODEL_RECIPE["extractor_epochs"],
                learning_rate=MODEL_RECIPE["extractor_lr"],
            )
        ),
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(pickle.dumps((pipeline.detector, pipeline.extractor)))
    os.replace(tmp, path)
    return path


# -- inputs --------------------------------------------------------------------


def corpus_reports(seed: int, index: int):
    from repro.datasets.reports import build_deployment_corpus

    return build_deployment_corpus(
        seed=derive_seed(seed, "corpus", index), scale=CORPUS_SCALE
    )


@dataclasses.dataclass
class WarmUp:
    reports: list
    objectives: list[str]
    blocks: list[str]


def warmup_inputs(seed: int) -> WarmUp:
    from repro.datasets import build_sustainability_goals
    from repro.datasets.reports import build_deployment_corpus

    reports = build_deployment_corpus(
        seed=derive_seed(seed, "warmup"), scale=0.002
    )
    goals = build_sustainability_goals(
        seed=derive_seed(seed, "warmup-goals"), size=6
    )
    blocks = [block.text for block in reports[0].blocks()][:2]
    return WarmUp(reports, [o.text for o in goals.objectives], blocks)


def serve_requests(seed: int, counts: list[int]) -> list[list[tuple[str, str]]]:
    """Per level, ``(kind, text)`` requests; no text repeats in the run."""
    from repro.datasets import build_sustainability_goals
    from repro.datasets.reports import build_deployment_corpus

    stride = SERVE_EXTRACT_PER_DETECT + 1
    detects = sum(-(-count // stride) for count in counts)
    extracts = sum(counts) - detects
    objectives: list[str] = []
    size = extracts
    while len(objectives) < extracts:
        goals = build_sustainability_goals(
            seed=derive_seed(seed, "serve-goals", size), size=size
        )
        objectives = list(dict.fromkeys(o.text for o in goals.objectives))
        size *= 2
    blocks: list[str] = []
    scale = 0.05
    while len(blocks) < detects:
        reports = build_deployment_corpus(
            seed=derive_seed(seed, "serve-blocks", scale), scale=scale
        )
        blocks = list(dict.fromkeys(
            block.text for report in reports for block in report.blocks()
        ))
        scale *= 2
    rng = np.random.default_rng(derive_seed(seed, "serve-order"))
    blocks = [blocks[int(i)] for i in rng.permutation(len(blocks))]
    objective_iter, block_iter = iter(objectives), iter(blocks)
    levels = []
    for count in counts:
        kinds = np.array(["extract"] * count, dtype=object)
        kinds[::stride] = "detect"
        kinds = kinds[rng.permutation(count)]
        levels.append([
            (kind, next(block_iter) if kind == "detect" else next(objective_iter))
            for kind in kinds
        ])
    return levels


def train_inputs(seed: int):
    from repro.datasets import build_sustainability_goals

    goals = build_sustainability_goals(
        seed=derive_seed(seed, "train"),
        size=TRAIN_OBJECTIVES + HELDOUT_OBJECTIVES,
    )
    objectives = list(goals.objectives)
    return objectives[:TRAIN_OBJECTIVES], objectives[TRAIN_OBJECTIVES:]


# -- set-up --------------------------------------------------------------------


def setup(model_path: Path, warm: WarmUp):
    """Load the models, start the fleet and run one warm-up pass."""
    from repro.goalspotter.pipeline import GoalSpotter
    from repro.serve.fleet import FleetRouter

    start = time.perf_counter()
    detector, extractor = pickle.loads(model_path.read_bytes())
    pipeline = GoalSpotter(detector, extractor)
    router = FleetRouter(detector=detector, extractor=extractor).start()
    pipeline.process_reports(warm.reports)
    futures = [router.extract([text]) for text in warm.objectives]
    futures += [router.detect([text]) for text in warm.blocks]
    for future in futures:
        future.result(timeout=60)
    return time.perf_counter() - start, pipeline, router


# -- corpus stage --------------------------------------------------------------


def field_counts(reports, records, fields) -> dict:
    """Value-level TP/FP/FN per field against the generator's gold.

    A gold objective no record carries counts as a miss on every field it
    annotates; a record for a non-objective block counts its values as
    false positives.
    """
    from repro.eval.metrics import FieldCounts

    counts = {field: FieldCounts() for field in fields}
    predicted: dict[tuple, list[dict]] = {}
    for record in records:
        predicted.setdefault(
            (record.report_id, record.page, record.objective), []
        ).append(record.details)
    for report in reports:
        for page_index, page in enumerate(report.pages):
            for block in page.blocks:
                if not block.is_objective:
                    continue
                found = predicted.get(
                    (report.report_id, page_index, block.text)
                )
                details = found.pop() if found else {}
                for field in fields:
                    counts[field].update(
                        details.get(field, ""), block.details.get(field, "")
                    )
    for leftovers in predicted.values():
        for details in leftovers:
            for field in fields:
                counts[field].update(details.get(field, ""), "")
    return counts


def records_digest(records) -> str:
    from repro.goalspotter.pipeline import record_to_payload

    hasher = hashlib.sha256()
    for record in records:
        payload = record_to_payload(record)
        payload["score"] = float(record.score).hex()
        hasher.update(json.dumps(payload, sort_keys=True).encode())
    return hasher.hexdigest()


def run_path(pipeline, reports, path: str, run_dir: Path):
    """Records of ``path``: "durable", "plain" or "workers2"."""
    if path == "durable":
        return pipeline.process_reports_durable(
            reports, run_dir, workers=1, segment_items=SEGMENT_ITEMS
        )
    return pipeline.process_reports(
        reports, workers=2 if path == "workers2" else 1
    )


def corpus_pass(pipeline, reports, workdir: Path, index: int, path: str,
                check: str | None = None) -> dict:
    """One timed pass of ``path`` over ``reports``, then the store publish.

    ``check`` names a second path run untimed on the same reports; its
    records must be bitwise equal to the timed ones.
    """
    from repro.storage import store

    run_dir = workdir / f"run-{index}"
    gc.collect()
    start = time.perf_counter()
    records = run_path(pipeline, reports, path, run_dir)
    rows = store.atomic_store_records(
        workdir / f"store-{index}.db", records, dedupe=True
    )
    seconds = time.perf_counter() - start

    failed = int(rows != len(records))  # the store dropped or added rows
    if check is not None:
        reference = run_path(
            pipeline, reports, check, workdir / f"check-{index}"
        )
        failed += int(records != reference)
    journal = run_dir / "journal.jsonl"
    blocks = sum(len(report.blocks()) for report in reports)
    texts = [block.text for report in reports for block in report.blocks()]
    return {
        "path": path,
        "checked_against": check,
        "seconds": seconds,
        "reports": len(reports),
        "pages": sum(report.num_pages for report in reports),
        "blocks": blocks,
        "repeated_block_share": 1.0 - len(set(texts)) / max(1, blocks),
        "records": len(records),
        "extract_share": len(records) / max(1, blocks),
        "stored_rows": rows,
        "journal_bytes": journal.stat().st_size if journal.exists() else 0,
        "failed": failed,
        "digest": records_digest(records),
        "counts": field_counts(
            reports, records, pipeline.extractor.config.fields
        ),
    }


def summarize_corpus(passes: list[dict], scored: int) -> dict:
    """Timing over every pass; field F1 over the first ``scored`` passes.

    How many passes fit in a run depends on the host's speed, so F1 pools
    a fixed count of them and stays a function of the seed alone.
    """
    from repro.eval.metrics import MetricReport

    fields = passes[0]["counts"].keys()
    pooled = {field: type(passes[0]["counts"][field])() for field in fields}
    for item in passes[:scored]:
        for field in fields:
            pooled[field].merge(item["counts"][field])
    report = MetricReport(per_field=pooled)
    samples = [item["pages"] / item["seconds"] for item in passes]
    return {
        "pages_per_s": statistics.median(samples),
        "pages_per_s_samples": samples,
        "field_f1": report.f1,
        "field_precision": report.precision,
        "field_recall": report.recall,
        "per_field_f1": {field: report.field_f1(field) for field in fields},
        "passes": [
            {key: value for key, value in item.items() if key != "counts"}
            for item in passes
        ],
        "attempted": sum(item["reports"] for item in passes),
        "failed": sum(item["failed"] for item in passes),
    }


# -- serve stage ---------------------------------------------------------------


def _replica_completed(router) -> dict[str, float]:
    snapshot = router.metrics_snapshot()["replicas"]
    return {
        replica: float(view["counters"].get("completed", 0))
        for replica, view in snapshot.items()
    }


def check_served(requests, outcomes, pipeline) -> int:
    """Mismatches between served values and direct batched calls."""
    extract_texts, extract_values = [], []
    detect_texts, detect_values = [], []
    for (kind, text), outcome in zip(requests, outcomes):
        if isinstance(outcome, BaseException):
            continue
        if kind == "extract":
            extract_texts.append(text)
            extract_values.append(outcome.values[0])
        else:
            detect_texts.append(text)
            detect_values.append(outcome.values[0])
    mismatches = 0
    if extract_texts:
        direct = pipeline.extractor.extract_batch(extract_texts)
        mismatches += sum(a != b for a, b in zip(direct, extract_values))
    if detect_texts:
        direct = pipeline.detector.predict_proba(detect_texts)
        mismatches += sum(
            float(a) != float(b) for a, b in zip(direct, detect_values)
        )
    return mismatches


def _level_info(rounds: list, per_replica: list[float]) -> dict:
    """One open-loop level over a run, its rounds pooled.

    The level meets the limit when the pooled p95 (misses counted as
    infinitely slow) is at most 50 ms and its backlog grew in at most a
    minority of rounds.
    """
    level = loadgen.LevelResult.pooled(rounds)
    served = level.served()
    queue_waits = [r.queue_wait_seconds for r in served]
    mean_replica = float(np.mean(per_replica)) if per_replica else 0.0
    p95 = percentile(level.latencies(), 0.95)
    grew = sum(item.backlog_growth for item in rounds)
    return {
        "level": level,
        "rate": level.rate,
        "requests": len(level.requests),
        "completed": level.completed,
        "rejected": level.rejected,
        "misses": level.misses,
        "p50_ms": level.latency_ms(0.50),
        "p95_ms": level.latency_ms(0.95),
        "p99_ms": level.latency_ms(0.99),
        "round_p50_ms": [item.latency_ms(0.50) for item in rounds],
        "round_p95_ms": [item.latency_ms(0.95) for item in rounds],
        "throughput_rps": level.throughput,
        "backlog_growth_rounds": grew,
        "meets_limit": p95 <= loadgen.P95_LIMIT_S and 2 * grew < len(rounds),
        "lateness_ms": level.lateness_ms(),
        "queue_wait_p50_ms": 1e3 * percentile(queue_waits, 0.50),
        "queue_wait_p95_ms": 1e3 * percentile(queue_waits, 0.95),
        "compute_p50_ms": 1e3 * percentile(
            [r.compute_seconds for r in served], 0.50),
        "batch_rows": float(np.mean([r.batch_size for r in served]))
        if served else 0.0,
        "replica_skew": max(per_replica) / mean_replica
        if mean_replica > 0 else 0.0,
    }


def serve_plan(seed: int, rounds: int) -> list[dict[str, list]]:
    """Per round, the requests of each phase; no text repeats in a run."""
    names = ["warmup", "closed"] + [name for name, __ in SERVE_RATES]
    counts = [SERVE_WARMUP, SERVE_CLOSED * SERVE_CLOSED_CHUNKS] + [
        SERVE_CHUNK
    ] * len(SERVE_RATES)
    sets = iter(serve_requests(seed, counts * rounds))
    return [{name: next(sets) for name in names} for __ in range(rounds)]


def start_fleet(pipeline):
    from repro.serve.fleet import FleetRouter

    return FleetRouter(
        detector=pipeline.detector, extractor=pipeline.extractor
    ).start()


def serve_round(router, plan: dict[str, list], seed: int, index: int) -> dict:
    """Untimed warm-up, closed-loop chunks, then one chunk of every rate."""
    loadgen.run_closed(router, plan["warmup"], SERVE_CLIENTS)
    result = {"closed": []}
    for start in range(0, len(plan["closed"]), SERVE_CLOSED):
        gc.collect()
        result["closed"].append(loadgen.run_closed(
            router, plan["closed"][start:start + SERVE_CLOSED],
            SERVE_CLIENTS,
        ))
    for name, rate in SERVE_RATES:
        before = _replica_completed(router)
        level = loadgen.run_level(
            router, name, rate, plan[name],
            derive_seed(seed, "arrivals", name, index),
        )
        after = _replica_completed(router)
        result[name] = (
            level, [after[key] - before.get(key, 0.0) for key in after]
        )
    return result


def summarize_serve(rounds: list[dict], plans: list[dict], pipeline) -> dict:
    """Closed-loop capacity, the open-loop levels, and the result checks."""
    served_hasher = hashlib.sha256()
    closed_requests = [req for plan in plans for req in plan["closed"]]
    chunks = [chunk for item in rounds for chunk in item["closed"]]
    closed_outcomes = [out for chunk in chunks for out in chunk["outcomes"]]
    closed_misses = sum(
        isinstance(out, BaseException) for out in closed_outcomes
    )
    closed = {
        "clients": SERVE_CLIENTS,
        "requests": len(closed_requests),
        "misses": closed_misses,
        "mismatches": check_served(closed_requests, closed_outcomes, pipeline),
        "chunk_rps": [
            chunk["completed"] / chunk["elapsed"] for chunk in chunks
        ],
    }
    closed["serve_rps"] = statistics.median(closed["chunk_rps"])
    levels = {}
    for name, __ in SERVE_RATES:
        chunks = [item[name][0] for item in rounds]
        per_replica = [
            sum(counts) for counts in zip(*(item[name][1] for item in rounds))
        ]
        info = _level_info(chunks, per_replica)
        info["mismatches"] = check_served(
            info["level"].requests, info["level"].outcomes, pipeline
        )
        levels[name] = info
    for outcome in closed_outcomes + [
        out for info in levels.values() for out in info["level"].outcomes
    ]:
        if not isinstance(outcome, BaseException):
            served_hasher.update(repr(outcome.values).encode())
    passing = [
        info["throughput_rps"] for info in levels.values()
        if info["meets_limit"]
    ]
    return {
        "serve_rps": closed["serve_rps"],
        "closed": closed,
        "levels": levels,
        "max_rps": passing[-1] if passing else 0.0,
        "attempted": closed["requests"]
        + sum(info["requests"] for info in levels.values()),
        "failed": closed["misses"] + closed["mismatches"] + sum(
            info["misses"] + info["mismatches"] for info in levels.values()
        ),
        "mismatches": closed["mismatches"]
        + sum(info["mismatches"] for info in levels.values()),
        "digest": served_hasher.hexdigest(),
    }


def serve_layer_stats(serve: dict) -> dict:
    """Serve-side per-layer numbers, pooled over every level of the stage."""
    served = [
        outcome
        for info in serve["levels"].values()
        for outcome in info["level"].served()
    ]
    skews = [info["replica_skew"] for info in serve["levels"].values()]
    return {
        "compute_p50_ms": 1e3 * percentile(
            [r.compute_seconds for r in served], 0.50),
        "queue_wait_p50_ms": 1e3 * percentile(
            [r.queue_wait_seconds for r in served], 0.50),
        "queue_wait_p95_ms": 1e3 * percentile(
            [r.queue_wait_seconds for r in served], 0.95),
        "batch_rows": float(np.mean([r.batch_size for r in served]))
        if served else 0.0,
        "rejected": float(sum(
            info["rejected"] for info in serve["levels"].values()
        )),
        "replica_skew": float(np.mean(skews)) if skews else 0.0,
    }


# -- train stage ---------------------------------------------------------------


def train_config():
    from repro.core.extractor import ExtractorConfig
    from repro.models.training import FineTuneConfig

    return ExtractorConfig(
        model="distilbert",
        max_len=64,
        num_merges=400,
        finetune=FineTuneConfig(
            epochs=TRAIN_EPOCHS, batch_size=8, learning_rate=5e-3
        ),
    )


def train_fit(train, heldout, workdir: Path, index: int) -> dict:
    """The timed fit, then (untimed) its held-out field F1.

    ``heldout=None`` skips the scoring, for a repeat of a scored fit.
    """
    from repro.core.extractor import WeakSupervisionExtractor
    from repro.eval.metrics import evaluate_extractions
    from repro.nn.serialize import state_digest
    from repro.runtime.checkpoint import CheckpointManager

    extractor = WeakSupervisionExtractor(train_config())
    manager = CheckpointManager(
        workdir / f"ckpt-{index}", every=CHECKPOINT_EVERY
    )
    gc.collect()
    start = time.perf_counter()
    extractor.fit(train, checkpoint=manager)
    seconds = time.perf_counter() - start

    losses = list(extractor.loss_history)
    heldout_f1 = None
    if heldout is not None:
        heldout_f1 = evaluate_extractions(
            extractor.extract_batch([o.text for o in heldout]),
            [o.details for o in heldout], extractor.config.fields,
        ).f1
    batch = extractor.config.finetune.batch_size
    return {
        "seconds": seconds,
        "steps": TRAIN_EPOCHS * -(-len(train) // batch),
        "losses": losses,
        "nonfinite_losses": sum(not math.isfinite(loss) for loss in losses),
        "checkpoint_saves": manager.saves,
        "weak_coverage": extractor.weak_stats.coverage,
        "heldout_f1": heldout_f1,
        "digest": hashlib.sha256(
            (state_digest(extractor.model)
             + ",".join(float(loss).hex() for loss in losses)).encode()
        ).hexdigest(),
    }
