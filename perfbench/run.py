"""The repository benchmark: one command, every end-to-end metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Each run exercises the three user paths, because every run must report
every end-to-end metric. An untraced run fills the tokenizer caches with
an untimed check pass, then runs two cycles of half of ``--seconds``
each:

* **serve** — one round of fleet traffic: closed-loop callers, then
  open-loop arrivals at three fixed rates;
* **train** — a weak-label fine-tuning fit, the same in every cycle;
* **corpus** — report passes until the cycle's time is up (at least two).

Each timing metric is the median of its samples over the two cycles.

The workload picks the corpus path: ``corpus`` runs
``process_reports_durable(workers=1)``, ``corpus-plain`` runs the batched
``process_reports(workers=1)``; both publish with
``atomic_store_records(dedupe=True)``. ``--trace 1`` runs each stage once
untraced and once under span tracing, plus one traced
``process_reports(workers=2)`` pass, and reports the per-layer metrics
and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (host envelope,
per-stage detail, digests, layer and GEMM tables) goes to
``perfbench/out/``. The exit code is 1 when an output check fails and 2
when the program cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload -> (corpus path it times, path its bitwise check runs).
WORKLOADS = {
    "corpus": ("durable", "plain"),
    "corpus-plain": ("plain", "durable"),
}

#: Measured in every untraced run and printed, but not gated: on a
#: 2-core host their spread across seeds exceeds any allowed bound.
UNGATED = (
    ("low_p50_ms", "ms"),
    ("low_p95_ms", "ms"),
    ("mid_p50_ms", "ms"),
    ("mid_p95_ms", "ms"),
    ("max_rps", "1/s"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: An untraced run is this many cycles of serve round -> fit -> corpus
#: passes, so the samples of each spread over the whole run instead of
#: one stretch of it.
CYCLES = 2
#: Least corpus passes per cycle.
MIN_CYCLE_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_pass(pipeline, workload, seed, workdir) -> dict:
    """The untimed first corpus pass of a run.

    It fills the tokenizer caches before any pass is timed, and its records
    through the workload's path must equal the other path's bit for bit.
    """
    from perfbench import stages

    path, check_path = WORKLOADS[workload]
    return stages.corpus_pass(
        pipeline, stages.corpus_reports(seed, 0), workdir, 0, path,
        check=check_path,
    )


def timed_pass(pipeline, workload, seed, workdir, index) -> dict:
    from perfbench import stages

    return stages.corpus_pass(
        pipeline, stages.corpus_reports(seed, index), workdir, index,
        WORKLOADS[workload][0],
    )


def summarize_fits(fits: list[dict]) -> dict:
    """Every fit of a run trains on the same inputs, so all must be equal;
    the first is scored on the held-out objectives."""
    return {
        "seconds": statistics.median(item["seconds"] for item in fits),
        "seconds_samples": [item["seconds"] for item in fits],
        "heldout_f1": fits[0]["heldout_f1"],
        "steps": sum(item["steps"] for item in fits),
        "nonfinite_losses": sum(item["nonfinite_losses"] for item in fits),
        "mismatches": sum(item["digest"] != fits[0]["digest"] for item in fits),
        "fits": fits,
    }


def untraced(args, model_path, workdir) -> tuple[dict, dict]:
    from perfbench import stages

    warm = stages.warmup_inputs(args.seed)
    setups = []
    for __ in range(SETUP_REPEATS):
        seconds, pipeline, router = stages.setup(model_path, warm)
        setups.append(seconds)
        router.shutdown()

    plan = stages.serve_plan(args.seed, CYCLES)
    train, heldout = stages.train_inputs(args.seed)
    check = check_pass(pipeline, args.workload, args.seed, workdir)
    check.pop("counts")
    rounds, passes, fits = [], [], []
    for cycle in range(CYCLES):
        cycle_start = time.perf_counter()
        # A fresh fleet per round, shut down before the fit and the corpus
        # passes, so no serving threads compete with them.
        router = stages.start_fleet(pipeline)
        try:
            rounds.append(
                stages.serve_round(router, plan[cycle], args.seed, cycle)
            )
        finally:
            router.shutdown()
        fits.append(stages.train_fit(
            train, None if fits else heldout, workdir, cycle
        ))
        cycle_passes = 0
        while (cycle_passes < MIN_CYCLE_PASSES
               or time.perf_counter() - cycle_start < args.seconds / CYCLES):
            passes.append(timed_pass(
                pipeline, args.workload, args.seed, workdir, len(passes) + 1
            ))
            cycle_passes += 1
    serve = stages.summarize_serve(rounds, plan, pipeline)
    corpus = stages.summarize_corpus(passes, CYCLES * MIN_CYCLE_PASSES)
    train = summarize_fits(fits)

    levels = serve["levels"]
    values = {
        "pages_per_s": corpus["pages_per_s"],
        "setup_s": statistics.median(setups),
        "field_f1": corpus["field_f1"],
        "serve_rps": serve["serve_rps"],
        "train_s": train["seconds"],
        "heldout_f1": train["heldout_f1"],
        "low_p50_ms": levels["low"]["p50_ms"],
        "low_p95_ms": levels["low"]["p95_ms"],
        "mid_p50_ms": levels["mid"]["p50_ms"],
        "mid_p95_ms": levels["mid"]["p95_ms"],
        "max_rps": serve["max_rps"],
    }
    for info in levels.values():
        info.pop("level")
    detail = {
        "setup_s_samples": setups,
        "check_pass": check,
        "corpus": corpus,
        "serve": serve,
        "train": train,
        "digests": {
            "corpus": [item["digest"] for item in corpus["passes"]],
            "serve": serve["digest"],
            "train": fits[0]["digest"],
        },
    }
    totals = {
        "attempted": check["reports"] + corpus["attempted"]
        + serve["attempted"] + train["steps"],
        "failed": check["failed"] + corpus["failed"] + serve["failed"]
        + train["nonfinite_losses"] + train["mismatches"],
        "mismatches": check["failed"] + corpus["failed"] + serve["mismatches"]
        + train["nonfinite_losses"] + train["mismatches"],
    }
    return values, {"detail": detail, "totals": totals}


# -- traced run ------------------------------------------------------------------


def _stage_once(stage, pipeline, args, workdir, index):
    """One quantum of a stage: (user-facing seconds, result)."""
    from perfbench import stages

    if stage == "corpus":
        # Pass 0 is the run's check pass.
        item = timed_pass(pipeline, args.workload, args.seed, workdir,
                          index + 1)
        return item["seconds"], item
    if stage == "train":
        train, heldout = stages.train_inputs(args.seed)
        item = stages.train_fit(train, heldout, workdir, index)
        return item["seconds"], item
    router = stages.start_fleet(pipeline)
    try:
        plans = stages.serve_plan(args.seed + index, 1)
        item = stages.summarize_serve(
            [stages.serve_round(router, plans[0], args.seed, index)], plans,
            pipeline,
        )
    finally:
        router.shutdown()
    latency = sum(
        outcome.total_seconds
        for info in item["levels"].values()
        for outcome in info["level"].served()
    )
    return latency, item


def traced(args, model_path, workdir) -> tuple[dict, dict]:
    """Each stage once untraced, then once under span tracing."""
    from perfbench import stages
    from perfbench.tracing import FLOPS_NOTE, Tracer, layer_metrics

    __, pipeline, router = stages.setup(
        model_path, stages.warmup_inputs(args.seed)
    )
    router.shutdown()
    check = check_pass(pipeline, args.workload, args.seed, workdir)
    check.pop("counts")
    tracer = Tracer()
    results = {}
    for stage in ("serve", "corpus", "train"):
        plain_seconds, plain = _stage_once(stage, pipeline, args, workdir, 0)
        stage_tracer = Tracer()
        with stage_tracer:
            traced_seconds, item = _stage_once(
                stage, pipeline, args, workdir, 1
            )
        if stage == "corpus":
            stage_tracer.count("journal_bytes", item["journal_bytes"])
        tracer.absorb(stage_tracer)
        results[stage] = {
            "untraced_seconds": plain_seconds,
            "traced_seconds": traced_seconds,
            "untraced": plain,
            "traced": item,
            "layers": stage_tracer.layer_table(),
        }

    # The workers=2 path: traced once for the parallel.* layers only. Its
    # pass time swings several-fold from pass to pass while two processes'
    # BLAS threads share two cores, so no end-to-end metric rests on it.
    reports = stages.corpus_reports(args.seed, 3)
    parallel_tracer = Tracer()
    with parallel_tracer:
        parallel = stages.corpus_pass(
            pipeline, reports, workdir, 3, "workers2"
        )
    parallel.pop("counts")
    tracer.absorb(parallel_tracer)
    # Untraced check: workers=2 records equal the batched path's bit for bit.
    reference = stages.run_path(pipeline, reports, "plain", workdir / "ref")
    parallel["failed"] += int(
        parallel["digest"] != stages.records_digest(reference)
    )

    # Extraction share is a corpus property: serve requests pick their kind.
    values = layer_metrics(
        tracer,
        stages.serve_layer_stats(results["serve"]["traced"]),
        results["corpus"]["traced"]["extract_share"],
    )
    plain_total = sum(r["untraced_seconds"] for r in results.values())
    traced_total = sum(r["traced_seconds"] for r in results.values())
    values["trace.overhead_pct"] = 100.0 * (traced_total / plain_total - 1.0)
    tracer.write(HERE / "out" / f"spans-{args.workload}-s{args.seed}.json")

    attempted = check["reports"] + parallel["reports"]
    failed = mismatches = check["failed"] + parallel["failed"]
    for stage, result in results.items():
        for item in (result["untraced"], result["traced"]):
            if stage == "serve":
                attempted += item["attempted"]
                failed += item["failed"]
                mismatches += item["mismatches"]
                for info in item["levels"].values():
                    info.pop("level")
            elif stage == "train":
                attempted += item["steps"]
                failed += item["nonfinite_losses"]
                mismatches += item["nonfinite_losses"]
            else:
                attempted += item["reports"]
                failed += item["failed"]
                mismatches += item["failed"]
                item.pop("counts")
    detail = {
        "overhead": {
            "measure": "corpus pass + fit wall seconds + summed request "
            "latency, traced vs untraced",
            "untraced_seconds": plain_total,
            "traced_seconds": traced_total,
        },
        "flops_note": FLOPS_NOTE,
        "layers": tracer.layer_table(),
        "gemms": tracer.gemm_table(),
        "stages": results,
        "check_pass": check,
        "workers2_pass": parallel,
    }
    return values, {
        "detail": detail,
        "totals": {"attempted": attempted, "failed": failed,
                   "mismatches": mismatches},
    }


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import stages
    from perfbench.envelope import host_envelope

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = HERE / ".work" / f"{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    # Child processes and libraries write scratch files inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    try:
        model_path = stages.ensure_models(ROOT)
        envelope = host_envelope(ROOT)
        print(json.dumps({"envelope": envelope}, sort_keys=True))
        runner = traced if args.trace else untraced
        values, extra = runner(args, model_path, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # BENCHMARK.json is the one list of the metrics a run reports.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        item["name"]: {"value": float(values[item["name"]]),
                       "unit": item["unit"]}
        for item in spec["per_layer" if args.trace else "end_to_end"]
    }
    ungated = {} if args.trace else {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in UNGATED
    }
    totals = extra["totals"]
    correct = totals["mismatches"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "envelope": envelope,
        "correct": correct,
        "totals": totals,
        "metrics": metrics,
        "ungated": ungated,
        **extra["detail"],
    }
    out_path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_path.write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    for name, metric in list(metrics.items()) + list(ungated.items()):
        note = "" if name in metrics else "  (not gated)"
        print(f"{args.workload:12s} {name:26s} {metric['value']:.6g} "
              f"{metric['unit']}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(totals["attempted"]),
        "failed": int(totals["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
