"""Durable corpus runs end-to-end (DESIGN §6i).

The tentpole guarantee under test: a journaled run killed at *any*
journal boundary — or any random storm of boundaries — and resumed
produces output bitwise-identical to an uninterrupted run, sequentially
and under ``workers=2``, across registered tasks of both kinds.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.base import DetailExtractor
from repro.datasets.reports import Page, SustainabilityReport, TextBlock
from repro.goalspotter.pipeline import GoalSpotter, record_to_payload
from repro.runtime.errors import ReproError
from repro.runtime.parallel import process_reports_parallel
from repro.runtime.resilience import FaultInjector, FaultSpec
from repro.runtime.supervisor import run_durable_reports, run_durable_rows
from repro.tasks import get_task

pytestmark = [pytest.mark.durable, pytest.mark.tasks]

#: One extraction task and one classification task (the acceptance bar).
DURABLE_TASKS = ("goalspotter", "netzero-target")
SEGMENT_ITEMS = 3
TRAIN_SIZE = 24
CORPUS_SIZE = 10


class DurableCase:
    """A trained task model, its corpus, and the uninterrupted baseline."""

    def __init__(self, name):
        self.task = get_task(name)
        recipe = self.task.golden_recipe()
        train = self.task.build_dataset(seed=recipe.train_seed, size=TRAIN_SIZE)
        self.model = self.task.build_model("tiny").fit(train)
        corpus = self.task.build_dataset(seed=recipe.eval_seed, size=CORPUS_SIZE)
        self.texts = [objective.text for objective in corpus.objectives]
        self.baseline = self.model.run_batch(self.texts)
        self.num_segments = -(-CORPUS_SIZE // SEGMENT_ITEMS)


@pytest.fixture(scope="module", params=DURABLE_TASKS)
def case(request):
    return DurableCase(request.param)


def _journaled_rows(case, run_dir, **kwargs):
    kwargs.setdefault("segment_items", SEGMENT_ITEMS)
    pairs = case.model.run_journaled(case.texts, run_dir, **kwargs)
    assert all(status == "ok" for __, status in pairs)
    return [row for row, __ in pairs]


class TestCleanPath:
    def test_durable_equals_plain_run(self, case, tmp_path):
        rows = _journaled_rows(case, tmp_path / "run")
        assert json.dumps(rows) == json.dumps(case.baseline)

    def test_workers2_equals_sequential(self, case, tmp_path):
        rows = _journaled_rows(case, tmp_path / "run", workers=2)
        assert json.dumps(rows) == json.dumps(case.baseline)

    def test_completed_run_replays_without_execution(self, case, tmp_path):
        _journaled_rows(case, tmp_path / "run")
        result = run_durable_rows(
            case.model.backend,
            case.task.kind,
            case.texts,
            tmp_path / "run",
            segment_items=SEGMENT_ITEMS,
            fields=case.model.fields,
        )
        assert result.stats["commits"] == 0
        assert result.stats["replayed_segments"] == case.num_segments
        assert json.dumps(result.rows) == json.dumps(case.baseline)


class TestKillMatrix:
    """Kill at every journal boundary; resume must be bitwise-identical."""

    @pytest.mark.chaos
    @pytest.mark.parametrize("site", ["journal_commit", "journal_publish"])
    def test_sequential_kill_at_every_boundary(self, case, tmp_path, site):
        # journal_publish fires once more than journal_commit: the
        # completion marker also traverses the append/fsync window.
        boundaries = case.num_segments + (1 if site == "journal_publish" else 0)
        for nth in range(1, boundaries + 1):
            run_dir = tmp_path / f"{site}-{nth}"
            injector = FaultInjector(
                [FaultSpec(stage=site, error="model", nth_calls=(nth,))],
                seed=0,
            )
            with pytest.raises(ReproError):
                run_durable_rows(
                    case.model.backend,
                    case.task.kind,
                    case.texts,
                    run_dir,
                    segment_items=SEGMENT_ITEMS,
                    fields=case.model.fields,
                    fault_injector=injector,
                )
            rows = _journaled_rows(case, run_dir)
            assert json.dumps(rows) == json.dumps(case.baseline), (
                f"resume after kill at {site} #{nth} diverged"
            )

    @pytest.mark.chaos
    def test_workers2_kill_at_every_commit_boundary(self, case, tmp_path):
        for nth in range(1, case.num_segments + 1):
            run_dir = tmp_path / f"kill-{nth}"
            injector = FaultInjector(
                [
                    FaultSpec(
                        stage="journal_commit", error="model", nth_calls=(nth,)
                    )
                ],
                seed=0,
            )
            with pytest.raises(ReproError):
                run_durable_rows(
                    case.model.backend,
                    case.task.kind,
                    case.texts,
                    run_dir,
                    workers=2,
                    segment_items=SEGMENT_ITEMS,
                    fields=case.model.fields,
                    fault_injector=injector,
                )
            rows = _journaled_rows(case, run_dir, workers=2)
            assert json.dumps(rows) == json.dumps(case.baseline), (
                f"workers=2 resume after kill at commit #{nth} diverged"
            )


class TestCrashStorm:
    """Random kills until the run finally completes — never diverges."""

    @pytest.mark.chaos
    def test_storm_resume_loop_converges_bitwise(self, case, tmp_path):
        rng = np.random.default_rng(42)
        run_dir = tmp_path / "storm"
        rows = None
        for attempt in range(20):
            site = ("journal_commit", "journal_publish")[attempt % 2]
            nth = int(rng.integers(1, case.num_segments + 1))
            injector = FaultInjector(
                [FaultSpec(stage=site, error="model", nth_calls=(nth,))],
                seed=attempt,
            )
            try:
                result = run_durable_rows(
                    case.model.backend,
                    case.task.kind,
                    case.texts,
                    run_dir,
                    workers=2 if attempt % 3 else 1,
                    segment_items=SEGMENT_ITEMS,
                    fields=case.model.fields,
                    fault_injector=injector,
                )
                rows = result.rows
                break
            except ReproError:
                continue  # crashed mid-run: resume in the next attempt
        if rows is None:  # storm outlasted 20 attempts: finish clean
            rows = _journaled_rows(case, run_dir)
        assert json.dumps(rows) == json.dumps(case.baseline)


# -- pipeline runs: quarantine persistence ------------------------------------


class StubDetector:
    class config:
        threshold = 0.5

    def predict_proba(self, texts):
        return np.array([0.9 if "%" in t else 0.1 for t in texts])


class StubExtractor(DetailExtractor):
    """Input-dependent details; poisons any text carrying a poison tag."""

    name = "stub"

    def fit(self, objectives):
        return self

    def extract(self, text):
        if "POISON" in text:
            raise ValueError(f"poisoned unit: {text[:30]}")
        return {"Action": text[:16].upper(), "Amount": str(len(text)),
                "Qualifier": "", "Baseline": "", "Deadline": ""}

    def extract_batch(self, texts):
        return [self.extract(text) for text in texts]


def _reports(num_docs, poisoned=()):
    reports = []
    for doc in range(num_docs):
        tag = " POISON" if doc in poisoned else ""
        blocks = [
            TextBlock(f"cut waste 5% doc-{doc:03d} block {b}{tag}", True)
            for b in range(3)
        ]
        reports.append(
            SustainabilityReport(
                company=f"C{doc % 3}",
                report_id=f"doc-{doc:03d}",
                pages=[Page(blocks=blocks)],
                reporting_year=2020 + doc % 4,
            )
        )
    return reports


class TestPipelineDurable:
    def test_process_reports_durable_equals_plain(self, tmp_path):
        corpus = _reports(6)
        plain = GoalSpotter(StubDetector(), StubExtractor()).process_reports(
            corpus
        )
        for workers in (1, "auto"):
            pipeline = GoalSpotter(StubDetector(), StubExtractor())
            durable = pipeline.process_reports_durable(
                corpus, tmp_path / f"run-{workers}", segment_items=2,
                workers=workers,
            )
            assert durable == plain
            assert pipeline.last_run_stats["durable"]["complete"] is True

    def test_quarantine_survives_restart_and_is_not_retried(self, tmp_path):
        corpus = _reports(6, poisoned={2})
        run_dir = tmp_path / "run"
        pipeline = GoalSpotter(StubDetector(), StubExtractor())
        records = pipeline.process_reports_durable(
            corpus, run_dir, on_error="skip", segment_items=2
        )
        assert pipeline.quarantine.report_ids() == ["doc-002"]

        # A fresh process resuming the finished run replays everything —
        # including the quarantine — without re-executing the poison doc.
        resumed = GoalSpotter(StubDetector(), StubExtractor())
        result = run_durable_reports(
            resumed, corpus, run_dir, on_error="skip", segment_items=2
        )
        assert result.stats["commits"] == 0  # nothing re-ran
        assert resumed.quarantine.report_ids() == ["doc-002"]
        (entry,) = resumed.quarantine
        assert entry.stage is not None
        assert isinstance(entry.error, ReproError)
        payloads = [
            (p["company"], p["report_id"], p["page"], p["objective"],
             p["details"], p["score"]) for p in result.payloads
        ]
        assert payloads == [
            (r.company, r.report_id, r.page, r.objective, r.details, r.score)
            for r in records
        ]

    @pytest.mark.chaos
    def test_parallel_and_durable_paths_agree_under_faults(self, tmp_path):
        # plan_segments(costs, k) is plan_shards(costs, ceil(n / k)): both
        # paths cut the same segments and seed the same per-segment faults.
        corpus = _reports(7)
        segment_items = 2

        def pipeline():
            return GoalSpotter(
                StubDetector(),
                StubExtractor(),
                on_error="degrade",
                fault_injector=FaultInjector(
                    [
                        FaultSpec(stage="extract", error="model", rate=0.5),
                        FaultSpec(stage="detect", error="numerical", rate=0.5),
                    ],
                    seed=1,
                ),
            )

        for workers in (1, 2):
            parallel_host = pipeline()
            parallel = process_reports_parallel(
                parallel_host,
                corpus,
                workers=workers,
                num_shards=math.ceil(len(corpus) / segment_items),
            )
            durable_host = pipeline()
            durable = durable_host.process_reports_durable(
                corpus,
                tmp_path / f"run-{workers}",
                workers=workers,
                segment_items=segment_items,
            )
            assert any(record.status != "ok" for record in parallel)
            assert len(parallel_host.quarantine) > 0
            assert json.dumps(
                [record_to_payload(record) for record in durable]
            ) == json.dumps([record_to_payload(record) for record in parallel])
            assert json.dumps(durable_host.quarantine.as_dicts()) == (
                json.dumps(parallel_host.quarantine.as_dicts())
            )

    @pytest.mark.chaos
    def test_pipeline_kill_and_resume_bitwise(self, tmp_path):
        corpus = _reports(6)
        plain = GoalSpotter(StubDetector(), StubExtractor()).process_reports(
            corpus
        )
        run_dir = tmp_path / "run"
        injector = FaultInjector(
            [FaultSpec(stage="journal_commit", error="model", nth_calls=(2,))],
            seed=0,
        )
        pipeline = GoalSpotter(StubDetector(), StubExtractor())
        with pytest.raises(ReproError):
            run_durable_reports(
                pipeline, corpus, run_dir, segment_items=2,
                fault_injector=injector,
            )
        resumed = GoalSpotter(StubDetector(), StubExtractor())
        records = resumed.process_reports_durable(
            corpus, run_dir, segment_items=2
        )
        assert records == plain


# -- the CLI under real signals -----------------------------------------------


_DRIVER = textwrap.dedent(
    """
    import os, signal, threading, time
    from pathlib import Path
    from repro.cli import main

    run_dir = Path({run_dir!r})

    def killer():
        journal = run_dir / "journal.jsonl"
        while not (journal.exists() and journal.stat().st_size > 0):
            time.sleep(0.002)
        os.kill(os.getpid(), signal.{signame})

    threading.Thread(target=killer, daemon=True).start()
    raise SystemExit(main([
        "extract", "--task", "netzero-target", "--model", {model_dir!r},
        "--input", {input_path!r}, "--run-dir", {run_dir!r},
        "--journal-segment", "1",
    ]))
    """
)


@pytest.mark.chaos
class TestCliSignals:
    @pytest.fixture(scope="class")
    def cli_setup(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-durable")
        model_dir = root / "model"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "train", "--task",
             "netzero-target", "--out", str(model_dir), "--epochs", "2",
             "--dataset-size", str(TRAIN_SIZE)],
            env=env, check=True, capture_output=True,
        )
        task = get_task("netzero-target")
        corpus = task.build_dataset(seed=3, size=40)
        input_path = root / "texts.txt"
        input_path.write_text(
            "".join(
                objective.text.replace("\n", " ") + "\n"
                for objective in corpus.objectives
            )
        )
        baseline = subprocess.run(
            [sys.executable, "-m", "repro.cli", "extract", "--task",
             "netzero-target", "--model", str(model_dir), "--input",
             str(input_path)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        return {"root": root, "model_dir": model_dir, "env": env,
                "input_path": input_path, "baseline": baseline}

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_drains_to_exit_4_and_resume_is_bitwise(
        self, cli_setup, tmp_path, signame
    ):
        run_dir = tmp_path / f"run-{signame}"
        driver = _DRIVER.format(
            run_dir=str(run_dir),
            signame=signame,
            model_dir=str(cli_setup["model_dir"]),
            input_path=str(cli_setup["input_path"]),
        )
        interrupted = subprocess.run(
            [sys.executable, "-c", driver],
            env=cli_setup["env"], capture_output=True, text=True, timeout=120,
        )
        # The signal lands after the first committed segment, well before
        # the 40-segment run completes: a graceful drain to exit 4.
        assert interrupted.returncode == 4, interrupted.stderr
        assert "interrupted" in interrupted.stderr
        assert "--resume" in interrupted.stderr

        resumed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "extract", "--task",
             "netzero-target", "--model", str(cli_setup["model_dir"]),
             "--input", str(cli_setup["input_path"]), "--run-dir",
             str(run_dir), "--journal-segment", "1"],
            env=cli_setup["env"], capture_output=True, text=True, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == cli_setup["baseline"]

    def test_no_resume_refuses_nothing_but_wipes(self, cli_setup, tmp_path):
        run_dir = tmp_path / "fresh"
        args = [sys.executable, "-m", "repro.cli", "extract", "--task",
                "netzero-target", "--model", str(cli_setup["model_dir"]),
                "--input", str(cli_setup["input_path"]), "--run-dir",
                str(run_dir)]
        first = subprocess.run(
            args, env=cli_setup["env"], capture_output=True, text=True,
            timeout=120,
        )
        assert first.returncode == 0
        again = subprocess.run(
            args + ["--no-resume"], env=cli_setup["env"], capture_output=True,
            text=True, timeout=120,
        )
        assert again.returncode == 0
        assert again.stdout == first.stdout == cli_setup["baseline"]
