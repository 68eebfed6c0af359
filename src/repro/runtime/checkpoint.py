"""Durable training: atomic, checksummed, resumable checkpoints.

The pipeline is retrained continuously as experts add weak annotations
(the GoalSpotter loop, paper Section 6); a long-lived deployment cannot
afford to lose an MLM pre-train or fine-tune run to a crash, nor to load
a truncated model artifact silently. This module provides the durability
substrate the three training loops (:func:`repro.models.training.fit_token_classifier`,
:func:`repro.models.mlm.pretrain_mlm`, :func:`repro.models.distill.distill_encoder`)
thread their step boundaries through:

* atomic file/dir primitives (:func:`publish_file`,
  :func:`atomic_write_bytes`, :func:`atomic_write_json`,
  :func:`replace_dir`, :func:`fsync_dir`, :func:`save_model_dir`) —
  temp sibling + fsync + ``os.replace``, so readers never observe a
  half-written artifact;
* a per-directory ``manifest.json`` (schema version, config hash, SHA-256
  + byte size per artifact) written last, verified first
  (:func:`write_manifest` / :func:`verify_manifest`);
* :class:`CheckpointManager` — step-boundary checkpoints capturing model
  ``state_dict``, optimizer moments/step, epoch/step counters, loss
  accumulators, and the *full* RNG state (training-loop generator plus
  every dropout generator in the model tree), with a ``LATEST``
  last-good pointer, retention pruning, and checksum-verified loading
  that rolls back to the previous good checkpoint on corruption.

The headline guarantee is **resume-equals-uninterrupted, bitwise**: kill
a run at any step boundary (the manager checks the ``train_step`` /
``checkpoint`` / ``checkpoint_commit`` fault-injection sites), resume
from the latest good checkpoint, and the final weights, optimizer
moments, and loss history are bit-for-bit identical to the run that was
never interrupted. The mechanism: a checkpoint stores three RNG
snapshots — ``setup`` (before any data-plan draws), ``epoch_start``
(before the current epoch's shuffle/masking draws), and ``now`` (the
step boundary, covering dropout draws) — so a resumed loop can re-derive
the epoch's batch plan from ``epoch_start``, then fast-forward the
generators to ``now`` and continue exactly where the dead run stopped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.nn.serialize import (
    file_sha256,
    load_optimizer_state,
    module_rngs,
    optimizer_state,
    rng_state,
    save_state,
    set_rng_state,
)
from repro.runtime.errors import ArtifactError, RunInterrupted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.module import Module
    from repro.runtime.resilience import FaultInjector

__all__ = [
    "CheckpointManager",
    "MANIFEST_NAME",
    "SCHEMA_VERSION",
    "TrainState",
    "atomic_write_bytes",
    "atomic_write_json",
    "capture_rng_states",
    "config_fingerprint",
    "fsync_dir",
    "publish_file",
    "read_json",
    "replace_dir",
    "restore_rng_states",
    "save_model_dir",
    "verify_manifest",
    "write_manifest",
]

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
LATEST_NAME = "LATEST"

_MODEL_ARTIFACT = "model.npz"
_OPTIMIZER_ARTIFACT = "optimizer.npz"
_LOSSES_ARTIFACT = "losses.npz"
_STATE_ARTIFACT = "state.json"


# -- atomic primitives -------------------------------------------------------


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a rename inside it is durable, not just atomic."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_file(
    tmp: str | Path,
    path: str | Path,
    *,
    before_replace: Callable[[], None] | None = None,
) -> None:
    """Swap a fully written temp sibling over ``path``, durably.

    fsyncs the file, runs ``before_replace`` (a crash-test fault site),
    renames it into place, then fsyncs the directory: without that last
    fsync a crash can roll back the ``os.replace`` itself.
    """
    path = Path(path)
    with open(tmp, "rb") as handle:
        os.fsync(handle.fileno())
    if before_replace is not None:
        before_replace()
    os.replace(tmp, path)
    fsync_dir(path.parent)


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp sibling + fsync + rename.

    A crash at any point leaves either the old content or the new one —
    never a truncated mix.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    publish_file(tmp, path)


def atomic_write_json(path: str | Path, payload: object) -> None:
    """Atomically write ``payload`` as deterministic, sorted-key JSON."""
    atomic_write_bytes(path, _json_bytes(payload))


def _json_bytes(payload: object) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )


def _npz_bytes(arrays: dict) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def read_json(path: str | Path) -> object:
    """Read a JSON artifact; unreadable/unparseable raises ArtifactError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ArtifactError(
            f"cannot read artifact: {error}", path=str(path)
        ) from error
    try:
        return json.loads(text)
    except ValueError as error:
        raise ArtifactError(
            f"artifact is not valid JSON ({error})", path=str(path)
        ) from error


def replace_dir(tmp_dir: str | Path, final_dir: str | Path) -> None:
    """Swap a fully-written sibling temp directory into place.

    When ``final_dir`` does not exist this is a single atomic rename.
    When it does, the old directory is moved aside to ``<name>.old``
    first, so at every instant the path holds either the complete old
    tree, the complete new tree, or nothing — never a half-written mix
    (a crash in the no-directory window surfaces as "missing", which
    every load path reports as a typed error rather than garbage).
    """
    tmp_dir = Path(tmp_dir)
    final_dir = Path(final_dir)
    backup = final_dir.with_name(final_dir.name + ".old")
    if backup.exists():
        shutil.rmtree(backup)
    if final_dir.exists():
        os.rename(final_dir, backup)
    os.rename(tmp_dir, final_dir)
    fsync_dir(final_dir.parent)
    shutil.rmtree(backup, ignore_errors=True)


def save_model_dir(directory: str | Path, owner: object, *, kind: str) -> None:
    """Save a fitted model owner's config, tokenizer and weights atomically.

    ``owner`` is an extractor or classifier: it carries ``config`` (a
    dataclass), ``tokenizer``, ``model`` and ``fault_injector``.
    Everything, including a checksum manifest, is written to a sibling
    temp directory, then :func:`replace_dir` swaps it into place, so a
    crash mid-save never leaves a half-written model directory. Fault
    sites: ``save`` on entry, ``save_commit`` between the full write and
    the publish rename.
    """
    injector = owner.fault_injector
    if injector is not None:
        injector.check("save")
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = directory.with_name(directory.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    (tmp / "config.json").write_text(
        json.dumps(dataclasses.asdict(owner.config)), encoding="utf-8"
    )
    owner.tokenizer.save(tmp / "tokenizer.json")
    save_state(owner.model, tmp / "model.npz")
    write_manifest(
        tmp, ["config.json", "tokenizer.json", "model.npz"], kind=kind
    )
    if injector is not None:
        injector.check("save_commit")
    replace_dir(tmp, directory)


# -- manifests ---------------------------------------------------------------


def config_fingerprint(**fields) -> str:
    """A stable hash of a training configuration.

    Stored in every manifest and checked on resume so a checkpoint
    written under one recipe is never silently continued under another.
    Values must be JSON-serializable.
    """
    text = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_manifest(
    directory: str | Path,
    artifacts: list[str],
    *,
    kind: str,
    config_hash: str | None = None,
    extra: dict | None = None,
    digests: dict[str, str] | None = None,
) -> dict:
    """Digest ``artifacts`` inside ``directory`` and write the manifest.

    The manifest is written last (atomically), so its presence certifies
    that every listed artifact was fully flushed first. Callers that
    already hold an artifact's bytes can pass its digest via ``digests``
    to skip re-reading the file (the fsync still happens). Returns the
    manifest payload.
    """
    directory = Path(directory)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config_hash": config_hash,
        "artifacts": {},
    }
    if extra:
        manifest.update(extra)
    for name in artifacts:
        path = directory / name
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())
        digest = (digests or {}).get(name) or file_sha256(path)
        manifest["artifacts"][name] = {
            "sha256": digest,
            "bytes": path.stat().st_size,
        }
    atomic_write_json(directory / MANIFEST_NAME, manifest)
    return manifest


def verify_manifest(
    directory: str | Path,
    *,
    kind: str | None = None,
    required: bool = True,
) -> dict | None:
    """Checksum-verify every artifact a directory's manifest lists.

    Returns the parsed manifest, or ``None`` when the directory has no
    manifest and ``required`` is False (pre-manifest saves stay
    loadable). Any missing, truncated, or byte-flipped artifact — and a
    ``kind`` mismatch — raises :class:`ArtifactError` with the offending
    path and the expected/actual digests.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        if required:
            raise ArtifactError(
                "artifact manifest is missing", path=str(manifest_path)
            )
        return None
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict) or "artifacts" not in manifest:
        raise ArtifactError(
            "artifact manifest has no artifact table",
            path=str(manifest_path),
        )
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported manifest schema "
            f"{manifest.get('schema_version')!r}",
            path=str(manifest_path),
            expected=str(SCHEMA_VERSION),
            actual=str(manifest.get("schema_version")),
        )
    if kind is not None and manifest.get("kind") != kind:
        raise ArtifactError(
            f"manifest kind {manifest.get('kind')!r} != expected {kind!r}",
            path=str(manifest_path),
            expected=kind,
            actual=str(manifest.get("kind")),
        )
    for name, meta in manifest["artifacts"].items():
        path = directory / name
        if not path.exists():
            raise ArtifactError(
                f"artifact {name!r} listed in manifest is missing",
                path=str(path),
                expected=meta.get("sha256"),
            )
        actual = file_sha256(path)
        if actual != meta.get("sha256"):
            raise ArtifactError(
                f"artifact {name!r} failed its checksum",
                path=str(path),
                expected=meta.get("sha256"),
                actual=actual,
            )
    return manifest


# -- RNG capture -------------------------------------------------------------


def capture_rng_states(
    loop_rng: np.random.Generator, model: "Module"
) -> list[dict]:
    """Snapshot the loop generator plus every distinct model generator.

    Order is deterministic: loop generator first, then model generators
    in module-traversal order (deduplicated by identity — in the MLM and
    distillation loops the loop generator *is* the dropout generator, so
    the list collapses to one entry).
    """
    rngs = [loop_rng]
    seen = {id(loop_rng)}
    for rng in module_rngs(model):
        if id(rng) not in seen:
            seen.add(id(rng))
            rngs.append(rng)
    return [rng_state(rng) for rng in rngs]


def restore_rng_states(
    states: list[dict], loop_rng: np.random.Generator, model: "Module"
) -> None:
    """Restore states captured by :func:`capture_rng_states` in order."""
    rngs = [loop_rng]
    seen = {id(loop_rng)}
    for rng in module_rngs(model):
        if id(rng) not in seen:
            seen.add(id(rng))
            rngs.append(rng)
    if len(states) != len(rngs):
        raise ArtifactError(
            f"checkpoint captured {len(states)} RNG stream(s), the "
            f"resumed run has {len(rngs)} — model construction differs"
        )
    for rng, state in zip(rngs, states):
        set_rng_state(rng, state)


# -- train state -------------------------------------------------------------


@dataclasses.dataclass
class TrainState:
    """Everything a training loop needs to continue bitwise-identically.

    ``epoch``/``steps_in_epoch`` locate the boundary (``steps_in_epoch``
    counts *completed* steps of ``epoch``); ``rng_setup`` is the
    generator state before any data-plan draws (rebuilds static MLM
    masks), ``rng_epoch_start`` the state before the current epoch's
    shuffle/masking draws (rebuilds the epoch plan), and ``rng_now`` the
    full per-generator snapshot at the boundary (continues mid-epoch,
    dropout included). ``done`` marks a completed run, so resuming it is
    a no-op rather than a retrain.
    """

    step: int
    epoch: int
    steps_in_epoch: int
    done: bool
    model_state: dict[str, np.ndarray]
    optimizer_state: dict[str, np.ndarray]
    history: list[float]
    epoch_losses: list[float]
    rng_setup: dict | None
    rng_epoch_start: dict | None
    rng_now: list[dict]


class CheckpointManager:
    """Atomic, checksummed, resumable training checkpoints in a directory.

    Layout::

        <directory>/
          step-00000010/        # one checkpoint per saved step boundary
            model.npz           # model state_dict
            optimizer.npz       # Adam/AdamW moments + step counter
            losses.npz          # per-epoch history + current-epoch losses
            state.json          # counters + RNG snapshots
            manifest.json       # schema, config hash, sha256 per artifact
          step-00000020/
          LATEST                # last-good pointer (atomic JSON)

    Writes go to a ``.tmp`` sibling first; the manifest is written last
    inside it; the directory is renamed into place; only then does the
    ``LATEST`` pointer move. A crash at any point leaves the previous
    last-good checkpoint intact and loadable. Loading verifies every
    checksum and rolls back to the next-newest good checkpoint when the
    preferred one is corrupt or torn.

    Fault-injection sites (chaos suite): ``train_step`` on every step
    boundary, ``checkpoint`` on save entry, ``checkpoint_commit`` between
    artifact flush and publication.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int = 1,
        keep: int = 2,
        resume: bool = True,
        config_hash: str | None = None,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = every
        self.keep = keep
        self.resume = resume
        self.config_hash = config_hash
        self.fault_injector = fault_injector
        #: Step the last :meth:`load_latest` resumed from (None = fresh).
        self.resumed_from: int | None = None
        #: True when the preferred checkpoint was corrupt and an older
        #: good one was used instead.
        self.rolled_back = False
        #: Saves performed through this manager (observability).
        self.saves = 0
        #: Set by :meth:`request_drain` (e.g. a SIGINT/SIGTERM handler);
        #: honored at the next step boundary in :meth:`maybe_save`.
        self._drain_requested = False
        #: Step of the checkpoint the drain committed (observability).
        self.drained_at_step: int | None = None

    # -- naming ------------------------------------------------------------

    @staticmethod
    def _dir_name(step: int) -> str:
        return f"step-{step:08d}"

    def _step_dirs(self) -> list[tuple[int, Path]]:
        """All checkpoint directories, newest step first."""
        found: list[tuple[int, Path]] = []
        for path in self.directory.glob("step-*"):
            if not path.is_dir() or path.name.endswith(".tmp"):
                continue
            try:
                step = int(path.name.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            found.append((step, path))
        return sorted(found, key=lambda pair: pair[0], reverse=True)

    def steps(self) -> list[int]:
        """Saved checkpoint steps, newest first."""
        return [step for step, __ in self._step_dirs()]

    # -- config binding ----------------------------------------------------

    def bind(self, config_hash: str) -> None:
        """Attach the training configuration fingerprint.

        Called by the training loops before resuming; a checkpoint whose
        manifest carries a different hash refuses to resume (typed
        :class:`ArtifactError`) instead of continuing a different recipe.
        """
        self.config_hash = config_hash

    # -- fault-injection sites ---------------------------------------------

    def check_step(self) -> None:
        """The ``train_step`` crash site — called at every step boundary."""
        if self.fault_injector is not None:
            self.fault_injector.check("train_step")

    # -- graceful drain ----------------------------------------------------

    def request_drain(self) -> None:
        """Ask the training loop to stop at the next step boundary.

        Safe to call from a signal handler: it only flips a flag. The
        next :meth:`maybe_save` call then *forces* a checkpoint —
        regardless of cadence — and raises
        :class:`~repro.runtime.errors.RunInterrupted` once it is durably
        published, so the partial run is a valid resume point and the
        CLI can exit with the documented partial-success code.
        """
        self._drain_requested = True

    # -- saving ------------------------------------------------------------

    def maybe_save(
        self,
        model: "Module",
        optimizer,
        loop_rng: np.random.Generator,
        *,
        step: int,
        epoch: int,
        steps_in_epoch: int,
        history: list[float],
        epoch_losses: list[float],
        rng_setup: dict | None,
        rng_epoch_start: dict | None,
        done: bool = False,
        force: bool = False,
    ) -> Path | None:
        """Checkpoint when ``step`` hits the cadence (or ``force``).

        Also exercises the ``train_step`` crash site, so a chaos run can
        kill training at any boundary whether or not it checkpoints there.
        """
        self.check_step()
        drain = self._drain_requested and not done
        if not force and not drain and step % self.every != 0:
            return None
        # A done checkpoint is a terminal marker: nothing resumes past it,
        # so it carries only the weights and history, not the optimizer
        # moments or RNG snapshots needed to continue training.
        state = TrainState(
            step=step,
            epoch=epoch,
            steps_in_epoch=steps_in_epoch,
            done=done,
            model_state=model.state_dict(),
            optimizer_state={} if done else optimizer_state(optimizer),
            history=list(history),
            epoch_losses=list(epoch_losses),
            rng_setup=None if done else rng_setup,
            rng_epoch_start=None if done else rng_epoch_start,
            rng_now=[] if done else capture_rng_states(loop_rng, model),
        )
        path = self.save(state)
        if drain:
            self.drained_at_step = step
            raise RunInterrupted(
                f"training drained at step {step}: checkpoint committed "
                f"to {path}; resume with --resume to continue",
                stage="train",
            )
        return path

    def save(self, state: TrainState) -> Path:
        """Write one checkpoint atomically and publish it as last-good."""
        if self.fault_injector is not None:
            self.fault_injector.check("checkpoint")
        name = self._dir_name(state.step)
        tmp = self.directory / (name + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        # Serialize in memory so each artifact is hashed and written
        # exactly once (no post-write re-read for the manifest digest);
        # atomicity comes from the final directory rename, durability
        # from the per-file fsyncs in write_manifest.
        state_text = json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "step": state.step,
                "epoch": state.epoch,
                "steps_in_epoch": state.steps_in_epoch,
                "done": state.done,
                "rng_setup": state.rng_setup,
                "rng_epoch_start": state.rng_epoch_start,
                "rng_now": state.rng_now,
            },
            indent=2,
            sort_keys=True,
        )
        payloads = {
            _MODEL_ARTIFACT: _npz_bytes(state.model_state),
            _OPTIMIZER_ARTIFACT: _npz_bytes(state.optimizer_state),
            _LOSSES_ARTIFACT: _npz_bytes(
                {
                    "history": np.asarray(state.history, dtype=np.float64),
                    "epoch_losses": np.asarray(
                        state.epoch_losses, dtype=np.float64
                    ),
                }
            ),
            _STATE_ARTIFACT: (state_text + "\n").encode("utf-8"),
        }
        digests = {}
        for artifact_name, payload in payloads.items():
            (tmp / artifact_name).write_bytes(payload)
            digests[artifact_name] = hashlib.sha256(payload).hexdigest()
        manifest = write_manifest(
            tmp,
            list(payloads),
            kind="train_checkpoint",
            config_hash=self.config_hash,
            extra={"step": state.step},
            digests=digests,
        )
        if self.fault_injector is not None:
            # Crash window between a fully-written temp checkpoint and
            # its publication: resume must fall back to the previous one.
            self.fault_injector.check("checkpoint_commit")
        final = self.directory / name
        replace_dir(tmp, final)
        manifest_digest = hashlib.sha256(_json_bytes(manifest)).hexdigest()
        atomic_write_json(
            self.directory / LATEST_NAME,
            {
                "schema_version": SCHEMA_VERSION,
                "dir": name,
                "step": state.step,
                "manifest_sha256": manifest_digest,
            },
        )
        self.saves += 1
        self._prune(protect=final)
        return final

    def _prune(self, protect: Path) -> None:
        """Drop checkpoints beyond the retention bound and stale temps."""
        for tmp in self.directory.glob("step-*.tmp"):
            if tmp.is_dir():
                shutil.rmtree(tmp, ignore_errors=True)
        for __, path in self._step_dirs()[self.keep :]:
            if path != protect:
                shutil.rmtree(path, ignore_errors=True)

    # -- loading -----------------------------------------------------------

    def _pointer_target(self) -> Path | None:
        pointer_path = self.directory / LATEST_NAME
        if not pointer_path.exists():
            return None
        try:
            pointer = read_json(pointer_path)
        except ArtifactError:
            return None
        if not isinstance(pointer, dict) or "dir" not in pointer:
            return None
        target = self.directory / str(pointer["dir"])
        return target if target.is_dir() else None

    def load(self, path: str | Path) -> TrainState:
        """Verify and parse one checkpoint directory (no fallback)."""
        path = Path(path)
        manifest = verify_manifest(path, kind="train_checkpoint")
        stored_hash = manifest.get("config_hash")
        if (
            self.config_hash is not None
            and stored_hash is not None
            and stored_hash != self.config_hash
        ):
            raise ArtifactError(
                "checkpoint was written for a different training "
                "configuration",
                path=str(path / MANIFEST_NAME),
                expected=self.config_hash,
                actual=stored_hash,
            )
        payload = read_json(path / _STATE_ARTIFACT)
        try:
            with np.load(path / _MODEL_ARTIFACT) as archive:
                model_state = {
                    name: archive[name] for name in archive.files
                }
            with np.load(path / _OPTIMIZER_ARTIFACT) as archive:
                opt_state = {name: archive[name] for name in archive.files}
            with np.load(path / _LOSSES_ARTIFACT) as archive:
                history = [float(x) for x in archive["history"]]
                epoch_losses = [float(x) for x in archive["epoch_losses"]]
            return TrainState(
                step=int(payload["step"]),
                epoch=int(payload["epoch"]),
                steps_in_epoch=int(payload["steps_in_epoch"]),
                done=bool(payload["done"]),
                model_state=model_state,
                optimizer_state=opt_state,
                history=history,
                epoch_losses=epoch_losses,
                rng_setup=payload["rng_setup"],
                rng_epoch_start=payload["rng_epoch_start"],
                rng_now=list(payload["rng_now"]),
            )
        except ArtifactError:
            raise
        except Exception as error:
            raise ArtifactError(
                f"checkpoint is unreadable "
                f"({type(error).__name__}: {error})",
                path=str(path),
            ) from error

    def load_latest(self) -> TrainState | None:
        """The newest verifiable checkpoint, rolling back past corrupt ones.

        Tries the ``LATEST`` pointer target first, then every other
        checkpoint newest-first. Integrity failures (bad checksum,
        truncation, torn directory) are skipped — that's the rollback —
        but a configuration-hash mismatch is a caller error and raises.
        Returns ``None`` when the directory holds no checkpoints at all;
        raises the first integrity error when it holds only corrupt ones
        (resuming from garbage is worse than stopping).
        """
        if not self.resume:
            return None
        candidates: list[Path] = []
        pointer = self._pointer_target()
        if pointer is not None:
            candidates.append(pointer)
        for __, path in self._step_dirs():
            if path not in candidates:
                candidates.append(path)
        errors: list[ArtifactError] = []
        for path in candidates:
            try:
                state = self.load(path)
            except ArtifactError as error:
                if error.expected is not None and error.actual is not None \
                        and error.expected == self.config_hash:
                    raise  # config mismatch: not recoverable by rollback
                errors.append(error)
                continue
            self.resumed_from = state.step
            self.rolled_back = bool(errors)
            return state
        if errors:
            raise errors[0]
        return None
