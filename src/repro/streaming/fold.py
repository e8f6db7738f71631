"""The serving side of the fold process: spawn it, install what it writes.

``serve-http --ingest-wal`` folds nothing in its own interpreter.
:class:`FoldProcess` spawns ``python -m repro.streaming`` (the fold
loop of :mod:`repro.streaming.updater`), which tails the WAL and writes each
generation as a full snapshot, and reads the child's reports — one
JSON line each — on a thread of its own:

* ``progress`` / ``fold``: the child's counters (``applied_seq`` keys
  the ingest pipe's shedding) and its own CPU seconds;
* ``generation``: a directory and its fingerprint, handed to
  :class:`GenerationInstaller`;
* ``trace``: a finished span tree (``updater.batch_fold`` and its
  ``fit.*`` stages), folded into this process's tracer so it shows on
  ``GET /v1/trace`` and ``shoal_span_self_ms``.

A child that exits while the server runs is spawned again; it resumes
from its newest generation, so nothing acknowledged is lost.

:class:`GenerationInstaller` does the serving process's part of each
generation, in order: load it through the verified path followers use
(:func:`~repro.store.persistence.load_serving_verified`), consult the
drift gate, roll it out through the probed
:class:`~repro.streaming.rollout.GenerationSwitch`, write
``CHECKPOINT.json``, publish it (the ship-feed hook), and compact the
WAL segments the new window and the generation's cut both leave behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.tracer import traced
from repro.store.persistence import load_serving_verified, read_manifest
from repro.streaming.rollout import Generation, GenerationSwitch, SwapError
from repro.streaming.wal import WriteAheadLog, write_checkpoint

__all__ = [
    "FoldProcess",
    "GenerationInstaller",
    "KEEP_GENERATIONS",
    "generation_dirs",
    "newest_generation",
]

#: Generations the fold process keeps on disk; older ones are deleted
#: once a newer one is written. A restart needs only the newest.
KEEP_GENERATIONS = 8

#: Seconds before a fold process that died is started again; doubled,
#: up to 30 s, while children die before their first report.
RESPAWN_DELAY_S = 0.5

_GENERATION_DIR = re.compile(r"gen-(\d+)$")


def generation_dirs(directory: Union[str, Path]) -> List[Tuple[int, Path]]:
    """``(number, path)`` of every ``gen-NNNNN`` directory, oldest first
    (``.tmp`` staging directories excluded)."""
    root = Path(directory)
    if not root.is_dir():
        return []
    found = []
    for path in root.iterdir():
        match = _GENERATION_DIR.match(path.name)
        if match and path.is_dir():
            found.append((int(match.group(1)), path))
    return sorted(found)


def newest_generation(directory: Union[str, Path]) -> Optional[Path]:
    """The newest generation directory with a readable manifest, or
    None when there is none."""
    for _, path in reversed(generation_dirs(directory)):
        try:
            read_manifest(path)
        except (OSError, ValueError):
            continue
        return path
    return None


class GenerationInstaller:
    """Load, gate, swap, checkpoint, ship and compact one generation.

    ``switch`` swaps the serving tier; ``wal`` is the log the
    generation was folded from (checkpoint and compaction go there).
    ``drift_gate`` (duck-typed: ``should_skip(prev, new)`` +
    ``stats()``) holds back a generation whose taxonomy is trivially
    different from what is serving: it is checkpointed, not rolled out.
    ``on_generation`` (a shipper's ``publish_generation``) is called
    with every installed generation; its exceptions are contained.
    """

    def __init__(
        self,
        switch: GenerationSwitch,
        wal: WriteAheadLog,
        *,
        drift_gate=None,
        on_generation: Optional[Callable[[Generation], Any]] = None,
    ):
        self._switch = switch
        self._wal = wal
        self._drift_gate = drift_gate
        self._on_generation = on_generation
        self._installed = 0
        self._swap_failures = 0
        self._load_failures = 0
        self._rollouts_skipped = 0
        self._last_error: Optional[str] = None

    @property
    def switch(self) -> GenerationSwitch:
        return self._switch

    @property
    def installed(self) -> int:
        """Number of the newest generation installed (0: none yet)."""
        return self._installed

    @property
    def last_error(self) -> Optional[str]:
        return self._last_error

    def install(self, record: Mapping[str, Any]) -> Optional[Generation]:
        """Install the generation a fold report names; returns it, or
        None when it was already installed or could not be loaded.

        Swap failures are counted, not raised: the read path keeps
        serving the previous generation, which is the point of the
        probed swap.
        """
        number = int(record["number"])
        if number <= self._installed:
            return None  # re-announced by a restarted fold process
        with traced("updater.install", tags={"generation": str(number)}):
            try:
                serving = load_serving_verified(
                    record["dir"], str(record["fingerprint"])
                )
            except (OSError, ValueError, KeyError) as exc:
                self._load_failures += 1
                self._last_error = f"generation {number} not loaded: {exc}"
                return None
            generation = Generation(
                number=number,
                serving=serving,
                applied_seq=int(record["applied_seq"]),
                last_day=int(record["last_day"]),
                snapshot_dir=Path(record["dir"]),
            )
            self._installed = number
            self._roll_out(generation)
            write_checkpoint(
                self._wal.directory,
                {
                    "applied_seq": generation.applied_seq,
                    "generation": generation.number,
                    "last_day": generation.last_day,
                },
            )
            if self._on_generation is not None:
                try:
                    self._on_generation(generation)
                except Exception as exc:  # noqa: BLE001 - advisory hook
                    self._last_error = (
                        f"on_generation hook failed "
                        f"({type(exc).__name__}: {exc})"
                    )
            # Segments older than the new window, and covered by this
            # generation's cut, can never be folded again.
            self._wal.compact(
                int(record["first_day"]), covered_seq=generation.applied_seq
            )
        return generation

    def _roll_out(self, generation: Generation) -> None:
        previous = self._switch.current
        if self._drift_gate is not None and previous is not None:
            # A trivially-different generation is checkpointed but not
            # rolled out: the swap's reference build and cache
            # invalidation buy no reader-visible change.
            try:
                if self._drift_gate.should_skip(previous, generation):
                    self._rollouts_skipped += 1
                    return
            except Exception as exc:  # noqa: BLE001 - gate is advisory
                self._last_error = (
                    f"drift gate failed ({type(exc).__name__}: {exc}); "
                    "rolling out unconditionally"
                )
        try:
            self._switch.swap(generation)
        except SwapError as exc:
            self._swap_failures += 1
            self._last_error = str(exc)

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "installed_generation": self._installed,
            "swap_failures": self._swap_failures,
            "load_failures": self._load_failures,
            "rollouts_skipped": self._rollouts_skipped,
            "switch": self._switch.stats(),
        }
        if self._drift_gate is not None:
            out["drift"] = self._drift_gate.stats()
        if self._last_error is not None:
            out["last_error"] = self._last_error
        return out


#: The child's cumulative counters; a respawned child starts them at 0,
#: so the totals carry what earlier children counted.
_CUMULATIVE = ("events_applied", "events_duplicate", "events_skipped", "cpu_s")


class FoldProcess:
    """Runs the fold in a child process and installs its generations.

    The child folds ``wal`` starting from the newest generation under
    ``generations_dir`` (``snapshot`` when there is none), with the
    given micro-batch bounds. With ``tracer``, the child's span trees
    are folded into it. Use :meth:`start` / :meth:`stop`;
    :attr:`applied_seq` is the WAL cut the child has folded.
    """

    def __init__(
        self,
        installer: GenerationInstaller,
        *,
        snapshot: Union[str, Path],
        wal: WriteAheadLog,
        generations_dir: Union[str, Path],
        batch_max_events: int,
        batch_max_age_s: float,
        min_batch_events: int,
        tracer=None,
    ):
        self._installer = installer
        self._wal = wal
        self._tracer = tracer
        self._argv = [
            sys.executable, "-m", "repro.streaming",
            "--load", str(snapshot),
            "--wal", str(wal.directory),
            "--generations", str(generations_dir),
            "--batch-events", str(batch_max_events),
            "--batch-age-s", str(batch_max_age_s),
            "--min-batch-events", str(min_batch_events),
        ] + (["--trace"] if tracer is not None else [])
        # Until the first child reports, the cut is where it will
        # resume: the newest generation's (the snapshot's before one).
        resume = newest_generation(generations_dir) or Path(snapshot)
        self._applied_seq = int(
            read_manifest(resume).get("metadata", {}).get("applied_seq", 0)
        )
        self._report: Dict[str, Any] = {}
        self._carried = dict.fromkeys(_CUMULATIVE, 0)
        self._restarts = 0
        self._proc: Optional[subprocess.Popen] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._error: Optional[str] = None

    @property
    def installer(self) -> GenerationInstaller:
        return self._installer

    @property
    def switch(self) -> GenerationSwitch:
        return self._installer.switch

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def pid(self) -> Optional[int]:
        proc = self._proc
        return None if proc is None else proc.pid

    @property
    def restarts(self) -> int:
        return self._restarts

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "FoldProcess":
        """Spawn the child and start reading its reports; returns at
        once (the child imports and loads on its own time)."""
        if self._thread is not None:
            raise RuntimeError("fold process already started")
        self._proc = self._spawn()
        self._thread = threading.Thread(
            target=self._supervise, name="shoal-fold-reader", daemon=True
        )
        self._thread.start()
        return self

    def _spawn(self) -> subprocess.Popen:
        env = dict(os.environ)
        # The child imports this package from wherever it was imported here.
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        return subprocess.Popen(
            self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
        )

    def _supervise(self) -> None:
        delay = RESPAWN_DELAY_S
        while True:
            proc = self._proc
            assert proc is not None
            for line in proc.stdout:
                try:
                    self._handle(json.loads(line))
                except Exception as exc:  # noqa: BLE001 - keep reading
                    self._error = f"{type(exc).__name__}: {exc}"
            code = proc.wait()
            proc.stdout.close()
            if self._stopping.is_set():
                return
            self._restarts += 1
            # A child that died before it reported anything (a broken
            # snapshot, say) is retried less and less often.
            delay = RESPAWN_DELAY_S if self._report else min(delay * 2, 30.0)
            for key in _CUMULATIVE:
                self._carried[key] += self._report.get(key, 0)
            self._report = {}
            self._error = f"fold process {proc.pid} exited with code {code}"
            print(f"{self._error}; starting another", file=sys.stderr, flush=True)
            if self._stopping.wait(delay):
                return
            self._proc = self._spawn()

    def _handle(self, message: Dict[str, Any]) -> None:
        kind = message.pop("event")
        if kind == "trace":
            if self._tracer is not None:
                self._tracer.adopt(message["spans"])
            return
        record = message.pop("generation", None)
        self._report = message
        applied = int(message["applied_seq"])
        if applied > self._applied_seq:
            # The child took a batch: the "batch" fsync policy's barrier.
            self._wal.sync()
            self._applied_seq = applied
        if kind == "generation":
            self._installer.install(record)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop the child (closing its stdin ends it) and the reader."""
        self._stopping.set()
        self._end_child(timeout_s)
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None
        self._end_child(timeout_s)  # one the reader spawned meanwhile

    def _end_child(self, timeout_s: float) -> None:
        proc = self._proc
        if proc is None or proc.poll() is not None:
            return
        proc.stdin.close()
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    @property
    def running(self) -> bool:
        proc = self._proc
        return proc is not None and proc.poll() is None

    # -- introspection -----------------------------------------------------------

    def stats_dict(self) -> Dict[str, Any]:
        """The ``updater`` section of ``GET /v1/metrics``: the child's
        last report plus the installer's counters. Reads only copies the
        reader thread replaced whole; never waits for a fold."""
        report = self._report
        out: Dict[str, Any] = {
            "events_applied": 0,
            "events_duplicate": 0,
            "events_skipped": 0,
            "applied_seq": self._applied_seq,
            "generations": self._installer.installed,
            "last_day": None,
            **{k: v for k, v in report.items() if k != "pid"},
        }
        for key in _CUMULATIVE:
            out[key] = self._carried[key] + report.get(key, 0)
        out["applied_seq"] = self._applied_seq
        out["running"] = self.running
        out["fold_process"] = {
            "pid": self.pid,
            "restarts": self._restarts,
            "cpu_s": out.pop("cpu_s"),
        }
        installer = self._installer.stats()
        errors = [
            e for e in (
                self._error, installer.pop("last_error", None),
                out.pop("last_error", None),
            ) if e
        ]
        out.update(installer)
        if errors:
            out["last_error"] = errors[0]
        return out
