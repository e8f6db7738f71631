"""Generation rollout: hot-swap a new model into every serving tier.

A **generation** is one output of the micro-batch updater: a fitted
:class:`~repro.core.pipeline.ShoalModel` plus the entity → category
map, stamped with the WAL sequence number it covers and (optionally)
persisted as a PR-2 versioned snapshot directory.

:class:`GenerationSwitch` owns the *rollout* of a generation across a
heterogeneous set of live serving tiers:

* a :class:`~repro.core.serving.ShoalService` — refreshed via its
  atomic state swap (readers never see a half-installed index);
* a :class:`~repro.serving.router.ClusterRouter` — refreshed via its
  atomic cluster-state swap, rebuilding **only the shards whose
  content fingerprint changed**;
* any :class:`~repro.api.backends.ServiceBackend` /
  :class:`~repro.api.backends.ClusterBackend` — unwrapped to the
  engine they adapt;
* any :class:`~repro.api.middleware.Gateway` — unwrapped to its inner
  backend, and remembered so its result cache is invalidated after the
  engines flip (a TTL'd cache would also age out on its own; explicit
  invalidation keeps the transparency guarantee unconditional).

**Health check + rollback.** After refreshing each tier the switch
replays its probe queries against the tier and compares answers to a
reference service built fresh from the generation's model. Any
mismatch (or exception) marks the tier unhealthy; the switch rolls the
tier back to the previous generation and raises :class:`SwapError`
carrying the full report — serving continues on the old generation,
which is the only safe behaviour for an automated rollout.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import ShoalModel
from repro.core.serving import ShoalService

__all__ = ["Generation", "GenerationSwitch", "SwapError", "SwapReport"]


@dataclass(frozen=True)
class Generation:
    """One versioned output of the streaming updater."""

    number: int
    model: ShoalModel
    entity_categories: Dict[int, int] = field(default_factory=dict)
    applied_seq: int = 0
    last_day: int = 0
    snapshot_dir: Optional[Path] = None

    def summary(self) -> str:
        where = f", snapshot={self.snapshot_dir}" if self.snapshot_dir else ""
        return (
            f"generation {self.number}: window ..{self.last_day}, "
            f"applied_seq={self.applied_seq}, "
            f"{len(self.model.taxonomy)} topics{where}"
        )


@dataclass(frozen=True)
class TargetOutcome:
    """What happened to one serving tier during a swap."""

    name: str
    kind: str
    healthy: bool
    rolled_back: bool
    rebuilt_shards: Tuple[int, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class SwapReport:
    """Outcome of one :meth:`GenerationSwitch.swap` call."""

    generation: int
    outcomes: Tuple[TargetOutcome, ...]
    gateways_invalidated: int
    duration_s: float

    @property
    def healthy(self) -> bool:
        return all(o.healthy for o in self.outcomes)

    def summary(self) -> str:
        states = ", ".join(
            f"{o.name}={'ok' if o.healthy else 'ROLLED-BACK'}"
            for o in self.outcomes
        )
        return (
            f"swap to generation {self.generation} in "
            f"{self.duration_s * 1000:.1f}ms: {states}; "
            f"{self.gateways_invalidated} gateway cache(s) invalidated"
        )


class SwapError(Exception):
    """A tier failed its post-swap health check (it was rolled back)."""

    def __init__(self, report: SwapReport):
        failed = [o.name for o in report.outcomes if not o.healthy]
        super().__init__(
            f"generation {report.generation} failed health checks on "
            f"{', '.join(failed)}; unhealthy tiers rolled back"
        )
        self.report = report


class _EngineTarget:
    """One attached tier: anything with refresh() + search_topics().

    ``generation`` tracks what THIS tier currently serves — tiers can
    diverge when a swap partially fails, and a later rollback must
    restore each tier to its own last-healthy generation, not to a
    fleet-wide guess.
    """

    def __init__(
        self,
        name: str,
        engine: Any,
        kind: str,
        generation: Optional[Generation] = None,
    ):
        self.name = name
        self.engine = engine
        self.kind = kind
        self.generation = generation


def _classify(target: Any) -> Tuple[Any, str]:
    """(engine, kind) for an attachable target; gateways handled upstream."""
    # Imported lazily to keep this module importable without the full
    # serving stack (and to avoid import cycles via repro.api).
    from repro.api.backends import ClusterBackend, ServiceBackend

    if isinstance(target, ServiceBackend):
        return target.service, "service"
    if isinstance(target, ClusterBackend):
        return target.router, "cluster"
    inner = getattr(target, "replicated_backend", None)
    if inner is not None:
        # A replication FollowerBackend (duck-typed to avoid importing
        # repro.replication here) delegates to the tier it wraps, so
        # attaching it must swap that inner tier — and dedup against an
        # already-attached copy of the same engine.
        return _classify(inner)
    if isinstance(target, ShoalService):
        return target, "service"
    refresh = getattr(target, "refresh", None)
    search = getattr(target, "search_topics", None)
    if callable(refresh) and callable(search):
        # ClusterRouter and duck-typed test doubles land here.
        kind = "cluster" if hasattr(target, "n_shards") else "engine"
        return target, kind
    raise TypeError(
        f"cannot attach {type(target).__name__}: expected a ShoalService, "
        "ClusterRouter, ServiceBackend, ClusterBackend, Gateway, or any "
        "object with refresh() and search_topics()"
    )


class GenerationSwitch:
    """Coordinated, health-checked hot-swap across serving tiers.

    ``probe_queries`` are replayed against every tier after its swap
    and compared with a reference service built from the new model;
    with no probes, swaps are unconditional (still atomic per tier).
    ``baseline`` seeds the previous-generation record rollbacks restore
    to; without one, the first swap cannot roll back (there is nothing
    to roll back *to*) and failures raise without restoration.
    """

    def __init__(
        self,
        *,
        probe_queries: Sequence[str] = (),
        probe_k: int = 5,
        baseline: Optional[Generation] = None,
        rollback_on_failure: bool = True,
    ):
        if probe_k < 1:
            raise ValueError(f"probe_k must be >= 1, got {probe_k}")
        self._probes = tuple(probe_queries)
        self._probe_k = probe_k
        self._rollback = rollback_on_failure
        self._targets: List[_EngineTarget] = []
        self._gateways: List[Any] = []
        self._current = baseline
        self._lock = threading.Lock()
        self._swaps = 0
        self._rollbacks = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, target: Any, name: Optional[str] = None) -> "GenerationSwitch":
        """Register a serving tier (chainable).

        A :class:`~repro.api.middleware.Gateway` is unwrapped — its
        inner backend's engine is swapped, and the gateway itself is
        remembered for result-cache invalidation. Attaching the same
        engine twice (e.g. a backend and its raw service) is collapsed
        to one swap.
        """
        from repro.api.middleware import Gateway

        while isinstance(target, Gateway):
            self._gateways.append(target)
            target = target.backend
        engine, kind = _classify(target)
        if any(t.engine is engine for t in self._targets):
            return self
        label = name or f"{kind}-{len(self._targets)}"
        self._targets.append(
            _EngineTarget(label, engine, kind, generation=self._current)
        )
        return self

    @property
    def current(self) -> Optional[Generation]:
        """The last generation the WHOLE fleet healthily swapped to.

        After a partially failed swap, individual tiers may be ahead of
        this (the healthy ones stayed on the newer generation); the
        per-tier truth is in :meth:`stats` under ``target_generations``.
        """
        return self._current

    @property
    def targets(self) -> List[str]:
        return [t.name for t in self._targets]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "targets": [t.name for t in self._targets],
                "target_generations": {
                    t.name: (
                        None if t.generation is None else t.generation.number
                    )
                    for t in self._targets
                },
                "gateways": len(self._gateways),
                "swaps": self._swaps,
                "rollbacks": self._rollbacks,
                "current_generation": (
                    None if self._current is None else self._current.number
                ),
                "probes": len(self._probes),
            }

    # -- the swap ------------------------------------------------------------

    def _expected_answers(
        self, generation: Generation
    ) -> Dict[str, List]:
        """Probe answers a healthy tier must reproduce, from a fresh
        reference service over the new model."""
        if not self._probes:
            return {}
        reference = ShoalService(
            generation.model,
            entity_categories=generation.entity_categories,
        )
        return {
            q: reference.search_topics(q, self._probe_k)
            for q in self._probes
        }

    def _check_health(
        self, target: _EngineTarget, expected: Dict[str, List]
    ) -> Optional[str]:
        """None when healthy, else a description of the first failure."""
        for query, want in expected.items():
            try:
                got = target.engine.search_topics(query, self._probe_k)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                return f"probe {query!r} raised {type(exc).__name__}: {exc}"
            if list(got) != list(want):
                return (
                    f"probe {query!r} diverged from the reference answer "
                    f"({len(got)} vs {len(want)} hits)"
                )
        return None

    def swap(self, generation: Generation) -> SwapReport:
        """Roll ``generation`` onto every attached tier, atomically per
        tier, health-checking each and rolling back failures.

        Raises :class:`SwapError` (with the report attached) if any
        tier failed; healthy tiers stay on the new generation — in a
        sharded deployment a lagging node is re-rolled independently,
        not by yanking the whole fleet back.
        """
        t0 = time.perf_counter()
        # Built OUTSIDE the lock: the reference index build is the
        # expensive part of a swap, and stats() scrapes (GET /metrics)
        # must not stall behind it.
        expected = self._expected_answers(generation)
        with self._lock:
            outcomes: List[TargetOutcome] = []
            any_failed = False
            for target in self._targets:
                # Roll back to what THIS tier last healthily served —
                # tiers diverge when a previous swap partially failed.
                previous = target.generation or self._current
                rebuilt: Tuple[int, ...] = ()
                try:
                    result = target.engine.refresh(
                        generation.model,
                        entity_categories=generation.entity_categories,
                    )
                    if isinstance(result, list):  # ClusterRouter reports
                        rebuilt = tuple(result)
                    failure = self._check_health(target, expected)
                except Exception as exc:  # noqa: BLE001 - refresh blew up
                    failure = f"refresh failed: {type(exc).__name__}: {exc}"
                rolled_back = False
                if failure is None:
                    target.generation = generation
                elif self._rollback and previous is not None:
                    try:
                        target.engine.refresh(
                            previous.model,
                            entity_categories=previous.entity_categories,
                        )
                        target.generation = previous
                        rolled_back = True
                        self._rollbacks += 1
                    except Exception as exc:  # noqa: BLE001
                        failure += (
                            f"; rollback also failed: "
                            f"{type(exc).__name__}: {exc}"
                        )
                any_failed = any_failed or failure is not None
                outcomes.append(
                    TargetOutcome(
                        name=target.name,
                        kind=target.kind,
                        healthy=failure is None,
                        rolled_back=rolled_back,
                        rebuilt_shards=rebuilt,
                        detail=failure or "",
                    )
                )
            # Engines flipped; drop gateway-level results computed
            # against the old generation (epoch-stamped keys make this
            # safe against in-flight puts too).
            for gw in self._gateways:
                gw.invalidate_cache()
            if not any_failed:
                self._current = generation
                self._swaps += 1
            report = SwapReport(
                generation=generation.number,
                outcomes=tuple(outcomes),
                gateways_invalidated=len(self._gateways),
                duration_s=time.perf_counter() - t0,
            )
        if any_failed:
            raise SwapError(report)
        return report
