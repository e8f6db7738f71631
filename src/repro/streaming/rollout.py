"""Generation rollout: hot-swap a new model into the serving tier.

A **generation** is one output of the micro-batch updater: the
:class:`~repro.core.serving.ServingModel` of a fitted model (its
taxonomy, titles, correlations and entity → category map), stamped
with the WAL sequence number it covers and (optionally) persisted as a
versioned snapshot directory.

:class:`GenerationSwitch` owns the *rollout* of a generation into one
live single-service tier, and is the only thing that refreshes it:
:class:`~repro.core.incremental.IncrementalShoal` just produces models,
so a generation reaches readers once, after its probes, and never when
the updater's drift gate skipped it. A switch holds exactly one engine,
set by the first attach of any of:

* a :class:`~repro.core.serving.ShoalService` — refreshed via its
  atomic state swap (readers never see a half-installed index);
* a :class:`~repro.api.backends.ServiceBackend` or a replication
  ``FollowerBackend`` — unwrapped to the service they adapt;
* a :class:`~repro.api.middleware.Gateway` — unwrapped to its inner
  backend, and remembered so its result cache is invalidated after the
  engine flips (a TTL'd cache would also age out on its own; explicit
  invalidation keeps the transparency guarantee unconditional);
* any object with ``refresh()`` and ``search_topics()``.

Attaching the same engine again is a no-op; attaching a different one
is an error. The sharded tier (:class:`~repro.serving.router.ClusterRouter`
and :class:`~repro.api.backends.ClusterBackend`) is read-only: it is
built once, from a model or a cluster snapshot, and a switch refuses it.

**Health check + rollback.** After refreshing the tier the switch
replays its probe queries against it and compares answers to a
reference service built fresh from the generation's serving model. Any
mismatch (or exception) marks the swap unhealthy; the switch refreshes
the tier back to :attr:`GenerationSwitch.current` and raises
:class:`SwapError` carrying the report — serving continues on the old
generation, which is the only safe behaviour for an automated rollout.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.serving import ServingModel, ShoalService
from repro.core.taxonomy import Taxonomy

__all__ = [
    "Generation",
    "GenerationSwitch",
    "SwapError",
    "SwapReport",
    "probe_queries",
]

#: Hits compared per probe query when health-checking a swapped tier.
PROBE_K = 5

#: Probe queries a write path replays after each swap.
PROBE_COUNT = 4


def probe_queries(taxonomy: Taxonomy, n: int = PROBE_COUNT) -> List[str]:
    """Health-check probes for a tier serving ``taxonomy``: the top
    description of each root topic that has one, first ``n`` distinct.

    Real queries that reach the taxonomy, and a pure function of it —
    hence of its snapshot's files — so a primary and its followers
    probe with the same strings.
    """
    probes: List[str] = []
    for topic in taxonomy.root_topics():
        if len(probes) == n:
            break
        if topic.descriptions and topic.descriptions[0] not in probes:
            probes.append(topic.descriptions[0])
    return probes


@dataclass(frozen=True)
class Generation:
    """One versioned output of the streaming updater."""

    number: int
    serving: ServingModel
    applied_seq: int = 0
    last_day: int = 0
    snapshot_dir: Optional[Path] = None

    def summary(self) -> str:
        where = f", snapshot={self.snapshot_dir}" if self.snapshot_dir else ""
        return (
            f"generation {self.number}: window ..{self.last_day}, "
            f"applied_seq={self.applied_seq}, "
            f"{len(self.serving.taxonomy)} topics{where}"
        )


@dataclass(frozen=True)
class SwapReport:
    """Outcome of one :meth:`GenerationSwitch.swap` call."""

    generation: int
    healthy: bool
    rolled_back: bool
    detail: str
    gateways_invalidated: int
    duration_s: float


class SwapError(Exception):
    """The tier failed its post-swap health check (and was rolled back
    when there was a generation to roll back to)."""

    def __init__(self, report: SwapReport):
        outcome = "rolled back" if report.rolled_back else "not rolled back"
        super().__init__(
            f"generation {report.generation} failed its health check "
            f"({report.detail}); {outcome}"
        )
        self.report = report


def _engine_of(target: Any) -> Any:
    """The engine a switch refreshes for an attachable non-gateway target."""
    # Imported lazily to keep this module importable without the full
    # serving stack (and to avoid import cycles via repro.api).
    from repro.api.backends import ClusterBackend, ServiceBackend
    from repro.serving.router import ClusterRouter

    if isinstance(target, (ClusterBackend, ClusterRouter)):
        raise TypeError(
            f"cannot attach {type(target).__name__}: the sharded tier is "
            "read-only (built once from a model or a cluster snapshot); "
            "serve a changing model from a single service or followers"
        )
    if isinstance(target, ServiceBackend):
        return target.service
    inner = getattr(target, "replicated_backend", None)
    if inner is not None:
        # A replication FollowerBackend (duck-typed to avoid importing
        # repro.replication here) delegates to the tier it wraps, so
        # attaching it must swap that inner tier.
        return _engine_of(inner)
    refresh = getattr(target, "refresh", None)
    search = getattr(target, "search_topics", None)
    if callable(refresh) and callable(search):
        # ShoalService and duck-typed test doubles land here.
        return target
    raise TypeError(
        f"cannot attach {type(target).__name__}: expected a ShoalService, "
        "ServiceBackend, Gateway, or any object with refresh() and "
        "search_topics()"
    )


class GenerationSwitch:
    """Health-checked hot-swap of one serving engine.

    ``probe_queries`` are replayed against the engine after each swap
    and their top :data:`PROBE_K` hits compared with a reference
    service built from the new serving model; with no probes, swaps are
    unconditional (still atomic).
    ``baseline`` seeds :attr:`current`, the generation a rollback
    restores; without one, the first swap cannot roll back (there is
    nothing to roll back *to*) and a failure raises without restoration.
    """

    def __init__(
        self,
        *,
        probe_queries: Sequence[str] = (),
        baseline: Optional[Generation] = None,
    ):
        self._probes = tuple(probe_queries)
        self._engine: Any = None
        self._gateways: List[Any] = []
        self._current = baseline
        self._lock = threading.Lock()
        self._swaps = 0
        self._rollbacks = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, target: Any) -> "GenerationSwitch":
        """Register the serving tier, or a gateway over it (chainable).

        A :class:`~repro.api.middleware.Gateway` is unwrapped — its
        inner backend's engine is swapped, and the gateway itself is
        remembered for result-cache invalidation. The first attach sets
        the engine; attaching it again (e.g. a backend and its raw
        service) is a no-op, and attaching a different one raises
        ``ValueError``.
        """
        from repro.api.middleware import Gateway

        gateways = []
        while isinstance(target, Gateway):
            gateways.append(target)
            target = target.backend
        engine = _engine_of(target)
        if self._engine is None:
            self._engine = engine
        elif engine is not self._engine:
            raise ValueError(
                f"this switch already swaps a {type(self._engine).__name__}; "
                "a GenerationSwitch swaps exactly one engine"
            )
        self._gateways.extend(gateways)
        return self

    @property
    def current(self) -> Optional[Generation]:
        """The generation the engine last healthily swapped to."""
        return self._current

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
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
        reference service over the new serving model."""
        if not self._probes:
            return {}
        reference = ShoalService(generation.serving)
        return {
            q: reference.search_topics(q, PROBE_K)
            for q in self._probes
        }

    def _check_health(self, expected: Dict[str, List]) -> Optional[str]:
        """None when healthy, else a description of the first failure."""
        for query, want in expected.items():
            try:
                got = self._engine.search_topics(query, PROBE_K)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                return f"probe {query!r} raised {type(exc).__name__}: {exc}"
            if list(got) != list(want):
                return (
                    f"probe {query!r} diverged from the reference answer "
                    f"({len(got)} vs {len(want)} hits)"
                )
        return None

    def swap(self, generation: Generation) -> SwapReport:
        """Roll ``generation`` onto the engine atomically, health-check
        it, and roll back to :attr:`current` on failure.

        Raises :class:`SwapError` (with the report attached) when the
        swap was unhealthy.
        """
        if self._engine is None:
            raise RuntimeError("attach a serving tier before swapping")
        t0 = time.perf_counter()
        # Built OUTSIDE the lock: the reference index build is the
        # expensive part of a swap, and stats() scrapes (GET /metrics)
        # must not stall behind it.
        expected = self._expected_answers(generation)
        with self._lock:
            previous = self._current
            try:
                self._engine.refresh(generation.serving)
                failure = self._check_health(expected)
            except Exception as exc:  # noqa: BLE001 - refresh blew up
                failure = f"refresh failed: {type(exc).__name__}: {exc}"
            rolled_back = False
            if failure is not None and previous is not None:
                try:
                    self._engine.refresh(previous.serving)
                    rolled_back = True
                    self._rollbacks += 1
                except Exception as exc:  # noqa: BLE001
                    failure += (
                        f"; rollback also failed: "
                        f"{type(exc).__name__}: {exc}"
                    )
            # The engine flipped; drop gateway-level results computed
            # against the old generation (epoch-stamped keys make this
            # safe against in-flight puts too).
            for gw in self._gateways:
                gw.invalidate_cache()
            if failure is None:
                self._current = generation
                self._swaps += 1
            report = SwapReport(
                generation=generation.number,
                healthy=failure is None,
                rolled_back=rolled_back,
                detail=failure or "",
                gateways_invalidated=len(self._gateways),
                duration_s=time.perf_counter() - t0,
            )
        if failure is not None:
            raise SwapError(report)
        return report
