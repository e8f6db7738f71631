"""Generation rollout: hot-swap a new model into the serving tier.

A **generation** is one output of the micro-batch fold: the
:class:`~repro.core.serving.ServingModel` of a fitted model (its
taxonomy, titles, correlations and entity → category map), stamped
with the WAL sequence number it covers and the snapshot directory the
fold process wrote it to.

:class:`GenerationSwitch` owns the *rollout* of a generation into one
live single-service tier, and is the only thing that publishes to it:
the fold process only writes generations, so a generation reaches
readers once, after its probes, and never when the drift gate skipped
it. A switch holds exactly one :class:`~repro.core.serving.ShoalService`,
set by the first attach of any of:

* the service itself;
* a :class:`~repro.api.backends.ServiceBackend` or a replication
  ``FollowerBackend`` — unwrapped to the service they adapt;
* a :class:`~repro.api.middleware.Gateway` — unwrapped to its inner
  backend, and remembered so its result cache is invalidated after the
  engine flips (a TTL'd cache would also age out on its own; explicit
  invalidation keeps the transparency guarantee unconditional).

Attaching the same engine again is a no-op; attaching a different one
is an error. The sharded tier (:class:`~repro.serving.router.ClusterRouter`
and :class:`~repro.api.backends.ClusterBackend`) is read-only: it is
built once, from a model or a cluster snapshot, and a switch refuses it.

**Probe, then publish.** A swap builds the generation's indexes once,
off to the side, and replays the probe queries against them before any
reader can see them. A build or a probe that raises refuses the
generation with :class:`SwapError`: nothing was published, so the tier,
its gateways' result caches and :attr:`GenerationSwitch.current` are
untouched and serving continues on the old generation. A healthy build
is published with one reference assignment; there is nothing to roll
back.
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

#: Hits each probe query asks a candidate index for.
PROBE_K = 5

#: Probe queries a write path replays against each candidate index.
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
    detail: str
    gateways_invalidated: int
    duration_s: float


class SwapError(Exception):
    """The generation was refused: building or probing its index
    raised, and nothing was published."""

    def __init__(self, report: SwapReport):
        super().__init__(
            f"generation {report.generation} refused ({report.detail}); "
            "still serving the previous generation"
        )
        self.report = report


def _engine_of(target: Any) -> ShoalService:
    """The service a switch swaps for an attachable non-gateway target."""
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
    if isinstance(target, ShoalService):
        return target
    raise TypeError(
        f"cannot attach {type(target).__name__}: expected a ShoalService, "
        "ServiceBackend, FollowerBackend or Gateway"
    )


class GenerationSwitch:
    """Probed hot-swap of one :class:`~repro.core.serving.ShoalService`.

    ``probe_queries`` are replayed against each generation's index
    after it is built and before it is published; a probe that raises
    refuses the generation. With no probes a swap refuses only a build
    that raises (and is still atomic).
    ``baseline`` seeds :attr:`current`: the generation the tier serves
    before the first swap.
    """

    def __init__(
        self,
        *,
        probe_queries: Sequence[str] = (),
        baseline: Optional[Generation] = None,
    ):
        self._probes = tuple(probe_queries)
        self._engine: Optional[ShoalService] = None
        self._gateways: List[Any] = []
        self._current = baseline
        self._lock = threading.Lock()
        self._swaps = 0

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
        """The generation the engine serves: the last one published, or
        the baseline."""
        return self._current

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "gateways": len(self._gateways),
                "swaps": self._swaps,
                "current_generation": (
                    None if self._current is None else self._current.number
                ),
                "probes": len(self._probes),
            }

    # -- the swap ------------------------------------------------------------

    def swap(self, generation: Generation) -> SwapReport:
        """Build ``generation``'s index, probe it, then publish it.

        Raises :class:`SwapError` (with the report attached) when the
        build or a probe raised; nothing is published then.
        """
        engine = self._engine
        if engine is None:
            raise RuntimeError("attach a serving tier before swapping")
        t0 = time.perf_counter()
        # Built and probed OUTSIDE the lock: the index build is the
        # expensive part of a swap, and stats() scrapes (GET /metrics)
        # must not stall behind it.
        try:
            state = engine.build(generation.serving)
            engine.probe(state, self._probes, PROBE_K)
        except Exception as exc:  # noqa: BLE001 - refused, not raised bare
            raise SwapError(
                SwapReport(
                    generation=generation.number,
                    healthy=False,
                    detail=f"{type(exc).__name__}: {exc}",
                    gateways_invalidated=0,
                    duration_s=time.perf_counter() - t0,
                )
            ) from exc
        with self._lock:
            engine.publish(state)
            # The engine flipped; drop gateway-level results computed
            # against the old generation (epoch-stamped keys make this
            # safe against in-flight puts too).
            for gw in self._gateways:
                gw.invalidate_cache()
            self._current = generation
            self._swaps += 1
        return SwapReport(
            generation=generation.number,
            healthy=True,
            detail="",
            gateways_invalidated=len(self._gateways),
            duration_s=time.perf_counter() - t0,
        )
