"""Parallel Hierarchical Agglomerative Clustering (paper Sec. 2.2).

The paper's core algorithmic contribution. Each *round*:

1. **Diffusion** — every vertex learns the best edge within its k-hop
   neighbourhood (k = ``diffusion_rounds``, paper default 2) by
   exchanging best-edge records for k rounds. Edges still believed in
   by *both* endpoints afterwards are **local maximal edges**; they are
   pairwise vertex-disjoint, so all of them merge concurrently.
2. **Parallel merge** — every local maximal edge at or above the
   similarity threshold contracts, recomputing neighbour similarities
   with the sqrt-normalised linkage (Eq. 4; missing edges count 0).
3. Repeat until no edge clears the threshold.

Fewer diffusion rounds ⇒ more local maxima ⇒ more merges per round ⇒
higher parallelism but greedier merging; the paper fixes k = 2 (bench
E5 sweeps k).

Two execution modes share the identical merge semantics:

* ``engine="local"`` — plain Python loops (fast, used by default);
* ``engine="pregel"`` — diffusion runs as a vertex program on
  :mod:`repro.pregel`, yielding superstep/message statistics that the
  scalability bench (E4) converts into simulated distributed wall
  clock. Tests assert both modes produce identical dendrograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro._util import check_in, check_positive
from repro.clustering.dendrogram import Dendrogram, Merge
from repro.clustering.hac import HACConfig, merge_pair
from repro.clustering.linkage import LINKAGES, LinkageFn
from repro.clustering.membership import MembershipTracker
from repro.graph.diffusion import MaxDiffusion
from repro.graph.sparse import SparseGraph
from repro.pregel import PregelConfig, PregelEngine, Vertex, combine_max

__all__ = ["ParallelHACConfig", "RoundStats", "ParallelHACResult", "ParallelHAC"]


@dataclass(frozen=True)
class ParallelHACConfig:
    """Parallel HAC parameters.

    Inherits the HAC semantics (threshold, linkage) and adds the
    parallel-execution knobs: ``diffusion_rounds`` (paper: 2),
    ``engine`` and ``n_workers`` for the BSP mode.
    """

    similarity_threshold: float = 0.3
    linkage: str = "sqrt"
    max_cluster_size: Optional[int] = None
    diffusion_rounds: int = 2
    engine: str = "local"
    n_workers: int = 4
    max_rounds: int = 10_000

    def __post_init__(self) -> None:
        HACConfig(
            similarity_threshold=self.similarity_threshold,
            linkage=self.linkage,
            max_cluster_size=self.max_cluster_size,
        )  # reuse its validation
        check_positive("diffusion_rounds", self.diffusion_rounds)
        check_in("engine", self.engine, ("local", "pregel"))
        check_positive("n_workers", self.n_workers)
        check_positive("max_rounds", self.max_rounds)

    @property
    def linkage_fn(self) -> LinkageFn:
        return LINKAGES[self.linkage]


@dataclass(frozen=True)
class RoundStats:
    """Observability for one parallel round (consumed by benches)."""

    round_index: int
    live_clusters: int
    live_edges: int
    local_maximal_edges: int
    merges: int
    supersteps: int = 0          # pregel mode only
    messages: int = 0            # pregel mode only
    remote_messages: int = 0     # pregel mode only

    @property
    def parallelism(self) -> int:
        """Merges executed concurrently this round."""
        return self.merges


@dataclass
class ParallelHACResult:
    """Dendrogram plus per-round statistics."""

    dendrogram: Dendrogram
    rounds: List[RoundStats] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_merges(self) -> int:
        return sum(r.merges for r in self.rounds)

    @property
    def total_messages(self) -> int:
        return sum(r.messages for r in self.rounds)

    def mean_parallelism(self) -> float:
        """Average merges per round — the paper's parallelism measure."""
        merging = [r.merges for r in self.rounds if r.merges > 0]
        if not merging:
            return 0.0
        return sum(merging) / len(merging)


class _DiffusionVertex(Vertex):
    """Vertex program for one diffusion phase (pregel mode).

    value = the best edge record this vertex currently believes in,
    encoded as (weight, -a, -b) so ``max`` is deterministic (see
    :mod:`repro.graph.diffusion`). Superstep 0 computes the local best
    incident edge; supersteps 1..k adopt the max over received beliefs;
    at superstep k every vertex halts.
    """

    __slots__ = ("k",)

    def __init__(self, vertex_id, edges, k: int):
        super().__init__(vertex_id, value=None, edges=edges)
        self.k = k

    def compute(self, ctx, messages) -> None:
        if ctx.superstep == 0:
            best = None
            for nbr, w in self.edges.items():
                a, b = (self.vertex_id, nbr) if self.vertex_id < nbr else (nbr, self.vertex_id)
                rec = (w, -a, -b)
                if best is None or rec > best:
                    best = rec
            self.value = best
        else:
            best = self.value
            for rec in messages:
                if rec is not None and (best is None or rec > best):
                    best = rec
            self.value = best
        if ctx.superstep < self.k:
            if self.value is not None:
                ctx.send_to_neighbors(self.value)
        else:
            ctx.vote_to_halt()


class ParallelHAC:
    """The paper's Parallel HAC; produces a :class:`ParallelHACResult`."""

    def __init__(self, config: ParallelHACConfig = ParallelHACConfig()):
        self._config = config

    @property
    def config(self) -> ParallelHACConfig:
        return self._config

    # -- public API --------------------------------------------------------

    def fit(self, graph: SparseGraph) -> ParallelHACResult:
        """Cluster ``graph`` (not modified); see module docstring."""
        cfg = self._config
        work = graph.copy()
        tracker = MembershipTracker(graph.vertices())
        dendrogram = Dendrogram(graph.vertices())
        rounds: List[RoundStats] = []
        # Local mode carries the beliefs from round to round and repairs
        # them around what the round merged; the BSP engine re-runs its
        # vertex program on the whole graph every round.
        adjacency = work.adjacency()
        diffusion = (
            MaxDiffusion(work, cfg.diffusion_rounds)
            if cfg.engine == "local" else None
        )

        for round_index in range(cfg.max_rounds):
            live_edges = work.n_edges
            if live_edges == 0:
                break

            if diffusion is None:
                candidates, supersteps, msgs, remote = self._diffuse_pregel(work)
            else:
                candidates = diffusion.local_maximal_edges()
                supersteps, msgs, remote = 0, 0, 0

            eligible = [
                (u, v, w) for u, v, w in candidates
                if w >= cfg.similarity_threshold
            ]
            if cfg.max_cluster_size is not None:
                eligible = [
                    (u, v, w) for u, v, w in eligible
                    if tracker.size(u) + tracker.size(v) <= cfg.max_cluster_size
                ]

            touched = set()
            for u, v, w in eligible:
                touched.update(adjacency[u], adjacency[v])
                merged = merge_pair(work, tracker, u, v, cfg.linkage_fn)
                touched.add(merged)
                dendrogram.record_merge(Merge(merged, u, v, w, round_index))

            rounds.append(
                RoundStats(
                    round_index=round_index,
                    live_clusters=tracker.n_live(),
                    live_edges=live_edges,
                    local_maximal_edges=len(candidates),
                    merges=len(eligible),
                    supersteps=supersteps,
                    messages=msgs,
                    remote_messages=remote,
                )
            )

            if not eligible:
                # No local maximal edge clears the threshold. Since a
                # *global* maximal edge is always locally maximal, the
                # global max is below threshold too: we are done. (With
                # max_cluster_size set, remaining merges are size-blocked;
                # drop their edges and re-check.)
                if cfg.max_cluster_size is None:
                    break
                touched = self._drop_blocked_edges(work, tracker)
                if not touched:
                    break
            if diffusion is not None:
                diffusion.refresh(touched)
        return ParallelHACResult(dendrogram=dendrogram, rounds=rounds)

    # -- internals ------------------------------------------------------------

    def _drop_blocked_edges(
        self, work: SparseGraph, tracker: MembershipTracker
    ) -> Set[int]:
        """Remove edges whose merge would exceed ``max_cluster_size``;
        returns the vertices that lost one.

        Needed for termination: a heavy-but-blocked edge would otherwise
        keep winning the diffusion and stall every later round.
        """
        cap = self._config.max_cluster_size
        assert cap is not None
        to_drop = [
            (u, v)
            for u, v, w in work.edges()
            if w >= self._config.similarity_threshold
            and tracker.size(u) + tracker.size(v) > cap
        ]
        for u, v in to_drop:
            work.remove_edge(u, v)
        return {x for pair in to_drop for x in pair}

    def _diffuse_pregel(
        self, work: SparseGraph
    ) -> Tuple[List[Tuple[int, int, float]], int, int, int]:
        """Run one diffusion phase on the BSP engine.

        Returns (local maximal edges, supersteps, messages, remote
        messages). Must agree exactly with
        :func:`repro.graph.diffusion.local_maximal_edges` — covered by
        tests.
        """
        cfg = self._config
        vertices = [
            _DiffusionVertex(v, work.neighbors(v), cfg.diffusion_rounds)
            for v in work.vertices()
        ]
        engine = PregelEngine(
            vertices,
            PregelConfig(
                n_workers=cfg.n_workers,
                max_supersteps=cfg.diffusion_rounds + 1,
                combiner=combine_max,
            ),
        )
        run = engine.run()
        beliefs = engine.vertex_values()
        found = set()
        for v, rec in beliefs.items():
            if rec is None:
                continue
            w, na, nb = rec
            a, b = -na, -nb
            if beliefs.get(a) == rec and beliefs.get(b) == rec:
                found.add((a, b, w))
        return (
            sorted(found),
            run.supersteps,
            run.total_messages,
            run.total_remote_messages,
        )
