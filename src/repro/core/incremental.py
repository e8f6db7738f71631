"""Incremental sliding-window maintenance.

Production SHOAL rebuilds from the last seven days of queries; naively
that means retraining word2vec and refitting everything daily. This
module implements the operational optimisation the paper's deployment
implies: keep the expensive, slowly-changing artifacts (word
embeddings) warm, rebuild only the window-dependent ones (bipartite
graph → entity graph → clustering → descriptions → correlations), and
report how much the taxonomy moved between consecutive windows.

The embedding-reuse policy is safe because Eq. 2 only needs stable
token geometry: titles change slowly relative to the click stream, so
embeddings go stale on vocabulary shifts, not window slides. A
configurable ``retrain_every`` forces periodic full retrains.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalModel, ShoalPipeline, fit_stage
from repro.data.queries import QueryLog
from repro.eval.metrics import normalized_mutual_information
from repro.graph.bipartite import build_query_item_graph
from repro.text.word2vec import WordEmbeddings

__all__ = ["IncrementalShoal", "WindowUpdate"]


@dataclass
class WindowUpdate:
    """What changed when the window slid to ``last_day``."""

    last_day: int
    first_day: int
    model: ShoalModel
    embeddings_retrained: bool
    taxonomy_stability: Optional[float] = None

    def summary(self) -> str:
        stability = (
            f"{self.taxonomy_stability:.3f}"
            if self.taxonomy_stability is not None
            else "n/a"
        )
        return (
            f"window {self.first_day}..{self.last_day}: "
            f"{len(self.model.taxonomy.root_topics())} root topics, "
            f"stability={stability}, "
            f"retrained={self.embeddings_retrained}"
        )


class IncrementalShoal:
    """Maintains a SHOAL model as the query-log window slides.

    A pure model maintainer: it owns no read tier. Serve by building a
    tier from :attr:`model` (``ServiceBackend.from_model`` /
    ``ClusterBackend.from_model``) and attaching it to a
    :class:`~repro.streaming.rollout.GenerationSwitch`, the one thing
    that keeps a tier current.

    Usage::

        inc = IncrementalShoal(config, titles, query_texts, categories)
        for day in range(6, horizon):
            update = inc.advance(log, last_day=day)
    """

    def __init__(
        self,
        config: ShoalConfig,
        titles: Dict[int, str],
        query_texts: Dict[int, str],
        entity_categories: Optional[Dict[int, int]] = None,
        retrain_every: int = 7,
    ):
        if retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        self._config = config
        self._titles = dict(titles)
        self._query_texts = dict(query_texts)
        self._categories = dict(entity_categories or {})
        self._retrain_every = retrain_every
        self._embeddings: Optional[WordEmbeddings] = None
        self._fits_since_retrain = 0
        self._last_model: Optional[ShoalModel] = None

    @classmethod
    def from_model(
        cls,
        model: ShoalModel,
        entity_categories: Optional[Dict[int, int]] = None,
        retrain_every: int = 7,
    ) -> "IncrementalShoal":
        """Warm-start maintenance from an already-fitted model.

        The streaming updater uses this to resume sliding-window
        maintenance over a snapshot a serving process loaded from disk:
        the model's titles, query texts, and embeddings seed the
        maintainer, so the first :meth:`advance` reuses warm embeddings
        exactly as if this process had fitted the model itself.
        """
        inc = cls(
            model.config,
            model.titles,
            model.query_texts,
            entity_categories,
            retrain_every=retrain_every,
        )
        inc._last_model = model
        inc._embeddings = model.embeddings
        inc._fits_since_retrain = 1
        return inc

    @property
    def model(self) -> Optional[ShoalModel]:
        """The most recent fitted model (None before the first advance)."""
        return self._last_model

    @property
    def entity_categories(self) -> Dict[int, int]:
        """The authoritative entity → category map the maintainer holds."""
        return dict(self._categories)

    # -- embedding lifecycle -----------------------------------------------

    def _ensure_embeddings(self, timings: Dict[str, float]) -> bool:
        """(Re)train embeddings if missing or due; returns True if
        a retrain happened (then ``timings`` gains its ``word2vec``)."""
        due = (
            self._embeddings is None
            or self._fits_since_retrain >= self._retrain_every
        )
        if not due:
            return False
        self._embeddings = ShoalPipeline(self._config).fit_embeddings(
            self._titles, self._query_texts, timings
        )
        self._fits_since_retrain = 0
        return True

    def invalidate_embeddings(self) -> None:
        """Force a retrain at the next advance (e.g. catalog changed)."""
        self._embeddings = None

    def update_titles(self, titles: Dict[int, str]) -> None:
        """Catalog update: new/changed titles invalidate embeddings."""
        self._titles.update(titles)
        self.invalidate_embeddings()

    def update_queries(self, query_texts: Dict[int, str]) -> None:
        """Register new/changed query texts (e.g. queries first seen in a
        later window) so :class:`TopicDescriber` can score them.

        Unlike :meth:`update_titles` this does *not* force an embedding
        retrain: description matching only needs the raw text, and the
        token geometry catches up at the next scheduled retrain.
        """
        self._query_texts.update(query_texts)

    # -- persistence ----------------------------------------------------------

    def checkpoint(self, directory: Union[str, Path]) -> Path:
        """Persist the full maintenance state to ``directory``.

        Includes the refit inputs (titles, query texts, categories),
        the embedding-retrain counters, and a complete snapshot of the
        latest model, so sliding-window maintenance survives a process
        restart via :meth:`resume`.
        """
        # Imported lazily: the store layer depends on core modules.
        from repro.store.persistence import CheckpointState, save_checkpoint

        state = CheckpointState(
            config=self._config,
            titles=dict(self._titles),
            query_texts=dict(self._query_texts),
            entity_categories=dict(self._categories),
            retrain_every=self._retrain_every,
            fits_since_retrain=self._fits_since_retrain,
            embeddings_valid=self._embeddings is not None,
            model=self._last_model,
        )
        return save_checkpoint(state, directory)

    @classmethod
    def resume(cls, directory: Union[str, Path]) -> "IncrementalShoal":
        """Reconstruct an :class:`IncrementalShoal` from a checkpoint.

        Warm embeddings are re-linked from the snapshotted model (they
        are the same artifact), unless they were invalidated before the
        checkpoint — then the next :meth:`advance` retrains, exactly as
        it would have without the restart.
        """
        from repro.store.persistence import load_checkpoint

        state = load_checkpoint(directory)
        inc = cls(
            state.config,
            state.titles,
            state.query_texts,
            state.entity_categories,
            retrain_every=state.retrain_every,
        )
        inc._fits_since_retrain = state.fits_since_retrain
        inc._last_model = state.model
        if state.embeddings_valid and state.model is not None:
            inc._embeddings = state.model.embeddings
        return inc

    # -- the slide -----------------------------------------------------------

    def advance(self, query_log: QueryLog, last_day: int) -> WindowUpdate:
        """Refit over ``[last_day − window + 1, last_day]`` reusing warm
        embeddings; returns the update record with a stability score
        (NMI between consecutive root partitions)."""
        cfg = self._config
        first_day = max(0, last_day - cfg.window_days + 1)
        timings: Dict[str, float] = {}
        retrained = self._ensure_embeddings(timings)
        assert self._embeddings is not None

        with fit_stage("bipartite", timings):
            bipartite = build_query_item_graph(
                query_log, first_day, last_day, cfg.min_clicks
            )
        model = ShoalPipeline(cfg).fit_window(
            bipartite,
            self._embeddings,
            dict(self._titles),
            dict(self._query_texts),
            self._categories,
            timings,
        )

        stability = self._stability(self._last_model, model)
        self._last_model = model
        self._fits_since_retrain += 1
        return WindowUpdate(
            last_day=last_day,
            first_day=first_day,
            model=model,
            embeddings_retrained=retrained,
            taxonomy_stability=stability,
        )

    @staticmethod
    def _stability(
        previous: Optional[ShoalModel], current: ShoalModel
    ) -> Optional[float]:
        """NMI between consecutive root partitions on shared entities."""
        if previous is None:
            return None
        prev_labels = previous.clustering.dendrogram.root_partition()
        curr_labels = current.clustering.dendrogram.root_partition()
        shared = set(prev_labels) & set(curr_labels)
        if len(shared) < 2:
            return None
        return normalized_mutual_information(
            {e: curr_labels[e] for e in shared},
            {e: prev_labels[e] for e in shared},
        )
