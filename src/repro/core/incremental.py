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

The maintainer keeps no on-disk state of its own. The fold process
(:mod:`repro.streaming.updater`) restarts it from a model snapshot with
:meth:`IncrementalShoal.from_model`, passing the retrain counter its
newest generation recorded, then replays its write-ahead log into the
snapshot's click window (``load_window``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalModel, ShoalPipeline, fit_stage
from repro.data.queries import QueryLog
from repro.eval.metrics import normalized_mutual_information
from repro.graph.window import ClickWindow
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
    tier from :attr:`model` (``ServiceBackend.from_model``) and
    attaching it to a :class:`~repro.streaming.rollout.GenerationSwitch`,
    the one thing that keeps a tier current.

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
        fits_since_retrain: int = 1,
    ) -> "IncrementalShoal":
        """Warm-start maintenance from an already-fitted model.

        This is the one restart path: the fold process loads a snapshot
        (the ``--load`` one or its newest generation), builds the
        maintainer from it, and replays its write-ahead log. The model's
        titles, query texts, and embeddings seed the maintainer, so the
        first :meth:`advance` reuses warm embeddings exactly as if this
        process had fitted the model itself. ``fits_since_retrain`` is
        the retrain counter a generation's manifest carries (a model
        fresh from a full fit has had one fit since its retrain), so a
        restarted maintainer retrains on the same fold as one that never
        stopped.
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
        inc._fits_since_retrain = fits_since_retrain
        return inc

    @property
    def model(self) -> Optional[ShoalModel]:
        """The most recent fitted model (None before the first advance)."""
        return self._last_model

    @property
    def fits_since_retrain(self) -> int:
        """Fits since the embeddings were last trained (the counter
        ``retrain_every`` is compared against)."""
        return self._fits_since_retrain

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
        # The corpus in id order: what a retrain learns must not depend
        # on the order the registry was filled in (a snapshot's JSON
        # stores it sorted by key, a live registration appends).
        corpus = [self._titles[k] for k in sorted(self._titles)] + [
            self._query_texts[k] for k in sorted(self._query_texts)
        ]
        self._embeddings = ShoalPipeline(self._config).fit_embeddings(
            self._titles, self._query_texts, timings, corpus
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

    def knows_query(self, query_id: int) -> bool:
        """Whether ``query_id`` has a registered text."""
        return query_id in self._query_texts

    def update_queries(self, query_texts: Dict[int, str]) -> None:
        """Register query texts first seen later (e.g. live queries) so
        :class:`TopicDescriber` can score them. The maintainer's texts are
        the one registry: a known id keeps its original text.

        Unlike :meth:`update_titles` this does *not* force an embedding
        retrain: description matching only needs the raw text, and the
        token geometry catches up at the next scheduled retrain.
        """
        for query_id, text in query_texts.items():
            self._query_texts.setdefault(query_id, text)

    # -- the slide -----------------------------------------------------------

    def advance(
        self, clicks: Union[ClickWindow, QueryLog], last_day: int
    ) -> WindowUpdate:
        """Refit over ``[last_day − window + 1, last_day]`` of ``clicks``
        (a maintained window, or a log to aggregate) reusing warm
        embeddings; returns the update record with a stability score
        (NMI between consecutive root partitions). The new model carries
        its own copy of the window's days."""
        cfg = self._config
        first_day = max(0, last_day - cfg.window_days + 1)
        timings: Dict[str, float] = {}
        retrained = self._ensure_embeddings(timings)
        assert self._embeddings is not None

        with fit_stage("bipartite", timings):
            if isinstance(clicks, QueryLog):
                window = ClickWindow.from_log(
                    clicks, cfg.window_days, first_day, last_day
                )
            else:
                window = clicks.between(first_day, last_day)
            bipartite = window.graph(cfg.min_clicks)
        model = ShoalPipeline(cfg).fit_window(
            window,
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
