"""Tests for repro.core.incremental (sliding-window maintenance)."""

import dataclasses

import pytest

from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.core.pipeline import ShoalPipeline
from repro.core.serving import ShoalService
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig


@pytest.fixture(scope="module")
def long_market():
    """A 10-day log so the 7-day window actually slides."""
    cfg = dataclasses.replace(
        PROFILES["tiny"],
        query_log=QueryLogConfig(n_days=10, events_per_day=400),
    )
    return generate_marketplace(cfg)


@pytest.fixture(scope="module")
def inputs(long_market):
    titles = {e.entity_id: e.title for e in long_market.catalog.entities}
    query_texts = {q.query_id: q.text for q in long_market.query_log.queries}
    categories = {
        e.entity_id: e.category_id for e in long_market.catalog.entities
    }
    return titles, query_texts, categories


class TestAdvance:
    def test_first_advance_trains_embeddings(self, long_market, inputs):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(ShoalConfig(), titles, query_texts, categories)
        update = inc.advance(long_market.query_log, last_day=6)
        assert update.embeddings_retrained
        assert update.taxonomy_stability is None  # no previous window
        assert len(update.model.taxonomy) > 0

    def test_subsequent_advances_reuse_embeddings(self, long_market, inputs):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=100
        )
        inc.advance(long_market.query_log, last_day=6)
        emb = inc.model.embeddings
        u7 = inc.advance(long_market.query_log, last_day=7)
        assert not u7.embeddings_retrained
        assert u7.model.embeddings is emb  # warm reuse, not a copy

    def test_window_bounds_respected(self, long_market, inputs):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(ShoalConfig(), titles, query_texts, categories)
        u = inc.advance(long_market.query_log, last_day=9)
        assert u.first_day == 3
        assert u.last_day == 9

    def test_stability_reported_and_high(self, long_market, inputs):
        """Consecutive 7-day windows share 6 days of data; the taxonomy
        should barely move."""
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=100
        )
        inc.advance(long_market.query_log, last_day=6)
        u = inc.advance(long_market.query_log, last_day=7)
        assert u.taxonomy_stability is not None
        assert u.taxonomy_stability > 0.7

    def test_retrain_every_forces_retrain(self, long_market, inputs):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=2
        )
        assert inc.advance(long_market.query_log, 6).embeddings_retrained
        assert not inc.advance(long_market.query_log, 7).embeddings_retrained
        assert inc.advance(long_market.query_log, 8).embeddings_retrained

    def test_title_update_invalidates(self, long_market, inputs):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=100
        )
        inc.advance(long_market.query_log, 6)
        inc.update_titles({0: "completely new title words"})
        assert inc.advance(long_market.query_log, 7).embeddings_retrained

    def test_matches_full_refit_quality(self, long_market, inputs):
        """Warm-embedding refit must match a cold full fit on the same
        window (same data, same seeds → NMI ≈ 1 vs each other)."""
        from repro.eval.metrics import normalized_mutual_information

        titles, query_texts, categories = inputs
        inc = IncrementalShoal(ShoalConfig(), titles, query_texts, categories)
        warm = inc.advance(long_market.query_log, last_day=6).model

        cold = ShoalPipeline(ShoalConfig()).fit_raw(
            long_market.query_log,
            titles,
            query_texts,
            entity_categories=categories,
            corpus=list(titles.values()) + list(query_texts.values()),
            first_day=0,
            last_day=6,
        )
        nmi = normalized_mutual_information(
            warm.clustering.dendrogram.root_partition(),
            cold.clustering.dendrogram.root_partition(),
        )
        assert nmi > 0.95

    def test_summary(self, long_market, inputs):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(ShoalConfig(), titles, query_texts, categories)
        u = inc.advance(long_market.query_log, 6)
        assert "window 0..6" in u.summary()

    def test_retrain_every_validated(self, inputs):
        titles, query_texts, categories = inputs
        with pytest.raises(ValueError):
            IncrementalShoal(
                ShoalConfig(), titles, query_texts, categories, retrain_every=0
            )


class TestUpdateQueries:
    def test_registered_text_reaches_descriptions(self, long_market, inputs):
        """A query whose text only becomes known in a later window gets
        description coverage once registered — without forcing an
        embedding retrain (unlike update_titles)."""
        titles, query_texts, categories = inputs
        # Hold out the text of a query that actually has clicks late in
        # the log, simulating a query first seen in a later window.
        late_days = {e.query_id for e in long_market.query_log.events if e.day >= 7}
        held_out = min(late_days)
        partial = {k: v for k, v in query_texts.items() if k != held_out}

        inc = IncrementalShoal(
            ShoalConfig(), titles, partial, categories, retrain_every=100
        )
        inc.advance(long_market.query_log, last_day=6)
        scored_before = {
            s.query_id
            for scores in inc.model.descriptions.values()
            for s in scores
        }
        assert held_out not in scored_before  # no text -> never scored

        inc.update_queries({held_out: query_texts[held_out]})
        update = inc.advance(long_market.query_log, last_day=9)
        assert not update.embeddings_retrained  # no retrain forced
        assert update.model.query_texts[held_out] == query_texts[held_out]
        scored_after = {
            s.query_id
            for scores in update.model.descriptions.values()
            for s in scores
        }
        assert held_out in scored_after

    def test_does_not_invalidate_embeddings(self, long_market, inputs):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=100
        )
        inc.advance(long_market.query_log, 6)
        emb = inc.model.embeddings
        inc.update_queries({10_000: "brand new query text"})
        u = inc.advance(long_market.query_log, 7)
        assert not u.embeddings_retrained
        assert u.model.embeddings is emb


class TestCheckpointResume:
    def test_resume_restores_model_and_warm_embeddings(
        self, long_market, inputs, tmp_path
    ):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=100
        )
        inc.advance(long_market.query_log, last_day=6)
        inc.checkpoint(tmp_path / "ckpt")

        resumed = IncrementalShoal.resume(tmp_path / "ckpt")
        assert resumed.model is not None
        assert [t.topic_id for t in resumed.model.taxonomy] == [
            t.topic_id for t in inc.model.taxonomy
        ]
        # A tier built from the resumed model serves without an advance.
        served = ShoalService(
            resumed.model, entity_categories=resumed.entity_categories
        )
        assert served.search_topics("anything") is not None

        # The next slide behaves exactly as it would have pre-restart:
        # warm embeddings are reused and the result is identical.
        u_orig = inc.advance(long_market.query_log, last_day=7)
        u_res = resumed.advance(long_market.query_log, last_day=7)
        assert not u_res.embeddings_retrained
        assert (
            u_res.model.clustering.dendrogram.root_partition()
            == u_orig.model.clustering.dendrogram.root_partition()
        )
        assert u_res.taxonomy_stability == pytest.approx(u_orig.taxonomy_stability)

    def test_retrain_counter_survives(self, long_market, inputs, tmp_path):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=2
        )
        inc.advance(long_market.query_log, 6)  # retrain, counter -> 1
        inc.checkpoint(tmp_path / "ckpt")
        resumed = IncrementalShoal.resume(tmp_path / "ckpt")
        assert not resumed.advance(long_market.query_log, 7).embeddings_retrained
        assert resumed.advance(long_market.query_log, 8).embeddings_retrained

    def test_invalidated_embeddings_stay_invalid(
        self, long_market, inputs, tmp_path
    ):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=100
        )
        inc.advance(long_market.query_log, 6)
        inc.update_titles({0: "completely new title words"})
        inc.checkpoint(tmp_path / "ckpt")
        resumed = IncrementalShoal.resume(tmp_path / "ckpt")
        assert resumed.model is not None
        u = resumed.advance(long_market.query_log, 7)
        assert u.embeddings_retrained  # the invalidation survived
        assert resumed._titles[0] == "completely new title words"

    def test_checkpoint_before_first_advance(
        self, long_market, inputs, tmp_path
    ):
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(ShoalConfig(), titles, query_texts, categories)
        inc.checkpoint(tmp_path / "ckpt")
        resumed = IncrementalShoal.resume(tmp_path / "ckpt")
        assert resumed.model is None
        u = resumed.advance(long_market.query_log, 6)
        assert u.embeddings_retrained
        assert len(u.model.taxonomy) > 0
