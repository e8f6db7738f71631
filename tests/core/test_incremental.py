"""Tests for repro.core.incremental (sliding-window maintenance)."""

import dataclasses

import pytest

from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.core.pipeline import ShoalPipeline
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig
from repro.store.persistence import load_model, save_model, snapshot_fingerprint


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


class TestRestartFromSnapshot:
    def test_restart_advances_to_the_same_bytes(
        self, long_market, inputs, tmp_path
    ):
        """The one restart path, as ``serve-http`` and followers take it:
        load the maintainer's saved model, ``from_model`` over it, and
        advance. The next window is byte-identical to the maintainer's
        own, and neither retrains its embeddings."""
        titles, query_texts, categories = inputs
        inc = IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=100
        )
        inc.advance(long_market.query_log, last_day=6)
        save_model(inc.model, tmp_path / "day-6", entity_categories=categories)

        restarted = IncrementalShoal.from_model(
            load_model(tmp_path / "day-6"),
            entity_categories=categories,
            retrain_every=100,
        )
        u_live = inc.advance(long_market.query_log, last_day=7)
        u_restarted = restarted.advance(long_market.query_log, last_day=7)
        assert not u_live.embeddings_retrained
        assert not u_restarted.embeddings_retrained
        assert (
            u_restarted.model.clustering.dendrogram.root_partition()
            == u_live.model.clustering.dendrogram.root_partition()
        )
        live_dir = save_model(
            u_live.model, tmp_path / "live", entity_categories=categories
        )
        restarted_dir = save_model(
            u_restarted.model, tmp_path / "restarted",
            entity_categories=categories,
        )
        assert snapshot_fingerprint(restarted_dir) == snapshot_fingerprint(
            live_dir
        )
