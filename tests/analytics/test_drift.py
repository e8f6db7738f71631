"""Taxonomy drift: partition comparison, invariant under renumbering.

Refits renumber topics freely, so the monitor must see *zero* drift
between two taxonomies whose entity partitions agree — whatever the
topic ids say — and must flag exactly the entities whose cluster
co-membership changed.
"""

from __future__ import annotations

import pytest

from repro.analytics import DriftMonitor, DriftStats


class _Topic:
    def __init__(self, topic_id):
        self.topic_id = topic_id


class _Taxonomy:
    """entity_id -> topic_id, behind the real taxonomy's interface."""

    def __init__(self, assignment):
        self._assignment = dict(assignment)

    def placed_entities(self):
        return list(self._assignment)

    def topic_of_entity(self, entity_id):
        return _Topic(self._assignment[entity_id])

    def __len__(self):
        return len(set(self._assignment.values()))


class _Model:
    def __init__(self, assignment):
        self.taxonomy = _Taxonomy(assignment)


class _Generation:
    def __init__(self, number, assignment):
        self.number = number
        self.serving = _Model(assignment)


#: Two clusters: {1, 2, 3} and {4, 5}.
BASE = {1: 10, 2: 10, 3: 10, 4: 20, 5: 20}


class TestPartitionComparison:
    def test_identical_partition_is_zero_drift(self):
        stats = DriftMonitor().assess(_Model(BASE), _Model(dict(BASE)))
        assert stats.entities_changed == 0
        assert stats.changed_fraction == 0.0
        assert stats.trivial()

    def test_renumbered_topics_are_still_zero_drift(self):
        """The refit renamed 10 -> 77 and 20 -> 3; nothing moved."""
        renumbered = {1: 77, 2: 77, 3: 77, 4: 3, 5: 3}
        monitor = DriftMonitor()
        assert monitor.should_skip(_Model(BASE), _Model(renumbered))

    def test_moved_entity_counts_its_whole_neighborhood(self):
        """Moving entity 3 out of {1,2,3} changes 3's cluster *and*
        the co-membership of 1, 2, 4, and 5 — all five entities see a
        different neighborhood."""
        moved = {1: 10, 2: 10, 3: 20, 4: 20, 5: 20}
        stats = DriftMonitor().assess(_Model(BASE), _Model(moved))
        assert stats.entities_changed == 5
        assert stats.changed_fraction == 1.0
        assert not stats.trivial()

    def test_new_entity_is_drift_but_can_be_under_threshold(self):
        grown = {**BASE, 6: 30}  # a singleton new cluster
        stats = DriftMonitor().assess(_Model(BASE), _Model(grown))
        assert stats.entities_changed == 1
        assert stats.n_entities == 6
        # Topic counts differ (2 vs 3), so this is never trivial...
        assert not stats.trivial(threshold=0.5)

    def test_threshold_tolerates_small_membership_churn(self):
        """Same topic count, one small cluster reshuffled: trivial at a
        loose threshold, not at a tight one."""
        base = {i: 10 for i in range(1, 7)} | {7: 20, 8: 20, 9: 30}
        churned = {**base, 8: 30}  # 8 moves from {7,8} to {8,9}
        stats = DriftMonitor().assess(_Model(base), _Model(churned))
        assert stats.n_topics_prev == stats.n_topics_new == 3
        assert 0.0 < stats.changed_fraction < 0.5
        assert stats.trivial(threshold=0.5)
        assert not stats.trivial(threshold=0.0)


class TestMonitor:
    def test_threshold_bounds_are_enforced(self):
        for bad in (-0.1, 1.0, 2.0):
            with pytest.raises(ValueError):
                DriftMonitor(threshold=bad)
        DriftMonitor(threshold=0.0)
        DriftMonitor(threshold=0.99)

    def test_generations_expose_their_numbers(self):
        prev = _Generation(3, BASE)
        new = _Generation(4, dict(BASE))
        stats = DriftMonitor().assess(prev, new)
        assert (stats.prev_generation, stats.new_generation) == (3, 4)

    def test_stats_record_every_assessment(self):
        monitor = DriftMonitor()
        monitor.should_skip(_Model(BASE), _Model(dict(BASE)))
        monitor.should_skip(
            _Model(BASE), _Model({1: 10, 2: 10, 3: 20, 4: 20, 5: 20})
        )
        stats = monitor.stats()
        assert stats["assessments"] == 2
        assert stats["trivial"] == 1
        assert stats["threshold"] == 0.0
        assert stats["last"]["entities_changed"] == 5

    def test_stats_dict_round_trips_through_dataclass(self):
        stats = DriftMonitor().assess(_Model(BASE), _Model(dict(BASE)))
        assert DriftStats(**stats.to_dict()) == stats

    def test_a_real_model_is_trivially_equal_to_itself(self, tiny_model):
        assert DriftMonitor().should_skip(tiny_model, tiny_model)
