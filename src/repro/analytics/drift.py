"""Cross-generation taxonomy drift: should this rollout happen at all?

Every micro-batch produces a model generation, but a trickle of
repeat traffic often yields a taxonomy whose *partition of entities
into topics* is identical (or nearly) to what is already serving —
swapping it costs an index build, its probes, and a gateway cache
invalidation for zero reader-visible change.

:class:`DriftMonitor` quantifies the change between two generations'
taxonomies and answers "is this rollout trivial?". The comparison is
over the *partition*, not topic ids — refits renumber topics freely, so
two taxonomies are compared by asking, per entity, whether the set of
entities it shares a (leaf) topic with changed. That makes the metric
invariant under relabeling and sensitive to exactly what serving
answers depend on: which entities cluster together.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional

__all__ = ["DriftMonitor", "DriftStats"]


@dataclass(frozen=True)
class DriftStats:
    """The measured change between two generations' taxonomies."""

    prev_generation: int
    new_generation: int
    n_topics_prev: int
    n_topics_new: int
    n_entities: int
    entities_changed: int
    changed_fraction: float

    def trivial(self, threshold: float = 0.0) -> bool:
        """True when the rollout would be reader-invisible (or nearly):
        the topic count is stable and at most ``threshold`` of entities
        changed cluster membership."""
        return (
            self.n_topics_prev == self.n_topics_new
            and self.changed_fraction <= threshold
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "prev_generation": self.prev_generation,
            "new_generation": self.new_generation,
            "n_topics_prev": self.n_topics_prev,
            "n_topics_new": self.n_topics_new,
            "n_entities": self.n_entities,
            "entities_changed": self.entities_changed,
            "changed_fraction": self.changed_fraction,
        }


def _membership(taxonomy) -> Dict[int, FrozenSet[int]]:
    """entity -> the frozen set of entities sharing its leaf topic."""
    groups: Dict[int, list] = {}
    for entity_id in taxonomy.placed_entities():
        topic = taxonomy.topic_of_entity(entity_id)
        groups.setdefault(topic.topic_id, []).append(entity_id)
    member_of: Dict[int, FrozenSet[int]] = {}
    for members in groups.values():
        cluster = frozenset(members)
        for entity_id in members:
            member_of[entity_id] = cluster
    return member_of


def _taxonomy_of(x):
    """A model's taxonomy, or a generation's (its serving model's)."""
    return x.taxonomy if hasattr(x, "taxonomy") else x.serving.taxonomy


class DriftMonitor:
    """Assess generation-over-generation drift; gate trivial rollouts.

    ``threshold`` is the changed-entity fraction at or below which a
    rollout is considered trivial (0.0 = only skip when the partition
    is *identical*). The monitor records every assessment so the
    metrics scrape can show what the gate has been deciding.
    """

    def __init__(self, *, threshold: float = 0.0):
        if not 0.0 <= threshold < 1.0:
            raise ValueError(
                f"threshold must be in [0, 1), got {threshold}"
            )
        self.threshold = threshold
        self._lock = threading.Lock()
        self._assessments = 0
        self._trivial = 0
        self._last: Optional[DriftStats] = None

    def assess(self, prev_generation, new_generation) -> DriftStats:
        """Measure drift between two generations (or bare models)."""
        prev_taxonomy = _taxonomy_of(prev_generation)
        new_taxonomy = _taxonomy_of(new_generation)
        prev_members = _membership(prev_taxonomy)
        new_members = _membership(new_taxonomy)
        universe = set(prev_members) | set(new_members)
        changed = sum(
            1
            for entity_id in universe
            if prev_members.get(entity_id) != new_members.get(entity_id)
        )
        stats = DriftStats(
            prev_generation=getattr(prev_generation, "number", -1),
            new_generation=getattr(new_generation, "number", -1),
            n_topics_prev=len(prev_taxonomy),
            n_topics_new=len(new_taxonomy),
            n_entities=len(universe),
            entities_changed=changed,
            changed_fraction=(changed / len(universe)) if universe else 0.0,
        )
        with self._lock:
            self._assessments += 1
            if stats.trivial(self.threshold):
                self._trivial += 1
            self._last = stats
        return stats

    def should_skip(self, prev_generation, new_generation) -> bool:
        """True when rolling out ``new`` over ``prev`` would be trivial."""
        return self.assess(prev_generation, new_generation).trivial(
            self.threshold
        )

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            out: Dict[str, Any] = {
                "threshold": self.threshold,
                "assessments": self._assessments,
                "trivial": self._trivial,
            }
            if self._last is not None:
                out["last"] = self._last.to_dict()
            return out
