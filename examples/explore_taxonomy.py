"""Explore the taxonomy through the four demo scenarios of paper Fig. 5.

A — Query→Topic:          keyword search returns relevant topics;
B — Topic→Sub-topic:      navigate the hierarchy;
C — Topic→Category→Item:  categories under a topic, items per category;
D — Category→Category:    related categories from Eq. 5 correlations.

Run:  python examples/explore_taxonomy.py
"""

from repro import ShoalConfig, ShoalPipeline, generate_marketplace
from repro.api import SearchRequest, ServiceBackend
from repro.data.marketplace import PROFILES


def main() -> None:
    market = generate_marketplace(PROFILES["small"])
    model = ShoalPipeline(ShoalConfig()).fit(market)
    # Scenario A goes through the typed gateway API; the hierarchy
    # navigation scenarios (B/C/D) use the engine behind the adapter.
    backend = ServiceBackend.from_model(
        model,
        entity_categories={
            e.entity_id: e.category_id for e in market.catalog.entities
        },
    )
    service = backend.service

    # A realistic entry point: a user's scenario query ("beach dress").
    query = next(
        q.text for q in market.query_log.queries if q.intent_kind == "scenario"
    )

    print(f"=== (A) Query -> Topic: searching {query!r} ===")
    hits = backend.search(SearchRequest(query=query, k=4)).hits
    for h in hits:
        print(f"  topic {h.topic_id}  score={h.score:6.2f}  "
              f"\"{h.label}\"  ({h.n_entities} entities, "
              f"{h.n_categories} categories)")
    if not hits:
        print("  (no matching topics)")
        return

    topic_id = hits[0].topic_id
    print(f"\n=== (B) Topic -> Sub-topic: expanding topic {topic_id} ===")
    path = service.topic_path(topic_id)
    print("  path to root:", " -> ".join(t.label() for t in reversed(path)))
    subs = service.subtopics(topic_id)
    if subs:
        for sub in subs:
            print(f"  sub-topic {sub.topic_id}: \"{sub.label()}\" "
                  f"({sub.size} entities)")
    else:
        print("  (leaf topic, no sub-topics)")

    print("\n=== (C) Topic -> Category -> Item ===")
    for cid in service.categories_of_topic(topic_id)[:3]:
        entities = service.entities_of_topic_category(topic_id, cid)
        print(f"  category {market.ontology.name_of(cid)!r}: "
              f"{len(entities)} entities")
        for e in entities[:2]:
            print(f"    item entity {e}: \"{model.titles[e]}\"")

    print("\n=== (D) Category -> Category (Eq. 5 correlations) ===")
    cats = model.correlations.categories()
    if not cats:
        print("  (no correlated categories at this corpus size)")
        return
    center = cats[0]
    print(f"  center category: {market.ontology.name_of(center)!r}")
    for hit in service.related_categories(center, k=6):
        print(f"    related: {market.ontology.name_of(hit.category_id)!r} "
              f"(co-occurs in {hit.strength} root topics)")

    print(f"\n=== star graph: topics related to topic {topic_id} ===")
    for other, score in service.related_topics(topic_id, k=4):
        print(f"  topic {other.topic_id}  sim={score:.3f}  \"{other.label()}\"")


if __name__ == "__main__":
    main()
