"""Maintain SHOAL day over day with warm embeddings.

Production operation: the 7-day window slides nightly. Retraining
word2vec per night is wasted work (titles barely change), so the
:class:`~repro.core.incremental.IncrementalShoal` maintainer keeps the
embeddings warm, rebuilds the window-dependent stages, and reports the
day-over-day taxonomy stability an operator would alert on.

Run:  python examples/incremental_maintenance.py
"""

import dataclasses

from repro.api import SearchRequest, ServiceBackend
from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.core.report import compute_stats, render_tree
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig
from repro.streaming import Generation, GenerationSwitch


def main() -> None:
    # A 12-day log so the 7-day window slides six times.
    config = dataclasses.replace(
        PROFILES["small"],
        query_log=QueryLogConfig(n_days=12, events_per_day=800),
    )
    market = generate_marketplace(config)
    titles = {e.entity_id: e.title for e in market.catalog.entities}
    query_texts = {q.query_id: q.text for q in market.query_log.queries}
    categories = {e.entity_id: e.category_id for e in market.catalog.entities}

    maintainer = IncrementalShoal(
        ShoalConfig(),
        titles,
        query_texts,
        categories,
        retrain_every=5,     # full word2vec retrain every 5 slides
    )

    probe = next(
        q.text for q in market.query_log.queries if q.intent_kind == "scenario"
    )
    print("sliding the 7-day window nightly:\n")
    switch = GenerationSwitch()
    backend = None
    for day in range(6, 12):
        update = maintainer.advance(market.query_log, last_day=day)
        if backend is None:
            # The read tier is built once, from the first model ...
            backend = ServiceBackend.from_model(
                update.model, entity_categories=categories
            )
            switch.attach(backend)
        else:
            # ... and only the switch swaps it: indexes built once,
            # probed, and published behind one reference.
            switch.swap(
                Generation(
                    number=day,
                    serving=update.model.serving(categories),
                    last_day=day,
                )
            )
        hits = backend.search(
            SearchRequest(query=probe, k=1)
        ).hits
        top = f"top topic for {probe!r}: {hits[0].topic_id}" if hits else "no hit"
        print(f"  {update.summary()}  ({top})")

    model = maintainer.model
    assert model is not None
    names = {c.category_id: c.name for c in market.ontology}
    print("\nfinal taxonomy (largest roots):")
    print(render_tree(model.taxonomy, names, max_roots=4, max_depth=2))
    print()
    print(compute_stats(model.taxonomy).summary())


if __name__ == "__main__":
    main()
