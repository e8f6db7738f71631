"""Operate SHOAL the way production does: a sliding query-log window.

Paper Sec. 3: the taxonomy is built from "a sliding window containing
search queries in the last seven days". This example streams a
generated log into a :class:`~repro.graph.window.ClickWindow` day by
day — per-day click counts, the state a snapshot persists as
``window.npz`` — refitting the taxonomy from it as the window slides,
and shows retention keeping only the last seven days alive.

Run:  python examples/sliding_window.py
"""

import dataclasses

from repro import ShoalConfig, generate_marketplace
from repro.core.incremental import IncrementalShoal
from repro.data.marketplace import PROFILES
from repro.data.queries import QueryLogConfig
from repro.graph.window import ClickWindow


def main() -> None:
    # A 10-day log so the 7-day window actually slides.
    config = dataclasses.replace(
        PROFILES["small"],
        query_log=QueryLogConfig(n_days=10, events_per_day=800),
    )
    market = generate_marketplace(config)
    titles = {e.entity_id: e.title for e in market.catalog.entities}
    query_texts = {q.query_id: q.text for q in market.query_log.queries}
    categories = {e.entity_id: e.category_id for e in market.catalog.entities}

    shoal_config = ShoalConfig()
    window = ClickWindow(shoal_config.window_days)
    maintainer = IncrementalShoal(shoal_config, titles, query_texts, categories)

    events_by_day = {}
    for e in market.query_log.events:
        events_by_day.setdefault(e.day, []).append(e)

    for day in sorted(events_by_day):
        for e in events_by_day[day]:
            window.add_event(e.day, e.query_id, e.clicked_entity_ids)
        if day < 6 and day != max(events_by_day):
            continue  # wait until the window first fills, then refit daily
        model = maintainer.advance(window, last_day=day).model
        days = window.days()
        print(f"day {day}: window days {days[0]}..{days[-1]} "
              f"({window.n_events()} events) -> "
              f"{len(model.taxonomy.root_topics())} root topics, "
              f"{model.correlations.n_correlations} correlated category pairs")

    print(f"\nretained days: {window.days()} "
          f"({window.graph().n_edges} query-entity edges)")


if __name__ == "__main__":
    main()
