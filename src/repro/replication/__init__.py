"""Distributed serving via generation shipping.

One primary publishes each generation's serving files and a generation
index (each generation's ``applied_seq`` cut and snapshot fingerprint)
into a *feed directory*; any number of followers tail the feed, verify
each generation's fingerprint, and load and hot-swap it in lockstep
when the epoch coordinator observes a quorum of verified fingerprints.
Only the primary folds events::

    primary ──ship──▶ feed/ ──tail──▶ followers ──report──▶ coordinator
       ▲                                  ▲                     │
       └── serve-http --ship-feed         └──── EPOCH.json ◀────┘

See ``README.md`` § Replication for the operational story.
"""

from repro.replication.coordinator import EpochCoordinator, coordinator_loop
from repro.replication.feed import Feed, FeedError
from repro.replication.follower import Follower, FollowerBackend
from repro.replication.shipper import GenerationShipper

__all__ = [
    "EpochCoordinator",
    "Feed",
    "FeedError",
    "Follower",
    "FollowerBackend",
    "GenerationShipper",
    "coordinator_loop",
]
