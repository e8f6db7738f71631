"""Distributed serving via WAL segment shipping.

One primary publishes its closed write-ahead-log segments and a
generation index (each generation's ``applied_seq`` cut and snapshot
fingerprint) into a *feed directory*; any number of followers tail the
feed, rebuild generations deterministically through the same streaming
machinery the primary runs, and hot-swap in lockstep when the epoch
coordinator observes a quorum of byte-identical rebuild fingerprints::

    primary ──ship──▶ feed/ ──tail──▶ followers ──report──▶ coordinator
       ▲                                  ▲                     │
       └── serve-http --ship-feed         └──── EPOCH.json ◀────┘

See ``README.md`` § Replication for the operational story.
"""

from repro.replication.coordinator import EpochCoordinator, coordinator_loop
from repro.replication.feed import Feed, FeedError
from repro.replication.follower import Follower, FollowerBackend
from repro.replication.shipper import SegmentShipper

__all__ = [
    "EpochCoordinator",
    "Feed",
    "FeedError",
    "Follower",
    "FollowerBackend",
    "SegmentShipper",
    "coordinator_loop",
]
