"""Snapshots in the layout older builds wrote.

Before every snapshot file had a reader, a save also wrote the fitted
window's click edges (``bipartite.npz``) and every topic's scored
description candidates (``descriptions.json``), and listed both in the
manifest. Nothing loaded them. Such snapshots are still on disk, so
this writes one byte for byte as those builds did, for the tests that
check they keep loading, serving and restarting.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.pipeline import ShoalModel
from repro.store.persistence import read_manifest, save_model
from repro.store.persistence.artifacts import _finite
from repro.store.persistence.snapshot import write_json

#: The two files, each listed in the manifest after the artifact named.
RETIRED = {"bipartite.npz": "embeddings.npz", "descriptions.json": "clustering.npz"}


def save_parent_format(model: ShoalModel, directory, **save_kwargs) -> Path:
    """``save_model`` plus the two retired files and their manifest
    entries, as the older format had them."""
    d = save_model(model, directory, **save_kwargs)
    edges = list(model.bipartite.edges())
    qs, es, cs = zip(*edges) if edges else ((), (), ())
    np.savez_compressed(
        d / "bipartite.npz",
        query_ids=np.asarray(qs, dtype=np.int64),
        entity_ids=np.asarray(es, dtype=np.int64),
        clicks=np.asarray(cs, dtype=np.int64),
    )
    write_json(
        d / "descriptions.json",
        {
            "topics": {
                str(topic_id): [
                    {
                        "query_id": s.query_id,
                        "text": s.text,
                        "popularity": _finite(s.popularity),
                        "concentration": _finite(s.concentration),
                    }
                    for s in scores
                ]
                for topic_id, scores in model.descriptions.items()
            }
        },
    )
    manifest = read_manifest(d)
    artifacts = manifest["artifacts"]
    for name, after in RETIRED.items():
        artifacts.insert(artifacts.index(after) + 1, name)
    manifest["counts"]["bipartite_edges"] = model.bipartite.n_edges
    write_json(d / "MANIFEST.json", manifest)
    return d
