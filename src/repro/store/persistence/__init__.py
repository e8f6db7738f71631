"""Model artifact persistence: per-artifact serialisers and versioned
model snapshots.

A fitted model's artifacts are what a serving fleet loads; refitting
per process would be absurd at production scale. This package covers
two granularities, both strictly pickle-free:

* :mod:`~repro.store.persistence.artifacts` — standalone taxonomy
  (JSON) and embeddings (NPZ) files;
* :mod:`~repro.store.persistence.snapshot` — the versioned snapshot
  directory holding *every* :class:`ShoalModel` artifact (``load_model``
  reads it all, ``load_serving`` only what a read tier needs), and its
  content fingerprint.

A fold process restarts from a snapshot — the ``--load`` one or its
newest generation: ``IncrementalShoal.from_model`` over the loaded
model, then a WAL replay into the snapshot's click window
(:func:`load_window`).
"""

from repro.store.persistence.artifacts import (
    load_embeddings,
    load_taxonomy,
    save_embeddings,
    save_taxonomy,
    taxonomy_from_dict,
    taxonomy_to_dict,
)
from repro.store.persistence.snapshot import (
    MODEL_SNAPSHOT_KIND,
    SNAPSHOT_FORMAT_VERSION,
    check_manifest,
    config_from_dict,
    config_to_dict,
    load_entity_categories,
    load_model,
    load_serving,
    load_serving_verified,
    load_window,
    read_manifest,
    save_model,
    save_serving,
    snapshot_fingerprint,
    whole_fingerprint,
)

__all__ = [
    "taxonomy_to_dict",
    "taxonomy_from_dict",
    "save_taxonomy",
    "load_taxonomy",
    "save_embeddings",
    "load_embeddings",
    "config_to_dict",
    "config_from_dict",
    "save_model",
    "save_serving",
    "load_model",
    "load_serving",
    "load_serving_verified",
    "load_entity_categories",
    "load_window",
    "read_manifest",
    "check_manifest",
    "whole_fingerprint",
    "snapshot_fingerprint",
    "SNAPSHOT_FORMAT_VERSION",
    "MODEL_SNAPSHOT_KIND",
]
