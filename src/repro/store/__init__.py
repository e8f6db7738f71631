"""Lightweight storage layer.

Production SHOAL reads a seven-day query-log window from distributed
tables; this package provides the single-node equivalents:

* :mod:`repro.store.tables` — typed, append-only columnar tables with
  schema validation and simple filtering;
* :mod:`repro.store.querylog` — a query-log store with per-day
  segments and sliding-window retention (paper: last seven days);
* :mod:`repro.store.persistence` — pickle-free serialisation of fitted
  artifacts: standalone taxonomy/embeddings files and versioned model
  snapshot directories (``ShoalModel.save``/``load``,
  ``ShoalService.from_snapshot``). A snapshot is also the maintainer's
  restart point: ``IncrementalShoal.from_model`` plus a WAL replay.
"""

from repro.store.tables import Column, ColumnarTable, Schema
from repro.store.querylog import QueryLogStore, QueryLogStoreConfig
from repro.store.persistence import (
    load_embeddings,
    load_entity_categories,
    load_model,
    load_taxonomy,
    read_manifest,
    save_embeddings,
    save_model,
    save_taxonomy,
    taxonomy_to_dict,
    taxonomy_from_dict,
)

__all__ = [
    "Column",
    "Schema",
    "ColumnarTable",
    "QueryLogStore",
    "QueryLogStoreConfig",
    "save_taxonomy",
    "load_taxonomy",
    "save_embeddings",
    "load_embeddings",
    "taxonomy_to_dict",
    "taxonomy_from_dict",
    "save_model",
    "load_model",
    "load_entity_categories",
    "read_manifest",
]
