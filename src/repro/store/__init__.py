"""Storage layer.

:mod:`repro.store.persistence` — pickle-free serialisation of fitted
artifacts: standalone taxonomy/embeddings files and versioned model
snapshot directories (``ShoalModel.save``/``load``,
``ShoalService.from_snapshot``). A snapshot is also the maintainer's
restart point: ``IncrementalShoal.from_model`` plus a WAL replay into
the snapshot's click window (``load_window``). The window itself is
:class:`repro.graph.window.ClickWindow`.
"""

from repro.store.persistence import (
    load_embeddings,
    load_entity_categories,
    load_model,
    load_taxonomy,
    load_window,
    read_manifest,
    save_embeddings,
    save_model,
    save_taxonomy,
    taxonomy_to_dict,
    taxonomy_from_dict,
)

__all__ = [
    "save_taxonomy",
    "load_taxonomy",
    "save_embeddings",
    "load_embeddings",
    "taxonomy_to_dict",
    "taxonomy_from_dict",
    "save_model",
    "load_model",
    "load_entity_categories",
    "load_window",
    "read_manifest",
]
