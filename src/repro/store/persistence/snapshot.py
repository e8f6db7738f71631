"""Versioned model snapshots: the offline-fit → online-serving handoff.

A *snapshot* is a directory holding every artifact of a fitted
:class:`~repro.core.pipeline.ShoalModel`, in formats a serving fleet
can load without refitting and an operator can inspect without Python:

============================ ==================================================
``MANIFEST.json``            kind, format version, artifact list, counts,
                             stage timings — written **last**, so a readable
                             manifest implies a complete snapshot
``config.json``              the full :class:`ShoalConfig` (nested stage
                             configs included)
``taxonomy.json``            topics with hierarchy, categories, descriptions
``embeddings.npz``           word vectors + vocabulary (fixed-width unicode)
``entity_graph.npz``         item entity graph vertices + weighted edges
``clustering.npz``           dendrogram merges + per-round HAC statistics
``correlations.json``        thresholded category-correlation pairs
``texts.json``               entity titles and query texts
``entity_categories.json``   *(optional)* authoritative entity → category map
``window.npz``               *(optional)* per-day click counts of the fitted
                             window — what a restarted maintainer resumes
                             from (:func:`load_window`)
============================ ==================================================

A read tier loads only the manifest, taxonomy, correlations, texts and
sidecar (:func:`load_serving`); a cluster shard holds only those
(:func:`save_serving`). The rest is fit-side (:func:`load_model`): a
restarted fold reads the config, embeddings and window, and ``cli
evaluate --load`` the entity graph and clustering.

Every file has a reader. A snapshot keeps neither the bipartite click
graph (``window.graph(config.min_clicks)`` rebuilds it exactly from the
saved window) nor the topics' scored description lists (the taxonomy
keeps the description texts readers see): a loaded
:class:`~repro.core.pipeline.ShoalModel` has ``bipartite`` and
``descriptions`` set to None. Snapshots an older build wrote with those
two files still load, and a save over one removes them.

JSON for inspectable structures, NPZ for arrays, **no pickle
anywhere** — every array is numeric or fixed-width unicode, and every
JSON file is standard JSON (``allow_nan=False``). Loading validates the
manifest's kind and ``format_version`` before touching any artifact.

:func:`snapshot_fingerprint` hashes the answer-shaping artifacts of a
snapshot directory. A replication feed's generation index carries it,
followers compare against it, and byte-identity checks of a fit rewrite
diff it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.clustering.dendrogram import Dendrogram, Merge
from repro.clustering.parallel_hac import (
    ParallelHACConfig,
    ParallelHACResult,
    RoundStats,
)
from repro.core.config import ShoalConfig
from repro.core.correlation import CategoryCorrelationConfig, CorrelationGraph
from repro.core.descriptions import DescriptionConfig
from repro.core.pipeline import ShoalModel
from repro.core.serving import ServingModel
from repro.graph.entity_graph import EntityGraphConfig
from repro.graph.sparse import SparseGraph
from repro.graph.window import ClickWindow
from repro.text.bm25 import BM25Config
from repro.text.word2vec import Word2VecConfig

from repro.store.persistence.artifacts import (
    _finite,
    load_embeddings,
    load_taxonomy,
    save_embeddings,
    save_taxonomy,
)

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "MODEL_SNAPSHOT_KIND",
    "config_to_dict",
    "config_from_dict",
    "save_model",
    "save_serving",
    "load_model",
    "load_serving",
    "load_entity_categories",
    "load_window",
    "read_manifest",
    "check_manifest",
    "snapshot_fingerprint",
    "whole_fingerprint",
    "load_serving_verified",
]

SNAPSHOT_FORMAT_VERSION = 1
MODEL_SNAPSHOT_KIND = "shoal-model"

_MANIFEST = "MANIFEST.json"
_WINDOW = "window.npz"
_SIDECAR = "entity_categories.json"

#: Fit-side artifacts: a read tier loads none of them.
_FIT_ARTIFACTS = (
    "config.json",
    "embeddings.npz",
    "entity_graph.npz",
    "clustering.npz",
)

#: Files older builds wrote that nothing read: never written, never
#: loaded, and removed when a save lands on a directory holding them.
_RETIRED_ARTIFACTS = ("bipartite.npz", "descriptions.json")

#: Snapshot artifacts are flat files directly inside the directory.
_SKIP_SUFFIXES = (".tmp",)

#: Files excluded from the answer-surface fingerprint. The manifest
#: embeds wall-clock ``stage_seconds``, so it differs between a primary
#: and a follower that rebuilt the *same* model; every artifact that
#: actually shapes answers is fingerprinted.
_FINGERPRINT_EXCLUDE = frozenset({_MANIFEST})


# -- small shared helpers ----------------------------------------------------


def write_json(path: Path, payload: Dict) -> None:
    with path.open("w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True, allow_nan=False)


def read_json(path: Path) -> Dict:
    with path.open("r", encoding="utf-8") as f:
        return json.load(f)


def read_manifest(directory: Union[str, Path]) -> Dict:
    """Read a snapshot directory's manifest (error if absent)."""
    p = Path(directory) / _MANIFEST
    if not p.is_file():
        raise FileNotFoundError(
            f"no snapshot manifest at {p} — not a snapshot directory, "
            "or the snapshot write was interrupted before completion"
        )
    return read_json(p)


def check_manifest(manifest: Dict, expected_kind: str) -> None:
    """Validate a manifest's kind and format version before loading."""
    kind = manifest.get("kind")
    if kind != expected_kind:
        raise ValueError(
            f"snapshot kind {kind!r} does not match expected "
            f"{expected_kind!r}"
        )
    version = manifest.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot format version {version!r} "
            f"(this build reads version {SNAPSHOT_FORMAT_VERSION})"
        )


# -- config ------------------------------------------------------------------


def config_to_dict(config: ShoalConfig) -> Dict:
    """Serialise a :class:`ShoalConfig` (nested stage configs included)."""
    import dataclasses

    return dataclasses.asdict(config)


def config_from_dict(payload: Dict) -> ShoalConfig:
    """Inverse of :func:`config_to_dict`; strict about field names."""
    desc = dict(payload["descriptions"])
    desc["bm25"] = BM25Config(**desc["bm25"])
    return ShoalConfig(
        word2vec=Word2VecConfig(**payload["word2vec"]),
        entity_graph=EntityGraphConfig(**payload["entity_graph"]),
        clustering=ParallelHACConfig(**payload["clustering"]),
        descriptions=DescriptionConfig(**desc),
        correlation=CategoryCorrelationConfig(**payload["correlation"]),
        window_days=int(payload["window_days"]),
        min_clicks=int(payload["min_clicks"]),
        min_topic_size=int(payload["min_topic_size"]),
        seed=int(payload["seed"]),
    )


# -- entity graph ------------------------------------------------------------


def _save_sparse_graph(graph: SparseGraph, path: Path) -> None:
    us, vs, ws = graph.adjacency_arrays()
    np.savez_compressed(
        path,
        vertices=np.asarray(graph.vertices(), dtype=np.int64),
        edge_us=us,
        edge_vs=vs,
        edge_ws=ws,
    )


def _load_sparse_graph(path: Path) -> SparseGraph:
    graph = SparseGraph(0)
    with np.load(path) as z:
        for v in z["vertices"]:
            graph.add_vertex(int(v))
        for u, v, w in zip(z["edge_us"], z["edge_vs"], z["edge_ws"]):
            graph.set_edge(int(u), int(v), float(w))
    return graph


# -- clustering result (dendrogram + round stats) ----------------------------

_ROUND_FIELDS = (
    "round_index",
    "live_clusters",
    "live_edges",
    "local_maximal_edges",
    "merges",
    "supersteps",
    "messages",
    "remote_messages",
)


def _save_clustering(result: ParallelHACResult, path: Path) -> None:
    merges = result.dendrogram.merges
    arrays = {
        "vertex_ids": np.asarray(result.dendrogram.vertex_ids, dtype=np.int64),
        "merge_ids": np.asarray([m.merged_id for m in merges], dtype=np.int64),
        "merge_child_a": np.asarray([m.child_a for m in merges], dtype=np.int64),
        "merge_child_b": np.asarray([m.child_b for m in merges], dtype=np.int64),
        "merge_similarity": np.asarray(
            [m.similarity for m in merges], dtype=np.float64
        ),
        "merge_round": np.asarray(
            [m.round_index for m in merges], dtype=np.int64
        ),
    }
    for name in _ROUND_FIELDS:
        arrays[f"round_{name}"] = np.asarray(
            [getattr(r, name) for r in result.rounds], dtype=np.int64
        )
    np.savez_compressed(path, **arrays)


def _load_clustering(path: Path) -> ParallelHACResult:
    with np.load(path) as z:
        dendrogram = Dendrogram([int(v) for v in z["vertex_ids"]])
        # Merges are recorded in chronological order, so children always
        # exist by the time their parent merge replays.
        for mid, a, b, sim, rnd in zip(
            z["merge_ids"],
            z["merge_child_a"],
            z["merge_child_b"],
            z["merge_similarity"],
            z["merge_round"],
        ):
            dendrogram.record_merge(
                Merge(int(mid), int(a), int(b), float(sim), int(rnd))
            )
        round_cols = {name: z[f"round_{name}"] for name in _ROUND_FIELDS}
        n_rounds = len(round_cols["round_index"])
        rounds = [
            RoundStats(
                **{name: int(round_cols[name][i]) for name in _ROUND_FIELDS}
            )
            for i in range(n_rounds)
        ]
    return ParallelHACResult(dendrogram=dendrogram, rounds=rounds)


# -- correlations ------------------------------------------------------------


def _correlations_to_dict(graph: CorrelationGraph) -> Dict:
    return {
        "min_strength": graph.min_strength,
        "pairs": [[a, b, s] for a, b, s in graph.pairs()],
    }


def _correlations_from_dict(payload: Dict) -> CorrelationGraph:
    strengths: Dict[Tuple[int, int], int] = {
        (int(a), int(b)): int(s) for a, b, s in payload.get("pairs", [])
    }
    return CorrelationGraph(strengths, int(payload["min_strength"]))


# -- the model snapshot ------------------------------------------------------


def save_model(
    model: ShoalModel,
    directory: Union[str, Path],
    *,
    entity_categories: Optional[Dict[int, int]] = None,
    metadata: Optional[Dict] = None,
) -> Path:
    """Write every artifact of ``model`` into a snapshot directory.

    ``entity_categories`` optionally persists the authoritative
    entity → category map (the pipeline's catalog knowledge), which
    :func:`load_serving` hands the read tier so scenario C filters
    exactly as in the fitting process.
    ``metadata`` is an arbitrary JSON-safe dict recorded in the
    manifest (the CLI stores the marketplace profile/seed there so
    ``--load`` can detect a mismatched world).

    The fit-only artifacts are written here, the serving files and the
    manifest by :func:`save_serving`. The manifest is written last (and
    any previous manifest removed first): a snapshot without a readable
    manifest must be treated as incomplete, so an interrupted overwrite
    never passes off a mix of old and new artifacts as a valid snapshot.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    # Invalidate any existing snapshot before touching its artifacts.
    (d / _MANIFEST).unlink(missing_ok=True)

    write_json(d / "config.json", config_to_dict(model.config))
    save_embeddings(model.embeddings, d / "embeddings.npz")
    _save_sparse_graph(model.entity_graph, d / "entity_graph.npz")
    _save_clustering(model.clustering, d / "clustering.npz")
    fit_artifacts = list(_FIT_ARTIFACTS)
    if model.window is not None:
        np.savez_compressed(d / _WINDOW, **model.window.columns())
        fit_artifacts.append(_WINDOW)
    return save_serving(
        model.serving(entity_categories),
        d,
        query_texts=model.query_texts,
        metadata=metadata,
        fit_artifacts=fit_artifacts,
        manifest={
            "counts": {
                "topics": len(model.taxonomy),
                "entities": model.entity_graph.n_vertices,
                "entity_edges": model.entity_graph.n_edges,
                "vocabulary": len(model.embeddings.vocabulary),
                "merges": model.clustering.dendrogram.n_merges,
            },
            "stage_seconds": {
                k: _finite(v) for k, v in model.stage_seconds.items()
            },
        },
    )


def save_serving(
    serving: ServingModel,
    directory: Union[str, Path],
    *,
    query_texts: Optional[Dict[int, str]] = None,
    metadata: Optional[Dict] = None,
    fit_artifacts: Sequence[str] = (),
    manifest: Optional[Dict] = None,
) -> Path:
    """Write a read tier's files and seal the directory with its manifest.

    On its own this writes a serving-only snapshot (a cluster shard):
    ``taxonomy.json``, ``correlations.json``, ``texts.json`` and the
    sidecar when ``serving`` carries an authoritative map.
    :func:`save_model` writes the fit-only artifacts first, names them
    in ``fit_artifacts`` and adds its ``manifest`` fields; fit artifacts,
    retired files or a sidecar a previous save left behind are removed.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / _MANIFEST).unlink(missing_ok=True)
    for name in (*_FIT_ARTIFACTS, _WINDOW, *_RETIRED_ARTIFACTS):
        if name not in fit_artifacts:
            (d / name).unlink(missing_ok=True)

    save_taxonomy(serving.taxonomy, d / "taxonomy.json")
    write_json(d / "correlations.json", _correlations_to_dict(serving.correlations))
    write_json(
        d / "texts.json",
        {
            "titles": {str(k): v for k, v in serving.titles.items()},
            "query_texts": {
                str(k): v for k, v in (query_texts or {}).items()
            },
        },
    )
    artifacts = [
        *fit_artifacts, "taxonomy.json", "correlations.json", "texts.json"
    ]
    if serving.entity_categories is not None:
        write_json(
            d / _SIDECAR,
            {str(k): int(v) for k, v in serving.entity_categories.items()},
        )
        artifacts.append(_SIDECAR)
    else:
        (d / _SIDECAR).unlink(missing_ok=True)

    write_json(
        d / _MANIFEST,
        {
            "kind": MODEL_SNAPSHOT_KIND,
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "artifacts": artifacts,
            "metadata": metadata or {},
            "counts": {"topics": len(serving.taxonomy)},
            **(manifest or {}),
        },
    )
    return d


def load_model(directory: Union[str, Path]) -> ShoalModel:
    """Reconstruct a :class:`ShoalModel` from a snapshot directory.

    Validates the manifest's kind and format version first; artifact
    files are then loaded with no pickle anywhere. A directory missing
    any fit-only artifact (a cluster shard, or a snapshot pruned to
    what readers load) is refused: open it with :func:`load_serving`.
    The model's ``bipartite`` and ``descriptions`` are None (the module
    docstring says why), and so is its ``window`` (:func:`load_window`
    reads it).
    """
    d = Path(directory)
    manifest = read_manifest(d)
    check_manifest(manifest, MODEL_SNAPSHOT_KIND)
    missing = [n for n in _FIT_ARTIFACTS if not (d / n).is_file()]
    if missing:
        raise FileNotFoundError(
            f"snapshot at {d} has no {', '.join(missing)}: it holds only "
            "serving files, which load_serving reads"
        )

    texts = read_json(d / "texts.json")
    return ShoalModel(
        config=config_from_dict(read_json(d / "config.json")),
        bipartite=None,
        embeddings=load_embeddings(d / "embeddings.npz"),
        entity_graph=_load_sparse_graph(d / "entity_graph.npz"),
        clustering=_load_clustering(d / "clustering.npz"),
        taxonomy=load_taxonomy(d / "taxonomy.json"),
        descriptions=None,
        correlations=_correlations_from_dict(read_json(d / "correlations.json")),
        titles={int(k): v for k, v in texts["titles"].items()},
        query_texts={int(k): v for k, v in texts["query_texts"].items()},
        stage_seconds=dict(manifest.get("stage_seconds", {})),
    )


def load_serving(directory: Union[str, Path]) -> ServingModel:
    """The read side of a snapshot: what a read tier is built from.

    Validates the manifest, then reads only ``taxonomy.json``,
    ``correlations.json``, ``texts.json`` and the manifest-listed
    entity → category sidecar; fit-only artifacts, present or not, are
    never touched. Works on a full model snapshot and on a cluster
    shard alike.
    """
    d = Path(directory)
    manifest = read_manifest(d)
    check_manifest(manifest, MODEL_SNAPSHOT_KIND)
    texts = read_json(d / "texts.json")
    return ServingModel(
        taxonomy=load_taxonomy(d / "taxonomy.json"),
        titles={int(k): v for k, v in texts["titles"].items()},
        correlations=_correlations_from_dict(read_json(d / "correlations.json")),
        entity_categories=load_entity_categories(d),
    )


def load_entity_categories(
    directory: Union[str, Path],
) -> Optional[Dict[int, int]]:
    """The snapshot's entity → category sidecar, or None if not saved.

    The manifest's artifact list is the authority: a stray file the
    manifest does not claim is ignored, and a claimed file that is gone
    is an error — serving the derived map instead would silently change
    scenario C and recommend answers.
    """
    d = Path(directory)
    if _SIDECAR not in read_manifest(d).get("artifacts", ()):
        return None
    p = d / _SIDECAR
    if not p.is_file():
        raise FileNotFoundError(
            f"snapshot at {d} lists {_SIDECAR} but the file is missing "
            "(torn snapshot); refusing to serve a derived category map"
        )
    return {int(k): int(v) for k, v in read_json(p).items()}


def load_window(directory: Union[str, Path]) -> ClickWindow:
    """The snapshot's click window, from ``window.npz`` and the manifest
    that lists it; no other artifact is read.

    A maintainer restarting from the snapshot needs it; serving never
    does. Raises ``FileNotFoundError`` for a snapshot that carries no
    window (the manifest's artifact list is the authority).
    """
    d = Path(directory)
    manifest = read_manifest(d)
    if _WINDOW not in manifest.get("artifacts", ()):
        raise FileNotFoundError(
            f"snapshot at {d} carries no click window ({_WINDOW}); refit "
            "and save it again to restart a maintainer from it"
        )
    with np.load(d / _WINDOW) as z:
        return ClickWindow.from_columns(z)


# -- fingerprint -------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _snapshot_files(directory: Union[str, Path]) -> List[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"snapshot directory not found: {directory}")
    return sorted(
        p
        for p in directory.iterdir()
        if p.is_file() and not p.name.endswith(_SKIP_SUFFIXES)
    )


def snapshot_fingerprint(directory: Union[str, Path]) -> str:
    """Content fingerprint of a snapshot directory.

    SHA-256 over the sorted ``name:sha256`` lines of every artifact.
    Two snapshots with the same fingerprint are byte-identical, so two
    followers reporting the same fingerprint will serve byte-identical
    answers — this is the quantity the epoch coordinator compares.
    """
    h = hashlib.sha256()
    for path in _snapshot_files(directory):
        if path.name in _FINGERPRINT_EXCLUDE:
            continue
        h.update(f"{path.name}:{_sha256_file(path)}\n".encode())
    return h.hexdigest()


def whole_fingerprint(directory: Union[str, Path]) -> Optional[str]:
    """:func:`snapshot_fingerprint` of a directory another process
    writes, or None while the directory, its manifest or a file the
    manifest lists is missing.

    Raises ``ValueError`` when the directory holds a file its manifest
    does not list: the manifest is not fingerprinted, yet it decides
    what :func:`load_serving` reads (the category sidecar).
    """
    directory = Path(directory)
    try:
        listed = set(read_manifest(directory).get("artifacts", ()))
        present = {
            p.name
            for p in directory.iterdir()
            if p.is_file() and p.name != _MANIFEST
        }
        if not listed <= present:
            return None
        fingerprint = snapshot_fingerprint(directory)
    except (OSError, ValueError):
        return None
    if listed != present:
        raise ValueError(
            f"{directory.name} holds {', '.join(sorted(present - listed))} "
            "that its manifest does not list"
        )
    return fingerprint


def load_serving_verified(
    directory: Union[str, Path], fingerprint: str
) -> ServingModel:
    """:func:`load_serving`, refused unless the directory's files are
    the ones ``fingerprint`` names — checked after the load, so the
    bytes served are the bytes checked. Raises ``ValueError``.
    """
    serving = load_serving(directory)
    if whole_fingerprint(directory) != fingerprint:
        raise ValueError(
            f"{Path(directory).name} changed since it was verified: its "
            f"files are not fingerprint {fingerprint[:12]}"
        )
    return serving
