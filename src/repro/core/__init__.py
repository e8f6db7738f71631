"""Core SHOAL: the paper's primary contribution, end to end.

* :mod:`repro.core.config` — one config object for the whole pipeline;
* :mod:`repro.core.taxonomy` — the hierarchical topic structure built
  from the Parallel HAC dendrogram (paper Fig. 1b);
* :mod:`repro.core.descriptions` — representative-query tagging of
  topics (Sec. 2.3: popularity × concentration, BM25);
* :mod:`repro.core.correlation` — ontology-category correlation mining
  over root topics (Sec. 2.4, Eq. 5);
* :mod:`repro.core.pipeline` — orchestration: query log → bipartite
  graph → embeddings → entity graph → Parallel HAC → taxonomy →
  descriptions → correlations;
* :mod:`repro.core.serving` — the four demo scenarios of Fig. 5.
"""

from repro.core.config import ShoalConfig
from repro.core.taxonomy import Taxonomy, Topic
from repro.core.descriptions import (
    DescriptionConfig,
    TopicDescriber,
    QueryScore,
)
from repro.core.correlation import (
    CategoryCorrelationConfig,
    CategoryCorrelationMiner,
    CorrelationGraph,
)
from repro.core.pipeline import ShoalPipeline, ShoalModel
from repro.core.serving import CategoryHit, ServingModel, ShoalService, TopicHit
from repro.core.incremental import IncrementalShoal, WindowUpdate
from repro.core.report import TaxonomyStats, compute_stats, render_tree, render_topic

__all__ = [
    "ShoalConfig",
    "Taxonomy",
    "Topic",
    "DescriptionConfig",
    "TopicDescriber",
    "QueryScore",
    "CategoryCorrelationConfig",
    "CategoryCorrelationMiner",
    "CorrelationGraph",
    "ShoalPipeline",
    "ShoalModel",
    "ShoalService",
    "ServingModel",
    "TopicHit",
    "CategoryHit",
    "IncrementalShoal",
    "WindowUpdate",
    "TaxonomyStats",
    "compute_stats",
    "render_tree",
    "render_topic",
]
