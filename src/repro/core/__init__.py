"""Core DomainNet: bipartite graph, centrality measures, ranking."""

from .approx import riondato_kornaropoulos_bc, sample_size_bound
from .betweenness import betweenness_score_map, betweenness_scores
from .builder import build_graph, build_graph_from_columns
from .confusables import SkeletonIndex, skeleton
from .communities import (
    MeaningEstimate,
    estimate_all_meanings,
    estimate_meanings,
)
from .errors import HomographClassification, classify_homographs
from .graph import BipartiteGraph, GraphError
from .label_propagation import (
    attribute_community_map,
    communities,
    cross_community_values,
    value_communities,
)
from .lcc import lcc_score_map, lcc_scores
from .normalize import normalize_column, normalize_value
from .ranking import (
    HomographRanking,
    RankedValue,
    RankingPage,
    format_ranking,
    rank_by_betweenness,
    rank_by_lcc,
)

__all__ = [
    "BipartiteGraph",
    "GraphError",
    "HomographClassification",
    "HomographRanking",
    "MeaningEstimate",
    "RankedValue",
    "RankingPage",
    "SkeletonIndex",
    "attribute_community_map",
    "betweenness_score_map",
    "betweenness_scores",
    "build_graph",
    "build_graph_from_columns",
    "classify_homographs",
    "communities",
    "cross_community_values",
    "estimate_all_meanings",
    "estimate_meanings",
    "format_ranking",
    "lcc_score_map",
    "lcc_scores",
    "normalize_column",
    "normalize_value",
    "rank_by_betweenness",
    "rank_by_lcc",
    "riondato_kornaropoulos_bc",
    "sample_size_bound",
    "skeleton",
    "value_communities",
]
