"""Structure-preserving k-community detection for heterogeneous multilayer
networks: per-layer community detection, weighted community bipartite
graphs, maximal-flow composition, and a small specification language.
"""

from .cbg import (
    CommunityBipartiteGraph,
    MetaEdge,
    build_cbg,
    cbg_to_tsv,
    crossing_pairs,
    weight_d,
    weight_e,
    weight_h,
)
from .community import (
    CommunityId,
    CommunitySummary,
    Membership,
    detect_communities,
    load_membership,
    summarize,
)
from .engine import (
    KCommunityResult,
    KTuple,
    classify,
    detect_k_community,
    diagnostics_tsv,
    rank,
    select_u,
    to_jsonl,
    format_tuples,
)
from .kspec import Composition, KSpec, parse_spec, render, validate_spec
from .matching import MatchedPairs, max_flow_match
from .model import MLN, InterLayerEdges, LayerGraph

__version__ = "0.1.0"

__all__ = [
    "MLN",
    "LayerGraph",
    "InterLayerEdges",
    "CommunityId",
    "CommunitySummary",
    "Membership",
    "detect_communities",
    "load_membership",
    "summarize",
    "CommunityBipartiteGraph",
    "MetaEdge",
    "build_cbg",
    "cbg_to_tsv",
    "crossing_pairs",
    "weight_e",
    "weight_d",
    "weight_h",
    "MatchedPairs",
    "max_flow_match",
    "KSpec",
    "Composition",
    "parse_spec",
    "validate_spec",
    "render",
    "KTuple",
    "KCommunityResult",
    "detect_k_community",
    "select_u",
    "classify",
    "rank",
    "format_tuples",
    "to_jsonl",
    "diagnostics_tsv",
]
