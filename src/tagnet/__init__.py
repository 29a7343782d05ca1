"""Collaborative-tagging network analytics.

Represents user-item-tag data as a weighted tripartite network, projects it
to cosine-correlation matrices, extracts hierarchical island trees by
threshold percolation, and measures taste diversity over tag spectra.
"""

from .model import (
    ITEM,
    TAG,
    USER,
    DataError,
    DegreeStats,
    EntityRegistry,
    TaggingEvent,
    TripartiteNetwork,
    Triples,
    UnknownEntityError,
    build_network,
    degree_stats,
)
from .projection import (
    CorrelationMatrix,
    SignatureVector,
    correlation_matrix,
    cosine,
    item_tag_signature,
    item_user_signature,
    signature_for_view,
    tag_item_signature,
    top_n,
    user_item_signature,
)
from .percolation import (
    FilterGrid,
    Island,
    IslandTree,
    build_tree,
    characteristic_element,
    components,
    filter_edges,
)
from .diversity import (
    ActivityReport,
    IslandActivity,
    SineMatrix,
    TagSpectrum,
    activity_color,
    diversity,
    entropy,
    island_activity,
    pairwise_distance,
    sine_matrix,
    tag_spectrum,
)
from .io import (
    read_matrix,
    read_triples,
    write_matrix,
    write_tree_dot,
    write_tree_json,
    write_triples,
)
from .synth import PlantedConfig, generate, load_config, pair_agreement

__version__ = "0.1.0"

__all__ = [
    "ActivityReport",
    "CorrelationMatrix",
    "DataError",
    "DegreeStats",
    "EntityRegistry",
    "FilterGrid",
    "Island",
    "IslandActivity",
    "IslandTree",
    "ITEM",
    "PlantedConfig",
    "SignatureVector",
    "SineMatrix",
    "TAG",
    "TaggingEvent",
    "TagSpectrum",
    "TripartiteNetwork",
    "Triples",
    "USER",
    "UnknownEntityError",
    "activity_color",
    "build_network",
    "build_tree",
    "characteristic_element",
    "components",
    "correlation_matrix",
    "cosine",
    "degree_stats",
    "diversity",
    "entropy",
    "filter_edges",
    "generate",
    "island_activity",
    "item_tag_signature",
    "item_user_signature",
    "load_config",
    "pair_agreement",
    "pairwise_distance",
    "read_matrix",
    "read_triples",
    "signature_for_view",
    "sine_matrix",
    "tag_item_signature",
    "tag_spectrum",
    "top_n",
    "user_item_signature",
    "write_matrix",
    "write_tree_dot",
    "write_tree_json",
    "write_triples",
]
