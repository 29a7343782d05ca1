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
    EntityRegistry,
    TaggingEvent,
    TripartiteNetwork,
    Triples,
    UnknownEntityError,
    build_network,
)
from .projection import (
    CorrelationMatrix,
    SignatureVector,
    correlation_matrix,
    cosine,
    signature_for_view,
    top_n,
    user_item_signature,
)
from .percolation import (
    FilterGrid,
    Island,
    IslandTree,
    build_tree,
)
from .diversity import (
    ActivityReport,
    IslandActivity,
    SineMatrix,
    TagSpectrum,
    activity_color,
    entropy,
    island_activity,
    pairwise_distance,
    sine_matrix,
    tag_spectrum,
)
from .io import (
    read_triples,
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
    "correlation_matrix",
    "cosine",
    "entropy",
    "generate",
    "island_activity",
    "load_config",
    "pair_agreement",
    "pairwise_distance",
    "read_triples",
    "signature_for_view",
    "sine_matrix",
    "tag_spectrum",
    "top_n",
    "user_item_signature",
    "write_tree_dot",
    "write_tree_json",
    "write_triples",
]
