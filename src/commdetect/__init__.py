"""Community detection toolkit.

Four clustering algorithms over one plain graph type: agglomerative
hierarchical clustering on shared-neighbor distances, divisive clustering
by edge betweenness (iterative and static), multi-variant Louvain, and
greedy modularity agglomeration. A CLI exposes single runs, benchmark
sweeps, and plot-data export.
"""

from .agglomerative import (
    Dendrogram,
    HslSpec,
    Linkage,
    Merge,
    agglomerate,
    cut,
    euclidean_distance,
    neighbor_matrix,
)
from .fastgreedy import fastgreedy
from .girvan_newman import (
    edge_betweenness,
    girvan_newman,
    girvan_newman_static,
)
from .graph import (
    Graph,
    Partition,
    connected_components,
    karate_club,
    load_edge_list,
    modularity,
    random_graph,
    serialize_edge_list,
)
from .louvain import LouvainVariant, louvain

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Partition",
    "load_edge_list",
    "serialize_edge_list",
    "karate_club",
    "random_graph",
    "connected_components",
    "modularity",
    "neighbor_matrix",
    "Linkage",
    "Merge",
    "Dendrogram",
    "HslSpec",
    "euclidean_distance",
    "agglomerate",
    "cut",
    "edge_betweenness",
    "girvan_newman",
    "girvan_newman_static",
    "LouvainVariant",
    "louvain",
    "fastgreedy",
]
