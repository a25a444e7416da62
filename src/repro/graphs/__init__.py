"""Graph models: general graphs, simple graphs (RDF abstraction), shape graphs, compressed graphs."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.graphs.graph": ("Edge", "Graph"),
    "repro.graphs.simple": ("simple_graph_from_triples", "assert_simple", "is_simple"),
    "repro.graphs.shape": (
        "is_shape_graph",
        "assert_shape_graph",
        "is_deterministic_shape_graph",
        "star_closed_references",
        "is_detshex0_minus_graph",
    ),
    "repro.graphs.compressed": ("CompressedGraph", "pack_simple_graph"),
    "repro.graphs.scc": (
        "backward_closure",
        "condensation_order",
        "strongly_connected_components",
    ),
    "repro.graphs.store": ("Delta", "GraphStore", "KindView", "kind_compress", "kind_partition"),
})
