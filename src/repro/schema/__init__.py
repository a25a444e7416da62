"""Shape expression schemas: objects, parsing, classes, conversion, and validation."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.schema.shex": ("ShExSchema",),
    "repro.schema.parser": ("parse_schema",),
    "repro.schema.classes": (
        "SchemaClass",
        "schema_class",
        "is_shex0",
        "is_deterministic",
        "is_detshex0",
        "is_detshex0_minus",
    ),
    "repro.schema.convert": ("schema_to_shape_graph", "shape_graph_to_schema"),
    "repro.schema.typing": ("Typing", "maximal_typing", "is_valid_typing", "satisfies_type"),
    "repro.schema.validation": (
        "satisfies",
        "satisfies_compressed",
        "ValidationReport",
        "validate",
    ),
})
