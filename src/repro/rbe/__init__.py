"""Regular bag expressions (RBE) — syntax, parsing, classes, and membership."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.rbe.ast": (
        "RBE",
        "Epsilon",
        "SymbolAtom",
        "Disjunction",
        "Concatenation",
        "Repetition",
        "Intersection",
        "EPSILON",
        "atom",
        "concat",
        "disj",
    ),
    "repro.rbe.parser": ("parse_rbe",),
    "repro.rbe.membership": ("rbe_matches", "rbe_nonempty", "rbe_min_bag", "sample_bags"),
    "repro.rbe.rbe0": ("RBE0Profile", "as_rbe0", "is_rbe0", "rbe0_matches", "rbe0_bag_interval"),
    "repro.rbe.sorbe": ("is_sorbe",),
})
