"""Core value types shared by the whole library: intervals and bags."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.intervals": (
        "Interval",
        "ZERO",
        "ONE",
        "OPT",
        "PLUS",
        "STAR",
        "BASIC_INTERVALS",
        "interval_sum",
    ),
    "repro.core.bags": ("Bag",),
})
