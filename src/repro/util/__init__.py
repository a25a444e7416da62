"""Internal utilities shared by validation and embedding algorithms."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.util.assignment": ("feasible_assignment",),
})
