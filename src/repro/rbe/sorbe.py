"""Single-occurrence regular bag expressions (SORBE).

A SORBE is an RBE in which every symbol occurs at most once syntactically.
SORBE have tractable membership and give rise to deterministic shape expression
schemas (DetShEx) — see Section 1 of the paper and [15].  The containment
algorithms in this library only need the class membership test; membership of
bags in SORBE languages is handled by the generic machinery (which is efficient
on single-occurrence expressions because no splitting choices arise).
"""

from __future__ import annotations

from collections import Counter

from repro.rbe.ast import RBE


def is_sorbe(expr: RBE) -> bool:
    """True when no symbol occurs more than once in the expression tree."""
    occurrences = Counter(expr.symbol_occurrences())
    return all(count <= 1 for count in occurrences.values())

