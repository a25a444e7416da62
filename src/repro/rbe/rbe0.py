"""The tractable subclass RBE0 and its polynomial membership test.

RBE0 (Section 2) is the class of expressions of the form::

    a1^M1 || a2^M2 || ... || an^Mn

where every ``ai`` is a symbol and every ``Mi`` is a *basic* interval
(``1 ? + *``).  Symbols may repeat (``a || a+ || b*`` is RBE0).  Schemas whose
type definitions are all RBE0 correspond exactly to shape graphs
(Proposition 3.2) and have tractable validation.

Membership for RBE0 is polynomial: for each symbol the multiplicities assigned
to its atoms only need to sum to the observed count, and because occurrence
intervals are contiguous the Minkowski sum of the atom intervals is again a
contiguous interval, so a per-symbol inclusion check suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from repro.core.intervals import Interval, ONE, ZERO
from repro.rbe.ast import (
    RBE,
    Concatenation,
    Epsilon,
    Repetition,
    SymbolAtom,
)

if TYPE_CHECKING:
    from repro.core.bags import Bag

Symbol = Hashable


@dataclass(frozen=True)
class RBE0Profile:
    """The flattened form of an RBE0 expression: a tuple of ``(symbol, interval)`` atoms."""

    atoms: Tuple[Tuple[Symbol, Interval], ...]

    @property
    def alphabet(self) -> frozenset:
        return frozenset(symbol for symbol, _ in self.atoms)

    def per_symbol_interval(self) -> Dict[Symbol, Interval]:
        """Map each symbol to the ⊕-sum of the intervals of its atoms.

        This is the admissible range of occurrences of the symbol in a matching
        bag, and is the quantity shape graphs record on their edges.
        """
        summed: Dict[Symbol, Interval] = {}
        for symbol, interval in self.atoms:
            summed[symbol] = summed.get(symbol, ZERO) + interval
        return summed

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)


def as_rbe0(expr: RBE, require_basic: bool = True) -> Optional[RBE0Profile]:
    """Flatten ``expr`` into an :class:`RBE0Profile`, or return ``None``.

    ``expr`` qualifies when it is ε, a single (possibly repeated) symbol, or an
    unordered concatenation of such factors.  With ``require_basic=True``
    (the default, matching the paper's definition) every repetition interval
    must be basic; pass ``False`` to accept arbitrary intervals, which is the
    flattened form used by graphs with arbitrary occurrence intervals.
    """
    atoms: List[Tuple[Symbol, Interval]] = []
    stack: List[RBE] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Epsilon):
            continue
        if isinstance(node, Concatenation):
            stack.extend(reversed(node.operands))
            continue
        if isinstance(node, SymbolAtom):
            atoms.append((node.symbol, ONE))
            continue
        if isinstance(node, Repetition) and isinstance(node.operand, SymbolAtom):
            interval = node.interval
            if require_basic and not interval.is_basic:
                return None
            atoms.append((node.operand.symbol, interval))
            continue
        return None
    return RBE0Profile(tuple(atoms))


def is_rbe0(expr: RBE, require_basic: bool = True) -> bool:
    """True when ``expr`` belongs to the class RBE0."""
    return as_rbe0(expr, require_basic=require_basic) is not None


def rbe0_matches(profile: RBE0Profile, bag: Bag) -> bool:
    """Polynomial membership test for RBE0 (Section 2 / [15]).

    A bag matches iff every symbol it contains is mentioned by the profile and,
    for every symbol, the observed count lies in the ⊕-sum of the intervals of
    the atoms carrying that symbol.
    """
    summed = profile.per_symbol_interval()
    for symbol in bag.support():
        if symbol not in summed:
            return False
    for symbol, interval in summed.items():
        if bag.count(symbol) not in interval:
            return False
    return True


def rbe0_bag_interval(profile: RBE0Profile, symbol: Symbol) -> Interval:
    """The admissible occurrence interval of ``symbol`` according to ``profile``."""
    return profile.per_symbol_interval().get(symbol, ZERO)


def profile_to_rbe(profile: RBE0Profile) -> RBE:
    """Rebuild an RBE expression from a profile (inverse of :func:`as_rbe0`)."""
    from repro.rbe.ast import concat

    factors: List[RBE] = []
    for symbol, interval in profile.atoms:
        atom_expr: RBE = SymbolAtom(symbol)
        if interval != ONE:
            atom_expr = Repetition(atom_expr, interval)
        factors.append(atom_expr)
    return concat(*factors)
