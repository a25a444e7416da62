"""Abstract syntax of regular bag expressions (RBE), Section 2 of the paper.

The grammar is::

    E ::= ε | a | (E | E) | (E || E) | E^I

where ``a`` ranges over an alphabet of symbols and ``I`` over occurrence
intervals.  Semantics (bag languages):

* ``L(ε) = {ε}`` — the language containing only the empty bag,
* ``L(a) = {{|a|}}``,
* ``L(E1 | E2) = L(E1) ∪ L(E2)`` — disjunction,
* ``L(E1 || E2) = L(E1) ⊎ L(E2)`` — unordered concatenation (bag union of languages),
* ``L(E^I) = ⋃_{i ∈ I} L(E)^i`` — unordered repetition.

The paper additionally uses intersection ``E1 ∩ E2`` when encoding validation in
Presburger arithmetic (Section 6.1); we support it as a first-class node.

Symbols are arbitrary hashable values.  Plain RBEs over predicate names use
strings; *shape expressions* are RBEs over ``Σ × Γ`` and use ``(label, type)``
pairs — the helper :func:`repro.rbe.ast.atom` builds either form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Hashable, Iterator, Optional, Tuple

from repro.core.intervals import Interval, ONE, ZERO

Symbol = Hashable


class RBE:
    """Base class for regular bag expression nodes.

    Expression objects are immutable; structural equality and hashing are
    provided by the dataclass machinery of each node type.
    """

    __slots__ = ()

    def __reduce__(self):
        # Frozen dataclasses with manual __slots__ cannot use pickle's default
        # state protocol (__setstate__ would assign to frozen fields); rebuild
        # through the constructor instead so expressions can cross process
        # boundaries (the engine's multiprocessing backend relies on this).
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))

    # -- structural queries ------------------------------------------------
    def children(self) -> Tuple["RBE", ...]:
        """Immediate sub-expressions."""
        return ()

    def iter_nodes(self) -> Iterator["RBE"]:
        """Pre-order traversal of all nodes of the expression tree."""
        yield self
        for child in self.children():
            yield from child.iter_nodes()

    def size(self) -> int:
        """Number of nodes of the expression tree (a syntactic size measure)."""
        return sum(1 for _ in self.iter_nodes())

    def alphabet(self) -> FrozenSet[Symbol]:
        """The set of symbols occurring in the expression."""
        return frozenset(
            node.symbol for node in self.iter_nodes() if isinstance(node, SymbolAtom)
        )

    def symbol_occurrences(self) -> Tuple[Symbol, ...]:
        """All symbol occurrences in syntactic order (with repetitions)."""
        return tuple(
            node.symbol for node in self.iter_nodes() if isinstance(node, SymbolAtom)
        )

    # -- semantic helpers ----------------------------------------------------
    def nullable(self) -> bool:
        """True when the empty bag ε belongs to the language."""
        raise NotImplementedError

    def size_interval(self) -> Interval:
        """An interval containing the possible total sizes of bags in the language.

        The bound is exact for expressions without intersection; for
        intersection nodes it is the intersection of the operand bounds
        (an over-approximation of the true size set, which is sufficient for
        the pruning purposes it is used for).
        """
        raise NotImplementedError

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> "RBE":
        """A copy of the expression with every symbol replaced by ``fn(symbol)``."""
        raise NotImplementedError

    def rename_types(self, fn: Callable[[Hashable], Hashable]) -> "RBE":
        """For shape expressions over ``(label, type)`` pairs, rename the type part."""
        def rename(symbol: Symbol) -> Symbol:
            if isinstance(symbol, tuple) and len(symbol) == 2:
                return (symbol[0], fn(symbol[1]))
            return symbol

        return self.map_symbols(rename)

    # -- operator sugar -------------------------------------------------------
    def __or__(self, other: "RBE") -> "RBE":
        """Disjunction ``E1 | E2``."""
        return Disjunction((self, other))

    def __and__(self, other: "RBE") -> "RBE":
        """Intersection ``E1 ∩ E2``."""
        return Intersection((self, other))

    def __matmul__(self, other: "RBE") -> "RBE":
        """Unordered concatenation ``E1 || E2`` (spelled ``E1 @ E2`` in Python)."""
        return Concatenation((self, other))

    def repeat(self, interval) -> "RBE":
        """Unordered repetition ``E^I``."""
        return Repetition(self, Interval.of(interval))

    def opt(self) -> "RBE":
        """Shorthand for ``E^?``."""
        return self.repeat("?")

    def star(self) -> "RBE":
        """Shorthand for ``E^*``."""
        return self.repeat("*")

    def plus(self) -> "RBE":
        """Shorthand for ``E^+``."""
        return self.repeat("+")


@dataclass(frozen=True)
class Epsilon(RBE):
    """The expression ε whose language is the singleton ``{ε}``."""

    __slots__ = ()

    def nullable(self) -> bool:
        return True

    def size_interval(self) -> Interval:
        return ZERO

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> "RBE":
        return self

    def __str__(self) -> str:
        return "eps"


@dataclass(frozen=True)
class SymbolAtom(RBE):
    """A single symbol ``a`` whose language is ``{{|a|}}``."""

    symbol: Symbol

    __slots__ = ("symbol",)

    def nullable(self) -> bool:
        return False

    def size_interval(self) -> Interval:
        return ONE

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> "RBE":
        return SymbolAtom(fn(self.symbol))

    def __str__(self) -> str:
        if isinstance(self.symbol, tuple) and len(self.symbol) == 2:
            return f"{self.symbol[0]}::{self.symbol[1]}"
        return str(self.symbol)


@dataclass(frozen=True)
class Disjunction(RBE):
    """Disjunction ``E1 | ... | Ek`` — union of the operand languages."""

    operands: Tuple[RBE, ...]

    __slots__ = ("operands",)

    def __post_init__(self):
        if len(self.operands) < 1:
            raise ValueError("disjunction requires at least one operand")

    def children(self) -> Tuple[RBE, ...]:
        return self.operands

    def nullable(self) -> bool:
        return any(op.nullable() for op in self.operands)

    def size_interval(self) -> Interval:
        intervals = [op.size_interval() for op in self.operands]
        lower = min(i.lower for i in intervals)
        uppers = [i.upper for i in intervals]
        upper = None if any(u is None for u in uppers) else max(uppers)
        return Interval(lower, upper)

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> "RBE":
        return Disjunction(tuple(op.map_symbols(fn) for op in self.operands))

    def __str__(self) -> str:
        return "(" + " | ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Concatenation(RBE):
    """Unordered concatenation ``E1 || ... || Ek`` — bag union of the operand languages."""

    operands: Tuple[RBE, ...]

    __slots__ = ("operands",)

    def __post_init__(self):
        if len(self.operands) < 1:
            raise ValueError("concatenation requires at least one operand")

    def children(self) -> Tuple[RBE, ...]:
        return self.operands

    def nullable(self) -> bool:
        return all(op.nullable() for op in self.operands)

    def size_interval(self) -> Interval:
        total = ZERO
        for op in self.operands:
            total = total + op.size_interval()
        return total

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> "RBE":
        return Concatenation(tuple(op.map_symbols(fn) for op in self.operands))

    def __str__(self) -> str:
        return "(" + " || ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Repetition(RBE):
    """Unordered repetition ``E^I`` for an occurrence interval ``I``."""

    operand: RBE
    interval: Interval

    __slots__ = ("operand", "interval")

    def children(self) -> Tuple[RBE, ...]:
        return (self.operand,)

    def nullable(self) -> bool:
        return self.interval.lower == 0 or self.operand.nullable()

    def size_interval(self) -> Interval:
        return self.operand.size_interval().scale(self.interval)

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> "RBE":
        return Repetition(self.operand.map_symbols(fn), self.interval)

    def __str__(self) -> str:
        short = self.interval.shorthand()
        suffix = short if short is not None else str(self.interval)
        if short == "1":
            suffix = "^1"
        elif short is not None:
            pass
        operand = str(self.operand)
        if isinstance(self.operand, (SymbolAtom, Epsilon)):
            return f"{operand}{suffix if short in ('?', '+', '*') else '^' + str(self.interval)}"
        return f"({operand})^{self.interval}"


@dataclass(frozen=True)
class Intersection(RBE):
    """Intersection ``E1 ∩ E2`` (used by the Presburger encoding of Section 6.1)."""

    operands: Tuple[RBE, ...]

    __slots__ = ("operands",)

    def __post_init__(self):
        if len(self.operands) < 1:
            raise ValueError("intersection requires at least one operand")

    def children(self) -> Tuple[RBE, ...]:
        return self.operands

    def nullable(self) -> bool:
        return all(op.nullable() for op in self.operands)

    def size_interval(self) -> Interval:
        intervals = [op.size_interval() for op in self.operands]
        lower = max(i.lower for i in intervals)
        uppers = [i.upper for i in intervals if i.upper is not None]
        upper = min(uppers) if uppers else None
        if upper is not None and lower > upper:
            # Empty over-approximation; callers treat it as "no bag fits".
            return ZERO
        return Interval(lower, upper)

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> "RBE":
        return Intersection(tuple(op.map_symbols(fn) for op in self.operands))

    def __str__(self) -> str:
        return "(" + " & ".join(str(op) for op in self.operands) + ")"


#: The shared ε expression.
EPSILON = Epsilon()


# --------------------------------------------------------------------------- #
# Construction helpers
# --------------------------------------------------------------------------- #
def atom(label: Symbol, type_name: Optional[Hashable] = None, interval=None) -> RBE:
    """Build an atomic expression, optionally typed and repeated.

    ``atom("a")`` is the symbol ``a``; ``atom("a", "t")`` is the shape-expression
    symbol ``a::t``; a non-``None`` ``interval`` wraps the atom in a repetition,
    e.g. ``atom("a", "t", "*")`` is ``a::t*``.
    """
    symbol = label if type_name is None else (label, type_name)
    expr: RBE = SymbolAtom(symbol)
    if interval is not None:
        expr = Repetition(expr, Interval.of(interval))
    return expr


def concat(*operands: RBE) -> RBE:
    """Unordered concatenation of any number of expressions (ε when empty)."""
    flat = []
    for op in operands:
        if isinstance(op, Concatenation):
            flat.extend(op.operands)
        elif isinstance(op, Epsilon):
            continue
        else:
            flat.append(op)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concatenation(tuple(flat))


def disj(*operands: RBE) -> RBE:
    """Disjunction of any number of expressions."""
    if not operands:
        raise ValueError("disjunction of zero operands is undefined")
    flat = []
    for op in operands:
        if isinstance(op, Disjunction):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if len(flat) == 1:
        return flat[0]
    return Disjunction(tuple(flat))

