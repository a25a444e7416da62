"""Shape expression schemas (ShEx) as first-class objects.

A shape expression schema is a pair ``S = (Γ, δ)`` of a finite set of type
names and a *type definition* function mapping every type to a shape
expression: a regular bag expression over ``Σ × Γ`` whose symbols are written
``a :: t`` (predicate label ``a``, type ``t``).

The class below stores the rules, offers convenient construction (from RBE
objects or from rule text), and exposes the structural queries the containment
algorithms need (alphabet, referenced types).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.errors import SchemaSyntaxError
from repro.rbe.ast import EPSILON, RBE

TypeName = str
RuleSpec = Union[RBE, str]


class ShExSchema:
    """A shape expression schema: a set of types with one defining rule each."""

    def __init__(
        self,
        rules: Optional[Mapping[TypeName, RuleSpec]] = None,
        name: str = "",
        strict: bool = True,
    ):
        """Create a schema from a mapping ``type -> shape expression``.

        Rules given as strings are parsed with :func:`repro.rbe.parser.parse_rbe`.
        With ``strict=True`` (the default) every type referenced inside a rule
        must itself have a rule; this is the well-formedness condition the paper
        assumes throughout.
        """
        self.name = name
        self._rules: Dict[TypeName, RBE] = {}
        if rules:
            for type_name, spec in rules.items():
                self.add_rule(type_name, spec)
        if strict:
            self.check()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_rule(self, type_name: TypeName, spec: RuleSpec) -> None:
        """Add (or replace) the rule defining ``type_name``."""
        from repro.rbe.parser import parse_rbe

        expr = parse_rbe(spec) if isinstance(spec, str) else spec
        if not isinstance(expr, RBE):
            raise SchemaSyntaxError(f"rule for {type_name!r} is not a shape expression")
        self._rules[type_name] = expr

    def check(self) -> None:
        """Raise :class:`SchemaSyntaxError` when a referenced type has no rule."""
        undefined = sorted(self.referenced_types() - self.types)
        if undefined:
            raise SchemaSyntaxError(
                f"schema {self.name!r} references undefined type(s): {', '.join(undefined)}"
            )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def types(self) -> Set[TypeName]:
        """The set of type names Γ."""
        return set(self._rules)

    def definition(self, type_name: TypeName) -> RBE:
        """The shape expression δ(type_name)."""
        try:
            return self._rules[type_name]
        except KeyError as exc:
            raise SchemaSyntaxError(f"schema has no type {type_name!r}") from exc

    def rules(self) -> Dict[TypeName, RBE]:
        """A copy of the rule mapping."""
        return dict(self._rules)

    def labels(self) -> Set[str]:
        """The predicate labels Σ mentioned anywhere in the schema."""
        result: Set[str] = set()
        for expr in self._rules.values():
            for symbol in expr.alphabet():
                if isinstance(symbol, tuple) and len(symbol) == 2:
                    result.add(symbol[0])
        return result

    def referenced_types(self) -> Set[TypeName]:
        """All types appearing on the right-hand side of some rule."""
        result: Set[TypeName] = set()
        for expr in self._rules.values():
            for symbol in expr.alphabet():
                if isinstance(symbol, tuple) and len(symbol) == 2:
                    result.add(symbol[1])
        return result

    def references_to(self, type_name: TypeName) -> List[Tuple[TypeName, str]]:
        """The ``(referring type, label)`` pairs whose rules mention ``type_name``."""
        result = []
        for owner, expr in self._rules.items():
            for symbol in expr.symbol_occurrences():
                if isinstance(symbol, tuple) and len(symbol) == 2 and symbol[1] == type_name:
                    result.append((owner, symbol[0]))
        return result

    def size(self) -> int:
        """Total syntactic size (number of RBE nodes over all rules)."""
        return sum(expr.size() for expr in self._rules.values())

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def rename_types(self, mapping: Mapping[TypeName, TypeName]) -> "ShExSchema":
        """A copy of the schema with types renamed (identity outside the mapping)."""
        def rename(type_name: TypeName) -> TypeName:
            return mapping.get(type_name, type_name)

        renamed: Dict[TypeName, RBE] = {}
        for type_name, expr in self._rules.items():
            renamed[rename(type_name)] = expr.rename_types(rename)
        return ShExSchema(renamed, name=self.name, strict=False)

    def restrict(self, types: Iterable[TypeName]) -> "ShExSchema":
        """The sub-schema keeping only the given types (references may dangle)."""
        keep = set(types)
        return ShExSchema(
            {t: expr for t, expr in self._rules.items() if t in keep},
            name=self.name,
            strict=False,
        )

    def merged_with(self, other: "ShExSchema", prefix: str = "other_") -> "ShExSchema":
        """The union of two schemas; clashing type names of ``other`` get ``prefix``."""
        mapping = {
            t: (prefix + t if t in self._rules else t) for t in other._rules
        }
        renamed = other.rename_types(mapping)
        rules = dict(self._rules)
        rules.update(renamed._rules)
        return ShExSchema(rules, name=f"{self.name}+{other.name}", strict=False)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, type_name: TypeName) -> bool:
        return type_name in self._rules

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShExSchema):
            return NotImplemented
        return self._rules == other._rules

    def __hash__(self) -> int:
        return hash(frozenset(self._rules.items()))

    def __str__(self) -> str:
        lines = []
        for type_name in sorted(self._rules):
            expr = self._rules[type_name]
            body = "eps" if expr is EPSILON else str(expr)
            lines.append(f"{type_name} -> {body}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShExSchema {self.name!r} with {len(self._rules)} types>"
