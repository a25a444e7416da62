"""Occurrence intervals ``[n;m]`` with ``m`` possibly infinite (Section 2 of the paper).

An interval ``[n;m]`` with ``n <= m <= inf`` denotes the set ``{i | n <= i <= m}``.
The paper distinguishes the *basic* intervals used by shape graphs:

==========  =========  =============
shorthand   interval   meaning
==========  =========  =============
``1``       ``[1;1]``  exactly one
``?``       ``[0;1]``  optional
``+``       ``[1;∞]``  one or more
``*``       ``[0;∞]``  any number
==========  =========  =============

plus the auxiliary ``0`` = ``[0;0]``, the neutral element of point-wise addition.

Interval objects are immutable, hashable, and support the operators the paper
uses: point-wise addition ``⊕`` (Python ``+``), inclusion ``⊆`` (:meth:`Interval.issubset`)
and membership of a natural number (``in``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.errors import IntervalError

#: Sentinel used for the infinite upper bound.  ``None`` encodes ``∞``.
INF = None

_SHORTHANDS = {
    "0": (0, 0),
    "1": (1, 1),
    "?": (0, 1),
    "+": (1, INF),
    "*": (0, INF),
}


@dataclass(frozen=True)
class Interval:
    """An occurrence interval ``[lower; upper]`` over the naturals.

    ``upper`` is ``None`` to represent the infinite bound ``∞``.
    """

    lower: int
    upper: Optional[int]

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise IntervalError(f"interval lower bound must be >= 0, got {self.lower}")
        if self.upper is not None:
            if self.upper < 0:
                raise IntervalError(f"interval upper bound must be >= 0, got {self.upper}")
            if self.lower > self.upper:
                raise IntervalError(
                    f"interval lower bound {self.lower} exceeds upper bound {self.upper}"
                )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, spec: Union["Interval", str, int, tuple]) -> "Interval":
        """Coerce ``spec`` into an :class:`Interval`.

        Accepted forms: an :class:`Interval` (returned as-is), one of the
        shorthand strings ``"0" "1" "?" "+" "*"``, a non-negative integer ``k``
        (meaning the singleton ``[k;k]``), or a ``(lower, upper)`` pair where
        ``upper`` may be ``None`` for ``∞``.
        """
        if isinstance(spec, Interval):
            return spec
        if isinstance(spec, str):
            if spec in _SHORTHANDS:
                lo, hi = _SHORTHANDS[spec]
                return cls(lo, hi)
            return cls.parse(spec)
        if isinstance(spec, int):
            return cls(spec, spec)
        if isinstance(spec, tuple) and len(spec) == 2:
            return cls(spec[0], spec[1])
        raise IntervalError(f"cannot interpret {spec!r} as an interval")

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse an interval from text.

        Supports the shorthands ``0 1 ? + *``, the singleton form ``[k;k]``
        (also written ``[k]``), and the general form ``[n;m]`` with ``m`` being
        a number or ``inf``/``*``.  Commas are accepted in place of semicolons.
        """
        text = text.strip()
        if text in _SHORTHANDS:
            lo, hi = _SHORTHANDS[text]
            return cls(lo, hi)
        if text.startswith("[") and text.endswith("]"):
            body = text[1:-1].replace(",", ";")
            if ";" in body:
                lo_text, hi_text = body.split(";", 1)
            else:
                lo_text = hi_text = body
            lo_text = lo_text.strip()
            hi_text = hi_text.strip()
            try:
                lo = int(lo_text)
            except ValueError as exc:
                raise IntervalError(f"bad interval lower bound {lo_text!r}") from exc
            if hi_text in ("inf", "∞", "*"):
                return cls(lo, INF)
            try:
                hi = int(hi_text)
            except ValueError as exc:
                raise IntervalError(f"bad interval upper bound {hi_text!r}") from exc
            return cls(lo, hi)
        raise IntervalError(f"cannot parse interval {text!r}")

    @classmethod
    def singleton(cls, k: int) -> "Interval":
        """The singleton interval ``[k;k]`` used by compressed graphs."""
        return cls(k, k)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def is_basic(self) -> bool:
        """True for the four basic intervals ``1 ? + *`` used by shape graphs."""
        return (self.lower, self.upper) in {(1, 1), (0, 1), (1, INF), (0, INF)}

    @property
    def is_singleton(self) -> bool:
        """True for singleton intervals ``[k;k]`` used by compressed graphs."""
        return self.upper is not None and self.lower == self.upper

    def shorthand(self) -> Optional[str]:
        """Return the shorthand (``0 1 ? + *``) for this interval, or ``None``."""
        for short, (lo, hi) in _SHORTHANDS.items():
            if (self.lower, self.upper) == (lo, hi):
                return short
        return None

    def __contains__(self, value: int) -> bool:
        if not isinstance(value, int) or value < 0:
            return False
        if value < self.lower:
            return False
        return self.upper is None or value <= self.upper

    def issubset(self, other: "Interval") -> bool:
        """Interval inclusion ``self ⊆ other``.

        ``[n1;m1] ⊆ [n2;m2]`` iff ``n2 <= n1`` and ``m1 <= m2``.
        """
        if self.lower < other.lower:
            return False
        if other.upper is None:
            return True
        if self.upper is None:
            return False
        return self.upper <= other.upper

    def intersects(self, other: "Interval") -> bool:
        """True when the two intervals share at least one natural number."""
        lo = max(self.lower, other.lower)
        if self.upper is None and other.upper is None:
            return True
        if self.upper is None:
            return lo <= other.upper
        if other.upper is None:
            return lo <= self.upper
        return lo <= min(self.upper, other.upper)

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """The interval of common values, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        lo = max(self.lower, other.lower)
        if self.upper is None:
            hi = other.upper
        elif other.upper is None:
            hi = self.upper
        else:
            hi = min(self.upper, other.upper)
        return Interval(lo, hi)

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Interval") -> "Interval":
        """Point-wise addition ``⊕``: ``[n1;m1] ⊕ [n2;m2] = [n1+n2; m1+m2]``."""
        if not isinstance(other, Interval):
            return NotImplemented
        lower = self.lower + other.lower
        if self.upper is None or other.upper is None:
            return Interval(lower, INF)
        return Interval(lower, self.upper + other.upper)

    def scale(self, times: "Interval") -> "Interval":
        """The interval of sums of ``k`` values from ``self`` with ``k ∈ times``.

        Used to evaluate ``E^I`` over RBE0 atoms and compressed-graph signatures:
        repeating an interval ``[a;b]`` between ``n`` and ``m`` times yields
        ``[a*n; b*m]`` (with the usual convention that 0 repetitions give 0,
        and anything times ``∞`` with a positive factor is ``∞``).
        """
        lo = self.lower * times.lower
        if times.upper == 0:
            return Interval(0, 0)
        if self.upper is None or times.upper is None:
            hi = INF if (self.upper is None or self.upper > 0) else 0
            if self.upper == 0:
                hi = 0
            return Interval(lo, hi)
        return Interval(lo, self.upper * times.upper)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        short = self.shorthand()
        if short is not None:
            return short
        hi = "inf" if self.upper is None else str(self.upper)
        return f"[{self.lower};{hi}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval({self.lower}, {self.upper})"


#: ``[0;0]`` — the neutral element of ⊕.
ZERO = Interval(0, 0)
#: ``[1;1]``
ONE = Interval(1, 1)
#: ``[0;1]``
OPT = Interval(0, 1)
#: ``[1;∞]``
PLUS = Interval(1, INF)
#: ``[0;∞]``
STAR = Interval(0, INF)

#: The set M of basic intervals used by shape graphs (Section 2).
BASIC_INTERVALS = (ONE, OPT, PLUS, STAR)


def interval_sum(intervals: Iterable[Interval]) -> Interval:
    """Point-wise sum ``I1 ⊕ ... ⊕ Ik``; the empty sum is ``[0;0]``.

    This is the aggregation used by condition 3 of Definition 3.1 (witness of
    simulation): the occurrence intervals of all source edges routed to the same
    target edge are summed and must be included in the target's interval.
    """
    total = ZERO
    for interval in intervals:
        total = total + interval
    return total
