"""Property-based tests for regular bag expressions.

The central invariants:

* membership computed directly (:func:`rbe_matches`) agrees with the RBE0
  specialised procedure and with the Presburger ψ_E encoding of Section 6.1;
* bags sampled from an expression are members of its language;
* minimal witnesses are members, and emptiness agrees with witness existence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bags import Bag
from repro.core.intervals import Interval
from repro.presburger.build import rbe_membership_formula
from repro.presburger.solver import is_satisfiable
from repro.rbe.ast import (
    Concatenation,
    Disjunction,
    EPSILON,
    Repetition,
    SymbolAtom,
)
from repro.rbe.membership import rbe_matches, rbe_min_bag, rbe_nonempty, sample_bags
from repro.rbe.rbe0 import as_rbe0, rbe0_matches

SYMBOLS = ["a", "b", "c"]

basic_intervals = st.sampled_from(["1", "?", "+", "*"]).map(Interval.of)
small_intervals = st.one_of(
    basic_intervals,
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda pair: Interval(min(pair), max(pair))
    ),
)


def rbe_expressions(max_depth=3):
    atoms = st.one_of(st.just(EPSILON), st.sampled_from(SYMBOLS).map(SymbolAtom))

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pair: Concatenation(pair)),
            st.tuples(children, children).map(lambda pair: Disjunction(pair)),
            st.tuples(children, small_intervals).map(lambda pair: Repetition(*pair)),
        )

    return st.recursive(atoms, extend, max_leaves=6)


rbe0_expressions = st.lists(
    st.tuples(st.sampled_from(SYMBOLS), basic_intervals), max_size=4
).map(
    lambda atoms: Concatenation(
        tuple(Repetition(SymbolAtom(symbol), interval) for symbol, interval in atoms)
    )
    if atoms
    else EPSILON
)

small_bags = st.dictionaries(
    st.sampled_from(SYMBOLS), st.integers(min_value=0, max_value=3)
).map(Bag)


class TestMembershipInvariants:
    @pytest.mark.requires_scipy
    @given(rbe_expressions(), small_bags)
    @settings(max_examples=150, deadline=None)
    def test_presburger_encoding_agrees(self, expr, bag):
        assert rbe_matches(expr, bag) == is_satisfiable(rbe_membership_formula(expr, bag))

    @given(rbe0_expressions, small_bags)
    @settings(max_examples=150, deadline=None)
    def test_rbe0_membership_agrees(self, expr, bag):
        profile = as_rbe0(expr)
        assert profile is not None
        assert rbe0_matches(profile, bag) == rbe_matches(expr, bag)

    @given(rbe_expressions(), st.integers(0, 2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_sampled_bags_are_members(self, expr, seed):
        import random

        if not rbe_nonempty(expr):
            return
        for bag in sample_bags(expr, count=3, rng=random.Random(seed)):
            assert rbe_matches(expr, bag)

    @given(rbe_expressions())
    @settings(max_examples=150, deadline=None)
    def test_min_bag_consistency(self, expr):
        witness = rbe_min_bag(expr)
        assert (witness is not None) == rbe_nonempty(expr)
        if witness is not None:
            assert rbe_matches(expr, witness)

    @given(rbe_expressions())
    @settings(max_examples=150, deadline=None)
    def test_nullable_iff_empty_bag_member(self, expr):
        assert expr.nullable() == rbe_matches(expr, Bag())

    @given(rbe_expressions(), small_bags)
    @settings(max_examples=150, deadline=None)
    def test_size_interval_is_sound(self, expr, bag):
        if rbe_matches(expr, bag):
            assert bag.size in expr.size_interval()

    @given(rbe_expressions(), small_bags)
    @settings(max_examples=100, deadline=None)
    def test_membership_implies_alphabet_support(self, expr, bag):
        if rbe_matches(expr, bag):
            assert bag.support() <= expr.alphabet()


class TestStringRoundtrip:
    @given(rbe_expressions())
    @settings(max_examples=150, deadline=None)
    def test_parse_of_str_preserves_language_on_samples(self, expr):
        from repro.rbe.parser import parse_rbe

        reparsed = parse_rbe(str(expr))
        for counts in ({}, {"a": 1}, {"b": 2}, {"a": 1, "b": 1}, {"c": 3}):
            bag = Bag(counts)
            assert rbe_matches(expr, bag) == rbe_matches(reparsed, bag)
