"""Unit tests for regular bag expressions: AST, parser, membership, RBE0, SORBE."""

import pytest

from repro.core.bags import Bag
from repro.core.intervals import Interval, OPT, STAR
from repro.errors import RBESyntaxError
from repro.rbe.ast import (
    EPSILON,
    Concatenation,
    Disjunction,
    Intersection,
    Repetition,
    SymbolAtom,
    atom,
    concat,
    disj,
)
from repro.rbe.membership import (
    rbe_matches,
    rbe_min_bag,
    rbe_nonempty,
    sample_bags,
)
from repro.rbe.parser import parse_rbe
from repro.rbe.rbe0 import as_rbe0, is_rbe0, profile_to_rbe, rbe0_matches
from repro.rbe.sorbe import is_sorbe


class TestAST:
    def test_alphabet(self):
        expr = parse_rbe("a :: t || b :: s? || a :: t*")
        assert expr.alphabet() == {("a", "t"), ("b", "s")}

    def test_symbol_occurrences_keep_duplicates(self):
        expr = parse_rbe("a || a+ || b*")
        assert sorted(expr.symbol_occurrences()) == ["a", "a", "b"]

    def test_size(self):
        assert EPSILON.size() == 1
        assert parse_rbe("a || b").size() == 3

    def test_nullable(self):
        assert EPSILON.nullable()
        assert parse_rbe("a?").nullable()
        assert parse_rbe("a* || b?").nullable()
        assert not parse_rbe("a || b?").nullable()
        assert parse_rbe("a | eps").nullable()

    def test_size_interval(self):
        assert parse_rbe("a || b?").size_interval() == Interval(1, 2)
        assert parse_rbe("a*").size_interval() == STAR
        assert parse_rbe("(a | b || c)").size_interval() == Interval(1, 2)

    def test_operator_sugar(self):
        expr = atom("a", "t") @ atom("b", "s").opt()
        assert isinstance(expr, Concatenation)
        assert (atom("a") | atom("b")).alphabet() == {"a", "b"}
        assert isinstance(atom("a").star(), Repetition)

    def test_concat_flattens_and_drops_epsilon(self):
        expr = concat(atom("a"), EPSILON, concat(atom("b"), atom("c")))
        assert isinstance(expr, Concatenation)
        assert len(expr.operands) == 3
        assert concat() is EPSILON
        assert concat(atom("a")) == SymbolAtom("a")

    def test_disj_flattens(self):
        expr = disj(atom("a"), disj(atom("b"), atom("c")))
        assert isinstance(expr, Disjunction)
        assert len(expr.operands) == 3
        with pytest.raises(ValueError):
            disj()

    def test_rename_types(self):
        expr = parse_rbe("a :: t || b :: s")
        renamed = expr.rename_types(lambda t: t.upper())
        assert renamed.alphabet() == {("a", "T"), ("b", "S")}

    def test_map_symbols_on_plain_symbols(self):
        expr = parse_rbe("a | b")
        assert expr.map_symbols(str.upper).alphabet() == {"A", "B"}

    def test_str_roundtrips_through_parser(self):
        for text in ("a || b?", "(a | b) || c+", "a :: t* || b :: s", "a[2;3]"):
            expr = parse_rbe(text)
            assert parse_rbe(str(expr)) == expr


class TestParser:
    def test_epsilon_forms(self):
        assert parse_rbe("eps") is EPSILON
        assert parse_rbe("") is EPSILON
        assert parse_rbe("ε") is EPSILON

    def test_typed_symbols(self):
        expr = parse_rbe("descr :: Literal")
        assert expr == SymbolAtom(("descr", "Literal"))

    def test_comma_is_concatenation(self):
        assert parse_rbe("a, b") == parse_rbe("a || b")

    def test_precedence_disjunction_loosest(self):
        expr = parse_rbe("a | b || c")
        assert isinstance(expr, Disjunction)
        assert isinstance(expr.operands[1], Concatenation)

    def test_postfix_intervals(self):
        assert parse_rbe("a?") == Repetition(SymbolAtom("a"), OPT)
        assert parse_rbe("a[2;3]") == Repetition(SymbolAtom("a"), Interval(2, 3))
        assert parse_rbe("a^[2;3]") == parse_rbe("a[2;3]")
        assert parse_rbe("a^2") == Repetition(SymbolAtom("a"), Interval(2, 2))

    def test_intersection_operator(self):
        expr = parse_rbe("a & a")
        assert isinstance(expr, Intersection)

    def test_parentheses(self):
        expr = parse_rbe("(a || b)*")
        assert isinstance(expr, Repetition)
        assert isinstance(expr.operand, Concatenation)

    def test_errors(self):
        with pytest.raises(RBESyntaxError):
            parse_rbe("a ||")
        with pytest.raises(RBESyntaxError):
            parse_rbe("(a")
        with pytest.raises(RBESyntaxError):
            parse_rbe("a b")
        with pytest.raises(RBESyntaxError):
            parse_rbe("a ^ b")


class TestMembership:
    @pytest.mark.parametrize(
        "text,good,bad",
        [
            ("eps", [{}], [{"a": 1}]),
            ("a", [{"a": 1}], [{}, {"a": 2}, {"b": 1}]),
            ("a || b?", [{"a": 1}, {"a": 1, "b": 1}], [{}, {"b": 1}, {"a": 1, "b": 2}]),
            ("a | b", [{"a": 1}, {"b": 1}], [{}, {"a": 1, "b": 1}]),
            ("a*", [{}, {"a": 5}], [{"b": 1}]),
            ("a+ || a", [{"a": 2}, {"a": 7}], [{"a": 1}, {}]),
            ("a[2;3]", [{"a": 2}, {"a": 3}], [{"a": 1}, {"a": 4}]),
            ("(a || b)[2;2]", [{"a": 2, "b": 2}], [{"a": 1, "b": 1}, {"a": 2, "b": 1}]),
            ("(a | b)+", [{"a": 3}, {"a": 1, "b": 2}], [{}, {"c": 1}]),
            ("(a || b?)*", [{}, {"a": 3, "b": 2}], [{"a": 1, "b": 2}, {"b": 1}]),
            ("a & a", [{"a": 1}], [{}, {"a": 2}]),
            ("(a | b) & a", [{"a": 1}], [{"b": 1}]),
        ],
    )
    def test_membership_cases(self, text, good, bad):
        expr = parse_rbe(text)
        for counts in good:
            assert rbe_matches(expr, Bag(counts)), f"{counts} should match {text}"
        for counts in bad:
            assert not rbe_matches(expr, Bag(counts)), f"{counts} should not match {text}"

    def test_figure1_bug_rule(self):
        expr = parse_rbe(
            "descr :: Literal, reportedBy :: User, reproducedBy :: Employee?, related :: Bug*"
        )
        assert rbe_matches(
            expr,
            Bag([("descr", "Literal"), ("reportedBy", "User"), ("related", "Bug"), ("related", "Bug")]),
        )
        assert not rbe_matches(expr, Bag([("descr", "Literal")]))

    @pytest.mark.requires_scipy
    def test_nonempty(self):
        assert rbe_nonempty(parse_rbe("a || b"))
        assert rbe_nonempty(parse_rbe("a & a"))
        assert not rbe_nonempty(parse_rbe("a & b"))
        assert not rbe_nonempty(parse_rbe("a & eps"))
        assert rbe_nonempty(parse_rbe("a? & eps"))

    @pytest.mark.requires_scipy
    def test_min_bag(self):
        assert rbe_min_bag(parse_rbe("a || b?")) == Bag({"a": 1})
        assert rbe_min_bag(parse_rbe("a[3;5]")) == Bag({"a": 3})
        assert rbe_min_bag(parse_rbe("a | b || c")) == Bag({"a": 1})
        assert rbe_min_bag(parse_rbe("a & b")) is None

    def test_min_bag_is_member(self):
        for text in ("a || b?", "a+ || b*", "(a|b)[2;2]", "a[2;4] || c"):
            expr = parse_rbe(text)
            assert rbe_matches(expr, rbe_min_bag(expr))

    def test_sample_bags_are_members(self, rng):
        for text in ("a || b?", "(a | b)* || c", "a+ || b[1;2]"):
            expr = parse_rbe(text)
            for bag in sample_bags(expr, count=10, rng=rng):
                assert rbe_matches(expr, bag)


class TestRBE0:
    def test_detection(self):
        assert is_rbe0(parse_rbe("a || a+ || b*"))
        assert is_rbe0(parse_rbe("eps"))
        assert is_rbe0(parse_rbe("a :: t? || b :: s"))
        assert not is_rbe0(parse_rbe("a | b"))
        assert not is_rbe0(parse_rbe("(a || b)*"))
        assert not is_rbe0(parse_rbe("a[2;3]"))
        assert is_rbe0(parse_rbe("a[2;3]"), require_basic=False)

    def test_profile_per_symbol_interval(self):
        profile = as_rbe0(parse_rbe("a || a+ || b*"))
        per_symbol = profile.per_symbol_interval()
        assert per_symbol["a"] == Interval(2, None)
        assert per_symbol["b"] == STAR

    def test_rbe0_membership_agrees_with_general(self):
        expr = parse_rbe("a || a? || b*")
        profile = as_rbe0(expr)
        for counts in ({"a": 1}, {"a": 2}, {"a": 3}, {"a": 2, "b": 4}, {"b": 1}, {}):
            assert rbe0_matches(profile, Bag(counts)) == rbe_matches(expr, Bag(counts))

    def test_rbe0_rejects_foreign_symbols(self):
        profile = as_rbe0(parse_rbe("a?"))
        assert not rbe0_matches(profile, Bag({"z": 1}))

    def test_profile_roundtrip(self):
        expr = parse_rbe("a || b? || c*")
        rebuilt = profile_to_rbe(as_rbe0(expr))
        for counts in ({}, {"a": 1}, {"a": 1, "c": 3}, {"a": 1, "b": 1}):
            assert rbe_matches(expr, Bag(counts)) == rbe_matches(rebuilt, Bag(counts))


class TestSORBE:
    def test_single_occurrence(self):
        assert is_sorbe(parse_rbe("a || b? || c*"))
        assert is_sorbe(parse_rbe("(a | b) || c"))
        assert not is_sorbe(parse_rbe("a || a+"))
        assert not is_sorbe(parse_rbe("(a | b) || a"))
