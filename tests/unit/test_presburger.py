"""Unit tests for the Presburger arithmetic backend (Section 6.1)."""

import itertools

import pytest

from repro.core.bags import Bag
from repro.errors import PresburgerError
from repro.presburger.build import (
    rbe_language_nonempty,
    rbe_language_witness,
    rbe_membership_formula,
    rbe_to_formula,
)
from repro.presburger.formula import (
    And,
    Comparison,
    Exists,
    FALSE,
    LinearTerm,
    TRUE,
    conjunction,
    const,
    disjunction,
    eq,
    ge,
    gt,
    le,
    lt,
    var,
)
from repro.presburger.solver import is_satisfiable, small_model_bound, solve_existential
from repro.rbe.membership import rbe_matches
from repro.rbe.parser import parse_rbe


class TestLinearTerms:
    def test_arithmetic(self):
        term = var("x") + 2 * var("y") + 3
        assert term.evaluate({"x": 1, "y": 2}) == 8
        assert (term - var("x")).evaluate({"x": 5, "y": 2}) == 7
        assert (term * 2).evaluate({"x": 1, "y": 1}) == 12

    def test_variables(self):
        assert (var("x") + var("y") - var("x")).variables() == {"y"}

    def test_of(self):
        assert LinearTerm.of(5).constant == 5
        assert LinearTerm.of("x") == var("x")
        with pytest.raises(PresburgerError):
            LinearTerm.of(3.5)

    def test_str(self):
        assert "x" in str(var("x") + 1)


class TestFormulas:
    def test_atom_evaluation(self):
        atom = le(var("x") + 1, var("y"))
        assert atom.evaluate({"x": 1, "y": 3})
        assert not atom.evaluate({"x": 3, "y": 3})
        assert eq(var("x"), 2).evaluate({"x": 2})
        assert gt(var("x"), 0).evaluate({"x": 1})
        assert lt(var("x"), 1).evaluate({"x": 0})
        assert ge(var("x"), 0).evaluate({})

    def test_invalid_operator_rejected(self):
        with pytest.raises(PresburgerError):
            Comparison(var("x"), "!=", var("y"))

    def test_free_variables_of_exists(self):
        formula = Exists(("x",), eq(var("x"), var("y")))
        assert formula.free_variables() == {"y"}
        assert formula.variables() == {"x", "y"}

    def test_conjunction_disjunction_folding(self):
        assert conjunction([]) is TRUE
        assert conjunction([TRUE, FALSE]) is FALSE
        assert disjunction([]) is FALSE
        assert disjunction([FALSE, TRUE]) is TRUE
        folded = conjunction([eq(var("x"), 1), conjunction([eq(var("y"), 2)])])
        assert isinstance(folded, (And, Comparison))


class TestSolver:
    @pytest.mark.requires_scipy
    def test_simple_system(self):
        formula = conjunction([eq(var("x") + var("y"), 5), ge(var("x"), 3), le(var("y"), 1)])
        solution = solve_existential(formula, ["x", "y"])
        assert solution is not None
        assert solution["x"] + solution["y"] == 5
        assert solution["x"] >= 3 and solution["y"] <= 1

    @pytest.mark.requires_scipy
    def test_unsatisfiable_system(self):
        formula = conjunction([eq(var("x"), 1), eq(var("x"), 2)])
        assert not is_satisfiable(formula)

    @pytest.mark.requires_scipy
    def test_naturals_only(self):
        # x + 1 <= 0 has no solution over the naturals
        assert not is_satisfiable(le(var("x") + 1, 0))

    @pytest.mark.requires_scipy
    def test_strict_inequalities_tightened(self):
        formula = conjunction([lt(var("x"), 2), gt(var("x"), 0)])
        solution = solve_existential(formula, ["x"])
        assert solution == {"x": 1}

    @pytest.mark.requires_scipy
    def test_disjunction_branches(self):
        formula = disjunction([eq(var("x"), 7), conjunction([eq(var("x"), 1), eq(var("x"), 2)])])
        assert solve_existential(formula, ["x"]) == {"x": 7}

    def test_constant_only_atoms(self):
        assert is_satisfiable(eq(const(3), const(3)))
        assert not is_satisfiable(eq(const(3), const(4)))

    @pytest.mark.requires_scipy
    def test_nested_exists_renamed_apart(self):
        inner = Exists(("x",), eq(var("x"), 2))
        outer = Exists(("x",), conjunction([eq(var("x"), 1), inner]))
        assert is_satisfiable(outer)

    def test_small_model_bound(self):
        assert small_model_bound(2, 1) == 2 ** 3
        assert small_model_bound(3, 2, alternations=1) == 3 ** 6
        with pytest.raises(PresburgerError):
            small_model_bound(0, 1)


class TestRBEEncoding:
    @pytest.mark.parametrize(
        "text",
        ["a || b?", "(a | b)+", "a[2;3] || c", "(a || b)[2;2]", "a* || a", "a & (a | b)"],
    )
    @pytest.mark.requires_scipy
    def test_membership_formula_agrees_with_direct_membership(self, text):
        expr = parse_rbe(text)
        for counts in itertools.product(range(4), repeat=3):
            bag = Bag({"a": counts[0], "b": counts[1], "c": counts[2]})
            direct = rbe_matches(expr, bag)
            encoded = is_satisfiable(rbe_membership_formula(expr, bag))
            assert direct == encoded, f"{text} on {dict(bag)}"

    @pytest.mark.requires_scipy
    def test_power_semantics(self):
        # ψ_E(x̄, n) describes L(E)^n: two repetitions of (a || b)
        expr = parse_rbe("a || b")
        xvars = {"a": "xa", "b": "xb"}
        formula = conjunction(
            [eq(var("xa"), 2), eq(var("xb"), 2), rbe_to_formula(expr, xvars, const(2))]
        )
        assert is_satisfiable(formula)
        formula_bad = conjunction(
            [eq(var("xa"), 2), eq(var("xb"), 1), rbe_to_formula(expr, xvars, const(2))]
        )
        assert not is_satisfiable(formula_bad)

    @pytest.mark.requires_scipy
    def test_language_nonempty(self):
        assert rbe_language_nonempty(parse_rbe("a & (a | b)"))
        assert not rbe_language_nonempty(parse_rbe("a & b"))
        assert not rbe_language_nonempty(parse_rbe("(a || b) & a"))

    @pytest.mark.requires_scipy
    def test_language_witness(self):
        witness = rbe_language_witness(parse_rbe("(a || b) & (a || b)"))
        assert witness == Bag({"a": 1, "b": 1})
        assert rbe_language_witness(parse_rbe("a & b")) is None

    def test_unknown_symbol_in_mapping_rejected(self):
        with pytest.raises(PresburgerError):
            rbe_to_formula(parse_rbe("a"), {}, const(1))
