"""Existential Presburger arithmetic: formulas, the ψ_E encoding of RBEs, and a solver."""

from repro.presburger.formula import (
    LinearTerm,
    Comparison,
    And,
    Or,
    Exists,
    TrueFormula,
    FalseFormula,
    Formula,
    var,
    const,
)
from repro.presburger.build import (
    rbe_to_formula,
    rbe_language_nonempty,
    rbe_language_witness,
    rbe_membership_formula,
)
from repro.presburger.solver import (
    SolverStats,
    formula_to_problem,
    is_satisfiable,
    normalise_conjunct,
    small_model_bound,
    solve_existential,
    solve_problems,
)

__all__ = [
    "LinearTerm",
    "Comparison",
    "And",
    "Or",
    "Exists",
    "TrueFormula",
    "FalseFormula",
    "Formula",
    "var",
    "const",
    "rbe_to_formula",
    "rbe_language_nonempty",
    "rbe_language_witness",
    "rbe_membership_formula",
    "solve_existential",
    "is_satisfiable",
    "small_model_bound",
    "SolverStats",
    "formula_to_problem",
    "normalise_conjunct",
    "solve_problems",
]
