"""Existential Presburger arithmetic: formulas, the ψ_E encoding of RBEs, and a solver."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.presburger.formula": (
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
    ),
    "repro.presburger.build": (
        "rbe_to_formula",
        "rbe_language_nonempty",
        "rbe_language_witness",
        "rbe_membership_formula",
    ),
    "repro.presburger.solver": (
        "solve_existential",
        "is_satisfiable",
        "small_model_bound",
        "SolverStats",
        "formula_to_problem",
        "normalise_conjunct",
        "solve_problems",
    ),
})
