"""A solver for the existential fragment of Presburger arithmetic.

Satisfiability of existentially quantified PA formulas is NP-complete; this is
the fragment the paper relies on for Proposition 6.2 (validation of compressed
graphs).  The solver here:

1. renames bound variables apart,
2. rewrites the formula into disjunctive normal form over comparison atoms,
3. normalises every conjunct into an integer-linear system over non-negative
   integers and solves it with ``scipy.optimize.milp``.  SciPy is optional for
   the package: without it, a query that reaches the MILP raises
   :class:`repro.errors.PresburgerError` naming the ``solver`` extra.  Rules
   that flatten to per-symbol intervals never get here — they are decided by
   the flow of :mod:`repro.util.assignment` under both semantics.

Every satisfiability verdict — :func:`is_satisfiable` and the batch entry
point :func:`solve_problems` alike — comes from one place: an *elastic
block-diagonal* MILP.  Each conjunct of each problem becomes one block whose
rows carry slack variables, the total slack is minimised, and a block is
feasible exactly when its optimal slack is 0, so a whole refinement round of
the maximal-typing fixpoint costs a single ``milp`` invocation.  Conjuncts are
exposed as hashable coefficient rows (:func:`normalise_conjunct`), so callers
such as :meth:`repro.engine.compiled.CompiledType.normalised_template` cache
the DNF/matrix form of a formula once and re-assemble per-node systems without
rebuilding formula trees.  Repeated checks are absorbed upstream, by the
engines' per-schema signature memo, not here.

:func:`solve_existential` is the one exception: the independent oracle of
:mod:`repro.schema.reference` and :func:`repro.presburger.build.rbe_language_witness`
need a concrete witness, which it finds with one dense MILP per conjunct.

It also exposes :func:`small_model_bound`, the bound of Proposition 6.3
(Weispfenning) that the paper uses to bound the size of compressed
counter-examples.
"""

from __future__ import annotations

import importlib.util
import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults as _faults
from repro.errors import PresburgerError
from repro.obs import metrics as _obs_metrics
from repro.obs import tracing as _obs_tracing
from repro.presburger.formula import (
    And,
    Comparison,
    Exists,
    FalseFormula,
    Formula,
    LinearTerm,
    Or,
    TrueFormula,
    fresh_variable,
)

# SciPy costs ~0.6 s to import and most runs never reach a MILP, so only its
# presence is checked here; ``_bind_scipy`` imports it on the first solve.
_HAVE_SCIPY = importlib.util.find_spec("scipy") is not None
_np = _milp = _LinearConstraint = _Bounds = _csr_matrix = None


_NO_SCIPY = (
    "this Presburger query needs SciPy's MILP solver; install the `solver` "
    "extra (pip install 'shex-containment[solver]')"
)


def _bind_scipy() -> None:
    """Import numpy and the SciPy MILP pieces once; raise without SciPy."""
    global _np, _milp, _LinearConstraint, _Bounds, _csr_matrix
    if not _HAVE_SCIPY:
        raise PresburgerError(_NO_SCIPY)
    if _milp is None:
        try:
            import numpy
            from scipy.optimize import Bounds, LinearConstraint, milp
            from scipy.sparse import csr_matrix
        except ImportError as exc:  # pragma: no cover - a broken SciPy install
            raise PresburgerError(_NO_SCIPY) from exc
        _np, _LinearConstraint, _Bounds, _csr_matrix = numpy, LinearConstraint, Bounds, csr_matrix
        _milp = milp  # bound last: a non-None ``_milp`` means all are bound

#: A normalised row ``Σ coeff·x (== | <=) bound``: sorted coefficient items.
Row = Tuple[Tuple[Tuple[str, int], ...], int]
#: A normalised conjunct: ``(equality_rows, inequality_rows)``.
Conjunct = Tuple[Tuple[Row, ...], Tuple[Row, ...]]
#: A satisfiability problem: DNF alternatives.  Empty = unsatisfiable;
#: a conjunct with no rows = trivially satisfiable.
Problem = Tuple[Conjunct, ...]


# --------------------------------------------------------------------------- #
# Instrumentation
# --------------------------------------------------------------------------- #
@dataclass
class SolverStats:
    """Counters describing how much actual solving the process has done.

    ``solver_calls`` (milp + batch invocations) is the number
    the fixpoint benchmarks track: every entry is one real optimisation run,
    whereas ``sat_checks`` counts logical queries, however they were answered.
    """

    sat_checks: int = 0
    milp_calls: int = 0
    batch_calls: int = 0
    batch_blocks: int = 0
    # Always 0 (there is no warm-start cache); kept because perfbench reads them.
    warm_hits: int = 0
    warm_misses: int = 0

    @property
    def solver_calls(self) -> int:
        """Actual optimisation runs (one batched call counts once)."""
        return self.milp_calls + self.batch_calls


# Registry-backed counters (monotone, thread-safe, Prometheus-exposed).  The
# old module-global ``SolverStats`` object was a footgun: process-wide,
# never reset between engine instances, and racy under the thread backend.
# Readers now take *windows* over these counters instead (see
# :class:`SolverWindow`), so one consumer's reset never zeroes another's.
_REGISTRY = _obs_metrics.get_registry()
_SAT_CHECKS = _REGISTRY.counter(
    "repro_solver_sat_checks_total", "Satisfiability queries, however answered."
)
_MILP_CALLS = _REGISTRY.counter(
    "repro_solver_milp_calls_total",
    "Dense per-conjunct milp invocations of the witness finder.",
)
_BATCH_CALLS = _REGISTRY.counter(
    "repro_solver_batch_calls_total", "Elastic block-diagonal MILP invocations."
)
_BATCH_BLOCKS = _REGISTRY.counter(
    "repro_solver_batch_blocks_total",
    "Conjunct blocks packed into batched MILP invocations.",
)
_BATCH_SIZE = _REGISTRY.histogram(
    "repro_solver_batch_blocks", "Blocks per batched MILP invocation."
)
_MILP_SECONDS = _REGISTRY.histogram(
    "repro_solver_milp_seconds",
    "Wall time of one MILP invocation (dense or batched).",
)

#: Counter names backing :class:`SolverStats` fields, in field order.
_COUNTER_NAMES = (
    ("sat_checks", "repro_solver_sat_checks_total"),
    ("milp_calls", "repro_solver_milp_calls_total"),
    ("batch_calls", "repro_solver_batch_calls_total"),
    ("batch_blocks", "repro_solver_batch_blocks_total"),
)


class SolverWindow:
    """A resettable, thread-safe view over the process-wide solver counters.

    Each window remembers its own baseline: :meth:`snapshot` returns a
    :class:`SolverStats` of activity *since this window's last*
    :meth:`reset`, so a daemon engine, a benchmark, and a test can each take
    independent readings off the same monotone counters without trampling
    one another (the footgun the old module-global stats object had).
    """

    def __init__(self) -> None:
        self._window = _obs_metrics.CounterWindow(
            _REGISTRY, [metric for _, metric in _COUNTER_NAMES]
        )

    def reset(self) -> None:
        """Rebase this window; subsequent snapshots count from zero."""
        self._window.reset()

    def snapshot(self) -> SolverStats:
        """Counter deltas since this window's last reset."""
        values = self._window.read()
        return SolverStats(
            **{field: int(values[metric]) for field, metric in _COUNTER_NAMES}
        )


def solver_metrics_summary() -> Dict[str, int]:
    """Process-lifetime totals of the solver counters, keyed by stats field.

    Unlike a :class:`SolverWindow` this reads the monotone registry values
    directly, so it is unaffected by anyone's resets — the view the daemon's
    ``metrics`` op exposes.
    """
    return {field: int(_REGISTRY.value(metric)) for field, metric in _COUNTER_NAMES}


# --------------------------------------------------------------------------- #
# Renaming bound variables apart
# --------------------------------------------------------------------------- #
def _rename_term(term: LinearTerm, mapping: Dict[str, str]) -> LinearTerm:
    coefficients = tuple(
        (mapping.get(name, name), coeff) for name, coeff in term.coefficients
    )
    return LinearTerm(coefficients, term.constant)


def _rename(formula: Formula, mapping: Dict[str, str]) -> Formula:
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Comparison):
        return Comparison(
            _rename_term(formula.left, mapping),
            formula.operator,
            _rename_term(formula.right, mapping),
        )
    if isinstance(formula, And):
        return And(tuple(_rename(op, mapping) for op in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(_rename(op, mapping) for op in formula.operands))
    if isinstance(formula, Exists):
        extended = dict(mapping)
        fresh_names = []
        for name in formula.bound:
            fresh = fresh_variable(name.split("#")[0] or "v")
            extended[name] = fresh
            fresh_names.append(fresh)
        return Exists(tuple(fresh_names), _rename(formula.body, extended))
    raise PresburgerError(f"unknown formula node {type(formula).__name__}")


# --------------------------------------------------------------------------- #
# DNF conversion
# --------------------------------------------------------------------------- #
def _to_dnf(formula: Formula) -> List[List[Comparison]]:
    """Disjunctive normal form as a list of conjunctions of atoms.

    An empty list means *unsatisfiable*; a list containing an empty conjunction
    means *trivially true*.
    """
    if isinstance(formula, TrueFormula):
        return [[]]
    if isinstance(formula, FalseFormula):
        return []
    if isinstance(formula, Comparison):
        return [[formula]]
    if isinstance(formula, Exists):
        # Bound variables were renamed apart; the quantifier can be dropped in
        # the purely existential fragment.
        return _to_dnf(formula.body)
    if isinstance(formula, Or):
        result: List[List[Comparison]] = []
        for operand in formula.operands:
            result.extend(_to_dnf(operand))
        return result
    if isinstance(formula, And):
        result = [[]]
        for operand in formula.operands:
            operand_dnf = _to_dnf(operand)
            if not operand_dnf:
                return []
            result = [left + right for left in result for right in operand_dnf]
        return result
    raise PresburgerError(f"unknown formula node {type(formula).__name__}")


# --------------------------------------------------------------------------- #
# Normalisation into linear systems over the naturals
# --------------------------------------------------------------------------- #
def _normalise_atom(atom: Comparison) -> Tuple[Dict[str, int], int, str]:
    """Rewrite an atom as ``Σ coeff·x  OP  constant`` with OP in {==, <=}.

    Strict comparisons over the integers are tightened: ``a < b`` becomes
    ``a <= b - 1``.
    """
    diff = atom.left - atom.right
    coeffs: Dict[str, int] = {}
    for name, coeff in diff.coefficients:
        coeffs[name] = coeffs.get(name, 0) + coeff
    coeffs = {name: coeff for name, coeff in coeffs.items() if coeff != 0}
    constant = diff.constant
    operator = atom.operator
    if operator == ">=":
        coeffs = {name: -coeff for name, coeff in coeffs.items()}
        constant = -constant
        operator = "<="
    elif operator == ">":
        coeffs = {name: -coeff for name, coeff in coeffs.items()}
        constant = -constant
        operator = "<"
    if operator == "<":
        constant += 1
        operator = "<="
    # Now the atom reads  Σ coeff·x + constant  OP  0.
    return coeffs, -constant, operator  # Σ coeff·x OP  -constant


def normalise_conjunct(atoms: Sequence[Comparison]) -> Optional[Conjunct]:
    """Normalise a conjunction of atoms into hashable coefficient rows.

    Constant atoms are decided on the spot: a contradictory one makes the
    whole conjunct infeasible (``None``), a trivially true one is dropped.
    A returned conjunct with no rows is trivially satisfiable.
    """
    equalities: List[Row] = []
    inequalities: List[Row] = []
    for atom in atoms:
        coeffs, bound, operator = _normalise_atom(atom)
        if not coeffs:
            satisfied = (0 == bound) if operator == "==" else (0 <= bound)
            if not satisfied:
                return None
            continue
        row: Row = (tuple(sorted(coeffs.items())), bound)
        if operator == "==":
            equalities.append(row)
        else:
            inequalities.append(row)
    return tuple(equalities), tuple(inequalities)


def formula_to_problem(formula: Formula) -> Problem:
    """Rename apart, convert to DNF, and normalise every conjunct.

    Contradictory conjuncts are dropped; an empty result is unsatisfiable and
    a conjunct without rows is trivially satisfiable.
    """
    renamed = _rename(formula, {})
    conjuncts: List[Conjunct] = []
    for atoms in _to_dnf(renamed):
        normalised = normalise_conjunct(atoms)
        if normalised is not None:
            conjuncts.append(normalised)
    return tuple(conjuncts)


# --------------------------------------------------------------------------- #
# Satisfiability: one elastic MILP for many independent systems
# --------------------------------------------------------------------------- #
#: Blocks per single batched ``milp`` call; rounds larger than this are split.
_BATCH_BLOCK_LIMIT = 256


def _solve_blocks_elastic(blocks: Sequence[Conjunct]) -> List[bool]:
    """Feasibility of many variable-disjoint systems via one elastic MILP.

    Every block's rows are made elastic — equalities get a slack pair
    ``+s⁺ − s⁻``, inequalities a surplus ``−s`` — and the total slack is
    minimised.  Blocks are variable-disjoint, so the optimum decomposes: a
    block is feasible exactly when its own slack sum is zero (over integer
    data an infeasible block contributes at least 1).  The program is always
    feasible (all slack) and bounded below by 0, so a failed solve is a solver
    fault and raises :class:`repro.errors.PresburgerError`.
    """
    _bind_scipy()
    _BATCH_CALLS.inc()
    _BATCH_BLOCKS.inc(len(blocks))
    _BATCH_SIZE.observe(len(blocks))
    rows_i: List[int] = []  # COO triplets of the combined constraint matrix
    cols_j: List[int] = []
    data: List[float] = []
    lower: List[float] = []
    upper: List[float] = []
    objective: List[float] = []
    block_slack_columns: List[List[int]] = []
    row_count = 0
    column_count = 0

    def new_column(cost: float) -> int:
        nonlocal column_count
        objective.append(cost)
        column_count += 1
        return column_count - 1

    for equalities, inequalities in blocks:
        columns: Dict[str, int] = {}
        slack_columns: List[int] = []
        for is_equality, rows in ((True, equalities), (False, inequalities)):
            for coeffs, bound in rows:
                for name, coeff in coeffs:
                    column = columns.get(name)
                    if column is None:
                        column = columns[name] = new_column(0.0)
                    rows_i.append(row_count)
                    cols_j.append(column)
                    data.append(float(coeff))
                if is_equality:
                    surplus, deficit = new_column(1.0), new_column(1.0)
                    slack_columns.extend((surplus, deficit))
                    rows_i.extend((row_count, row_count))
                    cols_j.extend((surplus, deficit))
                    data.extend((1.0, -1.0))
                    lower.append(float(bound))
                    upper.append(float(bound))
                else:
                    surplus = new_column(1.0)
                    slack_columns.append(surplus)
                    rows_i.append(row_count)
                    cols_j.append(surplus)
                    data.append(-1.0)
                    lower.append(-_np.inf)
                    upper.append(float(bound))
                row_count += 1
        block_slack_columns.append(slack_columns)

    matrix = _csr_matrix(
        (data, (rows_i, cols_j)), shape=(row_count, column_count)
    )
    started = time.perf_counter()
    result = _milp(
        c=_np.array(objective),
        constraints=_LinearConstraint(matrix, _np.array(lower), _np.array(upper)),
        integrality=_np.ones(column_count),
        bounds=_Bounds(0, _np.inf),
    )
    _MILP_SECONDS.observe(time.perf_counter() - started)
    if not result.success or result.x is None:
        raise PresburgerError(f"the elastic MILP failed: {result.message}")
    return [
        float(sum(result.x[column] for column in slack_columns)) < 0.5
        for slack_columns in block_slack_columns
    ]


def solve_problems(problems: Sequence[Problem]) -> List[bool]:
    """Satisfiability of many independent problems, batched.

    Trivial problems are decided structurally: one without conjuncts is
    unsatisfiable, one with a row-free conjunct satisfiable.  The conjuncts of
    the rest are packed into as few elastic MILP invocations as possible (see
    :func:`_solve_blocks_elastic`), and a problem is satisfiable when one of
    its blocks is feasible.  Intended for the per-refinement-round check
    batches of :mod:`repro.engine.fixpoint`.  Raises
    :class:`repro.errors.PresburgerError` without SciPy when some problem
    needs the MILP, and when the MILP fails.
    """
    _faults.maybe_fail("solver")
    _SAT_CHECKS.inc(len(problems))
    verdicts: List[bool] = []
    pending: List[int] = []
    for position, problem in enumerate(problems):
        trivially_true = any(not eqs and not les for eqs, les in problem)
        verdicts.append(trivially_true)
        if problem and not trivially_true:
            pending.append(position)

    cursor = 0
    while cursor < len(pending):
        blocks: List[Conjunct] = []
        owners: List[int] = []  # the problem position of each block
        while cursor < len(pending) and len(blocks) < _BATCH_BLOCK_LIMIT:
            position = pending[cursor]
            blocks.extend(problems[position])
            owners.extend([position] * len(problems[position]))
            cursor += 1
        with _obs_tracing.span("presburger.batch", blocks=len(blocks)):
            feasible_blocks = _solve_blocks_elastic(blocks)
        for position, feasible in zip(owners, feasible_blocks):
            verdicts[position] = verdicts[position] or feasible
    return verdicts


def is_satisfiable(formula: Formula) -> bool:
    """True when the formula has a model over the naturals.

    A one-problem :func:`solve_problems`, so it shares the elastic MILP, the
    fault hook and the trivial-problem checks.
    """
    return solve_problems([formula_to_problem(formula)])[0]


# --------------------------------------------------------------------------- #
# Witnesses for the oracle
# --------------------------------------------------------------------------- #
def _solve_dense(conjunct: Conjunct) -> Optional[Dict[str, int]]:
    """A non-negative integer solution of one normalised conjunct, or ``None``."""
    equalities, inequalities = conjunct
    rows = list(itertools.chain(equalities, inequalities))
    index: Dict[str, int] = {}
    for coeffs, _bound in rows:
        for name, _coeff in coeffs:
            index.setdefault(name, len(index))
    if not index:
        return {}
    _bind_scipy()
    _MILP_CALLS.inc()
    n = len(index)
    matrix = _np.zeros((len(rows), n))
    for row, (coeffs, _bound) in enumerate(rows):
        for name, coeff in coeffs:
            matrix[row, index[name]] = coeff
    upper = _np.array([float(bound) for _coeffs, bound in rows])
    lower = upper.copy()
    lower[len(equalities):] = -_np.inf
    started = time.perf_counter()
    result = _milp(
        c=_np.zeros(n),
        constraints=_LinearConstraint(matrix, lower, upper),
        integrality=_np.ones(n),
        bounds=_Bounds(0, _np.inf),
    )
    _MILP_SECONDS.observe(time.perf_counter() - started)
    if not result.success or result.x is None:
        return None
    return {name: int(round(result.x[column])) for name, column in index.items()}


def solve_existential(
    formula: Formula,
    wanted: Optional[Iterable[str]] = None,
) -> Optional[Dict[str, int]]:
    """Find a satisfying assignment over the naturals, or ``None``.

    All variables — free and existentially bound — range over non-negative
    integers.  When ``wanted`` is given, only those variables are reported
    (missing ones default to 0 in the result).  This is the oracle's witness
    finder: one dense MILP per conjunct, independent of the elastic program
    behind :func:`is_satisfiable`.  Raises :class:`repro.errors.PresburgerError`
    without SciPy when a conjunct needs the MILP.
    """
    # Free variables keep their names: only bound ones are renamed apart.
    for conjunct in formula_to_problem(formula):
        solution = _solve_dense(conjunct)
        if solution is not None:
            if wanted is None:
                return solution
            return {name: solution.get(name, 0) for name in wanted}
    return None


def small_model_bound(formula_size: int, num_variables: int, alternations: int = 1) -> int:
    """The Weispfenning small-model bound of Proposition 6.3, as a log₂ value.

    For a prenex PA formula ``Φ`` with ``k`` quantifier alternations, matrix size
    ``|ϕ|`` and variables ``x̄``, Proposition 6.3 states that ``Φ`` is valid iff
    it is valid when variables are restricted to ``{0, ..., B}`` where
    ``log(B) = O(|ϕ|^(3·|x̄|^k))``.  This helper returns that exponent (with the
    hidden constant taken as 1), i.e. ``log₂(B)``; the bound itself is usually
    astronomically large, which is exactly the point the paper makes when it
    concludes that counter-examples for full ShEx have double-exponential
    compressed representations.
    """
    if formula_size < 1 or num_variables < 1:
        raise PresburgerError("formula size and variable count must be positive")
    return formula_size ** (3 * num_variables ** alternations)
