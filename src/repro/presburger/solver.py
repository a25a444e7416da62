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

Three mechanisms make the repeated, structurally similar queries of the
maximal-typing fixpoint cheap:

* **normalised systems** — conjuncts are exposed as hashable coefficient rows
  (:func:`normalise_conjunct`), so callers such as
  :meth:`repro.engine.compiled.CompiledType.normalised_template` can cache the
  DNF/matrix form of a formula once and re-assemble per-node systems without
  ever rebuilding formula trees;
* **memoisation** — :func:`is_satisfiable` (and the batch entry point) key
  results by a canonical fingerprint of the normalised system
  (:func:`problem_fingerprint`, variable names canonically renamed), so the
  thousands of isomorphic formulas a large graph produces are solved once;
* **batching** — :func:`solve_problems` answers a whole round of independent
  feasibility questions with a *single* ``milp`` invocation: every conjunct
  becomes one block of an elastic block-diagonal program whose slack variables
  are minimised, and a block is feasible exactly when its optimal slack is 0;
* **warm-starts** — every feasible solve's witness is harvested into a cache
  keyed by the conjunct's *bounds-free* structure (the constraint matrix
  without its right-hand side).  A new query whose structure matches probes
  the cached witness against its own bounds first; verification is exact, so
  a positive probe short-circuits the MILP entirely.  This fires when only
  bound constants drift between rounds — e.g. a schema widened from ``1`` to
  ``?`` loosens an inequality bound and the old witness still satisfies it.

It also exposes :func:`small_model_bound`, the bound of Proposition 6.3
(Weispfenning) that the paper uses to bound the size of compressed
counter-examples.
"""

from __future__ import annotations

import importlib.util
import itertools
import threading
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


def milp_available() -> bool:
    """Whether SciPy's MILP can be reached (without importing SciPy)."""
    return _HAVE_SCIPY


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
    memo_hits: int = 0
    milp_calls: int = 0
    batch_calls: int = 0
    batch_blocks: int = 0
    warm_hits: int = 0
    warm_misses: int = 0

    @property
    def solver_calls(self) -> int:
        """Actual optimisation runs (one batched call counts once)."""
        return self.milp_calls + self.batch_calls


_SAT_MEMO: Dict[Tuple, bool] = {}
_SAT_MEMO_LIMIT = 65536
_MEMO_LOCK = threading.Lock()

#: Warm-start witnesses: bounds-free conjunct structure -> canonical solution
#: values.  Unlike ``_SAT_MEMO`` (exact fingerprint -> verdict) this survives
#: bound drift: the key ignores right-hand sides, and a probe re-verifies the
#: stored witness against the query's actual bounds before trusting it.
_WARM_CACHE: Dict[Tuple, Tuple[int, ...]] = {}
_WARM_LIMIT = 4096

# Registry-backed counters (monotone, thread-safe, Prometheus-exposed).  The
# old module-global ``SolverStats`` object was a footgun: process-wide,
# never reset between engine instances, and racy under the thread backend.
# Readers now take *windows* over these counters instead (see
# :class:`SolverWindow`), so one consumer's reset never zeroes another's.
_REGISTRY = _obs_metrics.get_registry()
_SAT_CHECKS = _REGISTRY.counter(
    "repro_solver_sat_checks_total", "Satisfiability queries, however answered."
)
_MEMO_HITS = _REGISTRY.counter(
    "repro_solver_memo_hits_total", "Queries answered from the fingerprint memo."
)
_MILP_CALLS = _REGISTRY.counter(
    "repro_solver_milp_calls_total", "Single-system scipy milp invocations."
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
    "Wall time of one MILP invocation (single-system or batched).",
)
_WARM_HITS = _REGISTRY.counter(
    "repro_solver_warm_hits_total",
    "Queries short-circuited by a verified warm-start witness.",
)
_WARM_MISSES = _REGISTRY.counter(
    "repro_solver_warm_misses_total",
    "Warm-start probes that found no reusable witness.",
)

#: Counter names backing :class:`SolverStats` fields, in field order.
_COUNTER_NAMES = (
    ("sat_checks", "repro_solver_sat_checks_total"),
    ("memo_hits", "repro_solver_memo_hits_total"),
    ("milp_calls", "repro_solver_milp_calls_total"),
    ("batch_calls", "repro_solver_batch_calls_total"),
    ("batch_blocks", "repro_solver_batch_blocks_total"),
    ("warm_hits", "repro_solver_warm_hits_total"),
    ("warm_misses", "repro_solver_warm_misses_total"),
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


def reset_solver_state() -> None:
    """Clear the satisfiability memo and the warm-start witness cache.

    The registry counters stay monotone (Prometheus semantics); readers take
    their own :class:`SolverWindow`.
    """
    with _MEMO_LOCK:
        _SAT_MEMO.clear()
        _WARM_CACHE.clear()


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


def problem_fingerprint(problem: Problem) -> Tuple:
    """A canonical, hashable fingerprint of a normalised problem.

    Variables are renamed to their first-occurrence index and each row's items
    re-sorted by that index, so two problems that differ only by a variable
    bijection (e.g. the per-node formulas of isomorphic neighbourhoods) share
    one fingerprint — the key of the satisfiability memo.
    """
    rename: Dict[str, int] = {}
    canonical: List[Tuple] = []
    for equalities, inequalities in problem:
        rows: List[Tuple] = []
        for group in (equalities, inequalities):
            canon_group: List[Row] = []
            for coeffs, bound in group:
                items = []
                for name, coeff in coeffs:
                    index = rename.setdefault(name, len(rename))
                    items.append((index, coeff))
                items.sort()
                canon_group.append((tuple(items), bound))
            rows.append(tuple(canon_group))
        canonical.append((rows[0], rows[1]))
    return tuple(canonical)


# --------------------------------------------------------------------------- #
# Warm-start witnesses
# --------------------------------------------------------------------------- #
def _conjunct_structure(conjunct: Conjunct) -> Tuple:
    """A canonical key for a conjunct's constraint matrix, bounds excluded.

    Variables are renamed to first-occurrence indices exactly as in
    :func:`problem_fingerprint`, but the right-hand-side constants are left
    out: two conjuncts share a structure when they differ only in bounds —
    the case a cached witness has a chance of surviving.
    """
    rename: Dict[str, int] = {}
    groups: List[Tuple] = []
    for group in conjunct:
        canon_group: List[Tuple] = []
        for coeffs, _bound in group:
            items = []
            for name, coeff in coeffs:
                index = rename.setdefault(name, len(rename))
                items.append((index, coeff))
            items.sort()
            canon_group.append(tuple(items))
        groups.append(tuple(canon_group))
    return (groups[0], groups[1])


def _canonical_values(conjunct: Conjunct, solution: Dict[str, int]) -> Tuple[int, ...]:
    """A solution as a tuple indexed by the structure's canonical variable order."""
    rename: Dict[str, int] = {}
    for group in conjunct:
        for coeffs, _bound in group:
            for name, _coeff in coeffs:
                rename.setdefault(name, len(rename))
    values = [0] * len(rename)
    for name, index in rename.items():
        values[index] = int(solution.get(name, 0))
    return tuple(values)


def _witness_satisfies(conjunct: Conjunct, values: Tuple[int, ...]) -> bool:
    """Exactly verify a canonical witness against a conjunct's actual rows."""
    rename: Dict[str, int] = {}
    for is_equality, group in ((True, conjunct[0]), (False, conjunct[1])):
        for coeffs, bound in group:
            total = 0
            for name, coeff in coeffs:
                index = rename.setdefault(name, len(rename))
                if index >= len(values):
                    return False
                total += coeff * values[index]
            violated = (total != bound) if is_equality else (total > bound)
            if violated:
                return False
    return True


def _warm_store(conjunct: Conjunct, solution: Dict[str, int]) -> None:
    """Harvest a feasible solve's witness for structure-keyed reuse."""
    if not conjunct[0] and not conjunct[1]:
        return
    structure = _conjunct_structure(conjunct)
    values = _canonical_values(conjunct, solution)
    with _MEMO_LOCK:
        if len(_WARM_CACHE) >= _WARM_LIMIT:
            _WARM_CACHE.clear()
        _WARM_CACHE[structure] = values


def _warm_probe(problem: Problem) -> bool:
    """True when a cached witness verifiably satisfies some conjunct.

    Only the positive answer short-circuits: a witness failing under the new
    bounds proves nothing about feasibility, so ``False`` means *no shortcut*,
    never *unsatisfiable*.
    """
    if not _WARM_CACHE:
        return False
    for conjunct in problem:
        witness = _WARM_CACHE.get(_conjunct_structure(conjunct))
        if witness is not None and _witness_satisfies(conjunct, witness):
            _WARM_HITS.inc()
            return True
    _WARM_MISSES.inc()
    return False


# --------------------------------------------------------------------------- #
# Linear feasibility over the naturals
# --------------------------------------------------------------------------- #
def _rows_to_dicts(rows: Sequence[Row]) -> List[Tuple[Dict[str, int], int]]:
    return [(dict(coeffs), bound) for coeffs, bound in rows]


def _solve_rows(
    equalities: Sequence[Row], inequalities: Sequence[Row]
) -> Optional[Dict[str, int]]:
    """Find a non-negative integer solution of one normalised conjunct."""
    variables: List[str] = []
    seen = set()
    for coeffs, _bound in itertools.chain(equalities, inequalities):
        for name, _coeff in coeffs:
            if name not in seen:
                seen.add(name)
                variables.append(name)
    if not variables:
        return {}
    return _solve_with_milp(
        variables, _rows_to_dicts(equalities), _rows_to_dicts(inequalities)
    )


def _solve_conjunct(atoms: Sequence[Comparison]) -> Optional[Dict[str, int]]:
    """Find a non-negative integer solution of a conjunction of atoms."""
    normalised = normalise_conjunct(atoms)
    if normalised is None:
        return None
    return _solve_rows(*normalised)


def _solve_with_milp(variables, equalities, inequalities) -> Optional[Dict[str, int]]:
    _bind_scipy()
    _MILP_CALLS.inc()
    index = {name: i for i, name in enumerate(variables)}
    n = len(variables)
    constraints = []
    if equalities:
        matrix = _np.zeros((len(equalities), n))
        rhs = _np.zeros(len(equalities))
        for row, (coeffs, bound) in enumerate(equalities):
            for name, coeff in coeffs.items():
                matrix[row, index[name]] = coeff
            rhs[row] = bound
        constraints.append(_LinearConstraint(matrix, rhs, rhs))
    if inequalities:
        matrix = _np.zeros((len(inequalities), n))
        rhs = _np.zeros(len(inequalities))
        for row, (coeffs, bound) in enumerate(inequalities):
            for name, coeff in coeffs.items():
                matrix[row, index[name]] = coeff
            rhs[row] = bound
        constraints.append(_LinearConstraint(matrix, -_np.inf, rhs))
    started = time.perf_counter()
    result = _milp(
        c=_np.zeros(n),
        constraints=constraints,
        integrality=_np.ones(n),
        bounds=_Bounds(0, _np.inf),
    )
    _MILP_SECONDS.observe(time.perf_counter() - started)
    if not result.success or result.x is None:
        return None
    return {name: int(round(result.x[index[name]])) for name in variables}


# --------------------------------------------------------------------------- #
# Batched feasibility: one elastic MILP for many independent systems
# --------------------------------------------------------------------------- #
#: Blocks per single batched ``milp`` call; rounds larger than this are split.
_BATCH_BLOCK_LIMIT = 256


def _solve_blocks_elastic(
    blocks: Sequence[Conjunct],
) -> Optional[Tuple[List[bool], List[Optional[Dict[str, int]]]]]:
    """Feasibility of many variable-disjoint systems via one elastic MILP.

    Every block's rows are made elastic — equalities get a slack pair
    ``+s⁺ − s⁻``, inequalities a surplus ``−s`` — and the total slack is
    minimised.  Blocks are variable-disjoint, so the optimum decomposes: a
    block is feasible exactly when its own slack sum is zero (over integer
    data an infeasible block contributes at least 1).  Returns the per-block
    verdicts together with each feasible block's witness assignment (``None``
    for infeasible blocks), or ``None`` when the solver fails, letting the
    caller fall back to per-block solving.
    """
    _bind_scipy()
    rows_i: List[int] = []  # COO triplets of the combined constraint matrix
    cols_j: List[int] = []
    data: List[float] = []
    lower: List[float] = []
    upper: List[float] = []
    objective: List[float] = []
    block_slack_columns: List[List[int]] = []
    block_columns: List[Dict[str, int]] = []
    row_count = 0
    column_count = 0

    def new_column(cost: float) -> int:
        nonlocal column_count
        objective.append(cost)
        column_count += 1
        return column_count - 1

    for equalities, inequalities in blocks:
        columns: Dict[str, int] = {}
        block_columns.append(columns)
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
        return None
    verdicts: List[bool] = []
    witnesses: List[Optional[Dict[str, int]]] = []
    for slack_columns, columns in zip(block_slack_columns, block_columns):
        slack_total = float(sum(result.x[column] for column in slack_columns))
        feasible = slack_total < 0.5
        verdicts.append(feasible)
        if feasible:
            witnesses.append(
                {name: int(round(result.x[column])) for name, column in columns.items()}
            )
        else:
            witnesses.append(None)
    return verdicts, witnesses


def solve_problem(problem: Problem) -> bool:
    """Satisfiability of one normalised problem (any conjunct feasible)."""
    for equalities, inequalities in problem:
        if not equalities and not inequalities:
            return True
        solution = _solve_rows(equalities, inequalities)
        if solution is not None:
            _warm_store((equalities, inequalities), solution)
            return True
    return False


def _memo_get(fingerprint: Tuple) -> Optional[bool]:
    verdict = _SAT_MEMO.get(fingerprint)
    if verdict is not None:
        _MEMO_HITS.inc()
    return verdict


def _memo_put(fingerprint: Tuple, verdict: bool) -> None:
    with _MEMO_LOCK:
        if len(_SAT_MEMO) >= _SAT_MEMO_LIMIT:
            _SAT_MEMO.clear()
        _SAT_MEMO[fingerprint] = verdict


def solve_problems(problems: Sequence[Problem]) -> List[bool]:
    """Satisfiability of many independent problems, batched and memoised.

    Trivial problems are decided structurally; repeated problems (within the
    batch or across calls) are answered from the fingerprint memo; the
    remaining conjuncts are packed into as few elastic MILP invocations as
    possible (see :func:`_solve_blocks_elastic`).  Intended for the
    per-refinement-round check batches of :mod:`repro.engine.fixpoint`.
    Raises :class:`repro.errors.PresburgerError` without SciPy when some
    problem needs the MILP.
    """
    _faults.maybe_fail("solver")
    _SAT_CHECKS.inc(len(problems))
    verdicts: List[Optional[bool]] = [None] * len(problems)
    pending: List[Tuple[int, Tuple]] = []  # (problem index, fingerprint)
    pending_keys: Dict[Tuple, List[int]] = {}
    for position, problem in enumerate(problems):
        if not problem:
            verdicts[position] = False
            continue
        if any(not eqs and not les for eqs, les in problem):
            verdicts[position] = True
            continue
        fingerprint = problem_fingerprint(problem)
        known = _memo_get(fingerprint)
        if known is not None:
            verdicts[position] = known
            continue
        if fingerprint in pending_keys:
            pending_keys[fingerprint].append(position)
            continue
        if _warm_probe(problem):
            verdicts[position] = True
            _memo_put(fingerprint, True)
            continue
        pending_keys[fingerprint] = [position]
        pending.append((position, fingerprint))

    if pending:
        _solve_pending_batched(problems, pending, pending_keys, verdicts)
    return [bool(verdict) for verdict in verdicts]


def _solve_pending_batched(problems, pending, pending_keys, verdicts) -> None:
    """Solve the deduplicated cache misses of one batch, chunked by block count."""
    cursor = 0
    while cursor < len(pending):
        chunk: List[Tuple[int, Tuple]] = []
        blocks: List[Conjunct] = []
        block_owner: List[int] = []  # index into `chunk`
        while cursor < len(pending) and len(blocks) < _BATCH_BLOCK_LIMIT:
            position, fingerprint = pending[cursor]
            owner = len(chunk)
            chunk.append((position, fingerprint))
            for conjunct in problems[position]:
                blocks.append(conjunct)
                block_owner.append(owner)
            cursor += 1
        _BATCH_CALLS.inc()
        _BATCH_BLOCKS.inc(len(blocks))
        _BATCH_SIZE.observe(len(blocks))
        with _obs_tracing.span("presburger.batch", blocks=len(blocks)):
            solved = _solve_blocks_elastic(blocks)
        if solved is not None:
            block_verdicts, block_witnesses = solved
            for block, feasible, witness in zip(blocks, block_verdicts, block_witnesses):
                if feasible and witness is not None:
                    _warm_store(block, witness)
        for owner, (position, fingerprint) in enumerate(chunk):
            if solved is None:
                # Solver failure: fall back to the per-conjunct path.
                verdict = solve_problem(problems[position])
            else:
                verdict = any(
                    feasible
                    for feasible, block_of in zip(block_verdicts, block_owner)
                    if block_of == owner
                )
            _memo_put(fingerprint, verdict)
            for shared in pending_keys[fingerprint]:
                verdicts[shared] = verdict


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #
def solve_existential(
    formula: Formula,
    wanted: Optional[Iterable[str]] = None,
) -> Optional[Dict[str, int]]:
    """Find a satisfying assignment over the naturals, or ``None``.

    All variables — free and existentially bound — range over non-negative
    integers.  When ``wanted`` is given, only those variables are reported
    (missing ones default to 0 in the result).  Unlike :func:`is_satisfiable`
    this path is not memoised: it must produce a concrete witness.  Raises
    :class:`repro.errors.PresburgerError` without SciPy when a conjunct needs
    the MILP.
    """
    renamed = _rename(formula, {})
    # Free variables keep their names because _rename only renames bound ones.
    for conjunct in _to_dnf(renamed):
        solution = _solve_conjunct(conjunct)
        if solution is not None:
            if wanted is None:
                return solution
            return {name: solution.get(name, 0) for name in wanted}
    return None


def is_satisfiable(formula: Formula) -> bool:
    """True when the formula has a model over the naturals.

    Results are memoised by the canonical fingerprint of the normalised
    system, so isomorphic formulas (same structure, different variable names)
    are solved once per process.
    """
    _faults.maybe_fail("solver")
    _SAT_CHECKS.inc()
    problem = formula_to_problem(formula)
    if not problem:
        return False
    if any(not eqs and not les for eqs, les in problem):
        return True
    fingerprint = problem_fingerprint(problem)
    known = _memo_get(fingerprint)
    if known is not None:
        return known
    if _warm_probe(problem):
        _memo_put(fingerprint, True)
        return True
    verdict = solve_problem(problem)
    _memo_put(fingerprint, verdict)
    return verdict


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
