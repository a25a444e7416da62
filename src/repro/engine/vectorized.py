"""Vectorised fixpoint rounds: bitset typing rows over CSR neighbourhoods.

The object kernel in :mod:`repro.engine.fixpoint` walks per-``(node, type)``
Python sets; this module re-represents one kernel run as arrays so a whole
refinement round executes as numpy ops:

* **Typing rows.**  The candidate relation is a ``(nodes, W)`` uint64 matrix
  (``W = ceil(|Γ| / 64)``): bit ``τ`` of row ``n`` means ``(n, type_order[τ])``
  is still a candidate.  Dirtiness is a second bitset of identical shape.

* **CSR neighbourhoods.**  Out-edges of the active nodes are flattened once
  per run into ``indptr``/``label``/``target``/``multiplicity`` arrays (and
  in-edges likewise, for dirtiness propagation), so a round gathers every
  dirty pair's neighbourhood with ``repeat``/``cumsum`` index arithmetic
  instead of per-node ``out_edges`` calls.

* **Hashed signatures.**  A pair's verdict depends only on its type and the
  multiset of ``(label[, multiplicity], candidate options)`` over its edges.
  Each edge contributes a pair of splitmix64-style 64-bit mixes; summing per
  pair (addition is commutative, matching multiset semantics) yields a
  128-bit key ``(τ, h₁, h₂)`` that coexists with the object kernel's
  structural keys in one shared ``signature_memo`` (int tuples cannot collide
  with its string tuples).  Only the unique keys of a round reach Python:
  memo lookups, plus one representative evaluation per genuinely new
  signature (``satisfies_type_groups`` for plain semantics and for
  compressed rules with per-symbol bounds, one batched
  :func:`repro.presburger.solver.solve_problems` call for the other
  compressed rules).

The schedule is synchronous Jacobi over the whole active set rather than the
object kernel's SCC-ordered Gauss-Seidel: chaotic iteration of the monotone
elimination operator reaches the same greatest fixpoint under any schedule,
which the parity suites assert against :mod:`repro.schema.reference`.  A
vectorised run therefore reports ``FixpointStats.components == 0`` (no
condensation is built).

:mod:`repro.engine.fixpoint` runs :func:`stabilise` on active regions of at
least ``VECTORIZE_MIN_NODES`` nodes, importing this module (and numpy) on the
first such region; smaller regions, and every region without numpy, run the
object kernel.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

try:  # pragma: no cover - exercised implicitly on import
    import numpy as np

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None
    _HAVE_NUMPY = False

from repro.engine.fixpoint import _assemble_problem, _out_labels
from repro.schema.typing import edge_groups, satisfies_type_groups

NodeId = Hashable

# splitmix64 constants; distinct stream seeds keep plain and compressed edge
# hashes (and the two 64-bit halves of a key) statistically independent.
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_PLAIN = 0x51_7E_AD_5E_ED_00_00_01
_SEED_COMPRESSED = 0x51_7E_AD_5E_ED_00_00_02
_HALF_1 = 0xA5A5A5A5A5A5A5A5
_HALF_2 = 0xC3C3C3C3C3C3C3C3


def available() -> bool:
    """Whether numpy is importable in this process."""
    return _HAVE_NUMPY


def _mix(values):
    """splitmix64 finaliser over a uint64 array (vectorised, wrapping)."""
    x = values + np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_2)
    x ^= x >> np.uint64(31)
    return x


def _segment_positions(starts, degrees, total):
    """Flat CSR positions of every (segment, local offset) pair.

    ``repeat(starts) + (arange(total) - repeat(segment_offsets))`` — the
    standard trick giving, for each expanded element, its index into the flat
    edge arrays without a Python loop.
    """
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    local = np.arange(total, dtype=np.intp) - np.repeat(offsets[:-1], degrees)
    return np.repeat(starts, degrees) + local, offsets


def _segment_reduce(ufunc, values, offsets, degrees, empty):
    """Per-segment ``ufunc`` reduction of ``values`` laid out by ``offsets``.

    ``reduceat`` with two repairs for its empty-segment semantics: trailing
    empty segments (whose start index would fall past the end of ``values``)
    are cut off before the call, and empty segments in general — where
    ``reduceat`` returns ``values[start]`` instead of an identity — are
    overwritten with ``empty``.  Much faster than the equivalent unbuffered
    ``ufunc.at`` scatter on large rounds.
    """
    starts = offsets[:-1]
    count = starts.shape[0]
    total = values.shape[0]
    if count and starts[count - 1] >= total:
        valid = int(np.searchsorted(starts, total, side="left"))
        result = np.full(count, empty, dtype=values.dtype)
        if valid:
            result[:valid] = ufunc.reduceat(values, starts[:valid])
    else:
        result = ufunc.reduceat(values, starts)
    result[degrees == 0] = empty
    return result


class _Plan:
    """One run's flattened neighbourhood: CSR arrays over positional node ids.

    Active nodes occupy positions ``0..n_active-1`` (sorted by ``repr`` for
    determinism); *boundary* nodes — out-edge targets outside the active set,
    whose candidate types are read frozen — follow.  ``out_*`` arrays hold the
    active nodes' out-edges in CSR form (``label`` as an index into the
    schema's ``label_order``, with ``len(label_order)`` the unknown-label
    sentinel); ``in_*`` the active-to-active in-edges used for dirtiness
    propagation.  ``label_sets`` lists the distinct out-label sets of the
    active nodes (edges of multiplicity 0 left out under the compressed
    semantics) and ``label_set_of`` gives each active node's entry: the
    input of its label seed.  Plans for whole-graph runs are cached on the
    graph keyed by ``(graph.revision, schema fingerprint, compressed)``, so
    repeated full typings of an unchanged graph skip the Python flattening
    pass entirely.
    """

    __slots__ = (
        "active_list",
        "n_active",
        "boundary",
        "label_sets",
        "label_set_of",
        "out_ptr",
        "out_label",
        "out_tgt",
        "out_mult",
        "in_ptr",
        "in_src",
        "in_label",
    )

    def __init__(
        self, graph, active_list: List[NodeId], label_index, sentinel: int,
        compressed: bool,
    ):
        self.active_list = active_list
        n_active = self.n_active = len(active_list)
        position = {node: i for i, node in enumerate(active_list)}
        out_ptr: List[int] = [0]
        out_label: List[int] = []
        out_tgt: List[int] = []
        out_mult: List[int] = []
        boundary: List[NodeId] = []
        label_sets: Dict[FrozenSet, int] = {}
        label_set_of: List[int] = []
        for node in active_list:
            for edge in graph.out_edges(node):
                tpos = position.get(edge.target)
                if tpos is None:
                    tpos = n_active + len(boundary)
                    position[edge.target] = tpos
                    boundary.append(edge.target)
                out_label.append(label_index.get(edge.label, sentinel))
                out_tgt.append(tpos)
                out_mult.append(edge.occur.lower)
            out_ptr.append(len(out_tgt))
            labels = _out_labels(graph, node, compressed)
            label_set_of.append(label_sets.setdefault(labels, len(label_sets)))
        in_ptr: List[int] = [0]
        in_src: List[int] = []
        in_label: List[int] = []
        for node in active_list:
            for edge in graph.in_edges(node):
                spos = position.get(edge.source)
                if spos is not None and spos < n_active:
                    in_src.append(spos)
                    in_label.append(label_index.get(edge.label, sentinel))
            in_ptr.append(len(in_src))
        self.boundary = boundary
        self.label_sets = list(label_sets)
        self.label_set_of = np.asarray(label_set_of, dtype=np.intp)
        self.out_ptr = np.asarray(out_ptr, dtype=np.intp)
        self.out_label = np.asarray(out_label, dtype=np.intp)
        self.out_tgt = np.asarray(out_tgt, dtype=np.intp)
        self.out_mult = np.asarray(out_mult, dtype=np.int64)
        self.in_ptr = np.asarray(in_ptr, dtype=np.intp)
        self.in_src = np.asarray(in_src, dtype=np.intp)
        self.in_label = np.asarray(in_label, dtype=np.intp)


def stabilise(
    graph,
    active,
    current: Dict[NodeId, Set],
    compiled,
    compressed: bool,
    signature_memo: Dict[Tuple, bool],
    stats,
) -> None:
    """Drive ``active`` to its greatest fixpoint with array rounds.

    ``active`` nodes are reseeded with their label seeds
    (:meth:`repro.engine.compiled.CompiledSchema.label_seed`, as in the
    object kernel); nodes that
    ``active``'s out-edges reach outside the set are *boundary* nodes whose
    candidate types are read frozen from ``current`` and never re-examined,
    matching the object kernel's cross-region reads.  On return, ``current``
    holds the stabilised type set (a frozenset) of every active node.
    """
    tables = compiled.dense_tables()
    type_order = tables.type_order
    type_count = len(type_order)
    if type_count == 0 or not active:
        for node in active:
            current[node] = frozenset()
        return
    words = tables.words
    label_index = compiled.label_index
    label_names = tables.label_order
    sentinel = len(label_names)

    # Whole-graph runs reuse the flattened plan while the graph (and schema)
    # are unchanged; partial (incremental) runs flatten their small region.
    plan: Optional[_Plan] = None
    cache_key = None
    if len(active) == graph.node_count:
        cache_key = (graph.revision, compiled.fingerprint, compressed)
        cached = getattr(graph, "_vectorized_plan", None)
        if cached is not None and cached[0] == cache_key:
            plan = cached[1]
    if plan is None:
        plan = _Plan(graph, sorted(active, key=repr), label_index, sentinel, compressed)
        if cache_key is not None:
            graph._vectorized_plan = (cache_key, plan)

    active_list = plan.active_list
    n_active = plan.n_active
    boundary = plan.boundary
    out_ptr_a = plan.out_ptr
    out_label_a = plan.out_label
    out_tgt_a = plan.out_tgt
    out_mult_a = plan.out_mult
    in_ptr_a = plan.in_ptr
    in_src_a = plan.in_src
    in_label_a = plan.in_label

    type_index = compiled.type_index
    seed_rows = np.zeros((len(plan.label_sets), words), dtype=np.uint64)
    for row, labels in zip(seed_rows, plan.label_sets):
        for type_name in compiled.label_seed(labels):
            row |= tables.bit_rows[type_index[type_name]]
    bits = np.zeros((n_active + len(boundary), words), dtype=np.uint64)
    bits[:n_active] = seed_rows[plan.label_set_of]
    for offset, node in enumerate(boundary):
        row = bits[n_active + offset]
        for type_name in current[node]:
            t_pos = type_index.get(type_name)
            if t_pos is not None:
                row |= tables.bit_rows[t_pos]
    dirty = bits[:n_active].copy()

    word_of = tables.word_of
    shift_of = tables.shift_of
    option_masks = tables.option_masks
    watcher_masks = tables.watcher_masks
    keep_rows = ~tables.bit_rows  # (T, W): clear one type's bit
    seed = np.uint64(_SEED_COMPRESSED if compressed else _SEED_PLAIN)

    options_cache: Dict[bytes, Tuple] = {}

    def _options_of(row) -> Tuple:
        key = row.tobytes()
        names = options_cache.get(key)
        if names is None:
            names = tuple(
                type_order[t]
                for t in range(type_count)
                if (int(row[t >> 6]) >> (t & 63)) & 1
            )
            options_cache[key] = names
        return names

    while True:
        cand = dirty & bits[:n_active]
        rows = np.nonzero(cand.any(axis=1))[0]
        if rows.size == 0:
            break
        stats.rounds += 1
        member = (cand[rows][:, word_of] >> shift_of) & np.uint64(1)  # (D, T)
        pair_row, pair_type = np.nonzero(member)
        pair_node = rows[pair_row]
        dirty[rows] = 0
        pair_count = pair_node.size
        stats.checks += pair_count

        starts = out_ptr_a[pair_node]
        degrees = out_ptr_a[pair_node + 1] - starts
        total = int(degrees.sum())
        fail = np.zeros(pair_count, dtype=bool)
        acc1 = np.zeros(pair_count, dtype=np.uint64)
        acc2 = np.zeros(pair_count, dtype=np.uint64)
        labels = np.empty(0, dtype=np.intp)
        mults = np.empty(0, dtype=np.int64)
        options = np.empty((0, words), dtype=np.uint64)
        pair_offsets = np.zeros(pair_count + 1, dtype=np.intp)
        if total:
            edge_pos, pair_offsets = _segment_positions(starts, degrees, total)
            edge_pair = np.repeat(np.arange(pair_count, dtype=np.intp), degrees)
            labels = out_label_a[edge_pos]
            targets = out_tgt_a[edge_pos]
            options = bits[targets] & option_masks[pair_type[edge_pair], labels]
            empty = ~options.any(axis=1)
            if compressed:
                mults = out_mult_a[edge_pos]
                positive = mults > 0
                edge_fail = empty & positive
                contributes = positive & ~empty
            else:
                edge_fail = empty
                contributes = ~empty
            fail = _segment_reduce(
                np.logical_or, edge_fail, pair_offsets, degrees, False
            )
            hashed = _mix(labels.astype(np.uint64) + seed)
            if compressed:
                hashed = _mix(hashed ^ _mix(mults.astype(np.uint64)))
            for w in range(words):
                hashed = _mix(hashed ^ options[:, w])
            half1 = _mix(hashed ^ np.uint64(_HALF_1))
            half2 = _mix(hashed ^ np.uint64(_HALF_2))
            half1[~contributes] = 0
            half2[~contributes] = 0
            acc1 = _segment_reduce(np.add, half1, pair_offsets, degrees, 0)
            acc2 = _segment_reduce(np.add, half2, pair_offsets, degrees, 0)

        verdicts = np.zeros(pair_count, dtype=bool)
        ok = np.nonzero(~fail)[0]
        stats.shortcut_failures += pair_count - ok.size
        if ok.size:
            keys = np.empty((ok.size, 3), dtype=np.uint64)
            keys[:, 0] = pair_type[ok].astype(np.uint64)
            keys[:, 1] = acc1[ok]
            keys[:, 2] = acc2[ok]
            uniq, first, inverse = np.unique(
                keys, axis=0, return_index=True, return_inverse=True
            )
            inverse = inverse.reshape(-1)
            unique_verdicts = np.zeros(uniq.shape[0], dtype=bool)
            misses: List[int] = []
            miss_keys: List[Tuple[int, int, int]] = []
            for u in range(uniq.shape[0]):
                key = (int(uniq[u, 0]), int(uniq[u, 1]), int(uniq[u, 2]))
                known = signature_memo.get(key)
                if known is None:
                    misses.append(u)
                    miss_keys.append(key)
                else:
                    unique_verdicts[u] = known
            stats.signature_hits += ok.size - len(misses)
            if misses:
                problems = []
                problem_misses: List[Tuple[int, Tuple[int, int, int]]] = []
                for u, key in zip(misses, miss_keys):
                    representative = int(ok[int(first[u])])
                    type_name = type_order[int(pair_type[representative])]
                    artifact = compiled.type_artifact(type_name)
                    lo = int(pair_offsets[representative])
                    hi = int(pair_offsets[representative + 1])
                    # Plain edges count once each; compressed edges by their
                    # multiplicity (zero-multiplicity edges contribute nothing).
                    counts = mults[lo:hi] if compressed else [1] * (hi - lo)
                    descriptions = [
                        (label_names[labels[j]], int(count), _options_of(options[j]))
                        for j, count in zip(range(lo, hi), counts)
                        if count > 0
                    ]
                    if compressed and artifact.group_bounds is None:
                        problems.append(_assemble_problem(artifact, descriptions))
                        problem_misses.append((u, key))
                        continue
                    verdict = bool(satisfies_type_groups(artifact, edge_groups(descriptions)))
                    signature_memo[key] = verdict
                    unique_verdicts[u] = verdict
                if problems:
                    from repro.presburger.solver import solve_problems

                    stats.solver_problems += len(problems)
                    solved = solve_problems(problems)
                    for (u, key), verdict in zip(problem_misses, solved):
                        signature_memo[key] = bool(verdict)
                        unique_verdicts[u] = bool(verdict)
            verdicts[ok] = unique_verdicts[inverse]

        removed = np.nonzero(~verdicts)[0]
        if removed.size == 0:
            continue
        stats.removals += removed.size
        removed_nodes = pair_node[removed]
        removed_types = pair_type[removed]
        np.bitwise_and.at(bits, removed_nodes, keep_rows[removed_types])
        if in_src_a.size:
            r_starts = in_ptr_a[removed_nodes]
            r_degrees = in_ptr_a[removed_nodes + 1] - r_starts
            r_total = int(r_degrees.sum())
            if r_total:
                r_pos, _ = _segment_positions(r_starts, r_degrees, r_total)
                r_owner = np.repeat(
                    np.arange(removed.size, dtype=np.intp), r_degrees
                )
                sources = in_src_a[r_pos]
                masks = watcher_masks[in_label_a[r_pos], removed_types[r_owner]]
                np.bitwise_or.at(dirty, sources, masks)

    unpack_cache: Dict[bytes, frozenset] = {}
    for i, node in enumerate(active_list):
        key = bits[i].tobytes()
        types = unpack_cache.get(key)
        if types is None:
            row = bits[i]
            types = frozenset(
                type_order[t]
                for t in range(type_count)
                if (int(row[t >> 6]) >> (t & 63)) & 1
            )
            unpack_cache[key] = types
        current[node] = types
