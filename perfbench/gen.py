"""Seeded inputs with verdicts known by construction.

Five graph shapes share one schema (:data:`SCHEMA_TEXT`) over disjoint
predicates, so one schema validates every document and every daemon store:

* ``clone`` — disjoint copies of the Figure 1 bug-tracker instance;
* ``list`` — ``rdf:first``/``rdf:rest`` lists ending in ``rdf:nil``;
* ``tree`` — deep random trees (each node hangs below one of the 8 newest);
* ``powerlaw`` — preferential-attachment ``related`` DAGs;
* ``hub`` — RBE0 hubs whose ``item`` counts sit on or next to ``[LO;HI]``.

A :class:`Model` is the benchmark's own copy of a graph.  Violations are
planted as one extra edge (a second ``descr``/``first``/``label``/``title``
literal, or items past ``HI``), which makes exactly that node fail its only
possible type.  Every rule requires each outgoing edge's target to be typed,
so the untyped set is the broken nodes plus everything that reaches them —
:meth:`Model.untyped` computes it over the reverse adjacency.

Deltas are either rewires that keep every node typed or break/repair pairs;
:class:`Mirror` derives them from a model and tracks the expected untyped set.
Edits land on a fixed part of each graph (``Model.edit``), so that what one
costs hardly hinges on where a seed places it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

EX = "http://ex.org/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
NIL = RDF + "nil"
LO, HI = 8, 12

SCHEMA_TEXT = f"""\
Bug -> descr :: Literal, reportedBy :: User, reproducedBy :: Employee?, related :: Bug*
User -> name :: Literal, email :: Literal?
Employee -> name :: Literal, email :: Literal
Cell -> first :: Literal, rest :: Cell?, rest :: Nil?
Nil -> eps
Node -> label :: Literal, kid :: Node*
Pub -> title :: Literal, related :: Pub*
Hub -> hname :: Literal, item :: Item[{LO};{HI}]
Item -> sku :: Literal
Literal -> isLiteral :: Marker
Marker -> eps
"""

SHAPES = ("clone", "list", "tree", "powerlaw", "hub")
_RDF_PREDICATES = ("first", "rest")

Edge = Tuple[str, str, str]


def lit(value: str) -> str:
    """The converted-graph identifier of a plain literal."""
    return f"literal:{value}||"


def iri(local: str) -> str:
    return EX + local


class Model:
    """A simple graph over converted identifiers, plus its reverse index."""

    def __init__(self, shape: str):
        self.shape = shape
        self.edges: Set[Edge] = set()
        self.out: Dict[Tuple[str, str], List[str]] = {}
        # non-literal target -> {source: number of edges from it}
        self.into: Dict[str, Dict[str, int]] = {}
        self.broken: Set[str] = set()

    def add(self, s: str, p: str, o: str) -> None:
        self.edges.add((s, p, o))
        self.out.setdefault((s, p), []).append(o)
        if not o.startswith("literal:"):
            sources = self.into.setdefault(o, {})
            sources[s] = sources.get(s, 0) + 1

    def remove(self, s: str, p: str, o: str) -> None:
        self.edges.remove((s, p, o))
        self.out[(s, p)].remove(o)
        if not o.startswith("literal:"):
            sources = self.into[o]
            sources[s] -= 1
            if not sources[s]:
                del sources[s]

    def apply(self, delta: Dict[str, List[List[str]]]) -> None:
        for s, p, o in delta["remove"]:
            self.remove(s, p, o)
        for s, p, o in delta["add"]:
            self.add(s, p, o)

    def untyped(self) -> Set[str]:
        """The broken nodes and every node with a path to one."""
        seen = set(self.broken)
        stack = list(seen)
        while stack:
            for source in self.into.get(stack.pop(), ()):
                if source not in seen:
                    seen.add(source)
                    stack.append(source)
        return seen

    def turtle(self) -> str:
        lines = [f"@prefix ex: <{EX}> .", f"@prefix rdf: <{RDF}> ."]
        for s, p, o in sorted(self.edges):
            pred = ("rdf:" if p in _RDF_PREDICATES else "ex:") + p
            if o.startswith("literal:"):
                obj = '"' + o[len("literal:"):-2] + '"'
            elif o == NIL:
                obj = "rdf:nil"
            else:
                obj = "ex:" + o[len(EX):]
            lines.append(f"ex:{s[len(EX):]} {pred} {obj} .")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# Shapes
# --------------------------------------------------------------------------- #
_BUGS = ("bug1", "bug2", "bug3", "bug4")


def clone(rng: random.Random, copies: int, tag: str = "") -> Model:
    """``copies`` disjoint Figure 1 instances (17 triples each)."""
    m = Model("clone")
    for c in range(copies):
        n = lambda local: iri(f"{tag}c{c}_{local}")  # noqa: E731
        v = lambda text: lit(f"{tag}{text}{c}")  # noqa: E731
        m.add(n("bug1"), "descr", v("Boom"))
        m.add(n("bug1"), "reportedBy", n("user1"))
        m.add(n("bug1"), "reproducedBy", n("emp1"))
        m.add(n("bug1"), "related", n("bug2"))
        m.add(n("bug2"), "descr", v("Kaboom"))
        m.add(n("bug2"), "reportedBy", n("user2"))
        m.add(n("bug2"), "related", n("bug1"))
        m.add(n("bug2"), "related", n("bug3"))
        m.add(n("bug3"), "descr", v("Kabang"))
        m.add(n("bug3"), "reportedBy", n(rng.choice(("user1", "user2"))))
        m.add(n("bug4"), "descr", v("Bang"))
        m.add(n("bug4"), "reportedBy", n("user2"))
        m.add(n("user1"), "name", v("John"))
        m.add(n("user2"), "name", v("Mary"))
        m.add(n("user2"), "email", v("mary@h.org"))
        m.add(n("emp1"), "name", v("Steve"))
        m.add(n("emp1"), "email", v("stv@m.pl"))
    m.copies = copies
    m.tag = tag
    m.edit = [iri(f"{tag}c{c}_{b}") for c in range(copies) for b in _BUGS]
    return m


def rdf_list(rng: random.Random, lists: int, cells: int) -> Model:
    """``lists`` lists of ``cells`` cells each, literals ``l<j>v<k>``.

    Edits land in the first tenth of each list.
    """
    m = Model("list")
    m.edit = []
    for j in range(lists):
        row = [iri(f"l{j}_{k}") for k in range(cells)]
        for k, cell in enumerate(row):
            m.add(cell, "first", lit(f"l{j}v{k}"))
            m.add(cell, "rest", row[k + 1] if k + 1 < cells else NIL)
        m.edit.extend(row[: max(cells // 10, 2)])
    return m


def tree(rng: random.Random, size: int) -> Model:
    """A random tree whose nodes hang below one of the 8 newest nodes.

    Edits land on the newest tenth, the deepest nodes.
    """
    m = Model("tree")
    m.parent = {}
    m.nodes = [iri(f"t{i}") for i in range(size)]
    m.edit = m.nodes[-max(size // 10, 2):]
    for i, node in enumerate(m.nodes):
        m.add(node, "label", lit(f"t{i}"))
        if i:
            parent = m.nodes[rng.randrange(max(0, i - 8), i)]
            m.add(parent, "kid", node)
            m.parent[node] = parent
    return m


def powerlaw(rng: random.Random, size: int, links: int = 2) -> Model:
    """Preferential attachment: each pub cites ``links`` older pubs.

    Edits land on the newest tenth, whose citers are few.
    """
    m = Model("powerlaw")
    m.nodes = [iri(f"p{i}") for i in range(size)]
    m.edit = m.nodes[-max(size // 10, 2):]
    ends: List[int] = [0]
    for i, node in enumerate(m.nodes):
        m.add(node, "title", lit(f"p{i}"))
        if not i:
            continue
        targets: Set[int] = set()
        while len(targets) < min(links, i):
            targets.add(rng.choice(ends) if rng.random() < 0.8 else rng.randrange(i))
        for t in sorted(targets):
            m.add(node, "related", m.nodes[t])
            ends.append(t)
        ends.append(i)
    return m


def hubs(rng: random.Random, count: int, bad: int = 0) -> Model:
    """``count`` hubs with item counts on or next to the bounds.

    The first ``bad`` hubs get ``LO - 1`` or ``HI + 1`` items.
    """
    m = Model("hub")
    m.hubs = m.edit = [iri(f"h{i}") for i in range(count)]
    for i, hub in enumerate(m.hubs):
        m.add(hub, "hname", lit(f"h{i}"))
        if i < bad:
            items = rng.choice((LO - 1, HI + 1))
            m.broken.add(hub)
        else:
            items = rng.choice((LO, LO + 1, HI - 1, HI))
        for k in range(items):
            item = iri(f"h{i}_it{k}")
            m.add(hub, "item", item)
            m.add(item, "sku", lit(f"h{i}s{k}"))
    return m


# --------------------------------------------------------------------------- #
# Breaks (one extra edge that no rule allows) and rewires (verdict kept)
# --------------------------------------------------------------------------- #
_LITERAL_LABEL = {
    "clone": "descr", "list": "first", "tree": "label", "powerlaw": "title",
}


def break_delta(m: Model, rng: random.Random) -> Tuple[Dict, str]:
    """A delta that leaves exactly one node without a type, and that node."""
    targets = m.edit
    node = rng.choice(targets)
    if m.shape == "hub":
        have = set(m.out.get((node, "item"), ()))
        donors = [t for t in m.hubs if t != node]
        extra = []
        while len(have) + len(extra) <= HI:
            donor = rng.choice(donors)
            item = rng.choice(m.out[(donor, "item")])
            if item not in have and item not in extra:
                extra.append(item)
        return {"add": [[node, "item", item] for item in extra], "remove": []}, node
    label = _LITERAL_LABEL[m.shape]
    while True:
        other = rng.choice(targets)
        value = m.out[(other, label)][0]
        if other != node and value not in m.out[(node, label)]:
            return {"add": [[node, label, value]], "remove": []}, node


def plant_breaks(m: Model, rng: random.Random, count: int) -> None:
    for _ in range(count):
        delta, node = break_delta(m, rng)
        m.apply(delta)
        m.broken.add(node)


def rewire_delta(m: Model, rng: random.Random) -> Dict:
    """A delta after which every node keeps a type."""
    add: List[Edge] = []
    remove: List[Edge] = []
    if m.shape == "clone":
        bug3 = iri(f"{m.tag}c{rng.randrange(m.copies)}_bug3")
        old = m.out[(bug3, "reportedBy")][0]
        new = old[:-1] + ("2" if old.endswith("1") else "1")
        remove.append((bug3, "reportedBy", old))
        add.append((bug3, "reportedBy", new))
    elif m.shape == "list":
        a, b = rng.sample(m.edit, 2)
        la, lb = m.out[(a, "first")][0], m.out[(b, "first")][0]
        remove += [(a, "first", la), (b, "first", lb)]
        add += [(a, "first", lb), (b, "first", la)]
    elif m.shape == "tree":
        while True:
            node, new = rng.sample(m.edit, 2)
            if new != m.parent[node] and not _under(m, new, node):
                break
        remove.append((m.parent[node], "kid", node))
        add.append((new, "kid", node))
        m.parent[node] = new
    elif m.shape == "powerlaw":
        while True:
            node = rng.choice(m.edit)
            i = m.nodes.index(node)
            cited = m.out.get((node, "related"), [])
            new = m.nodes[rng.randrange(i)]
            if cited and new not in cited:
                break
        remove.append((node, "related", rng.choice(cited)))
        add.append((node, "related", new))
    else:
        while True:
            a, b = rng.sample(m.hubs, 2)
            items_a = m.out[(a, "item")]
            if len(items_a) > LO and len(m.out[(b, "item")]) < HI:
                break
        item = rng.choice(items_a)
        remove.append((a, "item", item))
        add.append((b, "item", item))
    return {"add": [list(e) for e in add], "remove": [list(e) for e in remove]}


def _under(m: Model, node: str, ancestor: str) -> bool:
    while node is not None:
        if node == ancestor:
            return True
        node = m.parent.get(node)
    return False


# --------------------------------------------------------------------------- #
# Workload inputs
# --------------------------------------------------------------------------- #
def document(shape: str, rng: random.Random, broken: bool) -> Model:
    """One validate-oneshot document of ``shape`` (10k-20k triples)."""
    if shape == "clone":
        m = clone(rng, rng.randint(1180, 1220))
    elif shape == "list":
        m = rdf_list(rng, 40, rng.randint(147, 153))
    elif shape == "tree":
        m = tree(rng, rng.randint(4900, 5100))
    elif shape == "powerlaw":
        m = powerlaw(rng, rng.randint(2950, 3050))
    else:
        return hubs(rng, rng.randint(590, 610), bad=rng.randint(1, 3) if broken else 0)
    if broken:
        plant_breaks(m, rng, rng.randint(1, 3))
    return m


def store_graphs(rng: random.Random) -> Dict[str, Model]:
    """The five daemon-churn stores, one per shape."""
    return {
        "clone": clone(rng, 1000),
        "list": rdf_list(rng, 1, 300),
        "tree": tree(rng, 2000),
        "powerlaw": powerlaw(rng, 1500),
        "hub": hubs(rng, 120),
    }


class Mirror:
    """One store's expected state; emits deltas and their expected verdicts.

    Deltas follow :data:`DELTA_CYCLE`, so every store sees the same mix of
    kinds; a break is always undone by the next delta.
    """

    DELTA_CYCLE = ("rewire", "rewire", "break", "repair")

    def __init__(self, name: str, model: Model):
        self.name = name
        self.model = model
        self.version = 0
        self._repair: Optional[Tuple[Dict, str]] = None

    def next_delta(self, rng: random.Random) -> Tuple[str, Dict]:
        """Apply the next delta to the mirror; return its kind and JSON."""
        m = self.model
        kind = self.DELTA_CYCLE[self.version % len(self.DELTA_CYCLE)]
        if kind == "repair":
            delta, node = self._repair
            self._repair = None
            m.broken.discard(node)
        elif kind == "break":
            delta, node = break_delta(m, rng)
            self._repair = ({"add": delta["remove"], "remove": delta["add"]}, node)
            m.broken.add(node)
        else:
            delta = rewire_delta(m, rng)
        m.apply(delta)
        self.version += 1
        return kind, delta


# --------------------------------------------------------------------------- #
# Schema pairs for contains-evolution
# --------------------------------------------------------------------------- #
PAIR_KINDS = ("detshex-forward", "detshex-backward", "shex0-forward", "shex0-random",
              "shex-full")


def schema_pairs(rng: random.Random, count: int) -> List[Tuple[str, object, object]]:
    """``count`` distinct ``(kind, left, right)`` pairs, kinds round-robin.

    DetShEx0- pairs are consecutive steps of a widening chain kept inside the
    class, forward (``S_k ⊆ S_k+1`` holds) or backward.  ShEx0 pairs are a
    random shape schema and its one-step widening (decided by embedding) or
    two independent random shape schemas (embedding, then counter-example
    search).  Full ShEx pairs are two independent random schemas with
    disjunction (sample search only).  A ShEx0 widening taken backward is
    left out: its search mostly runs its whole budget, ~100 times the cost
    of any other pair, and would leave a run a handful of samples.
    """
    from repro.graphs.shape import is_detshex0_minus_graph
    from repro.schema.convert import schema_to_shape_graph
    from repro.workloads.generators import (
        grow_schema_chain, random_detshex0_minus_schema, random_shape_schema,
        random_shex_schema,
    )

    def _in_class(schema) -> bool:
        # The classifier also admits a '?'-type referenced through a '?'-edge
        # whose source is itself only *-referenced; for such schemas the
        # characterizing graph misses a combination and the Corollary 4.3
        # check disagrees with a correct NOT_CONTAINED.  Keep to schemas
        # where every '?'-type is referenced through '*'-edges only.
        graph = schema_to_shape_graph(schema)
        if not is_detshex0_minus_graph(graph):
            return False
        for node in graph.nodes:
            if any(str(edge.occur) == "?" for edge in graph.out_edges(node)):
                references = graph.in_edges(node)
                if not references or any(str(edge.occur) != "*" for edge in references):
                    return False
        return True

    def detshex_steps():
        while True:
            base = random_detshex0_minus_schema(
                rng.randint(4, 7), num_labels=4, rng=random.Random(rng.random()),
                name=f"d{rng.getrandbits(32):x}",
            )
            chain = grow_schema_chain(base, 4, rng=random.Random(rng.random()))
            yield from (
                (a, b) for a, b in zip(chain, chain[1:])
                if _in_class(a) and _in_class(b)
            )

    def shex0_step():
        base = random_shape_schema(
            rng.randint(3, 4), num_labels=3, edges_per_type=2,
            rng=random.Random(rng.random()), name=f"s{rng.getrandbits(32):x}",
        )
        return tuple(grow_schema_chain(base, 1, rng=random.Random(rng.random())))

    steps = detshex_steps()
    pairs: List[Tuple[str, object, object]] = []
    seen = set()
    while len(pairs) < count:
        kind = PAIR_KINDS[len(pairs) % len(PAIR_KINDS)]
        if kind.startswith("detshex"):
            left, right = next(steps)
        elif kind == "shex0-forward":
            left, right = shex0_step()
        elif kind == "shex0-random":
            left, right = (
                random_shape_schema(
                    rng.randint(3, 4), num_labels=3, edges_per_type=2,
                    rng=random.Random(rng.random()), name=f"s{rng.getrandbits(32):x}",
                )
                for _ in range(2)
            )
        else:
            left, right = (
                random_shex_schema(
                    rng.randint(2, 4), num_labels=3, rng=random.Random(rng.random()),
                    name=f"x{rng.getrandbits(32):x}",
                )
                for _ in range(2)
            )
        if kind.endswith("backward"):
            left, right = right, left
        key = (str(left), str(right))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((kind, left, right))
    return pairs
