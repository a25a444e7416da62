"""Write the documents CI validates in every install, and check their typings.

    python tests/install_parity.py OUTDIR
    python tests/install_parity.py check OUTDIR

The first form writes ``OUTDIR/schema.shex`` and four Turtle documents.
Every graph takes the one typing path, the fixpoint kernel; the documents
load different parts of it:

* ``clone.ttl`` — 1,000 copies of a small bug tracker whose two bugs cite
  each other: two-node cycles, and rows the kernel's row memo repeats;
* ``powerlaw.ttl`` — 17,000 papers citing older papers by preferential
  attachment: few repeated rows;
* ``disjunction.ttl`` — 40 copies of a four-ticket chain under a rule with
  a disjunction, which is no interval RBE0: the membership test decides
  it, and it must not need SciPy's MILP;
* ``cycles.ttl`` — self-loops, 2-rings and 3-rings, 60 copies of each,
  whose members point at a literal, at a node typed ``Paper`` or at an
  untyped node: isomorphic cycles with differently typed boundaries, which
  the kernel's component memo must tell apart, plus nodes that point into
  a ring; some nodes are untyped.

The first three are typed completely.  CI runs ``python -m repro.cli
validate --show-typing`` on each after each install (full, without SciPy,
without numpy) and diffs the outputs.  The ``check`` form (``PYTHONPATH=src``)
types every document in ``OUTDIR`` with the kernel and with the full-rescan
oracle :func:`repro.schema.reference.maximal_typing_reference` and exits 1
on any difference.  The documents are a pure function of the fixed seed
below.
"""

from __future__ import annotations

import os
import random
import sys

SCHEMA = """\
Bug -> descr :: Lit, reportedBy :: User, reproducedBy :: Employee?, related :: Bug*
User -> name :: Lit, email :: Lit?
Employee -> name :: Lit, email :: Lit
Lit -> isLiteral :: Marker
Marker -> eps
Paper -> cites :: Paper*
Survey -> cites :: Paper, cites :: Paper, cites :: Paper+
Ticket -> (descr :: Lit | note :: Lit), next :: Ticket?
Ring -> next :: Ring, tag :: Lit
Spoke -> next :: Spoke, tag :: Paper
"""

PREFIX = "@prefix ex: <http://example.org/> .\n"


def clone_document(copies: int = 1000) -> str:
    lines = [PREFIX]
    for i in range(copies):
        lines.append(
            f'ex:bug{i}a ex:descr "crash {i}" ; ex:reportedBy ex:user{i}a ;'
            f" ex:reproducedBy ex:emp{i} ; ex:related ex:bug{i}b .\n"
            f'ex:bug{i}b ex:descr "hang {i}" ; ex:reportedBy ex:user{i}b ;'
            f" ex:related ex:bug{i}a .\n"
            f'ex:user{i}a ex:name "u{i}a" .\n'
            f'ex:user{i}b ex:name "u{i}b" ; ex:email "u{i}b@example.org" .\n'
            f'ex:emp{i} ex:name "e{i}" ; ex:email "e{i}@example.org" .\n'
        )
    return "".join(lines)


def powerlaw_document(rng: random.Random, size: int = 17_000) -> str:
    lines = [PREFIX]
    ends = [0]
    for i in range(1, size):
        targets = set()
        while len(targets) < min(rng.choice((1, 2, 3, 4)), i):
            targets.add(rng.choice(ends) if rng.random() < 0.8 else rng.randrange(i))
        cited = ", ".join(f"ex:p{target}" for target in sorted(targets))
        lines.append(f"ex:p{i} ex:cites {cited} .\n")
        ends.extend(targets)
        ends.append(i)
    return "".join(lines)


def disjunction_document(copies: int = 40, length: int = 4) -> str:
    lines = [PREFIX]
    for copy in range(copies):
        for i in range(length):
            fact = f'ex:note "n{copy}-{i}"' if (copy + i) % 2 else f'ex:descr "d{copy}-{i}"'
            if i + 1 < length:
                fact += f" ; ex:next ex:t{copy}-{i + 1}"
            lines.append(f"ex:t{copy}-{i} {fact} .\n")
    return "".join(lines)


def cycles_document(rng: random.Random, copies: int = 60) -> str:
    lines = [PREFIX, "ex:broken ex:oops ex:void .\n"]
    boundaries = ['"t"', "ex:void", "ex:broken"]
    for size in (1, 2, 3):
        for copy in range(copies):
            members = [f"ex:r{size}-{copy}-{i}" for i in range(size)]
            for i, member in enumerate(members):
                tag = rng.choice(boundaries) if rng.random() < 0.4 else boundaries[0]
                lines.append(f"{member} ex:next {members[(i + 1) % size]} ; ex:tag {tag} .\n")
            if copy % 7 == 0:
                lines.append(f'ex:in{size}-{copy} ex:next {members[0]} ; ex:tag "t" .\n')
    return "".join(lines)


def write(out: str) -> None:
    os.makedirs(out, exist_ok=True)
    documents = {
        "schema.shex": SCHEMA,
        "clone.ttl": clone_document(),
        "powerlaw.ttl": powerlaw_document(random.Random(20190630)),
        "disjunction.ttl": disjunction_document(),
        "cycles.ttl": cycles_document(random.Random(20190701)),
    }
    for name, text in documents.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def check(out: str) -> int:
    """Type every document in ``out`` with the kernel and with the oracle."""
    from repro.engine.fixpoint import maximal_typing_fixpoint
    from repro.rdf.convert import load_graph
    from repro.schema.parser import parse_schema
    from repro.schema.reference import maximal_typing_reference

    with open(os.path.join(out, "schema.shex"), encoding="utf-8") as handle:
        schema = parse_schema(handle.read())
    status = 0
    for name in sorted(os.listdir(out)):
        if not name.endswith(".ttl"):
            continue
        with open(os.path.join(out, name), encoding="utf-8") as handle:
            graph = load_graph(handle.read(), name=name)
        kernel = maximal_typing_fixpoint(graph, schema)
        oracle = maximal_typing_reference(graph, schema)
        differ = kernel.pairs() ^ oracle.pairs()
        print(f"{name}: {graph.node_count} nodes, {len(kernel.untyped())} untyped, "
              f"{'equal to the oracle' if not differ else f'{len(differ)} pairs differ'}")
        if differ:
            status = 1
    return status


def main(argv) -> int:
    if len(argv) == 1:
        write(argv[0])
        return 0
    if len(argv) == 2 and argv[0] == "check":
        return check(argv[1])
    forms = [line.strip() for line in __doc__.strip().splitlines()[2:4]]
    print("usage: " + "\n       ".join(forms), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
