"""Write the documents CI validates in every install to compare verdicts.

    python tests/install_parity.py OUTDIR

writes ``OUTDIR/schema.shex`` and three Turtle documents the schema types
completely.  Every graph takes the one typing path, the fixpoint kernel;
the documents load different parts of it:

* ``clone.ttl`` — 1,000 copies of a small bug tracker whose two bugs cite
  each other: two-node cycles, and rows the kernel's row memo repeats;
* ``powerlaw.ttl`` — 17,000 papers citing older papers by preferential
  attachment: few repeated rows;
* ``disjunction.ttl`` — 40 copies of a four-ticket chain under a rule with
  a disjunction, which is no interval RBE0: the membership test decides
  it, and it must not need SciPy's MILP.

CI runs ``python -m repro.cli validate --show-typing`` on each after each
install (full, without SciPy, without numpy) and diffs the outputs.  The
documents are a pure function of the fixed seed below.
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


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = argv[0]
    os.makedirs(out, exist_ok=True)
    documents = {
        "schema.shex": SCHEMA,
        "clone.ttl": clone_document(),
        "powerlaw.ttl": powerlaw_document(random.Random(20190630)),
        "disjunction.ttl": disjunction_document(),
    }
    for name, text in documents.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
