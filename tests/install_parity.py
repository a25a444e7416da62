"""Write the documents CI validates in every install to compare verdicts.

    python tests/install_parity.py OUTDIR

writes ``OUTDIR/schema.shex`` and two Turtle documents the schema types
completely, each taking a different typing path:

* ``clone.ttl`` — 1,000 copies of a small bug tracker whose two bugs cite
  each other.  The graph is cyclic and its kind quotient is tiny, so
  ``validate`` types the quotient.
* ``powerlaw.ttl`` — 17,000 papers citing older papers by preferential
  attachment.  The quotient shrinks the graph less than
  ``KIND_COMPRESS_MIN_RATIO`` times, so ``validate`` types it node by node.

CI runs ``python -m repro.cli validate --show-typing`` on both after each
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
    }
    for name, text in documents.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
