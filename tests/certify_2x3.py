"""Exhaustive certificate on the 2x3 space: every partition triple, up to symmetry.

Run from the root of a checkout (about a minute; not collected by pytest,
whose pattern is test_*.py):

    PYTHONPATH=src python tests/certify_2x3.py

A verdict and a history depend on a variable only through its level sets,
so the variables are the 203 set partitions of the six outcomes, written
as restricted-growth strings.  Permuting the values of each factor (2! * 3!
= 12 permutations) maps the space onto itself and every triple (x, y, z)
to one with the same verdict, so z ranges over one partition per orbit,
the least restricted-growth string of its images, while x and y range
over all 203 (x no later than y).  Each verdict is checked against
oracles.oracle_ci_all_products and each history on every block of z
against oracles.oracle_history.  Weighting each z by its orbit's size
gives the totals over all 4,203,318 triples.

With a factor of three values, the whole outcome set (z constant) and the
blocks of a z that reads one factor, each a grid block times the other
factor, are checked beyond the binary factors of
tests/test_certificates.py.  Histories are checked through the Blocks of
blocks_of and, inside structurally_independent, through level-set
bitsets; the level sets factorized are counted by the factors z reads.
The totals below are pinned; the run fails if any of them changes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from itertools import permutations

from facthist import blocks_of, history, structurally_independent

from helpers import make_space, make_var
from oracles import oracle_ci_all_products, oracle_history

SIZES = (2, 3)
PINNED = {
    "partitions": 203,
    "z orbits": 37,
    "triples checked": 766_122,
    "independent": 118_278,
    "dependent": 647_844,
    "independent, all triples": 564_316,
    "dependent, all triples": 3_639_002,
    "histories checked": 24_766,
    "level-set factorizations by the factors z reads": {(0,): 2, (0, 1): 58, (1,): 5},
}


def restricted_growth_strings(n):
    strings = [[0]]
    for _ in range(n - 1):
        strings = [s + [v] for s in strings for v in range(max(s) + 2)]
    return strings


def canonical(table):
    """The restricted-growth string of a table's level sets."""
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(v, len(labels)) for v in table)


def outcome_maps():
    """Each permutation of every factor's values, as a map of outcome ranks."""
    a, b = SIZES
    return [
        [p[r // b] * b + q[r % b] for r in range(a * b)]
        for p in permutations(range(a))
        for q in permutations(range(b))
    ]


def orbits(strings):
    """One restricted-growth string per orbit, least first, with the orbit's size."""
    maps = outcome_maps()
    found: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for s in strings:
        images = set()
        for g in maps:
            moved = [0] * len(s)
            for r, v in enumerate(s):
                moved[g[r]] = v
            images.add(canonical(moved))
        found.setdefault(min(images), images)
    return sorted((rep, len(images)) for rep, images in found.items())


def main() -> int:
    start = time.perf_counter()
    space = make_space(*SIZES)
    strings = restricted_growth_strings(space.outcome_count)
    variables = {
        tuple(s): make_var(space, f"v{k}", max(s) + 1, s) for k, s in enumerate(strings)
    }
    xs = list(variables.values())
    reps = orbits(strings)
    verdicts: Counter = Counter()
    weighted: Counter = Counter()
    histories = 0
    for rep, size in reps:
        z = variables[rep]
        for c in blocks_of(space, z).values():
            for x in xs:
                want = tuple(sorted(oracle_history(space, c, x)))
                assert history(space, c, x).members() == want, (x.table, z.table, c.label)
                histories += 1
        for i, x in enumerate(xs):
            for y in xs[i:]:
                got = structurally_independent(space, x, y, z).independent
                want = oracle_ci_all_products(space, x, y, z)
                assert got == want, (x.table, y.table, z.table)
                verdicts[got] += 1
                weighted[got] += size
    assert sum(size for _, size in reps) == len(strings)
    found = {
        "partitions": len(strings),
        "z orbits": len(reps),
        "triples checked": sum(verdicts.values()),
        "independent": verdicts[True],
        "dependent": verdicts[False],
        "independent, all triples": weighted[True],
        "dependent, all triples": weighted[False],
        "histories checked": histories,
        # A level set is memoized under (its conditioner's table, the value).
        "level-set factorizations by the factors z reads": dict(
            sorted(
                Counter(
                    space._supports[key[0]][1].members()
                    for key in space._atoms
                    if isinstance(key, tuple)
                ).items()
            )
        ),
    }
    for key, value in found.items():
        print(f"{key}: {value}")
    print(f"{time.perf_counter() - start:.1f} s")
    if found != PINNED:
        print(f"expected: {PINNED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
