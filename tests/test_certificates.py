"""Exhaustive certificates: every variable triple on small spaces.

A verdict and a history depend on a variable only through its level sets,
so the variables of a space are covered, up to relabelling, by one per set
partition of its outcomes, written as a restricted-growth string (outcome
r gets a value at most one above every value before it).  Every (x, y, z)
triple is checked against the exact CI oracle, and every history on every
block of z against subset enumeration.
"""

from __future__ import annotations

from collections import Counter

import pytest

from facthist import blocks_of, history, structurally_independent

from helpers import make_space, make_var
from oracles import oracle_ci_all_products, oracle_history


def restricted_growth_strings(n):
    strings = [[0]]
    for _ in range(n - 1):
        strings = [s + [v] for s in strings for v in range(max(s) + 2)]
    return strings


@pytest.mark.parametrize("sizes", [(2, 2), (2, 1, 2)])
def test_every_partition_triple_of_four_outcomes(sizes):
    # (2, 1, 2) adds a factor of one value, which is in no history.
    space = make_space(*sizes)
    variables = [
        make_var(space, f"v{k}", max(s) + 1, s)
        for k, s in enumerate(restricted_growth_strings(space.outcome_count))
    ]
    assert len(variables) == 15
    verdicts = Counter()
    for z in variables:
        for c in blocks_of(space, z).values():
            for x in variables:
                want = tuple(sorted(oracle_history(space, c, x)))
                assert history(space, c, x).members() == want, (x.table, z.table)
        for i, x in enumerate(variables):
            for y in variables[i:]:
                got = structurally_independent(space, x, y, z).independent
                assert got == oracle_ci_all_products(space, x, y, z), (
                    x.table, y.table, z.table
                )
                verdicts[got] += 1
    assert verdicts == {True: 756, False: 1044}
