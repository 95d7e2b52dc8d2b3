"""Exhaustive certificates: every variable triple on small spaces.

A verdict and a history depend on a variable only through its level sets,
so the variables of a space are covered, up to relabelling, by one per set
partition of its outcomes, written as a restricted-growth string (outcome
r gets a value at most one above every value before it).  Every (x, y, z)
triple is checked against the exact CI oracle, and every history on every
block of z against subset enumeration.  A z that reads one factor of a
space with two free factors has its blocks lifted from its grid
(history._lift), so that path is covered too.  The semigraphoid axioms are
checked on every quadruple of the same variables, from one table of
verdicts.
"""

from __future__ import annotations

import importlib
from collections import Counter
from itertools import product

import pytest

from facthist import (
    SEMIGRAPHOID_AXIOMS,
    blocks_of,
    history,
    pair_var,
    structurally_independent,
)

from helpers import make_space, make_var
from oracles import oracle_ci_all_products, oracle_history

# The package re-exports the function history() under the module's name.
history_module = importlib.import_module("facthist.history")


def restricted_growth_strings(n):
    strings = [[0]]
    for _ in range(n - 1):
        strings = [s + [v] for s in strings for v in range(max(s) + 2)]
    return strings


def growth_string(table):
    """The restricted-growth string of a table's level sets."""
    first = {}
    return tuple(first.setdefault(v, len(first)) for v in table)


@pytest.mark.parametrize("sizes", [(2, 2), (2, 1, 2)])
def test_every_partition_triple_of_four_outcomes(sizes, monkeypatch):
    # (2, 1, 2) adds a factor of one value, which is in no history.
    lifted = Counter()  # by the factors of the grid
    lift = history_module._lift

    def counting_lift(space, grid, granks):
        lifted[grid.ids] += 1
        return lift(space, grid, granks)

    monkeypatch.setattr(history_module, "_lift", counting_lift)
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
    # Each free factor read alone by some z: both blocks of that z, and no
    # grid of two factors, since a z reading both reads every free factor.
    free = [i for i, size in enumerate(sizes) if size > 1]
    assert lifted == {(i,): 2 for i in free}


@pytest.mark.parametrize("sizes", [(2, 2), (2, 1, 2)])
def test_semigraphoid_axioms_on_every_partition_quadruple(sizes):
    space = make_space(*sizes)
    variables = [
        make_var(space, f"v{k}", max(s) + 1, s)
        for k, s in enumerate(restricted_growth_strings(space.outcome_count))
    ]
    n = len(variables)
    index = {growth_string(v.table): k for k, v in enumerate(variables)}
    ind = {
        t: structurally_independent(space, *(variables[k] for k in t)).independent
        for t in product(range(n), repeat=3)
    }
    # joint[a][b] is the partition of the pair (a, b).
    joint = [
        [index[growth_string(pair_var(space, a, b).table)] for b in variables]
        for a in variables
    ]
    premises, failures = Counter(), Counter()
    for x, y, z, w in product(range(n), repeat=4):
        x_y_z = ind[x, y, z]
        x_yw_z = ind[x, joint[y][w], z]
        implications = {
            "symmetry": (x_y_z, ind[y, x, z]),
            "decomposition": (x_yw_z, x_y_z),
            "weak_union": (x_yw_z, ind[x, y, joint[z][w]]),
            "contraction": (x_y_z and ind[x, w, joint[z][y]], x_yw_z),
            "composition": (x_y_z and ind[x, w, z], x_yw_z),
        }
        for axiom, (premise, conclusion) in implications.items():
            premises[axiom] += premise
            failures[axiom] += premise and not conclusion
    assert tuple(premises) == SEMIGRAPHOID_AXIOMS
    assert sum(ind.values()) == 1452
    assert +failures == {}
    assert premises == {
        "symmetry": 1452 * n,
        **dict.fromkeys(SEMIGRAPHOID_AXIOMS[1:], 15762),
    }
