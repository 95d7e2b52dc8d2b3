"""Shared builders for the test suite."""

from __future__ import annotations

import random
from typing import NamedTuple

from facthist import (
    Dag,
    Factor,
    FactoredSpace,
    RandomVariable,
    factor_var,
    outcome_unrank,
)


def make_space(*sizes: int, max_outcomes: int | None = None) -> FactoredSpace:
    factors = [
        Factor(name=f"u{i}", domain=tuple(str(v) for v in range(s)))
        for i, s in enumerate(sizes)
    ]
    if max_outcomes is None:
        return FactoredSpace(factors)
    return FactoredSpace(factors, max_outcomes=max_outcomes)


def make_var(space: FactoredSpace, name: str, k: int, table) -> RandomVariable:
    return RandomVariable(
        name=name, codomain=tuple(str(v) for v in range(k)), table=tuple(table)
    )


def function_of(space: FactoredSpace, name: str, ids, k: int, rng) -> RandomVariable:
    """A random variable with k labels that reads only the factors in ids."""
    values: dict[tuple[int, ...], int] = {}
    table = []
    for r in range(space.outcome_count):
        o = outcome_unrank(space, r)
        key = tuple(o[i] for i in ids)
        table.append(values.setdefault(key, rng.randrange(k)))
    return make_var(space, name, k, table)


class XorBundle(NamedTuple):
    space: FactoredSpace
    u0: RandomVariable
    u1: RandomVariable
    xor: RandomVariable


def xor_bundle() -> XorBundle:
    """Two fair binary factors plus their parity: the canonical example."""
    space = make_space(2, 2)
    u0 = factor_var(space, 0)
    u1 = factor_var(space, 1)
    xor = make_var(space, "XOR", 2, (a ^ b for a, b in zip(u0.table, u1.table)))
    return XorBundle(space, u0, u1, xor)


def random_binary_dag(seed: object, index: int, max_nodes: int = 4) -> Dag:
    """A seeded DAG with 2..max_nodes binary nodes and in-degree at most 2."""
    rng = random.Random(f"{seed}:dag:{index}")
    n = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(n)]
    order = list(names)
    rng.shuffle(order)
    edges = []
    for pos in range(1, n):
        child = order[pos]
        cands = order[:pos]
        rng.shuffle(cands)
        for parent in cands[: rng.randint(0, min(2, len(cands)))]:
            edges.append((parent, child))
    return Dag([(name, 2) for name in names], edges)


def all_single_pair_queries(dag: Dag):
    """Every unordered node pair with every subset of the remaining nodes."""
    from oracles import all_subsets

    nodes = dag.nodes
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            rest = [n for n in nodes if n not in (nodes[i], nodes[j])]
            for zs in all_subsets(rest):
                yield nodes[i], nodes[j], list(zs)
