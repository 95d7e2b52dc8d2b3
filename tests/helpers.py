"""Shared builders for the test suite."""

from __future__ import annotations

import random
from typing import NamedTuple

from facthist import (
    Dag,
    Factor,
    FactoredSpace,
    RandomVariable,
    ancestors,
    conditional_history,
    d_separated,
    embed_dag,
    factor_var,
    fold_pair,
    outcome_unrank,
    structurally_independent,
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


def dsep_vs_structural(dag: Dag, queries):
    """(x, y, zs, d-separated, structurally independent) for each query.

    The structural verdict is taken on the response-function embedding,
    given the joint variable of the conditioning nodes in node order.
    """
    emb = embed_dag(dag)
    order = {n: k for k, n in enumerate(dag.nodes)}
    results = []
    for x, y, zs in queries:
        dsep = d_separated(dag, [x], [y], zs)
        given = [emb.node_vars[n] for n in sorted(zs, key=order.__getitem__)]
        z = fold_pair(emb.space, given)
        verdict = structurally_independent(
            emb.space, emb.node_vars[x], emb.node_vars[y], z
        )
        results.append((x, y, list(zs), dsep, verdict.independent))
    return results


def ancestry_mismatches(dag: Dag):
    """Where unconditional histories on the embedding disagree with ancestry.

    Each node's history must be the factors of the node and its ancestors,
    listed as (v, history, expected); and for every ordered pair, history
    containment must mirror ancestry, listed as (v, w, subset, ancestral).
    """
    emb = embed_dag(dag)
    findex = {v: k for k, v in enumerate(dag.nodes)}
    hists = {}
    mismatches = []
    for v in dag.nodes:
        (hist,) = conditional_history(emb.space, emb.node_vars[v]).per_block.values()
        hists[v] = hist
        expected = tuple(sorted(findex[w] for w in ancestors(dag, v) | {v}))
        if hist.members() != expected:
            mismatches.append((v, hist.members(), expected))
    for v in dag.nodes:
        for w in dag.nodes:
            subset = hists[v].issubset(hists[w])
            ancestral = v == w or v in ancestors(dag, w)
            if subset != ancestral:
                mismatches.append((v, w, subset, ancestral))
    return mismatches
