"""DAG separation and the response-function embedding into a factored space.

d-separation here follows the walk formulation: x and y are d-connected
given Z when some walk between them has colliders exactly at its Z-nodes.
The reachability algorithm below tracks, for each node, whether it was
entered along an arrow or against one; bouncing at nodes with a descendant
in Z reproduces the walks that dip from a collider down into Z and back.

The embedding gives each node v one factor u_v ranging over every response
function from joint parent assignments to v's domain, and defines the node
variable X_v by recursive evaluation.  Parent assignments are ranked in
mixed radix with parents in node order and the last parent varying fastest,
and a factor value is read as a base-|dom v| numeral whose digit at
position r (most significant first) is the response to parent assignment
rank r.  Both conventions are fixed so emitted space files are identical
across runs and platforms.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    FormatError,
    InvalidQueryError,
    SpaceCapError,
    UnknownNodeError,
)
from .history import conditional_history, history
from .space import (
    Factor,
    FactoredSpace,
    IndexSet,
    RandomVariable,
    fold_pair,
    full_block,
    _default_outcome_cap,
)

__all__ = [
    "Dag",
    "Embedding",
    "QueryOutcome",
    "EquivalenceReport",
    "AncestryReport",
    "d_separated",
    "ancestors",
    "embed_dag",
    "dsep_structural_equivalence",
    "structural_time_vs_ancestry",
    "dag_to_doc",
    "dag_from_doc",
]


class Dag:
    """A finite DAG with named nodes carrying finite domain cardinalities."""

    __slots__ = ("nodes", "domains", "edges", "_parents", "_children", "_topo")

    def __init__(
        self, nodes: Iterable[tuple[str, int]], edges: Iterable[tuple[str, str]]
    ) -> None:
        node_list = list(nodes)
        names = [name for name, _ in node_list]
        if not names:
            raise ValueError("a DAG needs at least one node")
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        domains = {}
        for name, dom in node_list:
            if not isinstance(name, str) or not name:
                raise ValueError("node names must be non-empty strings")
            if dom < 2:
                raise ValueError(f"node {name!r} needs a domain of at least 2")
            domains[name] = dom
        edge_list = []
        parents: dict[str, list[str]] = {n: [] for n in names}
        children: dict[str, list[str]] = {n: [] for n in names}
        seen = set()
        for parent, child in edges:
            if parent not in domains:
                raise ValueError(f"edge references unknown node {parent!r}")
            if child not in domains:
                raise ValueError(f"edge references unknown node {child!r}")
            if (parent, child) in seen:
                raise ValueError(f"duplicate edge {parent!r} -> {child!r}")
            seen.add((parent, child))
            edge_list.append((parent, child))
            parents[child].append(parent)
            children[parent].append(child)
        order = {n: k for k, n in enumerate(names)}
        for n in names:
            parents[n].sort(key=order.__getitem__)
            children[n].sort(key=order.__getitem__)
        # Kahn's algorithm; ties broken by declaration order for determinism.
        indeg = {n: len(parents[n]) for n in names}
        ready = [n for n in names if indeg[n] == 0]
        topo = []
        while ready:
            ready.sort(key=order.__getitem__)
            n = ready.pop(0)
            topo.append(n)
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(topo) != len(names):
            raise ValueError("edges contain a cycle")
        object.__setattr__(self, "nodes", tuple(names))
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "edges", tuple(edge_list))
        object.__setattr__(self, "_parents", {n: tuple(v) for n, v in parents.items()})
        object.__setattr__(self, "_children", {n: tuple(v) for n, v in children.items()})
        object.__setattr__(self, "_topo", tuple(topo))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Dag is immutable")

    def __repr__(self) -> str:
        return f"Dag(nodes={list(self.nodes)}, edges={list(self.edges)})"

    def _check_node(self, name: str) -> None:
        if name not in self.domains:
            raise UnknownNodeError(f"no node named {name!r}")

    def parents(self, name: str) -> tuple[str, ...]:
        self._check_node(name)
        return self._parents[name]

    def children(self, name: str) -> tuple[str, ...]:
        self._check_node(name)
        return self._children[name]

    def topological_order(self) -> tuple[str, ...]:
        return self._topo


def ancestors(dag: Dag, v: str) -> frozenset[str]:
    """All strict ancestors of v."""
    dag._check_node(v)
    out: set[str] = set()
    stack = list(dag.parents(v))
    while stack:
        n = stack.pop()
        if n not in out:
            out.add(n)
            stack.extend(dag.parents(n))
    return frozenset(out)


def d_separated(
    dag: Dag, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str]
) -> bool:
    """True when no active walk connects xs to ys given zs."""
    x_set, y_set, z_set = set(xs), set(ys), set(zs)
    for name in x_set | y_set | z_set:
        dag._check_node(name)
    if x_set & y_set or x_set & z_set or y_set & z_set:
        raise InvalidQueryError("query node sets must be pairwise disjoint")
    # Nodes that are in Z or have a descendant in Z; colliders bounce there.
    in_or_above_z = set(z_set)
    for z in z_set:
        in_or_above_z |= ancestors(dag, z)
    # States: (node, came_from_child). Starting at x as if entered from a
    # fictitious child lets the walk leave in every legal direction.
    frontier: deque[tuple[str, bool]] = deque((x, True) for x in x_set)
    visited: set[tuple[str, bool]] = set()
    reachable: set[str] = set()
    while frontier:
        state = frontier.popleft()
        if state in visited:
            continue
        visited.add(state)
        node, from_child = state
        if from_child:
            if node in z_set:
                continue
            reachable.add(node)
            for p in dag.parents(node):
                frontier.append((p, True))
            for c in dag.children(node):
                frontier.append((c, False))
        else:
            if node not in z_set:
                reachable.add(node)
                for c in dag.children(node):
                    frontier.append((c, False))
            if node in in_or_above_z:
                for p in dag.parents(node):
                    frontier.append((p, True))
    return not (reachable & y_set)


@dataclass(frozen=True)
class Embedding:
    """A factored space (one response factor per node) plus the node variables."""

    space: FactoredSpace
    node_vars: Mapping[str, RandomVariable]


def embed_dag(dag: Dag, *, max_outcomes: int | None = None) -> Embedding:
    """Response-function embedding of a DAG.

    Node v's factor u_v has |dom v| ** m values, where m is the number of
    joint parent assignments (1 for roots); the node variable X_v applies
    the chosen response function to its parents' recursively evaluated
    values.
    """
    doms = dag.domains
    pa_counts = {
        v: math.prod(doms[p] for p in dag.parents(v)) for v in dag.nodes
    }
    cap = _default_outcome_cap() if max_outcomes is None else max_outcomes
    # Multiply one response digit at a time and stop as soon as the running
    # total passes the cap: the exact count can have millions of digits.
    sizes = {}
    total = 1
    for v in dag.nodes:
        size = 1
        for _ in range(pa_counts[v]):
            size *= doms[v]
            if total * size > cap:
                raise SpaceCapError(f"embedding exceeds the cap of {cap} outcomes")
        sizes[v] = size
        total *= size
    factors = [
        Factor(name=f"u_{v}", domain=tuple(str(k) for k in range(sizes[v])))
        for v in dag.nodes
    ]
    space = FactoredSpace(factors, max_outcomes=cap)
    findex = {v: k for k, v in enumerate(dag.nodes)}
    # Precomputed base-|dom v| place values, most significant digit first.
    powers = {
        v: [doms[v] ** (pa_counts[v] - 1 - r) for r in range(pa_counts[v])]
        for v in dag.nodes
    }
    topo = dag.topological_order()
    tables: dict[str, list[int]] = {v: [0] * space.outcome_count for v in dag.nodes}
    for r in range(space.outcome_count):
        vals: dict[str, int] = {}
        for v in topo:
            pa_rank = 0
            for p in dag.parents(v):
                pa_rank = pa_rank * doms[p] + vals[p]
            k = space.digits(findex[v])[r]
            vals[v] = (k // powers[v][pa_rank]) % doms[v]
            tables[v][r] = vals[v]
    node_vars = {
        v: RandomVariable(
            name=f"X_{v}",
            codomain=tuple(str(k) for k in range(doms[v])),
            table=tuple(tables[v]),
        )
        for v in dag.nodes
    }
    return Embedding(space=space, node_vars=node_vars)


@dataclass(frozen=True)
class QueryOutcome:
    """One separation query with both verdicts."""

    x: str
    y: str
    given: tuple[str, ...]
    d_sep: bool
    structural: bool

    @property
    def agree(self) -> bool:
        return self.d_sep == self.structural


@dataclass(frozen=True)
class EquivalenceReport:
    """d-separation versus structural independence over a query batch."""

    results: tuple[QueryOutcome, ...]

    @property
    def disagreements(self) -> tuple[QueryOutcome, ...]:
        return tuple(q for q in self.results if not q.agree)

    @property
    def all_agree(self) -> bool:
        return not self.disagreements


def dsep_structural_equivalence(
    dag: Dag,
    queries: Iterable[tuple[str, str, Sequence[str]]],
    *,
    max_outcomes: int | None = None,
) -> EquivalenceReport:
    """Run each (x, y, Z) query through both sides and collect the verdicts."""
    emb = embed_dag(dag, max_outcomes=max_outcomes)
    space = emb.space
    order = {n: k for k, n in enumerate(dag.nodes)}
    zvar_cache: dict[frozenset[str], RandomVariable] = {}
    hist_cache: dict[tuple[str, frozenset[str]], Mapping[str, IndexSet]] = {}

    def conditioner(zs: Sequence[str]) -> tuple[frozenset[str], RandomVariable]:
        key = frozenset(zs)
        if key not in zvar_cache:
            ordered = sorted(key, key=order.__getitem__)
            zvar_cache[key] = fold_pair(space, [emb.node_vars[n] for n in ordered])
        return key, zvar_cache[key]

    def block_histories(node: str, zs_key: frozenset[str], zvar: RandomVariable):
        cache_key = (node, zs_key)
        if cache_key not in hist_cache:
            hist_cache[cache_key] = conditional_history(
                space, emb.node_vars[node], zvar
            ).per_block
        return hist_cache[cache_key]

    results = []
    for x, y, zs in queries:
        dsep = d_separated(dag, [x], [y], zs)
        zs_key, zvar = conditioner(zs)
        hx = block_histories(x, zs_key, zvar)
        hy = block_histories(y, zs_key, zvar)
        structural = all(hx[label].isdisjoint(hy[label]) for label in hx)
        results.append(
            QueryOutcome(
                x=x,
                y=y,
                given=tuple(sorted(zs, key=order.__getitem__)),
                d_sep=dsep,
                structural=structural,
            )
        )
    return EquivalenceReport(results=tuple(results))


@dataclass(frozen=True)
class AncestryReport:
    """Unconditional histories versus graph ancestry for every node and pair."""

    history_mismatches: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]
    order_mismatches: tuple[tuple[str, str, bool, bool], ...]

    @property
    def ok(self) -> bool:
        return not self.history_mismatches and not self.order_mismatches


def structural_time_vs_ancestry(
    dag: Dag, *, max_outcomes: int | None = None
) -> AncestryReport:
    """H(X_v) must be the ancestral factor set; containment must mirror ancestry."""
    emb = embed_dag(dag, max_outcomes=max_outcomes)
    space = emb.space
    findex = {v: k for k, v in enumerate(dag.nodes)}
    block = full_block(space)
    hists: dict[str, IndexSet] = {}
    history_mismatches = []
    for v in dag.nodes:
        got = history(space, block, emb.node_vars[v])
        expected = space.index_set(
            sorted(findex[w] for w in (ancestors(dag, v) | {v}))
        )
        hists[v] = got
        if got != expected:
            history_mismatches.append((v, got.members(), expected.members()))
    order_mismatches = []
    for v in dag.nodes:
        for w in dag.nodes:
            subset = hists[v].issubset(hists[w])
            ancestral = v == w or v in ancestors(dag, w)
            if subset != ancestral:
                order_mismatches.append((v, w, subset, ancestral))
    return AncestryReport(
        history_mismatches=tuple(history_mismatches),
        order_mismatches=tuple(order_mismatches),
    )


def dag_to_doc(dag: Dag) -> dict:
    """Serialize to the JSON document shape."""
    return {
        "nodes": [{"name": n, "domain": dag.domains[n]} for n in dag.nodes],
        "edges": [[p, c] for p, c in dag.edges],
    }


def dag_from_doc(doc: object) -> Dag:
    """Parse the JSON document shape back into a Dag."""
    if not isinstance(doc, dict):
        raise FormatError("DAG document must be a JSON object")
    nodes_raw = doc.get("nodes")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        raise FormatError("DAG document needs a non-empty 'nodes' list")
    nodes = []
    for k, item in enumerate(nodes_raw):
        if not isinstance(item, dict):
            raise FormatError(f"nodes[{k}] must be an object")
        name = item.get("name")
        dom = item.get("domain")
        if not isinstance(name, str):
            raise FormatError(f"nodes[{k}].name must be a string")
        if not isinstance(dom, int) or isinstance(dom, bool):
            raise FormatError(f"nodes[{k}].domain must be an integer")
        nodes.append((name, dom))
    edges_raw = doc.get("edges", [])
    if not isinstance(edges_raw, list):
        raise FormatError("'edges' must be a list")
    edges = []
    for k, item in enumerate(edges_raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(e, str) for e in item)
        ):
            raise FormatError(f"edges[{k}] must be a [parent, child] pair of strings")
        edges.append((item[0], item[1]))
    try:
        return Dag(nodes, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
