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

The evaluation runs column-wise, one node at a time in topological order,
on images: one int with a lane per outcome, as in space._image.  Node v's
column u_v * m + (parent rank) is the image of u_v's coordinates times
|dom p| plus the image of X_p, for each parent p in turn; a partial column
never exceeds the final one, so no lane carries.  Lanes are one byte when
|u_v| * m <= 256, and X_v's table is then one bytes.translate of the
column through its response digits; otherwise they are eight bytes, read
back as an array('Q') and looked up in one map.  No step is a Python loop
over outcomes, and each node keeps its image at each lane width its
children ask for.
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, product, repeat
from typing import Iterable, Mapping

from .errors import (
    FormatError,
    InvalidQueryError,
    SpaceCapError,
    UnknownNodeError,
)
from .space import (
    Factor,
    FactoredSpace,
    RandomVariable,
    _default_outcome_cap,
)

__all__ = [
    "Dag",
    "Embedding",
    "d_separated",
    "ancestors",
    "embed_dag",
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
        # Kahn's algorithm; ties broken by declaration order for determinism,
        # through a heap of the ready nodes' declaration indices.
        indeg = {n: len(parents[n]) for n in names}
        ready = [k for k, n in enumerate(names) if indeg[n] == 0]
        topo = []
        while ready:
            n = names[heapq.heappop(ready)]
            topo.append(n)
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, order[c])
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
        Factor(name=f"u_{v}", domain=tuple(map(str, range(sizes[v]))))
        for v in dag.nodes
    ]
    space = FactoredSpace(factors, max_outcomes=cap)
    count = space.outcome_count
    strides = dict(zip(dag.nodes, space._strides))
    node_vars: dict[str, RandomVariable] = {}
    images: dict[tuple[str, int], int] = {}

    def image(p: str, width: int) -> int:
        key = (p, width)
        if key not in images:
            t = node_vars[p].table
            # A width-1 child's parents have byte tables.  array("Q") would
            # read a bytes table as raw words, so it gets the entries.
            lanes = t if width == 1 else array("Q", iter(t)).tobytes()
            images[key] = int.from_bytes(lanes, sys.byteorder)
        return images[key]

    for v in dag.topological_order():
        size, stride, m = sizes[v], strides[v], pa_counts[v]
        width = 1 if size * m <= 256 else 8
        # resp[k * m + a] is digit a (most significant first) of factor
        # value k, the response to parent-assignment rank a; product()
        # lists the digit strings of k = 0, 1, ... in that order.
        resp = tuple(chain.from_iterable(product(range(doms[v]), repeat=m)))
        # u_v holds each value for stride consecutive ranks, and that
        # period repeats.
        lanes = map(int.to_bytes, range(size), repeat(width), repeat(sys.byteorder))
        period = b"".join(map(bytes.__mul__, lanes, repeat(stride)))
        img = int.from_bytes(period * (count // (size * stride)), sys.byteorder)
        # Folding each parent's column in as img * |dom p| + X_p gives
        # k * m + a, with the last parent varying fastest.
        for p in dag.parents(v):
            img = img * doms[p] + image(p, width)
        column = img.to_bytes(width * count, sys.byteorder)
        if width == 1:
            values = column.translate(bytes(resp).ljust(256, b"\0"))
        else:
            values = map(resp.__getitem__, array("Q", column))
        node_vars[v] = RandomVariable(
            name=f"X_{v}", codomain=tuple(map(str, range(doms[v]))), table=values
        )
    node_vars = {v: node_vars[v] for v in dag.nodes}
    return Embedding(space=space, node_vars=node_vars)


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
    # bytes: a digit array as the CLI decodes it, whose items fail below.
    if not isinstance(nodes_raw, (list, bytes)) or not nodes_raw:
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
    if not isinstance(edges_raw, (list, bytes)):
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
