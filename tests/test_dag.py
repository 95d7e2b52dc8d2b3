"""DAGs, d-separation, and the response-function embedding.

d-separation verdicts are checked three independent ways: against literal
walk enumeration, against the moralization construction and against
networkx; the embedding's tables are checked against a per-outcome
evaluation, and the embedding bridges d-separation to structural
independence on the factored side.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
import time
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from facthist import (
    Dag,
    FormatError,
    InvalidQueryError,
    SpaceCapError,
    UnknownNodeError,
    ancestors,
    conditional_history,
    d_separated,
    dag_from_doc,
    dag_to_doc,
    embed_dag,
    full_block,
    history,
    space_to_doc,
)
from facthist.cli import main
from facthist.space import OUTCOME_CAP_ENV

from helpers import (
    all_single_pair_queries,
    ancestry_mismatches,
    dsep_vs_structural,
    random_binary_dag,
)
from oracles import oracle_dsep_moralize, oracle_dsep_walks, oracle_embed_tables


def chain3():
    return Dag([("a", 2), ("b", 2), ("c", 2)], [("a", "b"), ("b", "c")])


def collider3():
    return Dag([("a", 2), ("b", 2), ("c", 2)], [("a", "c"), ("b", "c")])


def test_dag_construction_and_validation():
    dag = chain3()
    assert dag.nodes == ("a", "b", "c")
    assert dag.parents("c") == ("b",)
    assert dag.children("a") == ("b",)
    assert dag.topological_order() == ("a", "b", "c")
    with pytest.raises(ValueError):
        Dag([("a", 2), ("a", 2)], [])
    with pytest.raises(ValueError):
        Dag([("a", 1)], [])
    with pytest.raises(ValueError):
        Dag([("a", 2)], [("a", "b")])
    with pytest.raises(ValueError):
        Dag([("a", 2), ("b", 2)], [("a", "b"), ("a", "b")])
    with pytest.raises(ValueError):
        Dag([("a", 2), ("b", 2)], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        Dag([], [])


def test_ancestors_are_strict():
    dag = Dag(
        [("a", 2), ("b", 2), ("c", 2), ("d", 2)],
        [("a", "b"), ("b", "c"), ("a", "c")],
    )
    assert ancestors(dag, "c") == {"a", "b"}
    assert ancestors(dag, "a") == frozenset()
    assert ancestors(dag, "d") == frozenset()
    with pytest.raises(UnknownNodeError):
        ancestors(dag, "zz")


def test_textbook_separation_verdicts():
    chain = chain3()
    assert not d_separated(chain, ["a"], ["c"], [])
    assert d_separated(chain, ["a"], ["c"], ["b"])
    fork = Dag([("a", 2), ("b", 2), ("c", 2)], [("b", "a"), ("b", "c")])
    assert not d_separated(fork, ["a"], ["c"], [])
    assert d_separated(fork, ["a"], ["c"], ["b"])
    coll = collider3()
    assert d_separated(coll, ["a"], ["b"], [])
    assert not d_separated(coll, ["a"], ["b"], ["c"])


def test_descendant_of_collider_opens_the_path():
    dag = Dag(
        [("a", 2), ("b", 2), ("c", 2), ("d", 2)],
        [("a", "c"), ("b", "c"), ("c", "d")],
    )
    assert d_separated(dag, ["a"], ["b"], [])
    assert not d_separated(dag, ["a"], ["b"], ["d"])
    assert not d_separated(dag, ["a"], ["b"], ["c", "d"])


def test_separation_query_validation():
    dag = chain3()
    with pytest.raises(UnknownNodeError):
        d_separated(dag, ["zz"], ["c"], [])
    with pytest.raises(UnknownNodeError):
        d_separated(dag, ["a"], ["zz"], [])
    with pytest.raises(UnknownNodeError):
        d_separated(dag, ["a"], ["c"], ["zz"])
    with pytest.raises(InvalidQueryError):
        d_separated(dag, ["a"], ["a"], [])
    with pytest.raises(InvalidQueryError):
        d_separated(dag, ["a"], ["c"], ["a"])
    # Empty sides are legal and vacuously separated.
    assert d_separated(dag, [], ["c"], [])


def test_set_valued_separation_queries():
    dag = Dag(
        [("a", 2), ("b", 2), ("c", 2), ("d", 2)],
        [("a", "b"), ("b", "c"), ("b", "d")],
    )
    assert d_separated(dag, ["a"], ["c", "d"], ["b"])
    assert not d_separated(dag, ["a"], ["c", "d"], [])
    assert not d_separated(dag, ["a", "c"], ["d"], [])


def _all_three_node_dags():
    """Every labeled DAG on nodes a, b, c (edges respect a fixed order 27 ways)."""
    names = ["a", "b", "c"]
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    for picks in product([None, "fwd", "rev"], repeat=3):
        edges = []
        for (p, c), pick in zip(pairs, picks):
            if pick == "fwd":
                edges.append((p, c))
            elif pick == "rev":
                edges.append((c, p))
        try:
            yield Dag([(n, 2) for n in names], edges)
        except ValueError:
            continue  # cyclic orientation


def test_dsep_matches_walk_oracle_on_all_three_node_dags():
    count = 0
    for dag in _all_three_node_dags():
        for x, y, zs in all_single_pair_queries(dag):
            got = d_separated(dag, [x], [y], zs)
            assert got == oracle_dsep_walks(dag, x, y, zs), (dag, x, y, zs)
            count += 1
    assert count > 100


def test_dsep_matches_moralization_oracle_on_random_dags():
    for index in range(60):
        dag = random_binary_dag("dsep-batch", index, max_nodes=5)
        for x, y, zs in all_single_pair_queries(dag):
            got = d_separated(dag, [x], [y], zs)
            assert got == oracle_dsep_moralize(dag, [x], [y], zs), (dag, x, y, zs)


def _indegree_dags(indegrees):
    """Every binary DAG whose node i draws indegrees[i] parents from nodes before it."""
    names = [f"v{i}" for i in range(len(indegrees))]
    choices = (combinations(range(i), d) for i, d in enumerate(indegrees))
    for parents in product(*choices):
        edges = [(names[p], names[i]) for i, ps in enumerate(parents) for p in ps]
        yield Dag([(n, 2) for n in names], edges)


def test_dsep_matches_networkx_oracle():
    nx = pytest.importorskip("networkx")
    dags = list(_indegree_dags((0, 0, 1, 1, 2)))
    assert len(dags) == 36
    dags += [random_binary_dag("networkx", index, max_nodes=6) for index in range(40)]
    for dag in dags:
        graph = nx.DiGraph(dag.edges)
        graph.add_nodes_from(dag.nodes)
        for x, y, zs in all_single_pair_queries(dag):
            expected = nx.is_d_separator(graph, {x}, {y}, set(zs))
            assert d_separated(dag, [x], [y], zs) == expected, (dag, x, y, zs)
            assert d_separated(dag, [y], [x], zs) == expected, (dag, y, x, zs)


def test_embedding_sizes_and_digit_convention():
    chain = Dag([("A", 2), ("B", 2)], [("A", "B")])
    emb = embed_dag(chain)
    assert [f.size for f in emb.space.factors] == [2, 4]
    assert emb.space.outcome_count == 8
    assert [f.name for f in emb.space.factors] == ["u_A", "u_B"]
    xa, xb = emb.node_vars["A"], emb.node_vars["B"]
    assert xa.name == "X_A" and xb.name == "X_B"
    # Response digits read most-significant-first by parent rank: with
    # u_B = k in 0..3 and A = a, B is digit a of k base 2 from the left.
    expect_b = [(k // 2 ** (1 - a)) % 2 for a in (0, 1) for k in range(4)]
    assert list(xb.table) == expect_b
    coll = collider3()
    assert embed_dag(coll).space.outcome_count == 2 * 2 * 16


EMBED_CAP = 4096
# Characters JSON writes escaped: a quote, a backslash, control characters,
# and text outside ASCII, in and past the Basic Multilingual Plane.
ESCAPED_CHARS = '"\\\x00\x1f\x7f\u00e9\u2603\U0001f600'


@st.composite
def small_dags(draw):
    """1-5 nodes with domains 2, 3 or 11 and in-degree at most 3.

    A binary node with three binary parents has 256 * 8 columns, so its
    column takes eight-byte lanes, and a node of 11 values has tables of
    two-digit entries.  Names are n0, n1, ... plus up to two characters
    JSON escapes.  Edges follow the order n0, n1, ...; the nodes are
    declared in a drawn permutation of it, so declaration and topological
    order can differ.
    """
    n = draw(st.integers(1, 5))
    names = [f"n{i}" + draw(st.text(alphabet=ESCAPED_CHARS, max_size=2)) for i in range(n)]
    doms = draw(st.lists(st.sampled_from([2, 2, 3, 11]), min_size=n, max_size=n))
    edges = []
    for child in range(1, n):
        parents = draw(st.lists(st.integers(0, child - 1), max_size=3, unique=True))
        edges += [(names[p], names[child]) for p in parents]
    order = draw(st.permutations(range(n)))
    return Dag([(names[i], doms[i]) for i in order], edges)


def _embedding_size(dag):
    doms = dag.domains
    return math.prod(
        doms[v] ** math.prod(doms[p] for p in dag.parents(v)) for v in dag.nodes
    )


def _cli_embed(dag, tmp, *args):
    """The exit code and stdout of ``embed`` on a file holding dag, in tmp."""
    dag_path = Path(tmp) / "dag.json"
    dag_path.write_text(json.dumps(dag_to_doc(dag)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["embed", str(dag_path), *args])
    return code, out.getvalue()


# A binary node with three binary parents (eight-byte lanes), and an
# 11-value root beside a binary one, both with escaped names.
WIDE_LANES = Dag(
    [("a", 2), ("b\u00e9", 2), ('c"', 2), ("d\\", 2)],
    [("a", "d\\"), ("b\u00e9", "d\\"), ('c"', "d\\")],
)
TWO_DIGITS = Dag([("r\x01", 11), ("s\U0001f600", 2)], [])


@settings(max_examples=80, deadline=None)
@given(small_dags())
@example(WIDE_LANES)
@example(TWO_DIGITS)
def test_embedding_matches_per_outcome_oracle(dag):
    size = _embedding_size(dag)
    if size > EMBED_CAP:
        with pytest.raises(SpaceCapError):
            embed_dag(dag, max_outcomes=EMBED_CAP)
        return
    emb = embed_dag(dag, max_outcomes=EMBED_CAP)
    assert emb.space.outcome_count == size
    expected = oracle_embed_tables(dag)
    assert {v: tuple(x.table) for v, x in emb.node_vars.items()} == expected
    # embed -o writes the compact, key-sorted document plus one newline.
    doc = space_to_doc(emb.space, {x.name: x for x in emb.node_vars.values()})
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "space.json"
        assert _cli_embed(dag, tmp, "-o", str(out_path))[0] == 0
        assert out_path.read_bytes() == text.encode()


@settings(max_examples=40, deadline=None)
@given(small_dags())
@example(WIDE_LANES)
@example(TWO_DIGITS)
def test_embed_stdout_is_the_written_file(dag):
    # main prints the document through json.dumps; -o writes it through
    # cli._dump_space.  --pretty output is json.dumps with an indent of 2.
    if _embedding_size(dag) > EMBED_CAP:
        return
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "space.json"
        assert _cli_embed(dag, tmp, "-o", str(out_path))[0] == 0
        assert _cli_embed(dag, tmp) == (0, out_path.read_text())
        emb = embed_dag(dag)
        doc = space_to_doc(emb.space, {x.name: x for x in emb.node_vars.values()})
        pretty = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert _cli_embed(dag, tmp, "--pretty") == (0, pretty)


def test_embedding_histories_are_ancestral():
    emb = embed_dag(chain3())
    space = emb.space
    omega = full_block(space)
    ha = history(space, omega, emb.node_vars["a"])
    hc = history(space, omega, emb.node_vars["c"])
    assert ha.members() == (0,)
    assert hc.members() == (0, 1, 2)
    assert ha.issubset(hc)


def test_embedding_respects_cap():
    wide = Dag([(f"n{i}", 2) for i in range(8)], [(f"n{i}", "n7") for i in range(7)])
    # Node n7 needs 2**128 response functions; no cap can hold that.
    with pytest.raises(SpaceCapError):
        embed_dag(wide)
    small = chain3()
    with pytest.raises(SpaceCapError):
        embed_dag(small, max_outcomes=31)
    assert embed_dag(small, max_outcomes=32).space.outcome_count == 32


def test_equivalence_on_textbook_graphs():
    for dag in (chain3(), collider3()):
        results = dsep_vs_structural(dag, all_single_pair_queries(dag))
        assert all(r[-2] == r[-1] for r in results), results
        assert len(results) == 3 * 2  # 3 pairs, Z subsets of 1 leftover node
    # Spot-check one verdict pair directly.
    marginal, given_c = dsep_vs_structural(
        collider3(), [("a", "b", []), ("a", "b", ["c"])]
    )
    assert marginal[-2:] == (True, True)
    assert given_c[-2:] == (False, False)


def test_conditioning_entangles_collider_embedding():
    emb = embed_dag(collider3())
    space = emb.space
    ch = conditional_history(space, emb.node_vars["a"], emb.node_vars["c"])
    assert any(1 in h for h in ch.per_block.values())


def test_ancestry_report_on_random_dags():
    for index in range(10):
        dag = random_binary_dag("ancestry-smoke", index)
        mismatches = ancestry_mismatches(dag)
        assert not mismatches, (dag, mismatches)


def test_dag_doc_roundtrip():
    dag = Dag([("a", 2), ("b", 3)], [("a", "b")])
    doc = dag_to_doc(dag)
    assert doc == {
        "nodes": [{"name": "a", "domain": 2}, {"name": "b", "domain": 3}],
        "edges": [["a", "b"]],
    }
    back = dag_from_doc(doc)
    assert back.nodes == dag.nodes and back.edges == dag.edges
    assert back.domains == dag.domains


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"nodes": []},
        {"nodes": [{"name": "a"}]},
        {"nodes": [{"name": "a", "domain": True}]},
        {"nodes": [{"name": "a", "domain": 2}], "edges": [["a"]]},
        {"nodes": [{"name": "a", "domain": 2}], "edges": [["a", "b"]]},
        {"nodes": [{"name": "a", "domain": 1}]},
    ],
)
def test_dag_doc_rejects_malformed(doc):
    with pytest.raises(FormatError):
        dag_from_doc(doc)


def _run_timed(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def test_many_roots_embed_and_dsep_promptly(tmp_path):
    path = tmp_path / "roots.json"
    nodes = [{"name": f"n{i}", "domain": 2} for i in range(40_000)]
    path.write_text(json.dumps({"nodes": nodes, "edges": []}))
    code, out, err, elapsed = _run_timed(["embed", str(path)])
    assert (code, out) == (3, "") and elapsed < 1.0
    assert err == "error: embedding exceeds the cap of 1000000 outcomes\n"
    code, out, err, elapsed = _run_timed(["dsep", str(path), "n0", "n1"])
    assert (code, err) == (0, "") and elapsed < 1.0
    assert json.loads(out)["d_separated"] is True


BAD_DAG_CAP = 4096
SEPARATED = '{"d_separated":true,"given":[],"x":"n0","y":"n1"}\n'


@st.composite
def malformed_dag_files(draw):
    """A DAG document with one defect, and the exit code and message it must give.

    Graphs over the cap are valid: dsep answers them and embed exits 3.
    """
    kind = draw(
        st.sampled_from(
            ["type", "unknown", "duplicate_node", "duplicate_edge", "cycle", "domain", "cap"]
        )
    )
    if kind == "cap":
        # Unconnected binary roots n0.. plus perhaps one child of all the
        # others, whose response factor alone passes any cap.
        n = draw(st.integers(13, 40))
        nodes = [{"name": f"n{i}", "domain": 2} for i in range(n)]
        edges = []
        if draw(st.booleans()):
            nodes.append({"name": "c", "domain": 2})
            edges = [[f"n{i}", "c"] for i in range(2, n)]
        message = f"error: embedding exceeds the cap of {BAD_DAG_CAP} outcomes\n"
        doc = {"nodes": nodes, "edges": edges}
        return doc, {"dsep": (0, SEPARATED, ""), "embed": (3, "", message)}
    n = draw(st.integers(2, 6))
    nodes = [{"name": f"n{i}", "domain": draw(st.integers(2, 3))} for i in range(n)]
    edges = [
        [f"n{i}", f"n{j}"] for j in range(n) for i in range(j) if draw(st.booleans())
    ]
    doc = {"nodes": nodes, "edges": edges}
    k = draw(st.integers(0, n - 1))
    if kind == "type":
        defect = draw(
            st.sampled_from(
                ["doc", "nodes", "node", "name", "empty_name", "domain", "edges", "edge"]
            )
        )
        if defect == "doc":
            doc, message = draw(st.sampled_from([[], None, "x", 3])), (
                "DAG document must be a JSON object"
            )
        elif defect == "nodes":
            doc["nodes"] = draw(st.sampled_from([[], {}, None, "n0"]))
            message = "DAG document needs a non-empty 'nodes' list"
        elif defect == "node":
            nodes[k] = draw(st.sampled_from([["n", 2], "n", None, 2]))
            message = f"nodes[{k}] must be an object"
        elif defect == "name":
            nodes[k]["name"] = draw(st.sampled_from([None, 3, True, ["n"]]))
            message = f"nodes[{k}].name must be a string"
        elif defect == "empty_name":
            nodes[k]["name"] = ""
            message = "node names must be non-empty strings"
        elif defect == "domain":
            nodes[k]["domain"] = draw(st.sampled_from([True, 2.0, "2", None, [2]]))
            message = f"nodes[{k}].domain must be an integer"
        elif defect == "edges":
            doc["edges"] = draw(st.sampled_from([{}, "n0", 1, None]))
            message = "'edges' must be a list"
        else:
            pos = draw(st.integers(0, len(edges)))
            bad = draw(st.sampled_from([["n0"], ["n0", 1], "n0", ["n0", "n1", "n1"]]))
            edges.insert(pos, bad)
            message = f"edges[{pos}] must be a [parent, child] pair of strings"
    elif kind == "unknown":
        pos = draw(st.integers(0, len(edges)))
        pair = draw(st.sampled_from([["zz", "n0"], ["n0", "zz"]]))
        edges.insert(pos, pair)
        message = "edge references unknown node 'zz'"
    elif kind == "duplicate_node":
        nodes.insert(draw(st.integers(0, n)), {"name": f"n{k}", "domain": 2})
        message = "node names must be unique"
    elif kind == "duplicate_edge":
        if not edges:
            edges.append(["n0", "n1"])
        parent, child = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), [parent, child])
        message = f"duplicate edge {parent!r} -> {child!r}"
    elif kind == "cycle":
        # A self-loop, or an existing edge reversed.
        back = [[c, p] for p, c in edges] + [[f"n{k}", f"n{k}"]]
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(back)))
        message = "edges contain a cycle"
    else:
        nodes[k]["domain"] = draw(st.integers(-3, 1))
        message = f"node 'n{k}' needs a domain of at least 2"
    failure = (2, "", f"error: {message}\n")
    return doc, {"dsep": failure, "embed": failure}


@settings(max_examples=150, deadline=None)
@given(malformed_dag_files(), st.sampled_from(["dsep", "embed"]))
def test_malformed_dag_files_exit_promptly(case, command):
    doc, expected = case
    argv = [command, "", "n0", "n1"] if command == "dsep" else [command, ""]
    with tempfile.TemporaryDirectory() as tmp:
        argv[1] = str(Path(tmp) / "dag.json")
        Path(argv[1]).write_text(json.dumps(doc))
        with mock.patch.dict(os.environ, {OUTCOME_CAP_ENV: str(BAD_DAG_CAP)}):
            code, out, err, elapsed = _run_timed(argv)
    assert elapsed < 1.0
    assert (code, out, err) == expected[command]
