"""Seeded corpora, op cycles and answer checks for the four workloads.

Each workload writes its input files from the seed into a directory and
returns one *cycle*: the fixed list of ops a run repeats whole, so every run
times the same multiset of ops.  An op is one or more ``facthist`` CLI calls
that are timed together, plus a check of their exit codes and JSON output.
Every expected answer follows from how the input was built, never from the
code under test.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

Call = tuple[str, ...]
Result = tuple[int, str]


@dataclass(frozen=True)
class Op:
    """CLI calls timed as one op; ``check`` returns None or what went wrong."""

    kind: str
    calls: tuple[Call, ...]
    check: Callable[[Sequence[Result]], str | None]


def _write(path: Path, doc: object) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _expect(ok: bool, what: str) -> str | None:
    return None if ok else what


def _doc(result: Result, rc: int) -> dict:
    code, out = result
    if code != rc:
        raise ValueError(f"exit {code}, expected {rc}")
    return json.loads(out)


def _dense_table(sizes: Sequence[int], ids: Sequence[int], k: int, rng: random.Random) -> list[int]:
    """Random onto function of the factors ``ids`` that depends on every one of them."""
    while True:
        f = {key: rng.randrange(k) for key in itertools.product(*(range(sizes[i]) for i in ids))}
        onto_and_dependent = len(set(f.values())) == k and all(
            any(
                f[key] != f[key[:p] + ((key[p] + 1) % sizes[i],) + key[p + 1 :]]
                for key in f
            )
            for p, i in enumerate(ids)
        )
        if onto_and_dependent:
            break
    return [f[tuple(o[i] for i in ids)] for o in itertools.product(*(range(s) for s in sizes))]


# parity-history ------------------------------------------------------------

PARITY_FACTORS = 8


def parity_history(seed: int, root: Path) -> list[Op]:
    """Z is the parity of all factors, so no proper subset generates anything.

    On every block of Z the history of each u_i is all factors, u_i and u_j
    overlap in all factors, and the block is one atom.  A history scan's
    cost depends on the factor's position in the file, so the cycle covers
    every position once and the seed shuffles names, labels and op order.
    """
    rng = random.Random(f"parity-history:{seed}")
    n = PARITY_FACTORS
    names = rng.sample([f"u{i}" for i in range(n)], n)
    zlabels = rng.sample(["even", "odd"], 2)
    doc = {
        "factors": [{"name": m, "domain": rng.sample(["a", "b"], 2)} for m in names],
        "variables": {
            "Z": {
                "codomain": zlabels,
                "table": [sum(o) % 2 for o in itertools.product(range(2), repeat=n)],
            }
        },
    }
    path = str(root / "parity.json")
    _write(root / "parity.json", doc)

    def all_blocks(mapping: dict) -> bool:
        return sorted(mapping) == sorted(zlabels) and all(
            v == names for v in mapping.values()
        )

    def check_history(res: Sequence[Result]) -> str | None:
        return _expect(all_blocks(_doc(res[0], 0)["history"]), "history is not all factors")

    def check_indep(res: Sequence[Result]) -> str | None:
        d = _doc(res[0], 1)
        return _expect(
            d["independent"] is False and all_blocks(d["overlaps"]),
            "overlap is not all factors",
        )

    def check_atoms(res: Sequence[Result]) -> str | None:
        blocks = _doc(res[0], 0)["blocks"]
        return _expect(
            sorted(blocks) == sorted(zlabels)
            and all(b == {"atoms": [names], "trivial_part": []} for b in blocks.values()),
            "block is not one atom",
        )

    ops = []
    for p in rng.sample(range(n), n):
        x, y = names[p], names[(p + n // 2) % n]
        ops.append(Op("history", (("history", path, "--var", x, "--given", "Z"),), check_history))
        ops.append(Op("indep", (("indep", path, x, y, "--given", "Z"),), check_indep))
        ops.append(Op("atoms", (("atoms", path, "--given", "Z"),), check_atoms))
    return ops


# ci-verify -----------------------------------------------------------------

CI_SIZES = (2, 3, 2, 3, 2, 3, 2, 3)
CI_SPACES = 3
CI_SUPPORT = {"X": (0, 1, 2), "Y": (3, 4, 5), "Z": (6, 7), "W": (2, 3)}
CI_CODOMAIN = {"X": 3, "Y": 3, "Z": 3, "W": 2}


def ci_verify(seed: int, root: Path) -> list[Op]:
    """X, Y, Z, W are random functions of fixed, disjoint-or-not factor sets.

    On each block of Z (a function of u6, u7) the history of a variable is
    the factor set it depends on, so X and Y are structural (soundness mode
    must hold on every sample) and X and W overlap in u2 (witness mode must
    find a violating distribution).
    """
    rng = random.Random(f"ci-verify:{seed}")
    factors = [
        {"name": f"u{i}", "domain": [str(v) for v in range(s)]} for i, s in enumerate(CI_SIZES)
    ]
    ops = []
    for k in range(CI_SPACES):
        variables = {}
        for name, ids in CI_SUPPORT.items():
            width = CI_CODOMAIN[name]
            variables[name] = {
                "codomain": [f"{name.lower()}{v}" for v in range(width)],
                "table": _dense_table(CI_SIZES, ids, width, rng),
            }
        zlabels = variables["Z"]["codomain"]
        path = str(root / f"ci{k}.json")
        _write(root / f"ci{k}.json", {"factors": factors, "variables": variables})

        def check_sound(res: Sequence[Result]) -> str | None:
            d = _doc(res[0], 0)
            return _expect(
                d["mode"] == "soundness" and d["all_hold"] is True and d["samples"] == 50,
                "soundness samples did not all hold",
            )

        def check_witness(res: Sequence[Result], zlabels=zlabels) -> str | None:
            d = _doc(res[0], 0)
            return _expect(
                d["mode"] == "witness"
                and d["found"] is True
                and d["overlaps"] == {z: ["u2"] for z in zlabels},
                "no witness, or overlap is not u2 on every block",
            )

        s1, s2, s3 = (rng.randrange(1 << 30) for _ in range(3))
        ops.append(Op("structural", (("verify", path, "X", "Y", "--given", "Z", "--seed", str(s1)),), check_sound))
        ops.append(Op("structural", (("verify", path, "Y", "X", "--given", "Z", "--seed", str(s2)),), check_sound))
        ops.append(Op("witness", (("verify", path, "X", "W", "--given", "Z", "--seed", str(s3)),), check_witness))
    return ops


# dag-bridge ----------------------------------------------------------------

DAG_INDEGREES = (0, 0, 1, 1, 2)
# Queries by topological position: (x, y, conditioning set), one per
# conditioning-set size.
DAG_QUERIES = ((4, 0, ()), (3, 1, (2,)), (4, 1, (0, 2)))


def _embed_size(indegrees: Sequence[int]) -> int:
    size = 1
    for d in indegrees:
        size *= 2 ** (2**d)
    return size


def _parent_choices(indegrees: Sequence[int]):
    """Every way to draw each node's parents from the nodes before it."""
    return itertools.product(
        *(itertools.combinations(range(i), d) for i, d in enumerate(indegrees))
    )


def dag_bridge(seed: int, root: Path) -> list[Op]:
    """Every binary DAG with one in-degree sequence, so every embedding is one size.

    The cycle holds each DAG whose node i draws DAG_INDEGREES[i] parents
    from the nodes before it, once; the seed picks node names, the side of
    each query, and the op order.  Each op embeds one DAG and answers its
    queries twice: by d-separation on the DAG and by structural independence
    of the embedded X_v variables.  The two answers must agree, and the
    embedding must have the size the in-degrees fix.
    """
    rng = random.Random(f"dag-bridge:{seed}")
    n = len(DAG_INDEGREES)
    outcomes = _embed_size(DAG_INDEGREES)
    ops = []
    for k, parents in enumerate(_parent_choices(DAG_INDEGREES)):
        names = [f"N{k}{c}" for c in rng.sample("ABCDEFGH", n)]
        edges = [[names[p], names[i]] for i, ps in enumerate(parents) for p in ps]
        dag_path = root / f"dag{k}.json"
        emb_path = str(root / f"emb{k}.json")
        _write(dag_path, {"nodes": [{"name": m, "domain": 2} for m in names], "edges": edges})
        calls: list[Call] = [("embed", str(dag_path), "-o", emb_path)]
        for x, y, given in DAG_QUERIES:
            x, y = rng.sample([names[x], names[y]], 2)
            given = [names[g] for g in given]
            cond = ("--given", ",".join(given)) if given else ()
            calls.append(("dsep", str(dag_path), x, y, *cond))
            xcond = ("--given", ",".join(f"X_{g}" for g in given)) if given else ()
            calls.append(("indep", emb_path, f"X_{x}", f"X_{y}", *xcond))

        def check_bundle(res: Sequence[Result]) -> str | None:
            code, out = res[0]
            if code != 0 or json.loads(out)["outcome_count"] != outcomes:
                return f"embedding does not have {outcomes} outcomes"
            for (dc, dout), (ic, iout) in zip(res[1::2], res[2::2]):
                if dc not in (0, 1) or dc != ic:
                    return f"dsep exit {dc} and indep exit {ic} disagree"
                if json.loads(dout)["d_separated"] != json.loads(iout)["independent"]:
                    return "dsep and indep verdicts disagree"
            return None

        ops.append(Op("bundle", tuple(calls), check_bundle))
    rng.shuffle(ops)
    return ops


# axioms-suite --------------------------------------------------------------

AXIOM_OPS = 192
AXIOM_ITERS = 2


def axioms_suite(seed: int, root: Path) -> list[Op]:
    """Seeded law suites at the default bounds; every law must pass."""
    rng = random.Random(f"axioms-suite:{seed}")

    def check_suite(res: Sequence[Result]) -> str | None:
        return _expect(_doc(res[0], 0)["failed"] is False, "suite reported a failure")

    return [
        Op("suite", (("axioms", "--seed", str(rng.randrange(1 << 30)), "--iters", str(AXIOM_ITERS)),), check_suite)
        for _ in range(AXIOM_OPS)
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "parity-history": parity_history,
    "ci-verify": ci_verify,
    "dag-bridge": dag_bridge,
    "axioms-suite": axioms_suite,
}
