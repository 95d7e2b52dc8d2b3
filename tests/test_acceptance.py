"""Acceptance gate: one test per shipped criterion, one printed line each.

Every test prints "ACCEPTANCE <k> (<name>): PASS" (or FAIL) through the
capture bypass so the lines survive into piped pytest output.  The heavy
randomized batches share module-scoped suite runs; budgets and seeds are
the shipped defaults.  The printed time of a criterion that reads a shared
suite includes that suite's build time, so two criteria sharing one suite
both count it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from facthist import (
    HISTORY_LAWS,
    SEMIGRAPHOID_AXIOMS,
    ProductDistribution,
    SuiteConfig,
    blocks_of,
    conditional_history,
    distribution_from_doc,
    full_block,
    history,
    is_cond_independent,
    run_suite,
    space_to_doc,
    structurally_independent,
    uniform_product,
)
from facthist.cli import main

from helpers import (
    all_single_pair_queries,
    ancestry_mismatches,
    dsep_vs_structural,
    random_binary_dag,
    xor_bundle,
)
from oracles import oracle_history

F = Fraction


@pytest.fixture()
def criterion(capsys):
    def run(k, name, fn, limit_s, setup_s=0.0):
        start = time.monotonic()
        try:
            fn()
            elapsed = time.monotonic() - start
            assert elapsed < limit_s, f"took {elapsed:.1f}s, limit {limit_s}s"
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {k} ({name}): FAIL")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {k} ({name}): PASS [{setup_s + elapsed:.2f}s]")

    return run


@pytest.fixture(scope="module")
def suite200():
    start = time.monotonic()
    report = run_suite(SuiteConfig(seed=0, iterations=200))
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def suite500():
    start = time.monotonic()
    report = run_suite(SuiteConfig(seed=0, iterations=500))
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def dag_batch():
    return [random_binary_dag("acceptance", i) for i in range(100)]


def test_acceptance_1_parity_histories(criterion):
    def check():
        space, u0, u1, xor = xor_bundle()
        omega = full_block(space)
        assert history(space, omega, u0).members() == (0,)
        assert history(space, omega, xor).members() == (0, 1)
        cond = conditional_history(space, u0, xor)
        assert set(cond.per_block) == {"0", "1"}
        assert all(h.members() == (0, 1) for h in cond.per_block.values())
        # Independent route: literal subset enumeration of the definition.
        for var in (u0, xor):
            assert history(space, omega, var).members() == tuple(
                sorted(oracle_history(space, omega, var))
            )
        for block in blocks_of(space, xor).values():
            assert conditional_history(space, u0, xor).per_block[
                block.label
            ].members() == tuple(sorted(oracle_history(space, block, u0)))

    criterion(1, "parity histories vs enumeration oracle", check, 1.0)


def test_acceptance_2_completeness_exemplar(criterion, tmp_path, capsys):
    def check():
        space, u0, u1, xor = xor_bundle()
        assert is_cond_independent(space, uniform_product(space), u0, xor).holds
        biased = ProductDistribution(((F(1, 2), F(1, 2)), (F(2, 3), F(1, 3))))
        report = is_cond_independent(space, biased, u0, xor)
        assert not report.holds
        # The exact cell: joint P(u0=1, xor=1) = 1/3 against marginals 1/4.
        joint_11 = sum(
            biased.per_factor[0][a] * biased.per_factor[1][b]
            for a in (0, 1)
            for b in (0, 1)
            if a == 1 and a ^ b == 1
        )
        marg = biased.per_factor[0][1] * F(1, 2)
        assert joint_11 == F(1, 3) and marg == F(1, 4)
        # The CLI verify command must emit a checkable witness.
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space_to_doc(space, {"XOR": xor})))
        code = main(["verify", str(path), "u0", "XOR"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0 and doc["mode"] == "witness" and doc["found"]
        emitted = distribution_from_doc(doc["witness"])
        assert not is_cond_independent(space, emitted, u0, xor).holds

    criterion(2, "exact dependence exemplar with emitted witness", check, 1.0)


def test_acceptance_3_fundamental_theorem_batch(criterion, suite200):
    report, build_s = suite200

    def check():
        assert build_s < 300.0, f"suite took {build_s:.1f}s"
        sound = report.tallies["soundness_ci"]
        complete = report.tallies["completeness_witness"]
        assert sound.passed + complete.passed == 200
        assert sound.failed == 0 and sound.inconclusive == 0
        assert complete.failed == 0 and complete.inconclusive == 0
        assert not [
            c
            for c in report.counterexamples
            if c["law"] in ("soundness_ci", "completeness_witness")
        ]

    criterion(
        3, "CI soundness and witness completeness, 200 instances", check, 300.0, setup_s=build_s
    )


def test_acceptance_4_dsep_equivalence(criterion, dag_batch):
    def check():
        total = 0
        for dag in dag_batch:
            results = dsep_vs_structural(dag, all_single_pair_queries(dag))
            disagreements = [r for r in results if r[-2] != r[-1]]
            assert not disagreements, disagreements
            total += len(results)
        assert total > 500

    criterion(4, "d-separation equals structural verdicts, 100 DAGs", check, 300.0)


def test_acceptance_5_structural_time(criterion, dag_batch):
    def check():
        for dag in dag_batch:
            mismatches = ancestry_mismatches(dag)
            assert not mismatches, (dag, mismatches)

    criterion(5, "histories mirror ancestry on the DAG batch", check, 300.0)


def test_acceptance_6_semigraphoid(criterion, suite500):
    report, build_s = suite500

    def check():
        assert build_s < 300.0, f"suite took {build_s:.1f}s"
        for axiom in SEMIGRAPHOID_AXIOMS:
            tally = report.tallies[f"semigraphoid_{axiom}"]
            assert tally.passed == 500 and tally.failed == 0, axiom

    criterion(
        6, "five semigraphoid axioms, 500 instances", check, 300.0, setup_s=build_s
    )


def test_acceptance_7_history_laws(criterion, suite500):
    report, build_s = suite500

    def check():
        assert build_s < 300.0, f"suite took {build_s:.1f}s"
        for law in HISTORY_LAWS:
            tally = report.tallies[f"history_{law}"]
            assert tally.passed == 500 and tally.failed == 0, law

    criterion(
        7, "history laws and closure properties, 500 instances", check, 300.0, setup_s=build_s
    )


def test_acceptance_8_duality(criterion, suite200):
    report, build_s = suite200

    def check():
        assert build_s < 300.0, f"suite took {build_s:.1f}s"
        irrelevance = report.tallies["duality_irrelevance"]
        assert irrelevance.passed == 200 and irrelevance.failed == 0
        identity = report.tallies["identity_product_difference"]
        assert identity.failed == 0 and identity.passed > 0
        maximality = report.tallies["duality_maximality"]
        total = maximality.passed + maximality.inconclusive
        assert maximality.failed == 0 and total > 0
        assert maximality.passed >= 0.95 * total, (
            maximality.passed,
            maximality.inconclusive,
        )

    criterion(
        8, "perturbation duality and exact identity, 200 instances", check, 300.0, setup_s=build_s
    )


def test_acceptance_9_determinism(criterion, capsys):
    def check():
        cfg = SuiteConfig(seed=3, iterations=10)
        assert run_suite(cfg).to_json() == run_suite(cfg).to_json()
        argv = ["axioms", "--seed", "3", "--iters", "10"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    criterion(9, "byte-identical reruns of the suites", check, 300.0)
