"""The randomized law suites and their plumbing.

Law checkers are exercised on the parity instance (where every expected
verdict is known by hand) and on generated batches; the rectangle test,
folded over blocks, is compared against the full event-enumeration oracle
of the separator condition,
the integer duality law against its Fraction form, and the chain-rule
joint factorization against a per-rank pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from facthist import (
    HISTORY_LAWS,
    SEMIGRAPHOID_AXIOMS,
    SUITE_MAX_FACTORS,
    SUITE_MAX_OUTCOMES,
    SuiteConfig,
    blocks_of,
    check_duality,
    check_history_laws,
    check_semigraphoid,
    gen_random_space,
    gen_random_variable,
    is_rectangle,
    run_suite,
    trivial_var,
)
from facthist import IndexSet, distributions, factor_var, sample_product
from facthist.cli import main
from facthist.distributions import (
    SAMPLE_GRID_MAX,
    CiReport,
    IdentityReport,
    SoundnessReport,
)
from facthist.verification import _joint_factorizes, _stream

from helpers import function_of, make_space, make_var, xor_bundle
from oracles import (
    all_subsets,
    oracle_duality,
    oracle_joint_factorizes,
    oracle_separation_global,
)


def test_generators_are_deterministic_and_bounded():
    cfg = SuiteConfig(seed=13, max_factors=4, max_domain=3)
    for index in range(20):
        s1 = gen_random_space(cfg, index)
        s2 = gen_random_space(cfg, index)
        assert [f.domain for f in s1.factors] == [f.domain for f in s2.factors]
        assert 2 <= s1.factor_count <= 4
        assert all(2 <= f.size <= 3 for f in s1.factors)
        v1 = gen_random_variable(s1, cfg, index)
        v2 = gen_random_variable(s2, cfg, index)
        assert v1.table == v2.table
        assert 1 <= len(v1.codomain) <= 4
        assert len(v1.table) == s1.outcome_count
    other = gen_random_space(SuiteConfig(seed=14, max_factors=4, max_domain=3), 0)
    base = gen_random_space(cfg, 0)
    assert (
        [f.domain for f in other.factors] != [f.domain for f in base.factors]
        or gen_random_variable(other, SuiteConfig(seed=14), 0).table
        != gen_random_variable(base, cfg, 0).table
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(iterations=-1)
    with pytest.raises(ValueError):
        SuiteConfig(max_factors=1)
    with pytest.raises(ValueError):
        SuiteConfig(max_factors=21)
    assert SuiteConfig(max_factors=SUITE_MAX_FACTORS).max_factors == 8
    # The joint bound admits 8 factors of 3 values, 4 of 9 and 2 of 81.
    assert SUITE_MAX_OUTCOMES == 3**8
    for factors, domain in ((8, 3), (4, 9), (2, 81)):
        assert SuiteConfig(max_factors=factors, max_domain=domain).max_domain == domain
        with pytest.raises(ValueError, match=r"max_domain \*\* max_factors"):
            SuiteConfig(max_factors=factors, max_domain=domain + 1)
    with pytest.raises(ValueError, match=r"max_factors must lie in 2\.\.8"):
        SuiteConfig(max_factors=SUITE_MAX_FACTORS + 1)
    with pytest.raises(ValueError):
        SuiteConfig(max_domain=1)
    with pytest.raises(ValueError):
        SuiteConfig(witness_budget=-1)


def test_semigraphoid_axioms_on_parity_instance():
    space, u0, u1, xor = xor_bundle()
    out = check_semigraphoid(space, u0, u1, trivial_var(space), xor)
    assert set(out) == set(SEMIGRAPHOID_AXIOMS)
    assert all(out.values())
    # Swapping roles so the antecedents fire non-vacuously.
    out2 = check_semigraphoid(space, u0, u1, xor, trivial_var(space))
    assert all(out2.values())


def test_history_laws_on_parity_instance():
    space, u0, u1, xor = xor_bundle()
    out = check_history_laws(space, u0, u1, xor, rng=_stream(3, "laws", 0))
    assert set(out) == set(HISTORY_LAWS)
    assert all(out.values()), [k for k, v in out.items() if not v]


def test_history_laws_on_bytes_conditioners_set_no_bitset_rank_by_rank(monkeypatch):
    # Every block the laws visit is a level set of a bytes conditioner, so
    # its rank bitset is one translate of that table, never _bitset's
    # per-rank loop.
    history_module = importlib.import_module("facthist.history")
    calls = Counter()
    bitset = history_module._bitset

    def counting(space, ranks):
        calls[len(ranks)] += 1
        return bitset(space, ranks)

    monkeypatch.setattr(history_module, "_bitset", counting)
    cfg = SuiteConfig(seed=7)
    for index in range(20):
        space = gen_random_space(cfg, index)
        x, y, z = (
            gen_random_variable(space, cfg, 3 * index + k, name=name)
            for k, name in enumerate("xyz")
        )
        assert type(z.table) is bytes
        out = check_history_laws(space, x, y, z, rng=_stream(cfg.seed, "laws", index))
        assert all(out.values()), [k for k, v in out.items() if not v]
    assert calls == {}


def test_duality_on_parity_instance():
    space, u0, u1, xor = xor_bundle()
    cfg = SuiteConfig(seed=5)
    # The parity variable holds both factors in its history on the full
    # space, so both (factor, block) pairs must witness a moved conditional.
    out = check_duality(space, xor, trivial_var(space), cfg)
    assert out.irrelevance_violations == 0
    assert out.maximality_witnessed == 2
    assert out.maximality_inconclusive == 0
    # A coordinate projection: one in-history factor, one irrelevant factor.
    out2 = check_duality(space, u0, trivial_var(space), cfg)
    assert out2.irrelevance_violations == 0
    assert out2.maximality_witnessed == 1
    assert out2.maximality_inconclusive == 0


@pytest.mark.parametrize("grid", [SAMPLE_GRID_MAX, 2])
def test_integer_duality_matches_fraction_oracle(monkeypatch, grid):
    # On a grid of 2 a perturbation is often proportional to the base, so
    # one draw often fails to move a conditional: with a budget of 1 the
    # tallies then depend on exactly which numerators each stream draws.
    monkeypatch.setattr(distributions, "SAMPLE_GRID_MAX", grid)
    seen = Counter()
    for seed in (3, 8, 40):
        for max_domain in (2, 3):
            for budget in (0, 1, 16):
                cfg = SuiteConfig(
                    seed=seed, max_domain=max_domain, perturbation_budget=budget
                )
                for index in range(12):
                    space = gen_random_space(cfg, index)
                    x = gen_random_variable(space, cfg, 2 * index, name="x")
                    z = gen_random_variable(space, cfg, 2 * index + 1, name="z")
                    got = check_duality(space, x, z, cfg, index)
                    assert got == oracle_duality(space, x, z, cfg, index), (cfg, index)
                    seen["instances"] += 1
                    seen["multi-block"] += len(set(z.table)) > 1
                    seen["witnessed"] += got.maximality_witnessed
                    if budget:
                        seen["missed"] += got.maximality_inconclusive
    assert seen["instances"] >= 200
    assert seen["multi-block"] >= 50 and seen["witnessed"] >= 200, seen
    if grid == 2:
        assert seen["missed"] >= 20, seen


def test_integer_duality_counts_violations_like_the_oracle(monkeypatch):
    # With every history reported empty, every factor is checked for
    # irrelevance on every block, so violations are counted.  On a grid of 2
    # a draw is often proportional to the base, so how many depends on
    # exactly which numerators each stream draws.
    monkeypatch.setattr(distributions, "SAMPLE_GRID_MAX", 2)

    def blind(space, c, x):
        return IndexSet.empty(space.factor_count)

    # The package re-exports the function history under the module's name.
    history_module = importlib.import_module("facthist.history")
    monkeypatch.setattr(history_module, "history", blind)
    # conditional_history reports every history empty too: it never takes
    # the supports, and each level set's history is blind.
    monkeypatch.setattr(history_module, "_history_off", lambda space, x, read: None)
    monkeypatch.setattr(
        history_module, "_history_on", lambda space, key, bits, x, unread: blind(space, None, x)
    )
    monkeypatch.setattr(importlib.import_module("facthist.verification"), "history", blind)
    violations = 0
    for index in range(60):
        cfg = SuiteConfig(seed=index % 3, max_domain=2 + index % 2)
        space = gen_random_space(cfg, index)
        x = gen_random_variable(space, cfg, 2 * index, name="x")
        z = gen_random_variable(space, cfg, 2 * index + 1, name="z")
        got = check_duality(space, x, z, cfg, index)
        assert got == oracle_duality(space, x, z, cfg, index), (cfg, index)
        violations += got.irrelevance_violations
    assert violations >= 100


def test_joint_factorization_matches_per_rank_oracle():
    rng = random.Random("joint-factorization")
    seen = Counter()
    for trial in range(240):
        space = make_space(*(rng.randint(1, 3) for _ in range(rng.randint(2, 4))))
        n = space.factor_count

        def var(name):
            ids = [i for i in range(n) if rng.random() < 0.4]
            return function_of(space, name, ids, rng.randint(1, 3), rng)

        xs = [var(f"x{j}") for j in range(rng.randint(2, 3))]
        z = var("z")
        p = sample_product(space, trial)
        want = oracle_joint_factorizes(space, p, xs, z)
        assert _joint_factorizes(space, p, xs, z) == want, trial
        seen["factorizes" if want else "dependent"] += 1
        seen["multi-block"] += len(set(z.table)) > 1
        seen["codomain-1"] += any(len(v.codomain) == 1 for v in xs)
    assert all(
        seen[k] >= 20 for k in ("factorizes", "dependent", "multi-block", "codomain-1")
    ), seen


def test_separator_condition_matches_global_oracle():
    # The separator condition restates the rectangle condition: per-block
    # rectangles, folded over blocks, must agree with the literal global
    # separator condition.
    cfg = SuiteConfig(seed=2, max_factors=3, max_domain=2)
    for index in range(6):
        space = gen_random_space(cfg, index)
        z = gen_random_variable(space, cfg, index, name="z")
        blocks = blocks_of(space, z).values()
        n = space.factor_count
        for ids in all_subsets(range(n)):
            j = IndexSet(sum(1 << i for i in ids), n)
            per_block = all(is_rectangle(space, c, j) for c in blocks)
            assert per_block == oracle_separation_global(space, z, ids)


def test_separator_condition_on_parity_blocks():
    space, u0, u1, xor = xor_bundle()
    # On a parity block only the empty and the full factor sets are
    # rectangles, and only they pass the separator condition.
    want = [True, False, False, True]  # by mask
    for c in blocks_of(space, xor).values():
        assert [is_rectangle(space, c, IndexSet(m, 2)) for m in range(4)] == want
    assert [oracle_separation_global(space, xor, ids) for ids in all_subsets(range(2))] == want


def test_joint_factorization_for_pairwise_structural_triple():
    space = make_space(2, 2, 2)
    triple = [factor_var(space, i) for i in range(3)]
    z = trivial_var(space)
    p = sample_product(space, 9)
    assert _joint_factorizes(space, p, triple, z)
    # A genuinely entangled triple fails under a skewed distribution.
    xor01 = make_var(
        space, "x01", 2, [a ^ b for a, b, _ in
                          [(r >> 2 & 1, r >> 1 & 1, r & 1) for r in range(8)]]
    )
    bad = [xor01, factor_var(space, 0), factor_var(space, 1)]
    assert not _joint_factorizes(space, sample_product(space, 10), bad, z)


def test_small_suite_runs_clean():
    cfg = SuiteConfig(seed=11, iterations=8)
    report = run_suite(cfg)
    assert not report.any_asserted_failure
    assert not report.counterexamples
    names = set(report.tallies)
    assert {f"semigraphoid_{a}" for a in SEMIGRAPHOID_AXIOMS} <= names
    assert {f"history_{l}" for l in HISTORY_LAWS} <= names
    assert "duality_irrelevance" in names and "duality_maximality" in names
    assert "soundness_ci" in names or "completeness_witness" in names
    sem = report.tallies["semigraphoid_symmetry"]
    assert sem.passed == 8 and sem.failed == 0


# stdout of `axioms --seed 0 --iters 4`, recorded before the duality law
# ran on integer draws, less the separator check's "exploratory" key.
PINNED_SUITE = (
    '{"config":{"iterations":4,"max_domain":3,"max_factors":4,'
    '"perturbation_budget":16,"sample_count":50,"seed":0,"witness_budget":64},'
    '"counterexamples":[],"failed":false,"laws":{"completeness_witness":{"failed":0,'
    '"inconclusive":0,"passed":2},"duality_irrelevance":{"failed":0,'
    '"inconclusive":0,"passed":4},"duality_maximality":{"failed":0,'
    '"inconclusive":0,"passed":15},"history_atom_law":{"failed":0,'
    '"inconclusive":0,"passed":4},"history_atoms_fast_path":{"failed":0,'
    '"inconclusive":0,"passed":4},"history_atoms_rectangle":{"failed":0,'
    '"inconclusive":0,"passed":4},"history_compositionality":{"failed":0,'
    '"inconclusive":0,"passed":4},"history_emptiness":{"failed":0,'
    '"inconclusive":0,"passed":4},'
    '"history_generating_intersection":{"failed":0,"inconclusive":0,'
    '"passed":4},"history_minimality":{"failed":0,"inconclusive":0,"passed":4},'
    '"history_monotonicity":{"failed":0,"inconclusive":0,"passed":4},'
    '"history_null":{"failed":0,"inconclusive":0,"passed":4},'
    '"history_rectangle_field":{"failed":0,"inconclusive":0,"passed":4},'
    '"history_rectangle_symmetry":{"failed":0,"inconclusive":0,"passed":4},'
    '"history_removal":{"failed":0,"inconclusive":0,"passed":4},'
    '"history_self_emptiness":{"failed":0,"inconclusive":0,"passed":4},'
    '"identity_product_difference":{"failed":0,"inconclusive":0,"passed":2},'
    '"semigraphoid_composition":{"failed":0,"inconclusive":0,"passed":4},'
    '"semigraphoid_contraction":{"failed":0,"inconclusive":0,"passed":4},'
    '"semigraphoid_decomposition":{"failed":0,"inconclusive":0,"passed":4},'
    '"semigraphoid_symmetry":{"failed":0,"inconclusive":0,"passed":4},'
    '"semigraphoid_weak_union":{"failed":0,"inconclusive":0,"passed":4},'
    '"soundness_ci":{"failed":0,"inconclusive":0,"passed":2},'
    '"vector_factorization":{"failed":0,"inconclusive":0,"passed":1}}}\n'
)


def test_suite_output_is_pinned(capsys):
    assert main(["axioms", "--seed", "0", "--iters", "4"]) == 0
    assert capsys.readouterr().out == PINNED_SUITE


# sha256 of run_suite(...).to_json() at 8 factors of up to 3 values, where
# the mask loops run over 256 factor masks, recorded before those loops
# folded rank bitsets, less the separator check's "exploratory" key.
PINNED_WIDE_SUITES = {
    0: "590ebb3a7ef0a71a01dd2fcd15989b05d9d4a7dffadf8ba3c2095cbcde9aebb5",
    3: "2c4874d3cde7e9934691f03ccc50a78f5a9cd2b801fb7e3299dfb37fe39578e5",
    11: "ca19f782184e6ac52e86e957ac7fa74e2b1e60956bb219fd11d097b9e47d0b49",
}


@pytest.mark.parametrize("seed", sorted(PINNED_WIDE_SUITES))
def test_wide_suite_output_is_pinned(seed):
    cfg = SuiteConfig(seed=seed, iterations=3, max_factors=8, max_domain=3)
    text = run_suite(cfg).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_WIDE_SUITES[seed]


def test_suite_reports_are_reproducible():
    cfg = SuiteConfig(seed=21, iterations=5)
    a = run_suite(cfg).to_json()
    b = run_suite(cfg).to_json()
    assert a == b
    doc = json.loads(a)
    assert doc == json.loads(run_suite(cfg).to_json(pretty=True))
    assert doc["failed"] is False
    assert doc["config"]["seed"] == 21


def test_exhausted_witness_budget_is_an_asserted_failure():
    # With a zero budget every dependent instance must fail loudly rather
    # than slide through as a pass.
    cfg = SuiteConfig(seed=11, iterations=8, witness_budget=0)
    report = run_suite(cfg)
    dependents = report.tallies.get("completeness_witness")
    assert dependents is not None and dependents.failed > 0
    assert report.any_asserted_failure
    assert any(c["law"] == "completeness_witness" for c in report.counterexamples)
    assert json.loads(report.to_json())["failed"] is True


# sha256 of run_suite(SuiteConfig(seed=3, iterations=6)).to_json() with every
# asserted law made to fail, recorded before the laws shared one recorder,
# less the separator check's "exploratory" key.
PINNED_FAILING_SUITE = "857f64332c1ef1deb7fb2b4608d12dc8bcc9e5d7b3c35cab3f4a8e3ed12096e3"


def test_failing_laws_record_counterexamples_in_suite_order(monkeypatch):
    verification = importlib.import_module("facthist.verification")
    violation = ("z0", "a", "b", Fraction(1, 2), Fraction(1, 4))
    real_duality = verification.check_duality

    def failing(*args, **kwargs):
        return dataclasses.replace(real_duality(*args, **kwargs), irrelevance_violations=5)

    stubs = {
        "check_semigraphoid": lambda *a: dict.fromkeys(SEMIGRAPHOID_AXIOMS, False),
        "check_history_laws": lambda *a, **k: dict.fromkeys(HISTORY_LAWS, False),
        "check_duality": failing,
        "product_difference_identity": lambda *a: IdentityReport(False, violation),
        "_joint_factorizes": lambda *a: False,
        "find_witness": lambda *a: None,
        "verify_soundness": lambda *a: SoundnessReport(a[4], ((3, CiReport(False, violation)),)),
    }
    for name, stub in stubs.items():
        monkeypatch.setattr(verification, name, stub)
    report = run_suite(SuiteConfig(seed=3, iterations=6))
    # Each law that runs fails and records one counterexample, in the order
    # the suite runs the laws; duality_maximality is never asserted.
    asserted = {name: t for name, t in report.tallies.items() if name != "duality_maximality"}
    assert not any(t.passed for t in asserted.values())
    assert sum(t.failed for t in asserted.values()) == len(report.counterexamples)
    laws = [c["law"] for c in report.counterexamples if c["instance"] == 0]
    semigraphoid = [f"semigraphoid_{a}" for a in SEMIGRAPHOID_AXIOMS]
    assert laws[1 : 1 + len(semigraphoid)] == semigraphoid
    text = report.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_FAILING_SUITE
