"""Product distributions and the probabilistic side of independence.

Conditional tables and CI verdicts are cross-checked against a Fraction
oracle that recomputes event probabilities by direct summation, so the
integer-weight internals never get to grade their own homework.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from facthist import (
    DegenerateBlockError,
    IndependenceVerdict,
    PerturbationError,
    PreconditionError,
    ProductDistribution,
    UnknownFactorError,
    block_conditional,
    blocks_of,
    cond_table,
    distribution_from_doc,
    distribution_to_doc,
    factor_var,
    find_witness,
    full_block,
    irrelevance_invariance,
    is_cond_independent,
    outcome_prob,
    outcome_unrank,
    pair_var,
    perturb_factor,
    product_difference_identity,
    sample_product,
    sample_vector,
    spawn_seed,
    structurally_independent,
    trivial_var,
    uniform_product,
    verify_soundness,
)
from facthist import distributions
from facthist.distributions import SAMPLE_GRID_MAX, _weights
from facthist.errors import FormatError

from helpers import make_space, make_var, xor_bundle
from oracles import oracle_ci, oracle_ci_report, oracle_event_prob, oracle_int_weights

F = Fraction


def test_uniform_product_values():
    space = make_space(2, 3)
    p = uniform_product(space)
    assert p.per_factor == ((F(1, 2), F(1, 2)), (F(1, 3), F(1, 3), F(1, 3)))
    assert p.is_positive
    assert outcome_prob(p, (1, 2)) == F(1, 6)


def test_distribution_validation():
    with pytest.raises(ValueError):
        ProductDistribution(((F(1, 2), F(1, 3)),))
    with pytest.raises(ValueError):
        ProductDistribution(((F(3, 2), F(-1, 2)),))
    with pytest.raises(ValueError):
        ProductDistribution(())
    zero_ok = ProductDistribution(((F(0), F(1)),))
    assert not zero_ok.is_positive


def test_sampling_is_deterministic_and_on_grid():
    space = make_space(2, 3)
    assert sample_product(space, 17).per_factor == sample_product(space, 17).per_factor
    assert sample_product(space, 17).per_factor != sample_product(space, 18).per_factor
    rng = random.Random(5)
    for _ in range(50):
        vec = sample_vector(rng, 4)
        assert sum(vec) == 1
        assert all(e > 0 for e in vec)
        den = [e.denominator for e in vec]
        # Entries come from integers 1..SAMPLE_GRID_MAX over their sum.
        assert max(den) <= 4 * SAMPLE_GRID_MAX


def test_spawn_seed_injective_over_batches():
    seen = {spawn_seed(s, i) for s in range(40) for i in range(64)}
    assert len(seen) == 40 * 64


def test_block_conditional_matches_fraction_oracle():
    space, u0, u1, xor = xor_bundle()
    p = sample_product(space, 3)
    omega = full_block(space)
    got = block_conditional(space, p, xor, omega)
    for k, label in enumerate(xor.codomain):
        ranks = [r for r in range(4) if xor.table[r] == k]
        assert got[label] == oracle_event_prob(space, p, ranks)


def test_cond_table_rows_sum_to_one_and_match_oracle():
    rng = random.Random("cond-table")
    for trial in range(10):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
        space = make_space(*sizes)
        n = space.outcome_count
        p = sample_product(space, 100 + trial)
        x = make_var(space, "x", 3, [rng.randrange(3) for _ in range(n)])
        z = make_var(space, "z", 2, [rng.randrange(2) for _ in range(n)])
        table = cond_table(space, p, x, z)
        for zlabel, c in blocks_of(space, z).items():
            pz = oracle_event_prob(space, p, c.ranks)
            row = F(0)
            for k, xlabel in enumerate(x.codomain):
                joint = oracle_event_prob(
                    space, p, [r for r in c.ranks if x.table[r] == k]
                )
                assert table[(zlabel, xlabel)] == joint / pz
                row += table[(zlabel, xlabel)]
            assert row == 1


def test_ci_agrees_with_fraction_oracle():
    rng = random.Random("ci-agreement")
    agree_true = agree_false = 0
    for trial in range(30):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
        space = make_space(*sizes)
        n = space.outcome_count
        p = sample_product(space, 200 + trial)
        x = make_var(space, "x", 2, [rng.randrange(2) for _ in range(n)])
        y = make_var(space, "y", 2, [rng.randrange(2) for _ in range(n)])
        z = make_var(space, "z", 2, [rng.randrange(2) for _ in range(n)])
        got = is_cond_independent(space, p, x, y, z)
        want = oracle_ci(space, p, x, y, z)
        assert got.holds == want
        agree_true += want
        agree_false += not want
    assert agree_true and agree_false, "trial mix should exercise both verdicts"


def test_parity_dependence_is_exactly_one_third_vs_one_quarter():
    space, u0, u1, xor = xor_bundle()
    # Under the uniform product, u0 and the parity pass the numeric check
    # even though their histories overlap: dependence needs a skewed factor.
    assert is_cond_independent(space, uniform_product(space), u0, xor).holds
    biased = ProductDistribution(((F(1, 2), F(1, 2)), (F(2, 3), F(1, 3))))
    report = is_cond_independent(space, biased, u0, xor)
    assert not report.holds
    zlabel, xlabel, ylabel, lhs, rhs = report.first_violation
    assert (zlabel, xlabel, ylabel) == ("*", "0", "0")
    assert lhs == F(1, 3)  # joint P(u0=0, xor=0) = P((0,0)) = 1/2 * 2/3
    assert rhs == F(1, 4)  # P(u0=0) * P(xor=0) = 1/2 * 1/2
    # Conditioning on the parity ties the factors together the same way.
    skew = ProductDistribution(((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))))
    cond = is_cond_independent(space, skew, u0, u1, xor)
    assert not cond.holds
    _, _, _, lhs2, rhs2 = cond.first_violation
    assert lhs2 == F(1, 3)
    assert rhs2 == F(1, 9)


def test_tolerance_mode_can_forgive_small_gaps():
    space, u0, u1, xor = xor_bundle()
    skew = ProductDistribution(((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))))
    strict = is_cond_independent(space, skew, u0, u1, xor)
    assert not strict.holds
    # The largest gap is exactly 1/3 - 1/9 = 2/9.
    loose = is_cond_independent(space, skew, u0, u1, xor, tolerance=0.25)
    assert loose.holds
    still = is_cond_independent(space, skew, u0, u1, xor, tolerance=0.2)
    assert not still.holds


def test_soundness_requires_structural_pairs():
    space, u0, u1, xor = xor_bundle()
    report = verify_soundness(space, u0, u1, None, n=25, seed=9)
    assert report.all_hold and report.samples == 25 and not report.violations
    with pytest.raises(PreconditionError):
        verify_soundness(space, u0, xor, None, n=5, seed=0)
    with pytest.raises(PreconditionError):
        verify_soundness(space, u0, u1, xor, n=5, seed=0)


def test_witness_search_finds_dependence():
    space, u0, u1, xor = xor_bundle()
    w = find_witness(space, u0, xor, max_tries=64, seed=0)
    assert w is not None
    assert not is_cond_independent(space, w, u0, xor).holds
    w2 = find_witness(space, u0, u1, z=xor, max_tries=64, seed=0)
    assert w2 is not None
    assert not is_cond_independent(space, w2, u0, u1, xor).holds
    with pytest.raises(PreconditionError):
        find_witness(space, u0, u1)
    assert find_witness(space, u0, xor, max_tries=0, seed=0) is None


def test_perturbation_validation():
    space = make_space(2, 3)
    p = uniform_product(space)
    pair = perturb_factor(p, 1, (F(1, 6), F(2, 6), F(3, 6)))
    assert pair.factor == 1
    assert pair.base.per_factor[0] == pair.perturbed.per_factor[0]
    square = uniform_product(make_space(2, 2))
    tilted = perturb_factor(square, 1, (F(1, 3), F(2, 3))).perturbed
    assert [outcome_prob(tilted, o) for o in [(0, 0), (0, 1), (1, 0), (1, 1)]] == [
        F(1, 6), F(1, 3), F(1, 6), F(1, 3),
    ]
    with pytest.raises(UnknownFactorError):
        perturb_factor(p, 2, (F(1, 2), F(1, 2)))
    with pytest.raises(PerturbationError):
        perturb_factor(p, 0, (F(1, 3), F(1, 3), F(1, 3)))
    with pytest.raises(PerturbationError):
        perturb_factor(p, 0, (F(1, 2), F(1, 3)))
    with pytest.raises(PerturbationError):
        perturb_factor(p, 0, (F(0), F(1)))


def test_irrelevance_blocks_outside_history_never_move():
    space, u0, u1, xor = xor_bundle()
    p = sample_product(space, 41)
    pair = perturb_factor(p, 1, (F(9, 10), F(1, 10)))
    # u0's history is {0} on the trivial block: changing factor 1 is invisible.
    rep = irrelevance_invariance(space, pair, u0)
    assert rep.holds and rep.checked == ("*",) and not rep.skipped
    # Given the parity, u0's history contains factor 1, so nothing is checked.
    rep2 = irrelevance_invariance(space, pair, u0, xor)
    assert rep2.holds and not rep2.checked and rep2.skipped == ("0", "1")
    # And the conditionals really do move there, so skipping is load-bearing.
    base_tab = cond_table(space, pair.base, u0, xor)
    pert_tab = cond_table(space, pair.perturbed, u0, xor)
    assert base_tab != pert_tab


def test_product_difference_identity_on_structural_pair():
    space, u0, u1, xor = xor_bundle()
    p = sample_product(space, 77)
    pair = perturb_factor(p, 0, (F(1, 4), F(3, 4)))
    rep = product_difference_identity(space, pair, u0, u1)
    assert rep.holds
    # Conditioned on the parity, u0 and u1 are not structural: refuse.
    with pytest.raises(PreconditionError):
        product_difference_identity(space, pair, u0, u1, xor)


def test_degenerate_block_detected():
    space, u0, u1, xor = xor_bundle()
    dead = ProductDistribution(((F(1), F(0)), (F(1, 2), F(1, 2))))
    with pytest.raises(DegenerateBlockError):
        cond_table(space, dead, u1, u0)


def test_distribution_doc_roundtrip():
    space = make_space(2, 3)
    p = sample_product(space, 3)
    doc = distribution_to_doc(p)
    assert distribution_from_doc(doc).per_factor == p.per_factor
    assert all("/" in s for vec in doc["per_factor"] for s in vec)
    with pytest.raises(FormatError):
        distribution_from_doc({"per_factor": [["1/2", "1/3"]]})
    with pytest.raises(FormatError):
        distribution_from_doc([])
    with pytest.raises(FormatError):
        distribution_from_doc({"per_factor": [["x/y"]]})


def _function_of(space, name, ids, k, rng):
    """A random variable with k labels that reads only the factors in ids."""
    values: dict[tuple[int, ...], int] = {}
    table = []
    for r in range(space.outcome_count):
        o = outcome_unrank(space, r)
        key = tuple(o[i] for i in ids)
        table.append(values.setdefault(key, rng.randrange(k)))
    return make_var(space, name, k, table)


def _random_ids(space, rng):
    return [i for i in range(space.factor_count) if rng.random() < 0.5]


def _skewed_product(space, rng):
    """A product distribution with zero entries and lopsided weights."""
    vecs = []
    for f in space.factors:
        nums = [rng.choice((0, 0, 1, 2, 7, 50)) for _ in range(f.size)]
        if not any(nums):
            nums[rng.randrange(f.size)] = 1
        total = sum(nums)
        vecs.append(tuple(F(n, total) for n in nums))
    return ProductDistribution(tuple(vecs))


def _random_instance(rng, trial):
    """Mixed domains (1 to 3 values), x and y, z with 1 to 3 labels, a distribution."""
    space = make_space(*(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
    x = _function_of(space, "x", _random_ids(space, rng), rng.randint(1, 3), rng)
    y = _function_of(space, "y", _random_ids(space, rng), rng.randint(1, 3), rng)
    z = _function_of(space, "z", _random_ids(space, rng), rng.randint(1, 3), rng)
    if rng.random() < 0.5:
        p = sample_product(space, 300 + trial)
    else:
        p = _skewed_product(space, rng)
    return space, x, y, z, p


def _report_or_degenerate(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except DegenerateBlockError:
        return "degenerate"


def test_prepared_ci_matches_per_rank_oracle():
    rng = random.Random("prepared-ci")
    seen = Counter()
    for trial in range(400):
        space, x, y, z, p = _random_instance(rng, trial)
        tolerance = rng.choice((None, None, 0.0, 0.01, 0.1))
        got = _report_or_degenerate(is_cond_independent, space, p, x, y, z, tolerance=tolerance)
        want = _report_or_degenerate(oracle_ci_report, space, p, x, y, z, tolerance)
        assert got == want, (trial, space, tolerance)
        if want == "degenerate":
            seen["degenerate"] += 1
        else:
            seen["holds" if want.holds else "violated"] += 1
            seen["tolerance" if tolerance is not None else "strict"] += 1
            seen["multi-block"] += len(set(z.table)) > 1
    assert all(seen[k] >= 20 for k in ("holds", "violated", "tolerance", "strict", "multi-block"))
    assert seen["degenerate"], "skewed distributions should produce zero-mass blocks"


def test_first_violation_is_row_major():
    # One 9-valued factor carries the joint table of (x, y) = divmod(u, 3):
    #   1 2 1 / 1 3 2 / 2 2 2, over 16.  Cell (0, 0) factorizes, but (0, 1)
    # and (1, 0) do not; value pairs are compared x-major, so (0, 1) is first.
    space = make_space(9)
    x = make_var(space, "x", 3, [v // 3 for v in range(9)])
    y = make_var(space, "y", 3, [v % 3 for v in range(9)])
    p = ProductDistribution((tuple(F(n, 16) for n in (1, 2, 1, 1, 3, 2, 2, 2, 2)),))
    report = is_cond_independent(space, p, x, y)
    assert report.first_violation == ("*", "0", "1", F(2, 16), F(4 * 7, 16 * 16))
    assert report == oracle_ci_report(space, p, x, y, trivial_var(space))


def test_soundness_violations_equal_per_sample_reports(monkeypatch):
    space, u0, u1, xor = xor_bundle()
    # The structural pair holds on every sample.
    assert verify_soundness(space, u0, u1, None, n=20, seed=4).violations == ()
    # Skip the precondition so a dependent pair reports violations.
    monkeypatch.setattr(
        distributions,
        "structurally_independent",
        lambda *args: IndependenceVerdict(independent=True, overlaps={}),
    )
    for x, y, z, seed in ((u0, u1, xor, 4), (u0, xor, None, 9)):
        report = verify_soundness(space, x, y, z, n=20, seed=seed)
        expected = []
        for i in range(20):
            ci = is_cond_independent(space, sample_product(space, spawn_seed(seed, i)), x, y, z)
            if not ci.holds:
                expected.append((i, ci))
        assert expected and report.violations == tuple(expected)


def test_find_witness_returns_the_first_violating_sample():
    rng = random.Random("witness-order")
    found = 0
    for trial in range(300):
        space, x, y, z, _ = _random_instance(rng, trial)
        if structurally_independent(space, x, y, z).independent:
            continue
        tries = rng.randint(0, 4)
        first = next(
            (
                i
                for i in range(tries)
                if not is_cond_independent(
                    space, sample_product(space, spawn_seed(trial, i)), x, y, z
                ).holds
            ),
            None,
        )
        got = find_witness(space, x, y, z, max_tries=tries, seed=trial)
        if first is None:
            assert got is None
        else:
            found += 1
            assert got == sample_product(space, spawn_seed(trial, first))
    assert found >= 20


def test_weights_are_proportional_to_outcome_probabilities():
    rng = random.Random("weights")
    for trial in range(60):
        space = make_space(*(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
        p = sample_product(space, trial) if trial % 2 else _skewed_product(space, rng)
        w = _weights(space, p)
        assert w == oracle_int_weights(space, p)
        probs = [outcome_prob(p, outcome_unrank(space, r)) for r in range(space.outcome_count)]
        ref = next(r for r, pr in enumerate(probs) if pr)
        assert w[ref] > 0
        assert all(w[r] * probs[ref] == w[ref] * pr for r, pr in enumerate(probs))
    with pytest.raises(ValueError):
        _weights(make_space(2, 3), uniform_product(make_space(3, 2)))

