"""Product distributions and the probabilistic side of independence.

Conditional tables and CI verdicts are cross-checked against a Fraction
oracle that recomputes event probabilities by direct summation, so the
integer-weight internals never get to grade their own homework.
"""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from facthist import (
    ConditionalHistory,
    DegenerateBlockError,
    IdentityReport,
    IndependenceVerdict,
    IndexSet,
    PerturbationError,
    PreconditionError,
    ProductDistribution,
    RandomVariable,
    SoundnessReport,
    SpaceMismatchError,
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
    space_to_doc,
    spawn_seed,
    structurally_independent,
    trivial_var,
    uniform_product,
    verify_soundness,
)
from facthist import distributions
from facthist.cli import main
from facthist.distributions import (
    SAMPLE_GRID_MAX,
    _CiQuery,
    _draw_chunk,
    _draw_ints,
    _normalized,
    _per_sample,
    _sample_ints,
    _weights,
)
from facthist.errors import FormatError

from helpers import function_of, make_space, make_var, xor_bundle
from oracles import (
    oracle_cell_sums,
    oracle_ci,
    oracle_ci_report,
    oracle_event_prob,
    oracle_int_weights,
    oracle_support,
)

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


def test_conditionals_reject_variables_and_blocks_of_another_space():
    s2, s4 = make_space(2), make_space(2, 2)
    p = uniform_product(s2)
    u0, foreign = factor_var(s2, 0), factor_var(s4, 1)
    with pytest.raises(SpaceMismatchError):
        cond_table(s2, p, foreign)
    with pytest.raises(SpaceMismatchError):
        cond_table(s2, p, u0, foreign)
    with pytest.raises(SpaceMismatchError):
        block_conditional(s2, p, foreign, full_block(s2))
    with pytest.raises(SpaceMismatchError):
        block_conditional(s2, p, u0, full_block(s4))


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
    with pytest.raises(DegenerateBlockError, match="block '1' has zero probability mass"):
        block_conditional(space, dead, u1, blocks_of(space, u0)["1"])


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
    x = function_of(space, "x", _random_ids(space, rng), rng.randint(1, 3), rng)
    y = function_of(space, "y", _random_ids(space, rng), rng.randint(1, 3), rng)
    z = function_of(space, "z", _random_ids(space, rng), rng.randint(1, 3), rng)
    if rng.random() < 0.5:
        p = sample_product(space, 300 + trial)
    else:
        p = _skewed_product(space, rng)
    return space, x, y, z, p


def _report_or_degenerate(check, *args):
    try:
        return check(*args)
    except DegenerateBlockError:
        return "degenerate"


def test_prepared_ci_matches_per_rank_oracle():
    rng = random.Random("prepared-ci")
    seen = Counter()
    for trial in range(400):
        space, x, y, z, p = _random_instance(rng, trial)
        got = _report_or_degenerate(is_cond_independent, space, p, x, y, z)
        want = _report_or_degenerate(oracle_ci_report, space, p, x, y, z)
        assert got == want, (trial, space)
        if want == "degenerate":
            seen["degenerate"] += 1
        else:
            seen["holds" if want.holds else "violated"] += 1
            seen["multi-block"] += len(set(z.table)) > 1
    assert all(seen[k] >= 20 for k in ("holds", "violated", "multi-block"))
    assert seen["degenerate"], "skewed distributions should produce zero-mass blocks"


def _oracle_conditional(space, p, x, c):
    mass = oracle_event_prob(space, p, c.ranks)
    return [
        oracle_event_prob(space, p, [r for r in c.ranks if x.table[r] == a]) / mass
        for a in range(len(x.codomain))
    ]


def test_perturbation_reports_name_the_moved_conditionals(monkeypatch):
    # With the history and structural preconditions skipped, conditionals
    # do move; each report must name exactly what the Fraction oracle says
    # moved, blocks in codomain order and values x-major.
    def no_history(space, x, z=None):
        empty = IndexSet.empty(space.factor_count)
        return ConditionalHistory(x.name, "", {label: empty for label in blocks_of(space, z)})

    monkeypatch.setattr(distributions, "conditional_history", no_history)
    monkeypatch.setattr(
        distributions,
        "structurally_independent",
        lambda *args: IndependenceVerdict(independent=True, overlaps={}),
    )
    rng = random.Random("perturbation-reports")
    seen = Counter()
    for trial in range(200):
        space = make_space(*(rng.randint(1, 3) for _ in range(rng.randint(2, 4))))
        i = rng.randrange(space.factor_count)
        # x and y read the perturbed factor, so that both can move.
        x, y, z = (
            function_of(space, name, _random_ids(space, rng) + extra, rng.randint(1, 3), rng)
            for name, extra in (("x", [i]), ("y", [i]), ("z", []))
        )
        vec = sample_vector(rng, space.factors[i].size)
        pair = perturb_factor(sample_product(space, trial), i, vec)
        moved = []
        first = None
        for label, c in blocks_of(space, z).items():
            px, qx = (_oracle_conditional(space, p, x, c) for p in (pair.base, pair.perturbed))
            py, qy = (_oracle_conditional(space, p, y, c) for p in (pair.base, pair.perturbed))
            for a in range(len(x.codomain)):
                if px[a] != qx[a]:
                    moved.append((label, x.codomain[a], px[a], qx[a]))
                for b in range(len(y.codomain)):
                    if first is None and px[a] != qx[a] and py[b] != qy[b]:
                        first = (label, x.codomain[a], y.codomain[b], px[a] - qx[a], py[b] - qy[b])
        assert irrelevance_invariance(space, pair, x, z).violations == tuple(moved), trial
        identity = product_difference_identity(space, pair, x, y, z)
        assert identity == IdentityReport(holds=first is None, first_violation=first), trial
        seen["moved" if moved else "still"] += 1
        seen["identity fails" if first else "identity holds"] += 1
    assert all(seen[k] >= 20 for k in ("moved", "still", "identity fails", "identity holds")), seen


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


def _flat(samples):
    """Per-sample integer vectors as one buffer, in _draw_chunk's order."""
    return list(chain.from_iterable(chain.from_iterable(samples)))


def _draw_chunk_with(edit):
    """A _draw_chunk that passes each sample's vectors through edit(seed, nums)."""

    def draw(space, seeds):
        samples = _per_sample(space, _draw_chunk(space, seeds))
        return bytes(_flat(edit(s, nums) for s, nums in zip(seeds, samples)))

    return draw


def _per_sample_violations(space, x, y, z, n, seed):
    """The violations of checking each sample on its own, in sample order.

    Each sample is drawn alone through distributions._draw_chunk, so a
    hook on it edits these samples as it does verify_soundness's.
    """
    out = []
    for i in range(n):
        buf = distributions._draw_chunk(space, [spawn_seed(seed, i)])
        nums = _per_sample(space, buf)[0]
        ci = is_cond_independent(space, _normalized_product(nums), x, y, z)
        if not ci.holds:
            out.append((i, ci))
    return tuple(out)


def _spy_on_lane_passes(monkeypatch):
    """Record (chunk length, verdict) of every all_hold pass."""
    passes = []
    all_hold = _CiQuery.all_hold

    def spy(query, buf):
        verdict = all_hold(query, buf)
        passes.append((len(buf) // sum(f.size for f in query.space.factors), verdict))
        return verdict

    monkeypatch.setattr(_CiQuery, "all_hold", spy)
    return passes


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
    # On the ci-verify shape and on a law-suite-sized space one lane pass
    # carries up to query.lanes samples, so these n span chunk boundaries.
    # X and W share u2; samples 0 to chunk put all of u2's mass on one
    # value, so they hold and whole chunks pass, while the chunks after them
    # mix holding and violating samples or only violate, and fall back to
    # one check per sample.
    seed = 11
    passes = _spy_on_lane_passes(monkeypatch)
    for space, v in (_ci_verify_space(), _suite_sized_space()):
        verdicts = set()
        for w in ("Y", "W"):
            x, y, z = v["X"], v[w], v["Z"]
            chunk = _CiQuery(space, x, y, z).lanes
            assert chunk > distributions.LANES_MIN

            def fixed_u2(s, nums, held=chunk + 1):
                if s - spawn_seed(seed, 0) < held:
                    nums[2] = [nums[2][0]] + [0] * (len(nums[2]) - 1)
                return nums

            monkeypatch.setattr(distributions, "_draw_chunk", _draw_chunk_with(fixed_u2))
            for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
                report = verify_soundness(space, x, y, z, n=n, seed=seed)
                want = _per_sample_violations(space, x, y, z, n, seed)
                assert report == SoundnessReport(n, want)
                assert (w == "W" and n > chunk + 1) == bool(report.violations), (w, n)
            assert all(distributions.LANES_MIN <= size <= chunk for size, _ in passes)
            verdicts.update(verdict for _, verdict in passes)
            passes.clear()
        assert verdicts == {True, False}


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



def test_negative_budgets_raise():
    space, u0, u1, xor = xor_bundle()
    with pytest.raises(ValueError, match="non-negative"):
        verify_soundness(space, u0, u1, None, n=-1, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        find_witness(space, u0, xor, max_tries=-1)


def _normalized_product(nums):
    return ProductDistribution(tuple(tuple(F(n, sum(v)) for n in v) for v in nums))


def test_integer_samples_normalize_to_sample_product():
    rng = random.Random("sample-ints")
    for seed in range(200):
        space = make_space(*(rng.randint(1, 5) for _ in range(rng.randint(1, 5))))
        nums = _sample_ints(space, seed)
        assert [len(vec) for vec in nums] == [f.size for f in space.factors]
        assert all(1 <= n <= SAMPLE_GRID_MAX for vec in nums for n in vec)
        assert _normalized_product(nums) == sample_product(space, seed)
        # sample_vector is one normalized draw and consumes the same stream.
        size = rng.randint(1, 5)
        a, b = random.Random(seed), random.Random(seed)
        assert sample_vector(a, size) == _normalized(_draw_ints(b, size))
        assert a.getstate() == b.getstate()


DRAW_TOPS = [1, 2, 65, 101, 129, 255]


@pytest.mark.parametrize("top", DRAW_TOPS)
def test_draws_equal_randint(monkeypatch, top):
    # Half of the bit patterns are rejected at 1, 2, 65 and 129, so redraws
    # are frequent.  sample_vector leaves its generator where randint would.
    monkeypatch.setattr(distributions, "SAMPLE_GRID_MAX", top)
    for seed in range(50):
        for size in (0, 1, 2, 5, 17):
            a, b, c = random.Random(seed), random.Random(seed), random.Random(seed)
            assert _draw_ints(a, size) == [b.randint(1, top) for _ in range(size)]
            assert a.getstate() == b.getstate()
            sample_vector(c, size)
            assert c.getstate() == b.getstate()


@pytest.mark.parametrize("top", DRAW_TOPS)
def test_buffer_draws_equal_per_sample_draws(monkeypatch, top):
    monkeypatch.setattr(distributions, "SAMPLE_GRID_MAX", top)
    rng = random.Random(f"buffer-draws:{top}")
    for _ in range(100):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        space = make_space(*sizes)
        seeds = [rng.randrange(2**32) for _ in range(rng.randint(0, 4))]
        want = []
        for s in seeds:
            nums = iter(_draw_ints(random.Random(s), sum(sizes)))
            want.append([list(islice(nums, size)) for size in sizes])
        buf = _draw_chunk(space, seeds)
        assert isinstance(buf, bytes) and list(buf) == _flat(want)
        assert _per_sample(space, buf) == want
        assert [_sample_ints(space, s) for s in seeds] == want


@pytest.mark.parametrize("top", [101, 2])
def test_samples_equal_per_factor_randint_draws(monkeypatch, top):
    monkeypatch.setattr(distributions, "SAMPLE_GRID_MAX", top)
    rng = random.Random("sample-sizes")
    for seed in range(100):
        space = make_space(*(rng.randint(1, 6) for _ in range(rng.randint(1, 5))))
        draw = random.Random(seed)
        assert _sample_ints(space, seed) == [
            [draw.randint(1, top) for _ in range(f.size)] for f in space.factors
        ]


@st.composite
def _ci_instances(draw):
    """Two to six factors of 1-3 values; x, y, z read random factor subsets.

    In about half the draws there are four to six factors of 2-3 values, x
    and y are two-valued functions of every factor and z has at most two
    values, so the quotient keeps every factor and the few cells let the
    query fold trailing factors.  Elsewhere random subsets leave factors
    unread or read by one variable only.  Entries of the integer vectors
    come from {0, 1, 2, 7, 50}, so some vectors have zeros and some blocks
    carry no mass.
    """
    entangled = draw(st.booleans())
    if entangled:
        sizes = draw(st.lists(st.integers(2, 3), min_size=4, max_size=6))
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    space = make_space(*sizes)
    outcomes = list(product(*(range(s) for s in sizes)))

    def variable(name, every=False, most=4):
        if every:
            # Up to 729 values: one seed draws them, so the example stays small.
            ids, k = range(len(sizes)), 2
            keys = list(product(*(range(s) for s in sizes)))
            rng = random.Random(draw(st.integers(0, 2**32)))
            values = [rng.randrange(k) for _ in keys]
        else:
            ids = [i for i in range(len(sizes)) if draw(st.booleans())]
            k = draw(st.integers(1, most))
            keys = list(product(*(range(sizes[i]) for i in ids)))
            values = draw(
                st.lists(st.integers(0, k - 1), min_size=len(keys), max_size=len(keys))
            )
        value_of = dict(zip(keys, values))
        return make_var(space, name, k, [value_of[tuple(o[i] for i in ids)] for o in outcomes])

    x, y = variable("x", entangled), variable("y", entangled)
    z = variable("z", most=2 if entangled else 4)
    entries = st.sampled_from((0, 1, 2, 7, 50))
    nums = [
        draw(st.lists(entries, min_size=s, max_size=s).filter(any)) for s in sizes
    ]
    return space, x, y, z, nums


def _fold_instance(sizes, x_ids, y_ids, z_ids, k=3):
    rng = random.Random(f"fold:{sizes}")
    space = make_space(*sizes)
    x, y, z = (
        function_of(space, name, ids, k, rng)
        for name, ids in (("x", x_ids), ("y", y_ids), ("z", z_ids))
    )
    nums = [[rng.randint(1, 9) for _ in range(s)] for s in sizes]
    return space, x, y, z, nums


# Instances whose queries fold 0, 1 and 3 trailing factors into the tail of
# the quotient.  x and y share a factor, and the last one shares a tail
# factor, so their violations depend on the tail weights.  In the folding
# ones x and y are two-valued and entangled: each reads every factor but
# the other's first, so no factor is dropped or lumped and four cells are
# few enough to fold.
FOLD_INSTANCES = {
    0: _fold_instance((2, 2, 2), (0, 2), (1, 2), ()),
    1: _fold_instance((2,) * 5, (0, 2, 3, 4), (1, 2, 3, 4), (), k=2),
    3: _fold_instance((2,) * 8, (0, *range(2, 8)), range(1, 8), (), k=2),
}
# Instances that folded 1 and 3 factors over the whole space.  On the
# quotient, u3 is unread in the first; in the second u2, u3 and u5 are
# unread and z's private u4 and u6 are lumped into two classes.
REDUCED_INSTANCES = (
    _fold_instance((2, 2, 2, 2, 2), (0, 4), (1, 4), (2,)),
    _fold_instance((2, 3, 2, 2, 2, 1, 2, 2), (0, 7), (1, 7), (4, 6)),
)


def _folds(query):
    # Folds are counted on the quotient's factors.
    return len(query.sizes) - query.head


def _regime(query):
    """What the quotient did: drop an unread factor, lump, both, or nothing."""
    unread = any(query.space.factors[i].size > 1 for i in query.unread)
    if unread and query.lumps:
        return "both"
    if unread:
        return "unread"
    return "lumped" if query.lumps else "none"


def test_fold_instances_fold_what_they_name():
    for folds, (space, x, y, z, nums) in FOLD_INSTANCES.items():
        query = _CiQuery(space, x, y, z)
        assert _folds(query) == folds
        assert _regime(query) == "none"
        assert not query.check_ints(nums).holds
    regimes = [_regime(_CiQuery(*instance[:4])) for instance in REDUCED_INSTANCES]
    assert regimes == ["unread", "both"]


@example(instance=FOLD_INSTANCES[0])
@example(instance=FOLD_INSTANCES[1])
@example(instance=FOLD_INSTANCES[3])
@example(instance=REDUCED_INSTANCES[0])
@example(instance=REDUCED_INSTANCES[1])
@settings(max_examples=300, deadline=None)
@given(instance=_ci_instances())
def test_prepared_query_matches_oracle(instance):
    space, x, y, z, nums = instance
    p = _normalized_product(nums)
    want = _report_or_degenerate(oracle_ci_report, space, p, x, y, z)
    query = _CiQuery(space, x, y, z)
    assert _report_or_degenerate(query.check_ints, nums) == want
    assert _report_or_degenerate(query.check, p) == want


def test_generated_queries_fold_zero_one_and_more_factors():
    # The property above draws from this strategy; its instances must reach
    # every fold regime, and every way of building the quotient, not only
    # the pinned examples.
    folds, regimes = Counter(), Counter()

    @settings(max_examples=300, deadline=None, database=None)
    @given(_ci_instances())
    def count(instance):
        space, x, y, z, _ = instance
        query = _CiQuery(space, x, y, z)
        folds[min(_folds(query), 2)] += 1
        regime = _regime(query)
        regimes[regime] += 1
        if regime == "both":
            regimes["unread"] += 1
            regimes["lumped"] += 1

    count()
    assert all(folds[k] >= 10 for k in (0, 1, 2)), folds
    assert all(regimes[k] >= 10 for k in ("none", "unread", "lumped")), regimes


def _ci_verify_space():
    """The shape of the benchmark's ci-verify spaces: 8 factors, 1296 outcomes.

    X, Y and Z are onto three values and read u0-u2, u3-u5 and u6-u7; W reads
    u2 and u3.
    """
    rng = random.Random("ci-verify-shape")
    space = make_space(2, 3, 2, 3, 2, 3, 2, 3)
    variables = {}
    for name, ids, k in (
        ("X", (0, 1, 2), 3), ("Y", (3, 4, 5), 3), ("Z", (6, 7), 3), ("W", (2, 3), 2)
    ):
        var = function_of(space, name, ids, k, rng)
        while len(set(var.table)) < k:
            var = function_of(space, name, ids, k, rng)
        variables[name] = var
    return space, variables


def _suite_sized_space():
    """81 outcomes, the most a law-suite space has at the default bounds.

    X reads u0 and u2, Y reads u1, Z reads u3 and W reads u1 and u2, each
    onto its values.
    """
    rng = random.Random("suite-sized")
    space = make_space(3, 3, 3, 3)
    variables = {}
    for name, ids, k in (("X", (0, 2), 3), ("Y", (1,), 3), ("Z", (3,), 2), ("W", (1, 2), 3)):
        var = function_of(space, name, ids, k, rng)
        while len(set(var.table)) < k or oracle_support(space, var) != frozenset(ids):
            var = function_of(space, name, ids, k, rng)
        variables[name] = var
    return space, variables


def test_ci_verify_queries_reduce_to_small_quotients():
    space, v = _ci_verify_space()
    query = _CiQuery(space, v["X"], v["Y"], v["Z"])
    # No factor is shared, so each variable's factors lump into its values:
    # 1296 outcomes become 27.
    assert query.factors == ((0, 1, 2), (3, 4, 5), (6, 7))
    assert query.sizes == [3, 3, 3]
    assert query.unread == ()
    # u2 is shared by X and W; u4 and u5 are unread.
    mixed = _CiQuery(space, v["X"], v["W"], v["Z"])
    assert mixed.unread == (4, 5)
    assert set(mixed.factors) == {(0, 1), (2,), (3,), (6, 7)}
    assert 60 <= math.prod(mixed.sizes) <= 108
    for i in range(20):
        nums = _sample_ints(space, i)
        p = _normalized_product(nums)
        assert query.check_ints(nums) == oracle_ci_report(space, p, v["X"], v["Y"], v["Z"])
        assert mixed.check_ints(nums) == oracle_ci_report(space, p, v["X"], v["W"], v["Z"])


def test_zero_vector_on_an_unread_factor_is_degenerate_like_the_oracle():
    # u3 is read by no variable, so the quotient drops it; its zero vector
    # still zeroes every block, and the first block is the one reported.
    space, x, y, z, nums = REDUCED_INSTANCES[0]
    query = _CiQuery(space, x, y, z)
    assert query.unread == (3,)
    nums = [list(vec) for vec in nums]
    nums[3] = [0, 0]
    with pytest.raises(DegenerateBlockError) as got:
        query.check_ints(nums)
    with pytest.raises(DegenerateBlockError) as want:
        oracle_ci_report(space, nums, x, y, z)
    assert str(got.value) == str(want.value)


def _holds_on_every(query, samples):
    """Whether checking each sample on its own finds no violation and no zero block."""
    for nums in samples:
        try:
            if not query.check_ints(nums).holds:
                return False
        except DegenerateBlockError:
            return False
    return True


def _entangled_instance(rng):
    """Four to six factors of 2-3 values; two-valued x and y read every one.

    Nothing is dropped or lumped, and z has at most two values, so the
    cells are few enough for the query to fold trailing factors.
    """
    space = make_space(*(rng.randint(2, 3) for _ in range(rng.randint(4, 6))))
    x, y = (function_of(space, name, range(space.factor_count), 2, rng) for name in "xy")
    z = function_of(space, "z", _random_ids(space, rng), rng.randint(1, 2), rng)
    return space, x, y, z


def _transposed(lanes):
    """Per-cell lanes as one list of cell sums per sample."""
    return [list(sums) for sums in zip(*lanes)]


def _assert_sums_match_oracle(query, z, samples):
    """Every lane of lane_sums is that sample's cell_sums, and both are the oracle's.

    Both entry points run one body, so the per-rank oracle is what tells
    either arithmetic apart from the sums over the whole space.
    """
    per_sample = [list(query.cell_sums(s)) for s in samples]
    assert _transposed(query.lane_sums(_flat(samples))) == per_sample
    assert per_sample == [
        oracle_cell_sums(query.space, s, query.x, query.y, z, query.blocks) for s in samples
    ]


def _skewed_ints(space, rng):
    """One integer vector per factor, with zero entries and now and then all zero."""
    return [[rng.choice((0, 0, 1, 2, 7, 50)) for _ in range(f.size)] for f in space.factors]


def test_lane_pass_agrees_with_per_sample_checks():
    # Every lane of every cell sum is that sample's own sum, and the verdict
    # is that of checking each sample.  Structural and dependent pairs
    # alike, one trial in four with a folded tail.  Half the chunks are
    # sampled, now and then with one skewed sample that alone fails or
    # meets a block of zero mass; in the others every sample is skewed.
    rng = random.Random("lane-pass")
    seen = Counter()
    for trial in range(600):
        if trial % 4:
            space, x, y, z, _ = _random_instance(rng, trial)
        else:
            space, x, y, z = _entangled_instance(rng)
        query = _CiQuery(space, x, y, z)
        if rng.random() < 0.5:
            samples = [_sample_ints(space, spawn_seed(trial, i)) for i in range(rng.randint(1, 7))]
            if rng.random() < 0.5:
                samples[rng.randrange(len(samples))] = _skewed_ints(space, rng)
        else:
            samples = [_skewed_ints(space, rng) for _ in range(rng.randint(1, 3))]
        _assert_sums_match_oracle(query, z, samples)
        want = _holds_on_every(query, samples)
        assert query.all_hold(_flat(samples)) == want, trial
        seen["holds" if want else "fails"] += 1
        if not want and any(_holds_on_every(query, [nums]) for nums in samples):
            seen["some lanes fail"] += 1
        seen["lumped"] += bool(query.lumps)
        seen["unread"] += any(space.factors[i].size > 1 for i in query.unread)
        seen["tail"] += query.head < len(query.sizes)
    kinds = ("holds", "fails", "some lanes fail", "lumped", "unread", "tail")
    assert all(seen[k] >= 20 for k in kinds), seen


@example(instance=FOLD_INSTANCES[1], extra=4, seed=0)
@example(instance=FOLD_INSTANCES[3], extra=5, seed=1)
@example(instance=REDUCED_INSTANCES[1], extra=3, seed=2)
@settings(max_examples=200, deadline=None)
@given(instance=_ci_instances(), extra=st.integers(0, 6), seed=st.integers(0, 2**16))
def test_lane_pass_matches_per_sample_checks_on_any_quotient(instance, extra, seed):
    # The drawn vectors, which may hold zeros, sit among sampled ones.
    space, x, y, z, nums = instance
    query = _CiQuery(space, x, y, z)
    samples = [_sample_ints(space, spawn_seed(seed, i)) for i in range(extra)]
    samples.insert(seed % (extra + 1), nums)
    _assert_sums_match_oracle(query, z, samples)
    assert query.all_hold(_flat(samples)) == _holds_on_every(query, samples)


# Zero vectors, per case: factor id and vector, by sample index in the chunk.
# u0 is read by X.  Given nothing, u6 is read by no variable, so the
# quotient drops it and its zero vector scales every weight to 0.  Given u7,
# the first zero leaves only block '1' without mass and the next only block
# '0', so the message names the block of the first sample in order.
ZERO_CASES = {
    "read": ("Z", {3: (0, [0, 0])}),
    "unread": (None, {5: (6, [0, 0])}),
    "order": ("u7", {2: (7, [5, 0, 9]), 3: (7, [0, 4, 9])}),
}


@pytest.mark.parametrize("case", ZERO_CASES)
def test_zero_vectors_in_a_chunk_raise_like_per_sample_checks(monkeypatch, case):
    space, v = _ci_verify_space()
    given, zeros = ZERO_CASES[case]
    x, y = v["X"], v["Y"]
    z = {"Z": v["Z"], "u7": factor_var(space, 7), None: None}[given]
    query = _CiQuery(space, x, y, z)
    assert all((i in query.unread) == (case == "unread") for i, _ in zeros.values())
    seed, n = 5, 2 * distributions.LANES_MIN

    def with_zeros(s, nums):
        i, vec = zeros.get(s - spawn_seed(seed, 0), (None, None))
        if vec is not None:
            nums[i] = list(vec)
        return nums

    seeds = [spawn_seed(seed, i) for i in range(n)]
    samples = [with_zeros(s, _sample_ints(space, s)) for s in seeds]
    with pytest.raises(DegenerateBlockError) as want:
        for nums in samples:
            query.check_ints(nums)
    assert not query.all_hold(bytes(_flat(samples)))
    monkeypatch.setattr(distributions, "_draw_chunk", _draw_chunk_with(with_zeros))
    passes = _spy_on_lane_passes(monkeypatch)
    with pytest.raises(DegenerateBlockError) as got:
        verify_soundness(space, x, y, z, n=n, seed=seed)
    assert str(got.value) == str(want.value)
    assert passes == [(n, False)]


def _traced_peak(f, *args):
    """f(*args), and the peak of traced memory while it ran above what was held before."""
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = f(*args)
    return out, tracemalloc.get_traced_memory()[1] - held


def test_soundness_checks_hold_no_more_memory_than_one_check(monkeypatch):
    # 2^14 outcomes: x is injective on u0-u6 and y on u7-u13, and there is
    # no conditioner, so nothing is dropped or lumped and the quotient is
    # the whole space.  The query is prepared once outside the measurement.
    space = make_space(*(2,) * 14)
    ranks = range(space.outcome_count)
    x = make_var(space, "x", 128, [r >> 7 for r in ranks])
    y = make_var(space, "y", 128, [r & 127 for r in ranks])
    query = _CiQuery(space, x, y, None)
    assert math.prod(query.sizes) == space.outcome_count
    assert structurally_independent(space, x, y, None).independent
    monkeypatch.setattr(distributions, "_CiQuery", lambda *args: query)
    nums = _sample_ints(space, 0)
    tracemalloc.start()
    try:
        _, one = _traced_peak(query.check_ints, nums)
        report, every = _traced_peak(verify_soundness, space, x, y, None, 50, 0)
    finally:
        tracemalloc.stop()
    assert report.all_hold
    assert every <= 1.5 * one, (every, one)


def _pinned_space_doc():
    """Five factors; X reads u0, u1; Y reads u2, u3; Z reads u4; W reads u1, u2."""
    rng = random.Random("pinned-verify")
    space = make_space(2, 3, 2, 3, 2)
    variables = {}
    for name, ids, k in (("X", (0, 1), 3), ("Y", (2, 3), 3), ("Z", (4,), 2), ("W", (1, 2), 2)):
        table = function_of(space, name, ids, k, rng).table
        codomain = tuple(f"{name.lower()}{v}" for v in range(k))
        variables[name] = RandomVariable(name, codomain, table)
    return space_to_doc(space, variables)


# stdout of these calls, recorded before samples were checked as integers.
PINNED_VERIFY = [
    (
        ("verify", "X", "Y", "--given", "Z", "--seed", "7"),
        '{"all_hold":true,"given":["Z"],"independent":true,"mode":"soundness",'
        '"samples":50,"violations":[],"x":"X","y":"Y"}\n',
    ),
    (
        ("verify", "X", "W", "--given", "Z", "--seed", "7"),
        '{"found":true,"given":["Z"],"independent":false,"mode":"witness",'
        '"overlaps":{"z0":["u1"],"z1":["u1"]},"witness":{"per_factor":'
        '[["23/113","90/113"],["29/127","34/127","64/127"],["61/148","87/148"],'
        '["41/122","35/122","23/61"],["14/27","13/27"]]},"x":"X","y":"W"}\n',
    ),
    (
        ("witness", "W", "X", "--seed", "3", "--tries", "5"),
        '{"found":true,"given":[],"tries":5,"witness":{"per_factor":'
        '[["22/53","31/53"],["49/177","50/177","26/59"],["19/61","42/61"],'
        '["51/178","73/178","27/89"],["23/94","71/94"]]},"x":"W","y":"X"}\n',
    ),
]


@pytest.mark.parametrize("argv, stdout", PINNED_VERIFY)
def test_verify_output_is_pinned(capsys, tmp_path, argv, stdout):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(_pinned_space_doc()))
    command, *rest = argv
    assert main([command, str(path), *rest]) == 0
    assert capsys.readouterr().out == stdout
