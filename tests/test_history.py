"""Histories, generation, and structural independence.

The frozen expected values below were computed by the brute-force
oracles in oracles.py (full subset enumeration) before the fast
implementations were written, then pinned here.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from facthist import (
    Block,
    IndexSet,
    conditional_history,
    determines,
    disintegration_atoms,
    factor_var,
    full_block,
    generates,
    history,
    is_rectangle,
    blocks_of,
    outcome_unrank,
    pair_var,
    structural_time_leq,
    structurally_independent,
    trivial_var,
)
from facthist.errors import SpaceMismatchError

from helpers import make_space, make_var, xor_bundle
from oracles import all_subsets, oracle_determines, oracle_history, oracle_rectangle


def _ids(space, *members):
    return IndexSet.of(members, space.factor_count)


def test_parity_histories_frozen():
    space, u0, u1, xor = xor_bundle()
    omega = full_block(space)
    assert history(space, omega, u0) == _ids(space, 0)
    assert history(space, omega, u1) == _ids(space, 1)
    assert history(space, omega, xor) == _ids(space, 0, 1)
    # Conditioning on the parity entangles the factors.
    for block in blocks_of(space, xor).values():
        assert history(space, block, u0) == _ids(space, 0, 1)
        assert history(space, block, u1) == _ids(space, 0, 1)


def test_parity_histories_match_subset_enumeration():
    space, u0, u1, xor = xor_bundle()
    omega = full_block(space)
    for var in (u0, u1, xor):
        assert history(space, omega, var).members() == tuple(
            sorted(oracle_history(space, omega, var))
        )
    for block in blocks_of(space, xor).values():
        assert history(space, block, u0).members() == tuple(
            sorted(oracle_history(space, block, u0))
        )


def test_constant_variable_has_empty_history():
    space = make_space(2, 3)
    const = make_var(space, "c", 1, [0] * 6)
    assert history(space, full_block(space), const) == space.empty_set()
    assert history(space, full_block(space), trivial_var(space)) == space.empty_set()


def test_generation_needs_both_determination_and_rectangle():
    space, u0, u1, xor = xor_bundle()
    parity_block = blocks_of(space, xor)["0"]  # {(0,0), (1,1)}
    j0 = _ids(space, 0)
    # {0} determines u0 on the block but the block is not a {0}-rectangle.
    assert determines(space, parity_block, j0, u0)
    assert not is_rectangle(space, parity_block, j0)
    assert not generates(space, parity_block, j0, u0)
    assert generates(space, parity_block, space.full_set(), u0)


def _subsets(n, k):
    return combinations(range(n), k)


def test_rectangle_counting_matches_literal_recombination():
    rng = random.Random("rect-agreement")
    for _ in range(40):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
        space = make_space(*sizes)
        n = space.outcome_count
        ranks = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        block = Block(label="c", ranks=ranks)
        for k in range(space.factor_count + 1):
            for ids in _subsets(space.factor_count, k):
                j = IndexSet.of(ids, space.factor_count)
                assert is_rectangle(space, block, j) == oracle_rectangle(
                    space, block, ids
                )


def test_determination_matches_pairwise_oracle():
    rng = random.Random("det-agreement")
    for _ in range(40):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
        space = make_space(*sizes)
        n = space.outcome_count
        ranks = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        block = Block(label="c", ranks=ranks)
        x = make_var(space, "x", 3, [rng.randrange(3) for _ in range(n)])
        for k in range(space.factor_count + 1):
            for ids in _subsets(space.factor_count, k):
                j = IndexSet.of(ids, space.factor_count)
                assert determines(space, block, j, x) == oracle_determines(
                    space, block, ids, x
                )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_history_matches_subset_enumeration(data):
    sizes = data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    space = make_space(*sizes)
    n = space.outcome_count
    x = make_var(space, "x", 3, data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    z = make_var(space, "z", 2, data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    for block in blocks_of(space, z).values():
        got = history(space, block, x)
        assert got.members() == tuple(sorted(oracle_history(space, block, x)))


def test_conditional_history_defaults_to_trivial():
    space, u0, u1, xor = xor_bundle()
    ch = conditional_history(space, u0)
    assert ch.given == "const"
    assert ch.per_block["*"] == _ids(space, 0)
    ch2 = conditional_history(space, u0, xor)
    assert set(ch2.per_block) == {"0", "1"}
    assert ch2.per_block["0"] == _ids(space, 0, 1)


def test_independence_verdicts():
    space, u0, u1, xor = xor_bundle()
    free = structurally_independent(space, u0, u1)
    assert free.independent and not free.overlaps
    tied = structurally_independent(space, u0, u1, xor)
    assert not tied.independent
    assert set(tied.overlaps) == {"0", "1"}
    assert tied.overlaps["0"] == _ids(space, 0, 1)
    with_self = structurally_independent(space, xor, u0)
    assert not with_self.independent
    # A constant is independent of everything, even after conditioning.
    const = make_var(space, "c", 1, [0, 0, 0, 0])
    assert structurally_independent(space, const, xor, u0).independent


def test_pair_history_is_union():
    space, u0, u1, xor = xor_bundle()
    omega = full_block(space)
    both = pair_var(space, u0, xor)
    assert history(space, omega, both) == history(space, omega, u0) | history(
        space, omega, xor
    )


def test_disintegration_of_parity_block():
    space, u0, u1, xor = xor_bundle()
    block = blocks_of(space, xor)["0"]
    parts = disintegration_atoms(space, block)
    assert parts.trivial_part == space.empty_set()
    assert parts.atoms == (_ids(space, 0, 1),)
    omega_parts = disintegration_atoms(space, full_block(space))
    assert omega_parts.atoms == (_ids(space, 0), _ids(space, 1))


def test_disintegration_finds_constant_factors():
    space = make_space(2, 2, 3)
    # Freeze factor 2 at value 1; factors 0 and 1 stay free.
    ranks = tuple(r for r in range(12) if r % 3 == 1)
    block = Block(label="c", ranks=ranks)
    parts = disintegration_atoms(space, block)
    assert parts.trivial_part == _ids(space, 2)
    assert parts.atoms == (_ids(space, 0), _ids(space, 1))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_atom_route_agrees_with_enumeration(data):
    # Domains of size 1 put constant factors in every block.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    space = make_space(*sizes)
    n = space.outcome_count
    x = make_var(space, "x", 3, data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    z = make_var(space, "z", 2, data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    for block in blocks_of(space, z).values():
        assert history(space, block, x).members() == tuple(
            sorted(oracle_history(space, block, x))
        )


def _draw_block(data, space):
    """A product of arbitrary subsets over a random grouping of the factors.

    Singleton groups give product blocks, one-value subsets constant
    factors, and a single group an arbitrary subset of the space.
    """
    groups = data.draw(
        st.lists(st.integers(0, 2), min_size=space.factor_count, max_size=space.factor_count)
    )
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    allowed = []
    for g in set(groups):
        ids = [i for i, h in enumerate(groups) if h == g]
        tuples = sorted({tuple(o[i] for i in ids) for o in outcomes})
        keep = data.draw(st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples)))
        allowed.append((ids, {t for t, k in zip(tuples, keep) if k} or {tuples[0]}))
    ranks = [
        r for r, o in enumerate(outcomes)
        if all(tuple(o[i] for i in ids) in chosen for ids, chosen in allowed)
    ]
    return Block(label="c", ranks=tuple(ranks))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_atoms_are_the_minimal_rectangle_sets(data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    space = make_space(*sizes)
    block = _draw_block(data, space)
    outcomes = [outcome_unrank(space, r) for r in block.ranks]
    constant = {
        i for i in range(space.factor_count) if len({o[i] for o in outcomes}) == 1
    }
    rects = [
        frozenset(ids)
        for ids in all_subsets(range(space.factor_count))
        if ids and oracle_rectangle(space, block, ids)
    ]
    minimal = {r for r in rects if not any(s < r for s in rects)}
    parts = disintegration_atoms(space, block)
    assert set(parts.trivial_part.members()) == constant
    # Each constant factor is a minimal rectangle set on its own.
    got = {frozenset(a.members()) for a in parts.atoms}
    got |= {frozenset({i}) for i in constant}
    assert got == minimal
    assert [a.mask for a in parts.atoms] == sorted(a.mask for a in parts.atoms)


def _parity_block(n):
    space = make_space(*[2] * n)
    parity = make_var(
        space, "Z", 2, (r.bit_count() & 1 for r in range(space.outcome_count))
    )
    return space, blocks_of(space, parity)["0"]


def test_parity_block_is_polynomial():
    # 2^13 subset scans of this block take seconds to minutes; a polynomial
    # algorithm takes a few hundredths of a second, so the bound leaves
    # ample room for a loaded machine.
    n = 13
    space, block = _parity_block(n)
    start = time.perf_counter()
    got = history(space, block, factor_var(space, 0))
    assert time.perf_counter() - start < 2.0
    assert got == space.full_set()
    space, block = _parity_block(n)  # a fresh space, so no memoized atoms
    start = time.perf_counter()
    parts = disintegration_atoms(space, block)
    assert time.perf_counter() - start < 2.0
    assert parts.atoms == (space.full_set(),)
    assert parts.trivial_part == space.empty_set()


def test_structural_time_on_parity():
    space, u0, u1, xor = xor_bundle()
    assert structural_time_leq(space, u0, xor)
    assert not structural_time_leq(space, xor, u0)
    assert structural_time_leq(space, u0, u0)
    const = make_var(space, "c", 1, [0, 0, 0, 0])
    assert structural_time_leq(space, const, u0)
    # Conditioning can break the comparison: given the parity, u0 needs both
    # factors while the pair (u0, xor) still does too, so order survives...
    assert structural_time_leq(space, u0, pair_var(space, u0, xor), xor)
    # ...but xor is constant per block, so its history drops to empty.
    assert structural_time_leq(space, xor, u0, xor)


def test_history_rejects_foreign_variables():
    space = make_space(2, 2)
    foreign = make_var(make_space(2, 3), "x", 2, [0] * 6)
    with pytest.raises(SpaceMismatchError):
        history(space, full_block(space), foreign)
