"""Histories, generation, and structural independence.

The frozen expected values below were computed by the brute-force
oracles in oracles.py (full subset enumeration) before the fast
implementations were written, then pinned here.
"""

from __future__ import annotations

import importlib
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import prod
from operator import xor

import pytest
from hypothesis import assume, given, settings, strategies as st

from facthist import (
    Block,
    IndexSet,
    RandomVariable,
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
    support,
    trivial_var,
)
from facthist.distributions import _CiQuery
from facthist.errors import SpaceMismatchError

from helpers import function_of, make_space, make_var, xor_bundle
from oracles import (
    all_subsets,
    oracle_ci_all_products,
    oracle_determines,
    oracle_factorize,
    oracle_history,
    oracle_projection_counts,
    oracle_rectangle,
    oracle_widths,
)

# The package re-exports the function history() under the module's name.
history_module = importlib.import_module("facthist.history")
space_module = importlib.import_module("facthist.space")


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


def test_a_conditioner_is_constant_on_its_blocks_with_no_factorization(monkeypatch):
    # z is constant on each of its blocks, so every bit plane of its values
    # meets a block in nothing or all of it: the empty history, found
    # through the level sets and through the Blocks before any block is
    # factorized.
    def no_factorization(*args):
        raise AssertionError("a block was factorized")

    monkeypatch.setattr(history_module, "_factorize_block", no_factorization)
    rng = random.Random("constant-on-blocks")
    for _ in range(20):
        space = make_space(*(rng.randint(1, 3) for _ in range(rng.randint(2, 4))))
        ids = [i for i in range(space.factor_count) if rng.random() < 0.7]
        z = function_of(space, "z", ids, rng.choice([2, 3, 300]), rng)
        per_block = conditional_history(space, z, z).per_block
        assert set(per_block.values()) <= {space.empty_set()}
        for label, c in blocks_of(space, z).items():
            if len(c) < space.outcome_count:
                assert history(space, c, z) == space.empty_set()
    assert space._atoms == {}


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
                assert generates(space, block, j, x) == (
                    oracle_rectangle(space, block, ids)
                    and oracle_determines(space, block, ids, x)
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


def test_parity_blocks_at_scale_build_no_digit_tables():
    # 2^18 outcomes and z reads every factor, so each block is factorized
    # on the full space: by bitset folds, with no full-length table for
    # each factor (18 of them would hold 18 * 2^18 entries).  The bound
    # leaves ample room for a loaded machine.
    n = 18
    for query in ("history", "atoms"):
        space = make_space(*[2] * n)  # a fresh space, so no memoized atoms
        z = make_var(space, "Z", 2, (r.bit_count() & 1 for r in range(space.outcome_count)))
        x = factor_var(space, 0)  # reads u0's own digit table
        tables = list(space._digits)
        start = time.perf_counter()
        if query == "history":
            got = conditional_history(space, x, z).per_block
            assert got == {"0": space.full_set(), "1": space.full_set()}
        else:
            parts = disintegration_atoms(space, blocks_of(space, z)["1"])
            assert parts.atoms == (space.full_set(),)
            assert parts.trivial_part == space.empty_set()
        assert time.perf_counter() - start < 10.0
        assert list(space._digits) == tables


def test_predicates_at_scale_count_folded_bitsets():
    # A parity block of 2^18 outcomes is a J-rectangle for no proper,
    # non-empty J (its one atom holds every factor), and x, the parity of
    # the first 9 factors, is determined by them but not generated.  The
    # predicates fold the block's bitset (2^18 bytes), is_rectangle to
    # factorize the block, with one memoized zero mask per factor; key
    # lists over 9 full-length digit tables would peak near 30 MB.
    n = 18
    space = make_space(*[2] * n)  # a fresh space, so no memoized masks
    count = space.outcome_count
    block = Block(label="1", ranks=tuple(r for r in range(count) if r.bit_count() & 1))
    x = make_var(space, "x", 2, ((r >> 9).bit_count() & 1 for r in range(count)))
    j = IndexSet.of(range(9), n)
    tracemalloc.start()
    try:
        assert not is_rectangle(space, block, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 10**6
    assert determines(space, block, j, x)
    assert not generates(space, block, j, x)


def test_determination_of_many_values_holds_one_bit_plane_at_a_time():
    # x is the identity on 2^16 outcomes, 2^16 values.  determines folds
    # the block's ranks where each bit of x is 0 and where it is 1 along
    # Jbar, one pair of 64 KiB bitsets at a time; a bitset per value would
    # hold 2^16 * 2^16 bytes (4 GiB).
    n = 16
    space = make_space(*[2] * n)  # a fresh space, so no memoized masks
    count = space.outcome_count
    block = Block(label="all", ranks=tuple(range(count)))
    x = make_var(space, "x", count, range(count))
    half = IndexSet.of(range(n // 2), n)
    tracemalloc.start()
    try:
        assert not determines(space, block, half, x)
        assert generates(space, block, space.full_set(), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6


def test_interleaved_atoms_at_scale_build_no_digit_tables():
    # 2^18 outcomes and Z = (u0 xor u2, parity of the other factors) reads
    # every factor, so its blocks are factorized on the full space, into the
    # atoms {u0, u2} and the other factors: neither is a run of consecutive
    # factors.  The atoms and histories come off bitset folds, with no
    # digit table (18 of them would hold 18 * 2^18 entries).  The bound
    # leaves ample room for a loaded machine.
    n = 18
    space = make_space(*[2] * n)
    ranks = range(space.outcome_count)
    pair = 1 << n - 1 | 1 << n - 3  # the bits of u0 and u2 in a rank
    z = make_var(
        space, "Z", 4,
        (2 * ((r & pair).bit_count() & 1) + ((r & ~pair).bit_count() & 1) for r in ranks),
    )
    u0 = make_var(space, "u0", 2, (r >> n - 1 for r in ranks))
    u1 = make_var(space, "u1", 2, (r >> n - 2 & 1 for r in ranks))
    c = blocks_of(space, z)["1"]
    start = time.perf_counter()
    parts = disintegration_atoms(space, c)
    # u0 varies within the atom {u0, u2} alone, u1 within the other one.
    assert history(space, c, u0) == _ids(space, 0, 2)
    assert history(space, c, u1) == _ids(space, 1, *range(3, n))
    given = conditional_history(space, u0, z).per_block
    assert time.perf_counter() - start < 10.0
    assert space._digits == {}
    assert parts.atoms == (_ids(space, 0, 2), _ids(space, 1, *range(3, n)))
    assert parts.trivial_part == space.empty_set()
    assert given == dict.fromkeys("0123", _ids(space, 0, 2))


def test_unconditional_queries_factorize_nothing():
    # With no conditioner the one block is the whole outcome set, and its
    # histories are the supports: no block is factorized, and its ranks
    # never become a memo key.
    space = make_space(3, 1, 2, 2)
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    x = make_var(space, "x", 3, [(o[0] + o[2]) % 3 for o in outcomes])
    y = make_var(space, "y", 2, [o[2] ^ o[3] for o in outcomes])
    verdict = structurally_independent(space, x, y)
    assert verdict.overlaps == {"*": _ids(space, 2)}
    assert conditional_history(space, x).per_block == {"*": _ids(space, 0, 2)}
    assert history(space, full_block(space), y) == _ids(space, 2, 3)
    assert space._atoms == {} and space._histories == {}


def test_each_level_set_is_built_once_for_both_variables(monkeypatch):
    # x and y both read factors z reads, so neither takes the support
    # shortcut: on a fresh space each level set of z is built once per
    # query and shared by the two variables.
    built = Counter()
    level_set = history_module._level_set

    def counting(table, v):
        built[v] += 1
        return level_set(table, v)

    monkeypatch.setattr(history_module, "_level_set", counting)
    for query in (structurally_independent, structural_time_leq):
        space = make_space(2, 3, 2)
        outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
        z = make_var(space, "z", 3, [(o[0] + o[1]) % 3 for o in outcomes])
        x = make_var(space, "x", 2, [o[0] ^ o[2] for o in outcomes])
        y = make_var(space, "y", 3, [(o[1] + o[2]) % 3 for o in outcomes])
        built.clear()
        got = query(space, x, y, z)
        assert built == {0: 1, 1: 1, 2: 1}
        fresh = make_space(2, 3, 2)
        hx = conditional_history(fresh, x, z).per_block
        hy = conditional_history(fresh, y, z).per_block
        if query is structural_time_leq:
            assert got == all(h.issubset(hy[label]) for label, h in hx.items())
        else:
            assert got.overlaps == {
                label: h & hy[label] for label, h in hx.items() if h & hy[label]
            }


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_structural_time_matches_subset_enumeration(data):
    # y is at times the pair of x and another variable, so the order holds;
    # when z leaves out a factor and neither x nor y reads one of z's, the
    # comparison reads the supports and builds no block.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    space = make_space(*sizes)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    ids = st.sets(st.sampled_from(range(len(sizes))))
    z = function_of(space, "z", sorted(data.draw(ids)), data.draw(st.integers(1, 3)), rng)
    x, y = (function_of(space, name, sorted(data.draw(ids)), 3, rng) for name in "xy")
    if data.draw(st.booleans()):
        y = pair_var(space, x, y)
    read = support(space, z)
    off = read != space._free and not (support(space, x) | support(space, y)) & read
    leq = structural_time_leq(space, x, y, z)
    if off:
        assert space._blocks == {} and space._atoms == {}
    fresh = make_space(*sizes)
    assert leq == all(
        oracle_history(fresh, c, x) <= oracle_history(fresh, c, y)
        for c in blocks_of(fresh, z).values()
    )


def test_history_rejects_foreign_variables():
    space = make_space(2, 2)
    foreign = make_var(make_space(2, 3), "x", 2, [0] * 6)
    with pytest.raises(SpaceMismatchError):
        history(space, full_block(space), foreign)


def _memo_block(key):
    """The Block a history memo key stands for: a block's ranks, or (bytes
    table, value) for a level set."""
    if isinstance(key[0], bytes):
        table, v = key
        return Block(label="b", ranks=tuple(r for r, t in enumerate(table) if t == v))
    return Block(label="b", ranks=key)


def test_history_memo_scans_each_block_and_table_once(monkeypatch):
    # "Scans" counts the bit-plane tests of one table on one block: the
    # constancy test every history makes before its memo entry is filled.
    scans = Counter()  # by (memo key of the block, table)
    factorized = Counter()  # by the block's bitset
    history_on, factorize = history_module._history_on, history_module._factorize_block

    def counting_history(space, key, bits, x, unread=0):
        if x.table not in space._histories.get(key, {}):
            scans[key, x.table] += 1
        return history_on(space, key, bits, x, unread)

    def counting_factorize(space, block, unread=0):
        factorized[block] += 1
        return factorize(space, block, unread)

    monkeypatch.setattr(history_module, "_history_on", counting_history)
    monkeypatch.setattr(history_module, "_factorize_block", counting_factorize)
    rng = random.Random("history-memo")
    total = 0
    for trial in range(40):
        space = make_space(*(rng.randint(1, 3) for _ in range(rng.randint(2, 4))))
        n = space.outcome_count
        x, y, z = (
            make_var(space, name, 3, [rng.randrange(3) for _ in range(n)]) for name in "xyz"
        )
        scans.clear()
        factorized.clear()
        first = structurally_independent(space, x, y, z)
        after_first = Counter(scans)
        total += sum(after_first.values())
        blocks = blocks_of(space, z)
        assert first.overlaps == {
            label: IndexSet.of(
                oracle_history(space, c, x) & oracle_history(space, c, y), space.factor_count
            )
            for label, c in blocks.items()
            if oracle_history(space, c, x) & oracle_history(space, c, y)
        }
        assert structurally_independent(space, x, y, z) == first
        # A variable with an equal table under another name shares the entry.
        entries = {key: list(known) for key, known in space._histories.items()}
        twin = make_var(space, "twin", 3, list(x.table))
        assert twin.table is not x.table
        assert structurally_independent(space, twin, y, z) == first
        assert scans == after_first
        assert {key: list(known) for key, known in space._histories.items()} == entries
        # Each table is tested once on each block, and a block is factorized
        # at most once, and only when some table varies on it.
        assert set(after_first.values()) <= {1}
        assert set(factorized.values()) <= {1}
        assert len(factorized) == len(space._atoms)
        for key in space._atoms:
            c = _memo_block(key)
            assert any(len({v.table[r] for r in c.ranks}) > 1 for v in (x, y))
        # Every memoized history is the one the oracle gives for its table.
        for key, known in space._histories.items():
            block = _memo_block(key)
            for table, found in known.items():
                var = make_var(space, "v", 3, table)
                assert found.members() == tuple(sorted(oracle_history(space, block, var)))
    assert total >= 60


def test_equal_tables_and_ranks_share_memo_entries(monkeypatch):
    # Tables and block ranks held again in distinct but equal objects: each
    # table is scanned for its support once, each block factorized at most
    # once, and each table's history on a block found once, because every
    # memo is keyed by the table or ranks themselves.  A Block of equal
    # ranks to a level set of a bytes conditioner shares that level set's
    # entries; a Block of a tuple conditioner is keyed by its ranks.  The
    # whole outcome set's ranks never become a memo key.
    scans, factorized, found = Counter(), Counter(), Counter()
    scan = space_module._scan
    history_on, factorize = history_module._history_on, history_module._factorize_block

    def counting_scan(axes, tops, values):
        scans[tuple(values)] += 1
        return scan(axes, tops, values)

    def counting_history(space, key, bits, x, unread=0):
        if x.table not in space._histories.get(key, {}):
            found[key, x.table] += 1
        return history_on(space, key, bits, x, unread)

    def counting_factorize(space, block, unread=0):
        factorized[block] += 1
        return factorize(space, block, unread)

    monkeypatch.setattr(space_module, "_scan", counting_scan)
    monkeypatch.setattr(history_module, "_history_on", counting_history)
    monkeypatch.setattr(history_module, "_factorize_block", counting_factorize)
    space = make_space(3, 2, 3, 2)
    rng = random.Random("equal-keys")
    x, y = function_of(space, "x", [0, 1, 3], 3, rng), function_of(space, "y", [1, 2], 3, rng)
    twin = RandomVariable("twin", x.codomain, bytes(bytearray(x.table)))
    # z reads two factors, w every factor; u, on values past one byte (a
    # tuple table), reads two others.
    z, w = function_of(space, "z", [0, 2], 3, rng), function_of(space, "w", [0, 1, 2, 3], 3, rng)
    u = function_of(space, "u", [1, 3], 3, rng)
    u = RandomVariable("u", tuple(map(str, range(300))), [(0, 256, 299)[v] for v in u.table])
    assert type(twin.table) is bytes and twin.table is not x.table
    assert type(u.table) is tuple
    blocks = [
        Block(c.label, tuple(list(c.ranks)))
        for conditioner in (z, w, u, None)
        for c in blocks_of(space, conditioner).values()
    ]
    for _ in range(3):
        for v in (x, y, twin, z, w, u):
            support(space, v)
        for c in blocks:
            for v in (x, y, twin):
                history(space, c, v)
        for conditioner in (z, w, u, None):
            blocks_of(space, conditioner)
            structurally_independent(space, x, y, conditioner)
            structurally_independent(space, twin, y, conditioner)
            _CiQuery(space, x, y, conditioner)
    assert set(scans) == {tuple(v.table) for v in (x, y, z, w, u)}
    assert set(scans.values()) == {1}
    assert set(factorized.values()) == {1}
    assert set(found.values()) == {1}
    assert {table for _, table in found} == {x.table, y.table}
    assert len(space._supports) == 5 and len(space._blocks) == 4
    # One history entry per block of a conditioner, none for the whole
    # outcome set.
    full = tuple(range(space.outcome_count))
    keys = {(z.table, v) for v in set(z.table)} | {(w.table, v) for v in set(w.table)}
    keys |= {c.ranks for c in blocks_of(space, u).values()}
    assert set(space._histories) == keys and len(blocks) == len(keys) + 1
    assert full not in space._atoms and full not in space._levels


def _interleaved(space, c):
    """Is some atom of C not a run of consecutive factors free on C?"""
    parts = disintegration_atoms(space, c)
    free = [k for k in range(space.factor_count) if k not in parts.trivial_part]
    # The atoms are listed by lowest factor.
    return [k for atom in parts.atoms for k in atom] != free


def test_histories_on_interleaved_atoms_match_subset_enumeration():
    # z reads two factors with a free one between them, so a block of more
    # than one point of z's grid has an atom of z's factors around that
    # free factor.  Both the Block path and the level-set path are checked.
    rng = random.Random("interleaved-atoms")
    interleaved = 0
    for _ in range(30):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(3, 4))]
        space = make_space(*sizes)
        i = rng.randrange(space.factor_count - 2)
        j = rng.randrange(i + 2, space.factor_count)
        z = function_of(space, "z", [i, j], 2, rng)
        for label, c in blocks_of(space, z).items():
            if not _interleaved(space, c):
                continue
            interleaved += 1
            for k in range(8):
                ids = [f for f in range(space.factor_count) if rng.random() < 0.5]
                x = function_of(space, f"x{k}", ids, 3, rng)
                want = tuple(sorted(oracle_history(space, c, x)))
                assert history(space, c, x).members() == want
                assert conditional_history(space, x, z).per_block[label].members() == want
    assert interleaved >= 20


def _varies_by_cells(shape, t, axis):
    """Does t change along this axis?  One comparison per tensor cell."""
    n = len(t)
    stride = n // prod(shape[: axis + 1])
    return any(
        t[r] != t[r - (r // stride % shape[axis]) * stride] for r in range(n)
    )


@pytest.mark.parametrize(
    "shape", [(2,) * 6, (3, 2, 4), (5,), (2, 7), (4, 1, 3, 2), (1,), (1, 1, 1), (3, 1)]
)
def test_axis_scan_matches_cell_comparisons(shape):
    # Values from low to low + 3: from 254 on they straddle 256, so the
    # image takes eight-byte lanes, and from 2**16 - 1 they need more than
    # two bytes.  Planting one changed cell checks that no lane is skipped.
    rng = random.Random(f"axis-scan:{shape}")
    n = prod(shape)
    for axis, size in enumerate(shape):
        stride = n // prod(shape[: axis + 1])
        for low, trial in product((0, 254, 2**16 - 1), range(30)):
            t = [low + rng.randrange(3) for _ in range(n)]
            if trial % 3:
                # Constant along the axis: copy position 0 of every line.
                t = [t[r - (r // stride % size) * stride] for r in range(n)]
            if trial % 3 == 2:
                t[rng.randrange(n)] = low + 3
            t = tuple(t)
            img, width = space_module._image(t)
            assert width == (1 if max(t) < 256 else 8)
            top = space_module._below_top(n, size, stride, width)
            assert space_module._varies(img, width, stride, top) == _varies_by_cells(
                shape, t, axis
            )


def test_full_product_block_takes_the_product_exit(monkeypatch):
    # 2^18 outcomes: every factor is an atom of its own, found from the
    # widths before any fold of a prefix projection.  The widths of binary
    # factors take no _fold call, so any call here is a prefix or merge
    # fold.  The bound leaves ample room for a loaded machine.
    def no_prefix_fold(x, size, step, zero):
        raise AssertionError("the factorization folded a prefix projection")

    monkeypatch.setattr(history_module, "_fold", no_prefix_fold)
    n = 18
    space = make_space(*[2] * n)
    x = make_var(space, "x", 2, map(xor, space.digits(3), space.digits(11)))
    start = time.perf_counter()
    got = history(space, full_block(space), x)
    assert time.perf_counter() - start < 3.0
    assert got == _ids(space, 3, 11)
    parts = disintegration_atoms(space, full_block(space))
    assert parts.atoms == tuple(_ids(space, i) for i in range(n))
    assert history(space, full_block(space), factor_var(space, n - 1)) == _ids(space, n - 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_set_histories_match_block_histories_and_subset_enumeration(data):
    # conditional_history and structurally_independent build each block of
    # z as a level-set bitset; history() is given the Blocks of blocks_of,
    # on a second space so that no memo is shared.  Both must agree with
    # subset enumeration on every block.  Domains of size 1 put constant
    # factors among those z reads and those it leaves out.  "some" leaves
    # out a factor of more than one value, and z's factors often have a
    # left-out one between them.  "entangled" reads a < b < c, and where z
    # is 0 (a or c at 0, any b) a and c form one atom with b free between
    # them.  z's values are stored as drawn, doubled in a bytes table of
    # 300 labels (every odd label and every label from 256 on unattained),
    # or from 256 up in a tuple table; x takes 1 to 300 values, so its table
    # is a tuple when a value reaches 256.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    space = make_space(*sizes)
    n = space.factor_count
    free = [i for i, size in enumerate(sizes) if size > 1]
    rng = random.Random(data.draw(st.integers()))
    kinds = ["one", "all", "constant", "no z"]
    if free and n > 1:
        kinds += ["some"] * 3
    if n >= 3:
        kinds += ["entangled"] * 2
    kind = data.draw(st.sampled_from(kinds))
    if kind == "no z":
        z = None
    elif kind == "entangled":
        a, b, c = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=3, max_size=3)))
        outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
        table = [0 if o[a] == 0 or o[c] == 0 else 1 + o[b] for o in outcomes]
        z = make_var(space, "z", 1 + sizes[b], table)
    else:
        if kind == "some":
            left_out = data.draw(st.sampled_from(free))
            others = [i for i in range(n) if i != left_out]
            ids = sorted(data.draw(st.sets(st.sampled_from(others), min_size=1)))
        elif kind == "one":
            ids = [data.draw(st.integers(0, n - 1))]
        else:
            ids = list(range(n)) if kind == "all" else []
        z = function_of(space, "z", ids, data.draw(st.integers(1, 3)), rng)
    if z is not None:
        stored = data.draw(st.sampled_from(["narrow", "bytes", "tuple"]))
        low, extra = {"narrow": (0, 0), "bytes": (0, 300), "tuple": (256, 300)}[stored]
        k = len(z.codomain)
        z = make_var(space, "z", low + 2 * k + extra, [low + 2 * v for v in z.table])
        assert isinstance(z.table, bytes) == (stored != "tuple")
    xs = [
        function_of(
            space,
            f"x{k}",
            sorted(data.draw(st.sets(st.integers(0, n - 1)))),
            data.draw(st.sampled_from([1, 2, 3, 300])),
            rng,
        )
        for k in range(2)
    ]
    xs.append(make_var(space, "r", 3, [rng.randrange(3) for _ in range(space.outcome_count)]))
    if z is not None:
        # A function of z and one factor reads z's factors, yet on a block
        # it varies along that factor alone.
        i = data.draw(st.integers(0, n - 1))
        h: dict[tuple[int, int], int] = {}
        table = [
            h.setdefault((v, outcome_unrank(space, r)[i]), rng.randrange(3))
            for r, v in enumerate(z.table)
        ]
        xs.append(make_var(space, "zx", 3, table))
    fresh = make_space(*sizes)
    blocks = blocks_of(fresh, z)
    hists = []
    for x in xs:
        per_block = conditional_history(space, x, z).per_block
        assert list(per_block) == list(blocks)
        for label, c in blocks.items():
            want = tuple(sorted(oracle_history(fresh, c, x)))
            assert per_block[label].members() == want
            assert history(fresh, c, x).members() == want
        hists.append(per_block)
    for (x, hx), (y, hy) in combinations(zip(xs, hists), 2):
        verdict = structurally_independent(space, x, y, z)
        want = {label: hx[label] & hy[label] for label in blocks if hx[label] & hy[label]}
        assert verdict.overlaps == want and list(verdict.overlaps) == list(want)


def test_an_atom_around_a_free_factor_gives_exact_histories():
    # Where z is 0 (u0 or u2 at 0, any u1), u0 and u2 form one atom with u1
    # free between them, and z leaves u3 out.  Histories through the level
    # set and through the Block agree with subset enumeration.
    space = make_space(3, 2, 3, 2)
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    z = make_var(space, "z", 3, [0 if o[0] == 0 or o[2] == 0 else 1 + o[1] for o in outcomes])
    blocks = blocks_of(space, z)
    assert disintegration_atoms(space, blocks["0"]).atoms == (
        _ids(space, 1), _ids(space, 0, 2), _ids(space, 3)
    )
    # x reads u0, u1 and u2, but where z is 0 it is u1.
    x = make_var(space, "x", 3, [o[1] if v == 0 else 2 for o, v in zip(outcomes, z.table)])
    assert history(space, blocks["0"], x) == _ids(space, 1)
    assert conditional_history(space, x, z).per_block["0"] == _ids(space, 1)
    rng = random.Random("grid-tensor-order")
    for i in range(space.factor_count):
        h: dict[tuple[int, int], int] = {}
        table = [h.setdefault((v, o[i]), rng.randrange(3)) for o, v in zip(outcomes, z.table)]
        y = make_var(space, "y", 3, table)
        per_block = conditional_history(space, y, z).per_block
        for label, c in blocks.items():
            want = tuple(sorted(oracle_history(space, c, y)))
            assert history(space, c, y).members() == want
            assert per_block[label].members() == want


def test_a_conditioner_reading_every_factor_builds_no_blocks():
    # A parity over every factor of more than one value, next to a factor
    # of one value: the queries build no Block, scan no support but z's,
    # and factorize each of z's two level sets once.
    space = make_space(2, 1, 3, 2)
    n = space.outcome_count
    z = make_var(space, "z", 2, [sum(outcome_unrank(space, r)) % 2 for r in range(n)])
    x = factor_var(space, 2)
    ch = conditional_history(space, x, z)
    assert structurally_independent(space, x, factor_var(space, 0), z).overlaps
    assert space._blocks == {}
    assert list(space._supports) == [z.table]
    # Each level set is keyed by (z's table, value).
    levels = [(z.table, 0), (z.table, 1)]
    assert list(space._atoms) == levels
    for label, c in blocks_of(space, z).items():
        assert ch.per_block[label].members() == tuple(sorted(oracle_history(space, c, x)))
        assert history(space, c, x) == ch.per_block[label]
    # The Blocks of blocks_of share their level sets' memo entries.
    assert list(space._atoms) == levels
    assert list(space._histories) == levels


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_histories_on_lifted_blocks_match_subset_enumeration(data):
    # z reads some but not all of the factors of more than one value, so
    # each of its blocks is its block on the grid of z's factors, lifted:
    # times every factor z leaves out.  x reads none, some or all of z's
    # factors.  Reading none, its history given z is its support on every
    # block, with no block factorized.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    for i in data.draw(st.sets(st.integers(0, len(sizes) - 1), min_size=2, max_size=2)):
        sizes[i] = max(sizes[i], 2)
    space = make_space(*sizes)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    free = [i for i, size in enumerate(sizes) if size > 1]
    z_ids = sorted(data.draw(st.sets(st.sampled_from(free), min_size=1, max_size=len(free) - 1)))
    z = function_of(space, "z", z_ids, data.draw(st.integers(2, 3)), rng)
    read = support(space, z)
    assume(read not in (0, sum(1 << i for i in free)))
    z_read = [i for i in z_ids if read >> i & 1]
    others = data.draw(st.sets(st.sampled_from([i for i in range(len(sizes)) if i not in z_read])))
    mode = data.draw(st.sampled_from(["none", "some", "all"]))
    shared = {"none": [], "some": z_read[: rng.randint(1, len(z_read))], "all": z_read}[mode]
    x = function_of(space, "x", sorted(others | set(shared)), data.draw(st.integers(1, 3)), rng)
    per_block = conditional_history(space, x, z).per_block
    if not support(space, x) & read:
        assert space._atoms == {}
        assert all(h.mask == support(space, x) for h in per_block.values())
    for label, c in blocks_of(space, z).items():
        want = tuple(sorted(oracle_history(space, c, x)))
        assert per_block[label].members() == want, (mode, x.table, z.table)
        assert history(space, c, x).members() == want, (mode, x.table, z.table)


def test_independence_of_variables_off_the_conditioner_factorizes_no_block():
    # z reads u0 and u1; x reads u2 and y reads u3, so both histories are
    # their supports on every block of z and no block is factorized.
    space = make_space(2, 3, 2, 2, 1)
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    z = make_var(space, "z", 3, [(o[0] + o[1]) % 3 for o in outcomes])
    x, y = factor_var(space, 2), factor_var(space, 3)
    verdict = structurally_independent(space, x, y, z)
    assert verdict.independent and len(blocks_of(space, z)) > 1
    assert space._atoms == {}
    assert not structurally_independent(space, x, x, z).independent
    assert space._atoms == {}


def test_repeated_independence_off_the_conditioner_builds_no_index_set(monkeypatch):
    # x and y read none of z's factors, so their histories given z are
    # their supports, memoized as IndexSets with the support masks: a
    # repeated check builds none.
    space = make_space(2, 3, 2, 2)
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    z = make_var(space, "z", 3, [(o[0] + o[1]) % 3 for o in outcomes])
    x, y = factor_var(space, 2), factor_var(space, 3)
    first = structurally_independent(space, x, y, z)
    assert first.independent
    built = []
    post_init = IndexSet.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(IndexSet, "__post_init__", counting)
    verdict = structurally_independent(space, x, y, z)
    per_block = conditional_history(space, x, z).per_block
    monkeypatch.undo()
    assert built == []
    assert verdict == first
    assert per_block == dict.fromkeys("012", _ids(space, 2))


def test_independence_off_the_conditioner_at_scale_holds_no_block_memory():
    # 2^18 outcomes: z = u16 xor u17, x and y the parities of u0-u7 and
    # u8-u15.  With the blocks and supports built, x and y read none of z's
    # factors, so the check reads no block's values; factorizing and
    # reading each 2^17-rank block would peak near 16 MB.
    space = make_space(*[2] * 18)
    ranks = range(space.outcome_count)
    z = make_var(space, "z", 2, ((r ^ r >> 1) & 1 for r in ranks))
    x = make_var(space, "x", 2, ((r >> 10).bit_count() & 1 for r in ranks))
    y = make_var(space, "y", 2, ((r >> 2 & 255).bit_count() & 1 for r in ranks))
    blocks_of(space, z)
    assert support(space, x) == sum(1 << i for i in range(8))
    assert support(space, y) == sum(1 << i for i in range(8, 16))
    tracemalloc.start()
    try:
        verdict = structurally_independent(space, x, y, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.independent
    assert space._atoms == {}
    assert peak < 10**6


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_queries_off_the_conditioner_match_subset_enumeration(data):
    # z reads a proper subset of the factors (maybe none), x and y none of
    # z's factors, and z has labels it never attains (its values doubled).
    # Its codomain may hold more than 256 labels: as a bytes table whose
    # labels from 256 on are never attained, or as a tuple table whose
    # entries are 256 and up.  Both queries are checked against the
    # oracle on every block of z, built on a fresh space so that the
    # queries' space builds none.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    space = make_space(*sizes)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    factors = range(len(sizes))
    z_ids = sorted(data.draw(st.sets(st.sampled_from(factors), max_size=len(sizes) - 1)))
    k = data.draw(st.integers(1, 3))
    z = function_of(space, "z", z_ids, k, rng)
    table = data.draw(st.sampled_from(["narrow", "bytes", "tuple"]))
    low, extra = {"narrow": (0, 0), "bytes": (0, 300), "tuple": (256, 300)}[table]
    z = make_var(space, "z", low + 2 * k + extra, [low + 2 * v for v in z.table])
    assert isinstance(z.table, bytes) == (table != "tuple")
    read = support(space, z)
    others = [i for i in factors if not read >> i & 1]
    x, y = (
        function_of(space, name, sorted(data.draw(st.sets(st.sampled_from(others)))), 3, rng)
        for name in "xy"
    )
    verdict = structurally_independent(space, x, y, z)
    ch = conditional_history(space, x, z)
    if read != space._free:
        assert space._blocks == {} and space._atoms == {}
    fresh = make_space(*sizes)
    blocks = blocks_of(fresh, z)
    assert list(blocks) == [z.codomain[v] for v in sorted(set(z.table))]
    want = {}
    for label, c in blocks.items():
        hx = oracle_history(fresh, c, x)
        assert ch.per_block[label].members() == tuple(sorted(hx))
        if hx & oracle_history(fresh, c, y):
            want[label] = IndexSet.of(hx & oracle_history(fresh, c, y), len(sizes))
    assert list(ch.per_block) == list(blocks)
    assert verdict.overlaps == want and list(verdict.overlaps) == list(want)
    assert verdict.independent == (not want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_independence_with_one_variable_off_the_conditioner_matches_subset_enumeration(data):
    # z reads a proper subset of the free factors, x none of z's factors
    # and y some.  x's history is its support on every block, so x's table
    # is read on no block, in either argument order, and the overlaps match
    # the oracle on every block of z in label order.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    for i in data.draw(st.sets(st.integers(0, len(sizes) - 1), min_size=2, max_size=2)):
        sizes[i] = max(sizes[i], 2)
    space = make_space(*sizes)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    factors = range(len(sizes))
    free = [i for i in factors if sizes[i] > 1]
    z_ids = sorted(data.draw(st.sets(st.sampled_from(free), min_size=1, max_size=len(free) - 1)))
    z = function_of(space, "z", z_ids, data.draw(st.integers(2, 3)), rng)
    read = support(space, z)
    assume(read not in (0, space._free))
    z_read = [i for i in z_ids if read >> i & 1]
    others = [i for i in factors if i not in z_read]
    x = function_of(space, "x", sorted(data.draw(st.sets(st.sampled_from(others)))), 3, rng)
    y_ids = data.draw(st.sets(st.sampled_from(z_read), min_size=1))
    y_ids |= data.draw(st.sets(st.sampled_from(factors)))
    y = function_of(space, "y", sorted(y_ids), 3, rng)
    assume(support(space, y) & read)
    tables = []
    history_on = history_module._history_on

    def spy(space, key, bits, v, unread=0):
        tables.append(v.table)
        return history_on(space, key, bits, v, unread)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(history_module, "_history_on", spy)
        verdicts = [structurally_independent(space, a, b, z) for a, b in ((x, y), (y, x))]
    assert x.table not in tables
    fresh = make_space(*sizes)
    want = {}
    for label, c in blocks_of(fresh, z).items():
        shared = oracle_history(fresh, c, x) & oracle_history(fresh, c, y)
        if shared:
            want[label] = IndexSet.of(shared, len(sizes))
    for verdict in verdicts:
        assert verdict.overlaps == want and list(verdict.overlaps) == list(want)
        assert verdict.independent == (not want)


def test_ci_verify_queries_off_the_conditioner_build_no_blocks():
    # The ci-verify shape: X reads u0-u2, Y u3-u5, W u2 and u3, Z u6 and u7.
    # X and Y, and X and W, read none of Z's factors, so neither query
    # partitions Z, builds a level set or factorizes a block.
    space = make_space(2, 3, 2, 3, 2, 3, 2, 3)
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    x = make_var(space, "X", 3, [(o[0] + o[1] + o[2]) % 3 for o in outcomes])
    y = make_var(space, "Y", 3, [(o[3] + o[4] + o[5]) % 3 for o in outcomes])
    w = make_var(space, "W", 2, [(o[2] + o[3]) % 2 for o in outcomes])
    z = make_var(space, "Z", 3, [(o[6] + o[7]) % 3 for o in outcomes])
    assert structurally_independent(space, x, y, z).independent
    assert structurally_independent(space, x, w, z).overlaps == {
        label: _ids(space, 2) for label in "012"
    }
    assert conditional_history(space, x, z).per_block == {
        label: _ids(space, 0, 1, 2) for label in "012"
    }
    assert space._blocks == {}
    assert space._histories == {}
    assert space._atoms == {}


def test_conditioned_queries_build_no_full_length_tables():
    # 2**18 outcomes: z reads u3 and u11, x, y and w a few factors more.
    # Coordinate tables of every factor would hold 18 * 2**18 entries.
    space = make_space(*[2] * 18)
    n = space.outcome_count
    bit = {i: [r >> (17 - i) & 1 for r in range(n)] for i in (0, 3, 7, 11, 15, 16)}
    z = make_var(space, "z", 2, map(xor, bit[3], bit[11]))
    x = make_var(space, "x", 2, map(xor, map(xor, bit[0], bit[3]), bit[7]))
    y = make_var(space, "y", 2, map(min, bit[11], bit[15]))
    w = make_var(space, "w", 2, map(xor, bit[15], bit[16]))
    start = time.perf_counter()
    ch = conditional_history(space, x, z)
    dependent = structurally_independent(space, x, y, z)
    independent = structurally_independent(space, x, w, z)
    elapsed = time.perf_counter() - start
    assert space._digits == {}
    # On each block u3 and u11 are equal, so they form one atom.
    assert ch.per_block == {label: _ids(space, 0, 3, 7, 11) for label in "01"}
    assert dependent.overlaps == {label: _ids(space, 3, 11) for label in "01"}
    assert independent.independent
    assert elapsed < 20.0


def test_conditioned_history_at_scale_builds_plan_entries_for_its_factors_only():
    # 2^18 outcomes: z = u3 xor u11, and x = u3 + 2 * u11 reads the same two
    # factors.  Each block of z is its grid block times the 16 factors z
    # leaves out, which the factorization counts and never folds, so the
    # space's fold plan gains entries for u3 and u11 at most; the 16 others
    # would hold 16 zero masks of 2^18 bytes.  On each block u3 and u11
    # form one atom, found by a merge count that folds one of them.
    space = make_space(*[2] * 18)
    ranks = range(space.outcome_count)
    z = make_var(space, "z", 2, ((r >> 14 ^ r >> 6) & 1 for r in ranks))
    x = make_var(space, "x", 4, ((r >> 14 & 1) + 2 * (r >> 6 & 1) for r in ranks))
    start = time.perf_counter()
    per_block = conditional_history(space, x, z).per_block
    assert time.perf_counter() - start < 10.0
    assert per_block == dict.fromkeys("01", _ids(space, 3, 11))
    built = {k for k, entry in enumerate(space._plan) if entry is not None}
    assert built and built <= {3, 11}
    assert space._digits == {}


def test_conditioned_histories_at_scale_hold_one_level_set_at_a_time():
    # 2^18 outcomes: z = u3 + u12 reads two factors, and x = u3 xor u9 reads
    # one of them.  Where z is 0 or 2, u3 and u12 are constant and x's
    # history is {u9}; where z is 1, u3 and u12 form one atom.  Each level
    # set is one 2^18-byte bitset built from z's table and dropped after
    # its history, next to the support scans' memoized lane masks (18 of
    # 2^18 bytes); block ranks and their tensor-order read-off would peak
    # near 33 MB.
    space = make_space(*[2] * 18)
    ranks = range(space.outcome_count)
    z = make_var(space, "z", 3, ((r >> 14 & 1) + (r >> 5 & 1) for r in ranks))
    x = make_var(space, "x", 2, ((r >> 14 ^ r >> 8) & 1 for r in ranks))
    tracemalloc.start()
    try:
        per_block = conditional_history(space, x, z).per_block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert per_block == {
        "0": _ids(space, 9), "1": _ids(space, 3, 9, 12), "2": _ids(space, 9)
    }
    assert space._digits == {} and space._blocks == {}
    assert peak < 16 * 10**6


def _interleaved_block(data):
    """(space, ranks) of a block with atoms {a, a'}, {b, b'} and {c}, the
    factors placed in any order among a one-value factor and one pinned to
    a drawn value, so the atoms' projections keep a non-zero constant."""
    roles = data.draw(st.permutations(["a", "a", "b", "b", "c", "one", "pin"]))
    sizes = [1 if role == "one" else data.draw(st.integers(2, 3)) for role in roles]
    space = make_space(*sizes)
    a1, a2 = [i for i, role in enumerate(roles) if role == "a"]
    b1, b2 = [i for i, role in enumerate(roles) if role == "b"]
    pin = roles.index("pin")
    pa, pb, v = data.draw(st.tuples(*[st.integers(0, 1)] * 3))
    return space, tuple(
        r
        for r in range(space.outcome_count)
        for o in [outcome_unrank(space, r)]
        if (o[a1] + o[a2]) % 2 == pa and (o[b1] + o[b2]) % 2 == pb and o[pin] == v
    )


def _factorizations(data):
    """(space, ranks, unread) of the blocks one drawn case factorizes.

    Domains of size 1 give constant factors, and domains up to 4 folds
    that shift by more than one value step.  "drawn" is a product of
    arbitrary subsets over a random grouping of the factors, "entangled"
    ties two factors with one between them (an atom that is not a run),
    "interleaved" has three atoms in any order around a one-value factor
    and a pinned one, and "partial" gives the blocks of a z that leaves a
    factor out, with the mask of the factors of more than one value that z
    does not read; other blocks come with 0.
    """
    kind = data.draw(
        st.sampled_from(["drawn", "single", "full", "entangled", "interleaved", "partial"])
    )
    if kind == "interleaved":
        return [(*_interleaved_block(data), 0)]
    low = 3 if kind in ("entangled", "partial") else 1
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=low, max_size=4))
    n = len(sizes)
    if kind == "entangled":
        a, b, c = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=3, max_size=3)))
        sizes[a], sizes[c] = max(sizes[a], 2), max(sizes[c], 2)
    elif kind == "partial":
        ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
        left_out = data.draw(st.sampled_from([i for i in range(n) if i not in ids]))
        sizes[left_out] = max(sizes[left_out], 2)
    space = make_space(*sizes)
    if kind == "drawn":
        return [(space, _draw_block(data, space).ranks, 0)]
    if kind == "single":
        return [(space, (data.draw(st.integers(0, space.outcome_count - 1)),), 0)]
    if kind == "full":
        return [(space, full_block(space).ranks, 0)]
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    if kind == "entangled":
        parity = data.draw(st.integers(0, 1))
        ranks = tuple(r for r, o in enumerate(outcomes) if (o[a] + o[c]) % 2 == parity)
        return [(space, ranks, 0)]
    rng = random.Random(data.draw(st.integers()))
    z = function_of(space, "z", ids, data.draw(st.integers(2, 4)), rng)
    unread = space._free & ~support(space, z)
    return [(space, c.ranks, unread) for c in blocks_of(space, z).values()]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bitset_factorization_matches_key_counts(data):
    # A block factorized knowing the factors its conditioner leaves out
    # (the level-set path) factorizes as it does without.
    for space, ranks, unread in _factorizations(data):
        entry = history_module._factorize(space, *history_module._keyed(space, ranks))
        copy = make_space(*(f.size for f in space.factors))
        assert (entry.trivial, tuple(m for m, _ in entry.atoms)) == oracle_factorize(copy, ranks)
        for mask, ids in entry.atoms:
            assert ids == IndexSet(mask, space.factor_count).members()
        block = history_module._bitset(space, ranks)
        assert history_module._factorize_block(space, block, unread) == entry


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_widths_are_the_projection_sizes(data):
    # _widths against the sets of each factor's coordinates: on arbitrary
    # rank sets, on products of subsets (_draw_block), and on the level
    # sets of a conditioner, each with and without the factors it leaves
    # out given as unread.  Sizes 1 to 4 put binary factors (two mask
    # tests) next to wider ones (folds) and one-value factors.
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    space = make_space(*sizes)
    kind = data.draw(st.sampled_from(["ranks", "drawn", "level"]))
    if kind == "ranks":
        count = space.outcome_count
        cases = [(tuple(sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1)))), 0)]
    elif kind == "drawn":
        cases = [(_draw_block(data, space).ranks, 0)]
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        ids = sorted(data.draw(st.sets(st.integers(0, len(sizes) - 1))))
        z = function_of(space, "z", ids, data.draw(st.integers(1, 3)), rng)
        unread = space._free & ~support(space, z)
        cases = [(c.ranks, u) for c in blocks_of(space, z).values() for u in {0, unread}]
    for ranks, unread in cases:
        block = history_module._bitset(space, ranks)
        assert history_module._widths(space, block, unread) == oracle_widths(space, ranks)


def _rule_block(data):
    """(space, ranks) of a block of 2 to 5 factors of 1 to 3 values.

    Either a product of arbitrary subsets over a random grouping of the
    factors (_draw_block), or a product of parity level sets over one, so
    that atoms of several factors interleave and merges absorb atoms.
    One-value factors and one-point subsets give constant factors.
    """
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    space = make_space(*sizes)
    if data.draw(st.booleans()):
        return space, _draw_block(data, space).ranks
    n = len(sizes)
    groups = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    wide = {h for size, h in zip(sizes, groups) if size > 1}
    # A group of one-value factors has parity 0 everywhere.
    parity = [data.draw(st.integers(0, 1)) if g in wide else 0 for g in range(3)]

    def parities(o):
        return [sum(v for v, h in zip(o, groups) if h == g) % 2 for g in range(3)]

    every = range(space.outcome_count)
    return space, tuple(r for r in every if parities(outcome_unrank(space, r)) == parity)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_atom_rule_on_set_counts_finds_the_minimal_rectangle_sets(data):
    # _atoms on projections counted as Python sets, against literal
    # recombination over every non-empty set of free factors.
    space, ranks = _rule_block(data)
    free, widths, count = oracle_projection_counts(space, ranks)
    atoms = history_module._atoms(free, widths, len(ranks), count)
    block = Block(label="c", ranks=ranks)
    rects = [
        frozenset(ids)
        for ids in all_subsets(free)
        if ids and oracle_rectangle(space, block, ids)
    ]
    got = [[k for k in free if m >> k & 1] for m, _ in atoms]
    assert len(got) == len({frozenset(a) for a in got})
    assert {frozenset(a) for a in got} == {r for r in rects if not any(s < r for s in rects)}
    assert [a[0] for a in got] == sorted(a[0] for a in got)
    outcomes = [outcome_unrank(space, r) for r in ranks]
    want = [len({tuple(o[k] for k in a) for o in outcomes}) for a in got]
    assert [size for _, size in atoms] == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bitset_counts_equal_set_counts_wherever_the_rule_asks(data):
    space, ranks = _rule_block(data)
    free, widths, fake = oracle_projection_counts(space, ranks)
    asked = []
    rule = history_module._atoms

    def spy(free_, widths_, total, count):
        assert (free_, widths_, total) == (free, widths, len(ranks))

        def checked(i, drop):
            got = count(i, drop)
            asked.append(((i, tuple(drop)), got, fake(i, drop)))
            return got

        return rule(free_, widths_, total, checked)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(history_module, "_atoms", spy)
        history_module._factorize(space, *history_module._keyed(space, ranks))
    assert [got for _, got, _ in asked] == [want for _, _, want in asked], asked


@pytest.mark.parametrize(
    "sizes, z, folds",
    [
        ((2,) * 8, lambda o: sum(o) % 2, 26),
        ((2,) * 6, lambda o: 2 * (o[0] ^ o[2]) + (o[1] + o[3] + o[4] + o[5]) % 2, 44),
        ((2, 3, 2, 2), lambda o: (o[0] ^ (o[1] % 2)) + 2 * (o[2] & o[3]), 22),
    ],
    ids=["parity-8", "xor-and-parity-6", "mixed-2x3x2x2"],
)
def test_factorizing_every_block_takes_the_pinned_folds(monkeypatch, sizes, z, folds):
    # z reads every factor, so each block is factorized on the full space:
    # the _fold calls of _widths (two per block for the 3-valued factor,
    # none for a binary one), the prefix projections and the merge counts,
    # pinned so that a change to the rule or its counts that adds folds
    # shows here.
    space = make_space(*sizes)
    zvar = make_var(
        space, "z", 4, (z(outcome_unrank(space, r)) for r in range(space.outcome_count))
    )
    blocks = blocks_of(space, zvar).values()
    calls = Counter()
    fold = history_module._fold

    def counting(*args):
        calls["fold"] += 1
        return fold(*args)

    monkeypatch.setattr(history_module, "_fold", counting)
    for c in blocks:
        history_module._factorize(space, *history_module._keyed(space, c.ranks))
    assert calls["fold"] == folds


@pytest.mark.parametrize("wide", [False, True], ids=["bytes", "tuple"])
@pytest.mark.parametrize(
    "sizes, z, folds",
    [
        ((2,) * 8, lambda o: sum(o) % 2, 0),
        ((2,) * 6, lambda o: 2 * (o[0] ^ o[2]) + (o[1] + o[3] + o[4] + o[5]) % 2, 64),
        ((2, 3, 2, 2), lambda o: (o[0] ^ (o[1] % 2)) + 2 * (o[2] & o[3]), 24),
    ],
    ids=["parity-8", "xor-and-parity-6", "mixed-2x3x2x2"],
)
def test_histories_on_every_block_take_the_pinned_folds(monkeypatch, sizes, z, folds, wide):
    # The conditioners above, each block factorized beforehand, and x =
    # u1 + 2 * u2.  On the xor-and-parity blocks x's first plane is u1 and
    # its second u2, so the second plane folds only the atom the first one
    # left.  On a parity block one atom holds both and is the history with
    # no fold.  Values from 256 up (a tuple table, its planes built one at
    # a time) fold the same.
    space = make_space(*sizes)
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    zvar = make_var(space, "z", 4, map(z, outcomes))
    x = make_var(space, "x", 5, (o[1] + 2 * o[2] for o in outcomes))
    if wide:
        x = RandomVariable("x", tuple(map(str, range(300))), [v + 256 * (v & 1) for v in x.table])
        assert type(x.table) is tuple
    blocks = blocks_of(space, zvar).values()
    for c in blocks:
        disintegration_atoms(space, c)
    calls = Counter()
    fold = history_module._fold

    def counting(*args):
        calls["fold"] += 1
        return fold(*args)

    monkeypatch.setattr(history_module, "_fold", counting)
    for c in blocks:
        assert history(space, c, x).members() == tuple(sorted(oracle_history(space, c, x)))
    assert calls["fold"] == folds


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_splits_is_the_union_of_the_sets_whose_complements_fail_to_determine(data):
    # _splits against the literal pairwise test, one set at a time: x
    # varies along S on C exactly when the factors outside S fail to
    # determine it.  Blocks of a conditioner (level-set bitsets for a bytes
    # one) and arbitrary rank sets; x of two to six values, half of the
    # time some moved past 255 so that its table is a tuple; disjoint sets,
    # empty ones included.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    space = make_space(*sizes)
    n, count = space.factor_count, space.outcome_count
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        ids = sorted(data.draw(st.sets(st.integers(0, n - 1))))
        z = function_of(space, "z", ids, data.draw(st.integers(1, 3)), rng)
        c = data.draw(st.sampled_from(list(blocks_of(space, z).values())))
    else:
        c = Block("c", tuple(sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1)))))
    k = data.draw(st.integers(2, 6))
    ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    x = function_of(space, "x", ids, k, rng)
    assume(len(set(x.table)) > 1)
    if data.draw(st.booleans()):
        wide = (0, 256, 299, 1, 257, 100)  # a tuple table if it takes 1, 2 or 4
        x = RandomVariable("x", tuple(map(str, range(300))), [wide[v] for v in x.table])
    groups = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    sets = [IndexSet.of([i for i, h in enumerate(groups) if h == g], n) for g in range(3)]
    want = 0
    for found in sets:
        if not oracle_determines(space, c, found.complement().members(), x):
            want |= found.mask
    block = history_module._keyed(space, c.ranks)[1]()
    assert history_module._splits(space, block, x, [(s.mask, s.members()) for s in sets]) == want


def test_mask_tests_build_each_block_once(monkeypatch):
    # One level-set translate per block of a bytes conditioner serves both
    # tables, and both agree with the literal tests on every mask.
    calls = Counter()
    level_set = history_module._level_set

    def counting(table, v):
        calls[table, v] += 1
        return level_set(table, v)

    monkeypatch.setattr(history_module, "_level_set", counting)
    rng = random.Random("mask-tests")
    space = make_space(2, 3, 2)
    x = function_of(space, "x", [0, 1, 2], 5, rng)
    z = function_of(space, "z", [1, 2], 3, rng)
    blocks = blocks_of(space, z)
    assert type(z.table) is bytes and len(blocks) > 1
    for c in blocks.values():
        rectangles, determined = history_module._mask_tests(space, c, x)
        masks = [IndexSet(m, space.factor_count).members() for m in range(1 << space.factor_count)]
        assert rectangles == [oracle_rectangle(space, c, ids) for ids in masks]
        assert determined == [oracle_determines(space, c, ids, x) for ids in masks]
    assert calls == {(z.table, v): 1 for v in set(z.table)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_structural_independence_decides_ci_under_every_product(data):
    # Both directions of the main theorem, with no sampling: x, y and z
    # each read a drawn subset of the factors, so every block shape occurs.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    space = make_space(*sizes)
    rng = random.Random(data.draw(st.integers(0, 2**32)))

    def var(name):
        ids = data.draw(st.sets(st.integers(0, len(sizes) - 1)))
        return function_of(space, name, sorted(ids), data.draw(st.integers(1, 3)), rng)

    x, y, z = var("x"), var("y"), var("z")
    verdict = structurally_independent(space, x, y, z).independent
    assert verdict == oracle_ci_all_products(space, x, y, z)
