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
    oracle_rectangle,
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
    # non-empty J, and x, the parity of the first 9 factors, is determined
    # by them but not generated.  The predicates fold the block's bitset
    # (2^18 bytes) along J and its complement, with one memoized zero mask
    # per factor; key lists over 9 full-length digit tables would peak near
    # 30 MB.
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
    # atoms {u0, u2} and the other factors: neither is a run, so the block
    # is read out of rank order.  That order comes off bitset folds, with no
    # digit table (18 of them would hold 18 * 2^18 entries).  The bound
    # leaves ample room for a loaded machine.
    n = 18
    space = make_space(*[2] * n)
    pair = 1 << n - 1 | 1 << n - 3  # the bits of u0 and u2 in a rank
    z = make_var(
        space, "Z", 4,
        (2 * ((r & pair).bit_count() & 1) + ((r & ~pair).bit_count() & 1)
         for r in range(space.outcome_count)),
    )
    c = blocks_of(space, z)["1"]
    start = time.perf_counter()
    parts = disintegration_atoms(space, c)
    assert time.perf_counter() - start < 10.0
    assert space._digits == {}
    assert parts.atoms == (_ids(space, 0, 2), _ids(space, 1, *range(3, n)))
    assert parts.trivial_part == space.empty_set()
    # Tensor order: the u0, u2 projection first, the rest in rank order.
    read = history_module._factorize(space, c.ranks).read
    assert list(read(range(space.outcome_count))) == sorted(
        c.ranks, key=lambda r: (r & pair, r)
    )


def test_unconditional_queries_factorize_nothing():
    # With no conditioner the one block is the whole outcome set, and its
    # histories are the supports: no block is factorized, and its ranks
    # are never interned.
    space = make_space(3, 1, 2, 2)
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    x = make_var(space, "x", 3, [(o[0] + o[2]) % 3 for o in outcomes])
    y = make_var(space, "y", 2, [o[2] ^ o[3] for o in outcomes])
    verdict = structurally_independent(space, x, y)
    assert verdict.overlaps == {"*": _ids(space, 2)}
    assert conditional_history(space, x).per_block == {"*": _ids(space, 0, 2)}
    assert space._atoms == {}
    assert tuple(range(space.outcome_count)) not in space._records


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


def test_history_memo_scans_each_block_and_table_once(monkeypatch):
    scans = Counter()  # by the id of the block entry's below-top masks
    scan = history_module._scan

    def counting_scan(axes, tops, values, reads=-1):
        scans[id(tops)] += 1
        return scan(axes, tops, values, reads)

    monkeypatch.setattr(history_module, "_scan", counting_scan)
    rng = random.Random("history-memo")
    total = 0
    for trial in range(40):
        space = make_space(*(rng.randint(1, 3) for _ in range(rng.randint(2, 4))))
        n = space.outcome_count
        x, y, z = (
            make_var(space, name, 3, [rng.randrange(3) for _ in range(n)]) for name in "xyz"
        )
        scans.clear()
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
        twin = make_var(space, "twin", 3, list(x.table))
        assert twin.table is not x.table
        assert structurally_independent(space, twin, y, z) == first
        assert scans == after_first
        assert space.intern(twin.table) is space.intern(x.table)
        # Each block is scanned once per distinct table not constant on it.
        for c in blocks.values():
            tables = {v.table for v in (x, y) if len(set(v.table[r] for r in c.ranks)) > 1}
            entry = space._atoms.get(space.intern(c.ranks))
            if entry is None:
                # Never factorized, so never scanned: the whole outcome set,
                # whose histories are supports.  A block neither table
                # varies on is factorized like any other and scanned 0 times.
                assert len(c) == space.outcome_count or not tables
                continue
            assert scans[id(entry.tops)] == len(tables)
        # Every memoized history is the one the oracle gives for its table.
        for key, entry in space._atoms.items():
            block = Block(label="b", ranks=key.objects[0])
            for record, found in entry.known.items():
                var = make_var(space, "v", 3, record.objects[0])
                assert found.members() == tuple(sorted(oracle_history(space, block, var)))
    assert total >= 60


def test_memo_lookups_hash_each_table_and_block_once():
    # Tables (bytes) and block ranks (tuples) of subclasses that count their
    # hashes and equality tests.  After the first time a space meets an
    # object, every memo finds it by identity, so no call hashes it again.
    hashes, equalities = Counter(), Counter()

    def counting(base):
        class Counted(base):
            def __hash__(self):
                hashes[id(self)] += 1
                return base.__hash__(self)

            def __eq__(self, other):
                equalities[id(self)] += 1
                return base.__eq__(self, other)

        return Counted

    CountedTable, CountedRanks = counting(bytes), counting(tuple)
    space = make_space(3, 2, 3, 2)
    rng = random.Random("hash-count")

    def counted(name, ids):
        v = function_of(space, name, ids, 3, rng)
        return RandomVariable(v.name, v.codomain, CountedTable(v.table))

    x, y = counted("x", [0, 1, 3]), counted("y", [1, 2])
    twin = RandomVariable("twin", x.codomain, CountedTable(x.table))
    # z reads two factors, so its blocks are lifted from its grid; w reads
    # every factor.
    z, w = counted("z", [0, 2]), counted("w", [0, 1, 2, 3])
    assert type(x.table) is CountedTable and twin.table is not x.table
    blocks = [
        Block(c.label, CountedRanks(c.ranks))
        for conditioner in (z, w, None)
        for c in blocks_of(space, conditioner).values()
    ]
    for _ in range(3):
        for v in (x, y, twin, z, w):
            support(space, v)
        for c in blocks:
            for v in (x, y, twin):
                history(space, c, v)
        for conditioner in (z, w, None):
            blocks_of(space, conditioner)
            structurally_independent(space, x, y, conditioner)
            structurally_independent(space, twin, y, conditioner)
            _CiQuery(space, x, y, conditioner)
    # The whole outcome set's ranks are never interned: its histories are
    # supports.
    assert len(hashes) == 4 + len(blocks)
    assert set(hashes.values()) == {1}
    # Interning an object finds the equal one interned before it, if any,
    # with one equality test: the twin finds x's table, and a block's ranks
    # the equal ranks blocks_of built.
    assert equalities[id(x.table)] == 1
    assert set(equalities.values()) == {1}
    assert space.intern(twin.table) is space.intern(x.table)


def test_interleaved_atoms_are_read_in_tensor_order():
    # z reads two factors with a free one between them, so a block of more
    # than one point of z's grid lists the grid first and the free factor
    # after it: its values are read out of rank order for the axis scan.
    rng = random.Random("interleaved-atoms")
    interleaved = 0
    for _ in range(30):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(3, 4))]
        space = make_space(*sizes)
        i = rng.randrange(space.factor_count - 2)
        j = rng.randrange(i + 2, space.factor_count)
        z = function_of(space, "z", [i, j], 2, rng)
        for c in blocks_of(space, z).values():
            read = history_module._factorize(space, c.ranks).read
            if tuple(read(range(space.outcome_count))) == c.ranks:
                continue
            interleaved += 1
            for k in range(8):
                ids = [f for f in range(space.factor_count) if rng.random() < 0.5]
                x = function_of(space, f"x{k}", ids, 3, rng)
                assert history(space, c, x).members() == tuple(
                    sorted(oracle_history(space, c, x))
                )
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
    # widths before any fold of a prefix projection; the bound leaves ample
    # room for a loaded machine.
    def no_prefix_fold(space, x, ids):
        raise AssertionError("the factorization folded a prefix projection")

    monkeypatch.setattr(history_module, "_fold_out", no_prefix_fold)
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_grid_block_entries_match_the_general_factorization(data):
    # Domains of size 1 put constant factors among those z reads and those
    # it leaves out.  "some" leaves out a factor of more than one value, so
    # z's blocks are lifted from its grid whenever z reads anything, and
    # its factors often have a left-out one between them.  "entangled"
    # reads a < b < c, and where z is 0 (a or c at 0, any b) a and c form
    # one atom with b free between them, so that grid block's tensor order
    # (a, c, b) is not its rank order.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    space = make_space(*sizes)
    n = space.factor_count
    free = [i for i, size in enumerate(sizes) if size > 1]
    rng = random.Random(data.draw(st.integers()))
    kinds = ["one", "all", "constant", "no z"]
    if free:
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
    xs = [
        function_of(space, f"x{k}", sorted(data.draw(st.sets(st.integers(0, n - 1)))), 3, rng)
        for k in range(2)
    ]
    xs.append(make_var(space, "r", 3, [rng.randrange(3) for _ in range(space.outcome_count)]))
    if z is not None:
        # A function of z and one factor reads z's factors, yet on a block
        # it varies along that factor alone: a scan in the wrong order
        # finds more.
        i = data.draw(st.integers(0, n - 1))
        h: dict[tuple[int, int], int] = {}
        table = [
            h.setdefault((v, outcome_unrank(space, r)[i]), rng.randrange(3))
            for r, v in enumerate(z.table)
        ]
        xs.append(make_var(space, "zx", 3, table))
    copy = make_space(*sizes)
    for c in blocks_of(space, z).values():
        entry = history_module._factorize(space, c.ranks)
        general = history_module._factorize(copy, c.ranks)
        assert copy.intern(c.ranks) not in copy._grids
        assert entry.trivial == general.trivial
        assert sorted(m for m, _, _ in entry.axes) == sorted(m for m, _, _ in general.axes)
        for x in xs:
            want = tuple(sorted(oracle_history(space, c, x)))
            assert history(space, c, x).members() == want
            assert history(copy, c, x).members() == want


def test_a_grid_block_out_of_rank_order_is_read_in_its_tensor_order():
    # Where z is 0 (u0 or u2 at 0, any u1), u0 and u2 form one atom with u1
    # free between them, so that grid block lists (u0, u2, u1), not rank
    # order; z leaves u3 out, so the block is lifted from its grid.
    space = make_space(3, 2, 3, 2)
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    z = make_var(space, "z", 3, [0 if o[0] == 0 or o[2] == 0 else 1 + o[1] for o in outcomes])
    block = blocks_of(space, z)["0"]
    grid, granks = space._grids[space.intern(block.ranks)]
    read = history_module._factorize(grid.space, granks).read
    assert tuple(read(range(grid.space.outcome_count))) != granks
    # x reads u0, u1 and u2, but where z is 0 it is u1.
    x = make_var(space, "x", 3, [o[1] if v == 0 else 2 for o, v in zip(outcomes, z.table)])
    assert history(space, block, x) == _ids(space, 1)
    rng = random.Random("grid-tensor-order")
    for i in range(space.factor_count):
        h: dict[tuple[int, int], int] = {}
        table = [h.setdefault((v, o[i]), rng.randrange(3)) for o, v in zip(outcomes, z.table)]
        y = make_var(space, "y", 3, table)
        for c in blocks_of(space, z).values():
            assert history(space, c, y).members() == tuple(sorted(oracle_history(space, c, y)))


def test_a_conditioner_reading_every_factor_builds_no_grid(monkeypatch):
    # A parity over every factor of more than one value, next to a factor
    # of one value: no grid space, no lifted entry, no support but z's.
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(space_module, "_grid_blocks", no_grid)
    space = make_space(2, 1, 3, 2)
    n = space.outcome_count
    z = make_var(space, "z", 2, [sum(outcome_unrank(space, r)) % 2 for r in range(n)])
    x = factor_var(space, 2)
    ch = conditional_history(space, x, z)
    assert structurally_independent(space, x, factor_var(space, 0), z).overlaps
    assert space._grids == {}
    assert list(space._supports) == [space.intern(z.table)]
    assert len(space._atoms) == 2
    for label, c in blocks_of(space, z).items():
        assert ch.per_block[label].members() == tuple(sorted(oracle_history(space, c, x)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_histories_on_lifted_blocks_match_subset_enumeration(data):
    # z reads some but not all of the factors of more than one value, so
    # its blocks are lifted from its grid; x reads none, some or all of
    # z's factors.  Reading none, its history is its support on every
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
    blocks = blocks_of(space, z).values()
    for c in blocks:
        want = tuple(sorted(oracle_history(space, c, x)))
        assert history(space, c, x).members() == want, (mode, x.table, z.table)
    if not support(space, x) & read:
        assert space._atoms == {}
        assert all(history(space, c, x).mask == support(space, x) for c in blocks)


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
    # Both queries are checked against the oracle on every block of z,
    # built on a fresh space so that the queries' space builds none.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    space = make_space(*sizes)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    factors = range(len(sizes))
    z_ids = sorted(data.draw(st.sets(st.sampled_from(factors), max_size=len(sizes) - 1)))
    k = data.draw(st.integers(1, 3))
    z = function_of(space, "z", z_ids, k, rng)
    z = make_var(space, "z", 2 * k, [2 * v for v in z.table])
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


def test_ci_verify_queries_off_the_conditioner_build_no_blocks(monkeypatch):
    # The ci-verify shape: X reads u0-u2, Y u3-u5, W u2 and u3, Z u6 and u7.
    # X and Y, and X and W, read none of Z's factors, so neither query
    # partitions Z, builds a grid or factorizes a block.
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(space_module, "_grid_blocks", no_grid)
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
    assert space._grids == {}
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
    """(space, ranks) of the blocks one drawn case factorizes.

    Domains of size 1 give constant factors, and domains up to 4 folds
    that shift by more than one value step.  "drawn" is a product of
    arbitrary subsets over a random grouping of the factors, "entangled"
    ties two factors with one between them (an atom that is not a run, so
    its tensor order is not rank order), "interleaved" has three atoms in
    any order around a one-value factor and a pinned one, and "grid" gives
    the grid blocks that _lift factorizes for a z that leaves a factor out.
    """
    kind = data.draw(
        st.sampled_from(["drawn", "single", "full", "entangled", "interleaved", "grid"])
    )
    if kind == "interleaved":
        return [_interleaved_block(data)]
    low = 3 if kind in ("entangled", "grid") else 1
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=low, max_size=4))
    n = len(sizes)
    if kind == "entangled":
        a, b, c = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=3, max_size=3)))
        sizes[a], sizes[c] = max(sizes[a], 2), max(sizes[c], 2)
    elif kind == "grid":
        ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
        left_out = data.draw(st.sampled_from([i for i in range(n) if i not in ids]))
        sizes[left_out] = max(sizes[left_out], 2)
    space = make_space(*sizes)
    if kind == "drawn":
        return [(space, _draw_block(data, space).ranks)]
    if kind == "single":
        return [(space, (data.draw(st.integers(0, space.outcome_count - 1)),))]
    if kind == "full":
        return [(space, full_block(space).ranks)]
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]
    if kind == "entangled":
        parity = data.draw(st.integers(0, 1))
        return [(space, tuple(r for r, o in enumerate(outcomes) if (o[a] + o[c]) % 2 == parity))]
    rng = random.Random(data.draw(st.integers()))
    z = function_of(space, "z", ids, data.draw(st.integers(2, 4)), rng)
    cases = []
    for c in blocks_of(space, z).values():
        grid = space._grids.get(space.intern(c.ranks))
        if grid is not None:
            history_module._factorize(space, c.ranks)
            grid, granks = grid
            cases.append((grid.space, granks))
    return cases


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bitset_factorization_matches_key_counts(data):
    for space, ranks in _factorizations(data):
        entry = history_module._factorize(space, ranks)
        copy = make_space(*(f.size for f in space.factors))
        want_trivial, want_axes, want_read = oracle_factorize(copy, ranks)
        assert space.intern(ranks) not in space._grids
        assert entry.trivial == want_trivial
        assert entry.axes == want_axes
        every = range(space.outcome_count)
        assert tuple(entry.read(every)) == tuple(want_read(every))


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
