"""Core space behaviour.

Claims covered here: mixed-radix outcome ranking with the last factor
fastest, rank/unrank inversion, per-factor digit tables, projection and
pair variables with injective joint labels, level-set
blocks partitioning the space, size caps (including the environment
override), validation messages and verdicts equal to the scans they
replace, the memory of checking large tables, and lossless document
round-trips.
"""

from __future__ import annotations

import importlib
import math
import random
import tracemalloc
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from facthist import (
    Block,
    Factor,
    FactoredSpace,
    FormatError,
    IndexSet,
    InvalidOutcomeError,
    InvalidRankError,
    RandomVariable,
    SpaceCapError,
    SpaceMismatchError,
    UnknownFactorError,
    blocks_of,
    conditional_history,
    disintegration_atoms,
    factor_var,
    fold_pair,
    full_block,
    history,
    is_rectangle,
    outcome_rank,
    outcome_unrank,
    pair_var,
    space_from_doc,
    space_to_doc,
    structurally_independent,
    support,
    trivial_var,
)
from facthist.distributions import _CiQuery
import facthist.space as space_module
from facthist.space import OUTCOME_CAP_ENV

from helpers import function_of, make_space, make_var, xor_bundle
from oracles import (
    oracle_fold_pair,
    oracle_history,
    oracle_range_error,
    oracle_stored_table,
    oracle_support,
    oracle_table_is_ints,
)

# The package re-exports the function history() under the module's name.
history_module = importlib.import_module("facthist.history")


def test_rank_is_mixed_radix_with_last_factor_fastest():
    space = make_space(2, 2)
    assert outcome_rank(space, (0, 0)) == 0
    assert outcome_rank(space, (0, 1)) == 1
    assert outcome_rank(space, (1, 0)) == 2
    assert outcome_rank(space, (1, 1)) == 3
    space23 = make_space(2, 3)
    assert outcome_rank(space23, (1, 2)) == 5
    assert outcome_unrank(space23, 4) == (1, 1)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_rank_unrank_roundtrip(sizes, data):
    space = make_space(*sizes)
    r = data.draw(st.integers(0, space.outcome_count - 1))
    assert outcome_rank(space, outcome_unrank(space, r)) == r


def test_rank_rejects_bad_outcomes():
    space = make_space(2, 2)
    with pytest.raises(InvalidOutcomeError):
        outcome_rank(space, (0,))
    with pytest.raises(InvalidOutcomeError):
        outcome_rank(space, (0, 2))
    with pytest.raises(InvalidRankError):
        outcome_unrank(space, 4)
    with pytest.raises(InvalidRankError):
        outcome_unrank(space, -1)


def test_factor_var_projects_coordinates():
    space = make_space(2, 3)
    u0 = factor_var(space, 0)
    u1 = factor_var(space, 1)
    assert u0.table == bytes([0, 0, 0, 1, 1, 1])
    assert u1.table == bytes([0, 1, 2, 0, 1, 2])
    assert u0.codomain == ("0", "1")
    with pytest.raises(UnknownFactorError):
        factor_var(space, 2)


def test_trivial_var_has_one_block_covering_everything():
    space = make_space(2, 3)
    z = trivial_var(space)
    blocks = blocks_of(space, z)
    assert list(blocks) == ["*"]
    assert blocks["*"].ranks == tuple(range(6))
    assert blocks["*"] == full_block(space)
    assert blocks_of(space) == blocks


def test_blocks_are_memoized_per_space_and_returned_fresh():
    rng = random.Random("blocks-memo")
    for _ in range(20):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        space = make_space(*sizes)
        n = space.outcome_count
        z = make_var(space, "z", 3, [rng.randrange(3) for _ in range(n)])
        for cond in (z, None):
            first = blocks_of(space, cond)
            # Equal to the blocks of a space with nothing memoized.
            assert first == blocks_of(make_space(*sizes), cond)
            first.pop(next(iter(first)))
            first["extra"] = full_block(space)
            again = blocks_of(space, cond)
            assert again == blocks_of(make_space(*sizes), cond)
            assert again is not blocks_of(space, cond)
        # An equal table under other labels names its own blocks.
        relabelled = RandomVariable(name="w", codomain=("a", "b", "c"), table=z.table)
        assert [c.label for c in blocks_of(space, relabelled).values()] == [
            "abc"[int(label)] for label in blocks_of(space, z)
        ]


def test_pair_var_attained_codomain():
    space, u0, u1, xor = xor_bundle()
    both = pair_var(space, u0, u1)
    assert len(both.codomain) == 4
    assert both.table == bytes([0, 1, 2, 3])
    same = pair_var(space, u0, u0)
    assert len(same.codomain) == 2
    const = make_var(space, "c", 1, [0, 0, 0, 0])
    with_const = pair_var(space, u0, const)
    assert len(with_const.codomain) == 2


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.data(),
)
def test_pair_var_recovers_components(sizes, data):
    space = make_space(*sizes)
    n = space.outcome_count
    kx = data.draw(st.integers(1, 3))
    ky = data.draw(st.integers(1, 3))
    x = make_var(space, "x", kx, data.draw(st.lists(st.integers(0, kx - 1), min_size=n, max_size=n)))
    y = make_var(space, "y", ky, data.draw(st.lists(st.integers(0, ky - 1), min_size=n, max_size=n)))
    xy = pair_var(space, x, y)
    # Equal pair values at two outcomes force equal component values.
    for r in range(n):
        for s in range(n):
            if xy.table[r] == xy.table[s]:
                assert x.table[r] == x.table[s]
                assert y.table[r] == y.table[s]


def _split_joint_label(label: str) -> list[str]:
    """Decode "(l1,...,lk)": split at unescaped commas, drop the escapes."""
    assert label[0] == "(" and label[-1] == ")"
    parts, cur, chars = [], [], iter(label[1:-1])
    for ch in chars:
        if ch == "\\":
            cur.append(next(chars))
        elif ch == ",":
            parts.append("".join(cur))
            cur = []
        else:
            assert ch not in "()", f"unescaped parenthesis in {label!r}"
            cur.append(ch)
    parts.append("".join(cur))
    return parts


LABELS = st.lists(st.text(alphabet="ab,()\\", max_size=4), min_size=1, max_size=3, unique=True)


@given(LABELS, LABELS, LABELS)
def test_joint_labels_are_injective(xs, ys, ws):
    # One factor per variable, so every label combination is attained.
    space = make_space(len(xs), len(ys), len(ws))
    x, y, w = (
        RandomVariable(name, tuple(labels), factor_var(space, i).table)
        for i, (name, labels) in enumerate((("x", xs), ("y", ys), ("w", ws)))
    )
    xy = pair_var(space, x, y)
    assert len(set(xy.codomain)) == len(xs) * len(ys)
    assert [_split_joint_label(c) for c in xy.codomain] == [[a, b] for a in xs for b in ys]
    xyw = fold_pair(space, [x, y, w])
    assert [_split_joint_label(c) for c in xyw.codomain] == [
        [a, b, c] for a in xs for b in ys for c in ws
    ]
    assert xyw.table == pair_var(space, xy, w).table
    nested = pair_var(space, xy, w).codomain
    assert len(set(nested)) == len(nested)


def test_pair_labels_with_commas_do_not_collide():
    space = make_space(2, 2)
    x = RandomVariable("x", ("p", "p,q"), factor_var(space, 0).table)
    y = RandomVariable("y", ("q,r", "r"), factor_var(space, 1).table)
    assert pair_var(space, x, y).codomain == (
        "(p,q\\,r)", "(p,r)", "(p\\,q,q\\,r)", "(p\\,q,r)",
    )


def test_digit_tables_match_the_mixed_radix_definition():
    # The last two hold a factor of 10**5 values at stride 1 and one of
    # 10**4 values at stride 10 between strides 10**5 and 1.
    for sizes in (
        (2, 3, 4), (3, 1, 2, 1), (1, 1), (1,), (5,), (2,) * 6, (10**5,), (3, 10**4, 10)
    ):
        space = make_space(*sizes)
        for i, size in enumerate(sizes):
            stride = space.stride(i)
            want = tuple((r // stride) % size for r in range(space.outcome_count))
            assert tuple(space.digits(i)) == want


def test_fold_plan_entries_are_built_on_first_use_from_the_definition():
    # Each entry is (size, 8 * stride, zero), where zero keeps exactly the
    # ranks whose coordinate is 0: for a one-value factor every rank, by
    # the mask -1.  Entries are built in any order and kept.
    space = make_space(3, 1, 2, 4)
    every = sum(1 << 8 * r for r in range(space.outcome_count))
    assert space._plan == [None] * 4
    for i in (2, 0, 3, 1):
        size, step, zero = entry = space.fold_axis(i)
        assert (size, step) == (space.factors[i].size, 8 * space.stride(i))
        want = sum(
            1 << 8 * r
            for r in range(space.outcome_count)
            if outcome_unrank(space, r)[i] == 0
        )
        assert zero & every == want
        assert space._plan[i] is entry and space.fold_axis(i) is entry
    assert space.fold_axis(1)[2] == -1
    with pytest.raises(UnknownFactorError):
        space.fold_axis(4)


@pytest.mark.parametrize("n", [1, 7, 300])
def test_images_of_bytes_and_tuple_tables_agree_at_both_lane_widths(n):
    # An eight-byte image of a bytes table is a strided copy and of any
    # other sequence a pack of every entry; both give lane r = entry r at
    # either width, and entries past 255 take eight-byte lanes whatever
    # the width asked.
    rng = random.Random(f"image:{n}")
    table = bytes(rng.randrange(256) for _ in range(n))
    for width in (1, 8):
        want = (sum(v << 8 * width * r for r, v in enumerate(table)), width)
        assert space_module._image(table, width) == want
        assert space_module._image(tuple(table), width) == want
    wide = tuple(v + 256 * (r % 2) for r, v in enumerate(table)) + (2**64 - 1,)
    want = (sum(v << 64 * r for r, v in enumerate(wide)), 8)
    assert space_module._image(wide) == want
    assert space_module._image(wide, 8) == want


def test_factor_columns_are_stored_tables_handed_over_as_they_are():
    # A column is bytes up to 256 values and a tuple past that, as
    # RandomVariable stores a table, so factor_var passes the memoized
    # column itself on every call.
    for sizes in ((2, 3, 4), (256, 2), (257,), (10**5,)):
        space = make_space(*sizes)
        for i, size in enumerate(sizes):
            assert type(space.digits(i)) is (bytes if size <= 256 else tuple)
            assert space.digits(i) is space.digits(i)
            assert factor_var(space, i).table is factor_var(space, i).table
            assert factor_var(space, i).table is space.digits(i)
    # At 2**18 binary outcomes one call holds the 0.26 MB column, not an
    # eight-byte tuple slot per entry beside a bytes copy (2.3 MB).
    space = make_space(*[2] * 18)
    tracemalloc.start()
    try:
        var = factor_var(space, 0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert var.table == bytes(2**17) + b"\1" * 2**17
    assert held <= 0.4e6


def test_factor_var_is_built_once_per_space(monkeypatch):
    # The variable is memoized on the space, so a repeat call hands back the
    # same object and runs no RandomVariable range check over the column.
    built = []

    def counting(*args, **kwargs):
        built.append(RandomVariable(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(space_module, "RandomVariable", counting)
    space = make_space(2, 3, 257)
    for i, f in enumerate(space.factors):
        var = factor_var(space, i)
        assert factor_var(space, i) is var
        assert (var.name, var.codomain, var.table) == (f.name, f.domain, space.digits(i))
    assert len(built) == 3
    for bad in (-1, 3):
        with pytest.raises(UnknownFactorError):
            factor_var(space, bad)
    # Another space, even of the same shape, builds its own.
    assert factor_var(make_space(2, 3, 257), 0) is not factor_var(space, 0)
    assert len(built) == 4


# Codomain labels for values up to 2**16 + 1.
_LABELS = tuple(map(str, range(2**16 + 2)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_support_matches_cell_comparisons(data):
    # Sizes of 1 give one-value axes, and a one-outcome space a tensor of
    # length 1.  A shift moves the values to 255..257 or 65535..65537, past
    # one byte, so the image takes eight-byte lanes whenever a value is 256
    # or more.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    space = make_space(*sizes)
    n = space.outcome_count
    k = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        table = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    else:
        ids = data.draw(st.sets(st.integers(0, space.factor_count - 1)))
        rng = random.Random(data.draw(st.integers()))
        table = function_of(space, "x", sorted(ids), k, rng).table
    shift = data.draw(st.sampled_from([0, 255, 2**16 - 1]))
    x = RandomVariable("x", _LABELS[: shift + k], tuple(v + shift for v in table))
    want = sum(1 << i for i in oracle_support(space, x))
    assert support(space, x) == want
    # On the full block, a product, the history is the support.
    omega = full_block(space)
    assert oracle_history(space, omega, x) == oracle_support(space, x)
    got = IndexSet(want, space.factor_count)
    assert history(space, omega, x) == got
    assert conditional_history(space, x).per_block == {"*": got}
    # Memoized by table: an equal table under another name reads the one
    # entry, filed under the first object.
    assert space._supports == {x.table: (want, got)}
    twin = RandomVariable("twin", x.codomain, tuple(list(x.table)))
    assert twin.table is not x.table
    assert support(space, twin) == want
    assert list(space._supports) == [x.table]
    assert next(iter(space._supports)) is x.table


def test_equal_tuple_tables_share_memo_entries():
    # Tables of values past one byte stay tuples: an equal tuple in another
    # object finds the entries of the first, and an unequal one does not.
    space = make_space(2, 2)
    labels = tuple(map(str, range(300)))
    a, b, c = (0, 299, 299, 0), tuple([0, 299, 299, 0]), (299, 299, 0, 0)
    xa, xb, xc = (RandomVariable(n, labels, t) for n, t in zip("abc", (a, b, c)))
    assert xa.table is a and xb.table is b and a is not b
    for x in (xa, xb, xc):
        support(space, x)
        blocks_of(space, x)
        conditional_history(space, factor_var(space, 0), x)
    assert [key for key in space._supports if type(key) is tuple] == [a, c]
    assert next(iter(space._supports)) is a
    assert [key for key, _ in space._blocks] == [a, c]
    # Each block of a tuple conditioner is keyed by its ranks.
    assert list(space._histories) == [(0, 3), (1, 2), (2, 3), (0, 1)]


def test_tables_are_stored_as_bytes_or_tuples():
    # A space keys its memos by table, so a list table, which cannot be
    # hashed, must not reach it: entries that fit a byte are stored as
    # bytes, others as a tuple.
    space = make_space(2, 2, 2)
    z = RandomVariable(name="z", codomain=("0", "1"), table=[0, 1] * 4)
    x = RandomVariable(name="x", codomain=("0", "1"), table=[0] * 4 + [1] * 4)
    assert type(z.table) is bytes and z == make_var(space, "z", 2, z.table)
    assert support(space, z) == 0b100  # bit i is factor i; z reads u2
    assert [history(space, c, x) for c in blocks_of(space, z).values()] == [
        IndexSet(0b001, 3)
    ] * 2
    w = RandomVariable(name="w", codomain=tuple(map(str, range(300))), table=[0, 299] * 4)
    assert type(w.table) is tuple and w.table == (0, 299) * 4
    assert support(space, w) == 0b100


# Monotone labels of the values 0..3 past one byte, as codomain indices.
_WIDE = (0, 1, 256, 299)


def _observed(x: RandomVariable, sizes, y: RandomVariable, w: RandomVariable, vecs):
    """Every answer that reads x's table, on a fresh space: x's support and
    blocks, the histories and verdicts with x in each role, and the cell
    sums of the CI queries with x as a variable and as the conditioner."""
    space = make_space(*sizes)
    z_blocks = blocks_of(space, w).values()
    x_blocks = blocks_of(space, x)
    return (
        support(space, x),
        x_blocks,
        [history(space, c, x) for c in z_blocks],
        [history(space, c, y) for c in x_blocks.values()],
        structurally_independent(space, x, y, w),
        structurally_independent(space, y, w, x),
        _CiQuery(space, x, y, w).cell_sums(vecs),
        _CiQuery(space, y, w, x).cell_sums(vecs),
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tables_in_every_form_give_the_same_answers(data):
    # One table as bytes, tuple, list and generator, and again with its
    # values moved past one byte (no bytes form): every form is stored
    # alike, shares one memo entry, and every answer equals that of the
    # first form.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    space = make_space(*sizes)
    n = space.outcome_count
    table = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    rng = random.Random(data.draw(st.integers()))
    ids = range(space.factor_count)
    y = function_of(space, "y", sorted(rng.sample(ids, rng.randint(0, len(ids)))), 3, rng)
    w = function_of(space, "w", sorted(rng.sample(ids, rng.randint(0, len(ids)))), 2, rng)
    vecs = [[rng.randint(1, 9) for _ in range(size)] for size in sizes]
    wide_labels = [f"w{v}" for v in range(300)]
    for v in range(4):
        wide_labels[_WIDE[v]] = str(v)
    groups = [
        (("0", "1", "2", "3"), table, bytes),
        (tuple(wide_labels), [_WIDE[v] for v in table], bytes if max(table) < 2 else tuple),
    ]
    answers = None
    for codomain, values, kind in groups:
        forms = [tuple(values), list(values), iter(values)]
        if kind is bytes:
            forms.append(bytes(values))
        xs = [RandomVariable("x", codomain, form) for form in forms]
        assert all(type(x.table) is kind and x == xs[0] for x in xs)
        shared = make_space(*sizes)
        for x in xs:
            support(shared, x)
        assert len(shared._supports) == 1
        for x in xs:
            got = _observed(x, sizes, y, w, vecs)
            answers = answers or got
            assert got == answers


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_blocks_on_the_support_grid_are_the_level_sets(data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    space = make_space(*sizes)
    ids = data.draw(st.sets(st.integers(0, space.factor_count - 1)))
    z = function_of(space, "z", sorted(ids), 3, random.Random(data.draw(st.integers())))
    want: dict[int, list[int]] = {}
    for r, v in enumerate(z.table):
        want.setdefault(v, []).append(r)
    blocks = blocks_of(space, z)
    assert {label: c.ranks for label, c in blocks.items()} == {
        z.codomain[v]: tuple(want[v]) for v in sorted(want)
    }
    # The history module's level sets are the same blocks, as bitsets.
    level_sets = history_module._level_sets(space, z)
    assert [(label, bits()) for label, _, bits in level_sets] == [
        (label, history_module._bitset(space, c.ranks)) for label, c in blocks.items()
    ]


def test_blocks_partition_and_keys_are_attained():
    space, u0, u1, xor = xor_bundle()
    blocks = blocks_of(space, xor)
    assert blocks["0"].ranks == (0, 3)
    assert blocks["1"].ranks == (1, 2)
    partial = make_var(space, "p", 3, [0, 0, 2, 2])
    keys = list(blocks_of(space, partial))
    assert keys == ["0", "2"]


def test_fold_pair_empty_is_trivial():
    space = make_space(2, 2)
    assert fold_pair(space, []).codomain == ("*",)
    u0 = factor_var(space, 0)
    assert fold_pair(space, [u0]) is u0


def test_index_set_operations():
    a = IndexSet.of([0, 2], 4)
    b = IndexSet.of([1, 2], 4)
    assert (a | b).members() == (0, 1, 2)
    assert (a & b).members() == (2,)
    assert (a - b).members() == (0,)
    assert a.complement().members() == (1, 3)
    assert len(a) == 2 and 2 in a and 1 not in a
    assert IndexSet.empty(4).issubset(a)
    assert not a.issubset(b)
    assert a.isdisjoint(IndexSet.of([1, 3], 4))
    with pytest.raises(ValueError):
        IndexSet(mask=16, size=4)
    with pytest.raises(ValueError):
        IndexSet.of([4], 4)
    with pytest.raises(ValueError):
        a | IndexSet.empty(3)


def test_outcome_cap_enforced_and_overridable(monkeypatch):
    with pytest.raises(SpaceCapError):
        make_space(101, 101, max_outcomes=10_000)
    monkeypatch.setenv(OUTCOME_CAP_ENV, "5000")
    with pytest.raises(SpaceCapError):
        make_space(101, 101)
    monkeypatch.setenv(OUTCOME_CAP_ENV, "20000")
    assert make_space(101, 101).outcome_count == 10201
    monkeypatch.setenv(OUTCOME_CAP_ENV, "bogus")
    with pytest.raises(FormatError):
        make_space(2, 2)


def test_factor_count_cap():
    factors = [Factor(f"u{i}", ("0", "1")) for i in range(21)]
    with pytest.raises(SpaceCapError):
        FactoredSpace(factors)
    assert FactoredSpace(factors, max_factors=21, max_outcomes=2**21).factor_count == 21


def test_validation_of_building_blocks():
    with pytest.raises(ValueError):
        Factor("", ("0",))
    with pytest.raises(ValueError):
        Factor("u", ())
    with pytest.raises(ValueError):
        Factor("u", ("0", "0"))
    with pytest.raises(ValueError):
        make_var(make_space(2), "x", 2, [0, 2])
    with pytest.raises(ValueError):
        Block(label="b", ranks=())
    with pytest.raises(ValueError):
        Block(label="b", ranks=(2, 1))
    with pytest.raises(ValueError):
        FactoredSpace([])
    with pytest.raises(ValueError):
        FactoredSpace([Factor("u", ("0",)), Factor("u", ("0",))])


@pytest.mark.parametrize(
    "name, codomain, message",
    [
        ("", ("0", "1"), "variable name must be a non-empty string"),
        ("x", (), "variable 'x' must have a non-empty codomain"),
        ("x", ("a", "b", "a"), "variable 'x' has duplicate codomain labels"),
    ],
)
def test_variable_names_and_codomains_are_checked(name, codomain, message):
    for table in ((0, 1), bytes((0, 1)), [0, 1]):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RandomVariable(name=name, codomain=codomain, table=table)


@pytest.mark.parametrize("ranks", [(1, 1), (0, 2, 2), (2, 1), (0, 3, 1), (0, 1, 2, 0)])
def test_block_ranks_must_strictly_increase(ranks):
    with pytest.raises(ValueError, match=r"^block 'b' ranks must be strictly increasing$"):
        Block(label="b", ranks=ranks)


@pytest.mark.parametrize("ranks", [(-1, 0), (-1,), (-3, -2, 4)])
def test_block_ranks_must_be_non_negative(ranks):
    # A negative rank would read its table from the end.
    with pytest.raises(ValueError, match=r"^block 'b' ranks must be non-negative$"):
        Block(label="b", ranks=ranks)


def test_block_ranks_of_any_sequence_give_the_same_answers():
    # On 2x3: a row (u0 constant), a column (u1 constant), a diagonal (one
    # atom of both factors) and an L of three outcomes.  Each form of the
    # ranks gets a fresh space, so no memo is shared between them.
    class Ranks(tuple):
        pass

    for members in (range(3), range(0, 6, 3), range(0, 5, 4), range(1, 6, 2)):
        answers = []
        for form in (list, tuple, lambda m: m):
            space = make_space(2, 3)
            block = Block(label="b", ranks=form(members))
            assert type(block.ranks) is tuple and block.ranks == tuple(members)
            x = make_var(space, "x", 3, (0, 1, 2, 1, 2, 0))
            answers.append(
                (
                    [history(space, block, v) for v in (factor_var(space, 0), x)],
                    disintegration_atoms(space, block),
                    [is_rectangle(space, block, IndexSet(m, 2)) for m in range(4)],
                )
            )
        assert answers[0] == answers[1] == answers[2]
    kept = Ranks((0, 4))
    assert Block(label="b", ranks=kept).ranks is kept


@pytest.mark.parametrize(
    "table, bad", [((0, 3, -1), 3), ((0, -1, 3), -1), ((1, 1, 2), 2), ((-5,), -5)]
)
def test_table_range_error_names_the_first_bad_entry(table, bad):
    message = rf"^variable 'x' table entry {bad} outside codomain of 2$"
    with pytest.raises(ValueError, match=message):
        RandomVariable(name="x", codomain=("0", "1"), table=table)


def test_space_mismatch_detected():
    space = make_space(2, 2)
    other = make_var(make_space(2, 3), "x", 2, [0] * 6)
    with pytest.raises(SpaceMismatchError):
        blocks_of(space, other)


def test_space_doc_roundtrip():
    space, u0, u1, xor = xor_bundle()
    doc = space_to_doc(space, {"XOR": xor, "U0": u0})
    space2, variables = space_from_doc(doc)
    assert [f.name for f in space2.factors] == ["u0", "u1"]
    assert variables["XOR"].table == xor.table
    assert variables["XOR"].name == "XOR"
    assert space_to_doc(space2, variables) == doc


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"factors": []},
        {"factors": [{"name": "u", "domain": []}]},
        {"factors": [{"name": 3, "domain": ["0"]}]},
        {"factors": [{"name": "u", "domain": ["0", "1"]}], "variables": {"x": {}}},
        {
            "factors": [{"name": "u", "domain": ["0", "1"]}],
            "variables": {"x": {"codomain": ["a"], "table": [0]}},
        },
        {
            "factors": [{"name": "u", "domain": ["0", "1"]}],
            "variables": {"x": {"codomain": ["a"], "table": [0, 1]}},
        },
    ],
)
def test_space_doc_rejects_malformed(doc):
    with pytest.raises(FormatError):
        space_from_doc(doc)


@pytest.mark.parametrize(
    "k, table",
    [
        (256, (0, 255)),
        (256, (0, 256)),
        (257, (256, 0)),
        (300, (299, 255, 0)),
        (300, (0, 300)),
        (2, (True, False)),
        (2, (1.0, 0.5)),
        (2, (0, 2.5, -1)),
        (1, ()),
    ],
)
def test_range_check_at_byte_and_type_edges(k, table):
    _assert_range_check(k, table)


def _assert_range_check(k, table):
    want = oracle_range_error("x", k, table)
    codomain = tuple(map(str, range(k)))
    if want is None:
        stored = RandomVariable("x", codomain, table).table
        expected = oracle_stored_table(table)
        assert type(stored) is type(expected) and stored == expected
    else:
        with pytest.raises(ValueError) as err:
            RandomVariable("x", codomain, table)
        assert str(err.value) == want


WILD_ENTRIES = st.integers(-3, 300) | st.booleans() | st.floats(-3, 300)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.data())
def test_range_check_matches_the_min_max_scan(k, data):
    # Entries in range, with up to two drawn from anywhere around them.
    table = data.draw(st.lists(st.integers(0, k - 1), max_size=40))
    for _ in range(data.draw(st.integers(0, 2))):
        table.insert(data.draw(st.integers(0, len(table))), data.draw(WILD_ENTRIES))
    _assert_range_check(k, tuple(table))


class Level(IntEnum):
    LOW = 0
    HIGH = 1
    WIDE = 5


MIXED_ENTRIES = st.sampled_from(
    [0, 1, 2, -1, True, False, 1.0, 0.5, "1", None, Level.LOW, Level.HIGH, Level.WIDE]
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_space_doc_tables_match_the_type_and_range_scans(data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n, k = math.prod(sizes), data.draw(st.integers(1, 3))
    table = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    for _ in range(data.draw(st.integers(0, 3))):
        table[data.draw(st.integers(0, n - 1))] = data.draw(MIXED_ENTRIES)
    doc = {
        "factors": [
            {"name": f"u{i}", "domain": [str(v) for v in range(size)]}
            for i, size in enumerate(sizes)
        ],
        "variables": {"x": {"codomain": [str(v) for v in range(k)], "table": table}},
    }
    if not oracle_table_is_ints(table):
        want = "variables['x'].table must be a list of integers"
    else:
        want = oracle_range_error("x", k, table)
    if want is None:
        stored = space_from_doc(doc)[1]["x"].table
        assert type(stored) is bytes and stored == oracle_stored_table(table)
    else:
        with pytest.raises(FormatError) as err:
            space_from_doc(doc)
        assert str(err.value) == want


def escaped_labels(size):
    return st.lists(
        st.text(alphabet="a\\,()", max_size=3), min_size=size, max_size=size, unique=True
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fold_pair_matches_value_tuple_keys(data):
    # One variable may take up to 20 labels, so the product of the codomain
    # sizes crosses 256, where the keys no longer fit in a byte.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    space = make_space(*sizes)
    n = space.outcome_count
    count = data.draw(st.integers(1, 4))
    wide = data.draw(st.integers(0, count - 1))
    xs = []
    for i in range(count):
        size = data.draw(st.integers(1, 20 if i == wide else 4))
        labels = data.draw(escaped_labels(size))
        table = data.draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n))
        xs.append(RandomVariable(f"x{i}", tuple(labels), table))
    got = fold_pair(space, xs)
    if len(xs) == 1:
        assert got is xs[0]
    else:
        assert got == oracle_fold_pair(space, xs)


@pytest.mark.parametrize("sizes", [(16, 16), (257, 1), (1, 257)])
def test_fold_pair_at_256_and_257_keys(sizes):
    # Codomain products of 256 and 257: each outcome takes a distinct key,
    # the largest (255 or 256) included, in a shuffled order.
    n = math.prod(sizes)
    keys = random.Random(n).sample(range(n), n)
    xs = [
        RandomVariable(
            f"x{i}",
            tuple(f"v{k}" for k in range(size)),
            [key // math.prod(sizes[i + 1 :]) % size for key in keys],
        )
        for i, size in enumerate(sizes)
    ]
    space = make_space(n)
    got = fold_pair(space, xs)
    assert len(got.codomain) == n
    assert got == oracle_fold_pair(space, xs)


def _traced_peak(build):
    """The peak of memory traced while build() ran, in bytes."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checking_a_large_table_copies_it_once():
    table = tuple(r % 3 for r in range(2**20))
    assert _traced_peak(lambda: RandomVariable("x", ("a", "b", "c"), table)) < 3 * 2**20


def test_checking_an_injective_table_costs_no_more_than_its_codomain():
    # Entries past 255 fall back to min and max, which allocate nothing, so
    # the peak (about 48 MiB) is the set that checks the 10**6 labels are
    # distinct.
    n = 10**6
    codomain = tuple(map(str, range(n)))
    table = tuple(range(n))
    labels = _traced_peak(lambda: set(codomain))
    assert _traced_peak(lambda: RandomVariable("x", codomain, table)) <= labels + 2**16
