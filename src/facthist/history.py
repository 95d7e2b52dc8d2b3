"""Generation, conditional histories, and structural independence.

A subset J of factor indices *generates* a variable x on a block C when two
conditions hold:

* determination: outcomes in C with equal J-coordinates agree on x, and
* rectangle: C equals the recombination of its J-projections with its
  complementary projections, i.e. |C| = |proj_J(C)| * |proj_Jbar(C)|.

The counting form of the rectangle test is exact, not a heuristic: distinct
outcomes of C have distinct (proj_J, proj_Jbar) pairs, and those pairs always
lie inside the projection product, so equality of counts says every cross
pair is attained.

Both conditions are bit counts of rank bitsets (see the atoms below): C
folded along the factors outside J holds one rank per J-projection.  The
rectangle test compares the counts of C folded along Jbar and along J
with |C|.  Determination goes bit by bit through x's values: J determines
x iff, for each bit, the ranks of C where it is 0 and those where it is 1,
folded along Jbar, share no rank.  Two folds per bit, with one pair of
bitsets held at a time, keep it O(|Omega|) bytes however many values x
takes.  The law suites' mask loops fold the same bitsets along every mask.

The rectangle sets of C form a field of factor sets.  Its *atoms* (minimal
non-empty members, once the factors constant on C are set aside as the
trivial part) partition the non-constant factors, and every rectangle set is
a union of atoms plus any part of the trivial part.  Generating sets are
closed under intersection, so there is a unique subset-minimal one, the
*history* of x given C.  It is a rectangle set without constant factors,
hence a union of atoms, and an atom A lies inside it exactly when the
factors outside A fail to determine x: that complement is itself a
rectangle set, so if it determines x it generates x and contains the
history.

history() reads that test off a tensor, with no hashing.  Order the atoms
A_1..A_m by lowest factor.  C is the product of their projections times the
one point of the trivial part: from any outcome of C, swapping in any
A_1-projection of C keeps it in C (A_1 is a rectangle set), then any
A_2-projection, and so on, so every combination is attained.  List each
proj_{A_i}(C) in increasing key order; C becomes a tensor whose axis i has
size s_i = |proj_{A_i}(C)| and the product of the later sizes as stride,
and x's values in that order are a tensor t.  Two outcomes of C agree
outside A_i exactly when their tensor positions differ only on axis i, so
the A_i-classes are the lines along axis i, and the factors outside A_i
determine x exactly when t is constant along axis i.  That is one test on
t's image (space._image), an int with one lane per entry, one byte wide
when every value is below 256 and eight bytes otherwise: t is constant
along the axis exactly when every entry whose axis coordinate is below
s_i - 1 equals the entry one stride further, i.e. when
(img ^ img >> 8 * width * stride) & below_top is zero, where below_top
sets every lane of such an entry (space._varies).  space._scan builds
the image once per scan and tests every axis; the below-top mask of each
axis and lane width is built once per block, and each test is three
C-level big-int operations, whatever the axis.
The factorization memoizes one itemgetter that reads C's values off a
table in tensor order.  When every atom is a run of consecutive free
factors, rank order is already tensor order (ranks compare
lexicographically, factor by factor), so it reads C's ranks as they are.
On the full outcome set every factor of more than one value is an atom of
its own and rank order is tensor order, so the tensor is the variable's
whole table on the space's own axes (space._axes), and its history is its
support (space.support, one _scan of the table).  history() returns the
support there without factorizing the block or interning its ranks; the
CI queries of the distributions module read their factors the same way.

A level-set block of z is its grid block times the unread factors.  z reads
only the factors of its support S, so every block C of z is G x Omega_R,
where G is the block of z on the grid Omega_S (space.Grid) and R holds the
factors of more than one value outside S.  A set of factors is a rectangle
of C exactly when its part in S is a rectangle of G, so the atoms of C are
those of G, lifted to the full factor ids, plus one singleton atom per
factor of R; the trivial part is G's plus the factors of one value.
blocks_of records each grid block, and the factorization of C is then the
ordinary one of G on the grid space (_lift): a pass over |G| ranks of |S|
factors instead of |C| ranks of all of them, with no full-length coordinate
table.  Its tensor lists G in G's tensor order and, under each point of G,
the assignments of R in rank order, so one itemgetter of full ranks reads
it.  A history there skips each atom x's table does not vary along at all,
found from x's support: two outcomes that differ only in such an atom agree
on x.  When x's support holds none of the grid's factors, its history on C
is its support, and history() returns it before any factorization lookup,
read of C's values or below-top mask.  Proof: x varies along no atom of G,
and along a factor k of R it varies on C exactly when it does on Omega,
since C holds every assignment of R under each point of G and x reads no
coordinate of that point.  So when neither x nor y reads a factor of z,
structurally_independent and conditional_history (_history_off) answer
from the supports alone and never build z's blocks: the histories are the
same on every block, and z's attained values label the blocks.  When z
reads every factor of more than one value, its blocks are factorized
directly, as is any block not made by blocks_of other than the whole
outcome set.

The atoms are built one factor at a time, and every projection is counted
on bitsets.  A set of ranks is an int whose byte r is 1 for each member r
(space.zero_bits).  Folding it along factor i, the OR over v < size(i) of
X >> 8 * v * stride(i) kept to the ranks where i is 0, sets coordinate i of
every rank to 0 (_fold; the OR doubles its run of shifts, so a fold is
O(log size(i)) shifts).  Folding C along the free factors outside J leaves
one rank per J-projection, so |proj_J(C)| is the result's bit count.  The
width |proj_k(C)| of every factor comes from one pass down the factors
(_widths): C folded along the factors before k lies below k's period, where
the factors after k fold as one factor of stride 1.  The projections on
the prefixes S = free[:i] are C folded along free[i:], built from the last
free factor down the first time a step needs one and shared by the later
steps.  A factor constant on C joins the trivial part.  Otherwise factor k
joins the factors seen so far, S, whose atoms are already known:

* Product exit: if |proj_S(C)| times the widths |proj_j(C)| of k and every
  later free factor j equals |C|, C is proj_S(C) times those projections,
  so each of them is an atom on its own and the loop ends with no further
  fold.  The full block of any product space (unconditional atoms) ends
  here at the first free factor.
* Product shortcut: if |proj_{S+k}(C)| = |proj_S(C)| * |proj_k(C)|, the
  projection is a product with a factor k, so {k} is a new atom and the
  atoms of S are unchanged.
* Merge rule: otherwise {k} absorbs exactly those atoms A of S for which
  |proj_A| * |proj_{S+k minus A}| != |proj_{S+k}|, and the other atoms stay.
  The second count folds A's factors out of the prefix projection on S+k,
  and the grown atom's count is |proj_{S+k}| over the kept atoms' counts,
  since proj_{S+k}(C) is the product of its atoms' projections.

Proof sketch: projecting away k maps a rectangle of proj_{S+k}(C) to a
rectangle of proj_S(C), so every new atom is a union of old atoms plus
perhaps k.  An old atom A inside a new atom D that avoids k is a rectangle
of proj_S(C), so proj_D splits as proj_A times proj_{D minus A} and A is a
rectangle of proj_{S+k}(C) as well; minimality of D gives D = A.  Only the
atom of k can grow, and it grows by the old atoms that are no longer
rectangles, which is what the count test detects.

Each non-constant factor costs at most one prefix fold plus, when the
shortcut fails, one fold per factor of the atoms it tests, so factorizing a
block of n factors costs O(n^2) folds of O(|Omega|) bytes, each a few
C-level big-int shifts, ORs and ANDs, plus the widths pass, whose ints
shrink as it goes; transient memory is O(n * |Omega|) bytes, and the space
memoizes one O(|Omega|)-byte mask per factor.  When an atom A is not a
run of consecutive free factors, C folded along the free factors outside A
lists proj_A(C) in increasing key order, and C's ranks in tensor order are
the grid sums of those lists (at most n more folds per atom).  A history
costs one image of |C| values and one axis test per atom on top, and the
first history on a block builds one below-top mask of |C| lanes per atom.
The result (a Factorization: trivial mask, one axis (mask, size, stride)
per atom in tensor order, and the tensor-order itemgetter; no key lists
or bitsets) is memoized on the FactoredSpace under the record of the
block's ranks (space.intern: one hash the first time a ranks object is
seen, an id() lookup after that), because independence checks,
verification and the law suites ask for several histories per block.
The same entry memoizes each history (an immutable IndexSet, returned as
it is), keyed by the record of the variable's table, and the below-top
mask of each axis per lane width.
Tables are interned by value, so variables with equal tables share a
history whatever their names, and a repeated question (verify asks
structurally_independent once itself and once more through
verify_soundness or find_witness) costs two id() lookups and no read of
the block's values.  A variable constant on the block has the
empty history, found by the same read with no scan.

The *conditional history* maps every attained value of a conditioning
variable z to the history on that block.  Two variables are *structurally
independent* given z when their histories are disjoint on every block; this
is exactly conditional independence under every product distribution over
the factors (soundness and completeness are exercised end to end by the
verification suites and the acceptance tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InvariantViolationError
from .space import (
    TRIVIAL_LABEL,
    TRIVIAL_NAME,
    Axis,
    Block,
    FactoredSpace,
    Grid,
    IndexSet,
    RandomVariable,
    Record,
    _grid_sum,
    _scan,
    blocks_of,
    ensure_block,
    ensure_on_space,
    support,
)

__all__ = [
    "ConditionalHistory",
    "IndependenceVerdict",
    "DisintegrationAtoms",
    "is_rectangle",
    "determines",
    "generates",
    "history",
    "conditional_history",
    "structurally_independent",
    "disintegration_atoms",
    "structural_time_leq",
]


@dataclass(frozen=True)
class ConditionalHistory:
    """History of one variable on every block of a conditioning variable."""

    variable: str
    given: str
    per_block: Mapping[str, IndexSet]


@dataclass(frozen=True)
class IndependenceVerdict:
    """Structural independence verdict with the per-block history overlaps.

    ``overlaps`` holds only the blocks whose histories intersect, so the
    verdict is affirmative exactly when the mapping is empty.
    """

    independent: bool
    overlaps: Mapping[str, IndexSet]


@dataclass(frozen=True)
class DisintegrationAtoms:
    """Finest splitting of a block: atoms partition the non-constant factors."""

    atoms: tuple[IndexSet, ...]
    trivial_part: IndexSet


Picker = Callable[[Sequence[int]], Sequence[int]]


def _picker(ranks: Sequence[int]) -> Picker:
    """An itemgetter that reads a table at these positions, in order.

    itemgetter returns a bare item for one key, so one position becomes a
    one-item slice, and none an empty slice: the result is always a
    sequence (a tuple, or a slice of the table).
    """
    if not ranks:
        return itemgetter(slice(0, 0))
    if len(ranks) == 1:
        return itemgetter(slice(ranks[0], ranks[0] + 1))
    return itemgetter(*ranks)


def _bitset(space: FactoredSpace, ranks: Iterable[int]) -> int:
    """The rank bitset of these ranks: byte r is 1 for each of them."""
    flags = bytearray(space.outcome_count)
    for r in ranks:
        flags[r] = 1
    return int.from_bytes(flags, "little")


def _fold_out(space: FactoredSpace, x: int, ids: Sequence[int]) -> int:
    """The rank bitset x folded along every factor in ids (see _fold)."""
    for k in ids:
        size = space.factors[k].size
        if size > 1:
            x = _fold(x, size, 8 * space._strides[k], space.zero_bits(k))
    return x


def _mask_folds(space: FactoredSpace, bits: int) -> list[int]:
    """The rank bitset folded along the factors of each mask, by mask."""
    folds = [bits]
    for mask in range(1, 1 << space.factor_count):
        low = mask & -mask  # mask is mask ^ low folded along this factor
        folds.append(_fold_out(space, folds[mask ^ low], (low.bit_length() - 1,)))
    return folds


def _value_planes(
    space: FactoredSpace, block: int, ranks: Sequence[int], table: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """The block's ranks where each bit of the table's values is 0 and 1."""
    values = [table[r] for r in ranks]
    for b in range(max(values).bit_length()):
        ones = _bitset(space, compress(ranks, map((1 << b).__and__, values)))
        if ones and ones != block:
            yield block ^ ones, ones


def _checked_bitset(
    space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable | None = None
) -> int:
    ensure_block(space, c)
    if x is not None:
        ensure_on_space(space, x)
    if j.size != space.factor_count:
        raise ValueError("index set universe does not match the space")
    return _bitset(space, c.ranks)


def _rectangle(space: FactoredSpace, block: int, j: IndexSet, count: int) -> bool:
    """Is |proj_J| * |proj_Jbar| = count, for the block with this bitset?"""
    on_j = _fold_out(space, block, j.complement().members())
    return on_j.bit_count() * _fold_out(space, block, j.members()).bit_count() == count


def _determined(
    space: FactoredSpace, block: int, j: IndexSet, c: Block, x: RandomVariable
) -> bool:
    """Do x's bit planes on C stay apart when folded along Jbar?"""
    outside = j.complement().members()
    return not any(
        _fold_out(space, zeros, outside) & _fold_out(space, ones, outside)
        for zeros, ones in _value_planes(space, block, c.ranks, x.table)
    )


def is_rectangle(space: FactoredSpace, c: Block, j: IndexSet) -> bool:
    """Does C recombine as proj_J(C) x proj_Jbar(C)?"""
    return _rectangle(space, _checked_bitset(space, c, j), j, len(c))


def determines(space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable) -> bool:
    """Do equal J-coordinates force equal x-values on C?"""
    return _determined(space, _checked_bitset(space, c, j, x), j, c, x)


def generates(space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable) -> bool:
    """is_rectangle and determines, on one bitset of C."""
    block = _checked_bitset(space, c, j, x)
    return _rectangle(space, block, j, len(c)) and _determined(space, block, j, c, x)


def _rectangle_masks(space: FactoredSpace, c: Block) -> list[bool]:
    """Is C a J-rectangle, for every factor mask J?"""
    on = _mask_folds(space, _bitset(space, c.ranks))
    return [a.bit_count() * b.bit_count() == len(c) for a, b in zip(reversed(on), on)]


def _determining_masks(space: FactoredSpace, c: Block, x: RandomVariable) -> list[bool]:
    """Does J determine x on C, for every factor mask J?"""
    clash = [False] * (1 << space.factor_count)  # by the mask folded along
    for zeros, ones in _value_planes(space, _bitset(space, c.ranks), c.ranks, x.table):
        folds = zip(_mask_folds(space, zeros), _mask_folds(space, ones))
        clash = [m or a & b != 0 for m, (a, b) in zip(clash, folds)]
    return [not m for m in reversed(clash)]  # J is the complement of that mask


class Factorization(NamedTuple):
    """What the space memoizes per block: its atoms as tensor axes."""

    trivial: int  # the mask of the factors constant on the block
    axes: tuple[Axis, ...]  # one per atom, by lowest factor: tensor order
    read: Picker  # reads a table's values on the block in tensor order
    known: dict[Record, IndexSet]  # histories by the record of the table
    tops: dict[int, list[int]]  # each axis's below-top mask, by lane width


def _factorize(space: FactoredSpace, ranks: tuple[int, ...]) -> Factorization:
    """The memoized factorization of the block with these ranks."""
    key = space.intern(ranks)
    cached = space._atoms.get(key)
    if cached is None:
        grid = space._grids.get(key)
        cached = _factorize_block(space, ranks) if grid is None else _lift(space, *grid)
        space._atoms[key] = cached
    return cached


def _fold(x: int, size: int, step: int, zero: int) -> int:
    """The rank bitset x with one coordinate set to 0 in every rank.

    The coordinate has size values, step is 8 times its stride and zero
    holds the ranks where it is 0 (space.zero_bits for a factor), so
    x >> v * step moves every rank v values down it; the fold is the OR over
    v < size, kept to zero.  The OR doubles the run of shifts it covers.
    """
    span = 1
    while 2 * span <= size:
        x |= x >> span * step
        span *= 2
    if span < size:
        x |= x >> (size - span) * step
    return x & zero


def _widths(space: FactoredSpace, block: int) -> list[int]:
    """|proj_k| of a block's rank bitset for every factor k.

    The block is folded along the factors in order, so at factor k its
    ranks lie below k's period size(k) * stride(k).  Below it the factors
    after k read as one factor of size stride(k) and stride 1: folded along
    that one, rank v * stride(k) is set exactly when the block meets value
    v of k, so every stride(k)-th byte counts the values.  Folding along k
    itself then leaves ranks below stride(k), so each fold runs on a
    shorter int than the one before.
    """
    widths = []
    x = block
    for f, stride in zip(space.factors, space._strides):
        size = len(f.domain)
        if size == 1:
            widths.append(1)
        else:
            # Shifts of whole bytes keep every byte 0 or 1.
            below = _fold(x, stride, 8, -1).to_bytes(size * stride, "little")
            widths.append(below[::stride].count(1))
            if stride > 1:  # otherwise every later factor has one value
                x = _fold(x, size, 8 * stride, (1 << 8 * stride) - 1)
    return widths


def _factorize_block(space: FactoredSpace, ranks: tuple[int, ...]) -> Factorization:
    """Factorize the block with these ranks one factor at a time."""
    block = _bitset(space, ranks)
    widths = _widths(space, block)
    free = [k for k, w in enumerate(widths) if w > 1]
    trivial = sum(1 << k for k, w in enumerate(widths) if w == 1)
    rest = [1] * (len(free) + 1)  # rest[i]: product of the widths of free[i:]
    for i in range(len(free) - 1, -1, -1):
        rest[i] = rest[i + 1] * widths[free[i]]
    # prefix[i]: the block folded along free[i:], whose bit count is
    # |proj_{free[:i]}|; filled downward from the block itself when needed.
    prefix = [0] * len(free) + [block]
    low = len(free)
    seen_count = 1  # |proj_S|, S = the free factors so far
    atoms: list[tuple[int, int, list[int]]] = []  # (mask, |proj_A|, factor ids)
    for i, k in enumerate(free):
        if seen_count * rest[i] == len(ranks):
            # Product exit: C = proj_S(C) x the projections of free[i:].
            atoms += [(1 << j, widths[j], [j]) for j in free[i:]]
            break
        if not atoms:
            count = widths[k]
        else:
            while low > i + 1:
                low -= 1
                prefix[low] = _fold_out(space, prefix[low + 1], (free[low],))
            count = prefix[i + 1].bit_count()
        if count == seen_count * widths[k]:
            atoms.append((1 << k, widths[k], [k]))
        else:
            mask, ids, kept, kept_count = 1 << k, [k], [], 1
            for atom in atoms:
                a_mask, a_count, a_ids = atom
                other = _fold_out(space, prefix[i + 1], a_ids)
                if a_count * other.bit_count() == count:
                    kept.append(atom)
                    kept_count *= a_count
                else:
                    mask |= a_mask
                    ids += a_ids
            # proj_{S+k} is the product of its atoms' projections.
            kept.append((mask, count // kept_count, ids))
            atoms = kept
        seen_count = count
    atoms.sort(key=lambda atom: atom[0] & -atom[0])  # by lowest factor
    axes: list[Axis] = []
    stride = 1
    for mask, count, _ in reversed(atoms):
        axes.append((mask, count, stride))
        stride *= count
    axes.reverse()
    if [k for mask, _, _ in atoms for k in free if mask >> k & 1] == free:
        return Factorization(trivial, tuple(axes), _picker(ranks), {}, {})
    # An atom is not a run of consecutive free factors.  The block folded
    # along the free factors outside atom A holds one rank per A-projection,
    # in increasing key order, but each keeps C's constant coordinates; the
    # last list takes the surplus out, so every sum of one entry per list
    # is a rank of C, in tensor order.
    n = space.outcome_count
    lists = []
    for mask, _, _ in atoms:
        x = _fold_out(space, block, [j for j in free if not mask >> j & 1])
        lists.append(list(compress(range(n), x.to_bytes(n, "little"))))
    lists.append([ranks[0] - sum(keys[0] for keys in lists)])
    return Factorization(trivial, tuple(axes), _picker(_grid_sum(lists)), {}, {})


def _lift(space: FactoredSpace, grid: Grid, granks: tuple[int, ...]) -> Factorization:
    """The factorization of a grid block times the factors the grid leaves out.

    Its atoms are those of the grid block, mapped to full factor ids, then
    each other factor of more than one value on its own.  The tensor lists
    the grid block in its own tensor order, and under each grid point the
    other factors' assignments in rank order.
    """
    gentry = _factorize(grid.space, granks)

    def to_full(gmask: int) -> int:
        return sum(1 << i for k, i in enumerate(grid.ids) if gmask >> k & 1)

    inner = len(grid.rest)
    axes = [(to_full(m), size, stride * inner) for m, size, stride in gentry.axes]
    for i in grid.rest_ids:
        inner //= space.factors[i].size
        axes.append((1 << i, space.factors[i].size, inner))
    trivial = to_full(gentry.trivial) | ~space._free & (1 << space.factor_count) - 1
    read = _picker(_grid_sum([gentry.read(grid.offsets), grid.rest]))
    return Factorization(trivial, tuple(axes), read, {}, {})


def _history_off(space: FactoredSpace, x: RandomVariable, read: int) -> IndexSet | None:
    """x's history on every block of a conditioner whose support is read,
    when x reads none of those factors: its support.  None otherwise.

    Each such block is a grid block times the factors outside read, and x
    varies along it exactly where it does on the whole outcome set (see the
    module docstring).  With no conditioner read is 0, and the one block
    is the whole outcome set.  A conditioner that reads every factor of
    more than one value gets None without a scan of x: its blocks are
    partitioned directly, and only a constant x would read none of them.
    """
    if read == space._free:
        return None
    reads = support(space, x)
    return None if reads & read else IndexSet(reads, space.factor_count)


def _attained(z: RandomVariable | None) -> list[str]:
    """The labels of z's blocks, in codomain order."""
    if z is None:
        return [TRIVIAL_LABEL]
    return [z.codomain[v] for v in sorted(set(z.table))]


def history(space: FactoredSpace, c: Block, x: RandomVariable) -> IndexSet:
    """The unique subset-minimal generating set of x on C."""
    ensure_block(space, c)
    ensure_on_space(space, x)
    ranks = c.ranks
    if len(ranks) == space.outcome_count:
        # The whole outcome set: the history is the support.
        return IndexSet(support(space, x), space.factor_count)
    block = space.intern(ranks)
    lifted = space._grids.get(block)
    if lifted is not None:
        found = _history_off(space, x, lifted[0].mask)
        if found is not None:
            return found
    entry = space._atoms.get(block)
    if entry is None:
        entry = _factorize(space, ranks)
    key = space.intern(x.table)
    found = entry.known.get(key)
    if found is None:
        values = entry.read(x.table)
        if values.count(values[0]) == len(values):
            mask = 0
        else:
            # On a lifted block, skip the atoms x's table does not vary
            # along anywhere: outcomes that differ only there agree on x.
            reads = -1 if lifted is None else support(space, x)
            mask = _scan(entry.axes, entry.tops, values, reads)
        found = entry.known[key] = IndexSet(mask, space.factor_count)
    return found


def conditional_history(
    space: FactoredSpace, x: RandomVariable, z: RandomVariable | None = None
) -> ConditionalHistory:
    """history(x | block) for every attained value of z (trivial z by default).

    When z leaves out some factor of more than one value and x reads none
    of z's factors, x's history is its support on every block, so the
    blocks are never built: the support is returned under each attained
    label.  Only z's support is scanned when z reads every such factor.
    """
    given = TRIVIAL_NAME if z is None else z.name
    found = _history_off(space, x, 0 if z is None else support(space, z))
    if found is not None:
        per_block = dict.fromkeys(_attained(z), found)
    else:
        per_block = {
            label: history(space, block, x)
            for label, block in blocks_of(space, z).items()
        }
    return ConditionalHistory(variable=x.name, given=given, per_block=per_block)


def structurally_independent(
    space: FactoredSpace,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None = None,
) -> IndependenceVerdict:
    """Are the histories of x and y disjoint on every block of z?

    When z leaves out some factor of more than one value and neither x nor
    y reads one of z's factors, both histories are their supports on every
    block, so the blocks are never built: the supports' overlap, if any,
    is reported under each attained label.  Only z's support is scanned
    when z reads every such factor.
    """
    read = 0 if z is None else support(space, z)
    hx = _history_off(space, x, read)
    hy = None if hx is None else _history_off(space, y, read)
    if hy is not None:
        inter = hx & hy
        shared = dict.fromkeys(_attained(z), inter) if inter else {}
        return IndependenceVerdict(independent=not shared, overlaps=shared)
    overlaps: dict[str, IndexSet] = {}
    for label, block in blocks_of(space, z).items():
        inter = history(space, block, x) & history(space, block, y)
        if inter:
            overlaps[label] = inter
    return IndependenceVerdict(independent=not overlaps, overlaps=overlaps)


def disintegration_atoms(space: FactoredSpace, c: Block) -> DisintegrationAtoms:
    """Constant factors of C plus the finest partition of the rest.

    The rectangle sets of C are exactly the unions of atoms together with
    any subset of the constant part.  A failure of the partition property
    would mean the factorization is broken, so it raises
    InvariantViolationError.
    """
    ensure_block(space, c)
    n = space.factor_count
    entry = _factorize(space, c.ranks)
    trivial_mask = entry.trivial
    atom_masks = sorted(m for m, _, _ in entry.axes)
    covered = 0
    for m in atom_masks:
        if covered & m:
            raise InvariantViolationError(f"atoms overlap on block {c.label!r}")
        covered |= m
    if covered != ~trivial_mask & ((1 << n) - 1):
        raise InvariantViolationError(
            f"atoms do not cover the non-constant factors on block {c.label!r}"
        )
    return DisintegrationAtoms(
        atoms=tuple(IndexSet(m, n) for m in atom_masks),
        trivial_part=IndexSet(trivial_mask, n),
    )


def history_via_atoms(space: FactoredSpace, c: Block, x: RandomVariable) -> IndexSet:
    """Former name of history(), which now always goes through the atoms.

    Not exported and not called.  It stays defined only because the
    benchmark tracer (perfbench/spans.py) looks it up by name; drop it
    together with that entry.
    """
    return history(space, c, x)


def structural_time_leq(
    space: FactoredSpace,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None = None,
) -> bool:
    """Is history(x) contained in history(y) on every block of z?"""
    for block in blocks_of(space, z).values():
        if not history(space, block, x).issubset(history(space, block, y)):
            return False
    return True
