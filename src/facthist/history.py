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

is_rectangle reads C's memoized atoms (below): J is a rectangle exactly
when it holds each atom whole or not at all.  Determination counts bits of
rank bitsets (see below): C folded along the factors outside J holds one
rank per J-projection, and J determines x iff, for each bit of x's values,
the ranks of C where it is 0 and those where it is 1, folded along Jbar,
share no rank.  Two folds per bit, with one pair of bitsets held at a time,
keep it O(|Omega|) bytes however many values x takes.  For the law suites,
_mask_tests folds C and the same pairs along every mask, by brute force.

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

_splits, the one implementation of that test (history() and determines call
it), reads it off bit planes.  A bit plane P of x's table is the rank bitset
of the outcomes where one bit of x's value is 1.  The factors outside an
atom A fail to determine x exactly when, for some plane P, fold_A(C & ~P) &
fold_A(C & P) != 0, where fold_A folds along the factors of A (_fold,
below).  Proof: two outcomes of C that agree outside A and differ on x
differ in some bit, so one lies in C & ~P and the other in C & P for that
bit's plane, and both fold to the rank of their common coordinates outside
A; conversely a rank both folds hold is the common outside-A coordinates of
an outcome where the bit is 0 and one where it is 1.  Only the atoms that
meet x's support are tested: two outcomes that differ only in an atom x
reads none of agree on x.  x is constant on C exactly when every C & P is 0
or C, and then its history is empty, found before C is factorized.
Otherwise the history is a non-empty union of atoms, so when one atom is
left to test it is the history, with no fold.  The planes of a bytes table
are one bytes.translate each, memoized on the space (_planes); a tuple
table's (values from 256 up) are built one at a time and not kept, so
_splits and _mask_tests hold one pair at a time.

On the whole outcome set every factor of more than one value is an atom of
its own, so a variable's history there is its support (space.support, one
scan of the table).  history() returns the support there without
factorizing the block or keying a memo by its ranks; the CI queries of the
distributions module read their factors the same way.

A level-set block of z is its grid block times the unread factors.  z reads
only the factors of its support S, so every block C of z is G x Omega_R,
where G is the block of z on the grid Omega_S and R holds the factors of
more than one value outside S.  A set of factors is a rectangle of C
exactly when its part in S is a rectangle of G, so the atoms of C are
those of G plus one singleton atom per factor of R.  _factorize_block is
told R for a level set: it takes those atoms with no fold, and never folds
along R, since C folded along factors of G is still a product with
Omega_R: each of its bit counts is |Omega_R| times the count on G.  So a
level set folds only along the factors z reads.  When x's support
holds none of S, its history on C is its support: x varies along no atom
of G, and along a factor k of R it varies on C exactly when it does on
Omega, since C holds every assignment of R under each point of G and x
reads no coordinate of that point.  So when x reads no factor of z,
conditional_history (_per_block, _history_off) answers from x's support
alone and never builds z's blocks: the history is the same on every
block, and z's attained values label the blocks.  structurally_independent
is the overlap of two such maps, so it takes the shortcut for each
variable off z.  Otherwise _per_block builds each level set of z as a rank
bitset, never as ranks: for a bytes table, one bytes.translate through a
map that sends the value to 1 and every other byte to 0; a tuple table's
blocks come from blocks_of.  One level set is held at a time, and
structurally_independent and structural_time_leq build each one at most
once for both variables.

_atoms builds the atoms one factor at a time from counts alone, touching no
bitset: the free factors (of more than one value on C), the widths
|proj_k(C)|, |C|, and count(i, drop) = |proj_J(C)| for J = free[:i] minus
drop.  Here each count is a bit count.  A set of ranks is an int whose byte
r is 1 for each member r.  Folding it along factor i, the OR over v <
size(i) of X >> 8 * v * stride(i) kept to the ranks where i is 0, sets
coordinate i of every rank to 0 (_fold: one shift-OR for two values,
otherwise an OR that doubles its run of shifts, so O(log size(i)) shifts).
Every fold reads the factor's entry of the space's fold plan
(space.fold_axis): its size, its step 8 * stride(i) and its zero mask,
built the first time the factor is folded and kept.  Folding C along the
free factors outside J leaves one rank per J-projection, so |proj_J(C)| is
the result's bit count.  The width |proj_k(C)| of every factor comes from
one pass down the factors (_widths): C folded along the factors before k
lies below k's period.  For two values the ranks below stride(k) are
those where k is 0 and the rest those where it is 1, so two mask tests
give the width, and the OR of the two halves folds along k with no _fold
call.  For more values the factors after k fold as one factor of stride 1.
The bitset count folds drop out of C folded along free[i:], a prefix
projection built from the last free factor down the first time a count
needs it and shared by the later counts.  A factor constant on C joins the
trivial part.  Factor free[i] = k joins the factors seen so far, S =
free[:i], whose atoms are already known:

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
  Those counts are count(i + 1, A) and count(i + 1, ()), which is |C| at
  the last free factor, and the grown atom's count is |proj_{S+k}| over
  the kept atoms' counts, since proj_{S+k}(C) is the product of its
  atoms' projections.

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
shrink as it goes; transient memory is O(n * |Omega|) bytes, and the
space's fold plan holds one O(|Omega|)-byte mask per factor ever folded.
A history costs, per plane that splits C, two folds along each atom still
in question.  The factorization (a Factorization: the trivial mask and the
atoms) is memoized on the FactoredSpace under the block's key, and so is
each history (an immutable IndexSet, returned as it is), keyed by the
variable's table, because independence checks, verification and the law
suites ask for several histories per block; _factorize alone reads and
fills the factorization memo.  A level set of a bytes conditioner is keyed
by (table, value), and so is a Block that blocks_of made for it
(space._levels), so the two share one entry and the Block's bitset is the
level set's one translate; any other Block is keyed by its ranks, and its
bitset is set rank by rank (_keyed).  The atoms of every block of z
(_block_atoms, the CLI's atoms command) walk the same level sets as the
histories, so a bytes conditioner builds no Block there.  Neither memo
holds the block's bitset.  Memos are keyed by value, so
variables with equal tables share a history whatever their names, and a
repeated question (verify asks structurally_independent once itself and once
more through verify_soundness or find_witness) reads no history twice.

The *conditional history* maps every attained value of a conditioning
variable z to the history on that block.  Two variables are *structurally
independent* given z when their histories are disjoint on every block; this
is exactly conditional independence under every product distribution over
the factors (soundness and completeness are exercised end to end by the
verification suites and the acceptance tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import rshift
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InvariantViolationError
from .space import (
    TRIVIAL_LABEL,
    TRIVIAL_NAME,
    Block,
    FactoredSpace,
    IndexSet,
    RandomVariable,
    _supported,
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


def _bitset(space: FactoredSpace, ranks: Iterable[int]) -> int:
    """The rank bitset of these ranks: byte r is 1 for each of them."""
    flags = bytearray(space.outcome_count)
    for r in ranks:
        flags[r] = 1
    return int.from_bytes(flags, "little")


# Per bit b, the byte map that sends each value to its bit b.
_BIT_MAPS = tuple(bytes(v >> b & 1 for v in range(256)) for b in range(8))


def _planes(space: FactoredSpace, x: RandomVariable) -> Iterable[int]:
    """x's bit planes: per bit of its largest label index, the rank bitset
    of the outcomes where that bit of x's value is 1.

    A bytes table's planes are one translate each, memoized on the space by
    the table; a tuple table's are built one at a time as they are
    iterated and not kept.
    """
    table = x.table
    bits = (len(x.codomain) - 1).bit_length()
    if isinstance(table, bytes):
        planes = space._planes.get(table)
        if planes is None:
            planes = space._planes[table] = [
                int.from_bytes(table.translate(_BIT_MAPS[b]), "little")
                for b in range(min(bits, 8))
            ]
        return planes
    return (
        int.from_bytes(bytes(map((1).__and__, map(rshift, table, repeat(b)))), "little")
        for b in range(bits)
    )


def _cuts(block: int, planes: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The block's ranks where a bit of the values is 0 and where it is 1,
    for each plane that splits the block."""
    for plane in planes:
        ones = block & plane
        if ones and ones != block:
            yield block ^ ones, ones


def _fold_out(space: FactoredSpace, x: int, ids: Sequence[int]) -> int:
    """The rank bitset x folded along every factor in ids, each by its entry
    of the space's fold plan (space.fold_axis, _fold)."""
    plan = space._plan
    for k in ids:
        size, step, zero = plan[k] or space.fold_axis(k)
        if size > 1:
            x = _fold(x, size, step, zero)
    return x


def _mask_folds(space: FactoredSpace, bits: int) -> list[int]:
    """The rank bitset folded along the factors of each mask, by mask."""
    folds = [bits]
    for mask in range(1, 1 << space.factor_count):
        low = mask & -mask  # mask is mask ^ low folded along this factor
        folds.append(_fold_out(space, folds[mask ^ low], (low.bit_length() - 1,)))
    return folds


def _check(space: FactoredSpace, c: Block, j: IndexSet) -> None:
    ensure_block(space, c)
    if j.size != space.factor_count:
        raise ValueError("index set universe does not match the space")


def is_rectangle(space: FactoredSpace, c: Block, j: IndexSet) -> bool:
    """Does C recombine as proj_J(C) x proj_Jbar(C)?  Does J, that is, hold
    each of C's atoms whole or not at all?"""
    _check(space, c, j)
    atoms = _factorize(space, *_keyed(space, c.ranks)).atoms
    return all(j.mask & m in (0, m) for m, _ in atoms)


def _splits(
    space: FactoredSpace,
    block: int,
    x: RandomVariable,
    sets: Sequence[tuple[int, Sequence[int]]],
) -> int:
    """The union of the masks of the disjoint (mask, factor ids) sets along
    which x varies on the block with this rank bitset (module docstring):
    each plane that cuts the block folds every set not yet found."""
    mask = 0
    for zeros, ones in _cuts(block, _planes(space, x)):
        for found, ids in sets:
            if not mask & found and _fold_out(space, zeros, ids) & _fold_out(space, ones, ids):
                mask |= found
    return mask


def determines(space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable) -> bool:
    """Do equal J-coordinates force equal x-values on C?  Does x, that is,
    vary along Jbar nowhere on C?"""
    _check(space, c, j)
    ensure_on_space(space, x)
    out = j.complement()
    return not _splits(space, _keyed(space, c.ranks)[1](), x, [(out.mask, out.members())])


def generates(space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable) -> bool:
    """is_rectangle and determines."""
    ensure_on_space(space, x)
    return is_rectangle(space, c, j) and determines(space, c, j, x)


def _mask_tests(
    space: FactoredSpace, c: Block, x: RandomVariable
) -> tuple[list[bool], list[bool]]:
    """Is C a J-rectangle, and does J determine x on C, for every factor
    mask J?  Both by brute force over every mask, from one bitset of C."""
    on = _mask_folds(space, _keyed(space, c.ranks)[1]())  # on[0] is C
    rectangles = [a.bit_count() * b.bit_count() == len(c) for a, b in zip(reversed(on), on)]
    clash = [False] * (1 << space.factor_count)  # by the mask folded along
    for zeros, ones in _cuts(on[0], _planes(space, x)):
        folds = zip(_mask_folds(space, zeros), _mask_folds(space, ones))
        clash = [m or a & b != 0 for m, (a, b) in zip(clash, folds)]
    return rectangles, [not m for m in reversed(clash)]  # J is the complement


class Factorization(NamedTuple):
    """What the space memoizes per block."""

    trivial: int  # the mask of the factors constant on the block
    atoms: tuple[tuple[int, tuple[int, ...]], ...]  # (mask, factor ids), by lowest factor


def _keyed(
    space: FactoredSpace, ranks: tuple[int, ...]
) -> tuple[Hashable, Callable[[], int]]:
    """The memo key of the block with these ranks and a maker of its bitset.

    A block that blocks_of made for a bytes conditioner is its level set:
    keyed by (table, value), its bitset one translate (_level_set).  Any
    other block is keyed by its ranks, its bitset set rank by rank.
    """
    level = space._levels.get(ranks)
    if level is None:
        return ranks, partial(_bitset, space, ranks)
    return level, partial(_level_set, *level)


def _factorize(
    space: FactoredSpace, key: Hashable, bits: Callable[[], int], unread: int = 0
) -> Factorization:
    """The memoized factorization of the block with this key; bits() makes its bitset."""
    cached = space._atoms.get(key)
    if cached is None:
        cached = space._atoms[key] = _factorize_block(space, bits(), unread)
    return cached


def _fold(x: int, size: int, step: int, zero: int) -> int:
    """The rank bitset x with one coordinate set to 0 in every rank.

    The coordinate has size values, step is 8 times its stride and zero
    holds the ranks where it is 0 (a factor's fold plan entry is these
    three, space.fold_axis), so x >> v * step moves every rank v values
    down it; the fold is the OR over v < size, kept to zero.  Two values
    take one shift-OR; for more, the OR doubles the run of shifts it covers.
    """
    if size == 2:
        return (x | x >> step) & zero
    span = 1
    while 2 * span <= size:
        x |= x >> span * step
        span *= 2
    if span < size:
        x |= x >> (size - span) * step
    return x & zero


def _widths(space: FactoredSpace, block: int, unread: int = 0) -> list[int]:
    """|proj_k| of a block's rank bitset for every factor k.

    The block is folded along the factors in order, so at factor k its
    ranks lie below k's period size(k) * stride(k), and folding along k
    leaves ranks below stride(k): each step runs on a shorter int than the
    one before.  For a factor of two values the ranks below stride(k) are
    those where k is 0 and the rest those where it is 1, so two mask tests
    give the width, and the OR of the two halves is the fold.  For more
    values the factors after k read as one factor of size stride(k) and
    stride 1: folded along that one, rank v * stride(k) is set exactly
    when the block meets value v of k, so every stride(k)-th byte counts
    the values.  The block holds every value of each factor in unread
    wherever it holds one, so there the width is the size and the fold
    keeps the ranks where the factor is 0.
    """
    widths = [1] * len(space.factors)
    x = block
    for mask, size, stride in space._axes:  # the factors of more than one value
        k = mask.bit_length() - 1
        low = (1 << 8 * stride) - 1  # the ranks where k is 0
        if mask & unread:
            widths[k] = size
            x &= low
        elif size == 2:
            zeros, ones = x & low, x >> 8 * stride
            widths[k] = (zeros != 0) + (ones != 0)
            x = zeros | ones
        else:
            # Shifts of whole bytes keep every byte 0 or 1.
            below = _fold(x, stride, 8, -1).to_bytes(size * stride, "little")
            widths[k] = below[::stride].count(1)
            if stride > 1:  # otherwise every later factor has one value
                x = _fold(x, size, 8 * stride, low)
    return widths


def _atoms(
    free: Sequence[int],
    widths: Sequence[int],
    total: int,
    count: Callable[[int, Sequence[int]], int],
) -> list[tuple[int, int]]:
    """A block's atoms (mask, |proj_A|) by lowest factor, from its counts.

    free lists the block's factors of more than one value, widths[k] is
    |proj_k| for every factor k and total the block's size; count(i, drop)
    is |proj_J| for J = free[:i] minus the factor ids in drop.
    """
    rest = [1] * (len(free) + 1)  # rest[i]: product of the widths of free[i:]
    for i in range(len(free) - 1, -1, -1):
        rest[i] = rest[i + 1] * widths[free[i]]
    seen_count = 1  # |proj_S|, S = free[:i]
    atoms: list[tuple[int, int, list[int]]] = []  # (mask, |proj_A|, factor ids)
    for i, k in enumerate(free):
        if seen_count * rest[i] == total:
            # Product exit: C = proj_S(C) x the projections of free[i:].
            atoms += [(1 << j, widths[j], [j]) for j in free[i:]]
            break
        if not atoms:
            grown = widths[k]
        elif i + 1 == len(free):
            grown = total  # |proj_free(C)| is the block's size
        else:
            grown = count(i + 1, ())
        if grown == seen_count * widths[k]:
            atoms.append((1 << k, widths[k], [k]))
        else:
            mask, ids, kept, kept_count = 1 << k, [k], [], 1
            for atom in atoms:
                a_mask, a_count, a_ids = atom
                if a_count * count(i + 1, a_ids) == grown:
                    kept.append(atom)
                    kept_count *= a_count
                else:
                    mask |= a_mask
                    ids += a_ids
            # proj_{S+k} is the product of its atoms' projections.
            kept.append((mask, grown // kept_count, ids))
            atoms = kept
        seen_count = grown
    atoms.sort(key=lambda atom: atom[0] & -atom[0])  # by lowest factor
    return [(mask, size) for mask, size, _ in atoms]


def _factorize_block(space: FactoredSpace, block: int, unread: int = 0) -> Factorization:
    """Factorize the block with this rank bitset: _atoms on bitset counts.

    unread masks factors of more than one value that the block's
    conditioner does not read, so the block is its projection on the other
    factors times every value of these: each is an atom of its own, and
    _atoms runs on the other factors, each count divided by the number of
    assignments of these.  No fold runs along them.
    """
    widths = _widths(space, block, unread)
    free: list[int] = []
    spread: list[int] = []
    trivial = 0
    # Folding along the factors of free leaves the block the product of its
    # folded projection on the other factors and every value of spread, so
    # each bit count is scale = |Omega_spread| times the projection's count.
    scale = 1
    for k, w in enumerate(widths):
        if w == 1:
            trivial |= 1 << k
        elif unread >> k & 1:
            spread.append(k)
            scale *= w
        else:
            free.append(k)
    # prefix[i]: the block folded along free[i:], whose bit count is
    # scale * |proj_{free[:i]}|; filled downward from the last one when
    # needed, each fold by the factor's fold plan entry.
    prefix = [0] * len(free) + [block]
    low = len(free)
    plan = space._plan

    def count(i: int, drop: Sequence[int]) -> int:
        nonlocal low
        while low > i:
            low -= 1
            size, step, zero = plan[free[low]] or space.fold_axis(free[low])
            prefix[low] = _fold(prefix[low + 1], size, step, zero)
        x = prefix[i]
        for k in drop:
            size, step, zero = plan[k] or space.fold_axis(k)
            x = _fold(x, size, step, zero)
        return x.bit_count() // scale

    atoms = [
        (mask, tuple(k for k in free if mask >> k & 1))
        for mask, _ in _atoms(free, widths, block.bit_count() // scale, count)
    ]
    if spread:
        atoms += [(1 << k, (k,)) for k in spread]
        atoms.sort(key=lambda atom: atom[0] & -atom[0])  # by lowest factor
    return Factorization(trivial, tuple(atoms))


def _history_off(space: FactoredSpace, x: RandomVariable, read: int) -> IndexSet | None:
    """x's history on every block of a conditioner whose support is read,
    when x reads none of those factors: its support.  None otherwise.

    Each such block is a grid block times the factors outside read, and x
    varies along it exactly where it does on the whole outcome set (see the
    module docstring).  With no conditioner read is 0, and the one block
    is the whole outcome set.  A conditioner that reads every factor of
    more than one value gets None without a scan of x: only a constant x
    would read none of them.
    """
    if read and read == space._free:
        return None
    reads, found = _supported(space, x)
    return None if reads & read else found


def _attained(z: RandomVariable | None) -> list[str]:
    """The labels of z's blocks, in codomain order."""
    if z is None:
        return [TRIVIAL_LABEL]
    if isinstance(z.table, bytes):  # a C search per value, each below 256
        return [label for v, label in enumerate(z.codomain[:256]) if v in z.table]
    return [z.codomain[v] for v in sorted(set(z.table))]


def _level_set(table: bytes, v: int) -> int:
    """The rank bitset of the outcomes where a bytes table takes the value v:
    one translate through the map that sends v to 1 and every other byte to
    0."""
    return int.from_bytes(table.translate(bytes(v) + b"\1" + bytes(255 - v)), "little")


def _level_sets(
    space: FactoredSpace, z: RandomVariable | None
) -> Iterator[tuple[str, Hashable, Callable[[], int]]]:
    """(label, memo key, maker of the rank bitset) of each block of z, in
    codomain order.  A tuple table and no conditioner (z None, one block:
    the outcome set) take the Blocks of blocks_of."""
    table = None if z is None else z.table
    if isinstance(table, bytes):
        for v, label in enumerate(z.codomain[:256]):
            if v in table:  # a C search
                yield label, (table, v), partial(_level_set, table, v)
    else:
        for label, c in blocks_of(space, z).items():
            yield label, *_keyed(space, c.ranks)


def _once(make: Callable[[], int]) -> Callable[[], int]:
    """make, run at most once: every call returns its first result."""
    made: list[int] = []

    def once() -> int:
        if not made:
            made.append(make())
        return made[0]

    return once


def _history_on(
    space: FactoredSpace,
    key: Hashable,
    bits: Callable[[], int],
    x: RandomVariable,
    unread: int = 0,
) -> IndexSet:
    """x's history on the block with this memo key, memoized; bits() makes
    the block's rank bitset when the history is not memoized yet, and
    unread masks factors its conditioner does not read (_factorize_block)."""
    known = space._histories.get(key)
    if known is None:
        known = space._histories[key] = {}
    found = known.get(x.table)
    if found is not None:
        return found
    block = bits()
    mask = 0
    if any(block & plane not in (0, block) for plane in _planes(space, x)):
        # x is not constant on the block, so its history is not empty.
        atoms = _factorize(space, key, lambda: block, unread).atoms
        if len(atoms) > 1:
            reads = _supported(space, x)[0]
            atoms = [atom for atom in atoms if atom[0] & reads]
        mask = atoms[0][0] if len(atoms) == 1 else _splits(space, block, x, atoms)
    found = known[x.table] = IndexSet(mask, len(space.factors))
    return found


def history(space: FactoredSpace, c: Block, x: RandomVariable) -> IndexSet:
    """The unique subset-minimal generating set of x on C."""
    ensure_block(space, c)
    ensure_on_space(space, x)
    if len(c.ranks) == space.outcome_count:
        # The whole outcome set: the history is the support.
        return _supported(space, x)[1]
    return _history_on(space, *_keyed(space, c.ranks), x)


def _per_block(
    space: FactoredSpace, z: RandomVariable | None, *xs: RandomVariable
) -> list[dict[str, IndexSet]]:
    """The per_block map of conditional_history(space, x, z) for each x in
    xs; each level set of z is built at most once for all of them."""
    read = 0 if z is None else support(space, z)
    off = [_history_off(space, x, read) for x in xs]
    maps = [{} if h is None else dict.fromkeys(_attained(z), h) for h in off]
    on = [(x, per_block) for x, h, per_block in zip(xs, off, maps) if h is None]
    if on:
        unread = space._free & ~read
        for label, key, bits in _level_sets(space, z):
            if len(on) > 1:
                bits = _once(bits)
            for x, per_block in on:
                per_block[label] = _history_on(space, key, bits, x, unread)
    return maps


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
    return ConditionalHistory(x.name, given, _per_block(space, z, x)[0])


def structurally_independent(
    space: FactoredSpace,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None = None,
) -> IndependenceVerdict:
    """Are the histories of x and y disjoint on every block of z?

    The overlaps are the non-empty per-label intersections, in label
    order, of the conditional histories of x and y given z, so a variable
    that reads none of z's factors costs its support alone (see
    conditional_history) whatever the other one reads.
    """
    hx, hy = _per_block(space, z, x, y)
    overlaps = {
        label: h & hy[label] for label, h in hx.items() if not h.isdisjoint(hy[label])
    }
    return IndependenceVerdict(independent=not overlaps, overlaps=overlaps)


def _checked_atoms(
    space: FactoredSpace, entry: Factorization, label: str
) -> DisintegrationAtoms:
    """The factorization of the block with this label as DisintegrationAtoms.

    Its atoms must partition the factors outside its trivial part; an
    overlap or a gap would mean the factorization is broken, so either
    raises InvariantViolationError.
    """
    n = space.factor_count
    trivial_mask, atoms = entry
    atom_masks = sorted(m for m, _ in atoms)
    covered = 0
    for m in atom_masks:
        if covered & m:
            raise InvariantViolationError(f"atoms overlap on block {label!r}")
        covered |= m
    if covered != ~trivial_mask & ((1 << n) - 1):
        raise InvariantViolationError(
            f"atoms do not cover the non-constant factors on block {label!r}"
        )
    return DisintegrationAtoms(
        atoms=tuple(IndexSet(m, n) for m in atom_masks),
        trivial_part=IndexSet(trivial_mask, n),
    )


def disintegration_atoms(space: FactoredSpace, c: Block) -> DisintegrationAtoms:
    """Constant factors of C plus the finest partition of the rest.

    The rectangle sets of C are exactly the unions of atoms together with
    any subset of the constant part.  A failure of the partition property
    would mean the factorization is broken, so it raises
    InvariantViolationError.
    """
    ensure_block(space, c)
    return _checked_atoms(space, _factorize(space, *_keyed(space, c.ranks)), c.label)


def _block_atoms(
    space: FactoredSpace, z: RandomVariable | None
) -> Iterator[tuple[str, DisintegrationAtoms]]:
    """(label, disintegration_atoms) of each block of z, in codomain order.

    The blocks are z's level sets (_level_sets), each factorized under its
    memo key and told the factors z does not read, as _per_block does, so
    a bytes conditioner costs one translate per label and builds no Block.
    """
    unread = space._free & ~(0 if z is None else support(space, z))
    for label, key, bits in _level_sets(space, z):
        yield label, _checked_atoms(space, _factorize(space, key, bits, unread), label)


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
    hx, hy = _per_block(space, z, x, y)
    return all(h.issubset(hy[label]) for label, h in hx.items())
