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

Both conditions are counts over one list of projection keys.  The key of a
rank on J (_keys) is the sum of its scaled digits over J: it is injective on
J-projections, and rank - key is the key on the complement.  The rectangle
test (_rectangle) compares |keys| * |ranks - keys| with |C|; determination
(_determined) compares the number of key classes with the number of (key,
value) classes.  is_rectangle, determines and generates build the key list
once and apply one test or both; the atom factorization below and the law
suites' mask loops read the same kernel.

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
determine x exactly when t is constant along axis i (_varies).  With
period P = s_i * stride, that is t[b+stride : b+P] == t[b : b+P-stride] for
every period b, or row[j::s_i] == row[::s_i] for every offset row
t[o::stride] and 0 < j < s_i; the scan takes whichever needs fewer slices,
and each is a C-level comparison of small ints.  When every atom is a run
of consecutive free factors, rank order is already tensor order (ranks
compare lexicographically, factor by factor), so t is the values as read;
otherwise the factorization memoizes one itemgetter that lists C's ranks
by tensor position.  On the full outcome set every factor of more than one
value is an atom of its own and rank order is tensor order, so _varies
over a variable's whole table, with a factor's size and stride, says
whether that factor is in the variable's unconditional history; the CI
queries of the distributions module read their factors that way.

The atoms are built one factor at a time.  A factor constant on C joins the
trivial part.  Otherwise factor k joins the factors seen so far, S, whose
atoms are already known; projections are compared through integer keys,
sums of scaled digits.

* Product exit: if |proj_S(C)| times the widths |proj_j(C)| of k and every
  later free factor j equals |C|, C is proj_S(C) times those projections,
  so each of them is an atom on its own and the loop ends with no further
  key pass.  Full blocks of any product space, unconditional queries among
  them, end here at the first free factor.
* Product shortcut: if |proj_{S+k}(C)| = |proj_S(C)| * |proj_k(C)|, the
  projection is a product with a factor k, so {k} is a new atom and the
  atoms of S are unchanged.
* Merge rule: otherwise {k} absorbs exactly those atoms A of S for which
  |proj_A| * |proj_{S+k minus A}| != |proj_{S+k}|, and the other atoms stay.

Proof sketch: projecting away k maps a rectangle of proj_{S+k}(C) to a
rectangle of proj_S(C), so every new atom is a union of old atoms plus
perhaps k.  An old atom A inside a new atom D that avoids k is a rectangle
of proj_S(C), so proj_D splits as proj_A times proj_{D minus A} and A is a
rectangle of proj_{S+k}(C) as well; minimality of D gives D = A.  Only the
atom of k can grow, and it grows by the old atoms that are no longer
rectangles, which is what the count test detects.

Each non-constant factor costs O(|C|) for its keys and counts plus O(|C|)
per atom when the shortcut fails, so factorizing a block of n factors costs
O(n^2 * |C|) time and O(n * |C|) transient memory; a history costs at most
one comparison of |C| values per atom on top, and stops at the first
difference along an axis.  The result (trivial mask, one axis (mask, size,
stride) per atom in tensor order, and the tensor-order itemgetter when one
is needed; no key lists) is memoized on the FactoredSpace keyed by the
block's ranks, because independence checks, verification and the law
suites ask for several histories per block.  The same entry memoizes each
history, keyed by the variable's values on the block: a history depends on
nothing else, so variables with equal tables share it whatever their
names, and a repeated question (verify asks structurally_independent once
itself and once more through verify_soundness or find_witness) costs one
O(|C|) read of those values.
A variable constant on the block has the empty history and is neither
factorized nor memoized.

The *conditional history* maps every attained value of a conditioning
variable z to the history on that block.  Two variables are *structurally
independent* given z when their histories are disjoint on every block; this
is exactly conditional independence under every product distribution over
the factors (soundness and completeness are exercised end to end by the
verification suites and the acceptance tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, itemgetter, sub
from typing import Callable, Mapping, Sequence

from .errors import InvariantViolationError
from .space import (
    TRIVIAL_NAME,
    Block,
    FactoredSpace,
    IndexSet,
    RandomVariable,
    blocks_of,
    ensure_block,
    ensure_on_space,
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
    sequence of the table's type.
    """
    if not ranks:
        return itemgetter(slice(0, 0))
    if len(ranks) == 1:
        return itemgetter(slice(ranks[0], ranks[0] + 1))
    return itemgetter(*ranks)


def _keys(space: FactoredSpace, pick: Picker, ids: Sequence[int]) -> Sequence[int]:
    """The projection key of each picked rank: its scaled digits summed over ids."""
    if not ids:
        return [0] * len(pick(space.scaled_digits(0)))
    keys = pick(space.scaled_digits(ids[0]))
    for i in ids[1:]:
        keys = list(map(add, keys, pick(space.scaled_digits(i))))
    return keys


def _rectangle(ranks: Sequence[int], keys: Sequence[int]) -> bool:
    """Is |proj_J| * |proj_Jbar| = |C|, given the J-keys of C's ranks?"""
    return len(set(keys)) * len(set(map(sub, ranks, keys))) == len(ranks)


def _determined(space: FactoredSpace, keys: Sequence[int], values: Sequence[int]) -> bool:
    """Do the key classes split no further by value?"""
    # Keys stay below outcome_count, so key + value * outcome_count encodes
    # the pair (key, value) injectively.
    tagged = map(add, keys, map(space.outcome_count.__mul__, values))
    return len(set(keys)) == len(set(tagged))


def _checked_keys(
    space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable | None = None
) -> tuple[Picker, Sequence[int]]:
    ensure_block(space, c)
    if x is not None:
        ensure_on_space(space, x)
    if j.size != space.factor_count:
        raise ValueError("index set universe does not match the space")
    pick = _picker(c.ranks)
    return pick, _keys(space, pick, j.members())


def is_rectangle(space: FactoredSpace, c: Block, j: IndexSet) -> bool:
    """Does C recombine as proj_J(C) x proj_Jbar(C)?"""
    _, keys = _checked_keys(space, c, j)
    return _rectangle(c.ranks, keys)


def determines(space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable) -> bool:
    """Do equal J-coordinates force equal x-values on C?"""
    pick, keys = _checked_keys(space, c, j, x)
    return _determined(space, keys, pick(x.table))


def generates(space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable) -> bool:
    """determines and is_rectangle, from one key list."""
    pick, keys = _checked_keys(space, c, j, x)
    return _rectangle(c.ranks, keys) and _determined(space, keys, pick(x.table))


# One axis of the atom tensor: (atom mask, |proj_A(C)|, stride).
Axis = tuple[int, int, int]
# (trivial mask, axes in tensor order, picker that puts a block's values in
# tensor order or None if rank order already is, history masks memoized by
# the variable's values on the block)
Factorization = tuple[int, tuple[Axis, ...], Picker | None, dict[Sequence[int], int]]


def _factorize(space: FactoredSpace, ranks: tuple[int, ...]) -> Factorization:
    """The memoized factorization of the block with these ranks."""
    cached = space._atoms.get(ranks)
    if cached is not None:
        return cached
    pick = _picker(ranks)
    cols = [pick(space.scaled_digits(k)) for k in range(space.factor_count)]
    widths = [len(set(col)) for col in cols]
    free = [k for k, w in enumerate(widths) if w > 1]
    trivial = sum(1 << k for k, w in enumerate(widths) if w == 1)
    rest = [1] * (len(free) + 1)  # rest[i]: product of the widths of free[i:]
    for i in range(len(free) - 1, -1, -1):
        rest[i] = rest[i + 1] * widths[free[i]]
    seen: Sequence[int] = ()  # keys of proj_S, S = the free factors so far
    seen_count = 1
    atoms: list[tuple[int, Sequence[int], int]] = []  # (mask, keys of proj_A, |proj_A|)
    for i, k in enumerate(free):
        if seen_count * rest[i] == len(ranks):
            # Product exit: C = proj_S(C) x the projections of free[i:].
            atoms += [(1 << j, cols[j], widths[j]) for j in free[i:]]
            break
        if not atoms:
            grown, count = cols[k], widths[k]
        elif k == free[-1]:
            # All free factors are in, so the key is the rank up to a constant.
            grown, count = ranks, len(ranks)
        else:
            grown = list(map(add, seen, cols[k]))
            count = len(set(grown))
        if count == seen_count * widths[k]:
            atoms.append((1 << k, cols[k], widths[k]))
        else:
            mask, keys, kept = 1 << k, cols[k], []
            for atom in atoms:
                a_mask, a_keys, a_count = atom
                if a_count * len(set(map(sub, grown, a_keys))) == count:
                    kept.append(atom)
                else:
                    mask |= a_mask
                    keys = list(map(add, keys, a_keys))
            kept.append((mask, keys, len(set(keys))))
            atoms = kept
        seen, seen_count = grown, count
    atoms.sort(key=lambda atom: atom[0] & -atom[0])  # by lowest factor
    axes: list[Axis] = []
    stride = 1
    for mask, _, count in reversed(atoms):
        axes.append((mask, count, stride))
        stride *= count
    axes.reverse()
    reorder = None
    if [k for mask, _, _ in atoms for k in free if mask >> k & 1] != free:
        # An atom is not a run of consecutive free factors: place each rank by
        # the order of its A-key among the A-keys of C, for every atom A.
        pos = [0] * len(ranks)
        for (_, keys, _), (_, _, stride) in zip(atoms, axes):
            index = {key: v * stride for v, key in enumerate(sorted(set(keys)))}
            pos = list(map(add, pos, map(index.__getitem__, keys)))
        reorder = _picker(sorted(range(len(ranks)), key=pos.__getitem__))
    result = (trivial, tuple(axes), reorder, {})
    space._atoms[ranks] = result
    return result


def _varies(t: Sequence[int], size: int, stride: int) -> bool:
    """Does the tensor t change along the axis with this size and stride?"""
    period = size * stride
    if 2 * len(t) // period <= stride * (size + 1):
        # Per period, t must equal itself shifted one step along the axis.
        for b in range(0, len(t), period):
            if t[b + stride : b + period] != t[b : b + period - stride]:
                return True
        return False
    # Per offset below the axis, every position must repeat position 0.
    for o in range(stride):
        row = t[o::stride]
        first = row[::size]
        for j in range(1, size):
            if row[j::size] != first:
                return True
    return False


def _scan_atoms(entry: Factorization, values: Sequence[int]) -> int:
    """Mask of the atoms along whose axis the block's values vary."""
    _, axes, reorder, _ = entry
    t = values if reorder is None else reorder(values)
    mask = 0
    for atom, size, stride in axes:
        if _varies(t, size, stride):
            mask |= atom
    return mask


def history(space: FactoredSpace, c: Block, x: RandomVariable) -> IndexSet:
    """The unique subset-minimal generating set of x on C."""
    ensure_block(space, c)
    ensure_on_space(space, x)
    ranks = c.ranks
    values = _picker(ranks)(x.table)
    mask = 0
    if values.count(values[0]) != len(values):
        entry = _factorize(space, ranks)
        known = entry[3]
        mask = known.get(values)
        if mask is None:
            mask = known[values] = _scan_atoms(entry, values)
    return IndexSet(mask, space.factor_count)


def conditional_history(
    space: FactoredSpace, x: RandomVariable, z: RandomVariable | None = None
) -> ConditionalHistory:
    """history(x | block) for every attained value of z (trivial z by default)."""
    per_block = {
        label: history(space, block, x) for label, block in blocks_of(space, z).items()
    }
    given = TRIVIAL_NAME if z is None else z.name
    return ConditionalHistory(variable=x.name, given=given, per_block=per_block)


def structurally_independent(
    space: FactoredSpace,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None = None,
) -> IndependenceVerdict:
    """Are the histories of x and y disjoint on every block of z?"""
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
    trivial_mask, axes, _, _ = _factorize(space, c.ranks)
    atom_masks = sorted(m for m, _, _ in axes)
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
