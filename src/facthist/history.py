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

The rectangle sets of C form a field of factor sets.  Its *atoms* (minimal
non-empty members, once the factors constant on C are set aside as the
trivial part) partition the non-constant factors, and every rectangle set is
a union of atoms plus any part of the trivial part.  Generating sets are
closed under intersection, so there is a unique subset-minimal one, the
*history* of x given C.  It is a rectangle set without constant factors,
hence a union of atoms, and an atom A lies inside it exactly when the
factors outside A fail to determine x: that complement is itself a
rectangle set, so if it determines x it generates x and contains the
history.  history() therefore makes one pass over C per atom: the factors
outside A determine x exactly when they split C into as many classes as
the pairs (outside-A key, x-value) do.

The atoms are built one factor at a time.  A factor constant on C joins the
trivial part.  Otherwise factor k joins the factors seen so far, S, whose
atoms are already known; projections are compared through integer keys,
sums of scaled digits.

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
O(n^2 * |C|) time and O(n * |C|) transient memory, and a history O(n * |C|)
on top.  The result (trivial mask, atom masks and their projection counts;
no key lists) is memoized on the FactoredSpace keyed by the block's ranks,
because independence checks, verification and the law suites ask for
several histories per block and blocks_of builds fresh Block objects on
every call.

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
    Block,
    FactoredSpace,
    IndexSet,
    RandomVariable,
    blocks_of,
    ensure_block,
    ensure_on_space,
    trivial_var,
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


def _scan_rectangle(space: FactoredSpace, ranks: Sequence[int], ids: Sequence[int]) -> bool:
    cols = [space.scaled_digits(i) for i in ids]
    left: set[int] = set()
    right: set[int] = set()
    for r in ranks:
        a = 0
        for col in cols:
            a += col[r]
        left.add(a)
        right.add(r - a)
    return len(ranks) == len(left) * len(right)


def _scan_determines(
    space: FactoredSpace, ranks: Sequence[int], ids: Sequence[int], table: Sequence[int]
) -> bool:
    cols = [space.scaled_digits(i) for i in ids]
    seen: dict[int, int] = {}
    for r in ranks:
        a = 0
        for col in cols:
            a += col[r]
        v = table[r]
        prev = seen.setdefault(a, v)
        if prev != v:
            return False
    return True


def _scan_generates(
    space: FactoredSpace, ranks: Sequence[int], ids: Sequence[int], table: Sequence[int]
) -> bool:
    # One pass for both conditions; a determination conflict exits early.
    cols = [space.scaled_digits(i) for i in ids]
    left: set[int] = set()
    right: set[int] = set()
    seen: dict[int, int] = {}
    for r in ranks:
        a = 0
        for col in cols:
            a += col[r]
        v = table[r]
        prev = seen.setdefault(a, v)
        if prev != v:
            return False
        left.add(a)
        right.add(r - a)
    return len(ranks) == len(left) * len(right)


def is_rectangle(space: FactoredSpace, c: Block, j: IndexSet) -> bool:
    """Does C recombine as proj_J(C) x proj_Jbar(C)?"""
    ensure_block(space, c)
    if j.size != space.factor_count:
        raise ValueError("index set universe does not match the space")
    return _scan_rectangle(space, c.ranks, j.members())


def determines(space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable) -> bool:
    """Do equal J-coordinates force equal x-values on C?"""
    ensure_block(space, c)
    ensure_on_space(space, x)
    if j.size != space.factor_count:
        raise ValueError("index set universe does not match the space")
    return _scan_determines(space, c.ranks, j.members(), x.table)


def generates(space: FactoredSpace, c: Block, j: IndexSet, x: RandomVariable) -> bool:
    """determines and is_rectangle in one pass."""
    ensure_block(space, c)
    ensure_on_space(space, x)
    if j.size != space.factor_count:
        raise ValueError("index set universe does not match the space")
    return _scan_generates(space, c.ranks, j.members(), x.table)


def _picker(ranks: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """A function that reads a dense table at the block's ranks, in order."""
    get = itemgetter(*ranks)
    if len(ranks) == 1:
        return lambda table: (get(table),)
    return get


Atom = tuple[int, int]  # (factor mask, |proj_A(C)|)


def _factorize(
    space: FactoredSpace, ranks: tuple[int, ...]
) -> tuple[int, tuple[Atom, ...]]:
    """(trivial mask, atoms in increasing mask order) of the block with these ranks."""
    cached = space._atoms.get(ranks)
    if cached is not None:
        return cached
    pick = _picker(ranks)
    cols = [pick(space.scaled_digits(k)) for k in range(space.factor_count)]
    widths = [len(set(col)) for col in cols]
    free = [k for k, w in enumerate(widths) if w > 1]
    trivial = sum(1 << k for k, w in enumerate(widths) if w == 1)
    seen: Sequence[int] = ()  # keys of proj_S, S = the free factors so far
    seen_count = 1
    atoms: list[tuple[int, Sequence[int], int]] = []  # (mask, keys of proj_A, |proj_A|)
    for k in free:
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
    result = (trivial, tuple(sorted((m, c) for m, _, c in atoms)))
    space._atoms[ranks] = result
    return result


def history(space: FactoredSpace, c: Block, x: RandomVariable) -> IndexSet:
    """The unique subset-minimal generating set of x on C."""
    ensure_block(space, c)
    ensure_on_space(space, x)
    n = space.factor_count
    ranks = c.ranks
    pick = _picker(ranks)
    values = pick(x.table)
    mask = 0
    if len(set(values)) == 1:
        return IndexSet(mask, n)
    # Keys stay below outcome_count, so r + value * outcome_count - key_A
    # encodes the pair (key of the factors outside A, value) injectively.
    tagged = list(map(add, ranks, map(space.outcome_count.__mul__, values)))
    for atom, count in _factorize(space, ranks)[1]:
        ids = [i for i in range(n) if atom >> i & 1]
        keys = pick(space.scaled_digits(ids[0]))
        for i in ids[1:]:
            keys = list(map(add, keys, pick(space.scaled_digits(i))))
        # Since A is a rectangle, |proj_{outside A}| = |C| / |proj_A|; the
        # factors outside A determine x iff no key class holds two values.
        if len(set(map(sub, tagged, keys))) * count != len(ranks):
            mask |= atom
    return IndexSet(mask, n)


def conditional_history(
    space: FactoredSpace, x: RandomVariable, z: RandomVariable | None = None
) -> ConditionalHistory:
    """history(x | block) for every attained value of z (trivial z by default)."""
    if z is None:
        z = trivial_var(space)
    per_block = {
        label: history(space, block, x) for label, block in blocks_of(space, z).items()
    }
    return ConditionalHistory(variable=x.name, given=z.name, per_block=per_block)


def structurally_independent(
    space: FactoredSpace,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None = None,
) -> IndependenceVerdict:
    """Are the histories of x and y disjoint on every block of z?"""
    if z is None:
        z = trivial_var(space)
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
    trivial_mask, atoms = _factorize(space, c.ranks)
    atom_masks = [m for m, _ in atoms]
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
    if z is None:
        z = trivial_var(space)
    for block in blocks_of(space, z).values():
        if not history(space, block, x).issubset(history(space, block, y)):
            return False
    return True
