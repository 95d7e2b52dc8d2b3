"""Finite factored spaces and the random variables that live on them.

A factored space is an ordered tuple of named factors, each with a finite
domain of value labels.  Its outcome set is the full cartesian product of
the factor domains.  Outcomes are identified with their mixed-radix rank
where the LAST factor varies fastest; every dense table in this package is
laid out in that order, so serialized artifacts are reproducible bit for
bit across platforms.

Random variables are total functions from outcomes to a finite codomain,
stored as dense tables of codomain indices.  Blocks are the level sets
{z = value} of a conditioning variable; together they partition the
outcome set.

The *support* of a variable is the set of factors its table varies along:
changing that factor's coordinate alone changes the value somewhere.  A
variable reads nothing outside its support, so a block of z is the block of
z on the grid of supp(z) times every factor z does not read; blocks_of
partitions only that grid.

A support is read off the table's *image*: its values as one int with one
lane per entry (one byte when every value is below 256, else eight).  The
tensor varies along a factor of stride s exactly when some lane whose
coordinate is below the factor's top value differs from the lane s entries
on, that is when (img ^ img >> 8 * width * s) & top is not zero.  The
space's axes are its factors of more than one value (_axes), and _scan
fills one such mask per axis and lane width (_tops); the history module
scans a block's atom axes with the same function.

Everything here is immutable after construction and safe to share between
threads.  Internal per-factor coordinate tables, rank bitsets and lane
masks, supports, the blocks of each conditioner, and the per-block atom
factorizations and histories computed by the history module are memoized
lazily; each memo is idempotent, so a racing double computation is
harmless.  The memos are keyed by identity, not by value: the first time a
space meets a table or a block's ranks it interns the object (one hash, so
equal tables share a record) and files its id under that record, which
holds the object so the id is never reused.  Every later lookup is a dict
hit on id(), with no pass over the entries.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, countOf, itemgetter, lt, mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    FormatError,
    InvalidOutcomeError,
    InvalidRankError,
    SpaceCapError,
    SpaceMismatchError,
    UnknownFactorError,
)

DEFAULT_MAX_OUTCOMES = 10**6
DEFAULT_MAX_FACTORS = 20
OUTCOME_CAP_ENV = "FACTHIST_MAX_OUTCOMES"

TRIVIAL_LABEL = "*"
TRIVIAL_NAME = "const"

Outcome = tuple[int, ...]


def _default_outcome_cap() -> int:
    raw = os.environ.get(OUTCOME_CAP_ENV)
    if raw is None:
        return DEFAULT_MAX_OUTCOMES
    try:
        return int(raw)
    except ValueError:
        raise FormatError(
            f"{OUTCOME_CAP_ENV} must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class Factor:
    """One coordinate of a factored space: a name and a finite value domain."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("factor name must be a non-empty string")
        if not self.domain:
            raise ValueError(f"factor {self.name!r} must have a non-empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"factor {self.name!r} has duplicate domain labels")

    @property
    def size(self) -> int:
        return len(self.domain)


@dataclass(frozen=True)
class IndexSet:
    """A subset of factor indices with bit-set semantics.

    ``mask`` holds one membership bit per factor id; ``size`` is the number
    of factors in the ambient space, so complements are well defined.
    """

    mask: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("IndexSet size must be non-negative")
        if not 0 <= self.mask < (1 << self.size):
            raise ValueError(
                f"IndexSet mask {self.mask:#x} sets bits outside universe of {self.size}"
            )

    @classmethod
    def empty(cls, size: int) -> IndexSet:
        return cls(0, size)

    @classmethod
    def full(cls, size: int) -> IndexSet:
        return cls((1 << size) - 1, size)

    @classmethod
    def of(cls, ids: Iterable[int], size: int) -> IndexSet:
        mask = 0
        for i in ids:
            if not 0 <= i < size:
                raise ValueError(f"factor id {i} outside universe of {size}")
            mask |= 1 << i
        return cls(mask, size)

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.size and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check_same(self, other: IndexSet) -> None:
        if self.size != other.size:
            raise ValueError("IndexSet universes differ")

    def __or__(self, other: IndexSet) -> IndexSet:
        self._check_same(other)
        return IndexSet(self.mask | other.mask, self.size)

    def __and__(self, other: IndexSet) -> IndexSet:
        self._check_same(other)
        return IndexSet(self.mask & other.mask, self.size)

    def __sub__(self, other: IndexSet) -> IndexSet:
        self._check_same(other)
        return IndexSet(self.mask & ~other.mask, self.size)

    def complement(self) -> IndexSet:
        return IndexSet(~self.mask & ((1 << self.size) - 1), self.size)

    def issubset(self, other: IndexSet) -> bool:
        self._check_same(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: IndexSet) -> bool:
        self._check_same(other)
        return self.mask & other.mask == 0


@dataclass(frozen=True)
class RandomVariable:
    """A dense total function from outcome ranks to codomain indices.

    This constructor alone decides how a table is stored: as bytes, one
    byte per entry, when every entry is an int in 0..255, and as a tuple
    otherwise.  A bytes object, and a tuple that cannot be bytes, is kept
    as it is (a subclass too), so a space can intern it: a space hashes a
    table once, the first time it meets that object, and keys its memos by
    the object's identity after that (FactoredSpace.intern).
    """

    name: str
    codomain: tuple[str, ...]
    table: bytes | tuple[int, ...]

    def __post_init__(self) -> None:
        # entries keeps the table as given (an iterator is read once), so a
        # range error names the entry the caller passed.
        entries = table = self.table
        if not isinstance(table, bytes):
            entries = table = table if isinstance(table, tuple) else tuple(table)
            try:
                # bytearray() takes ints in 0..255 only, and from a tuple
                # it is about twice as fast as bytes(); the copy out is one
                # memcpy.
                table = bytes(bytearray(table))
            except (TypeError, ValueError):
                pass
            object.__setattr__(self, "table", table)
        if not self.name:
            raise ValueError("variable name must be a non-empty string")
        if not self.codomain:
            raise ValueError(f"variable {self.name!r} must have a non-empty codomain")
        if len(set(self.codomain)) != len(self.codomain):
            raise ValueError(f"variable {self.name!r} has duplicate codomain labels")
        k = len(self.codomain)
        if isinstance(table, bytes):
            # Deleting 0..k-1 leaves exactly the entries outside the codomain.
            in_range = not table.translate(None, bytes(range(min(k, 256))))
        else:
            in_range = 0 <= min(table) and max(table) < k
        if not in_range:
            bad = next(v for v in entries if not 0 <= v < k)
            raise ValueError(
                f"variable {self.name!r} table entry {bad} outside codomain of {k}"
            )


@dataclass(frozen=True)
class Block:
    """A conditioning block: the set of outcome ranks where z takes one value."""

    label: str
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError(f"block {self.label!r} must be non-empty")
        if not all(map(lt, self.ranks, self.ranks[1:])):
            raise ValueError(f"block {self.label!r} ranks must be strictly increasing")

    def __len__(self) -> int:
        return len(self.ranks)


class Record:
    """The memo key of an interned table or ranks: the equal objects, held."""

    __slots__ = ("objects",)

    def __init__(self) -> None:
        self.objects: list[Sequence[int]] = []


class FactoredSpace:
    """An ordered tuple of finite factors; outcomes are the full product.

    Construction enforces two caps, because the package materializes dense
    tables: ``max_outcomes`` (default 10**6, overridable through the
    FACTHIST_MAX_OUTCOMES environment variable) and ``max_factors``
    (default 20).  Exceeding either raises SpaceCapError.
    """

    __slots__ = (
        "factors",
        "outcome_count",
        "_strides",
        "_ids",
        "_digits",
        "_bits",
        "_axes",
        "_free",
        "_tops",
        "_records",
        "_by_id",
        "_supports",
        "_blocks",
        "_grids",
        "_atoms",
    )

    def __init__(
        self,
        factors: Iterable[Factor],
        *,
        max_outcomes: int | None = None,
        max_factors: int | None = None,
    ) -> None:
        fs = tuple(factors)
        if not fs:
            raise ValueError("a factored space needs at least one factor")
        names = [f.name for f in fs]
        if len(set(names)) != len(names):
            raise ValueError("factor names must be unique")
        cap_n = DEFAULT_MAX_FACTORS if max_factors is None else max_factors
        if len(fs) > cap_n:
            raise SpaceCapError(f"{len(fs)} factors exceeds cap of {cap_n}")
        cap_out = _default_outcome_cap() if max_outcomes is None else max_outcomes
        count = math.prod(f.size for f in fs)
        if count > cap_out:
            raise SpaceCapError(f"{count} outcomes exceeds cap of {cap_out}")
        strides = [1] * len(fs)
        for i in range(len(fs) - 2, -1, -1):
            strides[i] = strides[i + 1] * fs[i + 1].size
        object.__setattr__(self, "factors", fs)
        object.__setattr__(self, "outcome_count", count)
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_ids", {f.name: i for i, f in enumerate(fs)})
        object.__setattr__(self, "_digits", {})
        # A factor id -> the bitset of the ranks where it is 0, filled and
        # read by zero_bits.
        object.__setattr__(self, "_bits", {})
        # One (mask, size, stride) axis per factor of more than one value,
        # and per lane width each axis's below-top mask, filled by _scan.
        axes = [(1 << i, f.size, s) for i, (f, s) in enumerate(zip(fs, strides))]
        object.__setattr__(self, "_axes", tuple(a for a in axes if a[1] > 1))
        # The mask of those factors.
        object.__setattr__(self, "_free", sum(a[0] for a in self._axes))
        object.__setattr__(self, "_tops", {})
        # Each interned tuple, by value -> its Record; and the id of every
        # object interned -> the Record holding it.  Filled by intern.
        object.__setattr__(self, "_records", {})
        object.__setattr__(self, "_by_id", {})
        # The memos below are keyed by the Record of a table or of a block's
        # ranks, found by intern.
        # A variable's table -> its support mask, filled and read by support.
        object.__setattr__(self, "_supports", {})
        # (table, codomain) of a conditioner, or None for no conditioner ->
        # its blocks by label, filled and read by blocks_of.
        object.__setattr__(self, "_blocks", {})
        # Ranks of a block partitioned on its conditioner's grid -> (Grid,
        # the block's ranks on the grid), filled by blocks_of and read by
        # history.py.
        object.__setattr__(self, "_grids", {})
        # Block ranks -> its history.Factorization (atom axes, tensor-order
        # picker, history masks by the table's Record, lane masks per
        # axis), filled and read by history.py.
        object.__setattr__(self, "_atoms", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FactoredSpace is immutable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.size}" for f in self.factors)
        return f"FactoredSpace({inner})"

    @property
    def factor_count(self) -> int:
        return len(self.factors)

    def factor_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownFactorError(f"no factor named {name!r}") from None

    def stride(self, i: int) -> int:
        self._check_factor(i)
        return self._strides[i]

    def _check_factor(self, i: int) -> None:
        if not 0 <= i < len(self.factors):
            raise UnknownFactorError(
                f"factor id {i} outside space with {len(self.factors)} factors"
            )

    def digits(self, i: int) -> tuple[int, ...]:
        """Coordinate of factor i in every outcome, indexed by rank."""
        self._check_factor(i)
        cached = self._digits.get(i)
        if cached is None:
            # Factor i holds each value for `stride` consecutive ranks, and
            # the period of size * stride ranks repeats.  Both steps run in
            # C: range and repeat build the period, tuple repetition the
            # column.
            stride, size = self._strides[i], self.factors[i].size
            values = range(size)
            if stride > 1:
                values = chain.from_iterable(map(repeat, values, repeat(stride, size)))
            period = tuple(values)
            cached = period * (self.outcome_count // len(period))
            self._digits[i] = cached
        return cached

    def zero_bits(self, i: int) -> int:
        """The ranks where factor i is 0, as a bitset.

        A rank bitset is an int whose byte r is 1 for each member rank r
        and 0 otherwise, so x >> 8 * v * stride(i) moves every rank of x v
        values down factor i, and an AND with this mask keeps the ranks
        whose coordinate i is 0.  Like a digits column, the mask is one
        period of bytes repeated.
        """
        cached = self._bits.get(i)
        if cached is None:
            self._check_factor(i)
            stride, size = self._strides[i], self.factors[i].size
            period = b"\1" * stride + bytes((size - 1) * stride)
            reps = self.outcome_count // len(period)
            cached = int.from_bytes(period * reps, "little")
            self._bits[i] = cached
        return cached

    def intern(self, t: Sequence[int]) -> Record:
        """The record this space files t's memos under, for a bytes or tuple t.

        The first call for an object hashes it once, so equal objects share
        one record, and files the object's id; every later call is a lookup
        by id().  The record holds the object, so that id is never reused
        while the space lives.
        """
        record = self._by_id.get(id(t))
        if record is None:
            record = self._records.setdefault(t, Record())
            record.objects.append(t)
            self._by_id[id(t)] = record
        return record

    def index_set(self, ids: Iterable[int]) -> IndexSet:
        return IndexSet.of(ids, len(self.factors))

    def empty_set(self) -> IndexSet:
        return IndexSet.empty(len(self.factors))

    def full_set(self) -> IndexSet:
        return IndexSet.full(len(self.factors))


def outcome_rank(space: FactoredSpace, o: Sequence[int]) -> int:
    """Mixed-radix rank of an outcome; the last factor varies fastest."""
    fs = space.factors
    if len(o) != len(fs):
        raise InvalidOutcomeError(f"outcome has {len(o)} coordinates, expected {len(fs)}")
    r = 0
    for v, f in zip(o, fs):
        if not 0 <= v < f.size:
            raise InvalidOutcomeError(
                f"coordinate {v} outside domain of factor {f.name!r}"
            )
        r = r * f.size + v
    return r


def outcome_unrank(space: FactoredSpace, r: int) -> Outcome:
    """Inverse of outcome_rank."""
    if not 0 <= r < space.outcome_count:
        raise InvalidRankError(f"rank {r} outside 0..{space.outcome_count - 1}")
    out = [0] * len(space.factors)
    for i in range(len(space.factors) - 1, -1, -1):
        size = space.factors[i].size
        out[i] = r % size
        r //= size
    return tuple(out)


def ensure_on_space(space: FactoredSpace, x: RandomVariable) -> None:
    """Raise SpaceMismatchError unless x's table covers exactly this space."""
    if len(x.table) != space.outcome_count:
        raise SpaceMismatchError(
            f"variable {x.name!r} has a table of {len(x.table)} entries, "
            f"space has {space.outcome_count} outcomes"
        )


def ensure_block(space: FactoredSpace, c: Block) -> None:
    if c.ranks[-1] >= space.outcome_count:
        raise SpaceMismatchError(
            f"block {c.label!r} contains rank {c.ranks[-1]}, "
            f"space has {space.outcome_count} outcomes"
        )


def factor_var(space: FactoredSpace, i: int) -> RandomVariable:
    """The coordinate projection U_i as a random variable."""
    space._check_factor(i)
    f = space.factors[i]
    return RandomVariable(name=f.name, codomain=f.domain, table=space.digits(i))


def trivial_var(space: FactoredSpace) -> RandomVariable:
    """The constant variable; conditioning on it means not conditioning."""
    return RandomVariable(TRIVIAL_NAME, (TRIVIAL_LABEL,), bytes(space.outcome_count))


_LABEL_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,()"})


def pair_var(space: FactoredSpace, x: RandomVariable, y: RandomVariable) -> RandomVariable:
    """The joint variable (x, y); its codomain is the attained value pairs."""
    return fold_pair(space, (x, y))


def fold_pair(space: FactoredSpace, xs: Sequence[RandomVariable]) -> RandomVariable:
    """The joint variable of xs; its codomain is the attained value tuples.

    A label is "(l1,...,lk)" with a backslash before every backslash, comma
    and parenthesis inside each component label, so labels are injective.
    Tables and codomain order equal those of a left fold of pair_var.  One
    variable is returned as it is; none gives the trivial variable.

    Value tuples are keyed by their mixed-radix int over the codomain sizes,
    the last variable varying fastest, so sorted keys are the sorted tuples.
    When every key fits in a byte, the keys are one byte image (_image)
    folded as img * |codomain| + the next image, which no lane carries out
    of, and the table is one bytes.translate of them through the ranks of
    the attained keys.
    """
    if not xs:
        return trivial_var(space)
    for x in xs:
        ensure_on_space(space, x)
    if len(xs) == 1:
        return xs[0]
    if math.prod(len(x.codomain) for x in xs) <= 256:
        img = _image(xs[0].table)[0]
        for x in xs[1:]:
            img = img * len(x.codomain) + _image(x.table)[0]
        keys = img.to_bytes(space.outcome_count, "little")
        attained = sorted(set(keys))
        ranks = bytearray(256)
        for k, key in enumerate(attained):
            ranks[key] = k
        table: Iterable[int] = keys.translate(ranks)
    else:
        keys = xs[0].table
        for x in xs[1:]:
            keys = list(map(add, map(mul, keys, repeat(len(x.codomain))), x.table))
        attained = sorted(set(keys))
        table = map({key: k for k, key in enumerate(attained)}.__getitem__, keys)
    codomains = [[c.translate(_LABEL_ESCAPES) for c in x.codomain] for x in xs]
    labels = []
    for key in attained:
        parts = []
        for cod in reversed(codomains[1:]):
            key, v = divmod(key, len(cod))
            parts.append(cod[v])
        parts.append(codomains[0][key])
        labels.append("(" + ",".join(reversed(parts)) + ")")
    name = "(" + ",".join(x.name for x in xs) + ")"
    return RandomVariable(name=name, codomain=tuple(labels), table=table)


def _image(t: Sequence[int]) -> tuple[int, int]:
    """The values of t as one int with a lane per entry, and the lane width.

    Entry r is byte r when bytearray() takes every entry (0..255; from a
    tuple it is about twice as fast as bytes()), otherwise bytes 8r to
    8r+7, so each lane holds its value exactly.
    """
    try:
        return int.from_bytes(bytearray(t), "little"), 1
    except ValueError:
        return int.from_bytes(array("Q", t).tobytes(), sys.byteorder), 8


def _below_top(count: int, size: int, stride: int, width: int) -> int:
    """The lanes of count entries whose coordinate on an axis is below size - 1.

    The axis has this size and stride, and each lane is width bytes, all
    set; the pattern is one period of the axis repeated.
    """
    run = width * stride
    period = b"\xff" * (run * (size - 1)) + bytes(run)
    return int.from_bytes(period * (count // (size * stride)), "little")


def _varies(img: int, width: int, stride: int, top: int) -> bool:
    """Does the tensor with this image change along the axis with this stride?

    top is the axis's below-top mask (_below_top), so the XOR compares each
    entry with the one a step further along the axis, and no lane carries
    into another.
    """
    return (img ^ img >> 8 * width * stride) & top != 0


# One axis of a tensor of values: (mask of its factors, size, stride).
Axis = tuple[int, int, int]


def _scan(
    axes: Sequence[Axis],
    tops: dict[int, list[int]],
    values: Sequence[int],
    reads: int = -1,
) -> int:
    """Mask of the axes that meet reads and along which the values vary.

    The values are a tensor with these axes, and tops memoizes each axis's
    below-top mask (_below_top) by lane width.  One image of the values is
    built, and each axis costs one _varies test.
    """
    img, width = _image(values)
    masks = tops.get(width)
    if masks is None:
        masks = tops[width] = [
            _below_top(len(values), size, stride, width) for _, size, stride in axes
        ]
    mask = 0
    for (axis, _, stride), top in zip(axes, masks):
        if axis & reads and _varies(img, width, stride, top):
            mask |= axis
    return mask


def support(space: FactoredSpace, x: RandomVariable) -> int:
    """Mask of the factors along which x's table varies, memoized by table.

    A table in rank order is a tensor with one axis per factor of more
    than one value, so the support is one _scan of the table.
    """
    ensure_on_space(space, x)
    key = space.intern(x.table)
    mask = space._supports.get(key)
    if mask is None:
        mask = space._supports[key] = _scan(space._axes, space._tops, x.table)
    return mask


def _grid_sum(offsets: Sequence[Sequence[int]]) -> list[int]:
    """Every sum of one entry per list, the last list varying fastest."""
    out = [0]
    for offs in offsets:
        out = [a + b for a in out for b in offs]
    return out


class Grid(NamedTuple):
    """The factors a conditioner reads, as a space of their own.

    ``ids`` are the grid's factors in the full space, ``mask`` their mask
    (the conditioner's support), and ``offsets`` the full rank of each grid
    rank with every other coordinate 0.  ``rest_ids`` are the other factors
    of more than one value, and ``rest`` the full rank of each of their
    assignments, in rank order, with the grid's coordinates 0.  A grid
    rank g and a rest assignment r make the outcome of rank
    offsets[g] + rest[r].
    """

    space: FactoredSpace
    ids: tuple[int, ...]
    mask: int
    offsets: list[int]
    rest_ids: tuple[int, ...]
    rest: list[int]


def _grid_blocks(
    space: FactoredSpace, z: RandomVariable, read: int
) -> dict[int, tuple[int, ...]]:
    """The ranks of each level set of z, read on the grid of the factors in read.

    Each level set on the grid, times every factor z does not read, is a
    block; its grid ranks are recorded on the space for history.py.
    """
    steps = [range(0, f.size * s, s) for f, s in zip(space.factors, space._strides)]
    ids = tuple(i for i in range(space.factor_count) if read >> i & 1)
    rest_ids = tuple(
        i for i, f in enumerate(space.factors) if f.size > 1 and not read >> i & 1
    )
    gspace = FactoredSpace(
        [space.factors[i] for i in ids],
        max_outcomes=space.outcome_count,
        max_factors=len(ids),
    )
    offsets = _grid_sum([steps[i] for i in ids])
    rest = _grid_sum([steps[i] for i in rest_ids])
    grid = Grid(gspace, ids, read, offsets, rest_ids, rest)
    groups: dict[int, list[int]] = {}
    for g, v in enumerate(itemgetter(*offsets)(z.table)):
        groups.setdefault(v, []).append(g)
    blocks = {}
    for v, granks in groups.items():
        ranks = tuple(sorted(_grid_sum([[offsets[g] for g in granks], grid.rest])))
        space._grids[space.intern(ranks)] = (grid, tuple(granks))
        blocks[v] = ranks
    return blocks


def blocks_of(
    space: FactoredSpace, z: RandomVariable | None = None
) -> dict[str, Block]:
    """Level sets of z, keyed by the attained value labels in codomain order.

    Without z there is one block, the whole outcome set.  When z reads some,
    but not all, of the factors of more than one value, only the grid of its
    support is partitioned, and each grid block is expanded to its full
    ranks as sums of rank offsets (see Grid); otherwise one pass over z's
    table groups the ranks.  The blocks are memoized on the space
    by z's table (interned) and codomain, so a conditioner is partitioned
    once per space; each call returns a new dict of them.
    """
    if z is None:
        key = None
    else:
        ensure_on_space(space, z)
        key = (space.intern(z.table), z.codomain)
    blocks = space._blocks.get(key)
    if blocks is None:
        if z is None:
            blocks = {TRIVIAL_LABEL: full_block(space)}
        else:
            read = support(space, z)
            if read in (0, space._free):
                groups: dict[int, list[int]] = {}
                for r, v in enumerate(z.table):
                    groups.setdefault(v, []).append(r)
            else:
                groups = _grid_blocks(space, z, read)
            blocks = {
                z.codomain[v]: Block(label=z.codomain[v], ranks=tuple(groups[v]))
                for v in sorted(groups)
            }
        space._blocks[key] = blocks
    return dict(blocks)


def full_block(space: FactoredSpace) -> Block:
    """The whole outcome set as a single block (unconditional case)."""
    return Block(label=TRIVIAL_LABEL, ranks=tuple(range(space.outcome_count)))


def space_to_doc(
    space: FactoredSpace, variables: Mapping[str, RandomVariable] | None = None
) -> dict:
    """Serialize a space plus named variables to the JSON document shape."""
    doc: dict = {
        "factors": [
            {"name": f.name, "domain": list(f.domain)} for f in space.factors
        ],
        "variables": {},
    }
    for name, var in (variables or {}).items():
        ensure_on_space(space, var)
        doc["variables"][name] = {
            "codomain": list(var.codomain),
            "table": list(var.table),
        }
    return doc


def space_from_doc(doc: object) -> tuple[FactoredSpace, dict[str, RandomVariable]]:
    """Parse the JSON document shape back into a space and its variables."""
    if not isinstance(doc, dict):
        raise FormatError("space document must be a JSON object")
    factors_raw = doc.get("factors")
    # bytes: a digit array as the CLI decodes it, whose items fail below.
    if not isinstance(factors_raw, (list, bytes)) or not factors_raw:
        raise FormatError("space document needs a non-empty 'factors' list")
    factors = []
    for k, item in enumerate(factors_raw):
        if not isinstance(item, dict):
            raise FormatError(f"factors[{k}] must be an object")
        name = item.get("name")
        domain = item.get("domain")
        if not isinstance(name, str):
            raise FormatError(f"factors[{k}].name must be a string")
        if (
            not isinstance(domain, list)
            or not domain
            or not all(isinstance(d, str) for d in domain)
        ):
            raise FormatError(f"factors[{k}].domain must be a non-empty list of strings")
        try:
            factors.append(Factor(name=name, domain=tuple(domain)))
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    try:
        space = FactoredSpace(factors)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    variables: dict[str, RandomVariable] = {}
    vars_raw = doc.get("variables", {})
    if not isinstance(vars_raw, dict):
        raise FormatError("'variables' must be an object")
    for name, entry in vars_raw.items():
        if not isinstance(entry, dict):
            raise FormatError(f"variables[{name!r}] must be an object")
        codomain = entry.get("codomain")
        table = entry.get("table")
        if (
            not isinstance(codomain, list)
            or not codomain
            or not all(isinstance(c, str) for c in codomain)
        ):
            raise FormatError(
                f"variables[{name!r}].codomain must be a non-empty list of strings"
            )
        # A bytes table is a digit array as the CLI decodes it.  In a list
        # one C-level pass counts the plain ints; only a table with other
        # entry types collects them, and int subclasses other than bool pass.
        if not isinstance(table, bytes) and (
            not isinstance(table, list)
            or countOf(map(type, table), int) != len(table)
            and not all(
                issubclass(t, int) and t is not bool for t in set(map(type, table))
            )
        ):
            raise FormatError(f"variables[{name!r}].table must be a list of integers")
        if len(table) != space.outcome_count:
            raise FormatError(
                f"variables[{name!r}].table has {len(table)} entries, "
                f"space has {space.outcome_count} outcomes"
            )
        try:
            variables[name] = RandomVariable(
                name=name, codomain=tuple(codomain), table=table
            )
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    return space, variables
