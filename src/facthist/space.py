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
z on the grid of supp(z) times every factor z does not read.

A support is read off the table's *image* (_image): its values as one int
with one little-endian lane per entry (one byte when every value is below
256, else eight).  The tensor varies along a factor of stride s exactly
when some lane whose coordinate is below the factor's top value differs
from the lane s entries on, that is when (img ^ img >> 8 * width * s) & top
is not zero.  The space's axes are its factors of more than one value
(_axes), and _scan fills one such mask per axis and lane width (_tops).

Everything here is immutable after construction and safe to share between
threads.  Internal per-factor coordinate tables, fold plan entries and lane
masks, supports, the blocks of each conditioner, and the bit planes of
tables and the per-block atom factorizations and histories computed by the
history module are memoized lazily; each memo is idempotent, so a racing
double computation is harmless.  The memos are keyed by the tables
themselves, so equal tables share an entry whatever object holds them.  A
bytes table hashes once and CPython caches that hash on the object, so
every later lookup of it is one dict probe; a tuple table (values from 256
up) is hashed on every lookup.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, countOf, lt, mul
from typing import Iterable, Iterator, Mapping, Sequence

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
    as it is (a subclass too).  A space keys its memos by the table, and
    CPython caches a bytes object's hash, so a bytes table is hashed once.
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
        if not isinstance(self.ranks, tuple):  # a tuple subclass is kept as given
            object.__setattr__(self, "ranks", tuple(self.ranks))
        if not self.ranks:
            raise ValueError(f"block {self.label!r} must be non-empty")
        if not all(map(lt, self.ranks, self.ranks[1:])):
            raise ValueError(f"block {self.label!r} ranks must be strictly increasing")
        if self.ranks[0] < 0:
            raise ValueError(f"block {self.label!r} ranks must be non-negative")

    def __len__(self) -> int:
        return len(self.ranks)


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
        "_factor_vars",
        "_plan",
        "_axes",
        "_free",
        "_tops",
        "_supports",
        "_blocks",
        "_planes",
        "_levels",
        "_atoms",
        "_histories",
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
        object.__setattr__(self, "_factor_vars", {})  # factor id -> factor_var
        # Per factor id, its fold plan entry (size, step, zero), or None
        # until fold_axis builds it.
        object.__setattr__(self, "_plan", [None] * len(fs))
        # One (mask, size, stride) axis per factor of more than one value,
        # and per lane width each axis's below-top mask, filled by _scan.
        axes = [(1 << i, f.size, s) for i, (f, s) in enumerate(zip(fs, strides))]
        object.__setattr__(self, "_axes", tuple(a for a in axes if a[1] > 1))
        # The mask of those factors.
        object.__setattr__(self, "_free", sum(a[0] for a in self._axes))
        object.__setattr__(self, "_tops", {})
        # A variable's table -> its support, as a mask and as an IndexSet,
        # filled and read by _supported.
        object.__setattr__(self, "_supports", {})
        # (table, codomain) of a conditioner, or None for no conditioner ->
        # its blocks by label, filled and read by blocks_of.
        object.__setattr__(self, "_blocks", {})
        # A bytes table -> its bit planes as rank bitsets, filled and read
        # by history.py.
        object.__setattr__(self, "_planes", {})
        # The ranks of a block blocks_of made for a bytes conditioner ->
        # (the conditioner's table, value), the key history.py files that
        # level set's memos under, so a Block and its level set share one
        # factorization and one history per table.
        object.__setattr__(self, "_levels", {})
        # A block -> its history.Factorization (trivial mask and atoms), and
        # a block -> its histories by table, filled and read by history.py.
        # A level set of a bytes conditioner is keyed by (table, value),
        # through _levels for its Block too, and any other block by its
        # ranks; neither memo holds the block's bitset.
        object.__setattr__(self, "_atoms", {})
        object.__setattr__(self, "_histories", {})

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

    def digits(self, i: int) -> bytes | tuple[int, ...]:
        """Coordinate of factor i in every outcome, indexed by rank, typed
        as RandomVariable stores it: bytes up to 256 values, else a tuple."""
        self._check_factor(i)
        cached = self._digits.get(i)
        if cached is None:
            # Each value holds for `stride` consecutive ranks, and the period
            # of size * stride ranks repeats, by one C-level repetition.
            stride, size = self._strides[i], self.factors[i].size
            if size <= 256:
                period = b"".join([bytes((v,)) * stride for v in range(size)])
            else:
                values = range(size)
                if stride > 1:
                    values = chain.from_iterable(map(repeat, values, repeat(stride, size)))
                period = tuple(values)
            cached = period * (self.outcome_count // len(period))
            self._digits[i] = cached
        return cached

    def fold_axis(self, i: int) -> tuple[int, int, int]:
        """Factor i's entry of the space's fold plan: (size, step, zero).

        A rank bitset is an int whose byte r is 1 for each member rank r
        and 0 otherwise, so x >> v * step, with step = 8 * stride(i), moves
        every rank of x v values down factor i, and an AND with zero keeps
        the ranks whose coordinate i is 0.  Like a digits column, zero is
        one period of bytes repeated; a factor of one value has coordinate
        0 in every rank, so its zero is -1 and no mask is built.  Each
        entry is built on first use and kept in the plan (_plan), which
        callers read directly.
        """
        self._check_factor(i)
        entry = self._plan[i]
        if entry is None:
            stride, size = self._strides[i], self.factors[i].size
            zero = -1
            if size > 1:
                period = b"\1" * stride + bytes((size - 1) * stride)
                reps = self.outcome_count // len(period)
                zero = int.from_bytes(period * reps, "little")
            entry = self._plan[i] = (size, 8 * stride, zero)
        return entry

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
    """The coordinate projection U_i as a random variable, one per space."""
    var = space._factor_vars.get(i)
    if var is None:
        space._check_factor(i)
        f = space.factors[i]
        var = space._factor_vars[i] = RandomVariable(f.name, f.domain, space.digits(i))
    return var


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


def _image(t: Sequence[int], width: int = 1) -> tuple[int, int]:
    """The values of t as one int with a lane per entry, and the lane width.

    Lanes are width bytes (1 or 8), or 8 when an entry is past 255, so each
    holds its value exactly.  Images are little-endian, as rank bitsets
    are: entry r is the lane at byte width * r, least significant first.
    bytearray() takes entries up to 255, from a tuple about twice as fast
    as bytes().  Eight-byte lanes of a bytes table are one strided copy
    into a zeroed buffer; only other sequences are packed entry by entry.
    """
    if width == 1:
        try:
            return int.from_bytes(bytearray(t), "little"), 1
        except ValueError:
            pass
    elif isinstance(t, bytes):
        lanes = bytearray(8 * len(t))
        lanes[::8] = t
        return int.from_bytes(lanes, "little"), 8
    return int.from_bytes(struct.pack(f"<{len(t)}Q", *t), "little"), 8


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


def _scan(axes: Sequence[Axis], tops: dict[int, list[int]], values: Sequence[int]) -> int:
    """Mask of the axes along which the values vary.

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
        if _varies(img, width, stride, top):
            mask |= axis
    return mask


def support(space: FactoredSpace, x: RandomVariable) -> int:
    """Mask of the factors along which x's table varies, memoized by table.

    A table in rank order is a tensor with one axis per factor of more
    than one value, so the support is one _scan of the table.
    """
    return _supported(space, x)[0]


def _supported(space: FactoredSpace, x: RandomVariable) -> tuple[int, IndexSet]:
    """x's support as a mask and as an IndexSet, both memoized by table."""
    ensure_on_space(space, x)
    found = space._supports.get(x.table)
    if found is None:
        mask = _scan(space._axes, space._tops, x.table)
        found = space._supports[x.table] = (mask, IndexSet(mask, space.factor_count))
    return found


def blocks_of(
    space: FactoredSpace, z: RandomVariable | None = None
) -> dict[str, Block]:
    """Level sets of z, keyed by the attained value labels in codomain order.

    Without z there is one block, the whole outcome set; otherwise one pass
    over z's table groups the ranks.  The blocks are memoized on the space
    by z's table and codomain, so a conditioner is partitioned once per
    space; each call returns a new dict of them.  The ranks of each block
    of a bytes table are filed under the level set's memo key (_levels).
    """
    if z is None:
        key = None
    else:
        ensure_on_space(space, z)
        key = (z.table, z.codomain)
    blocks = space._blocks.get(key)
    if blocks is None:
        if z is None:
            blocks = {TRIVIAL_LABEL: full_block(space)}
        else:
            groups: dict[int, list[int]] = {}
            for r, v in enumerate(z.table):
                groups.setdefault(v, []).append(r)
            blocks = {
                z.codomain[v]: Block(label=z.codomain[v], ranks=tuple(groups[v]))
                for v in sorted(groups)
            }
            if isinstance(z.table, bytes):
                for v, c in zip(sorted(groups), blocks.values()):
                    space._levels[c.ranks] = (z.table, v)
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
    if not isinstance(factors_raw, list) or not factors_raw:
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
