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

Everything here is immutable after construction and safe to share between
threads.  Internal per-factor coordinate tables, and the per-block atom
factorizations computed by the history module, are memoized lazily; each
memo is idempotent, so a racing double computation is harmless.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
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
    """A dense total function from outcome ranks to codomain indices."""

    name: str
    codomain: tuple[str, ...]
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be a non-empty string")
        if not self.codomain:
            raise ValueError(f"variable {self.name!r} must have a non-empty codomain")
        if len(set(self.codomain)) != len(self.codomain):
            raise ValueError(f"variable {self.name!r} has duplicate codomain labels")
        k = len(self.codomain)
        for v in self.table:
            if not 0 <= v < k:
                raise ValueError(
                    f"variable {self.name!r} table entry {v} outside codomain of {k}"
                )


@dataclass(frozen=True)
class Block:
    """A conditioning block: the set of outcome ranks where z takes one value."""

    label: str
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError(f"block {self.label!r} must be non-empty")
        if any(a >= b for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValueError(f"block {self.label!r} ranks must be strictly increasing")

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
        "factors", "outcome_count", "_strides", "_ids", "_digits", "_scaled", "_atoms"
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
        object.__setattr__(self, "_scaled", {})
        # Block ranks -> (trivial mask, atoms as (mask, projection count)),
        # filled and read by history.py.
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
            stride, size = self._strides[i], self.factors[i].size
            cached = tuple((r // stride) % size for r in range(self.outcome_count))
            self._digits[i] = cached
        return cached

    def scaled_digits(self, i: int) -> tuple[int, ...]:
        """digits(i) premultiplied by the factor's stride.

        Summing scaled digits over any index set J yields a key that is
        injective on J-projections (it reassembles the rank with non-J
        coordinates zeroed), and the complementary key is rank - key.
        """
        self._check_factor(i)
        cached = self._scaled.get(i)
        if cached is None:
            stride = self._strides[i]
            cached = tuple(d * stride for d in self.digits(i))
            self._scaled[i] = cached
        return cached

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
    return RandomVariable(
        name="const",
        codomain=(TRIVIAL_LABEL,),
        table=(0,) * space.outcome_count,
    )


def pair_var(space: FactoredSpace, x: RandomVariable, y: RandomVariable) -> RandomVariable:
    """The joint variable (x, y); its codomain is the attained value pairs."""
    ensure_on_space(space, x)
    ensure_on_space(space, y)
    attained = sorted({(a, b) for a, b in zip(x.table, y.table)})
    index = {p: k for k, p in enumerate(attained)}
    codomain = tuple(f"({x.codomain[a]},{y.codomain[b]})" for a, b in attained)
    table = tuple(index[(a, b)] for a, b in zip(x.table, y.table))
    return RandomVariable(name=f"({x.name},{y.name})", codomain=codomain, table=table)


def fold_pair(space: FactoredSpace, xs: Sequence[RandomVariable]) -> RandomVariable:
    """Left fold of pair_var; empty folds to the trivial variable."""
    if not xs:
        return trivial_var(space)
    acc = xs[0]
    ensure_on_space(space, acc)
    for x in xs[1:]:
        acc = pair_var(space, acc, x)
    return acc


def blocks_of(space: FactoredSpace, z: RandomVariable) -> dict[str, Block]:
    """Level sets of z, keyed by the attained value labels in codomain order."""
    ensure_on_space(space, z)
    groups: dict[int, list[int]] = {}
    for r, v in enumerate(z.table):
        groups.setdefault(v, []).append(r)
    return {
        z.codomain[v]: Block(label=z.codomain[v], ranks=tuple(groups[v]))
        for v in sorted(groups)
    }


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
        if not isinstance(table, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in table
        ):
            raise FormatError(f"variables[{name!r}].table must be a list of integers")
        if len(table) != space.outcome_count:
            raise FormatError(
                f"variables[{name!r}].table has {len(table)} entries, "
                f"space has {space.outcome_count} outcomes"
            )
        try:
            variables[name] = RandomVariable(
                name=name, codomain=tuple(codomain), table=tuple(table)
            )
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    return space, variables
