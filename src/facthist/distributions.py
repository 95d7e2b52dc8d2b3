"""Product distributions with exact rational arithmetic.

A product distribution assigns an independent probability vector to each
factor; the probability of an outcome is the product of its coordinate
probabilities.  All verdicts below are exact equalities over rationals,
never tolerance comparisons.

Internally the checks run on integer weights: scaling each factor's vector
to a common denominator leaves every conditional-probability identity
unchanged after cross multiplication, so the hot paths never build Fraction
objects.  Reported probabilities are still exact Fractions.  The weight of
every outcome comes from expanding the outer product of the per-factor
integer vectors, in rank order (last factor fastest).

Sampled distributions stay integers until one is reported.  Numerators
lie on 1..101, each one byte, drawn by rejection: a byte whose top seven
bits are at most 100 gives one plus them, any other byte is dropped
(_draw_tables).  Two streams feed that rule.  A sampled product
distribution is counter-based: sample s reads the bytes of SHAKE-256 keyed
by the decimal digits of s, so the numerators of sample i of a batch are a
function of (seed, i) alone, with no generator state, and are the same on
every Python version (_draw_chunk; after Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).  _sample_ints
returns one sample's numerators per factor, the numerators of
sample_product, which find_witness and the duality suite use directly;
verify_soundness draws each chunk of samples into one bytes buffer.  A
single vector is drawn from a caller's random.Random instead (_draw_ints,
with randint's numbers; sample_vector normalizes one draw), as the law
suites' perturbation vectors are.  find_witness builds Fractions only for
the sample it returns.  _shifts is
the one integer test of whether a conditional moved between two
distributions, over _block_marginal rows, which also raise on a zero-mass
block; the law suites and product_difference_identity use it, while
irrelevance_invariance compares the Fractions of two cond_table calls.

A CI check of x and y given z is a prepared query, run on a quotient of
the space (see _CiQuery).  Setting it up costs O(n * |Omega|) once for n
factors: one image test per factor over each whole table (space.support)
finds the factors each of x, y and z varies along.  Factors none of them
reads are summed out first, exact variable elimination: they only scale
every weight by the product K of their vector sums.  Factors read by one
variable alone are lumped into one virtual factor with a value per class
of assignments that give that variable the same column over its other
factors; only the grid of that variable's factors is enumerated to find
the classes.  The quotient Q is the grid of the lumps and the kept
factors, and its ranks are grouped into (z-value, x-value, y-value) cells
at O(|Q|).  On the benchmark's ci-verify spaces X, Y given Z goes from
1296 outcomes to 27, and X, W given Z to 60-108.

Evaluating distributions needs more, built at the first evaluation
(_CiQuery.prepare).  The trailing quotient factors form a tail of T
outcomes: rank r is head rank r // T and tail rank r % T, and its weight
is the product of a head weight and a tail weight.  Each cell is split
into parts by tail rank.  Trailing factors join the tail while
T**2 * cells <= |Q|, that is while the parts, at most cells * T, are no
more than the |Q| / T head weights.  Each distribution then costs the
expansion of each lump's factors with one C-level sum per class, an
O(|Q| / T) expansion of the head weights times K, one C-level sum per
part over O(|Q|) weights in all, and one product by a tail weight per
part.  Block totals and the x and y marginals come from the cell sums.  A
block holds when every value pair satisfies
P(x=a, y=b, C) * P(C) = P(x=a, C) * P(y=b, C), and the (kx - 1)(ky - 1)
pairs off its last attained x-value and y-value decide the rest
(_block_tests); only a failing block compares all |x| * |y| value pairs
to report the first violation in x-major order.
Every cell sum equals the sum over the whole space, so verdicts, reports
and zero-mass blocks are those of the unreduced check.  verify_soundness
and find_witness prepare the query once for all of their samples.

verify_soundness first tries to prove the check for every positive
distribution at once (_CiQuery.proves).  On a block, let J[a, b] be the
sum over the quotient outcomes o of cell (a, b) of the product of the
factor weights w_f[o_f]; a check's cell sums are these times K.  Take an
attained cell (A, B) as pivot.  Suppose J[a, b] J[A, B] = J[a, B] J[A, b]
as polynomials for every other attained x-value a and y-value b.  Under
positive weights J[A, B] > 0, so J[a, b] = J[a, B] J[A, b] / J[A, B] for
all a and b: J has rank 1, and with row sums r, column sums c and total t,
J[a, b] t = r[a] c[b].  That is P(x=a, y=b, C) P(C) = P(x=a, C) P(y=b, C)
once K * K cancels, and t >= J[A, B] > 0, so no block has zero mass.  An
identity in the quotient's weights holds whatever they are, lump weights
(sums over assignments) included, so it proves the check on the space.
Each product is a sum of monomials of coefficient 1, one per pair (o, o')
of outcomes, fixed by the value pair {o_f, o'_f} of each factor; the
polynomials are equal iff their monomial multisets are, which _rank_one
compares by codes whose sums fix the monomial (_pair_codes), stopping at
the first mismatch.  Sampling only evaluates the same identity at random
points (Schwartz, JACM 1980).  The test is tried once per query, and only
if its monomial pairs number at most n * |Q| for n samples, the weights
their checks would expand; else sampling decides, as below.  A proved
query is answered from its proof: sampled numerators are never zero, so
every sample's weights are positive and every check holds, and
verify_soundness draws no sample and builds no evaluation half.

Samples of a query that is not proved are checked in chunks, each of at
least LANES_MIN samples in one lane pass (_CiQuery.all_hold).  Its cell
sums come from the body of a single check, _CiQuery._sums, with lane
arithmetic: every weight is a lane, a sequence with one integer per
sample, the unit weight is a lane of ones, and each product and sum is a
C-level map over lanes.  The chunk's buffer holds m numerators per
sample, so numerator j of every sample is the strided slice buf[j::m],
and those slices are the pass's input lanes.  The marginals and
the cross-multiplied tests of check_ints are maps over lanes too, so the
Python-level cost of a check is paid once per chunk, not once per sample.
The pass only says whether every sample holds on every block with none of
zero mass; if not, the buffer is split into per-sample vectors and each
is checked again by check_ints, the one code that builds a CiReport, so
violation indices, first violations and DegenerateBlockError messages are
those of checking sample by sample.  A chunk holds at most
max(|Omega|, LANE_WEIGHTS) // L samples, with L the longest list of
weights the pass expands (the head, or a lump's grid), so its lanes hold
no more weights than one unreduced check would, or than LANE_WEIGHTS on a
small space; chunks are as even as that allows, and one of fewer than
LANES_MIN samples is checked sample by sample, which is cheaper there.
find_witness still checks one try at a time: it stops at the first
violating try, which on the benchmark's ci-verify and the law suites is
almost always the first, so a chunk would mostly draw samples that are
thrown away.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import islice, product, repeat, starmap
from operator import add, itemgetter, mul
from typing import Callable, Sequence

from .errors import (
    DegenerateBlockError,
    FormatError,
    InvalidOutcomeError,
    PerturbationError,
    PreconditionError,
    UnknownFactorError,
)
from .history import conditional_history, structurally_independent
from .space import (
    TRIVIAL_LABEL,
    Block,
    FactoredSpace,
    RandomVariable,
    blocks_of,
    ensure_block,
    ensure_on_space,
    support,
)

__all__ = [
    "ProductDistribution",
    "PerturbationPair",
    "CiReport",
    "SoundnessReport",
    "InvarianceReport",
    "IdentityReport",
    "uniform_product",
    "sample_product",
    "sample_vector",
    "spawn_seed",
    "outcome_prob",
    "cond_table",
    "block_conditional",
    "is_cond_independent",
    "verify_soundness",
    "find_witness",
    "perturb_factor",
    "irrelevance_invariance",
    "product_difference_identity",
    "distribution_to_doc",
    "distribution_from_doc",
]

SAMPLE_GRID_MAX = 101
# A lane pass may carry at least this many weights in all, however small the
# space: one chunk of a law-suite query (at most 81 outcomes) then holds up
# to 50 samples, while a space whose quotient does not shrink still gets
# chunks of one once it has this many outcomes.
LANE_WEIGHTS = 4096
# A lane pass costs about as much as checking three or four samples one at a
# time, so verify_soundness checks shorter chunks one sample at a time.
LANES_MIN = 4


def _sums_to_one(vec: Sequence) -> bool:
    """Whether the entries of vec sum to 1.

    Rationals (int and Fraction entries) are summed as integers over their
    common denominator, which builds no Fraction; other entries are added
    as they are.
    """
    try:
        dens = [p.denominator for p in vec]
    except AttributeError:
        return sum(vec) == 1
    scale = math.lcm(*dens)
    return sum([p.numerator * (scale // d) for p, d in zip(vec, dens)]) == scale


@dataclass(frozen=True)
class ProductDistribution:
    """One exact probability vector per factor, in factor order."""

    per_factor: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.per_factor:
            raise ValueError("a product distribution needs at least one factor vector")
        for k, vec in enumerate(self.per_factor):
            if not vec:
                raise ValueError(f"factor {k} has an empty probability vector")
            if any(p < 0 for p in vec):
                raise ValueError(f"factor {k} has a negative probability")
            if not _sums_to_one(vec):
                raise ValueError(f"factor {k} probabilities sum to {sum(vec)}, not 1")

    @property
    def is_positive(self) -> bool:
        return all(p > 0 for vec in self.per_factor for p in vec)


@dataclass(frozen=True)
class PerturbationPair:
    """Two positive product distributions differing only in one factor's vector."""

    base: ProductDistribution
    perturbed: ProductDistribution
    factor: int

    def __post_init__(self) -> None:
        b, q = self.base.per_factor, self.perturbed.per_factor
        if len(b) != len(q):
            raise PerturbationError("base and perturbed have different factor counts")
        if not 0 <= self.factor < len(b):
            raise PerturbationError(f"factor index {self.factor} out of range")
        for k, (vb, vq) in enumerate(zip(b, q)):
            if len(vb) != len(vq):
                raise PerturbationError(f"factor {k} vectors have different lengths")
            if k != self.factor and vb != vq:
                raise PerturbationError(
                    f"vectors differ at factor {k}, expected differences only at "
                    f"factor {self.factor}"
                )
        if not (self.base.is_positive and self.perturbed.is_positive):
            raise PerturbationError("perturbation pairs must be strictly positive")


@dataclass(frozen=True)
class CiReport:
    """Outcome of one conditional-independence check."""

    holds: bool
    first_violation: tuple[str, str, str, Fraction, Fraction] | None = None


@dataclass(frozen=True)
class SoundnessReport:
    """Exact CI results for a batch of sampled product distributions."""

    samples: int
    violations: tuple[tuple[int, CiReport], ...]

    @property
    def all_hold(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class InvarianceReport:
    """Per-block comparison of conditionals under a perturbation pair.

    Blocks whose history contains the perturbed factor are skipped; on every
    other block the base and perturbed conditionals must agree exactly.
    """

    factor: int
    checked: tuple[str, ...]
    skipped: tuple[str, ...]
    violations: tuple[tuple[str, str, Fraction, Fraction], ...]

    @property
    def holds(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class IdentityReport:
    """Whether (P(x|z) - Q(x|z)) * (P(y|z) - Q(y|z)) vanished everywhere."""

    holds: bool
    first_violation: tuple[str, str, str, Fraction, Fraction] | None = None


def _check_arity(space: FactoredSpace, p: ProductDistribution) -> None:
    if len(p.per_factor) != space.factor_count:
        raise ValueError(
            f"distribution has {len(p.per_factor)} factor vectors, "
            f"space has {space.factor_count} factors"
        )
    for f, vec in zip(space.factors, p.per_factor):
        if len(vec) != f.size:
            raise ValueError(
                f"vector for factor {f.name!r} has {len(vec)} entries, "
                f"domain has {f.size}"
            )


def uniform_product(space: FactoredSpace) -> ProductDistribution:
    """The uniform vector on every factor."""
    return ProductDistribution(
        per_factor=tuple(
            (Fraction(1, f.size),) * f.size for f in space.factors
        )
    )


def _normalized(nums: Sequence[int]) -> tuple[Fraction, ...]:
    total = sum(nums)
    return tuple(Fraction(n, total) for n in nums)


@lru_cache(maxsize=8)
def _draw_tables(top: int, first: int) -> tuple[bytes, bytes]:
    """translate() tables from a byte to a number on first..first + top - 1,
    or to none.

    A byte b gives first + (b >> (8 - k)) when that shift, its top
    k = top.bit_length() bits, is below top, and is dropped otherwise.  The
    first table maps each byte to its number, the second lists the dropped
    bytes.  Read off the top byte of a 32-bit word, this is
    first + randrange(top), which keeps the word's top k bits and redraws
    while they are >= top (_draw_bytes); _draw_chunk reads every byte of a
    SHAKE-256 stream.  first + top of at most 256 keeps every number in one
    byte.
    """
    shift = 8 - top.bit_length()
    table = bytes(first + (b >> shift) if b >> shift < top else 0 for b in range(256))
    redrawn = bytes(b for b in range(256) if b >> shift >= top)
    return table, redrawn


def _draw_bytes(rng: random.Random, size: int, top: int, first: int) -> bytes:
    """size numbers drawn uniformly from first..first + top - 1, in order.

    These are the numbers of first + rng.randrange(top) from the same
    state, without its Python layers: getrandbits(32 * m) holds the next m
    words, least significant first, so its bytes 3, 7, ... are their top
    bytes, and one translate() maps or drops them all.  Each round draws
    exactly the missing count, so no word after the last kept one is drawn
    and rng ends in randrange's state.
    """
    tables = _draw_tables(top, first)
    out = b""
    while len(out) < size:
        words = size - len(out)
        tops = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        out += tops.translate(*tables)
    return out


def _draw_ints(rng: random.Random, size: int) -> list[int]:
    """size numerators drawn uniformly from 1..SAMPLE_GRID_MAX, in order,
    the numbers of rng.randint(1, SAMPLE_GRID_MAX)."""
    return list(_draw_bytes(rng, size, SAMPLE_GRID_MAX, 1))


def sample_vector(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    """A positive rational vector: numerators uniform on 1..101, normalized."""
    return _normalized(_draw_ints(rng, size))


def _draw_chunk(space: FactoredSpace, seeds: Sequence[int]) -> bytes:
    """The numerators of sample_product(space, s) for each s in seeds, in one buffer.

    Sample after sample, each sample's factor vectors in factor order.
    Sample s reads the unbounded byte stream of SHAKE-256 keyed by the
    ASCII decimal of s, a counter-based stream: no generator is seeded,
    and the sample is a function of s alone.  Each byte is mapped to a
    numerator or dropped by the translate() tables of _draw_tables, and the
    first sum of the factor sizes numerators kept are the sample's.  One
    digest per sample has headroom for the dropped bytes, about 27 in 128;
    on a shortfall a longer digest is read, and since a longer SHAKE digest
    extends the shorter one, the numerators do not depend on how many
    digests that took.
    """
    size = sum(f.size for f in space.factors)
    tables = _draw_tables(SAMPLE_GRID_MAX, 1)
    out = []
    for s in seeds:
        stream = hashlib.shake_256(str(s).encode("ascii"))
        length = size + size // 3 + 4
        nums = stream.digest(length).translate(*tables)
        while len(nums) < size:
            length += size
            nums = stream.digest(length).translate(*tables)
        out.append(nums[:size])
    return b"".join(out)


def _per_sample(space: FactoredSpace, buf: Sequence[int]) -> list[list[list[int]]]:
    """A buffer in _draw_chunk's layout as one vector per factor, per sample."""
    sizes = [f.size for f in space.factors]
    nums = iter(buf)
    count = len(buf) // sum(sizes)
    return [[list(islice(nums, size)) for size in sizes] for _ in range(count)]


def _sample_ints(space: FactoredSpace, seed: int) -> list[list[int]]:
    """The numerators of sample_product(space, seed), one list per factor.

    They are _draw_chunk's for this one seed, so normalizing each list gives
    that distribution; the integers themselves are weights proportional to
    it, which is all a CI check needs.
    """
    return _per_sample(space, _draw_chunk(space, [seed]))[0]


def sample_product(space: FactoredSpace, seed: int) -> ProductDistribution:
    """A strictly positive rational product distribution, deterministic per seed.

    Its numerators are the first bytes of the SHAKE-256 stream keyed by the
    ASCII decimal of seed that _draw_tables keeps, in factor order
    (_draw_chunk), so the distribution depends on the seed alone, on every
    Python version.  Every entry is at least 1/(101*d) for a d-valued
    factor, so sampled distributions never have degenerate blocks.
    """
    return ProductDistribution(
        per_factor=tuple(map(_normalized, _sample_ints(space, seed)))
    )


def outcome_prob(p: ProductDistribution, o: Sequence[int]) -> Fraction:
    """Probability of one outcome: the product of its coordinate entries."""
    if len(o) != len(p.per_factor):
        raise InvalidOutcomeError(
            f"outcome has {len(o)} coordinates, distribution has {len(p.per_factor)}"
        )
    acc = Fraction(1)
    for v, vec in zip(o, p.per_factor):
        if not 0 <= v < len(vec):
            raise InvalidOutcomeError(f"coordinate {v} outside a domain of {len(vec)}")
        acc *= vec[v]
    return acc


def _int_vectors(p: ProductDistribution) -> list[list[int]]:
    # Scale each factor vector to integers; proportionality per factor is all
    # the conditional identities need.
    out = []
    for vec in p.per_factor:
        scale = math.lcm(*(f.denominator for f in vec))
        out.append([f.numerator * (scale // f.denominator) for f in vec])
    return out


def _expand(vecs: Sequence[Sequence], scale: object = 1, times: Callable = mul) -> list:
    """scale times the outer product of vecs, the last varying fastest.

    times multiplies two weights: mul on ints, _lane_product on lanes.
    """
    w = [scale]
    for vec in vecs:
        w = [times(a, b) for a in w for b in vec]
    return w


def _lane_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two lanes, entry by entry."""
    return list(map(mul, a, b))


_add_lanes = partial(map, add)


def _lane_sum(lanes: Sequence[Sequence[int]]) -> Sequence[int]:
    """The sum of equal-length lanes, entry by entry.

    Up to four lanes are added by chained maps, which build no tuples;
    more are summed per entry over zip, which keeps the chain short.
    """
    if len(lanes) == 1:
        return lanes[0]
    if len(lanes) <= 4:
        return list(reduce(_add_lanes, lanes))
    return list(map(sum, zip(*lanes)))


def _picker(ranks: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
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


def _grid_sum(offsets: Sequence[Sequence[int]]) -> list[int]:
    """Every sum of one entry per list, the last list varying fastest."""
    out = [0]
    for offs in offsets:
        out = [a + b for a in out for b in offs]
    return out


def _pair_codes(sizes: Sequence[int]) -> list[list[int]]:
    """Per factor, a code per value; two outcomes' summed codes fix their monomial.

    A factor of s values codes v as v * m + v * v, m = 2(s-1)^2 + 1, in a
    digit of radix (2s-1) * m, so a sum of two codes holds v + v' and
    v^2 + v'^2 per factor, which fix the pair {v, v'}.
    """
    out, radix = [], 1
    for s in reversed(sizes):
        m = 2 * (s - 1) ** 2 + 1
        out.append([(v * m + v * v) * radix for v in range(s)])
        radix *= (2 * s - 1) * m
    return out[::-1]


def _pair_sums(us: Sequence[int], vs: Sequence[int]) -> list[int]:
    """The sorted sums of one code from each list: the monomials of a product."""
    return sorted(starmap(add, product(us, vs)))


def _runs(groups: Sequence[Sequence[int]]) -> list[slice]:
    """The slice of each group in the concatenation of the groups."""
    out = []
    end = 0
    for group in groups:
        out.append(slice(end, end + len(group)))
        end += len(group)
    return out


def _weights(space: FactoredSpace, p: ProductDistribution) -> list[int]:
    """Integer weight per outcome, proportional to its probability.

    The outer product of the factor vectors is in rank order.
    """
    _check_arity(space, p)
    return _expand(_int_vectors(p))


def _block_marginal(
    weights: Sequence[int], c: Block, table: Sequence[int], k: int
) -> tuple[int, list[int]]:
    """Total block weight plus the weight of each of the k values on it."""
    per_value = [0] * k
    total = 0
    for r in c.ranks:
        w = weights[r]
        total += w
        per_value[table[r]] += w
    if total == 0:
        raise DegenerateBlockError(f"block {c.label!r} has zero probability mass")
    return total, per_value


def _shifts(base: tuple[int, list[int]], moved: tuple[int, list[int]]) -> list[int]:
    """P(x=a | C) under base minus under moved, times both block totals, per a."""
    tb, pb = base
    tq, pq = moved
    return [b * tq - q * tb for b, q in zip(pb, pq)]


def block_conditional(
    space: FactoredSpace, p: ProductDistribution, x: RandomVariable, c: Block
) -> dict[str, Fraction]:
    """P(x = value | C) for every codomain value, as exact Fractions."""
    ensure_on_space(space, x)
    ensure_block(space, c)
    weights = _weights(space, p)
    total, per_value = _block_marginal(weights, c, x.table, len(x.codomain))
    return {
        label: Fraction(per_value[k], total) for k, label in enumerate(x.codomain)
    }


def cond_table(
    space: FactoredSpace,
    p: ProductDistribution,
    x: RandomVariable,
    z: RandomVariable | None = None,
) -> dict[tuple[str, str], Fraction]:
    """P(x = xv | z = zv) for every attained zv and every xv.

    Rows sum to 1; a zero-mass block (possible only for non-positive p)
    raises DegenerateBlockError.
    """
    ensure_on_space(space, x)
    weights = _weights(space, p)
    out: dict[tuple[str, str], Fraction] = {}
    for zlabel, c in blocks_of(space, z).items():
        total, per_value = _block_marginal(weights, c, x.table, len(x.codomain))
        for k, xlabel in enumerate(x.codomain):
            out[(zlabel, xlabel)] = Fraction(per_value[k], total)
    return out


def _block_tests(
    refs: Sequence[tuple[int, int, int]],
) -> list[tuple[int, int, int | None]]:
    """The value pairs whose cross-multiplied test decides a block.

    refs holds (x-value, y-value, cell index) per attained cell.  The pairs
    are those off the last attained x-value and y-value, each with its cell
    index, or None when unattained (joint weight 0).  Rows sum to wx[a] and
    columns to wy[b], so joint * total == wx[a] * wy[b] on these pairs
    forces it on the last attained column, then on the last attained row,
    and an unattained value has margin 0.  Nothing divides or uses signs,
    so this holds with zero weights; a block of total 0 passes every test
    and is caught apart.
    """
    cell = {(a, b): k for a, b, k in refs}
    xs = sorted({a for a, _, _ in refs})[:-1]
    ys = sorted({b for _, b, _ in refs})[:-1]
    return [(a, b, cell.get((a, b))) for a in xs for b in ys]


class _CiQuery:
    """The CI check of x and y given z, prepared once for many distributions.

    The check runs on a quotient of the space.  The readers of a factor are
    those of x, y and z whose tables vary along it, so each variable's
    factors are its support, its unconditional history.  Supports are
    memoized on the space, keyed by the table itself (space.support), and
    structurally_independent reads the same entries, so after it z's, and x's
    and y's whenever z leaves a factor out, cost one dict lookup each:
    CPython caches a bytes table's hash, and a tuple table (values from 256
    up) is hashed anew at each lookup.  A factor with no reader is dropped,
    and the product K of the sums of the dropped factors' vectors scales
    every weight.  The factors read by one variable v alone, its private
    group, become one virtual factor if that shrinks them: its values are the
    classes of the group's assignments that give v the same column over v's
    other factors, and a class weighs the sum of its assignments' weights.
    The quotient factors are these lumps, by lowest factor, then the kept
    factors in order.  x, y and z are read off one representative outcome per
    quotient outcome, and every cell sum on the quotient equals the sum over
    the whole space.  When no factor of more than one value is dropped and no
    group shrinks, the quotient is the space itself.

    Each block of z is split into cells, the quotient ranks where (x, y)
    takes one attained value pair.  That much, built at construction, is
    what proves reads.  The rest, the evaluation half, is built by prepare
    on the first evaluation, so a query that proves reads none of it.  The
    last quotient factors form a tail: with T tail outcomes, rank r is head
    rank r // T followed by tail rank r % T, and its weight is
    w_head[r // T] * w_tail[r % T].  Each cell is split further into parts
    by tail rank, so a cell's weight is the sum over its parts of w_tail[t]
    times the part's head sum.  One itemgetter lists the head weights part
    after part, and each part sums one slice of that list; the classes of a
    lump are summed the same way.
    """

    __slots__ = (
        "space", "x", "y", "factors", "sizes", "unread", "lumps", "kept", "ranks",
        "blocks", "head", "order", "parts", "tails", "cells", "tests", "lanes",
        "margins", "identity",
    )

    def __init__(
        self,
        space: FactoredSpace,
        x: RandomVariable,
        y: RandomVariable,
        z: RandomVariable | None,
    ) -> None:
        self.space, self.x, self.y = space, x, y
        variables = [x, y] if z is None else [x, y, z]
        tables = [v.table for v in variables]
        sizes = [f.size for f in space.factors]
        strides = space._strides
        supports = [support(space, v) for v in variables]
        # Bit v set when variables[v] reads the factor.
        readers = [
            sum(1 << v for v, s in enumerate(supports) if s >> i & 1)
            for i in range(len(sizes))
        ]
        # The rank offset of each value of each factor.
        steps = [range(0, n * stride, stride) for n, stride in zip(sizes, strides)]
        private: dict[int, list[int]] = {}  # reader bit -> the factors only it reads
        for i, bits in enumerate(readers):
            if bits and not bits & (bits - 1):
                private.setdefault(bits, []).append(i)
        # Per private group that shrinks, by lowest factor: its factors, the
        # members of each class, and one representative's rank offset per
        # class.
        lumps: list[tuple[tuple[int, ...], list[list[int]], list[int]]] = []
        for bits, ids in private.items():
            own = _grid_sum([steps[i] for i in ids])
            shared = _grid_sum(
                [steps[i] for i, b in enumerate(readers) if b & bits and b != bits]
            )
            # Row j: the variable over its shared factors at the group's
            # assignment j, both in rank order.
            values = _picker([p + h for p in own for h in shared])(
                tables[bits.bit_length() - 1]
            )
            width = len(shared)
            classes: dict[Sequence[int], list[int]] = {}
            for j in range(len(own)):
                classes.setdefault(values[j * width : (j + 1) * width], []).append(j)
            if len(classes) < len(own):
                members = list(classes.values())
                lumps.append((tuple(ids), members, [own[m[0]] for m in members]))
        lumped = {i for ids, _, _ in lumps for i in ids}
        kept = [i for i, bits in enumerate(readers) if bits and i not in lumped]
        self.unread = tuple(i for i, bits in enumerate(readers) if not bits)
        self.factors = tuple(ids for ids, _, _ in lumps) + tuple((i,) for i in kept)
        # Per lump: a getter of its factors' vectors, and one that lists the
        # group's assignments class after class, with each class's run.
        self.lumps = [
            (_picker(ids), _picker([j for m in members for j in m]), _runs(members))
            for ids, members, _ in lumps
        ]
        self.kept = _picker(kept)  # a getter of the kept factors' vectors
        offsets = [reps for _, _, reps in lumps]
        offsets += [steps[i] for i in kept]
        self.sizes = list(map(len, offsets))
        count = math.prod(self.sizes)
        qtables: list[Sequence[int]] = tables
        if count < space.outcome_count:
            pick = _picker(_grid_sum(offsets))
            qtables = [pick(t) for t in tables]
        if z is None:
            qtables.append(repeat(0))
        cells: dict[tuple[int, int, int], list[int]] = {}
        for r, key in enumerate(zip(qtables[2], qtables[0], qtables[1])):
            cells.setdefault(key, []).append(r)
        self.ranks = list(cells.values())  # each cell's quotient ranks
        # Per block in z-value order: its label and (x-value, y-value, cell
        # index) for every attained cell.
        grouped: dict[int, list[tuple[int, int, int]]] = {}
        for k, (c, a, b) in enumerate(cells):
            grouped.setdefault(c, []).append((a, b, k))
        labels = (TRIVIAL_LABEL,) if z is None else z.codomain
        self.blocks = [(labels[c], grouped[c]) for c in sorted(grouped)]
        self.order = None  # with the rest of the evaluation half, set by prepare
        self.margins: list | None = None  # per block, built by all_hold
        self.identity: bool | None = None  # set by proves

    def prepare(self) -> None:
        """Build, once, the evaluation half: what cell_sums and all_hold read.

        Trailing quotient factors fold into the tail while the parts, at
        most (cells * T), stay no more than the head weights, |Q| / T.  Each
        sample then expands |Q| / T weights instead of |Q|, and the
        per-part overhead does not outgrow what the fold saves.  Also builds
        each block's tests (_block_tests) and lanes, the most samples one
        all_hold pass may carry.
        """
        if self.order is not None:
            return
        count = math.prod(self.sizes)
        head, tail = len(self.sizes), 1
        while head:
            grown = tail * self.sizes[head - 1]
            if grown * grown * len(self.ranks) > count:
                break
            head, tail = head - 1, grown
        self.head = head
        heads: list[list[int]] = []  # each part's head ranks, cell after cell
        self.tails = []  # the tail rank of each part
        self.cells = []  # each cell's run of parts
        for ranks in self.ranks:
            start = len(heads)
            if tail == 1:
                heads.append(ranks)
            else:
                parts: dict[int, list[int]] = {}
                for h, t in map(divmod, ranks, repeat(tail)):
                    parts.setdefault(t, []).append(h)
                heads += parts.values()
                self.tails += parts
            self.cells.append(slice(start, len(heads)))
        # A getter that lists the head weights part after part, and each
        # part's run in that list; None when every part is one rank, so the
        # listed weights are the part sums.
        self.order = _picker([h for part in heads for h in part])
        self.parts = None if all(len(part) == 1 for part in heads) else _runs(heads)
        self.tests = [_block_tests(refs) for _, refs in self.blocks]
        # Lanes times the longest list of weights a pass expands (the head,
        # or a lump's grid) stay within |Omega|, the weights of one unreduced
        # check, or within LANE_WEIGHTS on a smaller space.
        longest = math.prod(self.sizes[:head])
        for ids in self.factors[: len(self.lumps)]:
            longest = max(longest, math.prod(self.space.factors[i].size for i in ids))
        self.lanes = max(1, max(self.space.outcome_count, LANE_WEIGHTS) // longest)

    def check(self, p: ProductDistribution) -> CiReport:
        _check_arity(self.space, p)
        return self.check_ints(_int_vectors(p))

    def _sums(
        self, vecs: Sequence[Sequence], one: object, times: Callable, total: Callable
    ) -> list:
        """Each cell's weight under the product of vecs, one vector per factor.

        one is the unit weight, times multiplies two weights and total sums
        a list of them: 1, mul and sum for cell_sums, lanes for lane_sums.
        """
        self.prepare()
        scale = one
        for i in self.unread:
            scale = times(scale, total(vecs[i]))
        q = []
        for pick, order, runs in self.lumps:
            w = order(_expand(pick(vecs), one, times))
            q.append(list(map(total, map(w.__getitem__, runs))))
        q += self.kept(vecs)
        sums = self.order(_expand(q[: self.head], scale, times))
        if self.parts is not None:
            sums = list(map(total, map(sums.__getitem__, self.parts)))
        # With no tail each cell is one part, whose sum is the cell's.
        if self.head < len(q):
            w_tail = _expand(q[self.head :], one, times)
            parts = list(map(times, sums, map(w_tail.__getitem__, self.tails)))
            sums = list(map(total, map(parts.__getitem__, self.cells)))
        return sums

    def cell_sums(self, vecs: Sequence[Sequence[int]]) -> Sequence[int]:
        """The weight of each cell under the product of vecs, one vector per factor."""
        return self._sums(vecs, 1, mul, sum)

    def check_ints(self, vecs: Sequence[Sequence[int]]) -> CiReport:
        """The check under the product of vecs, one integer vector per factor."""
        sums = self.cell_sums(vecs)
        x, y = self.x, self.y
        kx, ky = len(x.codomain), len(y.codomain)
        for (zlabel, refs), tests in zip(self.blocks, self.tests):
            wx = [0] * kx
            wy = [0] * ky
            for a, b, k in refs:
                s = sums[k]
                wx[a] += s
                wy[b] += s
            total = sum(wx)
            if total == 0:
                raise DegenerateBlockError(f"block {zlabel!r} has zero probability mass")
            # Equality on the tests, an unattained pair's joint being 0, is
            # equality on every pair (_block_tests); otherwise the scan below
            # finds the first violation in x-major order.
            if all((k is not None and sums[k]) * total == wx[a] * wy[b] for a, b, k in tests):
                continue
            joint = {(a, b): sums[k] for a, b, k in refs}
            for a in range(kx):
                for b in range(ky):
                    if joint.get((a, b), 0) * total != wx[a] * wy[b]:
                        return CiReport(
                            holds=False,
                            first_violation=(
                                zlabel,
                                x.codomain[a],
                                y.codomain[b],
                                Fraction(joint.get((a, b), 0), total),
                                Fraction(wx[a] * wy[b], total * total),
                            ),
                        )
        return CiReport(holds=True)

    def lane_sums(self, buf: Sequence[int]) -> Sequence[Sequence[int]]:
        """cell_sums of every sample in buf at once: per cell, one entry per sample.

        buf lists the samples' numerators as _draw_chunk does, m per sample,
        so numerator j of every sample is the strided slice buf[j::m], a
        lane, and the m lanes split per factor like one sample's numerators.
        Every weight is a lane, and _sums runs each step as a C-level map
        over the lanes, so its Python-level work is paid once for all
        samples.
        """
        m = sum(f.size for f in self.space.factors)
        vecs = _per_sample(self.space, [buf[j::m] for j in range(m)])[0]
        return self._sums(vecs, [1] * (len(buf) // m), _lane_product, _lane_sum)

    def proves(self, samples: int) -> bool:
        """Whether the rank-1 identity proves check_ints on every positive sample.

        Per block, with pivot cell (A, B) its first attained one, the minors
        J[a,b] J[A,B] - J[a,B] J[A,b] must vanish (module docstring); one
        forms at most |J[a,b]| |J[A,B]| + |J[a,B]| |J[A,b]| monomial pairs,
        |J| counting a cell's outcomes.  Tried once per query, and only if
        the pairs number at most samples * |Q|, the weights that many checks
        expand: its loop over minors is that of one lane pass, and its codes,
        one per outcome, those of one check.  The pairs of one product, held
        at once, stay within a lane pass's weights, max(|Omega|,
        LANE_WEIGHTS).  Otherwise it proves nothing.
        """
        if self.identity is None:
            pairs = widest = 0
            for _, refs in self.blocks:
                pa, pb, k = refs[0]
                pivot = len(self.ranks[k])
                # Each cell's outcomes, on A's row, on B's column and off both.
                row = [len(self.ranks[k]) for a, b, k in refs if a == pa and b != pb]
                col = [len(self.ranks[k]) for a, b, k in refs if b == pb and a != pa]
                off = [len(self.ranks[k]) for a, b, k in refs if a != pa and b != pb]
                pairs += pivot * sum(off) + sum(row) * sum(col)
                widest = max(
                    widest,
                    pivot * max(off, default=0),
                    max(row, default=0) * max(col, default=0),
                )
            budget = samples * math.prod(self.sizes)
            cap = max(self.space.outcome_count, LANE_WEIGHTS)
            self.identity = pairs <= budget and widest <= cap and self._rank_one()
        return self.identity

    def _rank_one(self) -> bool:
        """Whether every minor of proves matches monomial for monomial.

        A product's monomials are the sums of two outcomes' codes, and an
        outcome's code is the sum of its factors' _pair_codes, expanded over
        Q in rank order, so the identity holds one code per quotient outcome
        and reads each cell's codes off its quotient ranks.  Stops at the
        first mismatch.
        """
        codes = _expand(_pair_codes(self.sizes), 0, add)

        def coded(k: int) -> Sequence[int]:
            return _picker(self.ranks[k])(codes)

        for _, refs in self.blocks:
            pa, pb, k = refs[0]
            pivot = coded(k)
            row = {b: coded(k) for a, b, k in refs if a == pa and b != pb}
            col = {a: coded(k) for a, b, k in refs if b == pb and a != pa}
            off = 0
            for a, b, k in refs:
                if a == pa or b == pb:
                    continue
                # J[a,b] J[A,B] is not 0, so neither may J[a,B] nor J[A,b] be.
                if a not in col or b not in row:
                    return False
                if _pair_sums(coded(k), pivot) != _pair_sums(col[a], row[b]):
                    return False
                off += 1
            # Every other minor has J[a,b] = 0, so J[a,B] or J[A,b] must be.
            if off != len(row) * len(col):
                return False
        return True

    def all_hold(self, buf: Sequence[int]) -> bool:
        """Whether check_ints holds for every sample in buf, on no zero block.

        buf lists the samples' numerators as _draw_chunk does.  False means
        some sample fails or meets a block of zero mass; only check_ints
        says which, and how.  It always runs the lane pass; verify_soundness
        calls it only on queries the identity does not prove.
        """
        sums = self.lane_sums(buf)
        if self.margins is None:
            self.margins = []
            for (_, refs), tests in zip(self.blocks, self.tests):
                rows: dict[int, list[int]] = {}
                cols: dict[int, list[int]] = {b: [] for _, b, _ in tests}
                for a, b, k in refs:
                    rows.setdefault(a, []).append(k)
                    if b in cols:
                        cols[b].append(k)
                getters = [[(v, _picker(ks)) for v, ks in d.items()] for d in (rows, cols)]
                self.margins.append((*getters, tests))
        for rows, cols, tests in self.margins:
            wx = {a: _lane_sum(row(sums)) for a, row in rows}
            total = _lane_sum(list(wx.values()))
            if 0 in total:
                return False
            wy = {b: _lane_sum(col(sums)) for b, col in cols}
            # The tests of check_ints, each a C-level map over the lanes.
            for a, b, k in tests:
                joint = repeat(0, len(total)) if k is None else map(mul, sums[k], total)
                if list(joint) != list(map(mul, wx[a], wy[b])):
                    return False
        return True


def is_cond_independent(
    space: FactoredSpace,
    p: ProductDistribution,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None = None,
) -> CiReport:
    """Exact check of P(x,y|z) = P(x|z) * P(y|z) on every block of z."""
    return _CiQuery(space, x, y, z).check(p)


def spawn_seed(seed: int, index: int) -> int:
    """Deterministic child seed for sample number ``index`` of a batch."""
    return seed * 1_000_003 + index + 1


def verify_soundness(
    space: FactoredSpace,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None,
    n: int,
    seed: int,
) -> SoundnessReport:
    """Exact CI under n sampled positive distributions; requires a structural pair.

    Sample i is sample_product(space, spawn_seed(seed, i)), a function of
    (seed, i) alone: its numerators are read off a SHAKE-256 stream keyed
    by that child seed, with no generator to seed or carry.  The query is
    first tried as an identity (_CiQuery.proves): if the 2x2 minors of
    every block's cell sums vanish as polynomials, the sums have rank 1
    under any positive weights, and that is the check (module docstring).
    Sampled numerators are never zero, so every sample of a proved query
    holds: the report has no violation, and no sample is drawn.  Otherwise
    the samples are checked in chunks of at most query.lanes, as even as
    that allows, each drawn into one buffer (_draw_chunk).  A chunk of at
    least LANES_MIN samples gets one lane pass (_CiQuery.all_hold); one
    that it does not clear, or a shorter one, is checked sample by sample
    with check_ints, so the report is exactly that of checking every
    sample on its own.  The cap keeps a pass's lanes within the weights of
    one unreduced check, or within LANE_WEIGHTS on a smaller space; a space
    of at least that many outcomes whose quotient does not shrink gets
    chunks of one.
    """
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    if not structurally_independent(space, x, y, z).independent:
        raise PreconditionError(
            f"{x.name!r} and {y.name!r} are not structurally independent given the "
            "conditioner; soundness checks only apply to structural pairs"
        )
    query = _CiQuery(space, x, y, z)
    if n == 0 or query.proves(n):
        return SoundnessReport(samples=n, violations=())
    query.prepare()
    violations = []
    chunks = -(-n // query.lanes)
    for c in range(chunks):
        chunk = range(n * c // chunks, n * (c + 1) // chunks)
        buf = _draw_chunk(space, [spawn_seed(seed, i) for i in chunk])
        if len(chunk) >= LANES_MIN and query.all_hold(buf):
            continue
        for i, nums in zip(chunk, _per_sample(space, buf)):
            report = query.check_ints(nums)
            if not report.holds:
                violations.append((i, report))
    return SoundnessReport(samples=n, violations=tuple(violations))


def find_witness(
    space: FactoredSpace,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None = None,
    max_tries: int = 64,
    seed: int = 0,
) -> ProductDistribution | None:
    """First sampled distribution violating CI, or None after max_tries.

    Try i is sample_product(space, spawn_seed(seed, i)), drawn from its own
    SHAKE-256 stream (_draw_chunk), so a try's numerators depend on (seed,
    i) alone.  Only defined for non-structural pairs; a miss flags the
    instance for review rather than counting as evidence either way.
    """
    if max_tries < 0:
        raise ValueError(f"max_tries must be non-negative, got {max_tries}")
    if structurally_independent(space, x, y, z).independent:
        raise PreconditionError(
            f"{x.name!r} and {y.name!r} are structurally independent given the "
            "conditioner; no witness can exist"
        )
    query = _CiQuery(space, x, y, z)
    for i in range(max_tries):
        nums = _sample_ints(space, spawn_seed(seed, i))
        if not query.check_ints(nums).holds:
            return ProductDistribution(per_factor=tuple(map(_normalized, nums)))
    return None


def perturb_factor(
    p: ProductDistribution, i: int, v: Sequence[Fraction]
) -> PerturbationPair:
    """Replace factor i's vector by v, keeping everything else fixed."""
    if not 0 <= i < len(p.per_factor):
        raise UnknownFactorError(f"factor id {i} outside distribution arity")
    vec = tuple(Fraction(e) for e in v)
    if len(vec) != len(p.per_factor[i]):
        raise PerturbationError(
            f"replacement vector has {len(vec)} entries, factor {i} has "
            f"{len(p.per_factor[i])}"
        )
    if any(e <= 0 for e in vec):
        raise PerturbationError("replacement vector must be strictly positive")
    if sum(vec) != 1:
        raise PerturbationError(f"replacement vector sums to {sum(vec)}, not 1")
    per_factor = list(p.per_factor)
    per_factor[i] = vec
    return PerturbationPair(
        base=p, perturbed=ProductDistribution(tuple(per_factor)), factor=i
    )


def irrelevance_invariance(
    space: FactoredSpace,
    pair: PerturbationPair,
    x: RandomVariable,
    z: RandomVariable | None = None,
) -> InvarianceReport:
    """Conditionals of x must match on every block whose history omits the factor."""
    ch = conditional_history(space, x, z)
    before = cond_table(space, pair.base, x, z)
    after = cond_table(space, pair.perturbed, x, z)
    checked: list[str] = []
    skipped: list[str] = []
    violations: list[tuple[str, str, Fraction, Fraction]] = []
    for zlabel, h in ch.per_block.items():
        if pair.factor in h:
            skipped.append(zlabel)
            continue
        checked.append(zlabel)
        for xlabel in x.codomain:
            b, q = before[zlabel, xlabel], after[zlabel, xlabel]
            if b != q:
                violations.append((zlabel, xlabel, b, q))
    return InvarianceReport(
        factor=pair.factor,
        checked=tuple(checked),
        skipped=tuple(skipped),
        violations=tuple(violations),
    )


def product_difference_identity(
    space: FactoredSpace,
    pair: PerturbationPair,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None = None,
) -> IdentityReport:
    """For structural pairs, the two conditional differences can never both move.

    Checks (P(x=a|z) - Q(x=a|z)) * (P(y=b|z) - Q(y=b|z)) == 0 exactly for
    every block and every value pair; value events suffice because within a
    block either every x-difference or every y-difference vanishes.
    """
    if not structurally_independent(space, x, y, z).independent:
        raise PreconditionError(
            f"{x.name!r} and {y.name!r} are not structurally independent given the "
            "conditioner; the product-difference identity only applies to "
            "structural pairs"
        )
    wb = _weights(space, pair.base)
    wq = _weights(space, pair.perturbed)
    kx, ky = len(x.codomain), len(y.codomain)
    for zlabel, c in blocks_of(space, z).items():
        rb = _block_marginal(wb, c, x.table, kx)
        rq = _block_marginal(wq, c, x.table, kx)
        dys = _shifts(_block_marginal(wb, c, y.table, ky), _block_marginal(wq, c, y.table, ky))
        scale = rb[0] * rq[0]
        for a, dx in enumerate(_shifts(rb, rq)):
            if dx == 0:
                continue
            for b, dy in enumerate(dys):
                if dy != 0:
                    return IdentityReport(
                        holds=False,
                        first_violation=(
                            zlabel,
                            x.codomain[a],
                            y.codomain[b],
                            Fraction(dx, scale),
                            Fraction(dy, scale),
                        ),
                    )
    return IdentityReport(holds=True)


def distribution_to_doc(p: ProductDistribution) -> dict:
    """Serialize to the JSON shape: one list of "num/den" strings per factor."""
    return {
        "per_factor": [
            [f"{e.numerator}/{e.denominator}" for e in vec] for vec in p.per_factor
        ]
    }


def distribution_from_doc(doc: object) -> ProductDistribution:
    """Parse the JSON document shape back into a product distribution."""
    if not isinstance(doc, dict):
        raise FormatError("distribution document must be a JSON object")
    per_factor_raw = doc.get("per_factor")
    if not isinstance(per_factor_raw, list) or not per_factor_raw:
        raise FormatError("distribution document needs a non-empty 'per_factor' list")
    vectors = []
    for k, vec in enumerate(per_factor_raw):
        if not isinstance(vec, list) or not vec:
            raise FormatError(f"per_factor[{k}] must be a non-empty list")
        entries = []
        for e in vec:
            if not isinstance(e, str):
                raise FormatError(f"per_factor[{k}] entries must be 'num/den' strings")
            try:
                entries.append(Fraction(e))
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"per_factor[{k}] entry {e!r} is not a rational") from None
        vectors.append(tuple(entries))
    try:
        return ProductDistribution(per_factor=tuple(vectors))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
