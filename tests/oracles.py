"""Independent reference implementations used to check the package.

Everything in here recomputes results from first principles, by brute
force, without reusing the package's algorithms: rectangles by literal
cross-pair membership, determination by pairwise comparison, histories by
enumerating all subsets and taking the subset-minimal generating ones,
block factorizations by counting sets of integer projection keys,
projection counts by sets of coordinate tuples, probabilities by summing
exact outcome products, sampled numerators by reading the SHAKE-256
stream one byte at a time, the cell sums of a prepared CI query by a
per-rank pass, CI under every product
distribution by comparing monomial coefficients, CI reports and joint
factorization by a per-rank pass over each block, the duality law through
the public Fraction API, d-separation both by walk enumeration and by
moralization, DAG embeddings by evaluating every node at every outcome,
the separator condition by full event enumeration, and table checks and
joint variables by the min/max scans and value tuples they replace.  Slow
on purpose; only run on small inputs.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from operator import add, sub

from facthist import (
    Block,
    CiReport,
    Dag,
    DegenerateBlockError,
    DualityOutcome,
    FactoredSpace,
    ProductDistribution,
    RandomVariable,
    SuiteConfig,
    block_conditional,
    blocks_of,
    conditional_history,
    irrelevance_invariance,
    outcome_prob,
    outcome_rank,
    outcome_unrank,
    perturb_factor,
    sample_product,
    sample_vector,
)
from facthist.verification import IRRELEVANCE_TRIALS, _int_seed, _stream


def all_subsets(ids):
    ids = tuple(ids)
    return chain.from_iterable(combinations(ids, k) for k in range(len(ids) + 1))


def oracle_rectangle(space: FactoredSpace, c: Block, ids) -> bool:
    """Literal recombination test: every cross pair of projections is in C."""
    ids = set(ids)
    others = [i for i in range(space.factor_count) if i not in ids]
    outcomes = {outcome_unrank(space, r) for r in c.ranks}
    proj_j = {tuple(o[i] for i in sorted(ids)) for o in outcomes}
    proj_rest = {tuple(o[i] for i in others) for o in outcomes}
    for a in proj_j:
        for b in proj_rest:
            merged = [None] * space.factor_count
            for i, v in zip(sorted(ids), a):
                merged[i] = v
            for i, v in zip(others, b):
                merged[i] = v
            if tuple(merged) not in outcomes:
                return False
    return True


def oracle_determines(space: FactoredSpace, c: Block, ids, x: RandomVariable) -> bool:
    """Literal pairwise test: equal projections force equal values."""
    ids = sorted(set(ids))
    rows = [(outcome_unrank(space, r), x.table[r]) for r in c.ranks]
    for o1, v1 in rows:
        for o2, v2 in rows:
            if all(o1[i] == o2[i] for i in ids) and v1 != v2:
                return False
    return True


def oracle_generating_sets(space: FactoredSpace, c: Block, x: RandomVariable):
    return [
        frozenset(ids)
        for ids in all_subsets(range(space.factor_count))
        if oracle_determines(space, c, ids, x) and oracle_rectangle(space, c, ids)
    ]


def oracle_support(space: FactoredSpace, x: RandomVariable) -> frozenset[int]:
    """Factors whose coordinate, changed alone at some outcome, changes x."""
    found = set()
    for r in range(space.outcome_count):
        o = outcome_unrank(space, r)
        for i, f in enumerate(space.factors):
            for v in range(f.size):
                moved = outcome_rank(space, o[:i] + (v,) + o[i + 1 :])
                if x.table[moved] != x.table[r]:
                    found.add(i)
    return frozenset(found)


def oracle_range_error(name: str, k: int, table) -> str | None:
    """The message of a table entry outside 0..k-1, found by min and max, or None."""
    if table and not (0 <= min(table) and max(table) < k):
        bad = next(v for v in table if not 0 <= v < k)
        return f"variable {name!r} table entry {bad} outside codomain of {k}"
    return None


def oracle_stored_table(table):
    """The table as RandomVariable stores it: bytes when every entry is an
    int in 0..255, a tuple otherwise."""
    entries = tuple(table)
    if all(isinstance(v, int) and 0 <= v < 256 for v in entries):
        return bytes(entries)
    return entries


def oracle_table_is_ints(table) -> bool:
    """A list whose entry types are int or its subclasses other than bool."""
    return isinstance(table, list) and all(
        issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, table))
    )


def oracle_fold_pair(space: FactoredSpace, xs) -> RandomVariable:
    """The joint variable of two or more variables, keyed by value tuples."""
    keys = list(zip(*(x.table for x in xs)))
    attained = sorted(set(keys))
    index = {key: k for k, key in enumerate(attained)}

    def escaped(label):
        return "".join("\\" + ch if ch in "\\,()" else ch for ch in label)

    codomain = tuple(
        "(" + ",".join(escaped(x.codomain[v]) for x, v in zip(xs, key)) + ")"
        for key in attained
    )
    return RandomVariable(
        name="(" + ",".join(x.name for x in xs) + ")",
        codomain=codomain,
        table=tuple(index[key] for key in keys),
    )


def oracle_history(space: FactoredSpace, c: Block, x: RandomVariable) -> frozenset[int]:
    """Subset-minimal generating set; asserts there is exactly one."""
    gens = oracle_generating_sets(space, c, x)
    minimal = {g for g in gens if not any(h < g for h in gens)}
    assert len(minimal) == 1, f"expected a unique minimal generating set, got {minimal}"
    return next(iter(minimal))


def oracle_factorize(space: FactoredSpace, ranks: tuple[int, ...]):
    """The atom factorization of a block by counting sets of projection keys.

    The same incremental algorithm as the package (product exit, product
    shortcut, merge rule), with every projection counted as the set of its
    keys, sums of digits times strides, rather than by bitset folds.
    Returns the trivial mask and the atom masks by lowest factor.
    """
    cols = [
        [space.digits(k)[r] * space.stride(k) for r in ranks]
        for k in range(space.factor_count)
    ]
    widths = [len(set(col)) for col in cols]
    free = [k for k, w in enumerate(widths) if w > 1]
    trivial = sum(1 << k for k, w in enumerate(widths) if w == 1)
    rest = [1] * (len(free) + 1)  # rest[i]: product of the widths of free[i:]
    for i in range(len(free) - 1, -1, -1):
        rest[i] = rest[i + 1] * widths[free[i]]
    seen = ()  # keys of proj_S, S = the free factors so far
    seen_count = 1
    atoms = []  # (mask, keys of proj_A, |proj_A|)
    for i, k in enumerate(free):
        if seen_count * rest[i] == len(ranks):
            atoms += [(1 << j, cols[j], widths[j]) for j in free[i:]]
            break
        if not atoms:
            grown, count = cols[k], widths[k]
        elif k == free[-1]:
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
    return trivial, tuple(sorted((mask for mask, _, _ in atoms), key=lambda m: m & -m))


def oracle_widths(space: FactoredSpace, ranks) -> list[int]:
    """|proj_k| of a block for every factor k: the set of its k-coordinates."""
    outcomes = [outcome_unrank(space, r) for r in ranks]
    return [len({o[k] for o in outcomes}) for k in range(space.factor_count)]


def oracle_projection_counts(space: FactoredSpace, ranks):
    """A block's projection counts, each the size of a set of coordinate tuples.

    Returns the block's free factors (those of more than one value on it),
    the width |proj_k| of every factor k, and count(i, drop) = |proj_J| for
    J = free[:i] minus the factor ids in drop: the inputs of the package's
    atom rule (history._atoms), with no bitset.
    """
    outcomes = [outcome_unrank(space, r) for r in ranks]
    widths = oracle_widths(space, ranks)
    free = [k for k, w in enumerate(widths) if w > 1]

    def count(i, drop):
        ids = [k for k in free[:i] if k not in drop]
        return len({tuple(o[k] for k in ids) for o in outcomes})

    return free, widths, count


def oracle_sample_ints(space: FactoredSpace, seed: int, top: int = 101) -> list[list[int]]:
    """The numerators of sample_product(space, seed), one list per factor.

    Byte j of the stream of seed is the last byte of the SHAKE-256 digest,
    j + 1 bytes long, of the decimal digits of seed.  Bytes are read one at
    a time; a byte b whose top top.bit_length() bits are below top gives
    the numerator 1 + those bits, any other byte is skipped.  The first
    sum of the factor sizes numerators fill the factors in order.
    """
    key = str(seed).encode("ascii")
    shift = 8 - top.bit_length()
    nums: list[int] = []
    length = 0
    while len(nums) < sum(f.size for f in space.factors):
        length += 1
        b = hashlib.shake_256(key).digest(length)[-1]
        if b >> shift < top:
            nums.append(1 + (b >> shift))
    out = []
    for f in space.factors:
        out.append(nums[: f.size])
        del nums[: f.size]
    return out


def oracle_event_prob(space: FactoredSpace, p: ProductDistribution, ranks) -> Fraction:
    return sum(
        (outcome_prob(p, outcome_unrank(space, r)) for r in ranks), Fraction(0)
    )


def oracle_ci(
    space: FactoredSpace,
    p: ProductDistribution,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable,
) -> bool:
    """P(x,y|z) == P(x|z) P(y|z) straight from the definitions, with Fractions."""
    for zv in set(z.table):
        z_ranks = [r for r in range(space.outcome_count) if z.table[r] == zv]
        pz = oracle_event_prob(space, p, z_ranks)
        assert pz > 0, "oracle_ci expects positive distributions"
        for xv in range(len(x.codomain)):
            for yv in range(len(y.codomain)):
                joint = oracle_event_prob(
                    space,
                    p,
                    [r for r in z_ranks if x.table[r] == xv and y.table[r] == yv],
                )
                px = oracle_event_prob(space, p, [r for r in z_ranks if x.table[r] == xv])
                py = oracle_event_prob(space, p, [r for r in z_ranks if y.table[r] == yv])
                if joint / pz != (px / pz) * (py / pz):
                    return False
    return True


def oracle_ci_all_products(
    space: FactoredSpace, x: RandomVariable, y: RandomVariable, z: RandomVariable
) -> bool:
    """Does x _||_ y | z hold under every positive product distribution?

    On a block C and values (a, b), P(x=a, y=b, C) P(C) - P(x=a, C) P(y=b, C)
    is a polynomial in the factor vectors, homogeneous of degree 2 in each,
    so it vanishes on every product of positive simplices iff all its
    monomial coefficients are 0.  The monomial of an outcome pair (r, s) is
    fixed by the unordered coordinate pairs {r_i, s_i}, so the coefficients
    are the counts of the pairs in cell(a, b) x C and in
    (X_a & C) x (Y_b & C) by that signature.  Unattained values give empty
    sides, so only the attained ones are compared.
    """
    outcomes = [outcome_unrank(space, r) for r in range(space.outcome_count)]

    def signatures(left, right) -> Counter:
        return Counter(
            tuple(tuple(sorted(pair)) for pair in zip(outcomes[r], outcomes[s]))
            for r in left
            for s in right
        )

    for zv in set(z.table):
        c = [r for r in range(space.outcome_count) if z.table[r] == zv]
        for a in {x.table[r] for r in c}:
            x_a = [r for r in c if x.table[r] == a]
            for b in {y.table[r] for r in c}:
                y_b = [r for r in c if y.table[r] == b]
                cell = [r for r in x_a if y.table[r] == b]
                if signatures(cell, c) != signatures(x_a, y_b):
                    return False
    return True


def oracle_int_weights(space: FactoredSpace, p: ProductDistribution) -> list[int]:
    """Outcome probabilities times the product of the per-factor denominators' lcms.

    These are the integers the package's CI path works with: each factor's
    vector scaled by the lcm of its denominators, multiplied out per outcome.
    """
    scale = math.prod(math.lcm(*(e.denominator for e in vec)) for vec in p.per_factor)
    out = []
    for r in range(space.outcome_count):
        w = outcome_prob(p, outcome_unrank(space, r)) * scale
        assert w.denominator == 1
        out.append(w.numerator)
    return out


def oracle_cell_sums(
    space: FactoredSpace,
    vecs: list[list[int]],
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable | None,
    blocks: list,
) -> list[int]:
    """Each cell's weight under the product of vecs, by a per-rank pass.

    blocks lists (block label, [(x-value, y-value, cell index), ...]) per
    block of z, as a prepared CI query holds them.  The weight of rank r is
    the product of its coordinates' entries in vecs, and it is added to the
    cell of z's, x's and y's values at r; every attained triple must be a
    cell, and every cell is listed once.
    """
    cell = {}
    for label, refs in blocks:
        c = 0 if z is None else z.codomain.index(label)
        for a, b, k in refs:
            cell[(c, a, b)] = k
    assert sorted(cell.values()) == list(range(len(cell)))
    sums = [0] * len(cell)
    for r in range(space.outcome_count):
        w = math.prod(vec[v] for vec, v in zip(vecs, outcome_unrank(space, r)))
        sums[cell[(0 if z is None else z.table[r], x.table[r], y.table[r])]] += w
    return sums


def oracle_ci_report(
    space: FactoredSpace,
    p: ProductDistribution | list[list[int]],
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable,
) -> CiReport:
    """The full CI report by a per-rank pass over each block of z.

    p is a product distribution or one integer vector per factor; integer
    vectors may be all zero, which no distribution can be.  Blocks are
    taken in codomain order and value pairs (a, b) in row-major order, so
    the first violation is the one the package must report.
    """
    if isinstance(p, ProductDistribution):
        weights = oracle_int_weights(space, p)
    else:
        weights = [
            math.prod(vec[v] for vec, v in zip(p, outcome_unrank(space, r)))
            for r in range(space.outcome_count)
        ]
    kx, ky = len(x.codomain), len(y.codomain)
    for zv, zlabel in enumerate(z.codomain):
        ranks = [r for r in range(space.outcome_count) if z.table[r] == zv]
        if not ranks:
            continue
        total = 0
        wx = [0] * kx
        wy = [0] * ky
        joint: dict[tuple[int, int], int] = {}
        for r in ranks:
            w = weights[r]
            total += w
            a, b = x.table[r], y.table[r]
            wx[a] += w
            wy[b] += w
            joint[a, b] = joint.get((a, b), 0) + w
        if total == 0:
            raise DegenerateBlockError(f"block {zlabel!r} has zero probability mass")
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


def oracle_joint_factorizes(
    space: FactoredSpace,
    p: ProductDistribution,
    xs,
    z: RandomVariable,
) -> bool:
    """P(x1,..,xk | z) equals the product of the P(xj | z), by a per-rank pass.

    Per block: the joint weight of every value tuple times total**(k-1)
    must equal the product of the per-variable weights, over the full grid
    of value tuples, attained or not.
    """
    weights = oracle_int_weights(space, p)
    sizes = [len(v.codomain) for v in xs]
    for zv in set(z.table):
        total = 0
        per_var = [[0] * s for s in sizes]
        joint: dict[tuple[int, ...], int] = {}
        for r in range(space.outcome_count):
            if z.table[r] != zv:
                continue
            w = weights[r]
            total += w
            key = tuple(v.table[r] for v in xs)
            for slot, val in enumerate(key):
                per_var[slot][val] += w
            joint[key] = joint.get(key, 0) + w
        power = total ** (len(xs) - 1)
        for key in product(*(range(s) for s in sizes)):
            rhs = math.prod(per_var[slot][val] for slot, val in enumerate(key))
            if joint.get(key, 0) * power != rhs:
                return False
    return True


def oracle_duality(
    space: FactoredSpace,
    x: RandomVariable,
    z: RandomVariable,
    cfg: SuiteConfig,
    index: int = 0,
) -> DualityOutcome:
    """The duality law through the public Fraction API, one pair at a time.

    Same streams as the suite: a sample_product base, sample_vector
    perturbations validated by perturb_factor, irrelevance_invariance for
    the out-of-history direction, and a changed block_conditional as a
    maximality hit.
    """
    base = sample_product(space, _int_seed(cfg.seed, "dual-base", index))
    ch = conditional_history(space, x, z)
    violations = witnessed = inconclusive = 0
    for i in range(space.factor_count):
        size = space.factors[i].size
        for t in range(IRRELEVANCE_TRIALS):
            vec = sample_vector(_stream(cfg.seed, f"dual-vec:{index}:{i}", t), size)
            pair = perturb_factor(base, i, vec)
            violations += len(irrelevance_invariance(space, pair, x, z).violations)
        for label, c in blocks_of(space, z).items():
            if i not in ch.per_block[label]:
                continue
            before = block_conditional(space, base, x, c)
            for t in range(cfg.perturbation_budget):
                vec = sample_vector(
                    _stream(cfg.seed, f"dual-max:{index}:{i}:{label}", t), size
                )
                after = block_conditional(space, perturb_factor(base, i, vec).perturbed, x, c)
                if after != before:
                    witnessed += 1
                    break
            else:
                inconclusive += 1
    return DualityOutcome(
        irrelevance_violations=violations,
        maximality_witnessed=witnessed,
        maximality_inconclusive=inconclusive,
    )


def _neighbors(dag: Dag):
    adj: dict[str, set[str]] = {n: set() for n in dag.nodes}
    for p, c in dag.edges:
        adj[p].add(c)
        adj[c].add(p)
    return adj


def oracle_dsep_walks(dag: Dag, x: str, y: str, zs, max_nodes: int | None = None) -> bool:
    """Walk semantics applied literally: active iff colliders are exactly Z-nodes.

    A d-connecting walk, when one exists, exists with at most 2|V| edges, so
    the enumeration is capped there.
    """
    z = set(zs)
    adj = _neighbors(dag)
    edge_set = set(dag.edges)
    limit = max_nodes if max_nodes is not None else 2 * len(dag.nodes) + 1
    stack: list[tuple[str, ...]] = [(x,)]
    while stack:
        walk = stack.pop()
        last = walk[-1]
        if last == y:
            return False
        if len(walk) >= limit:
            continue
        for nxt in adj[last]:
            if len(walk) >= 2:
                a = walk[-2]
                is_collider = (a, last) in edge_set and (nxt, last) in edge_set
                if is_collider != (last in z):
                    continue
            stack.append(walk + (nxt,))
    return True


def oracle_dsep_moralize(dag: Dag, xs, ys, zs) -> bool:
    """Classic route: ancestral subgraph, moralize, drop Z, undirected search."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    keep = set(xs | ys | zs)
    changed = True
    while changed:
        changed = False
        for p, c in dag.edges:
            if c in keep and p not in keep:
                keep.add(p)
                changed = True
    undirected: dict[str, set[str]] = {n: set() for n in keep}
    for p, c in dag.edges:
        if p in keep and c in keep:
            undirected[p].add(c)
            undirected[c].add(p)
    for n in keep:
        parents = [p for p, c in dag.edges if c == n and p in keep]
        for a in parents:
            for b in parents:
                if a != b:
                    undirected[a].add(b)
                    undirected[b].add(a)
    frontier = list(xs)
    seen = set(xs)
    while frontier:
        n = frontier.pop()
        if n in ys:
            return False
        for m in undirected[n]:
            if m not in seen and m not in zs:
                seen.add(m)
                frontier.append(m)
    return True


def oracle_embed_tables(dag: Dag) -> dict[str, tuple[int, ...]]:
    """X_v tables of the response-function embedding, one outcome at a time.

    Outcomes are enumerated in rank order (u_v factors in node order, the
    last varying fastest); at each one the nodes are evaluated in
    topological order, reading the response to parent-assignment rank a as
    base-|dom v| digit a of u_v, most significant first.
    """
    doms = dag.domains
    m = {v: math.prod(doms[p] for p in dag.parents(v)) for v in dag.nodes}
    sizes = [doms[v] ** m[v] for v in dag.nodes]
    tables: dict[str, list[int]] = {v: [] for v in dag.nodes}
    for outcome in product(*(range(s) for s in sizes)):
        u = dict(zip(dag.nodes, outcome))
        vals: dict[str, int] = {}
        for v in dag.topological_order():
            pa_rank = 0
            for p in dag.parents(v):
                pa_rank = pa_rank * doms[p] + vals[p]
            vals[v] = u[v] // doms[v] ** (m[v] - 1 - pa_rank) % doms[v]
            tables[v].append(vals[v])
    return {v: tuple(t) for v, t in tables.items()}


def oracle_separation_global(space: FactoredSpace, z: RandomVariable, ids) -> bool:
    """Full event enumeration of the separator condition for one side J.

    Events from the J side are unions of (J-projection, z-value) classes,
    events from the complementary side likewise; disjoint pairs must admit a
    separator that is a union of z-blocks.  Exponential in the outcome
    count, so callers keep spaces tiny.
    """
    n = space.outcome_count
    ids = sorted(set(ids))
    others = [i for i in range(space.factor_count) if i not in ids]

    def classes(proj_ids):
        groups: dict[tuple, frozenset[int]] = {}
        for r in range(n):
            o = outcome_unrank(space, r)
            key = (tuple(o[i] for i in proj_ids), z.table[r])
            groups.setdefault(key, frozenset())
            groups[key] |= {r}
        return list(groups.values())

    def unions(parts):
        out = set()
        for pick in all_subsets(range(len(parts))):
            ranks = frozenset().union(*(parts[k] for k in pick)) if pick else frozenset()
            out.add(ranks)
        return out

    blocks = {}
    for r in range(n):
        blocks.setdefault(z.table[r], set()).add(r)
    separators = unions([frozenset(b) for b in blocks.values()])
    side_j = unions(classes(ids))
    side_rest = unions(classes(others))
    for a in side_j:
        for b in side_rest:
            if a & b:
                continue
            if not any(a <= c and not (b & c) for c in separators):
                return False
    return True
