"""Independent reference implementations used to check the package.

Everything in here recomputes results from first principles, by brute
force, without reusing the package's algorithms: rectangles by literal
cross-pair membership, determination by pairwise comparison, histories by
enumerating all subsets and taking the subset-minimal generating ones,
probabilities by summing exact outcome products, CI reports and joint
factorization by a per-rank pass over each block, the duality law through
the public Fraction API, d-separation both by walk enumeration and by
moralization, DAG embeddings by evaluating every node at every outcome,
and the separator condition by full event enumeration.  Slow on purpose;
only run on small inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations, product

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


def oracle_history(space: FactoredSpace, c: Block, x: RandomVariable) -> frozenset[int]:
    """Subset-minimal generating set; asserts there is exactly one."""
    gens = oracle_generating_sets(space, c, x)
    minimal = {g for g in gens if not any(h < g for h in gens)}
    assert len(minimal) == 1, f"expected a unique minimal generating set, got {minimal}"
    return next(iter(minimal))


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


def oracle_ci_report(
    space: FactoredSpace,
    p: ProductDistribution | list[list[int]],
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable,
    tolerance: float | None = None,
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
                lhs_num = joint.get((a, b), 0) * total
                rhs_num = wx[a] * wy[b]
                if tolerance is None:
                    ok = lhs_num == rhs_num
                else:
                    ok = abs(lhs_num - rhs_num) <= tolerance * total * total
                if not ok:
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
