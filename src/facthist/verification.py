"""Randomized, seeded verification suites for the package's laws.

Every suite draws instances deterministically from a master seed: structure
generation uses string-keyed RNG streams, distribution sampling uses integer
subseeds derived by hashing, so results are identical regardless of
execution order and reports are byte-for-byte reproducible.

Asserted laws (semigraphoid axioms, history laws, closure properties,
soundness, the perturbation identities) must hold on every instance; a
failure is a defect and makes the suite report as failed.  Two outcomes are
deliberately weaker: a completeness witness miss is retried once with a
fresh stream and only a reproducible miss counts as a failure, and the
maximality direction of the history/irrelevance duality is budgeted search,
so a miss is recorded as inconclusive, never as a pass.

The exhaustive mask loop of check_history_laws reads the rectangle and
determination tests of every factor mask at once from the history module,
which folds each block once per mask.

The duality law runs on integer draws, the numerators sample_product and
sample_vector normalize, with one blocks/histories pass per call: each
block's rows of x-marginals under the base and the perturbed weights
(distributions._block_marginal) are compared by distributions._shifts.
The joint-factorization law is
the chain rule over is_cond_independent.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from operator import add
from typing import Callable, Mapping, Sequence

from .distributions import (
    ProductDistribution,
    _block_marginal,
    _draw_bytes,
    _draw_ints,
    _expand,
    _sample_ints,
    _shifts,
    find_witness,
    is_cond_independent,
    perturb_factor,
    product_difference_identity,
    sample_product,
    sample_vector,
    verify_soundness,
)
from .history import (
    _mask_tests,
    conditional_history,
    disintegration_atoms,
    history,
    structurally_independent,
)
from .space import (
    Block,
    Factor,
    FactoredSpace,
    RandomVariable,
    blocks_of,
    fold_pair,
    pair_var,
    space_to_doc,
)

__all__ = [
    "SEMIGRAPHOID_AXIOMS",
    "HISTORY_LAWS",
    "SUITE_MAX_FACTORS",
    "SUITE_MAX_OUTCOMES",
    "SuiteConfig",
    "LawTally",
    "SuiteReport",
    "DualityOutcome",
    "gen_random_space",
    "gen_random_variable",
    "check_semigraphoid",
    "check_history_laws",
    "check_duality",
    "run_suite",
]

IRRELEVANCE_TRIALS = 3

# The most factors an instance space may have.  The history laws loop over
# all 2**n factor masks, so the widest instances dominate: with domains of
# up to 3 values, three iterations of the slowest of 25 seeds take 1.0 s at
# 8 factors, 0.5 s at 9 and 5.7 s at 10, against medians of 0.04 s to
# 0.2 s (2 cores, Python 3.11).
SUITE_MAX_FACTORS = 8

# The largest instance space the bounds may allow: max_domain ** max_factors
# is at most the outcome count of 8 factors of 3 values.  Few factors cost
# far less per outcome: three iterations took at most 0.14 s at 2 factors
# and domains up to 81, and 0.2 s at 4 and 9 (the slowest of 25 seeds
# each, same machine).  Without it, 4 factors and domains up to 30 ran
# 19.8 s for two iterations, and larger domains hit the space cap (exit 3)
# only after the instances before them had run.
SUITE_MAX_OUTCOMES = 3**SUITE_MAX_FACTORS

SEMIGRAPHOID_AXIOMS = (
    "symmetry",
    "decomposition",
    "weak_union",
    "contraction",
    "composition",
)

HISTORY_LAWS = (
    "self_emptiness",
    "emptiness",
    "compositionality",
    "monotonicity",
    "removal",
    "null",
    "atom_law",
    "generating_intersection",
    "minimality",
    "rectangle_field",
    "rectangle_symmetry",
    "atoms_rectangle",
    "atoms_fast_path",
)


@dataclass(frozen=True)
class SuiteConfig:
    """Generation bounds and budgets for one suite run."""

    seed: int = 0
    iterations: int = 20
    max_factors: int = 4
    max_domain: int = 3
    sample_count: int = 50
    witness_budget: int = 64
    perturbation_budget: int = 16

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not 2 <= self.max_factors <= SUITE_MAX_FACTORS:
            raise ValueError(f"max_factors must lie in 2..{SUITE_MAX_FACTORS}")
        if self.max_domain < 2:
            raise ValueError("max_domain must be at least 2")
        if self.max_domain**self.max_factors > SUITE_MAX_OUTCOMES:
            raise ValueError(
                f"max_domain ** max_factors must be at most {SUITE_MAX_OUTCOMES}"
            )
        if min(self.sample_count, self.witness_budget, self.perturbation_budget) < 0:
            raise ValueError("budgets must be non-negative")


def _int_seed(seed: int, tag: str, k: int = 0) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _stream(seed: int, tag: str, k: int = 0) -> random.Random:
    return random.Random(f"{seed}:{tag}:{k}")


def gen_random_space(cfg: SuiteConfig, index: int) -> FactoredSpace:
    """Instance space number ``index``: 2..max_factors factors, small domains."""
    rng = _stream(cfg.seed, "space", index)
    n = rng.randint(2, cfg.max_factors)
    factors = []
    for i in range(n):
        d = rng.randint(2, cfg.max_domain)
        factors.append(Factor(name=f"u{i}", domain=tuple(str(v) for v in range(d))))
    return FactoredSpace(factors)


def gen_random_variable(
    space: FactoredSpace, cfg: SuiteConfig, index: int, *, name: str | None = None
) -> RandomVariable:
    """A uniformly random table with a codomain of 1 to 4 values."""
    rng = _stream(cfg.seed, "var", index)
    k = rng.randint(1, 4)
    return RandomVariable(
        name=name if name is not None else f"v{index}",
        codomain=tuple(str(v) for v in range(k)),
        table=_draw_bytes(rng, space.outcome_count, k, 0),
    )


def check_semigraphoid(
    space: FactoredSpace,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable,
    w: RandomVariable,
) -> dict[str, bool]:
    """Evaluate the five compositional-semigraphoid axioms on one instance.

    Each axiom is an implication between structural verdicts; a vacuously
    true antecedent counts as holding.
    """

    def ind(a: RandomVariable, b: RandomVariable, c: RandomVariable) -> bool:
        return structurally_independent(space, a, b, c).independent

    yw = pair_var(space, y, w)
    zw = pair_var(space, z, w)
    zy = pair_var(space, z, y)
    x_yw_z = ind(x, yw, z)
    x_y_z = ind(x, y, z)
    return {
        "symmetry": x_y_z == ind(y, x, z),
        "decomposition": (not x_yw_z) or x_y_z,
        "weak_union": (not x_yw_z) or ind(x, y, zw),
        "contraction": (not (x_y_z and ind(x, w, zy))) or x_yw_z,
        "composition": (not (x_y_z and ind(x, w, z))) or x_yw_z,
    }


def _constant_on(table: Sequence[int], c: Block) -> bool:
    first = table[c.ranks[0]]
    return all(table[r] == first for r in c.ranks)


def check_history_laws(
    space: FactoredSpace,
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable,
    *,
    rng: random.Random,
) -> dict[str, bool]:
    """Exact per-block history laws and closure properties on one instance.

    Covers: the conditioner's own history is empty; empty history means
    constant on the block; pair histories are unions; post-composition can
    only shrink a history; dropping the history of a coordinate bundle
    leaves nothing; a bundle with empty history is disjoint from every
    history; rectangle bundles have history equal to their non-constant
    part; generating sets are intersection-closed with the history as least
    element; rectangle sets form a field symmetric under complement; the
    rectangle sets are exactly unions of atoms plus constant factors; and
    history() returns the least generating set found by the exhaustive
    mask loop here, an enumeration independent of the atom algorithm.
    """
    n = space.factor_count
    results = {law: True for law in HISTORY_LAWS}

    # The bundle U_J as the joint of the factors in J, each outcome keyed by
    # the mixed-radix value of its J-coordinates (below outcome_count): an
    # injective relabelling of the joint, so it has the same history.
    # Each U_J is built once per call, from U_J of J less its highest factor.
    key_labels = tuple(map(str, range(space.outcome_count)))
    bundles: dict[int, RandomVariable] = {}

    def uj(mask: int) -> RandomVariable:
        bundle = bundles.get(mask)
        if bundle is None:
            if mask:
                i = mask.bit_length() - 1
                rest = uj(mask ^ (1 << i)).table
                size = space.factors[i].size
                keys = map(add, map(size.__mul__, rest), space.digits(i))
            else:
                keys = bytes(space.outcome_count)
            bundle = RandomVariable(name="U_J", codomain=key_labels, table=keys)
            bundles[mask] = bundle
        return bundle

    xy = pair_var(space, x, y)
    f_size = rng.randint(1, len(y.codomain))
    f_map = [rng.randrange(f_size) for _ in range(len(y.codomain))]
    post_y = RandomVariable(
        name="f(y)",
        codomain=tuple(str(v) for v in range(f_size)),
        table=map(f_map.__getitem__, y.table),
    )
    j_removal = rng.randrange(1 << n)
    j_null = rng.randrange(1 << n)
    full = (1 << n) - 1

    for label, c in blocks_of(space, z).items():
        hx = history(space, c, x)
        hy = history(space, c, y)
        if history(space, c, z):
            results["self_emptiness"] = False
        if bool(hx) == _constant_on(x.table, c):
            results["emptiness"] = False
        if history(space, c, xy) != hx | hy:
            results["compositionality"] = False
        if not history(space, c, post_y).issubset(hy):
            results["monotonicity"] = False
        h_rem = history(space, c, uj(j_removal))
        if history(space, c, uj(j_removal & ~h_rem.mask)):
            results["removal"] = False
        if not history(space, c, uj(j_null)) and hx.mask & j_null:
            results["null"] = False

        parts = disintegration_atoms(space, c)
        trivial_mask = parts.trivial_part.mask
        rectangles, determined = _mask_tests(space, c, x)
        rect_masks = {m for m, rect in enumerate(rectangles) if rect}
        for mask in rect_masks:
            if history(space, c, uj(mask)).mask != mask & ~trivial_mask:
                results["atom_law"] = False
        # Generation is the rectangle condition plus determination.
        gen_masks = [m for m in sorted(rect_masks) if determined[m]]
        gen_set = set(gen_masks)
        inter_all = full
        for a in gen_masks:
            inter_all &= a
            for b in gen_masks:
                if a & b not in gen_set:
                    results["generating_intersection"] = False
        min_card = min(m.bit_count() for m in gen_masks)
        if inter_all != hx.mask or any(
            m != hx.mask for m in gen_masks if m.bit_count() == min_card
        ):
            results["minimality"] = False
        for a in rect_masks:
            if (a ^ full) not in rect_masks:
                results["rectangle_symmetry"] = False
            for b in rect_masks:
                if a & b not in rect_masks or a | b not in rect_masks:
                    results["rectangle_field"] = False
        for mask in range(1 << n):
            union_of_atoms = all(mask & a.mask in (0, a.mask) for a in parts.atoms)
            if (mask in rect_masks) != union_of_atoms:
                results["atoms_rectangle"] = False
        if inter_all not in gen_set or inter_all != hx.mask:
            results["atoms_fast_path"] = False
    return results


@dataclass(frozen=True)
class DualityOutcome:
    """Duality between histories and perturbation sensitivity on one instance."""

    irrelevance_violations: int
    maximality_witnessed: int
    maximality_inconclusive: int


def check_duality(
    space: FactoredSpace,
    x: RandomVariable,
    z: RandomVariable,
    cfg: SuiteConfig,
    index: int = 0,
) -> DualityOutcome:
    """Both directions of the duality between histories and irrelevance.

    Out-of-history factors must leave conditionals untouched on the block,
    exactly, for every sampled perturbation pair.  In-history factors must
    move some conditional for at least one of perturbation_budget sampled
    vectors; a budget exhausted without a hit is inconclusive, not a pass.
    """
    base = _sample_ints(space, _int_seed(cfg.seed, "dual-base", index))
    k = len(x.codomain)
    blocks = blocks_of(space, z)
    hist = conditional_history(space, x, z).per_block
    base_w = _expand(base)
    base_rows = {
        label: _block_marginal(base_w, c, x.table, k) for label, c in blocks.items()
    }

    def perturbed(i: int, vec: list[int]) -> list[int]:
        return _expand(base[:i] + [vec] + base[i + 1 :])

    def shifts(w: list[int], label: str) -> list[int]:
        return _shifts(base_rows[label], _block_marginal(w, blocks[label], x.table, k))

    violations = 0
    witnessed = 0
    inconclusive = 0
    for i in range(space.factor_count):
        size = space.factors[i].size
        outside = [label for label in blocks if i not in hist[label]]
        if outside:
            for t in range(IRRELEVANCE_TRIALS):
                vec = _draw_ints(_stream(cfg.seed, f"dual-vec:{index}:{i}", t), size)
                w = perturbed(i, vec)
                for label in outside:
                    violations += sum(map(bool, shifts(w, label)))
        for label in blocks:
            if i not in hist[label]:
                continue
            for t in range(cfg.perturbation_budget):
                vec = _draw_ints(
                    _stream(cfg.seed, f"dual-max:{index}:{i}:{label}", t), size
                )
                if any(shifts(perturbed(i, vec), label)):
                    witnessed += 1
                    break
            else:
                inconclusive += 1
    return DualityOutcome(
        irrelevance_violations=violations,
        maximality_witnessed=witnessed,
        maximality_inconclusive=inconclusive,
    )


def check_separation_characterization(*args: object, **kwargs: object) -> None:
    """Former separator check, which restated the rectangle test exactly.

    Not exported and not called.  It stays defined only because the
    benchmark tracer (perfbench/spans.py) looks it up by name; drop it
    together with that entry.
    """
    raise NotImplementedError("the separator check was removed; use is_rectangle")


def _joint_factorizes(
    space: FactoredSpace,
    p: ProductDistribution,
    xs: Sequence[RandomVariable],
    z: RandomVariable,
) -> bool:
    """Does P(x1,..,xk | z) factor into marginals on every block, exactly?

    By the chain rule, iff (x1,..,xj) is independent of x(j+1) given z for
    every j (blocks have positive mass).
    """
    return all(
        is_cond_independent(space, p, fold_pair(space, xs[:j]), xs[j], z).holds
        for j in range(1, len(xs))
    )


@dataclass
class LawTally:
    passed: int = 0
    failed: int = 0
    inconclusive: int = 0


@dataclass
class SuiteReport:
    """Aggregated tallies plus replayable counterexamples for one suite run."""

    config: SuiteConfig
    tallies: dict[str, LawTally] = field(default_factory=dict)
    counterexamples: list[dict] = field(default_factory=list)

    def tally(self, law: str) -> LawTally:
        return self.tallies.setdefault(law, LawTally())

    @property
    def any_asserted_failure(self) -> bool:
        return any(t.failed for t in self.tallies.values())

    def to_doc(self) -> dict:
        # Every field is an int, so a copy of each instance dict is what
        # dataclasses.asdict would build, without its deep copy.
        return {
            "config": dict(vars(self.config)),
            "laws": {name: dict(vars(t)) for name, t in sorted(self.tallies.items())},
            "counterexamples": self.counterexamples,
            "failed": self.any_asserted_failure,
        }

    def to_json(self, *, pretty: bool = False) -> str:
        doc = self.to_doc()
        if pretty:
            return json.dumps(doc, sort_keys=True, indent=2)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Generate cfg.iterations instances and run every law family on each."""
    report = SuiteReport(config=cfg)
    for i in range(cfg.iterations):
        space = gen_random_space(cfg, i)
        x = gen_random_variable(space, cfg, 4 * i, name="x")
        y = gen_random_variable(space, cfg, 4 * i + 1, name="y")
        z = gen_random_variable(space, cfg, 4 * i + 2, name="z")
        w = gen_random_variable(space, cfg, 4 * i + 3, name="w")

        def law(name: str, ok: bool, detail: Callable[[], dict] = dict) -> None:
            """Tally the law; on a failure record a counterexample with detail()."""
            if ok:
                report.tally(name).passed += 1
                return
            report.tally(name).failed += 1
            report.counterexamples.append(
                {
                    "instance": i,
                    "law": name,
                    "space": space_to_doc(space, {"x": x, "y": y, "z": z, "w": w}),
                    "detail": detail(),
                }
            )

        verdict = structurally_independent(space, x, y, z)
        if verdict.independent:
            sound = verify_soundness(
                space, x, y, z, cfg.sample_count, _int_seed(cfg.seed, "ft", i)
            )
            law(
                "soundness_ci",
                sound.all_hold,
                lambda: {
                    "sample": sound.violations[0][0],
                    "violation": [str(v) for v in sound.violations[0][1].first_violation],
                },
            )
        else:
            witness = find_witness(
                space, x, y, z, cfg.witness_budget, _int_seed(cfg.seed, "wit", i)
            )
            if witness is None:
                witness = find_witness(
                    space, x, y, z, cfg.witness_budget,
                    _int_seed(cfg.seed, "wit-retry", i),
                )
            # A miss that survives a fresh stream is treated as a defect.
            law(
                "completeness_witness",
                witness is not None,
                lambda: {"budget": cfg.witness_budget},
            )

        for axiom, ok in check_semigraphoid(space, x, y, z, w).items():
            law(f"semigraphoid_{axiom}", ok)

        laws = check_history_laws(space, x, y, z, rng=_stream(cfg.seed, "laws", i))
        for name, ok in laws.items():
            law(f"history_{name}", ok)

        duality = check_duality(space, x, z, cfg, index=i)
        law(
            "duality_irrelevance",
            duality.irrelevance_violations == 0,
            lambda: {"violations": duality.irrelevance_violations},
        )
        report.tally("duality_maximality").passed += duality.maximality_witnessed
        report.tally("duality_maximality").inconclusive += (
            duality.maximality_inconclusive
        )

        if verdict.independent:
            rng = _stream(cfg.seed, "identity", i)
            factor = rng.randrange(space.factor_count)
            vec = sample_vector(rng, space.factors[factor].size)
            base = sample_product(space, _int_seed(cfg.seed, "id-base", i))
            pair = perturb_factor(base, factor, vec)
            ident = product_difference_identity(space, pair, x, y, z)
            law(
                "identity_product_difference",
                ident.holds,
                lambda: {
                    "factor": factor,
                    "violation": [str(v) for v in ident.first_violation],
                },
            )

        pairwise = (
            verdict.independent
            and structurally_independent(space, x, w, z).independent
            and structurally_independent(space, y, w, z).independent
        )
        if pairwise:
            p = sample_product(space, _int_seed(cfg.seed, "vec", i))
            law("vector_factorization", _joint_factorizes(space, p, (x, y, w), z))
    return report
