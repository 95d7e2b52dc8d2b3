"""Conditional histories and structural independence over finite factored spaces.

The package models a finite factored space (an ordered product of finite
factors), computes the minimal factor sets that determine a random variable
on each conditioning block (its conditional history), and decides structural
independence as per-block disjointness of histories.  Exact-rational product
distributions connect the structural notion to ordinary conditional
independence, a response-function embedding bridges to DAG d-separation, and
seeded suites verify the algebraic laws end to end.
"""

from .errors import (
    DegenerateBlockError,
    FacthistError,
    FormatError,
    InvalidOutcomeError,
    InvalidQueryError,
    InvalidRankError,
    InvariantViolationError,
    PerturbationError,
    PreconditionError,
    SpaceCapError,
    SpaceMismatchError,
    UnknownFactorError,
    UnknownNameError,
    UnknownNodeError,
)
from .space import (
    DEFAULT_MAX_FACTORS,
    DEFAULT_MAX_OUTCOMES,
    OUTCOME_CAP_ENV,
    TRIVIAL_LABEL,
    Block,
    Factor,
    FactoredSpace,
    IndexSet,
    Outcome,
    RandomVariable,
    blocks_of,
    factor_var,
    fold_pair,
    full_block,
    outcome_rank,
    outcome_unrank,
    pair_var,
    space_from_doc,
    space_to_doc,
    support,
    trivial_var,
)
from .history import (
    ConditionalHistory,
    DisintegrationAtoms,
    IndependenceVerdict,
    conditional_history,
    determines,
    disintegration_atoms,
    generates,
    history,
    is_rectangle,
    structural_time_leq,
    structurally_independent,
)
from .distributions import (
    CiReport,
    IdentityReport,
    InvarianceReport,
    PerturbationPair,
    ProductDistribution,
    SoundnessReport,
    block_conditional,
    cond_table,
    distribution_from_doc,
    distribution_to_doc,
    find_witness,
    irrelevance_invariance,
    is_cond_independent,
    outcome_prob,
    perturb_factor,
    product_difference_identity,
    sample_product,
    sample_vector,
    spawn_seed,
    uniform_product,
    verify_soundness,
)
from .dag import (
    Dag,
    Embedding,
    ancestors,
    d_separated,
    dag_from_doc,
    dag_to_doc,
    embed_dag,
)
from .verification import (
    HISTORY_LAWS,
    SEMIGRAPHOID_AXIOMS,
    SUITE_MAX_FACTORS,
    SUITE_MAX_OUTCOMES,
    DualityOutcome,
    LawTally,
    SuiteConfig,
    SuiteReport,
    check_duality,
    check_history_laws,
    check_semigraphoid,
    gen_random_space,
    gen_random_variable,
    run_suite,
)

__version__ = "0.1.0"
