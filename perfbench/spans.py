"""Spans around the public functions of each ``facthist`` module.

``Tracer.install`` wraps the functions listed in ``SPANS`` and rebinds each
wrapper under every name that points at the original in any loaded
``facthist`` module.  ``cli``, ``distributions``, ``dag``, ``verification``
and the package ``__init__`` bind names with ``from .x import y``, so
wrapping only the defining module would miss their calls.

Each span records its function, start, end and parent.  A function's self
time is its duration minus the time of its child spans; every function
belongs to one per-layer metric, and a layer's total is the sum of its
metrics.  Time in a function without a span counts toward the nearest
enclosing span.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# module -> function -> per-layer metric that its self time goes to.
SPANS: dict[str, dict[str, str]] = {
    "cli": {"main": "cli.self_ms"},
    "space": {
        "space_from_doc": "space.parse_ms",
        "blocks_of": "space.blocks_ms",
        "fold_pair": "space.blocks_ms",
        "pair_var": "space.blocks_ms",
        "factor_var": "space.vars_ms",
        "trivial_var": "space.vars_ms",
    },
    "history": {
        "history": "history.history_ms",
        "disintegration_atoms": "history.atoms_ms",
        "structurally_independent": "history.indep_ms",
        "conditional_history": "history.indep_ms",
        "history_via_atoms": "history.other_ms",
        "structural_time_leq": "history.other_ms",
        "is_rectangle": "history.other_ms",
        "determines": "history.other_ms",
        "generates": "history.other_ms",
    },
    "distributions": {
        "is_cond_independent": "distributions.ci_ms",
        "sample_product": "distributions.sample_ms",
        "sample_vector": "distributions.sample_ms",
        "verify_soundness": "distributions.other_ms",
        "find_witness": "distributions.other_ms",
        "perturb_factor": "distributions.other_ms",
        "irrelevance_invariance": "distributions.other_ms",
        "product_difference_identity": "distributions.other_ms",
        "cond_table": "distributions.other_ms",
        "block_conditional": "distributions.other_ms",
        "distribution_to_doc": "distributions.other_ms",
    },
    "dag": {
        "embed_dag": "dag.embed_ms",
        "d_separated": "dag.dsep_ms",
        "ancestors": "dag.dsep_ms",
        "dag_from_doc": "dag.dsep_ms",
    },
    "verification": {
        "run_suite": "verification.suite_ms",
        "gen_random_space": "verification.suite_ms",
        "gen_random_variable": "verification.suite_ms",
        "check_semigraphoid": "verification.semigraphoid_ms",
        "check_history_laws": "verification.laws_ms",
        "check_duality": "verification.duality_ms",
        "check_separation_characterization": "verification.separation_ms",
    },
}

LAYERS = tuple(SPANS)
TIME_METRICS = tuple(dict.fromkeys(m for funcs in SPANS.values() for m in funcs.values()))


def _outcomes_parsed(args, result) -> int:
    return result[0].outcome_count


def _block_ranks(args, result) -> int:
    return len(args[1].ranks)


def _embed_outcomes(args, result) -> int:
    return result.space.outcome_count


# count metric -> (function, amount per call); a missing amount counts calls.
COUNTS = {
    "cli.calls": ("cli.main", None),
    "space.outcomes_parsed": ("space.space_from_doc", _outcomes_parsed),
    "space.blocks_calls": ("space.blocks_of", None),
    "history.history_calls": ("history.history", None),
    "history.block_ranks": ("history.history", _block_ranks),
    "distributions.ci_calls": ("distributions.is_cond_independent", None),
    "dag.embed_outcomes": ("dag.embed_dag", _embed_outcomes),
}
_SIZERS = {fn: size for fn, size in COUNTS.values() if size is not None}


class Tracer:
    """Records spans while installed; ``take`` folds one op's spans into totals."""

    def __init__(self) -> None:
        # Each span is [function, metric, start, end, parent index, amount].
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._totals: dict[str, float] = {}
        self._witness_calls = 0
        self._witness_tries = 0
        self._ops = 0

    def _wrap(self, fn, qualname: str, metric: str):
        spans, stack = self._spans, self._stack
        sizer = _SIZERS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [qualname, metric, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if sizer is not None:
                span[5] = sizer(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "facthist" or name.startswith("facthist.")
        ]
        for mod_name, funcs in SPANS.items():
            home = sys.modules[f"facthist.{mod_name}"]
            for func, metric in funcs.items():
                original = getattr(home, func)
                wrapper = self._wrap(original, f"{mod_name}.{func}", metric)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebound.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def take(self, scale: float) -> None:
        """Fold the spans of the op that just ended into the totals.

        Self times are multiplied by ``scale`` (the op's speed correction
        and the unit change to milliseconds).
        """
        spans, totals = self._spans, self._totals
        child = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        for s, inner in zip(spans, child):
            totals[s[1]] = totals.get(s[1], 0.0) + (s[3] - s[2] - inner) * scale
        for metric, (fn, size) in COUNTS.items():
            totals[metric] = totals.get(metric, 0.0) + sum(
                1 if size is None else s[5] for s in spans if s[0] == fn
            )
        for s in spans:
            if s[0] == "distributions.find_witness":
                self._witness_calls += 1
            elif s[0] == "distributions.is_cond_independent" and self._under(
                s, "distributions.find_witness"
            ):
                self._witness_tries += 1
        spans.clear()
        self._ops += 1

    def _under(self, span: list, fn: str) -> bool:
        parent = span[4]
        while parent >= 0:
            if self._spans[parent][0] == fn:
                return True
            parent = self._spans[parent][4]
        return False

    def per_op(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (mean per op, unit)."""
        n, totals = self._ops, self._totals
        out = {}
        for layer in LAYERS:
            metrics = [m for m in TIME_METRICS if m.startswith(layer + ".")]
            if f"{layer}.self_ms" not in metrics:
                out[f"{layer}.self_ms"] = (sum(totals.get(m, 0.0) for m in metrics) / n, "ms")
            for m in metrics:
                out[m] = (totals.get(m, 0.0) / n, "ms")
        for m in COUNTS:
            out[m] = (totals[m] / n, "count")
        tries = self._witness_tries / self._witness_calls if self._witness_calls else 0.0
        out["distributions.witness_tries"] = (tries, "count")
        return out
