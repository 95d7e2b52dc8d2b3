"""Command line interface.

Every command prints a single JSON document on stdout and keeps diagnostics
on stderr.  Exit codes: 0 for an affirmative verdict or passing run, 1 for a
negative verdict (dependent, d-connected, witness not found, suite failed),
2 for usage, parse, and name errors, 3 when a size cap is exceeded.

Conditioning variables are given as a comma-separated name list; the list
is folded into a joint variable, and an empty list means conditioning on
nothing.  Names resolve against the space file's variables first, then
against factor names.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .dag import d_separated, dag_from_doc, embed_dag
from .distributions import (
    distribution_to_doc,
    find_witness,
    verify_soundness,
)
from .errors import (
    FacthistError,
    FormatError,
    SpaceCapError,
    UnknownFactorError,
    UnknownNameError,
)
from .history import (
    conditional_history,
    disintegration_atoms,
    structurally_independent,
)
from .space import (
    FactoredSpace,
    RandomVariable,
    blocks_of,
    factor_var,
    fold_pair,
    space_from_doc,
    space_to_doc,
)
from .verification import SuiteConfig, run_suite


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from None


def _resolve(
    space: FactoredSpace, variables: dict[str, RandomVariable], name: str
) -> RandomVariable:
    if name in variables:
        return variables[name]
    try:
        return factor_var(space, space.factor_id(name))
    except UnknownFactorError:
        raise UnknownNameError(
            f"{name!r} names neither a variable nor a factor"
        ) from None


def _split_csv(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def _conditioner(
    space: FactoredSpace, variables: dict[str, RandomVariable], raw: str | None
) -> tuple[RandomVariable | None, list[str]]:
    names = _split_csv(raw)
    if not names:
        return None, []
    return fold_pair(space, [_resolve(space, variables, n) for n in names]), names


def _names(space: FactoredSpace, ids) -> list[str]:
    return [space.factors[i].name for i in ids]


def _check_budgets(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 0:
            raise ValueError(f"--{name} must be non-negative")


def _emit(doc: object, pretty: bool) -> None:
    if pretty:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _cmd_history(args: argparse.Namespace) -> int:
    space, variables = space_from_doc(_load_json(args.space))
    x = _resolve(space, variables, args.var)
    z, names = _conditioner(space, variables, args.given)
    ch = conditional_history(space, x, z)
    _emit(
        {
            "variable": x.name,
            "given": names,
            "history": {
                label: _names(space, ids) for label, ids in ch.per_block.items()
            },
        },
        args.pretty,
    )
    return 0


def _cmd_indep(args: argparse.Namespace) -> int:
    space, variables = space_from_doc(_load_json(args.space))
    x = _resolve(space, variables, args.x)
    y = _resolve(space, variables, args.y)
    z, names = _conditioner(space, variables, args.given)
    verdict = structurally_independent(space, x, y, z)
    _emit(
        {
            "x": x.name,
            "y": y.name,
            "given": names,
            "independent": verdict.independent,
            "overlaps": {
                label: _names(space, ids) for label, ids in verdict.overlaps.items()
            },
        },
        args.pretty,
    )
    return 0 if verdict.independent else 1


def _cmd_dsep(args: argparse.Namespace) -> int:
    dag = dag_from_doc(_load_json(args.dag))
    zs = _split_csv(args.given)
    separated = d_separated(dag, [args.x], [args.y], zs)
    _emit(
        {"x": args.x, "y": args.y, "given": zs, "d_separated": separated},
        args.pretty,
    )
    return 0 if separated else 1


def _cmd_embed(args: argparse.Namespace) -> int:
    dag = dag_from_doc(_load_json(args.dag))
    emb = embed_dag(dag)
    doc = space_to_doc(emb.space, {v.name: v for v in emb.node_vars.values()})
    if args.output:
        # json.dump would stream through the pure-Python encoder.
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        _emit(
            {
                "written": args.output,
                "outcome_count": emb.space.outcome_count,
                "factors": [
                    {"name": f.name, "size": f.size} for f in emb.space.factors
                ],
            },
            args.pretty,
        )
    else:
        _emit(doc, args.pretty)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_budgets(args, "samples", "tries")
    space, variables = space_from_doc(_load_json(args.space))
    x = _resolve(space, variables, args.x)
    y = _resolve(space, variables, args.y)
    z, names = _conditioner(space, variables, args.given)
    verdict = structurally_independent(space, x, y, z)
    if verdict.independent:
        report = verify_soundness(space, x, y, z, args.samples, args.seed)
        _emit(
            {
                "mode": "soundness",
                "x": x.name,
                "y": y.name,
                "given": names,
                "independent": True,
                "samples": report.samples,
                "all_hold": report.all_hold,
                "violations": [
                    {"sample": i, "violation": [str(v) for v in ci.first_violation]}
                    for i, ci in report.violations
                ],
            },
            args.pretty,
        )
        return 0 if report.all_hold else 1
    witness = find_witness(space, x, y, z, args.tries, args.seed)
    _emit(
        {
            "mode": "witness",
            "x": x.name,
            "y": y.name,
            "given": names,
            "independent": False,
            "overlaps": {
                label: _names(space, ids) for label, ids in verdict.overlaps.items()
            },
            "found": witness is not None,
            "witness": distribution_to_doc(witness) if witness is not None else None,
        },
        args.pretty,
    )
    return 0 if witness is not None else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    _check_budgets(args, "tries")
    space, variables = space_from_doc(_load_json(args.space))
    x = _resolve(space, variables, args.x)
    y = _resolve(space, variables, args.y)
    z, names = _conditioner(space, variables, args.given)
    witness = find_witness(space, x, y, z, args.tries, args.seed)
    _emit(
        {
            "x": x.name,
            "y": y.name,
            "given": names,
            "found": witness is not None,
            "witness": distribution_to_doc(witness) if witness is not None else None,
            "tries": args.tries,
        },
        args.pretty,
    )
    return 0 if witness is not None else 1


def _cmd_axioms(args: argparse.Namespace) -> int:
    cfg = SuiteConfig(
        seed=args.seed,
        iterations=args.iters,
        max_factors=args.max_factors,
        max_domain=args.max_domain,
        sample_count=args.samples,
        witness_budget=args.witness_budget,
        perturbation_budget=args.perturbation_budget,
    )
    report = run_suite(cfg)
    print(report.to_json(pretty=args.pretty))
    return 1 if report.any_asserted_failure else 0


def _cmd_atoms(args: argparse.Namespace) -> int:
    space, variables = space_from_doc(_load_json(args.space))
    z, names = _conditioner(space, variables, args.given)
    blocks = {}
    for label, block in blocks_of(space, z).items():
        parts = disintegration_atoms(space, block)
        blocks[label] = {
            "atoms": [_names(space, atom) for atom in parts.atoms],
            "trivial_part": _names(space, parts.trivial_part),
        }
    _emit({"given": names, "blocks": blocks}, args.pretty)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: argparse sets up a help formatter for every
    # argument, which costs more than a small command.  parse_args keeps
    # its results in a fresh Namespace, so reuse carries no state.
    parser = argparse.ArgumentParser(
        prog="facthist",
        description=(
            "Conditional histories and structural independence over finite "
            "factored spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )

    p = sub.add_parser(
        "history", parents=[common], help="per-block history of a variable"
    )
    p.add_argument("space", help="space file (JSON)")
    p.add_argument("--var", required=True, help="variable or factor name")
    p.add_argument("--given", help="comma-separated conditioning names")
    p.set_defaults(func=_cmd_history)

    p = sub.add_parser(
        "indep", parents=[common], help="structural independence verdict"
    )
    p.add_argument("space")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--given")
    p.set_defaults(func=_cmd_indep)

    p = sub.add_parser("dsep", parents=[common], help="d-separation verdict")
    p.add_argument("dag", help="DAG file (JSON)")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--given", help="comma-separated node names")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser(
        "embed", parents=[common], help="response-function embedding of a DAG"
    )
    p.add_argument("dag")
    p.add_argument("-o", "--output", help="write the space file here")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="soundness samples or witness search, depending on the verdict",
    )
    p.add_argument("space")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--given")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--tries", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "witness",
        parents=[common],
        help="search for a product distribution violating CI",
    )
    p.add_argument("space")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--given")
    p.add_argument("--tries", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser(
        "axioms", parents=[common], help="run the randomized law suites"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--max-factors", type=int, default=4)
    p.add_argument("--max-domain", type=int, default=3)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--witness-budget", type=int, default=64)
    p.add_argument("--perturbation-budget", type=int, default=16)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser(
        "atoms", parents=[common], help="disintegration atoms per block"
    )
    p.add_argument("space")
    p.add_argument("--given")
    p.set_defaults(func=_cmd_atoms)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SpaceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FacthistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
