"""Command line interface.

Every command is a function from its parsed arguments to one JSON document
and an exit code; ``main`` alone prints that document on stdout, and
diagnostics go to stderr.  Exit codes: 0 for an affirmative verdict or
passing run, 1 for a negative verdict (dependent, d-connected, witness not
found, suite failed), 2 for usage, parse, and name errors, 3 when a size
cap is exceeded.  If the
reader closes stdout before the document is written out (``| head -c0``),
the command exits 0, whatever the verdict, and prints no traceback.

Conditioning variables are given as a comma-separated name list; the list
is folded into a joint variable, and an empty list means conditioning on
nothing.  Names resolve against the space file's variables first, then
against factor names.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Mapping, Sequence

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

# The exit code when the reader closes stdout before the document is out.
EXIT_CLOSED_STDOUT = 0


# A table written compact over a codomain of at most 10 values is an array
# of single digits joined by bare commas, which _digit_array reads in a few
# C-level passes.  _DigitTableDecoder parses objects in Python, at a few
# microseconds each, so it runs only when the first compactly written table,
# from its key ('"table":[') to the first ']' after it, spans at least this
# many characters: over whole CLI calls it was slower than json.loads on a
# one-table file of 846 characters and faster on one of 1391.
DIGIT_PATH_MIN_CHARS = 1024
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _digit_array(s: str, end: int) -> tuple[bytes, int] | None:
    """The array of single ASCII digits joined by bare commas that opens
    just before s[end], as the bytes of its values, and the index past its
    ``]``; None for any other array."""
    close = s.find("]", end)
    # find gives -1 when no ] follows, as in "[1,".
    if close > end:
        body = s[end:close]
        if len(body) % 2 and body.isascii():
            raw = body.encode()
            digits = raw[::2]
            if digits.isdigit() and raw.count(b",") == len(digits) - 1:
                return digits.translate(_DIGIT_VALUES), close + 1
    return None


class _DigitTableDecoder(json.JSONDecoder):
    """Decodes as json.loads does, but reads digit arrays by _digit_array,
    as bytes where json.loads gives a list of ints.

    Objects are parsed by the pure-Python ``json.decoder.JSONObject`` with
    this scanner, so every array that sits in objects only is seen here.
    Every other array, and every other value, goes whole to the scanner
    ``json.JSONDecoder`` builds, the C one where the interpreter has it.
    """

    def __init__(self) -> None:
        super().__init__()
        # The scanner JSONDecoder built.  Deleting the instance attribute
        # exposes the scan_once method below; a closure or a stored bound
        # method would make each decoder a reference cycle for the GC.
        self._whole = self.scan_once
        del self.scan_once

    def scan_once(self, s: str, idx: int):
        char = s[idx : idx + 1]
        if char == "{":
            return self.parse_object(
                (s, idx + 1), self.strict, self.scan_once, None, None, self.memo
            )
        if char == "[":
            found = _digit_array(s, idx + 1)
            if found is not None:
                return found
        return self._whole(s, idx)


_ASCII_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _dump_space(
    space: FactoredSpace, variables: Mapping[str, RandomVariable]
) -> bytes:
    """The bytes of _dumps(space_to_doc(space, variables)) plus a newline.

    The mirror of _DigitTableDecoder: a table over at most 10 values is
    written as single ASCII digits by one bytes.translate, set into a
    buffer of commas by one strided slice assignment.  Names, labels and
    every other table go through json.dumps, keys in sorted order.
    """
    factors = [{"domain": list(f.domain), "name": f.name} for f in space.factors]
    entries = []
    for name in sorted(variables):
        var = variables[name]
        if len(var.codomain) <= 10:
            digits = bytearray(b",") * (2 * len(var.table) - 1)
            digits[::2] = var.table.translate(_ASCII_DIGITS)
            table = b"[" + digits + b"]"
        else:
            table = _dumps(list(var.table)).encode()
        head = f'{_dumps(name)}:{{"codomain":{_dumps(var.codomain)},"table":'
        entries.append(head.encode() + table + b"}")
    head = f'{{"factors":{_dumps(factors)},"variables":{{'
    return head.encode() + b",".join(entries) + b"}}\n"


def _loads(text: str) -> object:
    """json.loads(text), with a faster decoder for table-heavy text."""
    key = text.find('"table":[')
    if key >= 0 and text.find("]", key) - key >= DIGIT_PATH_MIN_CHARS:
        try:
            return _DigitTableDecoder().decode(text)
        except (ValueError, RecursionError):
            pass  # json.loads raises the error and message it always has.
    return json.loads(text)


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return _loads(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
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


def _load(args: argparse.Namespace, *names: str):
    """The space file, the variables named by the args attributes in names,
    and the ``--given`` names folded into one conditioner (None if there are
    none) with that name list.  Names resolve in order, ``--given`` last;
    the first unknown one raises.
    """
    space, variables = space_from_doc(_load_json(args.space))
    resolved = [_resolve(space, variables, getattr(args, n)) for n in names]
    given = _split_csv(args.given)
    zs = [_resolve(space, variables, n) for n in given]
    return space, resolved, fold_pair(space, zs) if zs else None, given


def _named(space: FactoredSpace, groups) -> list[list[str]]:
    """Each list of factor ids in groups as its factors' names."""
    names = [f.name for f in space.factors]
    return [[names[i] for i in ids] for ids in groups]


def _per_block(space: FactoredSpace, per_block: dict) -> dict[str, list[str]]:
    return dict(zip(per_block, _named(space, per_block.values())))


def _check_budgets(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 0:
            raise ValueError(f"--{name} must be non-negative")


def _emit(doc: object, pretty: bool) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2) if pretty else _dumps(doc))


def _cmd_history(args: argparse.Namespace) -> tuple[dict, int]:
    space, (x,), z, given = _load(args, "var")
    ch = conditional_history(space, x, z)
    history = _per_block(space, ch.per_block)
    return {"variable": x.name, "given": given, "history": history}, 0


def _cmd_indep(args: argparse.Namespace) -> tuple[dict, int]:
    space, (x, y), z, given = _load(args, "x", "y")
    verdict = structurally_independent(space, x, y, z)
    doc = {
        "x": x.name,
        "y": y.name,
        "given": given,
        "independent": verdict.independent,
        "overlaps": _per_block(space, verdict.overlaps),
    }
    return doc, 0 if verdict.independent else 1


def _cmd_dsep(args: argparse.Namespace) -> tuple[dict, int]:
    dag = dag_from_doc(_load_json(args.dag))
    zs = _split_csv(args.given)
    separated = d_separated(dag, [args.x], [args.y], zs)
    doc = {"x": args.x, "y": args.y, "given": zs, "d_separated": separated}
    return doc, 0 if separated else 1


def _cmd_embed(args: argparse.Namespace) -> tuple[dict, int]:
    dag = dag_from_doc(_load_json(args.dag))
    emb = embed_dag(dag)
    variables = {v.name: v for v in emb.node_vars.values()}
    if not args.output:
        return space_to_doc(emb.space, variables), 0
    # The bytes main would print for that document, with no dict built.
    try:
        with open(args.output, "wb") as fh:
            fh.write(_dump_space(emb.space, variables))
    except OSError as exc:
        raise FormatError(f"cannot write {args.output}: {exc}") from None
    summary = {
        "written": args.output,
        "outcome_count": emb.space.outcome_count,
        "factors": [{"name": f.name, "size": f.size} for f in emb.space.factors],
    }
    return summary, 0


def _witness(args: argparse.Namespace, doc: dict, space, x, y, z):
    """doc with the ``found`` and ``witness`` of a search for a product
    distribution under which x and y are dependent given z."""
    witness = find_witness(space, x, y, z, args.tries, args.seed)
    doc["found"] = witness is not None
    doc["witness"] = None if witness is None else distribution_to_doc(witness)
    return doc, 0 if witness is not None else 1


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    _check_budgets(args, "samples", "tries")
    space, (x, y), z, given = _load(args, "x", "y")
    verdict = structurally_independent(space, x, y, z)
    doc = {"x": x.name, "y": y.name, "given": given}
    doc["independent"] = verdict.independent
    if not verdict.independent:
        doc["mode"] = "witness"
        doc["overlaps"] = _per_block(space, verdict.overlaps)
        return _witness(args, doc, space, x, y, z)
    report = verify_soundness(space, x, y, z, args.samples, args.seed)
    doc["mode"] = "soundness"
    doc["samples"] = report.samples
    doc["all_hold"] = report.all_hold
    doc["violations"] = [
        {"sample": i, "violation": [str(v) for v in ci.first_violation]}
        for i, ci in report.violations
    ]
    return doc, 0 if report.all_hold else 1


def _cmd_witness(args: argparse.Namespace) -> tuple[dict, int]:
    _check_budgets(args, "tries")
    space, (x, y), z, given = _load(args, "x", "y")
    doc = {"x": x.name, "y": y.name, "given": given, "tries": args.tries}
    return _witness(args, doc, space, x, y, z)


def _cmd_axioms(args: argparse.Namespace) -> tuple[dict, int]:
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
    return report.to_doc(), 1 if report.any_asserted_failure else 0


def _cmd_atoms(args: argparse.Namespace) -> tuple[dict, int]:
    space, _, z, given = _load(args)
    blocks = {}
    for label, block in blocks_of(space, z).items():
        parts = disintegration_atoms(space, block)
        trivial, *atoms = _named(space, [parts.trivial_part, *parts.atoms])
        blocks[label] = {"atoms": atoms, "trivial_part": trivial}
    return {"given": given, "blocks": blocks}, 0


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

    # The arguments indep, verify and witness share.
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("space")
    pair.add_argument("x")
    pair.add_argument("y")
    pair.add_argument("--given")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--tries", type=int, default=64)
    search.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "indep", parents=[common, pair], help="structural independence verdict"
    )
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
        parents=[common, pair, search],
        help="soundness samples or witness search, depending on the verdict",
    )
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=_cmd_verify)

    sub.add_parser(
        "witness",
        parents=[common, pair, search],
        help="search for a product distribution violating CI",
    ).set_defaults(func=_cmd_witness)

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
        doc, code = args.func(args)
        _emit(doc, args.pretty)
        # Write the document out here, so a closed stdout fails inside the
        # handler below and not at interpreter shutdown.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the final flush at shutdown has
        # somewhere to write the rest of the buffer.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except SpaceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FacthistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
