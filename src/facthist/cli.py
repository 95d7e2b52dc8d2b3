"""Command line interface.

Every command is a function from its parsed arguments to one JSON document
and an exit code; ``main`` alone prints that document on stdout, and
diagnostics go to stderr.  Exit codes: 0 for an affirmative verdict or
passing run, 1 for a negative verdict (dependent, d-connected, witness not
found, suite failed), 2 for usage, parse, and name errors, 3 when a size
cap is exceeded.  If the
reader closes stdout before the document is written out (``| head -c0``),
the command exits 0, whatever the verdict, and prints no traceback.

Well-formed command lines are read off the argument declarations in
_COMMANDS by _fast_args; argparse parses every other one, so help, usage
errors and their exit codes are argparse's own.

Conditioning variables are given as a comma-separated name list; the list
is folded into a joint variable, and an empty list means conditioning on
nothing.  Names resolve against the space file's variables first, then
against factor names.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
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
# many characters.  Parsing plus space_from_doc, decoder against json.loads:
# 44 against 35 us for a first table spanning 72, level at 264, and 55
# against 70 us on the benchmark's 846-character parity-history file, whose
# table spans 520; there whole calls are level (30 alternating pairs).
DIGIT_PATH_MIN_CHARS = 512
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
    """Decodes as json.loads does, but reads a "table" key's array of digits
    by _digit_array, as bytes where json.loads gives a list of ints.

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
        # After '{' or ',' a '"' opens a key (a quote inside a key is escaped).
        if char == "[" and s[idx - 9 : idx] in ('{"table":', ',"table":'):
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


def _write_over(path: str, data: bytes) -> None:
    """Write data into the file at path, creating it if it does not exist.

    The file is opened without O_TRUNC and cut to len(data) only if it is
    longer, never to zero: ext4 (auto_da_alloc) allocates the blocks of a
    file truncated to zero and written again, and starts writing them out,
    when it is closed, which made each rewrite of an embedding several
    times slower.  A device or FIFO reports size 0 and is never truncated.
    Not atomic: if a write fails part-way, a regular file is truncated to
    zero, best effort, so that new bytes are never left followed by old
    ones.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags, 0o666)
    with open(fd, "wb", buffering=0) as fh:
        try:
            view = memoryview(data)
            while view:
                view = view[fh.write(view) :]
            if os.fstat(fd).st_size > len(data):
                os.ftruncate(fd, len(data))
        except OSError:
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, 0)
            raise


def _cmd_embed(args: argparse.Namespace) -> tuple[dict, int]:
    dag = dag_from_doc(_load_json(args.dag))
    emb = embed_dag(dag)
    variables = {v.name: v for v in emb.node_vars.values()}
    if not args.output:
        return space_to_doc(emb.space, variables), 0
    # The bytes main would print for that document, with no dict built.
    try:
        _write_over(args.output, _dump_space(emb.space, variables))
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


def _arg(*flags: str, **kwargs: object) -> tuple[tuple[str, ...], dict]:
    """One argument: its option strings, or its positional name, and the
    keywords ArgumentParser.add_argument takes."""
    return flags, kwargs


_PRETTY = _arg("--pretty", action="store_true", help="indent the JSON output")
# The arguments indep, verify and witness share.
_PAIR = (_arg("space"), _arg("x"), _arg("y"), _arg("--given"))
# Every default budget is SuiteConfig's: verify and witness search as the
# suite does.
_SEARCH = (
    _arg("--tries", type=int, default=SuiteConfig.witness_budget),
    _arg("--seed", type=int, default=SuiteConfig.seed),
)
_SAMPLES = _arg("--samples", type=int, default=SuiteConfig.sample_count)

# Every command's arguments, declared once: _build_parser adds them to
# argparse, and _fast_args reads them.  command -> (handler, help text,
# arguments in the order argparse lists them).
_COMMANDS = {
    "history": (
        _cmd_history,
        "per-block history of a variable",
        (
            _PRETTY,
            _arg("space", help="space file (JSON)"),
            _arg("--var", required=True, help="variable or factor name"),
            _arg("--given", help="comma-separated conditioning names"),
        ),
    ),
    "indep": (_cmd_indep, "structural independence verdict", (_PRETTY, *_PAIR)),
    "dsep": (
        _cmd_dsep,
        "d-separation verdict",
        (
            _PRETTY,
            _arg("dag", help="DAG file (JSON)"),
            _arg("x"),
            _arg("y"),
            _arg("--given", help="comma-separated node names"),
        ),
    ),
    "embed": (
        _cmd_embed,
        "response-function embedding of a DAG",
        (_PRETTY, _arg("dag"), _arg("-o", "--output", help="write the space file here")),
    ),
    "verify": (
        _cmd_verify,
        "soundness samples or witness search, depending on the verdict",
        (_PRETTY, *_PAIR, *_SEARCH, _SAMPLES),
    ),
    "witness": (
        _cmd_witness,
        "search for a product distribution violating CI",
        (_PRETTY, *_PAIR, *_SEARCH),
    ),
    "axioms": (
        _cmd_axioms,
        "run the randomized law suites",
        (
            _PRETTY,
            _arg("--seed", type=int, default=SuiteConfig.seed),
            _arg("--iters", type=int, default=SuiteConfig.iterations),
            _arg("--max-factors", type=int, default=SuiteConfig.max_factors),
            _arg("--max-domain", type=int, default=SuiteConfig.max_domain),
            _SAMPLES,
            _arg("--witness-budget", type=int, default=SuiteConfig.witness_budget),
            _arg("--perturbation-budget", type=int, default=SuiteConfig.perturbation_budget),
        ),
    ),
    "atoms": (
        _cmd_atoms,
        "disintegration atoms per block",
        (_PRETTY, _arg("space"), _arg("--given")),
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process, and only for an argv _fast_args leaves to
    # argparse: argparse sets up a help formatter for every argument, which
    # costs more than a small command.  parse_args keeps its results in a
    # fresh Namespace, so reuse carries no state.
    parser = argparse.ArgumentParser(
        prog="facthist",
        description=(
            "Conditional histories and structural independence over finite "
            "factored spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def _fast_spec(command: str, func, arguments) -> tuple:
    """What _fast_args needs of one command: option string -> (dest, flag,
    type), the positional names in order, the required dests, and the
    namespace before parsing (command, func and every optional default).

    Of the add_argument keywords it reads action="store_true", type,
    default and required, the ones the declarations use.
    """
    options, positionals, required = {}, [], set()
    namespace = {"command": command, "func": func}
    for flags, kwargs in arguments:
        if not flags[0].startswith("-"):
            positionals.append(flags[0])
            continue
        # argparse's dest: the first long option string, else the first one.
        dest = next((f for f in flags if f.startswith("--")), flags[0])
        dest = dest.lstrip("-").replace("-", "_")
        flag = kwargs.get("action") == "store_true"
        if kwargs.get("required"):
            required.add(dest)
        else:
            namespace[dest] = False if flag else kwargs.get("default")
        for option in flags:
            options[option] = (dest, flag, kwargs.get("type"))
    return options, tuple(positionals), frozenset(required), namespace


_FAST_SPECS = {
    command: _fast_spec(command, func, arguments)
    for command, (func, _, arguments) in _COMMANDS.items()
}


def _fast_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace _build_parser().parse_args(argv) gives, read off the
    declarations in _COMMANDS without argparse, or None.

    It reads argv only in this form: a command name, then tokens that are
    either one of that command's option strings exactly (not -h/--help),
    each but a flag followed by a value that does not start with "-", or
    positionals, which must fill the command's positionals exactly; every
    required option must be given, and a repeated option keeps its last
    value.  Every other argv, among them help, usage errors, abbreviated
    options, --opt=value, values such as -3 and "--", gives None, and
    argparse parses it with its own messages and exit codes.
    """
    spec = _FAST_SPECS.get(argv[0]) if argv else None
    if spec is None:
        return None
    options, positionals, required, defaults = spec
    namespace = dict(defaults)
    filled = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            filled.append(token)
            continue
        option = options.get(token)
        if option is None:
            return None
        dest, flag, convert = option
        if flag:
            namespace[dest] = True
            continue
        # A missing value reads as one that starts with "-".
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        namespace[dest] = value
    if len(filled) != len(positionals) or not required.issubset(namespace):
        return None
    namespace.update(zip(positionals, filled))
    return argparse.Namespace(**namespace)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
