"""End-to-end CLI behaviour: JSON shapes, exit codes, determinism.

Commands are driven through main() with captured stdout, which is what the
console script wraps; a couple of smoke tests also go through the real
subprocess entry point.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import facthist
from facthist import RandomVariable, SuiteConfig, space_to_doc, dag_to_doc, Dag, space_from_doc
from facthist.cli import _COMMANDS, DIGIT_PATH_MIN_CHARS, _build_parser, _fast_args, main
from facthist.space import OUTCOME_CAP_ENV

from helpers import xor_bundle


@pytest.fixture()
def space_file(tmp_path):
    space, u0, u1, xor = xor_bundle()
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_doc(space, {"XOR": xor})))
    return str(path)


@pytest.fixture()
def dag_file(tmp_path):
    dag = Dag([("A", 2), ("B", 2), ("C", 2)], [("A", "C"), ("B", "C")])
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(dag_to_doc(dag)))
    return str(path)


def run_module(*argv):
    """Run ``python -m facthist.cli`` on the package these tests import."""
    src = str(Path(facthist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "facthist.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_history_command(capsys, space_file):
    code, out, _ = run_cli(capsys, "history", space_file, "--var", "u0")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"variable": "u0", "given": [], "history": {"*": ["u0"]}}
    code, out, _ = run_cli(
        capsys, "history", space_file, "--var", "u0", "--given", "XOR"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["given"] == ["XOR"]
    assert doc["history"] == {"0": ["u0", "u1"], "1": ["u0", "u1"]}
    code, out, _ = run_cli(capsys, "history", space_file, "--var", "XOR")
    assert json.loads(out)["history"] == {"*": ["u0", "u1"]}


def test_indep_exit_codes(capsys, space_file):
    code, out, _ = run_cli(capsys, "indep", space_file, "u0", "u1")
    assert code == 0
    assert json.loads(out)["independent"] is True
    code, out, _ = run_cli(capsys, "indep", space_file, "u0", "u1", "--given", "XOR")
    assert code == 1
    doc = json.loads(out)
    assert doc["independent"] is False
    assert doc["overlaps"] == {"0": ["u0", "u1"], "1": ["u0", "u1"]}


def test_given_labels_with_commas_and_three_names(capsys, tmp_path):
    space, u0, u1, xor = xor_bundle()
    x = RandomVariable("x", ("p", "p,q"), u0.table)
    y = RandomVariable("y", ("q,r", "r"), u1.table)
    path = tmp_path / "commas.json"
    path.write_text(json.dumps(space_to_doc(space, {"x": x, "y": y, "XOR": xor})))
    code, out, _ = run_cli(capsys, "indep", str(path), "u0", "u1", "--given", "x,y")
    assert code == 0
    assert json.loads(out)["independent"] is True
    code, out, _ = run_cli(capsys, "history", str(path), "--var", "u0", "--given", "x,y")
    assert code == 0
    assert list(json.loads(out)["history"]) == [
        "(p,q\\,r)", "(p,r)", "(p\\,q,q\\,r)", "(p\\,q,r)",
    ]
    # Three or more names join into one flat tuple label.
    code, out, _ = run_cli(
        capsys, "history", str(path), "--var", "u0", "--given", "u0,u1,XOR"
    )
    assert code == 0
    assert list(json.loads(out)["history"]) == ["(0,0,0)", "(0,1,1)", "(1,0,1)", "(1,1,0)"]


def test_unknown_name_is_a_usage_error(capsys, space_file):
    code, out, err = run_cli(capsys, "indep", space_file, "u0", "nope")
    assert code == 2
    assert not out
    assert "nope" in err


def test_malformed_file_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "history", str(bad), "--var", "x")
    assert code == 2 and "JSON" in err
    missing = str(tmp_path / "missing.json")
    code, _, err = run_cli(capsys, "history", missing, "--var", "x")
    assert code == 2 and "cannot read" in err
    # Nesting past the parser's recursion limit, and bytes that are not UTF-8.
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"factors": "\xff"}')
    for path in (str(nested), str(latin)):
        for argv in (("history", path, "--var", "x"), ("dsep", path, "a", "b")):
            start = time.monotonic()
            code, out, err = run_cli(capsys, *argv)
            assert time.monotonic() - start < 1.0
            assert code == 2 and not out
            assert err.startswith(f"error: {path} is not valid JSON: ")


def test_dsep_command(capsys, dag_file):
    code, out, _ = run_cli(capsys, "dsep", dag_file, "A", "B")
    assert code == 0
    assert json.loads(out)["d_separated"] is True
    code, out, _ = run_cli(capsys, "dsep", dag_file, "A", "B", "--given", "C")
    assert code == 1
    assert json.loads(out) == {
        "x": "A",
        "y": "B",
        "given": ["C"],
        "d_separated": False,
    }


def test_embed_writes_space_file(capsys, dag_file, tmp_path):
    out_path = str(tmp_path / "embedded.json")
    code, out, _ = run_cli(capsys, "embed", dag_file, "-o", out_path)
    assert code == 0
    summary = json.loads(out)
    assert summary["written"] == out_path
    assert summary["outcome_count"] == 64
    assert summary["factors"] == [
        {"name": "u_A", "size": 2},
        {"name": "u_B", "size": 2},
        {"name": "u_C", "size": 16},
    ]
    space, variables = space_from_doc(json.loads(open(out_path).read()))
    assert space.outcome_count == 64
    assert set(variables) == {"X_A", "X_B", "X_C"}
    # Without -o the space document goes to stdout.
    code, out, _ = run_cli(capsys, "embed", dag_file)
    assert code == 0
    doc = json.loads(out)
    assert [f["name"] for f in doc["factors"]] == ["u_A", "u_B", "u_C"]


def test_embed_into_an_unwritable_path_is_a_usage_error(capsys, dag_file, tmp_path):
    missing = str(tmp_path / "missing" / "x.json")
    for target in (missing, str(tmp_path)):
        code, out, err = run_cli(capsys, "embed", dag_file, "-o", target)
        assert code == 2 and not out
        assert err.startswith(f"error: cannot write {target}: ")


def test_embed_writes_over_files_in_place(capsys, dag_file, tmp_path, monkeypatch):
    # Never O_TRUNC and never a cut to zero: ext4 writes out a file
    # truncated to zero and rewritten when it is closed.
    printed = run_cli(capsys, "embed", dag_file)[1].encode()
    opens, truncates = [], []
    real_open, real_ftruncate = os.open, os.ftruncate

    def record_open(path, flags, *args, **kwargs):
        opens.append(flags)
        return real_open(path, flags, *args, **kwargs)

    def record_ftruncate(fd, length):
        truncates.append(length)
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", record_open)
    monkeypatch.setattr(os, "ftruncate", record_ftruncate)
    target = tmp_path / "out.json"
    # New, longer, shorter, and as long as the output.
    for old, cuts in (
        (None, []),
        (b"x" * 2**20, [len(printed)]),
        (b"{}", []),
        (printed[:-1] + b" ", []),
    ):
        if old is not None:
            target.write_bytes(old)
        opens.clear()
        truncates.clear()
        code, out, err = run_cli(capsys, "embed", dag_file, "-o", str(target))
        assert code == 0 and not err
        assert json.loads(out)["written"] == str(target)
        assert target.read_bytes() == printed
        assert opens and not any(flags & os.O_TRUNC for flags in opens)
        assert truncates == cuts


def test_embed_creates_files_with_the_mode_open_gives(capsys, dag_file, tmp_path):
    previous = os.umask(0o027)
    try:
        with open(tmp_path / "reference", "wb"):
            pass
        code, _, _ = run_cli(capsys, "embed", dag_file, "-o", str(tmp_path / "new.json"))
    finally:
        os.umask(previous)
    assert code == 0
    assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "reference").stat().st_mode


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_embed_into_dev_null(capsys, dag_file):
    code, out, err = run_cli(capsys, "embed", dag_file, "-o", "/dev/null")
    assert (code, err) == (0, "")
    assert out == (
        '{"factors":[{"name":"u_A","size":2},{"name":"u_B","size":2},'
        '{"name":"u_C","size":16}],"outcome_count":64,"written":"/dev/null"}\n'
    )


def _write_files_as(monkeypatch, file_class):
    """Make facthist.cli open every file it writes as file_class."""
    import facthist.cli

    def fake_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            return file_class(file, "wb")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(facthist.cli, "open", fake_open, raising=False)


def test_embed_write_failing_part_way_leaves_an_empty_file(
    capsys, dag_file, tmp_path, monkeypatch
):
    class HalfWriter(io.FileIO):
        def write(self, data):
            super().write(bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    _write_files_as(monkeypatch, HalfWriter)
    target = tmp_path / "old.json"
    for old in (b"x" * 2**20, b""):
        target.write_bytes(old)
        code, out, err = run_cli(capsys, "embed", dag_file, "-o", str(target))
        assert code == 2 and not out
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert err == f"error: cannot write {target}: {reason}\n"
        assert target.read_bytes() == b""


def test_embed_writes_every_byte_through_short_writes(
    capsys, dag_file, tmp_path, monkeypatch
):
    class ShortWriter(io.FileIO):
        def write(self, data):
            return super().write(data[:100])

    printed = run_cli(capsys, "embed", dag_file)[1].encode()
    _write_files_as(monkeypatch, ShortWriter)
    target = tmp_path / "out.json"
    assert run_cli(capsys, "embed", dag_file, "-o", str(target))[0] == 0
    assert target.read_bytes() == printed


def test_embed_respects_cap(capsys, tmp_path, monkeypatch):
    dag = Dag([(f"n{i}", 2) for i in range(5)], [(f"n{i}", "n4") for i in range(4)])
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dag_to_doc(dag)))
    monkeypatch.setenv("FACTHIST_MAX_OUTCOMES", "1000")
    code, out, err = run_cli(capsys, "embed", str(path))
    assert code == 3
    assert not out and "cap" in err


def test_embed_cap_is_checked_before_counting(capsys, tmp_path):
    # One node with four domain-60 parents has 60 ** (60 ** 4) response
    # functions; the cap check must not compute or print that number.
    dag = Dag([(f"n{i}", 60) for i in range(5)], [(f"n{i}", "n4") for i in range(4)])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dag_to_doc(dag)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "embed", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert not out and "cap" in err and len(err) < 200


def test_verify_soundness_branch(capsys, space_file):
    code, out, _ = run_cli(
        capsys, "verify", space_file, "u0", "u1", "--samples", "20"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "soundness"
    assert doc["all_hold"] is True and doc["samples"] == 20
    assert doc["violations"] == []


def test_verify_witness_branch(capsys, space_file):
    code, out, _ = run_cli(capsys, "verify", space_file, "u0", "XOR")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "witness"
    assert doc["independent"] is False and doc["found"] is True
    assert doc["overlaps"] == {"*": ["u0"]}
    assert len(doc["witness"]["per_factor"]) == 2


def test_witness_command(capsys, space_file):
    code, out, _ = run_cli(capsys, "witness", space_file, "u0", "XOR")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True and doc["tries"] == 64
    # Structural pairs admit no witness: precondition error, usage exit.
    code, _, err = run_cli(capsys, "witness", space_file, "u0", "u1")
    assert code == 2 and "structurally independent" in err


def test_atoms_command(capsys, space_file):
    code, out, _ = run_cli(capsys, "atoms", space_file, "--given", "XOR")
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"] == {
        "0": {"atoms": [["u0", "u1"]], "trivial_part": []},
        "1": {"atoms": [["u0", "u1"]], "trivial_part": []},
    }


def test_axioms_command_deterministic(capsys):
    args = ["axioms", "--seed", "4", "--iters", "4"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["failed"] is False
    assert doc["config"]["iterations"] == 4


def test_axioms_defaults_are_the_suite_config(capsys):
    code, out, _ = run_cli(capsys, "axioms")
    assert code == 0
    assert json.loads(out)["config"] == vars(SuiteConfig())


def test_axioms_zero_iterations(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--iters", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["laws"] == {} and doc["failed"] is False


def test_axioms_failure_exit(capsys):
    code, out, _ = run_cli(
        capsys, "axioms", "--seed", "11", "--iters", "8", "--witness-budget", "0"
    )
    assert code == 1
    assert json.loads(out)["failed"] is True


@pytest.mark.parametrize("factors", ["9", "20"])
def test_axioms_factor_bound_is_checked_before_any_work(capsys, factors):
    # Three iterations at 10 factors already take about 26 s.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "axioms", "--max-factors", factors, "--iters", "3")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: max_factors must lie in 2..8\n")


@pytest.mark.parametrize(
    ("factors", "domain"), [("4", "10"), ("4", "30"), ("2", "82"), ("8", "4"), ("4", "1000")]
)
def test_axioms_domain_bound_is_checked_before_any_work(capsys, factors, domain):
    # Four factors with domains up to 30 ran 19.8 s; at 1000 the space cap
    # (exit 3) was hit only after earlier instances had run.
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "axioms", "--max-factors", factors, "--max-domain", domain, "--iters", "3"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: max_domain ** max_factors must be at most 6561\n")


def test_pretty_output(capsys, space_file):
    code, out, _ = run_cli(capsys, "history", space_file, "--var", "u0", "--pretty")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["variable"] == "u0"


def test_usage_errors(capsys, space_file):
    assert run_cli(capsys, "history")[0] == 2
    assert run_cli(capsys, "nosuch")[0] == 2
    assert run_cli(capsys)[0] == 2
    # Conditioning on nothing is the default; there is no flag for it.
    assert run_cli(capsys, "history", space_file, "--var", "u0", "--unconditional")[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "u0", "u1", "--samples", "-5"), "--samples must be non-negative"),
        (("verify", "u0", "XOR", "--samples", "-1"), "--samples must be non-negative"),
        (("verify", "u0", "XOR", "--tries", "-3"), "--tries must be non-negative"),
        (("verify", "u0", "u1", "--tries", "-3"), "--tries must be non-negative"),
        (("witness", "u0", "XOR", "--tries", "-3"), "--tries must be non-negative"),
    ],
)
def test_negative_budgets_are_usage_errors(capsys, space_file, argv, message):
    # Both budgets are checked whichever mode the verdict selects, as
    # axioms checks its own.
    command, *rest = argv
    code, out, err = run_cli(capsys, command, space_file, *rest)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_reused_parser_leaks_no_state(capsys, monkeypatch, space_file):
    assert _build_parser() is _build_parser()
    # Usage text is wrapped to the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("indep", space_file, "u0"),
        ("indep", space_file, "u0", "u1", "--given", "XOR"),
        ("indep", space_file, "u0", "u1"),
        ("history", space_file, "--var", "u0", "--pretty"),
        ("history", space_file, "--var", "u0"),
    ]
    got = [run_cli(capsys, *argv) for argv in calls]
    fresh = [run_module(*argv) for argv in calls]
    assert got == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert got[0][0] == 2 and not got[0][1]
    assert json.loads(got[1][1])["given"] == ["XOR"]
    assert json.loads(got[2][1])["given"] == []
    assert got[3][1].startswith("{\n")
    assert got[4][1].startswith("{") and got[4][1].count("\n") == 1


TABLE_TYPE_ERROR = "variables['x'].table must be a list of integers"
LENGTH_ERROR = "variables['x'].table has {entries} entries, space has {outcomes} outcomes"
# json.dumps's default separators, and the compact ones embed -o writes.
SEPARATORS = [None, (",", ":")]


def _space_doc(sizes, k, table):
    return {
        "factors": [
            {"name": f"u{i}", "domain": [str(v) for v in range(s)]}
            for i, s in enumerate(sizes)
        ],
        "variables": {"x": {"codomain": [str(v) for v in range(k)], "table": table}},
    }


@pytest.mark.parametrize(
    "table, message",
    [
        ([0, 1, True, 0], TABLE_TYPE_ERROR),
        ([0, 1.0, 1, 0], TABLE_TYPE_ERROR),
        (["1", 1, 1, 0], TABLE_TYPE_ERROR),
        ([0, 1, 1, None], TABLE_TYPE_ERROR),
        ([0, -1, 1, 0], "variable 'x' table entry -1 outside codomain of 2"),
        ([0, 1, 2, 0], "variable 'x' table entry 2 outside codomain of 2"),
        ([0, 1, 1], LENGTH_ERROR),
        ([0, 1, 1, 0, 1], LENGTH_ERROR),
    ],
    ids=["true", "float", "string", "null", "negative", "codomain-size", "short", "long"],
)
def test_malformed_tables_keep_their_messages(capsys, tmp_path, table, message):
    # With DIGIT_PATH_MIN_CHARS outcomes a file is above the digit-array
    # decoder's size gate.
    path = tmp_path / "bad.json"
    for sizes in ([2, 2], [2, 2, DIGIT_PATH_MIN_CHARS // 4]):
        n = math.prod(sizes)
        full = [0] * (n - 4) + table
        doc = _space_doc(sizes, 2, full)
        text = message.format(entries=len(full), outcomes=n)
        for separators in SEPARATORS:
            path.write_text(json.dumps(doc, separators=separators))
            assert run_cli(capsys, "indep", str(path), "u0", "u1") == (
                2, "", f"error: {text}\n"
            )


U0 = {"name": "u0", "domain": ["0", "1"]}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (("atoms",), {"factors": [U0], "variables": []}, "'variables' must be an object"),
        (
            ("history", "--var", "u0"),
            {"factors": [U0], "variables": {"X": [0, 1]}},
            "variables['X'] must be an object",
        ),
        (("atoms",), {"factors": [U0, U0]}, "factor names must be unique"),
        (
            ("atoms",),
            {"factors": [{"name": "u", "domain": ["0", "0"]}]},
            "factor 'u' has duplicate domain labels",
        ),
        (
            ("dsep", "A", "B"),
            {"nodes": [{"name": "A", "domain": 2}], "edges": {}},
            "'edges' must be a list",
        ),
    ],
)
def test_malformed_documents_keep_their_messages(capsys, tmp_path, command, doc, message):
    path = tmp_path / "bad.json"
    for separators in SEPARATORS:
        path.write_text(json.dumps(doc, separators=separators))
        assert run_cli(capsys, command[0], str(path), *command[1:]) == (
            2, "", f"error: {message}\n"
        )


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (("atoms",), {"factors": [1, 2]}, "factors[0] must be an object"),
        (("dsep", "A", "B"), {"nodes": [1, 2]}, "nodes[0] must be an object"),
        (
            ("dsep", "A", "B"),
            {"nodes": [{"name": "A", "domain": 2}], "edges": [1, 2]},
            "edges[0] must be a [parent, child] pair of strings",
        ),
    ],
)
def test_malformed_digit_lists_keep_their_messages(capsys, tmp_path, command, doc, message):
    # A long compact table first opens the decoder's gate, which reads the
    # list of digits as bytes; the message is the one json.loads gives.
    path = tmp_path / "bad.json"
    doc = {"w": {"table": [0] * DIGIT_PATH_MIN_CHARS}, **doc}
    for separators in SEPARATORS:
        path.write_text(json.dumps(doc, separators=separators))
        assert run_cli(capsys, command[0], str(path), *command[1:]) == (
            2, "", f"error: {message}\n"
        )


def test_malformed_table_at_the_cap_is_rejected_promptly(capsys, tmp_path):
    n = 10**6
    path = tmp_path / "big.json"
    doc = _space_doc([1000, 1000], 3, [0] * (n - 1) + [3])
    for separators in SEPARATORS:
        path.write_text(json.dumps(doc, separators=separators))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "atoms", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: variable 'x' table entry 3 outside codomain of 3\n"


MALFORMED_CAP = 4096
BAD_TYPED = [True, False, 1.0, float("nan"), "1", None, [0], {"a": 0}]
COMMANDS = [
    ("history", "--var", "x"),
    ("indep", "x", "u0"),
    ("atoms",),
    ("verify", "x", "u0"),
    ("witness", "x", "u0"),
]


@st.composite
def malformed_space_files(draw):
    """A space document with one defect, and the exit code and message it must give."""
    kind = draw(st.sampled_from(["type", "range", "length", "cap"]))
    if kind == "cap":
        # At least 17 ** 3 outcomes; the cap is checked before any table.
        sizes = draw(st.lists(st.integers(17, 40), min_size=3, max_size=6))
        count = math.prod(sizes)
        return _space_doc(sizes, 2, [0]), 3, (
            f"{count} outcomes exceeds cap of {MALFORMED_CAP}"
        )
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    k = draw(st.integers(1, 4))
    n = math.prod(sizes)
    table = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        # A leading factor that repeats the table to at least
        # DIGIT_PATH_MIN_CHARS entries, so a compact file is read by the
        # digit-array decoder.
        copies = -(-DIGIT_PATH_MIN_CHARS // len(table))
        sizes, table = [copies, *sizes], table * copies
    n = math.prod(sizes)
    if kind == "length":
        m = draw(st.integers(0, n + 3).filter(lambda m: m != n))
        table = (table + [0] * 3)[:m]
        return _space_doc(sizes, k, table), 2, (
            f"variables['x'].table has {m} entries, space has {n} outcomes"
        )
    pos = draw(st.integers(0, n - 1))
    if kind == "type":
        table[pos] = draw(st.sampled_from(BAD_TYPED))
        return _space_doc(sizes, k, table), 2, TABLE_TYPE_ERROR
    bad = draw(st.integers(max_value=-1) | st.integers(min_value=k))
    table[pos] = bad
    return _space_doc(sizes, k, table), 2, (
        f"variable 'x' table entry {bad} outside codomain of {k}"
    )


@settings(max_examples=150, deadline=None)
@given(malformed_space_files(), st.sampled_from(COMMANDS), st.sampled_from(SEPARATORS))
def test_malformed_space_files_exit_promptly(case, command, separators):
    doc, code, message = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.json"
        path.write_text(json.dumps(doc, separators=separators))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {OUTCOME_CAP_ENV: str(MALFORMED_CAP)}):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                got = main([command[0], str(path), *command[1:]])
                elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert (got, out.getvalue(), err.getvalue()) == (code, "", f"error: {message}\n")


def test_console_entry_point(space_file):
    proc = run_module("indep", space_file, "u0", "u1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["independent"] is True


def _run_with_closed_stdout(*argv, unbuffered):
    """Run ``python -m facthist.cli`` with a reader that closes stdout unread."""
    src = str(Path(facthist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "facthist.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    # The child is still starting up, so nothing it writes is ever read.
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), err.decode()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_zero_without_a_traceback(tmp_path, unbuffered):
    from test_corpora import _load_workloads

    (op, *_) = _load_workloads().ci_verify(0, tmp_path)
    space = op.calls[0][1]
    # Buffered, a short document fails when main() flushes it and one of
    # about 12 kB (an embedding of 256 outcomes) while it is printed;
    # unbuffered, every document fails while it is printed.
    dag = Dag([(n, 2) for n in "ABCD"], [("A", "C"), ("B", "C"), ("C", "D")])
    dag_path = tmp_path / "dag.json"
    dag_path.write_text(json.dumps(dag_to_doc(dag)))
    # A positive verdict, a negative one and a large document end alike.
    for argv in (
        ("indep", space, "X", "Y", "--given", "Z"),
        ("indep", space, "X", "W", "--given", "Z"),
        ("embed", str(dag_path), "--pretty"),
    ):
        assert _run_with_closed_stdout(*argv, unbuffered=unbuffered) == (0, ""), argv
    # Errors still go to stderr with their own codes.
    code, err = _run_with_closed_stdout(
        "indep", str(tmp_path / "missing.json"), "X", "Y", unbuffered=unbuffered
    )
    assert code == 2 and err.startswith("error: cannot read")


STDLIB_CHILD = r"""
import contextlib, io, json, os, sys, tempfile
from facthist import Dag, dag_to_doc, space_to_doc
from facthist.cli import main
from facthist.space import Factor, FactoredSpace, RandomVariable, factor_var

space = FactoredSpace([Factor("u0", ("0", "1")), Factor("u1", ("0", "1"))])
xor = RandomVariable("XOR", ("0", "1"), (0, 1, 1, 0))
tmp = tempfile.mkdtemp()
space_path, dag_path = os.path.join(tmp, "space.json"), os.path.join(tmp, "dag.json")
with open(space_path, "w") as fh:
    json.dump(space_to_doc(space, {"XOR": xor}), fh)
with open(dag_path, "w") as fh:
    json.dump(dag_to_doc(Dag([("A", 2), ("B", 2)], [("A", "B")])), fh)
calls = [
    ["history", space_path, "--var", "XOR", "--given", "u0"],
    ["indep", space_path, "u0", "u1"],
    ["atoms", space_path, "--given", "XOR"],
    ["verify", space_path, "u0", "u1"],
    ["verify", space_path, "u0", "u1", "--given", "XOR"],
    ["witness", space_path, "u0", "u1", "--given", "XOR"],
    ["dsep", dag_path, "A", "B"],
    ["embed", dag_path, "-o", os.path.join(tmp, "embedded.json")],
    ["axioms", "--iters", "1"],
]
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
allowed = set(sys.stdlib_module_names) | {"facthist", "__main__"}
foreign = sorted({m.split(".")[0] for m in sys.modules} - allowed)
print(json.dumps({"codes": codes, "foreign": foreign}))
"""


def test_runtime_imports_only_the_standard_library():
    # -S keeps site hooks out of sys.modules; numpy, scipy and networkx are
    # importable in a test environment, so only a bare child can tell.
    src = str(Path(facthist.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_CHILD],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    # Every call answers; only dsep, on the edge A -> B, says "connected".
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0, 0, 0, 1, 0, 0], "foreign": []}


def test_traced_names_resolve():
    # perfbench/spans.py wraps functions by name; a renamed or deleted one
    # makes `run.py --trace 1` fail, which no other test runs.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(mod, fn) for mod, funcs in spans.SPANS.items() for fn in funcs]
    names += [tuple(fn.split(".")) for fn, _ in spans.COUNTS.values()]
    for mod, fn in names:
        assert callable(getattr(importlib.import_module(f"facthist.{mod}"), fn)), (mod, fn)


# sha256 over repr((exit code, stdout, stderr)) of every call in
# SURFACE_CALLS, run in a fresh directory that holds the files below.
PINNED_SURFACE = (42, "8137288bf9acde6be0aee506e0f95d527e0696f1a96e4b09433b3bec65f2ec3b")

SURFACE_SPACE = {
    "factors": [{"name": f"u{i}", "domain": ["0", "1"]} for i in range(3)],
    "variables": {"XOR": {"codomain": ["0", "1"], "table": [0, 0, 1, 1, 1, 1, 0, 0]}},
}

SURFACE_CALLS = [
    *(
        argv + pretty
        for pretty in ([], ["--pretty"])
        for argv in (
            ["history", "s.json", "--var", "u0"],
            ["history", "s.json", "--var", "u0", "--given", "XOR"],
            ["history", "s.json", "--var", "XOR", "--given", "u0,u2"],
            ["indep", "s.json", "u0", "u2", "--given", "XOR"],
            ["indep", "s.json", "u0", "u1", "--given", "XOR"],
            ["atoms", "s.json"],
            ["atoms", "s.json", "--given", "XOR"],
            ["dsep", "d.json", "A", "B"],
            ["dsep", "d.json", "A", "B", "--given", "C"],
            ["embed", "d.json"],
            ["embed", "d.json", "-o", "e.json"],
            ["verify", "s.json", "u0", "u2", "--given", "XOR", "--samples", "5"],
            ["verify", "s.json", "u0", "u1", "--given", "XOR"],
            ["verify", "s.json", "u0", "u1", "--given", "XOR", "--tries", "0"],
            ["witness", "s.json", "u0", "XOR"],
            ["witness", "s.json", "u0", "u1", "--given", "XOR", "--tries", "0"],
            ["axioms", "--iters", "2"],
        )
    ),
    ["verify", "s.json", "u0", "u2", "--given", "XOR", "--samples", "0"],
    ["history", "s.json", "--var", "nope"],
    ["indep", "s.json", "u0", "u1", "--given", "XOR,nope"],
    ["indep", "s.json", "u0", "nope_y", "--given", "nope_z"],
    ["witness", "s.json", "u0", "u2", "--given", "XOR"],
    ["verify", "s.json", "u0", "u1", "--tries", "-1"],
    ["witness", "s.json", "u0", "XOR", "--tries", "-3"],
    ["verify", "missing.json", "u0", "u1", "--samples", "-2"],
]


def test_cli_surface_is_pinned(capsys, monkeypatch, tmp_path):
    # Every command, compact and indented, affirmative and negative, plus
    # name and budget errors (names resolve x, y, then --given; budgets are
    # checked before the file is read): a refactor of the CLI must leave
    # all of it byte-identical.
    monkeypatch.chdir(tmp_path)
    Path("s.json").write_text(json.dumps(SURFACE_SPACE))
    dag = Dag([("A", 2), ("B", 2), ("C", 2)], [("A", "C"), ("B", "C")])
    Path("d.json").write_text(json.dumps(dag_to_doc(dag)))
    digest = hashlib.sha256()
    for argv in SURFACE_CALLS:
        digest.update(repr(run_cli(capsys, *argv)).encode())
    assert (len(SURFACE_CALLS), digest.hexdigest()) == PINNED_SURFACE
    # embed -o writes what embed prints.
    assert Path("e.json").read_text() == run_cli(capsys, "embed", "d.json")[1]


# sha256 over repr((exit code, stdout, stderr)) of every call in HELP_CALLS
# at COLUMNS=80, run next to SURFACE_SPACE: the help and usage text and the
# errors argparse reports.  argparse lays help out differently from one
# Python release to the next, so the digest is per release.
PINNED_HELP = {(3, 11): (15, "0f33eafc43359e830a4656ba72bcf73bb37d590bb1262ee2125d4735cffd4580")}

HELP_CALLS = [
    ["-h"],
    *(
        [command, "-h"]
        for command in (
            "history", "indep", "dsep", "embed", "verify", "witness", "axioms", "atoms"
        )
    ),
    ["indep", "s.json", "u0"],
    ["history", "s.json", "--var", "u0", "--bogus"],
    ["indep", "s.json", "u0", "u2", "--giv", "XOR"],
    ["indep", "s.json", "u0", "u2", "--given=XOR"],
    ["verify", "s.json", "u0", "u2", "--seed", "x"],
    ["verify", "s.json", "u0", "u1", "--tries", "-3"],
]


def test_help_and_usage_are_pinned(capsys, monkeypatch, tmp_path):
    pinned = PINNED_HELP.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip("no help digest taken on this Python release")
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    Path("s.json").write_text(json.dumps(SURFACE_SPACE))
    digest = hashlib.sha256()
    for argv in HELP_CALLS:
        digest.update(repr(run_cli(capsys, *argv)).encode())
    assert (len(HELP_CALLS), digest.hexdigest()) == pinned


OPTION_STRINGS = sorted(
    {
        flag
        for _, _, arguments in _COMMANDS.values()
        for flags, _ in arguments
        for flag in flags
        if flag.startswith("-")
    }
    | {"-h", "--help"}
)
NAMES = ["u0", "XOR", "s.json", "x", "", "a b"]
TOKENS = st.one_of(
    st.sampled_from([*_COMMANDS, *OPTION_STRINGS, *NAMES, "--", "-"]),
    # Abbreviations, and prefixes of short options such as "-".
    st.sampled_from(OPTION_STRINGS).flatmap(
        lambda o: st.integers(1, len(o) - 1).map(lambda k: o[:k])
    ),
    st.builds("{}={}".format, st.sampled_from(OPTION_STRINGS), st.sampled_from(["3", "x", ""])),
    st.integers(-20, 20).map(str),
)
# Values that argparse takes, so that many drawn command lines are well formed.
VALUES = st.one_of(st.sampled_from(NAMES), st.integers(0, 99).map(str))


@st.composite
def command_lines(draw):
    """A command and each of its declared arguments, each left out at times,
    in a random order, with a few random tokens spliced in."""
    command = draw(st.sampled_from([*_COMMANDS, "-h", "nope", ""]))
    chunks = []
    for flags, kwargs in _COMMANDS[command][2] if command in _COMMANDS else ():
        # About one in ten is left out (hypothesis favours the bounds 0 and 9).
        if draw(st.integers(0, 9)) == 5:
            continue
        flag = draw(st.sampled_from(flags))
        if not flag.startswith("-"):
            chunks.append([draw(VALUES)])
        elif kwargs.get("action") == "store_true":
            chunks.append([flag] * draw(st.integers(1, 2)))
        else:
            chunks.append([flag, draw(st.one_of(VALUES, TOKENS))])
    tokens = [token for chunk in draw(st.permutations(chunks)) for token in chunk]
    for token in draw(st.lists(TOKENS, max_size=2)):
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    return [command, *tokens]


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_fast_path_parses_as_argparse_does(argv):
    fast = _fast_args(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = _build_parser().parse_args(argv)
        except SystemExit:
            assert fast is None
            return
    if fast is not None:
        assert vars(fast) == vars(parsed)


def test_which_calls_take_the_fast_path():
    # Every surface call but the three with a negative budget, which
    # argparse reads as a value and the fast path leaves to it; no help
    # or usage-error call.
    negative = [
        argv for argv in SURFACE_CALLS if any(t[:1] == "-" and t[1:].isdigit() for t in argv)
    ]
    assert len(negative) == 3
    for argv in SURFACE_CALLS:
        if argv not in negative:
            assert vars(_fast_args(argv)) == vars(_build_parser().parse_args(argv)), argv
    for argv in [*negative, *HELP_CALLS]:
        assert _fast_args(argv) is None, argv
