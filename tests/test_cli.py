"""End-to-end CLI behaviour: JSON shapes, exit codes, determinism.

Commands are driven through main() with captured stdout, which is what the
console script wraps; a couple of smoke tests also go through the real
subprocess entry point.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from facthist import RandomVariable, space_to_doc, dag_to_doc, Dag, space_from_doc
from facthist.cli import main

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
    code, out, _ = run_cli(
        capsys, "history", space_file, "--var", "XOR", "--unconditional"
    )
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


def test_pretty_output(capsys, space_file):
    code, out, _ = run_cli(capsys, "history", space_file, "--var", "u0", "--pretty")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["variable"] == "u0"


def test_usage_errors(capsys):
    assert run_cli(capsys, "history")[0] == 2
    assert run_cli(capsys, "nosuch")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_console_entry_point(space_file):
    proc = subprocess.run(
        [sys.executable, "-m", "facthist.cli", "indep", space_file, "u0", "u1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["independent"] is True
