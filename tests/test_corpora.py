"""Byte-for-byte outputs of the benchmark corpora.

perfbench/workloads.py writes four seeded corpora of space and DAG files
and lists the CLI calls made on them.  A change meant only to make the
package faster must leave every one of those calls' exit codes, stdout and
stderr unchanged, so their digests are pinned here.  The file is loaded by
path and only read, like perfbench/spans.py in test_cli.py.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from facthist.cli import main

# sha256 over repr((exit code, stdout, stderr)) of every distinct call at
# seed 0, in order of first use, with the corpus directory written "<root>".
PINNED = {
    "parity-history": (17, "d90453e21294aa0bf564a3793ad90c62d556900d75c9203fc1198e56dce349c9"),
    "ci-verify": (9, "e6584941f082dfe4f1f7f40f67fa3b372177c6c7b364df46dff8add63b5bb70b"),
    "dag-bridge": (252, "7ba21383003a53e25bb2969efc9e7ccaf3194e4ed0901e8e7a216d590124758d"),
    "axioms-suite": (192, "97b85dff278e9b976456fb38f327e088fe4d02230b39fde7fb96fd635c189ecb"),
}


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _digest(root: Path, calls) -> str:
    digest = hashlib.sha256()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        texts = (s.getvalue().replace(str(root), "<root>") for s in (out, err))
        digest.update(repr((code, *texts)).encode())
    return digest.hexdigest()


def test_corpus_outputs_are_pinned(tmp_path):
    workloads = _load_workloads()
    assert list(workloads.WORKLOADS) == list(PINNED)
    got = {}
    for name, build in workloads.WORKLOADS.items():
        root = tmp_path / name
        root.mkdir()
        # An op's calls run in order (embed writes the file indep reads).
        calls = list(dict.fromkeys(call for op in build(0, root) for call in op.calls))
        got[name] = (len(calls), _digest(root, calls))
    assert got == PINNED


# The same digest over history --given and atoms --given on the dag-bridge
# embeddings at seed 0: for every indep call with a conditioner, the history
# of each side and the atoms of every block.  The conditioner reads the
# response factors of the given nodes' ancestors, which interleave with
# factors it does not read, so these pin the conditioned block layout.
PINNED_DAG_CONDITIONED = (
    216, "d0dab14f341383e50c3db46b2e563ba65e770f1156e09c4a5ee8d8aa1d4a5d1e"
)


def test_dag_bridge_conditioned_outputs_are_pinned(tmp_path):
    workloads = _load_workloads()
    calls = []
    for op in workloads.dag_bridge(0, tmp_path):
        for call in op.calls:
            if call[0] == "embed":
                assert main(list(call)) == 0
            elif call[0] == "indep" and "--given" in call:
                path, x, y, _, given = call[1:]
                calls += [
                    ("history", path, "--var", x, "--given", given),
                    ("history", path, "--var", y, "--given", given),
                    ("atoms", path, "--given", given),
                ]
    assert (len(calls), _digest(tmp_path, calls)) == PINNED_DAG_CONDITIONED
