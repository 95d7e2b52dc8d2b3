"""The space-file loader against json.loads.

``cli._loads`` reads the compact array of a "table" key, when it holds
single digits joined by bare commas, in a few C-level passes, as bytes,
once the first compact table key and its array span at least
``DIGIT_PATH_MIN_CHARS`` characters.  Whatever the text, it must return
what json.loads returns (bools stay bools), with bytes only as the value of
a "table" key where json.loads gives a list of the ints 0 to 9, or raise
the same exception with the same message, and the fast path must take
every compact table and nothing else.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

from facthist import Factor, FactoredSpace, RandomVariable, cli, space_from_doc
from facthist.cli import DIGIT_PATH_MIN_CHARS, _DigitTableDecoder, _loads


def _as_lists(value, want, key=None):
    """value with each bytes object as a list of its ints, after checking
    that the bytes are the value of a "table" key and that want, what
    json.loads returned, has a list of the ints 0 to 9 there."""
    if isinstance(value, bytes):
        assert key == "table"
        assert type(want) is list and all(type(v) is int and 0 <= v <= 9 for v in want)
        return list(value)
    if isinstance(value, dict):
        want = want if isinstance(want, dict) else {}
        return {k: _as_lists(v, want.get(k), k) for k, v in value.items()}
    if isinstance(value, list):
        want = want if isinstance(want, list) and len(want) == len(value) else [None] * len(value)
        return [_as_lists(v, w) for v, w in zip(value, want)]
    return value


def _outcome(load, text: str, want=None):
    try:
        return "ok", repr(_as_lists(load(text), want))
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def assert_loads_like_json(text: str) -> None:
    expected = _outcome(json.loads, text)
    want = json.loads(text) if expected[0] == "ok" else None
    assert _outcome(_loads, text, want) == expected
    # Most generated texts are below the size gate; open it to any text
    # with a compact table key.
    with mock.patch.object(cli, "DIGIT_PATH_MIN_CHARS", 1):
        assert _outcome(_loads, text, want) == expected
    # Ungated, the decoder may raise where json.loads does not (_loads then
    # falls back), but what it returns must be what json.loads returns.
    got = _outcome(_DigitTableDecoder().decode, text, want)
    assert got[0] != "ok" or got == expected


def _gated(fragment: str) -> str:
    """fragment as a table in a document above the decoder's size gate."""
    zeros = ",".join("0" * DIGIT_PATH_MIN_CHARS)
    return f'{{"variables":{{"w":{{"table":[{zeros}]}},"x":{{"codomain":["a"],"table":{fragment}}}}}}}'


FIXED = [
    "[1,",
    "[1,2",
    "[]",
    "[01]",
    "[1,,2]",
    "[,1]",
    "[1,]",
    "[1 ,2]",
    "[1,2]x",
    "[1,2]]",
    "[١]",
    "[1,٢]",
    "1١",
    "1.١",
    "[" * 100_000,
    "[" * 100_000 + "]" * 100_000,
]


def test_fixed_cases_load_like_json():
    for fragment in FIXED:
        assert_loads_like_json(fragment)
        assert_loads_like_json(_gated(fragment))
    assert _loads(_gated("[1,2]"))["variables"]["x"]["table"] == bytes([1, 2])


def test_digit_arrays_under_other_keys_load_as_lists():
    # Above the size gate, so the decoder reads every object; only a key
    # exactly "table" takes the digit path, and bytes stand nowhere else.
    zeros = ",".join("0" * DIGIT_PATH_MIN_CHARS)
    w = f'"w":{{"table":[{zeros}]}}'
    for text in (
        f'{{{w},"factors":[1,2,3]}}',
        f'{{{w},"factors":[{{"name":"u","domain":[0,1]}}]}}',
        f'{{"variables":{{{w},"x":{{"codomain":[0,1],"table":[0,1]}}}}}}',
        f'{{{w},"nodes":[4,5],"edges":[6,7]}}',
        f'{{{w},"my\\"table":[1,2]}}',
        f'{{{w},"xtable":[1,2],"table ":[3]}}',
        "[1,2,3]",
        f"[{zeros}]",
    ):
        assert_loads_like_json(text)


def test_digit_array_reads_only_a_whole_digit_array():
    for fragment in [*FIXED, "[7]", "[1,2,3]", "[1,23", "[1,2]3]"]:
        found = cli._digit_array(fragment, 1)
        if found is not None:
            values, end = found
            assert fragment[end - 1] == "]"
            assert type(values) is bytes
            assert json.loads(fragment[:end]) == list(values)


ENTRIES = st.one_of(
    st.integers(0, 9),
    st.integers(-1000, 1000),
    st.sampled_from([True, False, None]),
    st.floats(),
    st.text(alphabet="0123456789,[]{} \"\\١", max_size=4),
    st.lists(st.integers(0, 9), max_size=3),
)


def _tiled(entries):
    # Short drawn lists repeated up to 1000 entries keep hypothesis's
    # examples small and reach both sides of the size gate.
    return st.builds(lambda t, r: (t * r)[:1000], st.lists(entries, max_size=40), st.integers(1, 25))


TABLES = st.one_of(_tiled(st.integers(0, 9)), _tiled(ENTRIES))
NAMES = st.text(alphabet="abXY_0 ,[]\"", max_size=4)


@st.composite
def space_shaped_docs(draw):
    factors = [
        {"name": name, "domain": draw(st.lists(NAMES, max_size=3))}
        for name in draw(st.lists(NAMES, max_size=3))
    ]
    variables = {
        name: {"codomain": draw(st.lists(NAMES, max_size=3)), "table": draw(TABLES)}
        for name in draw(st.lists(NAMES, max_size=4))
    }
    return {"factors": factors, "variables": variables}


SEPARATORS = [{"separators": (",", ":")}, {}, {"indent": 2}]


@settings(max_examples=200, deadline=None)
@given(space_shaped_docs(), st.randoms(use_true_random=False))
def test_loads_matches_json_loads(doc, rnd):
    for options in SEPARATORS:
        text = json.dumps(doc, **options)
        assert_loads_like_json(text)
        cut = rnd.randrange(len(text) + 1)
        assert_loads_like_json(text[:cut])
        char = rnd.choice("0123456789,[]{}:\" -.e١x\n")
        assert_loads_like_json(text[:cut] + char + text[cut + 1 :])
        assert_loads_like_json(text[:cut] + char + text[cut:])
        assert_loads_like_json(text + rnd.choice(["x", " ", ",", "]", "[1,2]", "\n\n"]))


def _ci_shaped_doc(rng: random.Random) -> dict:
    """Eight factors of 2 and 3 values, 1296 outcomes, four variables."""
    sizes = [2, 3] * 4
    n = 1296
    return {
        "factors": [
            {"name": f"u{i}", "domain": [str(v) for v in range(s)]}
            for i, s in enumerate(sizes)
        ],
        "variables": {
            name: {
                "codomain": [f"{name.lower()}{v}" for v in range(k)],
                "table": [rng.randrange(k) for _ in range(n)],
            }
            for name, k in (("W", 2), ("X", 3), ("Y", 3), ("Z", 3))
        },
    }


def _digit_path_results(text: str) -> list:
    """What _digit_array returned for each array _loads offered it."""
    results = []
    digit_array = cli._digit_array

    def record(s, end):
        results.append(found := digit_array(s, end))
        return found

    with mock.patch.object(cli, "_digit_array", record):
        _loads(text)
    return results


def test_digit_path_takes_every_compact_table_and_nothing_else():
    doc = _ci_shaped_doc(random.Random(0))
    tables = [v["table"] for v in doc["variables"].values()]
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    found = [list(r[0]) for r in _digit_path_results(compact) if r is not None]
    assert found == tables
    # Default separators put a space after each colon and comma, so the
    # decoder does not run.
    assert _digit_path_results(json.dumps(doc, sort_keys=True)) == []
    # The first compact table alone opens the gate: a short one ahead of
    # the long ones keeps the decoder off, and a long one lets it read every
    # table after it, short ones included.
    short = {"codomain": ["0", "1"], "table": [0, 1, 1, 0]}
    for variables, want in (
        ({"s": short, **doc["variables"]}, []),
        ({**doc["variables"], "s": short}, [*tables, short["table"]]),
    ):
        text = json.dumps({**doc, "variables": variables}, separators=(",", ":"))
        assert [list(r[0]) for r in _digit_path_results(text) if r is not None] == want
    # Many small tables stay below the size gate.
    many = {
        "factors": doc["factors"][:2],
        "variables": {f"v{i}": {"codomain": ["0", "1"], "table": [0, 1, 1, 0]} for i in range(1000)},
    }
    assert _digit_path_results(json.dumps(many, separators=(",", ":"))) == []


def test_parsed_tables_hold_one_byte_per_entry(tmp_path):
    # Two tables over 2**18 outcomes, written compact: the decoder reads
    # each as bytes and the space keeps them as they are, so the parsed
    # space holds about one byte per entry, not an eight-byte tuple slot.
    n = 2**18
    space = FactoredSpace([Factor(f"u{i}", ("0", "1")) for i in range(18)])
    variables = {
        "X": RandomVariable("X", ("a", "b", "c"), bytes(r % 3 for r in range(n))),
        "Y": RandomVariable("Y", ("a", "b"), bytes(r >> 7 & 1 for r in range(n))),
    }
    path = tmp_path / "space.json"
    path.write_bytes(cli._dump_space(space, variables))
    tracemalloc.start()
    try:
        parsed = space_from_doc(cli._load_json(str(path)))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert parsed[1] == variables
    # About 0.53 MB of 2 * n entries; as tuples the tables held 4.2 MB.
    assert held < 1.1 * 2 * n
