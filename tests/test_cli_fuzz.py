"""Generated command lines over all three commands and every construct kind.

Every invocation must end in exit 0 with valid JSON on stdout, or in exit
1 or 2 with exactly one ``error:`` line on stderr and nothing on stdout;
an exception escaping ``main`` fails the test. hypothesis is a test-only
dependency; examples are derandomized and few, as in test_properties.

Half of the invocations are clean: a fixture or a well-formed graph text,
the fixture's cospectral pair, and option values that are valid on their
own, so that the success paths are reached. The other half may take a
faulty value anywhere: an unknown fixture, a malformed line, a bad vertex,
a bad option value. A quarter of those also carry a fault that argparse
itself rejects: a malformed number for an option it converts, a missing
--u or --v, or an unknown command or construct kind. Such a usage error
must end in exit 1. Faulty vertex counts fall on both sides of
MAX_VERTICES; a count above 8 is asked about one vertex twice, so that a
graph under the bound is loaded (and refused as u = v) without building
its dense matrix.

The report writer is checked on its own against
``json.dumps(obj, indent=2, allow_nan=False)`` over generated documents,
and over lists of same-shape records, which it writes with one %-format,
with and without one perturbation that must send it back to writing item
by item.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from pgstkit.cli import _dumps, _records, main
from pgstkit.graphs import MAX_VERTICES

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=200, deadline=None, database=None)

GRAPH_FILE = "{tmp}/g.in"
PAIRS = {GRAPH_FILE: ("0", "1"), "@G_A": ("3", "6"), "@G_B": ("1", "8"), "@G_C": ("u", "v"), "@G_D": ("h1", "h4")}
VERTICES = ["0", "1", "2", "3", "8", "-1", "x", "u", "h1", "99"]
BAD_COUNTS = ["0", "-1", "x", str(MAX_VERTICES), str(MAX_VERTICES + 1), str(10**8)]
WEIGHTS = ["", " 2", " 1/2", " -3", " 0"]
VALUES = ["1", "Q", "-2", "1/2", "Q+1", "2*Q", "Q^2", "R"]
JUNK = [
    "# comment\n", "\n", "z 1\n", "n\n", "n 4\n", "e 0\n", "e 0 0\n", "e 0 9\n", "e 0 1 x\n",
    "e 0 1 1e400\n", "p 1\n", "p 1 t\n", "p 1 1/0\n", "p 1 Q*R\n", f"p 1 1{'0' * 400}\n",
]
POTENTIAL = (["Q", "P", "3", "1/2", "Q+1"], ["2*Q", "t", "", "Q*P", "1/0", "1" + "0" * 400])

# malformed numbers for the options that argparse converts, per command
MALFORMED = {
    "analyze": ["--tmax x", "--steps 1.5", "--relation-bound 1e3", "--relation-precision 1/2"],
    "simulate": ["--tmax 1/2", "--steps x"],
    "construct": ["--k x", "--k 3.0"],
}

# command -> (option, valid values, faulty values); None leaves the option out
OPTIONS = {
    "analyze": [
        ("--potential", [None, *POTENTIAL[0]], POTENTIAL[1]),
        ("--simulate", [None, "--tmax 40 --steps 300"], ["--steps 1", "--tmax 1e17"]),
        ("--potential-value", [None, "3", "pi", "1/2"], ["x", "", "1e400", "1e308"]),
        ("--relation-bound", [None, "1", "1000000"], ["0"]),
        ("--relation-precision", [None, "1e-6"], ["0", "nan"]),
    ],
    "simulate": [
        ("--potential", [None, *POTENTIAL[0]], POTENTIAL[1]),
        ("--potential-value", [None, "3", "pi", "1/2"], ["x", "", "1e400", "1e308"]),
        ("--tmax", [None, "40"], ["0", "-1", "inf", "1e308"]),
        ("--steps", [None, "300"], ["1", "100000000000"]),
        ("--csv", [None, "{tmp}/s.csv"], ["{tmp}/missing/s.csv"]),
    ],
    "glue-path": [
        ("--q", ["4", "2", "auto", "1", "0"], [None, "x", "-1", str(10**8)]),
        ("--potential", [None, "P", "Q"], ["2", "2*Q"]),
    ],
    "glue-pot": [
        ("--k", ["3", "5"], [None, "4", "1", "-3", str(10**8 + 1)]),
        ("--potential", [None, "P"], ["2*Q"]),
        ("--out", [None, "{tmp}/g.txt"], ["{tmp}/missing/g.txt"]),
    ],
    "change-trace": [
        ("--k", ["3", "5"], [None, "4", str(10**8 + 1)]),
        ("--potential", [None, "P"], ["Qp"]),
        ("--sym", [None, "S"], ["Q", "t"]),
    ],
    "equitable": [
        ("--w", [None, "o0"], ["0", "u", "x", "99"]),
        ("--sym1", [None, "A"], ["Q2", "Q"]),
        ("--sym2", [None, "B"], ["Q1", "Q"]),
    ],
}


@st.composite
def graph_texts(draw, clean: bool) -> tuple[str, bool]:
    """A graph text on 2 to 8 vertices, maybe with the swap of vertices 0
    and 1 as an automorphism; unless clean, maybe declared with another
    count and with one malformed line. Also whether it declares more than
    8 vertices."""
    size = draw(st.integers(2, 8))
    vertex = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from(WEIGHTS)), max_size=12))
    potentials = draw(st.dictionaries(vertex, st.sampled_from(VALUES), max_size=3))
    if draw(st.booleans()):  # close under the swap of 0 and 1
        swap = {0: 1, 1: 0}
        edges += [(swap.get(i, i), swap.get(j, j), w) for i, j, w in edges]
        for i, value in list(potentials.items()):
            potentials[i] = potentials[swap.get(i, i)] = value
    lines = [f"e {i} {j}{w}\n" for i, j, w in edges if i != j]
    lines += [f"p {i} {value}\n" for i, value in potentials.items()]
    count = str(size)
    if not clean and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(JUNK)))
    if not clean and draw(st.booleans()):
        count = draw(st.sampled_from(BAD_COUNTS))
    return f"n {count}\n" + "".join(lines), count.isdigit() and int(count) > 8


@st.composite
def invocations(draw) -> tuple[str | None, list[str], bool]:
    """A graph text or None, the argument list, and whether argparse itself
    must reject it."""
    clean = draw(st.booleans())
    graph = draw(st.sampled_from(sorted(PAIRS) + ([] if clean else ["@G_Z"])))
    text, large = draw(graph_texts(clean)) if graph == GRAPH_FILE else (None, False)
    u, v = PAIRS.get(graph, ("0", "1"))
    if not clean and draw(st.booleans()):
        u, v = draw(st.sampled_from(VERTICES)), draw(st.sampled_from(VERTICES))
    if large:
        u = v = "0"
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command] if command in ("analyze", "simulate") else ["construct", command]
    argv += [graph, "--u", u, "--v", v]
    for name, valid, faulty in OPTIONS[command]:
        value = draw(st.sampled_from(valid if clean else valid + faulty))
        if value is not None:
            argv += value.split() if name == "--simulate" else [name, value]
    usage = not clean and draw(st.integers(0, 3)) == 0
    if usage:
        fault = draw(st.sampled_from(["number", "missing", "unknown"]))
        if fault == "number":
            argv += draw(st.sampled_from(MALFORMED[argv[0]])).split()
        elif fault == "missing":
            flag = argv.index(draw(st.sampled_from(["--u", "--v"])))
            del argv[flag : flag + 2]
        else:
            argv[argv.index(command)] += "-x"
    return text, argv, usage


@PROFILE
@given(invocations())
@example((f"n {MAX_VERTICES}\ne 0 1\n", ["simulate", GRAPH_FILE, "--u", "0", "--v", "0"], False))
@example((f"n {MAX_VERTICES + 1}\ne 0 1\n", ["analyze", GRAPH_FILE, "--u", "0", "--v", "1"], False))
@example((None, ["construct", "change-trace", "@G_A", "--u", "3", "--v", "6", "--k", str(MAX_VERTICES + 1)], False))
@example((None, ["construct", "glue-pot", "@G_B", "--u", "1", "--v", "8", "--k", "x"], True))
def test_every_invocation_ends_in_json_or_one_error_line(tmp_path_factory, case):
    text, argv, usage = case
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    if text is not None:
        (tmp / "g.in").write_text(text)
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert not usage, argv
        assert err == ""
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    else:
        assert code in ((1,) if usage else (1, 2)), (argv, code)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


# ---------------------------------------------------------------------------
# the report writer

TEXTS = st.text(st.one_of(st.sampled_from('"\\[]{},: /'), st.characters()), max_size=6)
INTS = st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40))
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1e300, -1e-320, 5e-324]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXTS)
KEYS = st.one_of(TEXTS, INTS, FLOATS, st.booleans(), st.none())
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, *(st.lists(s, max_size=4) for s in (st.booleans(), INTS, FLOATS, TEXTS))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=20,
)


def _written(write, doc) -> str | tuple[str, str]:
    try:
        return write(doc)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(DOCUMENTS)
@example({"l": [0, 1, -3], "m": (True, False), 1: None, 2.5: [], False: {}, None: -0.0})
@example([[1.0, float("nan")]])
@example({float("inf"): 1})
@example({"a": [1, float("-inf")]})
@example([{"a": 1}])  # one record is written item by item
def test_report_writer_matches_json_dumps(doc):
    # floats include nan and +-inf, which both writers must refuse alike
    assert _written(_dumps, doc) == _written(lambda d: json.dumps(d, indent=2, allow_nan=False), doc)


@pytest.mark.parametrize("doc", [float("nan"), [1.0, float("inf")], {"x": {-float("inf"): 0}}])
def test_report_writer_refuses_non_finite_floats(doc):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _dumps(doc)


# lists of records of one shape: the writer's record path

RECORD_KEYS = ["l", "m", "residual", "%d", "a%sb", "100%", "\u00e9", ""]
RECORD_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 0.0, 5e-324]))
# (scalar strategy, list length or None) for each column kind
COLUMNS = st.one_of(
    st.tuples(st.sampled_from([INTS, RECORD_FLOATS]), st.none()),
    st.tuples(st.sampled_from([INTS, RECORD_FLOATS]), st.integers(1, 4)),
)
# one item changed so that the list is no longer of one shape
PERTURBATIONS = [
    "bool", "int subclass", "float for int", "nan", "inf", "ragged", "empty list", "string",
    "none", "nested", "reordered", "missing key", "extra key", "not a dict", "empty dict", "tuple",
]


class _Int(int):
    pass


@st.composite
def same_shape_records(draw) -> list:
    keys = draw(st.lists(st.sampled_from(RECORD_KEYS), min_size=1, max_size=4, unique=True))
    columns = [draw(COLUMNS) for _ in keys]
    count = draw(st.integers(2, 6))

    def value(scalar, length):
        return draw(scalar) if length is None else draw(st.lists(scalar, min_size=length, max_size=length))

    return [{key: value(*column) for key, column in zip(keys, columns)} for _ in range(count)]


@st.composite
def perturbed_records(draw) -> tuple[list, str]:
    records = draw(same_shape_records())
    i = draw(st.integers(0, len(records) - 1))
    item = records[i]
    key = draw(st.sampled_from(sorted(item)))
    kind = draw(st.sampled_from(PERTURBATIONS))
    listed = type(item[key]) is list
    if kind == "bool":
        item[key] = [True] * len(item[key]) if listed else False
    elif kind == "int subclass":
        item[key] = _Int(7)
    elif kind == "float for int":  # a float where the first record has an int, or the reverse
        first = records[0][key][0] if listed else records[0][key]
        item[key] = 1.5 if type(first) is int else 1
    elif kind in ("nan", "inf"):
        item[key] = float(kind)
    elif kind == "ragged":
        item[key] = [1] * (len(item[key]) + 1) if listed else [1]
    elif kind == "empty list":
        for record in records:
            record[key] = []
    elif kind == "string":
        item[key] = "x"
    elif kind == "none":
        item[key] = None
    elif kind == "nested":
        item[key] = {"x": 1}
    elif kind == "reordered":
        item = records[i] = {k: item[k] for k in [key] + [k for k in item if k != key]}
        if list(item) == list(records[(i + 1) % len(records)]):
            item["zz"] = 1
    elif kind == "missing key":
        del item[key]
    elif kind == "extra key":
        item["zz"] = 1
    elif kind == "not a dict":
        records[i] = draw(st.sampled_from([None, 1, [1], "x"]))
    elif kind == "empty dict":
        records = [{} for _ in records]
    else:  # a tuple in place of a list
        item[key] = tuple(item[key]) if listed else (item[key],)
    return records, kind


def _same_text(doc) -> None:
    assert _written(_dumps, doc) == _written(lambda d: json.dumps(d, indent=2, allow_nan=False), doc)


@PROFILE
@given(same_shape_records())
@example([{"l": [1, -2], "m": [3], "residual": -0.0}, {"l": [0, 2], "m": [-1], "residual": 0.0}])
@example([{"%d": 1}, {"%d": 2}])
@example([{"a": 10**40, "b": [5e-324, -1e300]}, {"a": -(10**40), "b": [-0.0, 0.1]}])
@example([{"a": [1.5, -0.0]}, {"a": [0.0, 2.0]}])
def test_same_shape_records_take_the_record_path(records):
    assert _records(records, "\n  ") is not None
    _same_text(records)
    _same_text({"relations": records, "bound": 3})


@PROFILE
@given(perturbed_records())
@example(([{}, None], "not a dict"))
@example(([{"a": 1}, {"a": True}], "bool"))
@example(([{"a": 1.0}, {"a": float("nan")}], "nan"))
@example(([{"a": [1, 2]}, {"a": [1]}], "ragged"))
@example(([{"a": 1, "b": 2}, {"b": 2, "a": 1}], "reordered"))
@example(([{"a": 1}, {"b": 1}], "missing key"))
@example(([{1: 1}, {1.0: 1}], "keys of another type"))
def test_records_of_another_shape_are_written_item_by_item(case):
    records, _kind = case
    if all(type(record) is dict for record in records):  # what _write hands to _records
        assert _records(records, "\n  ") is None
    _same_text(records)
    _same_text({"relations": records})

