"""Input fuzzing of the CLI boundary.

Valid DIMACS and JSON instance files are mutated (tokens replaced, lines
and JSON members deleted, duplicated or retyped, text truncated) and fed
to ``flowbp solve``.  Whatever the input, the run must end in a documented
exit code, and every nonzero exit must print the JSON error object on
stdout; an escaping exception (a traceback) fails the test.  The runs are
derandomized, so every run tries the same inputs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowbp import cli, gen
from flowbp.flowmodel import MAX_DIMACS_NODES, FlowNetwork, emit_dimacs, network_to_json_dict

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=1500,  # about 15 s for both tests on a 2-core machine
    suppress_health_check=[HealthCheck.too_slow],
)

ERROR_KINDS = {"parse", "infeasible", "restart-budget", "other"}

SEED_DIMACS = [
    emit_dimacs(gen.random_network(1, n=4, m=7)),
    "c triangle\np min 3 3\nn 1 1\nn 3 -1\na 1 2 0 2 1\na 2 3 0 2 1\na 1 3 0 2 3\n",
]
SEED_JSON = [
    network_to_json_dict(gen.random_network(2, n=4, m=7, cost_pieces=3)),
    network_to_json_dict(gen.random_network(3, n=3, m=4)),
    # uncapacitated arcs with negative costs: unbounded as written (the
    # cycle 1-2-1 costs -1), and one edit of arc 1 or 2 away from bounded
    network_to_json_dict(FlowNetwork.from_data(
        {1: 2, 2: 0, 3: -2},
        [(1, 1, 2, None, 1), (2, 2, 1, None, -2), (3, 2, 3, None, -1),
         (4, 3, 2, None, 2), (5, 1, 3, 2, 3)],
    )),
]

SMALL_INT = st.integers(-3, 12)
BIG_INT = st.sampled_from([2**63, -(2**63) - 1, 10**30, -(10**30)])
JUNK = st.sampled_from(["", "x", "1.5", "-0", "1e3", "nan", "inf", "0x10", "1_0", "١"])


def _run_solve(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", "--input", str(path), "--iters", "2"])
    assert code in (0, 1, 2, 3, 4), (code, text)
    if code:
        report = json.loads(out.getvalue())
        assert isinstance(report, dict) and set(report) == {"error"}, (report, text)
        assert report["error"]["kind"] in ERROR_KINDS, (report, text)
    else:
        assert json.loads(out.getvalue())["schema"] == cli.REPORT_SCHEMA
    return code


@st.composite
def dimacs_texts(draw):
    lines = [line.split() for line in draw(st.sampled_from(SEED_DIMACS)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        # mostly numeric edits, so that many inputs get past the parser
        op = draw(st.sampled_from(["number"] * 6 + ["junk", "delete", "duplicate", "insert"]))
        first = 1 if op == "number" else 0  # numbers go after the line's descriptor
        if op in ("number", "junk") and lines and len(lines[i]) > first:
            j = draw(st.integers(first, len(lines[i]) - 1))
            lines[i][j] = str(draw(SMALL_INT | BIG_INT if op == "number" else JUNK))
        elif op == "delete" and lines:
            del lines[i]
        elif op == "duplicate" and lines:
            lines.insert(i, list(lines[i]))
        elif op == "insert":
            kind = draw(st.sampled_from(["n", "a", "p", "c", "x"]))
            lines.insert(i, [kind, *(str(draw(SMALL_INT)) for _ in range(draw(st.integers(0, 5))))])
    text = "\n".join(" ".join(line) for line in lines) + "\n"
    if draw(st.integers(0, 5)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


JSON_VALUES = st.one_of(
    SMALL_INT,
    BIG_INT,
    st.sampled_from([None, True, False, 1.5, -0.0, 1e400, "", "x", "inf", "-inf", [], {}]),
    st.lists(SMALL_INT, max_size=3),
    st.lists(st.sampled_from(["-inf", "inf", 0, 1, 2, "x"]), max_size=4),
)


@st.composite
def json_texts(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SEED_JSON)))
    for _ in range(draw(st.integers(1, 4))):
        # walk down to a random container, then edit one of its members
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(list(keys)))
            node = node[key]
        if parent is None:
            continue
        op = draw(st.sampled_from(["replace", "replace", "delete", "duplicate"]))
        if op == "replace":
            parent[key] = draw(JSON_VALUES)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    text = json.dumps(doc)
    if draw(st.integers(0, 5)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@FUZZ
@given(text=dimacs_texts())
def test_mutated_dimacs_ends_in_a_documented_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        _run_solve(Path(tmp) / "instance.dimacs", text)


def test_huge_declared_node_count_is_a_parse_error(tmp_path):
    # rejected from the header alone, before one node is allocated
    for n in (10**10, MAX_DIMACS_NODES + 1):
        assert _run_solve(tmp_path / "huge.dimacs", f"p min {n} 1\na 1 2 0 1 1\n") == 3


@FUZZ
@given(text=json_texts())
def test_mutated_json_ends_in_a_documented_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        _run_solve(Path(tmp) / "instance.json", text)
