import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowbp import cli, fpras, pwl, selftest
from flowbp.flowmodel import emit_dimacs, network_to_json_dict, parse_dimacs
from flowbp.gen import random_network
from flowbp.oracles import exact_solve, is_unique_optimum
from helpers import HANG_NETWORK, t1_network, uncapacitated_network

T1_DIMACS = """\
p min 3 3
n 1 1
n 3 -1
a 1 2 0 2 1
a 2 3 0 2 1
a 1 3 0 2 3
"""

#: T1 with every cost zero: approx has nothing to perturb.
ZERO_COST_DIMACS = """\
p min 3 3
n 1 1
n 3 -1
a 1 2 0 2 0
a 2 3 0 2 0
a 1 3 0 2 0
"""

INFEASIBLE_DIMACS = """\
p min 2 1
n 1 2
n 2 -2
a 1 2 0 1 1
"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def t1_file(tmp_path):
    p = tmp_path / "t1.dimacs"
    p.write_text(T1_DIMACS)
    return str(p)


def test_solve_auto(capsys, t1_file):
    code, report = run_cli(capsys, "solve", "--input", t1_file, "--iters", "auto")
    assert code == 0
    assert report["schema"] == "flowbp-report-1"
    assert report["objective"] == 2
    assert report["rounds_used"] == 12
    assert report["flow"] == {"1": 1, "2": 1, "3": 0}
    assert report["feasible"] is True
    assert report["instance"] == {"n": 3, "m": 3, "c_max": 3}


def test_solve_one_round_is_premature(capsys, t1_file):
    code, report = run_cli(capsys, "solve", "--input", t1_file, "--iters", "1")
    assert code == 0
    assert report["feasible"] is False


def test_solve_infeasible_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.dimacs"
    p.write_text(INFEASIBLE_DIMACS)
    code, report = run_cli(capsys, "solve", "--input", str(p))
    assert code == 2
    assert report["error"]["kind"] == "infeasible"


def test_solve_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "syntax.dimacs"
    p.write_text("p min x y\n")
    code, report = run_cli(capsys, "solve", "--input", str(p))
    assert code == 3
    assert report["error"]["kind"] == "parse"


@pytest.mark.parametrize("mode", [["solve"], ["check-unique"], ["approx", "--epsilon", "1/2"]])
def test_non_utf8_instance_is_parse_error(capsys, tmp_path, mode):
    p = tmp_path / "binary.dimacs"
    p.write_bytes(b"\xff\xfe")
    code, report = run_cli(capsys, *mode, "--input", str(p))
    assert code == 3
    assert report["error"]["kind"] == "parse"
    assert "can't decode byte 0xff" in report["error"]["detail"]


def _drop(*path):
    def edit(d):
        *outer, last = path
        for k in outer:
            d = d[k]
        del d[last]
    return edit


def _set(value, *path):
    def edit(d):
        *outer, last = path
        for k in outer:
            d = d[k]
        d[last] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: [d],
        lambda d: 3,
        _drop("nodes"),
        _set({}, "nodes"),
        _set([1], "nodes"),
        _drop("nodes", 0, "id"),
        _set("1", "nodes", 0, "id"),
        _drop("nodes", 0, "demand"),
        _set(True, "nodes", 0, "demand"),
        _set(1.5, "nodes", 0, "demand"),
        _drop("arcs"),
        _set(None, "arcs"),
        _drop("arcs", 0, "id"),
        _drop("arcs", 0, "tail"),
        _set("2", "arcs", 0, "head"),
        _drop("arcs", 0, "capacity"),
        _set(2.5, "arcs", 0, "capacity"),
        _set("2", "arcs", 0, "capacity"),
        _drop("arcs", 0, "cost"),
        _set("1", "arcs", 0, "cost"),
        _set({"breakpoints": [0, 2], "anchor": [0, 0]}, "arcs", 0, "cost"),
        _set({"breakpoints": [0, 2], "slopes": [1], "anchor": [0]}, "arcs", 0, "cost"),
    ],
)
def test_malformed_json_instance_is_parse_error(capsys, tmp_path, edit):
    d = network_to_json_dict(t1_network())
    d = edit(d) or d
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    code, report = run_cli(capsys, "solve", "--input", str(p))
    assert code == 3
    assert report["error"]["kind"] == "parse"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--iters", "0"],
        ["solve", "--iters", "-5"],
        ["solve", "--iters", "1.5"],
        ["solve", "--patience", "0"],
        ["solve", "--threads", "-3"],
        ["check-unique", "--threads", "0"],
        ["approx", "--epsilon", "1/2", "--threads", "-3"],
    ],
)
def test_bad_numeric_flag_is_usage_error(capsys, t1_file, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--input", t1_file])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer >= 1" in captured.err


def test_solve_json_instance(capsys, tmp_path):
    p = tmp_path / "t1.json"
    p.write_text(json.dumps(network_to_json_dict(t1_network())))
    code, report = run_cli(capsys, "solve", "--input", str(p))
    assert code == 0
    assert report["objective"] == 2


def test_solve_dump_messages(capsys, tmp_path, t1_file):
    dump = tmp_path / "msgs.jsonl"
    code, report = run_cli(
        capsys, "solve", "--input", t1_file, "--iters", "3", "--dump-messages", str(dump)
    )
    assert code == 0
    lines = [json.loads(l) for l in dump.read_text().splitlines()]
    assert [rec["round"] for rec in lines] == [1, 2, 3]
    assert len(lines[0]["messages"]) == 6
    fn = lines[0]["messages"][0]["fn"]
    assert set(fn) == {"breakpoints", "slopes", "anchor"}


@pytest.mark.parametrize("net", [random_network(11, n=6, m=14), random_network(12, n=7, m=9)])
def test_reports_do_not_depend_on_the_order_arcs_are_listed_in(capsys, tmp_path, net):
    # in id order with every degree >= 2, preprocessing keeps the parsed
    # network; listed in another order, or with forced arcs, it rebuilds
    # one in id order: reports and message dumps are the same either way
    d = network_to_json_dict(net)
    in_order = tmp_path / "in_order.json"
    in_order.write_text(json.dumps(d))
    d["arcs"] = d["arcs"][::-1]
    reversed_ = tmp_path / "reversed.json"
    reversed_.write_text(json.dumps(d))
    for argv in (["solve", "--iters", "auto"], ["solve", "--iters", "4", "--patience", "2"],
                 ["check-unique"], ["approx", "--epsilon", "1/2", "--seed", "5"]):
        outs = []
        for path in (in_order, reversed_):
            dump = tmp_path / f"{path.stem}.jsonl"
            extra = ["--dump-messages", str(dump)] if argv[0] == "solve" else []
            code, report = run_cli(capsys, *argv, *extra, "--input", str(path))
            assert code == 0, (argv, report)
            report.pop("wall_time_s")
            outs.append((report, dump.read_text() if extra else None))
        assert outs[0] == outs[1], argv


def test_check_unique(capsys, t1_file):
    code, report = run_cli(capsys, "check-unique", "--input", t1_file)
    assert code == 0
    assert report["unique"] is True
    assert report["flow"] == {"1": 1, "2": 1, "3": 0}
    assert report["rounds_used"] == 30


def test_check_unique_tie(capsys, tmp_path):
    p = tmp_path / "tie.dimacs"
    p.write_text(T1_DIMACS.replace("a 1 3 0 2 3", "a 1 3 0 2 2"))
    code, report = run_cli(capsys, "check-unique", "--input", str(p))
    assert code == 0
    assert report["unique"] is False
    assert "flow" not in report


def test_check_unique_forced_chain(capsys, tmp_path):
    p = tmp_path / "chain.dimacs"
    p.write_text("p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 2 1\n")
    code, report = run_cli(capsys, "check-unique", "--input", str(p))
    assert code == 0
    assert report["unique"] is True
    assert report["flow"] == {"1": 1}


def test_approx_basic(capsys, t1_file):
    code, report = run_cli(
        capsys, "approx", "--input", t1_file, "--epsilon", "1/2", "--seed", "7"
    )
    assert code == 0
    assert report["objective"] <= 3
    assert report["seed"] == 7
    assert report["decimation"][0]["fixed_arc"] == 3


def test_approx_bad_epsilon(capsys, t1_file):
    code, report = run_cli(capsys, "approx", "--input", t1_file, "--epsilon", "1", "--seed", "1")
    assert code == 1
    code, _ = run_cli(capsys, "approx", "--input", t1_file, "--epsilon", "0", "--seed", "1")
    assert code == 1


def test_approx_restart_budget_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(fpras, "RESTART_BUDGET", 0)  # no draw is ever made
    p = tmp_path / "tie.dimacs"
    p.write_text(emit_dimacs(t1_network(c3=2)))
    code = cli.main(["approx", "--input", str(p), "--epsilon", "1/2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_RESTART_BUDGET == 4
    assert json.loads(captured.out)["error"]["kind"] == "restart-budget"
    assert captured.err.startswith("restart budget exceeded: ")


def test_approx_seed_env_fallback(capsys, t1_file, monkeypatch):
    monkeypatch.setenv("FLOWBP_SEED", "11")
    code, report = run_cli(capsys, "approx", "--input", t1_file, "--epsilon", "1/2")
    assert code == 0
    assert report["seed"] == 11


def test_main_calls_do_not_leak_arguments(capsys, t1_file, monkeypatch):
    # main reuses one parser per process; no argument may carry over
    monkeypatch.setenv("FLOWBP_SEED", "11")
    _, first = run_cli(capsys, "approx", "--input", t1_file, "--epsilon", "1/2", "--seed", "5")
    _, second = run_cli(capsys, "approx", "--input", t1_file, "--epsilon", "1/2")
    assert (first["seed"], second["seed"]) == (5, 11)
    _, one = run_cli(capsys, "solve", "--input", t1_file, "--iters", "1")
    _, auto = run_cli(capsys, "solve", "--input", t1_file)
    assert (one["rounds_used"], auto["rounds_used"]) == (1, 12)


def test_approx_deterministic(capsys, t1_file):
    _, a = run_cli(capsys, "approx", "--input", t1_file, "--epsilon", "1/2", "--seed", "5")
    _, b = run_cli(capsys, "approx", "--input", t1_file, "--epsilon", "1/2", "--seed", "5")
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_gen_feasible_and_solvable(capsys, tmp_path):
    out = tmp_path / "inst.dimacs"
    code, _ = run_cli(
        capsys, "gen", "--nodes", "4", "--arcs", "6", "--seed", "1", "--output", str(out)
    )
    assert code == 0
    net = parse_dimacs(out.read_text())
    exact_solve(net)  # feasible by construction


def test_gen_ensure_unique(capsys):
    code = cli.main(["gen", "--nodes", "4", "--arcs", "6", "--seed", "2", "--ensure-unique"])
    captured_ok = code == 0
    assert captured_ok


def test_gen_ensure_unique_oracle_check(capsys, tmp_path):
    out = tmp_path / "u.dimacs"
    code, _ = run_cli(
        capsys, "gen", "--nodes", "4", "--arcs", "6", "--seed", "3",
        "--ensure-unique", "--output", str(out),
    )
    assert code == 0
    net = parse_dimacs(out.read_text())
    assert is_unique_optimum(net, exact_solve(net))


def test_gen_too_few_arcs(capsys):
    code = cli.main(["gen", "--nodes", "3", "--arcs", "1"])
    assert code == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--nodes", "-3", "--arcs", "0"], "--nodes: expected an integer >= 0, got '-3'"),
        (["--nodes", "4", "--arcs", "-1"], "--arcs: expected an integer >= 0, got '-1'"),
        (["--nodes", "4", "--arcs", "6", "--cmax", "-1"], "--cmax: expected an integer >= 0"),
        (["--nodes", "4", "--arcs", "6", "--capmax", "0"], "--capmax: expected an integer >= 1"),
        (["--nodes", "4", "--arcs", "6", "--cost-pieces", "0"],
         "--cost-pieces: expected an integer >= 1"),
    ],
)
def test_gen_bad_count_is_usage_error(capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", *flags, "--seed", "1"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_gen_pwl_costs_emit_json(capsys):
    code = cli.main(["gen", "--nodes", "4", "--arcs", "6", "--seed", "4",
                     "--cost-pieces", "3", "--capmax", "4"])
    assert code == 0


def test_selftest_quick(capsys):
    code = cli.main(["selftest", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "7/7 suites passed" in out


def test_selftest_pwl_suite_checks_leave_one_out(monkeypatch):
    # outputs in the wrong order: each one leaves out the wrong operand
    monkeypatch.setattr(selftest, "leave_one_out", lambda fs: pwl.leave_one_out(fs)[::-1])
    with pytest.raises(AssertionError, match="leave_one_out"):
        selftest._suite_pwl_grid(True)


def test_selftest_pwl_suite_checks_node_kernel(monkeypatch):
    # signs ignored: reflected operands enter unreflected
    monkeypatch.setattr(
        selftest, "node_messages", lambda fs, signs, finishes: pwl.node_messages(fs, [1] * len(fs), finishes)
    )
    with pytest.raises(AssertionError, match="node_messages"):
        selftest._suite_pwl_grid(True)


_INVERTED_GAP_SELFTEST = """
import sys
from flowbp import bp_engine, cli

real_gap_test = bp_engine.gap_test


def inverted(*args):
    unique, flows, ties = real_gap_test(*args)
    return not unique, flows, ties


bp_engine.gap_test = inverted
print("optimize", sys.flags.optimize)
sys.exit(cli.main(["selftest", "--quick"]))
"""


def _env() -> dict:
    """This environment with this checkout's ``src`` first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _python(*args, timeout):
    """Run a fresh interpreter with this checkout's ``src`` on the path."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_env(), timeout=timeout
    )


def test_selftest_fails_under_python_O_when_the_gap_verdict_is_wrong():
    # the suites must not rely on assert, which python -O strips
    proc = _python("-O", "-c", _INVERTED_GAP_SELFTEST, timeout=300)
    assert "optimize 1" in proc.stdout
    assert "[FAIL] triangle-instance" in proc.stdout
    assert proc.returncode == cli.EXIT_OTHER


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no result guarantee may rest on one
    package = Path(cli.__file__).resolve().parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _calls_by_function(attribute: str) -> list[tuple[str, str, str]]:
    """(module, enclosing function, ``X``) of every call ``X.<attribute>(...)``
    in the package."""
    package = Path(cli.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == attribute
                ):
                    receiver = node.func.value
                    name = receiver.id if isinstance(receiver, ast.Name) else ast.unparse(receiver)
                    found.append((path.stem, fn.name, name))
    return found


def test_only_derived_networks_skip_validation():
    # an instance from outside is validated once; only the helpers that
    # derive a network from a validated one may build it unchecked
    calls = _calls_by_function("_trusted")
    assert {name for _, _, name in calls} == {"FlowNetwork", "PwlConvex"}
    assert {(module, fn) for module, fn, name in calls if name == "FlowNetwork"} == {
        ("flowmodel", "preprocess_degree"),
        ("flowmodel", "cap_negative_uncapacitated"),
        ("fpras", "perturb_costs"),
        ("fpras", "fix_arc"),
    }
    # nothing else reaches the indexing without the checks
    indexing = sorted(fn for _, fn, _ in _calls_by_function("_index"))
    assert indexing == ["_check_and_index", "_trusted"]
    checking = sorted(fn for _, fn, _ in _calls_by_function("_check_and_index"))
    assert checking == ["__init__", "from_data"]


def test_package_imports_only_the_standard_library():
    # the package declares no runtime dependencies
    package = Path(cli.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(package)}:{node.lineno} {name}" for name in names
                if name.split(".")[0] not in (*sys.stdlib_module_names, "flowbp")
            ]
    assert found == []


_CLI = "import sys; from flowbp import cli; sys.exit(cli.main(sys.argv[1:]))"


def test_gen_with_one_node_and_arcs_is_usage_error():
    # no arc can join a node to itself, so drawing arcs on one node never ends
    proc = _python("-c", _CLI, "gen", "--nodes", "1", "--arcs", "3", "--seed", "1", timeout=30)
    assert proc.returncode == cli.EXIT_OTHER
    assert json.loads(proc.stdout) == {"error": {
        "kind": "other", "detail": "3 arcs need at least 2 nodes, got 1"}}


def test_json_instance_with_a_repeated_node_id_is_parse_error(capsys, tmp_path):
    d = network_to_json_dict(t1_network())
    d["nodes"].insert(1, {"id": 1, "demand": 0})
    p = tmp_path / "repeated.json"
    p.write_text(json.dumps(d))
    code, report = run_cli(capsys, "solve", "--input", str(p))
    assert code == cli.EXIT_PARSE
    assert report == {"error": {"kind": "parse", "detail": "node id 1 is listed twice"}}


def test_dimacs_instance_with_a_repeated_node_line_is_parse_error(capsys, tmp_path):
    p = tmp_path / "repeated.dimacs"
    p.write_text("p min 2 1\nn 1 2\nn 1 -1\nn 2 -1\na 1 2 0 3 1\n")
    code, report = run_cli(capsys, "solve", "--input", str(p))
    assert code == cli.EXIT_PARSE
    assert report == {"error": {"kind": "parse", "detail": "node id 1 is listed twice"}}


@pytest.mark.parametrize(
    "cost, detail",
    [
        ({"breakpoints": [0, 1, 2], "slopes": [1, 2], "anchor": [0, 0]},
         "the approximation scheme requires linear arc costs"),
        (-1, "cost perturbation requires non-negative costs"),
    ],
)
def test_approx_takes_linear_non_negative_costs_only(capsys, tmp_path, cost, detail):
    d = network_to_json_dict(t1_network())
    d["arcs"][2]["cost"] = cost
    p = tmp_path / "costs.json"
    p.write_text(json.dumps(d))
    code, report = run_cli(capsys, "approx", "--input", str(p), "--epsilon", "1/2")
    assert code == cli.EXIT_OTHER
    assert report == {"error": {"kind": "other", "detail": detail}}


@pytest.mark.parametrize(
    "argv", [["solve"], ["check-unique"], ["approx", "--epsilon", "1/2"]]
)
def test_unbounded_instance_fails_fast(tmp_path, argv):
    # network simplex never terminates on this instance; the CLI's integer
    # gate rejects it before anything else runs
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(network_to_json_dict(HANG_NETWORK)))
    proc = _python("-c", _CLI, *argv, "--input", str(path), timeout=30)
    assert proc.returncode == cli.EXIT_OTHER
    assert json.loads(proc.stdout) == {"error": {
        "kind": "other", "detail": "negative cycle with infinite capacity found"}}
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["solve"], ["check-unique"]])
def test_negative_cost_uncapacitated_instance_exits_zero(tmp_path, argv):
    # the instance passes the gate and has uncapacitated negative-cost
    # arcs; capped at the flow bound, they leave every message finite, and
    # the reports carry the unique optimum
    path = tmp_path / "neg.json"
    net = uncapacitated_network(7300, share=0.4, discount=2)
    path.write_text(json.dumps(network_to_json_dict(net)))
    proc = _python("-c", _CLI, *argv, "--input", str(path), timeout=60)
    assert proc.returncode == cli.EXIT_OK, proc.stdout
    report = json.loads(proc.stdout)
    opt = exact_solve(net)
    assert is_unique_optimum(net, opt.flows)
    assert report["flow"] == {str(aid): z for aid, z in sorted(opt.flows.items())}
    assert report["objective"] == opt.objective
    assert report.get("unique", True)
    assert "Traceback" not in proc.stderr


_LOADED_AFTER = """
import json, sys
from flowbp import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in ("networkx", "numpy") if m in sys.modules)
print(json.dumps({"exit": code, "loaded": loaded}), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["solve", "--input", "T1"], []),
        (["check-unique", "--input", "T1"], []),
        (["gen", "--nodes", "5", "--arcs", "8", "--seed", "2"], []),
        (["approx", "--epsilon", "1/2", "--input", "T1"], []),
        # an all-zero-cost leftover takes the integer min-cost-flow solver's flow
        (["approx", "--epsilon", "1/2", "--input", "ZERO"], []),
    ],
)
def test_cold_start_loads_networkx_and_numpy_only_for_approx(tmp_path, t1_file, argv, loaded):
    zero = tmp_path / "zero.dimacs"
    zero.write_text(ZERO_COST_DIMACS)
    argv = [{"T1": t1_file, "ZERO": str(zero)}.get(a, a) for a in argv]
    proc = _python("-c", _LOADED_AFTER, *argv, timeout=120)
    assert json.loads(proc.stderr.splitlines()[-1]) == {"exit": 0, "loaded": loaded}


_MODULES_AFTER = """
import json, sys
from flowbp import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "flowbp" or m in ("dataclasses", "fractions"))
print(json.dumps({"exit": code, "loaded": loaded}), file=sys.stderr)
"""

_SOLVER = ["flowbp", "flowbp.bp_engine", "flowbp.cli", "flowbp.errors", "flowbp.flowmodel",
           "flowbp.pwl"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["solve", "--input", "T1"], []),
        (["solve", "--iters", "3", "--patience", "2", "--input", "T1"], []),
        (["check-unique", "--input", "T1"], []),
        (["approx", "--epsilon", "1/2", "--input", "T1"], ["flowbp.fpras", "fractions"]),
        (["approx", "--epsilon", "1/2", "--input", "ZERO"], ["flowbp.fpras", "fractions"]),
        (["gen", "--nodes", "5", "--arcs", "8", "--seed", "2"], ["flowbp.gen", "flowbp.oracles"]),
    ],
)
def test_cold_start_loads_only_what_the_subcommand_runs(tmp_path, t1_file, argv, extra):
    # each module loaded is compiled from source when no bytecode is
    # written, so a subcommand loads the solver and only what it runs, and
    # no path loads dataclasses (which pulls in inspect, ast and dis)
    zero = tmp_path / "zero.dimacs"
    zero.write_text(ZERO_COST_DIMACS)
    argv = [{"T1": t1_file, "ZERO": str(zero)}.get(a, a) for a in argv]
    proc = _python("-c", _MODULES_AFTER, *argv, timeout=120)
    assert json.loads(proc.stderr.splitlines()[-1]) == {
        "exit": 0, "loaded": sorted(_SOLVER + extra)}


def test_package_exports_resolve_on_first_use():
    import flowbp

    namespace: dict = {}
    exec("from flowbp import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(flowbp.__all__)
    for name in flowbp.__all__:
        obj = getattr(flowbp, name)
        assert namespace[name] is obj
        module = getattr(obj, "__module__", None)
        if module is not None and module.startswith("flowbp."):
            assert getattr(sys.modules[module], name) is obj, name
    assert set(flowbp.__all__) <= set(dir(flowbp))
    assert {"fpras", "gen", "oracles"} <= set(dir(flowbp))
    assert flowbp.oracles is sys.modules["flowbp.oracles"]
    with pytest.raises(AttributeError, match="no attribute 'tree_solve_free'"):
        flowbp.tree_solve_free
    with pytest.raises(AttributeError, match="no attribute 'split_node_capacities'"):
        flowbp.split_node_capacities
    with pytest.raises(ImportError):
        exec("from flowbp import no_such_name", {})


@pytest.mark.parametrize(
    "seed_args, env, detail",
    [
        (["--seed", "-1"], None, "expected non-negative integer"),
        ([], "-1", "expected non-negative integer"),
        ([], "abc", "invalid literal for int() with base 10: 'abc'"),
    ],
)
def test_approx_seed_errors(capsys, t1_file, monkeypatch, seed_args, env, detail):
    if env is None:
        monkeypatch.delenv("FLOWBP_SEED", raising=False)
    else:
        monkeypatch.setenv("FLOWBP_SEED", env)
    code, report = run_cli(
        capsys, "approx", "--input", t1_file, "--epsilon", "1/2", *seed_args
    )
    assert code == cli.EXIT_OTHER
    assert report == {"error": {"kind": "other", "detail": detail}}


@pytest.mark.parametrize("mode", [["solve"], ["check-unique"], ["approx", "--epsilon", "1/2"]])
def test_deeply_nested_json_is_parse_error(tmp_path, mode):
    # json.loads raises RecursionError, not a JSONDecodeError
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000)
    proc = _python("-c", _CLI, *mode, "--input", str(path), timeout=60)
    assert proc.returncode == cli.EXIT_PARSE, proc.stderr
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "parse"
    assert error["detail"].startswith("unreadable JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("suffix", ["json", "dimacs"])
def test_integer_beyond_the_digit_limit_is_parse_error(capsys, tmp_path, suffix):
    # Python refuses to convert an integer string of more than 4,300 digits
    big = "1" * 5000
    path = tmp_path / f"big.{suffix}"
    if suffix == "json":
        d = network_to_json_dict(t1_network())
        path.write_text(json.dumps(d).replace('"capacity": 2', '"capacity": ' + big, 1))
    else:
        path.write_text(T1_DIMACS.replace("a 1 2 0 2 1", "a 1 2 0 " + big + " 1"))
    code, report = run_cli(capsys, "solve", "--input", str(path))
    assert code == cli.EXIT_PARSE
    assert report["error"]["kind"] == "parse"
    assert "Exceeds the limit (4300 digits)" in report["error"]["detail"]


@pytest.mark.parametrize("suffix", ["json", "dimacs"])
def test_negative_capacity_error_names_the_arc(capsys, tmp_path, suffix):
    # checked before the arc's linear cost is built on [0, capacity]
    path = tmp_path / f"neg.{suffix}"
    if suffix == "json":
        d = network_to_json_dict(t1_network())
        d["arcs"][1]["capacity"] = -3
        path.write_text(json.dumps(d))
    else:
        path.write_text(T1_DIMACS.replace("a 2 3 0 2 1", "a 2 3 0 -3 1"))
    for mode in (["solve"], ["check-unique"], ["approx", "--epsilon", "1/2"]):
        code, report = run_cli(capsys, *mode, "--input", str(path))
        assert code == cli.EXIT_OTHER
        assert report == {"error": {
            "kind": "other", "detail": "arc 2 capacity -3 is not a non-negative integer"}}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "MISSING"],
        ["check-unique", "--input", "MISSING"],
        ["approx", "--epsilon", "1/2", "--input", "MISSING"],
        ["solve", "--input", "T1", "--dump-messages", "IN_MISSING_DIR"],
    ],
)
def test_file_that_cannot_be_opened_is_other_error(capsys, tmp_path, t1_file, argv):
    paths = {"MISSING": str(tmp_path / "missing.dimacs"), "T1": t1_file,
             "IN_MISSING_DIR": str(tmp_path / "no-such-dir" / "dump.jsonl")}
    code = cli.main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OTHER
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "other"
    assert error["detail"].startswith("[Errno 2] No such file or directory")
    assert captured.err.splitlines() == [f"error: {error['detail']}"]


_WRITING_COMMANDS = [
    ["solve", "--input", "T1"],
    ["check-unique", "--input", "T1"],
    ["approx", "--epsilon", "1/2", "--input", "T1"],
    ["gen", "--nodes", "6", "--arcs", "10", "--seed", "1"],
    ["selftest", "--quick"],
]


@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("argv", _WRITING_COMMANDS, ids=lambda argv: argv[0])
def test_failed_stdout_write_exits_1_with_one_stderr_line(t1_file, argv, sink):
    # a full disk or a pipe with no reader: the report cannot be written, so
    # the one error line on stderr is all the run may write
    cmd = [sys.executable, "-c", _CLI, *(t1_file if a == "T1" else a for a in argv)]
    if sink == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        out = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, out = os.pipe()
        os.close(read_end)  # no reader from the start, so no write can get through
    try:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, text=True,
                              env=_env(), timeout=120)
    finally:
        os.close(out)
    err = proc.stderr
    assert proc.returncode == cli.EXIT_OTHER, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
