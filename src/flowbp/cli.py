"""Command-line front end.

Subcommands: ``solve`` (message-passing solve of a DIMACS or JSON
instance), ``check-unique`` (uniqueness detection from final beliefs),
``approx`` (randomized (1+eps)-approximation), ``gen`` (random instance
generation) and ``selftest`` (built-in oracle-equivalence suites).

A report is one JSON object on stdout.  An error writes a JSON error
object to stdout and one line to stderr (a command line that argparse
rejects prints its usage and an ``error:`` line to stderr alone).  Exit
codes: 0 success, 2 infeasible instance, 3 parse error, 4 restart budget
exhausted, 1 anything else (including usage errors, and a failed write of
stdout itself, a full disk or a pipe whose reader has gone, after which
one ``error:`` line on stderr is all the run writes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import bp_engine
from .errors import (
    DimacsInconsistentError,
    DimacsSyntaxError,
    FlowBpError,
    ForcedInfeasibleError,
    InfeasibleInstanceError,
    JsonInstanceError,
    NonZeroLowerBoundError,
    RestartBudgetExceededError,
    UsageError,
)
from .flowmodel import (
    FlowNetwork,
    check_solvable,
    emit_dimacs,
    network_from_json_dict,
    network_to_json_dict,
    parse_dimacs,
)

REPORT_SCHEMA = "flowbp-report-1"

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_RESTART_BUDGET = 4

#: Error families in the order ``main`` tries them, each with its exit code,
#: the ``kind`` of the JSON error object and the label of the stderr line.
_ERRORS = (
    ((DimacsSyntaxError, DimacsInconsistentError, NonZeroLowerBoundError, JsonInstanceError,
      json.JSONDecodeError, UnicodeDecodeError),
     EXIT_PARSE, "parse", "parse error"),
    ((InfeasibleInstanceError, ForcedInfeasibleError),
     EXIT_INFEASIBLE, "infeasible", "infeasible"),
    (RestartBudgetExceededError,
     EXIT_RESTART_BUDGET, "restart-budget", "restart budget exceeded"),
    ((FlowBpError, OSError, ValueError),
     EXIT_OTHER, "other", "error"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_OTHER)


def _count(text: str, low: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1  # rejected below with the same message
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _count(text, 1)


def _round_count(text: str):
    return text if text == "auto" else _positive_int(text)


def load_instance(path: str) -> FlowNetwork:
    """Read a JSON instance (a ``.json`` name or text opening with ``{``),
    else a DIMACS one."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            raise
        except (RecursionError, ValueError) as exc:
            # nesting deeper than the recursion limit, or an integer longer
            # than Python's int-string digit limit
            raise JsonInstanceError(f"unreadable JSON: {exc}") from None
        return network_from_json_dict(data)
    return parse_dimacs(text)


def _flow_dict(flows: dict[int, int]) -> dict:
    return {str(aid): int(x) for aid, x in sorted(flows.items())}


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FLOWBP_SEED")
    if env is not None:
        return int(env)
    return 0


def _solver(fields):
    """Frame of a solver command, whose ``fields(args, net)`` gives only its
    mode's report fields: load the instance, check that it has an optimum,
    time the call and print the report."""

    def command(args) -> int:
        t0 = time.perf_counter()
        net = load_instance(args.input)
        check_solvable(net)  # raises on infeasible and unbounded instances
        report = fields(args, net)
        report.update(
            schema=REPORT_SCHEMA,
            mode=args.command,
            instance={"n": net.n, "m": net.m, "c_max": net.c_max},
            wall_time_s=round(time.perf_counter() - t0, 6),
        )
        print(json.dumps(report, sort_keys=True, indent=2))
        return EXIT_OK

    return command


@_solver
def cmd_solve(args, net: FlowNetwork) -> dict:
    rounds = None if args.iters == "auto" else args.iters
    dump_file = open(args.dump_messages, "w", encoding="utf-8") if args.dump_messages else None
    on_round = None
    if dump_file is not None:
        on_round = lambda _net, state: print(
            json.dumps(bp_engine.dump_round(state), sort_keys=True), file=dump_file
        )
    try:
        result = bp_engine.run(net, rounds=rounds, patience=args.patience, on_round=on_round)
    finally:
        if dump_file is not None:
            dump_file.close()
    return dict(
        rounds_used=result.rounds_used,
        executed_rounds=result.executed_rounds,
        flow=_flow_dict(result.assignment.flows),
        objective=result.assignment.objective,
        feasible=result.assignment.feasible,
        ties=sorted(result.assignment.ties),
        piece_stats={
            "per_round_total": result.piece_totals,
            "max_round_total": max(result.piece_totals, default=0),
        },
    )


@_solver
def cmd_check_unique(args, net: FlowNetwork) -> dict:
    res = bp_engine.detect_uniqueness(net)
    fields = dict(rounds_used=res.rounds_used, executed_rounds=res.executed_rounds,
                  unique=res.unique)
    if res.unique:
        fields.update(
            flow=_flow_dict(res.assignment.flows),
            objective=res.assignment.objective,
            feasible=res.assignment.feasible,
        )
    return fields


@_solver
def cmd_approx(args, net: FlowNetwork) -> dict:
    from fractions import Fraction

    from . import fpras

    try:
        eps = Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad epsilon {args.epsilon!r}: {exc}") from exc
    if not 0 < eps < 1:
        raise UsageError("epsilon must lie strictly between 0 and 1")
    seed = _seed_from(args)
    res = fpras.approx_scheme(net, eps, seed)
    return dict(
        epsilon=str(eps),
        seed=seed,
        flow=_flow_dict(res.assignment.flows),
        objective=res.assignment.objective,
        feasible=res.assignment.feasible,
        decimation=[r.to_json_dict() for r in res.rounds],
    )


def cmd_gen(args) -> int:
    from . import gen

    if args.arcs < args.nodes - 1:
        raise UsageError(f"need at least nodes-1 = {args.nodes - 1} arcs for connectivity")
    if args.nodes < 2 and args.arcs > 0:
        raise UsageError(f"{args.arcs} arcs need at least 2 nodes, got {args.nodes}")
    seed = _seed_from(args)
    net = gen.random_network(
        seed,
        n=args.nodes,
        m=args.arcs,
        c_max=args.cmax,
        cap_max=args.capmax,
        cost_pieces=args.cost_pieces,
        ensure_unique=args.ensure_unique,
    )
    if args.format == "dimacs" or (args.format == "auto" and net.is_linear()):
        text = emit_dimacs(net)
    else:
        text = json.dumps(network_to_json_dict(net), sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_suites(quick=args.quick)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return EXIT_OK if failed == 0 else EXIT_OTHER


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="flowbp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--input", required=True, help="instance file (DIMACS or JSON)")
        sp.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted for compatibility and ignored; rounds run single-threaded")

    sp = sub.add_parser("solve", help="solve by message passing")
    add_io(sp)
    sp.add_argument("--iters", type=_round_count, default="auto",
                    help="round count >= 1, or 'auto' for the guarantee bound")
    sp.add_argument("--patience", type=_positive_int, default=None,
                    help="heuristic early exit after this many unchanged estimates")
    sp.add_argument("--dump-messages", metavar="PATH",
                    help="write per-round message tables as JSON lines")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("check-unique", help="detect whether the optimum is unique")
    add_io(sp)
    sp.set_defaults(func=cmd_check_unique)

    sp = sub.add_parser("approx", help="randomized (1+eps)-approximation")
    add_io(sp)
    sp.add_argument("--epsilon", required=True, help="rational in (0,1), e.g. 1/2 or 0.1")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed (or env FLOWBP_SEED)")
    sp.set_defaults(func=cmd_approx)

    sp = sub.add_parser("gen", help="generate a random feasible instance")
    sp.add_argument("--nodes", type=_count, required=True)
    sp.add_argument("--arcs", type=_count, required=True)
    sp.add_argument("--cmax", type=_count, default=4)
    sp.add_argument("--capmax", type=_positive_int, default=4)
    sp.add_argument("--cost-pieces", type=_positive_int, default=1,
                    help="pieces per convex arc cost (1 = linear)")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--ensure-unique", action="store_true",
                    help="rejection-sample until the optimum is unique")
    sp.add_argument("--format", choices=("auto", "dimacs", "json"), default="auto")
    sp.add_argument("--output", help="write here instead of stdout")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("selftest", help="run built-in oracle-equivalence suites")
    sp.add_argument("--quick", action="store_true", help="subset that finishes in seconds")
    sp.set_defaults(func=cmd_selftest)

    return p


#: Built once per process: building costs about 15x a parse, and
#: ``parse_args`` keeps no state between calls (each gets a fresh namespace).
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        # a failed write raises here, not at shutdown; print, unlike
        # sys.stdout.flush, also takes a closed stdout (None)
        print(end="", flush=True)
        return code
    except Exception as exc:
        for family, code, kind, label in _ERRORS:
            if isinstance(exc, family):
                break
        else:
            raise
        try:
            print(json.dumps({"error": {"kind": kind, "detail": str(exc)}}), flush=True)
        except OSError as write_error:
            # stdout itself fails: the stderr line is all that gets out, and
            # what is still buffered for stdout goes to the null device
            # instead of failing again at shutdown
            code, label, exc = EXIT_OTHER, "error", write_error
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
