"""flowbp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  Set-up (not timed) generates the
workload's instance batch from ``--seed`` into ``.perfbench_work/``.  With
``--trace 0`` a fresh worker process sends the calls to ``flowbp.cli.main``
one at a time for ``--seconds`` seconds, and the end-to-end metrics are
printed.  With ``--trace 1`` the workload's fixed call prefix runs once
traced and once untraced, and the per-layer metrics are printed.  Every
call's output is checked outside the timed region.  The last stdout line
is the JSON result; progress and the machine fingerprint go to stderr.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170

PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from flowbp import cli; "
    "raise SystemExit(cli.main(sys.argv[2:]))"
)


class BenchError(Exception):
    pass


def fingerprint() -> dict:
    import networkx
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


# -- output checks -------------------------------------------------------------


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in ("wall_time_s", "executed_rounds")}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def report_digest(report: dict) -> str:
    """Hash of the report without ``wall_time_s`` and every ``executed_rounds``."""
    text = json.dumps(_strip(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class Checker:
    """Checks each call's output against the exact oracles and the recorded digests."""

    def __init__(self, recorded: list[str]):
        from flowbp import flowmodel, oracles

        self.fm, self.oracles = flowmodel, oracles
        self.recorded = recorded
        # per batch index: a repeat pass calls the same command line again
        self.optimum: dict[int, object] = {}
        self.seen: dict[int, str] = {}
        self.ratios: list[float] = []
        self.digests_checked = 0

    def check(self, call, record) -> str | None:
        """None when the output is right, else the reason it is not.
        ``record["index"]`` is the call's place in the batch, which is also
        its place in the recorded digest list."""
        index = record["index"]
        if record["rc"] != 0:
            return f"exit {record['rc']}: {record['stderr'][-300:]}"
        try:
            rep = json.loads(record["stdout"])
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        digest = report_digest(rep)
        if digest != self.seen.setdefault(index, digest):
            return "report differs from an earlier call on the same input"
        if index < len(self.recorded):
            self.digests_checked += 1
            if digest != self.recorded[index]:
                return "report digest differs from the recorded baseline"
        return self._check_flows(index, call, rep)

    def _check_flows(self, index, call, rep) -> str | None:
        net = call.net
        flows = {int(k): v for k, v in rep.get("flow", {}).items()}
        if call.kind == "solve-fixed":
            if set(flows) != {a.id for a in net.arcs}:
                return "report does not give a flow for every arc"
            return None
        opt = self.optimum.get(index)
        if opt is None:
            opt = self.optimum[index] = self.oracles.exact_solve(net)
        if not self.fm.check_feasible(net, flows):
            return "flow is infeasible"
        objective = self.fm.objective_value(net, flows)
        if objective != rep["objective"]:
            return "reported objective does not match the flow"
        if objective > (1 + call.eps) * opt.objective:
            return f"objective {objective} above (1+{call.eps}) * {opt.objective}"
        self.ratios.append(1.0 if objective == opt.objective else objective / opt.objective)
        return None


# -- runs ----------------------------------------------------------------------


def run_worker(workdir: Path, name: str, plan: dict) -> dict:
    plan_path = workdir / f"{name}-plan.json"
    result_path = workdir / f"{name}-result.jsonl"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        stdout=sys.stderr, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"{name} worker exited with {proc.returncode}")
    lines = result_path.read_text(encoding="utf-8").splitlines()
    result = json.loads(lines[-1])
    result["records"] = [json.loads(line) for line in lines[:-1]]
    return result


def setup_seconds(workload, tiny: Path) -> float:
    """Median wall time of a fresh interpreter importing ``flowbp.cli`` and
    finishing one trivial call; one unrecorded probe runs first."""
    cmd = [sys.executable, "-c", PROBE, str(SRC), *workload.trivial, "--threads", "1",
           "--input", str(tiny)]
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              cwd=ROOT, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with {proc.returncode}")
        if k:
            times.append(dt)
    return statistics.median(times)


def tail_latency(latencies: list[float], pct: float) -> float:
    """The workload's tail percentile, or the highest lower one with at
    least ten samples beyond it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in (pct, 0.95, 0.9, 0.75, 0.5):
        if p <= pct and n * (1 - p) >= 10:
            return xs[max(0, math.ceil(p * n) - 1)]
    return xs[-1]


def check_records(checker, calls, records) -> list[str]:
    failures = []
    for rec in records:
        reason = checker.check(calls[rec["index"]], rec)
        if reason is not None:
            failures.append(f"call {rec['index']}: {reason}")
    return failures


def end_to_end(workload, calls, plan, checker, workdir, seconds, tiny):
    setup = setup_seconds(workload, tiny)
    res = run_worker(workdir, "e2e", {**plan, "seconds": seconds, "trace": False})
    records = res["records"]
    failures = check_records(checker, calls, records)
    ok = [r["latency_s"] for r in records if r["rc"] == 0]
    if not ok:
        raise BenchError("no call succeeded")
    print(f"{len(records)} calls, tail at p{workload.tail_pct * 100:g}, "
          f"{checker.digests_checked} digests checked", file=sys.stderr)
    metrics = {
        "latency_p50_s": (statistics.median(ok), "s"),
        "latency_tail_s": (tail_latency(ok, workload.tail_pct), "s"),
        "throughput_inst_per_s": ((len(records) - len(failures)) / res["elapsed_s"], "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "objective_ratio_max": (max(checker.ratios, default=1.0), "ratio"),
    }
    return metrics, len(records), failures


def work_counts(trace_work: dict, report: dict, probe_cap: int) -> dict:
    """Exact per-call work: span calls and integer counters from the
    tracer, plus from the report the rounds executed and nominal, and for
    ``approx`` the decimation rounds, restarts and probe-cap hits."""
    counts = dict(trace_work)
    dec = report.get("decimation", [])
    counts["report.executed_rounds"] = report.get("executed_rounds", 0) + sum(
        d["executed_rounds"] for d in dec
    )
    counts["report.nominal_rounds"] = report.get("rounds_used", 0) + sum(d["rounds"] for d in dec)
    counts["report.decimation_rounds"] = len(dec)
    counts["report.restarts"] = sum(d["restarts"] for d in dec)
    counts["report.probe_cap_hits"] = sum(d["executed_rounds"] >= probe_cap for d in dec)
    return counts


def work_total(work: list[dict]) -> dict:
    total: dict[str, int] = {}
    for entry in work:
        for k, v in entry["work"].items():
            total[k] = total.get(k, 0) + v
    return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(workload, calls, plan, checker, workdir, trace_calls):
    from flowbp.fpras import PROBE_CAP

    fixed = {**plan, "limit": min(trace_calls, len(calls))}
    traced = run_worker(workdir, "traced", {**fixed, "trace": True})
    plain = run_worker(workdir, "plain", {**fixed, "trace": False})
    failures = check_records(checker, calls, traced["records"] + plain["records"])
    spans = workdir / "spans.tsv"
    if spans.exists():
        shutil.copyfile(spans, WORK / f"spans-{workload.name}.tsv")
    work = []
    for rec in traced["records"]:
        rep = json.loads(rec["stdout"]) if rec["rc"] == 0 else {}
        work.append({"digest": report_digest(rep), "work": work_counts(rec["work"], rep, PROBE_CAP)})
    total = work_total(work)
    tr = traced["trace"]
    ncalls, selfs = tr["calls"], tr["self_s"]
    traced_s = sum(r["latency_s"] for r in traced["records"])
    plain_s = sum(r["latency_s"] for r in plain["records"])
    cli_self = sum(s for name, s in selfs.items() if name.startswith("cli."))

    def n(name):
        return ncalls.get(name, 0)

    def s(name):
        return selfs.get(name, 0.0)

    m = {
        "pwl.inf_convolve2.calls": (n("pwl.inf_convolve2"), "count"),
        "pwl.inf_convolve2.self_s": (s("pwl.inf_convolve2"), "s"),
        "pwl.inf_convolve2.pieces_in_mean": (
            _ratio(total.get("pwl.inf_convolve2.pieces_in", 0), n("pwl.inf_convolve2")), "pieces"),
        "pwl.scaled_interpolation.self_s": (s("pwl.scaled_interpolation"), "s"),
        "pwl.construct.calls": (n("pwl.construct"), "count"),
        "pwl.construct.self_s": (s("pwl.construct"), "s"),
        "pwl.add.self_s": (s("pwl.add"), "s"),
        "pwl.pointwise_diff.self_s": (s("pwl.pointwise_diff"), "s"),
        "pwl.compose_affine.self_s": (s("pwl.compose_affine"), "s"),
        "bp_engine.update_round.calls": (n("bp_engine.update_round"), "count"),
        "bp_engine.update_round.self_s": (s("bp_engine.update_round"), "s"),
        "bp_engine.round_ms_per_kdeg2": (
            _ratio(1e6 * tr["round_s"], total.get("bp_engine.update_round.deg2", 0)), "ms/kdeg2"),
        "bp_engine.executed_over_nominal": (
            _ratio(total["report.executed_rounds"], total["report.nominal_rounds"]), "ratio"),
        "bp_engine.piece_total_max": (tr["piece_total_max"], "pieces"),
        "bp_engine.beliefs_at_round.self_s": (s("bp_engine.beliefs_at_round"), "s"),
        "bp_engine.gap_test.self_s": (s("bp_engine.gap_test"), "s"),
        "fpras.aprxmt.calls": (n("fpras.aprxmt"), "count"),
        "fpras.aprxmt.self_s": (s("fpras.aprxmt"), "s"),
        "fpras.restarts": (total["report.restarts"], "count"),
        # only approx reports have decimation rounds, and they have no other rounds
        "fpras.executed_rounds_per_aprxmt": (
            _ratio(total["report.executed_rounds"], total["report.decimation_rounds"]), "rounds"),
        "fpras.probe_cap_hits": (_ratio(total["report.probe_cap_hits"], n("fpras.aprxmt")), "ratio"),
        "fpras.perturb_costs.self_s": (s("fpras.perturb_costs"), "s"),
        "oracles.exact_solve.calls": (n("oracles.exact_solve"), "count"),
        "oracles.exact_solve.self_s": (s("oracles.exact_solve"), "s"),
        "flowmodel.min_cycle_cost.calls": (n("flowmodel.min_cycle_cost"), "count"),
        "flowmodel.min_cycle_cost.self_s": (s("flowmodel.min_cycle_cost"), "s"),
        "flowmodel.preprocess_degree.self_s": (s("flowmodel.preprocess_degree"), "s"),
        "flowmodel.parse.self_s": (
            s("flowmodel.parse_dimacs") + s("flowmodel.network_from_json_dict"), "s"),
        "cli.main.self_s": (cli_self, "s"),
        "trace.overhead_share": (_ratio(traced_s, plain_s) - 1.0, "ratio"),
    }
    print(f"{len(traced['records'])} traced calls, {tr['spans']} spans "
          f"({tr['spans_logged']} written), trace overhead {traced_s / plain_s - 1:.1%}",
          file=sys.stderr)
    attempted = len(traced["records"]) + len(plain["records"])
    return m, attempted, failures, work


def measure(workload_name: str, seed: int, seconds: float, trace: bool, baseline: dict,
            trace_calls: int | None = None):
    """Set up, run and check one workload; returns (metrics, attempted,
    failures, and for a traced run each call's digest and work counts).
    ``trace_calls`` shortens the traced call prefix (for the self-test)."""
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        calls = workloads.build_calls(workload, seed, workdir)
        tiny = workdir / "trivial.dimacs"  # three nodes, solved in a few rounds
        tiny.write_text(workloads.instance_text(workloads.gen.hard_instance(2), False))
        plan = {
            "src": str(SRC),
            "calls": [c.argv for c in calls],
            "warmup": [*workload.trivial, "--threads", "1", "--input", str(tiny)],
        }
        checker = Checker(recorded(baseline, workload_name, seed).get("digests", []))
        if trace:
            return per_layer(workload, calls, plan, checker, workdir,
                             trace_calls or workload.trace_calls)
        metrics, attempted, failures = end_to_end(
            workload, calls, plan, checker, workdir, seconds, tiny)
        return metrics, attempted, failures, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_baseline() -> dict:
    if BASELINE.exists():
        return json.loads(BASELINE.read_text(encoding="utf-8"))
    return {}


def recorded(baseline: dict, workload_name: str, seed: int) -> dict:
    """The baseline entry for one workload and seed, or {} if none was recorded."""
    return baseline.get("workloads", {}).get(workload_name, {}).get(str(seed), {})


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "flowbp" / "cli.py").is_file():
        print(f"no flowbp source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flowbp

    if SRC.resolve() not in Path(flowbp.__file__).resolve().parents:
        print(f"flowbp imported from {flowbp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True), file=sys.stderr)
    baseline = load_baseline()
    try:
        metrics, attempted, failures, work = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), baseline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    base = recorded(baseline, args.workload, args.seed)
    if work is not None and base:
        moved = {k: (base["work_total"].get(k), v) for k, v in work_total(work).items()
                 if base["work_total"].get(k) != v}
        print(f"work counts against the baseline: {moved or 'unchanged'}", file=sys.stderr)
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
