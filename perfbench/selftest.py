"""Self-test of the benchmark, and the recorder of its baseline.

    python3 perfbench/selftest.py             # check
    python3 perfbench/selftest.py --record    # rewrite perfbench/baseline.json

The check, for every workload on seed 1:

1. two traced runs of the first few calls give bit-identical per-call work
   counts (span calls, convolution input pieces, piece totals, rounds
   executed, restarts, probe-cap hits) and report digests;
2. those counts are compared with ``baseline.json``; differences are
   listed, not failed, because a change that cuts work moves them on
   purpose (report digests are enforced by every run instead);
3. every metric name and unit printed by ``run.py`` is declared in
   ``BENCHMARK.json``, checked on one real run's last stdout line too.

``--record`` runs each workload's full traced call prefix on
:data:`RECORD_SEEDS` and stores, per workload and seed, every call's
report digest, the work counts of the first calls and the work totals,
with the machine fingerprint.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

RECORD_SEEDS = range(1, 11)
CHECK_CALLS = 4


def _declared() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def _names_ok(label: str, metrics: dict, declared: dict) -> list[str]:
    units = {k: u for k, (_v, u) in metrics.items()}
    if units != declared:
        return [f"{label}: printed {units} but BENCHMARK.json declares {declared}"]
    return []


def check() -> int:
    import workloads

    e2e, layer = _declared()
    problems = []
    baseline = run.load_baseline()
    for name in workloads.WORKLOADS:
        first = run.measure(name, 1, 0, True, {}, trace_calls=CHECK_CALLS)
        second = run.measure(name, 1, 0, True, {}, trace_calls=CHECK_CALLS)
        problems += [f"{name}: {f}" for f in first[2] + second[2]]
        if first[3] != second[3]:
            problems.append(f"{name}: work counts or digests differ between two runs")
        base = run.recorded(baseline, name, 1)
        if not base:
            print(f"{name}: seed 1 not in the baseline")
        else:
            for i, entry in enumerate(first[3]):
                if entry["digest"] != base["digests"][i]:
                    problems.append(f"{name}: call {i} report digest differs from the baseline")
                moved = {k: (base["work_first"][i].get(k), v) for k, v in entry["work"].items()
                         if base["work_first"][i].get(k) != v}
                if moved:
                    print(f"{name}: call {i} work moved from the baseline: {moved}")
        problems += _names_ok(f"{name} per-layer", first[0], layer)
        problems += _names_ok(f"{name} end-to-end", run.measure(name, 1, 0.5, False, {})[0], e2e)
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "approx", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result line has keys {sorted(last)}")
    printed = {k: v["unit"] for k, v in last["metrics"].items()}
    if printed != e2e:
        problems.append(f"run.py printed {printed}, BENCHMARK.json declares {e2e}")
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def record() -> int:
    import workloads

    baseline = {"fingerprint": run.fingerprint(), "workloads": {}}
    for name in workloads.WORKLOADS:
        per_seed = baseline["workloads"][name] = {}
        for seed in RECORD_SEEDS:
            _m, _a, failures, work = run.measure(name, seed, 0, True, {})
            if failures:
                print(f"{name} seed {seed}: {failures[:3]}")
                return 1
            per_seed[str(seed)] = {
                "digests": [e["digest"] for e in work],
                "work_first": [e["work"] for e in work[:CHECK_CALLS]],
                "work_total": run.work_total(work),
            }
            print(f"recorded {name} seed {seed}: {len(work)} calls", flush=True)
    run.BASELINE.write_text(json.dumps(baseline, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv) -> int:
    if not (run.SRC / "flowbp" / "cli.py").is_file():
        print(f"no flowbp source tree at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    return record() if argv == ["--record"] else check()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
