"""Measurement process: runs one workload's calls through ``flowbp.cli.main``.

Usage: ``python3 worker.py PLAN.json RESULT.jsonl``.  The plan names the
source tree to import, the calls (argument lists), and either a time box
(``seconds``: calls cycle through the batch until it is spent) or a fixed
call count (``limit``).  One untimed warm-up call finishes lazy set-up
first.  With ``trace`` set, the calls run under :class:`tracing.Tracer`.

The result file gets one JSON line per call (batch index, latency, exit
code, stdout, end of stderr, and for a traced run the call's exact work
counts), written as the loop goes so that kept outputs do not add to the
peak RSS.  A last line holds the loop's elapsed time and the process's
peak RSS, and for a traced run the span totals; the spans themselves go to
``spans.tsv`` next to the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def peak_rss_kb() -> int:
    """This process's own peak resident memory.  ``ru_maxrss`` is not used
    where ``VmHWM`` can be read: it also counts the parent's peak from
    before the exec, and the parent holds the whole instance batch."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import flowbp.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"flowbp imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    _call(cli, plan["warmup"])

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer().install()
        cli = sys.modules["flowbp.cli"]
    calls, limit, seconds = plan["calls"], plan.get("limit"), plan.get("seconds")
    clock = time.perf_counter
    with open(result_path, "w", encoding="utf-8") as sink:
        begin = clock()
        i = 0
        try:
            while (i < limit) if limit is not None else (i == 0 or clock() - begin < seconds):
                if tracer is not None:
                    tracer.call_index = i
                    before = tracer.snapshot()
                t0 = clock()
                rc, out, err = _call(cli, calls[i % len(calls)])
                dt = clock() - t0
                record = {"index": i % len(calls), "latency_s": dt, "rc": rc,
                          "stdout": out, "stderr": err[-2000:]}
                if tracer is not None:
                    after = tracer.snapshot()
                    record["work"] = {k: v - before.get(k, 0) for k, v in after.items()
                                      if v != before.get(k, 0)}
                sink.write(json.dumps(record) + "\n")
                i += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        summary = {
            "elapsed_s": clock() - begin,
            "peak_rss_kb": peak_rss_kb(),
        }
        if tracer is not None:
            summary["trace"] = tracer.totals()
            tracer.write_spans(Path(result_path).with_name("spans.tsv"))
        sink.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
