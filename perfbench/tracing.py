"""Spans around flowbp's public functions, installed from outside the program.

:class:`Tracer` wraps every public module-level function of the traced
modules, plus the algebra methods of ``PwlConvex``, and rebinds each
wrapper under every name in every ``flowbp`` module (and class) that bound
the original, e.g. ``fpras.update_round`` and ``cli.parse_dimacs``.
:meth:`Tracer.uninstall` puts every original back.

Each span has a name, start, end, parent span and CLI call index.  Self
time (duration minus the time of wrapped child spans) and call counts are
accumulated for every span; the first :data:`SPAN_LOG_CAP` spans are also
kept whole and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

LAYERS = ("pwl", "flowmodel", "oracles", "bp_engine", "fpras", "cli")

#: ``PwlConvex`` methods traced as spans.  Accessors such as ``evaluate``
#: stay unwrapped, so their time counts in the caller's self time.
PWL_METHODS = {"__init__": "pwl.construct", "add": "pwl.add",
               "compose_affine": "pwl.compose_affine", "tilt": "pwl.tilt"}

SPAN_LOG_CAP = 200_000


def _sum_deg2(network) -> int:
    return sum(len(inc) ** 2 for inc in network.incident.values())


def _count_convolve(tracer, args, result, dur):
    tracer.counts["pwl.inf_convolve2.pieces_in"] += args[0].piece_count + args[1].piece_count


def _count_round(tracer, args, result, dur):
    total = sum(m.piece_count for m in result.messages.values())
    tracer.counts["bp_engine.update_round.deg2"] += _sum_deg2(args[0])
    tracer.counts["bp_engine.piece_total_sum"] += total
    tracer.round_s += dur
    tracer.piece_total_max = max(tracer.piece_total_max, total)


HOOKS = {"pwl.inf_convolve2": _count_convolve, "bp_engine.update_round": _count_round}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)  # exact, additive
        self.round_s = 0.0  # update_round time including children
        self.piece_total_max = 0  # largest message piece total after a round
        self.call_index = -1
        self.log: list[tuple] = []
        self.spans = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, log, clock = self._stack, self.log, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.spans
            self.spans += 1
            frame = [0.0, span]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                self.self_s[nid] += dur - frame[0]
                self.calls[nid] += 1
                if len(log) < SPAN_LOG_CAP:
                    log.append((nid, start, end, span, parent, self.call_index))
            if hook is not None:
                hook(self, args, result, dur)
            return result

        return wrapper

    def install(self) -> "Tracer":
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"flowbp.{layer}")
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        pwl_cls = importlib.import_module("flowbp.pwl").PwlConvex
        for meth, span_name in PWL_METHODS.items():
            fn = pwl_cls.__dict__[meth]
            wrappers[id(fn)] = (fn, self._wrap(span_name, fn))
        owners = [m for n, m in sys.modules.items() if n == "flowbp" or n.startswith("flowbp.")]
        for owner in owners + [pwl_cls]:
            for name, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(owner, name, hit[1])
                    self._restore.append((owner, name, obj))
        return self

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # -- read-out ------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Exact work so far: calls per span name and the additive counts
        (for per-call work deltas)."""
        snap = {n: c for n, c in zip(self.names, self.calls) if c}
        snap.update(self.counts)
        return snap

    def totals(self) -> dict:
        return {
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "self_s": {n: s for n, s in zip(self.names, self.self_s) if s},
            "round_s": self.round_s,
            "piece_total_max": self.piece_total_max,
            "spans": self.spans,
            "spans_logged": len(self.log),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tcall\tname\tstart_s\tend_s\n")
            for nid, start, end, span, parent, call in self.log:
                fh.write(f"{span}\t{parent}\t{call}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\n")
