"""The benchmark workloads: seeded instance batches and the CLI calls on them.

A workload turns ``(seed, index)`` into one instance, written to a file, and
one ``flowbp`` command line on that file.  Instances come from
``flowbp.gen``; the program only ever sees the files and the arguments.
Every call passes ``--threads 1``: the load is one client in a closed loop.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from flowbp import gen
from flowbp.flowmodel import FlowNetwork, emit_dimacs, network_to_json_dict

#: Round count for ``solve-dense``.  ``--iters auto`` would mean 780-1770
#: rounds, minutes per instance; 3 rounds already reach message shapes with
#: several pieces per arc.
DENSE_ITERS = 3

#: (n, m) cycled over the ``solve-dense`` batch: sum of squared degrees
#: from about 2k to 6k, 40-120 ms per round.
DENSE_SHAPES = ((20, 100), (24, 130), (27, 165), (30, 200))


@dataclass
class Call:
    """One command line of a workload, with what its output is checked against."""

    argv: list[str]
    net: FlowNetwork
    kind: str  # "solve-fixed" or "approx"
    eps: Optional[Fraction] = None


@dataclass(frozen=True)
class Workload:
    name: str
    batch: int  # calls generated per seed; a run cycles through them
    tail_pct: float  # tail percentile, chosen to have >= 10 samples beyond it
    trace_calls: int  # fixed call prefix measured by a traced run
    trivial: list[str]  # mode arguments for the set-up probe's one call
    make: Callable[[random.Random, int, int], tuple[FlowNetwork, list[str], str, Optional[Fraction]]]


def _dense(rng, seed, i):
    n, m = DENSE_SHAPES[i % len(DENSE_SHAPES)]
    net = gen.random_network(seed * 100_000 + i, n=n, m=m)
    return net, ["solve", "--iters", str(DENSE_ITERS)], "solve-fixed", None


def _approx(rng, seed, i):
    # Criterion-8 shapes.  Only unique-optimum instances: on tied ones a few
    # perturbation draws run to the probe cap (seconds each), and a run of
    # this length sees too few of them for steady figures (see README).
    # Calls 2j and 2j+1 share the generator seed, but ``rng`` is per call,
    # so c_max and cap_max, and mostly the instance, differ between them.
    j = i // 2
    k = j % 3
    net = gen.random_network(
        seed * 100_000 + j,
        n=4 + k,
        m=5 + k,
        c_max=1 + rng.randrange(5),
        cap_max=1 + rng.randrange(3),
        ensure_unique=True,
    )
    eps = ("1/10", "1/2")[i % 2]
    argv = ["approx", "--epsilon", eps, "--seed", str(seed * 100_000 + j)]
    return net, argv, "approx", Fraction(eps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-dense", 240, 0.9, 24, ["solve", "--iters", "1"], _dense),
        # A 55 s run makes 5000-7000 calls, so it rarely repeats one and its
        # p99 rests on 50-70 distinct calls.  With a batch of 800 cycled, the
        # p99 was the 8th-heaviest call of the seed's batch, and it spread
        # from seed to seed by more than the machine's own drift.
        Workload("approx", 8000, 0.99, 600, ["approx", "--epsilon", "1/2", "--seed", "1"], _approx),
    )
}


def instance_text(net: FlowNetwork, as_json: bool) -> str:
    if as_json:
        return json.dumps(network_to_json_dict(net), sort_keys=True) + "\n"
    return emit_dimacs(net)


def build_calls(workload: Workload, seed: int, workdir: Path) -> list[Call]:
    """Generate the batch for ``seed`` and write each distinct instance to a file.

    ``approx`` writes JSON and ``solve-dense`` DIMACS, so both parsers are
    exercised.
    """
    calls = []
    texts: dict[str, Path] = {}
    for i in range(workload.batch):
        rng = random.Random(f"{workload.name}:{seed}:{i}")
        net, args, kind, eps = workload.make(rng, seed, i)
        as_json = workload.name == "approx"
        text = instance_text(net, as_json)
        path = texts.get(text)
        if path is None:
            path = workdir / f"{i}.{'json' if as_json else 'dimacs'}"
            path.write_text(text, encoding="utf-8")
            texts[text] = path
        argv = [*args, "--threads", "1", "--input", str(path)]
        calls.append(Call(argv, net, kind, eps))
    return calls
