"""Random instance generation and built-in benchmark families.

Generated instances are feasible by construction: demands are read off a
randomly sampled integral flow.  Optional rejection sampling drives the
instance toward a unique optimum (or deliberately toward ties) using the
residual-cycle uniqueness oracle.
"""

from __future__ import annotations

import random

from .errors import GenerationBudgetError
from .flowmodel import FlowNetwork
from .oracles import exact_solve, is_unique_optimum
from .pwl import PwlConvex

#: Draws ``random_network`` makes before giving up on its constraints.
MAX_TRIES = 2000


def _random_topology(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A weakly connected random digraph on nodes 1..n with m arcs."""
    if m < n - 1:
        raise ValueError(f"need at least n-1 = {n - 1} arcs for connectivity, got {m}")
    order = list(range(1, n + 1))
    rng.shuffle(order)
    ends = []
    for i in range(1, n):
        other = order[rng.randrange(i)]
        pair = (order[i], other) if rng.random() < 0.5 else (other, order[i])
        ends.append(pair)
    while len(ends) < m:
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u != v:
            ends.append((u, v))
    return ends


def _random_cost(rng: random.Random, c_max: int, cap: int, pieces: int) -> PwlConvex | int:
    if pieces <= 1 or cap < 2:
        return rng.randint(0, c_max)
    k = min(pieces, cap, c_max + 1)
    slopes = sorted(rng.sample(range(0, c_max + 1), k))
    cuts = sorted(rng.sample(range(1, cap), k - 1))
    return PwlConvex((0, *cuts, cap), slopes, (0, 0))


def random_network(
    seed: int,
    n: int,
    m: int,
    c_max: int = 4,
    cap_max: int = 4,
    cost_pieces: int = 1,
    ensure_unique: bool = False,
    ensure_multiple: bool = False,
) -> FlowNetwork:
    """A random feasible instance on nodes 1..n with m arcs.

    ``cost_pieces > 1`` draws convex multi-piece arc costs (slope range
    still ``[0, c_max]``).  ``ensure_unique`` rejection-samples until the
    exact optimum is unique; ``ensure_multiple`` until it is not.  Arcs
    need two nodes, since self-loops are not allowed.
    """
    if n < 2 and m > 0:
        raise ValueError(f"{m} arcs need at least 2 nodes, got {n}")
    if ensure_unique and ensure_multiple:
        raise ValueError("ensure_unique and ensure_multiple are mutually exclusive")
    for attempt in range(MAX_TRIES):
        rng = random.Random(seed * 1_000_003 + attempt)
        ends = _random_topology(rng, n, m)
        specs = []
        flows = {}
        for i, (u, v) in enumerate(ends, start=1):
            cap = rng.randint(1, cap_max)
            specs.append((i, u, v, cap, _random_cost(rng, c_max, cap, cost_pieces)))
            flows[i] = rng.randint(0, cap)
        demands = {v: 0 for v in range(1, n + 1)}
        for (i, u, v, cap, _cost) in specs:
            demands[u] += flows[i]
            demands[v] -= flows[i]
        net = FlowNetwork.from_data(demands, specs)
        if not ensure_unique and not ensure_multiple:
            return net
        unique = is_unique_optimum(net, exact_solve(net))
        if unique == ensure_unique:
            return net
    raise GenerationBudgetError(f"no instance matching the constraints in {MAX_TRIES} tries")


def hard_instance(d: int) -> FlowNetwork:
    """The three-node family on which the solver needs ~d/3 rounds.

    A unit of supply at node 1 must reach node 3 either over the two-arc
    path (cost ``d`` per arc) or the direct arc (cost ``2d - 1``).  The
    direct arc wins by exactly 1, and the near-tie keeps the estimate for
    the path arcs oscillating for a number of rounds that grows linearly
    in ``d``.
    """
    return FlowNetwork.from_data(
        {1: 1, 2: 0, 3: -1},
        [(1, 1, 2, 2, d), (2, 2, 3, 2, d), (3, 1, 3, 2, 2 * d - 1)],
    )
