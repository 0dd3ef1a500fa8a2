"""Shared brute-force oracles and random generators for the test suite.

Everything here is deliberately naive or third-party: grid minimization,
exhaustive enumeration, networkx's network simplex, and small random
cases with fixed seeds.  These are the
independent reference implementations the library is checked against, so
they must not reuse the library's own algebra beyond plain evaluation.
The one exception is :func:`literal_tables`, the message recursion run
round by round, against which the round driver's shortcuts are checked.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx

from flowbp.bp_engine import MessageState, belief, init_messages, update_round
from flowbp.errors import EmptyDomainError
from flowbp.flowmodel import FlowAssignment, FlowNetwork, make_assignment, preprocess_degree
from flowbp.fpras import _seed_seq, perturb_costs
from flowbp.gen import random_network
from flowbp.pwl import NEG_INF, POS_INF, PwlConvex


def t1_network(c3: int = 3, d: int = 1) -> FlowNetwork:
    """Three-node triangle: unit supply at 1, unit demand at 3, caps 2.

    Path arcs 1->2->3 cost ``d`` each, direct arc 1->3 cost ``c3``.  The
    default (d=1, c3=3) has the unique optimum (1, 1, 0) of cost 2 and
    exactly one alternative feasible integral flow (0, 0, 1) of cost 3.
    """
    return FlowNetwork.from_data(
        {1: 1, 2: 0, 3: -1},
        [(1, 1, 2, 2, d), (2, 2, 3, 2, d), (3, 1, 3, 2, c3)],
    )


#: Two nodes, no demand, and uncapacitated negative-cost arcs both ways:
#: unbounded, and networkx's network simplex never terminates on it.
HANG_NETWORK = FlowNetwork.from_data(
    {1: 0, 2: 0},
    [
        (1, 1, 2, 2, 3),
        (2, 2, 1, None, -2),
        (3, 1, 2, 2, -1),
        (4, 2, 1, 3, 2),
        (5, 1, 2, None, -2),
        (6, 2, 1, 2, -1),
        (7, 2, 1, None, -3),
    ],
)


def literal_tables(network: FlowNetwork, rounds: int) -> list[MessageState]:
    """The message tables of rounds ``0..rounds``, every round executed by
    ``update_round``: the literal recursion that every fast-forward is
    checked against."""
    tables = [init_messages(network)]
    for _ in range(rounds):
        tables.append(update_round(network, tables[-1]))
    return tables


def literal_gap_test(network: FlowNetwork, state: MessageState, threshold: int):
    """The belief gap test read literally off each arc's ``belief``
    object: its ``argmin``, a tie where the belief does not rise one unit
    right of it, and a pass where both neighbours are dearer by more than
    ``threshold``.  Returns ``(unique, flows, ties)`` as
    ``bp_engine.gap_test`` does."""
    beliefs = {a.id: belief(network, state, a.id) for a in network.arcs}
    flows = {aid: b.argmin() for aid, b in beliefs.items()}
    ties = tuple(aid for aid, z in flows.items() if beliefs[aid].evaluate(z + 1) == beliefs[aid].evaluate(z))
    unique = all(
        min(beliefs[aid].evaluate(z - 1), beliefs[aid].evaluate(z + 1)) > threshold + beliefs[aid].evaluate(z)
        for aid, z in flows.items()
    )
    return unique, flows, ties


def same_modulo_constants(a, b) -> bool:
    """Whether two functions, or two message tables of the same round and
    keys, differ by one additive constant per function: the same pieces,
    and the same value differences between every pair of finite
    breakpoints."""
    if isinstance(a, MessageState):
        return (
            a.round == b.round
            and list(a.messages) == list(b.messages)
            and all(same_modulo_constants(f, b.messages[k]) for k, f in a.messages.items())
        )
    if a.breakpoints != b.breakpoints or a.slopes != b.slopes:
        return False
    points = [x for x in a.breakpoints if x not in (NEG_INF, POS_INF)] or [a.anchor[0]]
    return len({a.evaluate(x) - b.evaluate(x) for x in points}) == 1


def piece_expanded_graph(network: FlowNetwork) -> tuple[nx.MultiDiGraph, int]:
    """The instance as a networkx multigraph, one parallel edge per cost
    piece (convexity makes the split exact), plus the constant objective
    offset ``sum of costs at zero flow``."""
    G = nx.MultiDiGraph()
    base = 0
    for v, f in network.demands.items():
        G.add_node(v, demand=-f)
    for a in network.arcs:
        base += a.cost.evaluate(0)
        bks = a.cost.breakpoints
        for i, slope in enumerate(a.cost.slopes):
            if bks[i + 1] == POS_INF:
                G.add_edge(a.tail, a.head, key=(a.id, i), weight=slope)
            else:
                G.add_edge(a.tail, a.head, key=(a.id, i), weight=slope,
                           capacity=bks[i + 1] - bks[i])
    return G, base


def simplex_solve(network: FlowNetwork) -> FlowAssignment:
    """An optimal flow by networkx's network simplex on the piece-expanded
    graph: the reference ``exact_solve`` is checked against.  Only for
    instances with an optimum: on some unbounded ones it never terminates."""
    G, base = piece_expanded_graph(network)
    cost, flow = nx.network_simplex(G)
    flows = {a.id: 0 for a in network.arcs}
    for targets in flow.values():
        for keyed in targets.values():
            for (aid, _piece), x in keyed.items():
                flows[aid] += x
    out = make_assignment(network, flows)
    if not out.feasible or out.objective != cost + base:  # checked under python -O too
        raise AssertionError(f"network simplex flow misses its objective {cost + base}")
    return out


def uncapacitated_network(seed: int, share: float, discount: int) -> FlowNetwork:
    """``random_network(seed, n=6, m=14)`` with about ``share`` of its arcs
    made uncapacitated and ``discount`` taken off their cost."""
    base = random_network(seed, n=6, m=14, c_max=5, cap_max=3)
    rng = random.Random(seed)
    specs = []
    for a in base.arcs:
        cap = None if rng.random() < share else a.capacity
        cost = a.cost.slopes[0] - (discount if cap is None else 0)
        specs.append((a.id, a.tail, a.head, cap, cost))
    return FlowNetwork.from_data(dict(base.demands), specs)


#: Calls of the benchmark's seed-2 ``approx`` batch whose first draw the
#: earlier probe loop decided only at round 32 or 64; the driver reaches
#: its horizon along orbits in fewer stepped rounds.
HEAVY_APPROX_CALLS = (1, 24, 37, 155, 202)


def tied_network() -> FlowNetwork:
    """A small network with several optimal flows, whose message shapes
    repeat every round from round 2 on: the driver certifies a period-1
    orbit with no end, and the gap test fails at its 96-round horizon."""
    return random_network(2, n=4, m=6, c_max=3, cap_max=3, ensure_multiple=True)


def approx_batch_draw(seed: int, i: int) -> FlowNetwork:
    """The first noise draw of ``approx`` on call ``i`` of the benchmark's
    ``approx`` batch for ``seed``: a criterion-8-shaped instance with a
    unique optimum, at epsilon 1/10 or 1/2, perturbed as decimation round
    0, attempt 0 does it."""
    rng = random.Random(f"approx:{seed}:{i}")
    j = i // 2
    net = random_network(
        seed * 100_000 + j, n=4 + j % 3, m=5 + j % 3, c_max=1 + rng.randrange(5),
        cap_max=1 + rng.randrange(3), ensure_unique=True,
    )
    eps = Fraction(1, 10) if i % 2 == 0 else Fraction(1, 2)
    stream = _seed_seq(_seed_seq(seed * 100_000 + j, (0,)), (0,))
    return perturb_costs(preprocess_degree(net)[0], eps, stream).network


def brute_min_pair(f: PwlConvex, g: PwlConvex, t, lo=-16, hi=16, per_unit=8):
    """min over x1 on the rational grid of f(x1) + g(t - x1)."""
    best = POS_INF
    for i in range((hi - lo) * per_unit + 1):
        x1 = Fraction(lo) + Fraction(i, per_unit)
        a = f.evaluate(x1)
        if a == POS_INF:
            continue
        b = g.evaluate(t - x1)
        if b == POS_INF:
            continue
        v = a + b
        if v < best:
            best = v
    return best


def brute_min_signed(fs, signs, t, lo=-8, hi=8):
    """min of sum f_i(x_i) subject to sum signs_i * x_i = t.

    Enumerates integer grids for all but one coordinate and solves for the
    remaining one; every choice of the free coordinate is tried, which
    covers all vertex patterns of the underlying LP, so the result is exact
    for integer-breakpoint operands and integer t.
    """
    k = len(fs)
    best = POS_INF
    span = range(lo, hi + 1)

    def rec(idx, partial, acc, free):
        nonlocal best
        if idx == k:
            if partial == t and free is None:
                best = min(best, acc)
            return
        if idx == free:
            # defer: solve for this coordinate once all others are chosen
            def rec_tail(j, part2, acc2):
                nonlocal best
                if j == k:
                    x_free = (t - part2) * signs[free]
                    v = fs[free].evaluate(x_free)
                    if v != POS_INF:
                        best = min(best, acc2 + v)
                    return
                for x in span:
                    v = fs[j].evaluate(x)
                    if v == POS_INF:
                        continue
                    rec_tail(j + 1, part2 + signs[j] * x, acc2 + v)

            rec_tail(idx + 1, partial, acc)
            return
        for x in span:
            v = fs[idx].evaluate(x)
            if v == POS_INF:
                continue
            rec(idx + 1, partial + signs[idx] * x, acc + v, free)

    for free in range(k):
        rec(0, 0, 0, free)
    return best


def random_pwl(rng: random.Random, allow_unbounded: bool = False) -> PwlConvex:
    """A random exact PwlConvex with breakpoints and slopes in [-5, 5]."""
    k = rng.randint(0, 4)
    if k == 0:
        x = rng.randint(-5, 5)
        return PwlConvex.point(x, rng.randint(-5, 5))
    bks = sorted(rng.sample(range(-5, 6), k + 1))
    sls = sorted(rng.sample(range(-5, 6), k))
    if allow_unbounded:
        if rng.random() < 0.3:
            bks[0] = NEG_INF
        if rng.random() < 0.3:
            bks[-1] = POS_INF
    anchor_x = next((b for b in bks if isinstance(b, int)), 0)
    return PwlConvex(bks, sls, (anchor_x, rng.randint(-5, 5)))


def pointwise_diff(f: PwlConvex, g: PwlConvex) -> PwlConvex:
    """Exact ``f - g`` on the domain of ``f``, built by the validating
    constructor from plain evaluation: the reference for beliefs.

    Raises :class:`EmptyDomainError` when ``g`` is not finite on all of
    ``f``'s domain, and the constructor raises
    :class:`~flowbp.errors.NonConvexError` when the difference is not
    convex.
    """
    lo, hi = f.domain
    if g.breakpoints[0] > lo or g.breakpoints[-1] < hi:
        raise EmptyDomainError("subtrahend is not finite on the minuend's domain")
    bks = [lo, *sorted({x for x in f.breakpoints + g.breakpoints if lo < x < hi}), hi]
    z = next((x for x in bks if x not in (NEG_INF, POS_INF)), 0)
    value = f.evaluate(z) - g.evaluate(z)
    if lo == hi:
        return PwlConvex.point(lo, value)
    slopes = [f.right_derivative(x) - g.right_derivative(x) for x in bks[:-1]]
    return PwlConvex(bks, slopes, (z, value))


def leave_one_out_tilts(fs):
    """Per output of ``pwl.leave_one_out(fs)``, the point nearest 0 of its
    own slope range, the intersection of the other operands' ranges (None
    where it is empty).  The kernel stitches every output at the one tilt
    all operands share; where these points differ, some output's own range
    is wider than that shared one."""
    tilts = []
    for i in range(len(fs)):
        bounds = [f._slope_bounds() for j, f in enumerate(fs) if j != i]
        lo, hi = max(b[0] for b in bounds), min(b[1] for b in bounds)
        tilts.append(None if lo > hi else lo if lo > 0 else hi if hi < 0 else 0)
    return tilts
