import contextlib
import random
from fractions import Fraction
import signal

import networkx as nx
import pytest

from flowbp.errors import (
    BudgetExceededError,
    InfeasibleInstanceError,
    NotOptimalError,
    ResultCheckError,
    SizeBudgetError,
    UnboundedObjectiveError,
)
from flowbp.flowmodel import (
    FlowNetwork,
    UNBOUNDED,
    _Residual,
    check_solvable,
    flow_bound,
    min_cost_flow,
    network_from_json_dict,
    objective_value,
    parse_dimacs,
    preprocess_degree,
)
from flowbp import oracles
from flowbp.fpras import perturb_costs
from flowbp.gen import random_network
from flowbp.oracles import (
    build_tree,
    enumerate_integral_flows,
    exact_solve,
    is_unique_optimum,
    tree_solve,
)
from flowbp.pwl import POS_INF, PwlConvex
from helpers import HANG_NETWORK, piece_expanded_graph, simplex_solve, t1_network
from test_fuzz_cli import SEED_DIMACS, SEED_JSON


def test_exact_solve_t1():
    out = exact_solve(t1_network())
    assert out.flows == {1: 1, 2: 1, 3: 0}
    assert out.objective == 2
    assert out.feasible


def test_exact_solve_cross_check_raises(monkeypatch):
    # the solver's flow is checked, and the check must hold under python -O
    monkeypatch.setattr(oracles, "min_cost_flow", lambda net: {1: 0, 2: 0, 3: 0})
    with pytest.raises(ResultCheckError):
        exact_solve(t1_network())


def test_exact_solve_flags_a_flow_with_a_negative_residual_cycle(monkeypatch):
    # feasible but not optimal: 1->2->3 against arc 3 backward costs -1
    monkeypatch.setattr(oracles, "min_cost_flow", lambda net: {1: 0, 2: 0, 3: 1})
    with pytest.raises(ResultCheckError):
        exact_solve(t1_network())


class _OutOfTime(Exception):
    pass


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise :class:`_OutOfTime` inside the block once ``seconds`` pass."""

    def alarm(signum, frame):
        raise _OutOfTime

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_exact_solve_fails_fast_where_network_simplex_hangs():
    # network simplex never terminates on this instance; the gate runs first
    with _time_limit(10), pytest.raises(UnboundedObjectiveError):
        exact_solve(HANG_NETWORK)


# ---------------------------------------------------------------------------
# The solvability gate against network simplex


def _gate_outcome(net):
    try:
        check_solvable(net)
    except InfeasibleInstanceError as exc:
        return "infeasible", str(exc)
    except UnboundedObjectiveError as exc:
        return "unbounded", str(exc)
    return "optimal", None


def _simplex_outcome(net, limit_s: float = 2.0):
    """Outcome class and message of networkx's network simplex on the
    piece-expanded graph, or None when it runs out of time (on some
    unbounded instances it never terminates)."""
    G, _ = piece_expanded_graph(net)
    try:
        with _time_limit(limit_s):
            nx.network_simplex(G)
    except _OutOfTime:
        return None
    except nx.NetworkXUnfeasible as exc:
        return "infeasible", str(exc)
    except nx.NetworkXUnbounded as exc:
        return "unbounded", str(exc)
    return "optimal", None


def _free_cycle_costs(net):
    """Costs of the simple cycles of uncapacitated arcs, each arc priced
    at its last slope (the cheapest of parallel arcs)."""
    G = nx.DiGraph()
    for a in net.arcs:
        if a.capacity is None:
            w = a.cost.slopes[-1]
            if not G.has_edge(a.tail, a.head) or G[a.tail][a.head]["w"] > w:
                G.add_edge(a.tail, a.head, w=w)
    for cyc in nx.simple_cycles(G):
        yield sum(G[u][v]["w"] for u, v in zip(cyc, cyc[1:] + cyc[:1]))


def _feasible_by_max_flow(net, *, free: bool = True) -> bool:
    """networkx max-flow check; ``free=False`` leaves out uncapacitated arcs."""
    G = nx.DiGraph()
    G.add_nodes_from(["s", "t"])
    supply = sum(f for f in net.demands.values() if f > 0)
    for a in net.arcs:
        if a.capacity is None and not free:
            continue
        cap = supply if a.capacity is None else a.capacity
        if G.has_edge(a.tail, a.head):
            G[a.tail][a.head]["capacity"] += cap
        else:
            G.add_edge(a.tail, a.head, capacity=cap)
    for v, f in net.demands.items():
        if f > 0:
            G.add_edge("s", v, capacity=f)
        elif f < 0:
            G.add_edge(v, "t", capacity=-f)
    return nx.maximum_flow_value(G, "s", "t") == supply


def _gate_corpus(count: int, seed: int = 6):
    """Random instances: n 2-7, m 1-12, 30% uncapacitated arcs, costs
    -3..4.  Half take their demands from a random flow (feasible), half
    from random transfers (often infeasible).  Every sixth uncapacitated
    arc has a two-piece cost, so its last slope differs from its first."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(2, 7), rng.randint(1, 12)
        demands = {v: 0 for v in range(1, n + 1)}
        from_flow = rng.random() < 0.5
        specs = []
        for aid in range(1, m + 1):
            tail, head = rng.sample(range(1, n + 1), 2)
            cap = None if rng.random() < 0.3 else rng.randint(0, 4)
            cost = rng.randint(-3, 4)
            if cap is None and rng.random() < 1 / 6:
                low, high = sorted(rng.sample(range(-3, 5), 2))
                cost = PwlConvex((0, rng.randint(1, 3), POS_INF), (low, high), (0, 0))
            specs.append((aid, tail, head, cap, cost))
            if from_flow:
                x = rng.randint(0, 4 if cap is None else cap)
                demands[tail] += x
                demands[head] -= x
        if not from_flow:
            for _ in range(rng.randint(1, 3)):
                u, v = rng.sample(range(1, n + 1), 2)
                k = rng.randint(1, 4)
                demands[u] += k
                demands[v] -= k
        yield FlowNetwork.from_data(demands, specs)


def test_solvability_gate_matches_network_simplex():
    corpus = list(_gate_corpus(2400))
    corpus += [parse_dimacs(text) for text in SEED_DIMACS]
    corpus += [network_from_json_dict(d) for d in SEED_JSON]
    corpus.append(HANG_NETWORK)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    infeasible_with_free_cycle = needs_free_arcs = 0
    for net in corpus:
        gate = _gate_outcome(net)
        ref = _simplex_outcome(net)
        if ref is None:
            # the reference hangs: the gate must find the instance feasible
            # and unbounded, and an independent search must agree
            assert gate == ("unbounded", "negative cycle with infinite capacity found")
            assert _feasible_by_max_flow(net)
            assert min(_free_cycle_costs(net), default=0) < 0
            continue
        assert gate == ref, net.demands
        seen[gate[0]] += 1
        if gate[0] == "infeasible" and min(_free_cycle_costs(net), default=0) < 0:
            infeasible_with_free_cycle += 1
        if gate[0] != "infeasible" and not _feasible_by_max_flow(net, free=False):
            needs_free_arcs += 1
    assert min(seen.values()) >= 1, seen
    # instances that tell the gate's two steps and their order apart
    assert infeasible_with_free_cycle >= 5 and needs_free_arcs >= 100


@pytest.mark.parametrize(
    "demands, outcome",
    [
        ({}, ("optimal", None)),
        ({1: 0, 2: 0}, ("optimal", None)),
        ({1: 3, 2: -3}, ("infeasible", "nonzero demand with no arcs")),
    ],
)
def test_solvability_gate_without_arcs(demands, outcome):
    net = FlowNetwork.from_data(demands, [])
    assert _gate_outcome(net) == outcome
    if outcome[0] == "optimal":
        assert exact_solve(net).flows == {}
    else:
        with pytest.raises(InfeasibleInstanceError, match=outcome[1]):
            exact_solve(net)


def _max_flow_corpus(count: int, seed: int = 14):
    """Random link sets of the gate's residual network: n 2-9, up to 3n
    links between random endpoints (so parallel and antiparallel links),
    capacities 0-5, about a quarter uncapacitated at the total supply, as
    the gate gives them, and demands from random transfers, which often
    cannot be met."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 9)
        demands = {v: 0 for v in range(n)}
        for _ in range(rng.randint(1, 4)):
            u, v = rng.sample(range(n), 2)
            k = rng.randint(1, 5)
            demands[u] += k
            demands[v] -= k
        supply = sum(f for f in demands.values() if f > 0)
        links = []
        for _ in range(rng.randint(1, 3 * n)):
            tail, head = rng.sample(range(n), 2)
            links.append((tail, head, supply if rng.random() < 0.25 else rng.randint(0, 5), 0, 0))
        yield demands, links


def test_gate_max_flow_equals_networkx_maximum_flow_value():
    # networkx is a test-only reference; a blocking-flow walk that loses
    # its level condition or its dead-end pruning loops, and runs out of time
    seen = {"parallel": 0, "zero": 0, "uncapacitated": 0, "short": 0, "met": 0}
    for demands, links in _max_flow_corpus(800):
        supply = sum(f for f in demands.values() if f > 0)
        G = nx.DiGraph()
        G.add_nodes_from(["s", "t"])
        for tail, head, cap, _, _ in links:
            if G.has_edge(tail, head):
                G[tail][head]["capacity"] += cap
                seen["parallel"] += 1
            else:
                G.add_edge(tail, head, capacity=cap)
            seen["zero"] += cap == 0
            seen["uncapacitated"] += cap == supply
        for v, f in demands.items():
            if f > 0:
                G.add_edge("s", v, capacity=f)
            elif f < 0:
                G.add_edge(v, "t", capacity=-f)
        residual = _Residual(demands, links)
        room = list(residual.cap)
        with _time_limit(5):
            sent = residual.blocking_flows()
        assert sent == nx.maximum_flow_value(G, "s", "t")
        seen["short" if sent < supply else "met"] += 1
        # what was sent is a flow: within each edge's room, conserved at
        # every node but the two terminals, and ``sent`` out of the source
        head, cap = residual.head, residual.cap
        balance = [0] * len(residual.adj)
        for e in range(0, len(head), 2):
            x = cap[e + 1] - room[e + 1]
            assert 0 <= x <= room[e]
            balance[head[e + 1]] += x
            balance[head[e]] -= x
        assert balance[residual.source] == sent == -balance[residual.sink]
        assert not any(balance[: residual.source])
    assert min(seen.values()) >= 50, seen


def _perturbed_corpus(count: int, seed: int = 9):
    """Perturbed random instances, as ``approx`` decides them: n 2-8,
    m n-1..n+10 (random endpoints repeat, giving parallel arcs), a third of
    them with about 30% of the arcs made uncapacitated."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 8)
        net = random_network(k + 9000, n=n, m=rng.randint(n - 1, n + 10),
                             c_max=rng.randint(1, 5), cap_max=rng.randint(1, 4))
        if k % 3 == 0:
            net = FlowNetwork.from_data(net.demands, [
                (a.id, a.tail, a.head, None if rng.random() < 0.3 else a.capacity,
                 net.linear_slope(a))
                for a in net.arcs
            ])
        if net.c_max == 0:
            continue
        eps = rng.choice([Fraction(1, 2), Fraction(1, 10)])
        yield perturb_costs(net, eps, k).network


def _piecewise_corpus(count: int, seed: int = 11):
    """Gate-passing random instances with convex costs of 1-3 pieces,
    slopes -4..4 and a random constant: n 2-6, m 1-10, about 30% of the
    arcs uncapacitated, demands read off a random flow."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        n, m = rng.randint(2, 6), rng.randint(1, 10)
        demands = {v: 0 for v in range(1, n + 1)}
        specs = []
        for aid in range(1, m + 1):
            tail, head = rng.sample(range(1, n + 1), 2)
            cap = None if rng.random() < 0.3 else rng.randint(1, 6)
            k = rng.randint(1, 3 if cap is None else min(3, cap))
            cuts = sorted(rng.sample(range(1, 5 if cap is None else cap), k - 1))
            slopes = sorted(rng.sample(range(-4, 5), k))
            end = POS_INF if cap is None else cap
            specs.append((aid, tail, head, cap,
                          PwlConvex((0, *cuts, end), slopes, (0, rng.randint(-3, 3)))))
            x = rng.randint(0, 6 if cap is None else cap)
            demands[tail] += x
            demands[head] -= x
        net = FlowNetwork.from_data(demands, specs)
        if _gate_outcome(net)[0] == "optimal":
            found += 1
            yield net


def _matches_simplex(net) -> bool:
    """Assert that ``exact_solve`` agrees with network simplex: the same
    objective, and the same flow on a unique optimum, which it returns."""
    ours, ref = exact_solve(net), simplex_solve(net)
    assert ours.objective == ref.objective
    unique = is_unique_optimum(net, ref.flows)
    if unique:
        assert ours.flows == ref.flows
    return unique


def test_min_cost_flow_matches_network_simplex():
    parallel = uncapacitated = unique = 0
    corpus = list(_perturbed_corpus(1200))
    assert len(corpus) >= 1000
    for net in corpus:
        unique += _matches_simplex(net)
        ends = [(a.tail, a.head) for a in net.arcs]
        parallel += len(set(ends)) < len(ends)
        uncapacitated += any(a.capacity is None for a in net.arcs)
    assert parallel >= 100 and uncapacitated >= 100 and unique >= 900


def test_exact_solve_matches_network_simplex():
    gate = [net for net in _gate_corpus(2400) if _gate_outcome(net)[0] == "optimal"]
    piecewise = list(_piecewise_corpus(1000))
    seen = dict.fromkeys(("unique", "piecewise", "negative", "free", "negative free"), 0)
    for net in gate + piecewise:
        seen["unique"] += _matches_simplex(net)
        seen["piecewise"] += not net.is_linear()
        seen["negative"] += any(a.cost.slopes[0] < 0 for a in net.arcs if a.cost.slopes)
        free = [a for a in net.arcs if a.capacity is None]
        seen["free"] += bool(free)
        seen["negative free"] += any(a.cost.slopes[-1] < 0 for a in free)
    assert len(gate) >= 1000 and min(seen.values()) >= 500, seen


@pytest.mark.parametrize(
    "arcs, demands, bound, objective",
    [
        # every term of the flow bound is needed: the finite capacities ...
        ([(1, 1, 2, None, -1), (2, 2, 1, 5, 0)], {1: 0, 2: 0}, 6, -5),
        # ... the last finite breakpoint of an uncapacitated cost ...
        ([(1, 1, 2, None, PwlConvex((0, 4, POS_INF), (-1, 0), (0, 0))),
          (2, 2, 1, None, 0)], {1: 0, 2: 0}, 5, -4),
        # ... and the supply
        ([(1, 1, 2, None, 1)], {1: 3, 2: -3}, 4, 3),
    ],
)
def test_min_cost_flow_caps_uncapacitated_arcs_at_the_flow_bound(arcs, demands, bound, objective):
    net = FlowNetwork.from_data(demands, arcs)
    assert flow_bound(net) == bound
    assert exact_solve(net).objective == objective


def test_min_cost_flow_input_checks():
    # piecewise costs: the cheaper piece fills first
    pw = FlowNetwork.from_data({1: 2, 2: -2}, [(1, 1, 2, 2, PwlConvex((0, 1, 2), (1, 2), (0, 0)))])
    assert min_cost_flow(pw) == {1: 2} and objective_value(pw, {1: 2}) == 3
    # negative costs: both arcs saturate, around a cycle the demand never needs
    neg = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 2, -1), (2, 2, 1, 2, 0)])
    assert min_cost_flow(neg) == {1: 2, 2: 1} and objective_value(neg, {1: 2, 2: 1}) == -2
    with pytest.raises(InfeasibleInstanceError):
        min_cost_flow(FlowNetwork.from_data({1: 3, 2: -3}, [(1, 1, 2, 2, 1)]))
    assert min_cost_flow(FlowNetwork.from_data({1: 0, 2: 0}, [(1, 1, 2, None, 0)])) == {1: 0}
    assert min_cost_flow(t1_network()) == {1: 1, 2: 1, 3: 0}


def test_exact_solve_t1_triple_supply():
    net = FlowNetwork.from_data(
        {1: 3, 2: 0, 3: -3},
        [(1, 1, 2, 2, 1), (2, 2, 3, 2, 1), (3, 1, 3, 2, 3)],
    )
    out = exact_solve(net)
    assert out.flows == {1: 2, 2: 2, 3: 1}
    assert out.objective == 7


def test_exact_solve_infeasible():
    net = FlowNetwork.from_data({1: 1, 2: -1, 3: 1, 4: -1}, [(1, 1, 2, 2, 1), (2, 3, 4, 0, 1)])
    with pytest.raises(InfeasibleInstanceError):
        exact_solve(net)


def test_exact_solve_pwl_costs_match_enumeration():
    pw = PwlConvex((0, 1, 3), (1, 4), (0, 0))
    net = FlowNetwork.from_data(
        {1: 2, 2: -2},
        [(1, 1, 2, 3, pw), (2, 1, 2, 1, 3), (3, 2, 1, 2, 0)],
    )
    best = enumerate_integral_flows(net)[0]
    out = exact_solve(net)
    assert out.objective == best.objective


def test_enumerate_t1():
    flows = enumerate_integral_flows(t1_network())
    assert len(flows) == 2
    assert flows[0].flows == {1: 1, 2: 1, 3: 0} and flows[0].objective == 2
    assert flows[1].flows == {1: 0, 2: 0, 3: 1} and flows[1].objective == 3


def test_enumerate_infeasible_is_empty():
    net = FlowNetwork.from_data({1: 2, 2: -2}, [(1, 1, 2, 1, 1)])
    assert enumerate_integral_flows(net) == []


def test_enumerate_tie():
    flows = enumerate_integral_flows(t1_network(c3=2))
    assert [fa.objective for fa in flows] == [2, 2]


def test_enumerate_budget():
    net = FlowNetwork.from_data({1: 0, 2: 0}, [(1, 1, 2, 10**9, 1), (2, 2, 1, 10**9, 1)])
    with pytest.raises(BudgetExceededError):
        enumerate_integral_flows(net)
    with pytest.raises(BudgetExceededError):
        enumerate_integral_flows(
            FlowNetwork.from_data({1: 0, 2: 0}, [(1, 1, 2, UNBOUNDED, 1), (2, 2, 1, 1, 1)])
        )


def test_is_unique_optimum_t1():
    net = t1_network()
    assert is_unique_optimum(net, {1: 1, 2: 1, 3: 0}) is True
    assert is_unique_optimum(t1_network(c3=2), {1: 1, 2: 1, 3: 0}) is False
    with pytest.raises(NotOptimalError):
        is_unique_optimum(net, {1: 0, 2: 0, 3: 1})


def test_exact_solve_agrees_with_enumeration_randomly():
    for seed in range(40):
        net = random_network(seed, n=4, m=6, c_max=5, cap_max=3)
        flows = enumerate_integral_flows(net)
        assert flows, "generated instances are feasible by construction"
        out = exact_solve(net)
        assert out.objective == flows[0].objective
        if len(flows) == 1 or flows[1].objective > flows[0].objective:
            if is_unique_optimum(net, flows[0]):
                assert out.flows == flows[0].flows


def test_uniqueness_oracle_agrees_with_enumeration():
    agree = 0
    for seed in range(60):
        net = random_network(seed + 1000, n=4, m=5, c_max=3, cap_max=2)
        flows = enumerate_integral_flows(net)
        best = flows[0]
        multi_integral = len(flows) > 1 and flows[1].objective == best.objective
        unique = is_unique_optimum(net, exact_solve(net))
        if unique:
            assert not multi_integral
        if multi_integral:
            assert not unique
        agree += 1
    assert agree == 60


def test_preprocess_preserves_objective():
    for seed in range(30):
        net = random_network(seed + 77, n=5, m=6, c_max=4, cap_max=3)
        reduced, fixed = preprocess_degree(net)
        whole = exact_solve(net)
        fixed_cost = sum(
            net.arc_by_id[aid].cost.evaluate(x) for aid, x in fixed.items()
        )
        if reduced.m == 0:
            assert whole.objective == fixed_cost
        else:
            part = exact_solve(reduced)
            assert whole.objective == part.objective + fixed_cost


def test_build_tree_depth0():
    tree = build_tree(t1_network(), 1, 0)
    assert len(tree.vertices) == 2
    assert len(tree.arcs) == 1
    assert tree.vertices[0].parent == 1 and tree.vertices[1].parent == 0


def test_build_tree_depth1():
    tree = build_tree(t1_network(), 1, 1)
    assert len(tree.vertices) == 4
    assert len(tree.arcs) == 3
    origs = sorted(tree.network.arc_by_id[a.orig].id for a in tree.arcs)
    assert origs == [1, 2, 3]
    # both new vertices are copies of node 3
    assert {v.orig for v in tree.vertices if v.level == 1} == {3}


def test_build_tree_no_child_through_parent():
    net = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 2, 1)])
    tree = build_tree(net, 1, 3)
    assert len(tree.vertices) == 2  # nothing to expand


def test_build_tree_parallel_arcs_expand():
    net = FlowNetwork.from_data(
        {1: 1, 2: -1}, [(1, 1, 2, 1, 1), (2, 1, 2, 1, 2)]
    )
    tree = build_tree(net, 1, 1)
    # each endpoint gains one child through the parallel arc
    assert len(tree.vertices) == 4
    assert all(tree.arcs[v.parent_arc].orig == 2 for v in tree.vertices if v.level == 1)


def test_build_tree_budget(monkeypatch):
    net = random_network(3, n=5, m=10, c_max=2, cap_max=2)
    monkeypatch.setattr(oracles, "TREE_BUDGET", 100)
    with pytest.raises(SizeBudgetError):
        build_tree(net, 1, 30)


def test_tree_growth_monotone_and_degrees():
    net = random_network(9, n=5, m=8, c_max=3, cap_max=2)
    sizes = [len(build_tree(net, 1, d).vertices) for d in range(4)]
    assert sizes == sorted(sizes)
    tree = build_tree(net, 1, 3)
    deg = {v.id: 0 for v in tree.vertices}
    for a in tree.arcs:
        deg[a.tail] += 1
        deg[a.head] += 1
    for v in tree.vertices:
        if v.level < 3:
            assert deg[v.id] == net.degree(v.orig)


def test_tree_solve_depth1_value():
    tree = build_tree(t1_network(), 1, 1)
    assert tree_solve(tree, 1) == 1
    assert tree_solve(tree, 0) == 0
    assert tree_solve(tree, 3) == POS_INF  # beyond capacity


def test_tree_solve_depth2_by_hand():
    # depth-2 value with root flow z is 3 - z on [0, 1], infeasible beyond
    tree = build_tree(t1_network(), 1, 2)
    assert tree_solve(tree, 0) == 3
    assert tree_solve(tree, 1) == 2
    assert tree_solve(tree, 2) == POS_INF
