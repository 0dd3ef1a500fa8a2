import sys
from fractions import Fraction

import pytest

from flowbp import bp_engine
from flowbp.errors import (
    BadCostDomainError,
    DemandImbalanceError,
    DimacsInconsistentError,
    DimacsSyntaxError,
    ForcedInfeasibleError,
    InfeasibleFlowError,
    MalformedDomainError,
    NegativeCapacityError,
    NonConvexError,
    NonZeroLowerBoundError,
    SelfLoopError,
)
from flowbp.flowmodel import (
    Arc,
    FlowNetwork,
    UNBOUNDED,
    emit_dimacs,
    iteration_bound,
    linear_cost,
    min_cycle_cost,
    network_from_json_dict,
    network_to_json_dict,
    parse_dimacs,
    preprocess_degree,
)
from flowbp.fpras import approx_scheme
from flowbp.gen import random_network
from flowbp.oracles import enumerate_integral_flows
from flowbp.pwl import NEG_INF, POS_INF, PwlConvex
from helpers import t1_network
from test_engine import _differential_cases

T1_DIMACS = """\
c tiny triangle
p min 3 3
n 1 1
n 3 -1
a 1 2 0 2 1
a 2 3 0 2 1
a 1 3 0 2 3
"""


def test_validate_t1():
    net = t1_network()
    assert net.n == 3 and net.m == 3
    assert net.c_max == 3
    assert net.degree(1) == 2


def test_network_hash_is_cached_and_agrees_with_equality():
    for seed in range(5):
        net = random_network(seed, n=6, m=12, cost_pieces=2)
        # the cached value is the hash of the data equality compares
        assert hash(net) == hash((tuple(sorted(net.demands.items())), net.arcs))
        twin = FlowNetwork(dict(reversed(list(net.demands.items()))), list(net.arcs))
        assert twin == net and twin is not net
        assert hash(twin) == hash(net)
        assert {net: 1}[twin] == 1


def test_validate_demand_imbalance():
    with pytest.raises(DemandImbalanceError):
        FlowNetwork.from_data({1: 1, 2: 0, 3: 0}, [(1, 1, 2, 2, 1)])


def test_validate_self_loop():
    with pytest.raises(SelfLoopError):
        FlowNetwork.from_data({1: 0, 2: 0}, [(1, 1, 1, 2, 1)])


def test_validate_negative_capacity_and_cost_domain():
    with pytest.raises(NegativeCapacityError):
        FlowNetwork({1: 0, 2: 0}, [Arc(1, 1, 2, -1, linear_cost(1, 2))])
    with pytest.raises(BadCostDomainError):
        FlowNetwork({1: 0, 2: 0}, [Arc(1, 1, 2, 3, linear_cost(1, 2))])


def test_parse_dimacs_t1():
    net = parse_dimacs(T1_DIMACS)
    assert net == t1_network()


def test_parse_dimacs_rejects_lower_bound():
    with pytest.raises(NonZeroLowerBoundError):
        parse_dimacs("p min 2 1\nn 1 1\nn 2 -1\na 1 2 1 2 1\n")


def test_parse_dimacs_inconsistent_header():
    with pytest.raises(DimacsInconsistentError):
        parse_dimacs("p min 3 2\nn 1 1\nn 3 -1\na 1 2 0 2 1\na 2 3 0 2 1\na 1 3 0 2 3\n")


def test_parse_dimacs_repeated_node_line():
    # summing the two lines would make node 1 a supply of 1
    with pytest.raises(DimacsInconsistentError, match="^node id 1 is listed twice$"):
        parse_dimacs("p min 2 1\nn 1 2\nn 1 -1\nn 2 -1\na 1 2 0 3 1\n")


def test_parse_dimacs_syntax():
    with pytest.raises(DimacsSyntaxError):
        parse_dimacs("p min x 3\n")
    with pytest.raises(DimacsSyntaxError):
        parse_dimacs("q min 1 0\n")


def test_dimacs_roundtrip():
    net = t1_network()
    assert parse_dimacs(emit_dimacs(net)) == net


def test_json_roundtrip_with_pwl_and_unbounded():
    pw = PwlConvex((0, 1, 3), (1, 4), (0, 0))
    net = FlowNetwork.from_data(
        {1: 1, 2: -1},
        [(1, 1, 2, 3, pw), (2, 1, 2, UNBOUNDED, 2), (3, 2, 1, 2, 0)],
    )
    assert network_from_json_dict(network_to_json_dict(net)) == net


def test_preprocess_forced_chain():
    net = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 2, 1)])
    reduced, fixed = preprocess_degree(net)
    assert reduced.n == 0 and reduced.m == 0
    assert fixed == {1: 1}


def test_preprocess_t1_unchanged():
    reduced, fixed = preprocess_degree(t1_network())
    assert reduced == t1_network()
    assert fixed == {}


def test_preprocess_returns_a_network_in_id_order_with_no_forced_arc_as_it_is():
    # the rebuild would index the same network: every node keeps degree
    # >= 2 and the arcs already stand in id order
    net = random_network(11, n=6, m=14)
    assert all(net.degree(v) >= 2 for v in net.demands)
    reduced, fixed = preprocess_degree(net)
    assert reduced is net and fixed == {}
    # the same arcs listed in another order (as a JSON file may list them)
    # are rebuilt in id order, into a network equal to the in-order one
    d = network_to_json_dict(net)
    d["arcs"] = d["arcs"][::-1]
    shuffled = network_from_json_dict(d)
    rebuilt, fixed = preprocess_degree(shuffled)
    assert rebuilt is not shuffled and fixed == {}
    assert rebuilt == net and list(rebuilt.demands) == list(net.demands)
    assert [a.id for a in rebuilt.arcs] == sorted(a.id for a in net.arcs)
    # a forced arc still rebuilds, whatever the order
    chain = FlowNetwork.from_data({1: 1, 2: 0, 3: -1}, [(1, 1, 2, 2, 1), (2, 2, 3, 2, 1), (3, 2, 3, 2, 2)])
    reduced, fixed = preprocess_degree(chain)
    assert reduced is not chain and fixed == {1: 1}


def test_preprocess_forced_infeasible():
    net = FlowNetwork.from_data({1: 3, 2: -3}, [(1, 1, 2, 2, 1)])
    with pytest.raises(ForcedInfeasibleError):
        preprocess_degree(net)


def test_residual_t1():
    # at (1, 1, 0) the only cycle runs forward on arc 3 (priced c3) and back
    # along arcs 2 and 1 (each priced -1, from head to tail)
    for c3 in range(2, 6):
        assert min_cycle_cost(t1_network(c3=c3), {1: 1, 2: 1, 3: 0}) == c3 - 2
    assert min_cycle_cost(t1_network(c3=1), {1: 1, 2: 1, 3: 0}) == NEG_INF


def test_residual_zero_flow_forward_only():
    # parallel arcs 1 -> 2: a flow-carrying arc has a backward copy, which
    # closes a cycle with the other arc's forward copy; an arc at zero
    # flow has none, and a saturated arc has no forward copy
    net = FlowNetwork.from_data({1: 0, 2: 0}, [(1, 1, 2, 2, 1), (2, 1, 2, 2, 1)])
    assert min_cycle_cost(net, {1: 0, 2: 0}) == POS_INF
    net = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 2, 1), (2, 1, 2, 2, 3)])
    assert min_cycle_cost(net, {1: 0, 2: 1}) == NEG_INF
    assert min_cycle_cost(net, {1: 1, 2: 0}) == 2
    net = FlowNetwork.from_data({1: 2, 2: -2}, [(1, 1, 2, 1, 1), (2, 1, 2, 1, 3)])
    assert min_cycle_cost(net, {1: 1, 2: 1}) == POS_INF


def test_residual_pwl_one_sided_derivatives():
    # at flow 1, arc 1's left slope is 1 and its right slope 4
    pw = PwlConvex((0, 1, 3), (1, 4), (0, 0))
    net = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 3, pw), (2, 2, 1, 3, 0)])
    assert min_cycle_cost(net, {1: 1, 2: 0}) == 4  # forward at +4, then back on arc 2
    net = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 3, pw), (2, 1, 2, 3, 3)])
    assert min_cycle_cost(net, {1: 1, 2: 0}) == 2  # forward on arc 2, back at -1


def test_residual_rejects_infeasible():
    with pytest.raises(InfeasibleFlowError):
        min_cycle_cost(t1_network(), {1: 2, 2: 1, 3: 0})


def test_min_cycle_cost_t1_optimum():
    assert min_cycle_cost(t1_network(), {1: 1, 2: 1, 3: 0}) == 1


def test_min_cycle_cost_negative():
    assert min_cycle_cost(t1_network(), {1: 0, 2: 0, 3: 1}) == NEG_INF


def test_min_cycle_cost_acyclic():
    net = FlowNetwork.from_data({1: 0, 2: 0, 3: 0}, [(1, 1, 2, 2, 1), (2, 2, 3, 2, 1)])
    assert min_cycle_cost(net, {1: 0, 2: 0}) == POS_INF


def test_min_cycle_cost_same_arc_pair_excluded():
    # one arc mid-capacity: its forward+backward pair is not a cycle
    single = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 2, 5)])
    assert min_cycle_cost(single, {1: 1}) == POS_INF
    net = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 2, 5), (2, 1, 2, 2, 5)])
    # genuine cycle: forward arc2 (cost 5) + backward arc1 (cost -5)
    assert min_cycle_cost(net, {1: 1, 2: 0}) == 0


def test_min_cycle_cost_matches_enumeration():
    # the certificate of every feasible flow y on tiny instances against
    # exhaustive enumeration: -inf when y is not optimal, else the least
    # extra cost of another feasible flow, +inf when y is the only one
    outcomes = {"-inf": 0, "zero": 0, "positive": 0, "+inf": 0}
    for seed in range(300):
        n = 3 + seed % 3
        net = random_network(
            seed + 8800, n=n, m=n + 1 + seed // 3 % 3, c_max=4, cap_max=3,
            cost_pieces=1 + seed // 9 % 2,
        )
        feasible = enumerate_integral_flows(net)
        best = min(fa.objective for fa in feasible)
        for y in feasible:
            others = [z.objective - y.objective for z in feasible if z.flows != y.flows]
            if y.objective > best:
                want = NEG_INF
            else:
                want = min(others, default=POS_INF)
            got = min_cycle_cost(net, y.flows)
            assert got == want, (seed, y.flows)
            key = "-inf" if got == NEG_INF else "+inf" if got == POS_INF else (
                "zero" if got == 0 else "positive")
            outcomes[key] += 1
    assert all(outcomes.values()), outcomes


def test_iteration_bounds():
    net = t1_network()
    assert iteration_bound(net, "uniqueness") == 30
    assert iteration_bound(net, "convergence") == 12
    lonely = FlowNetwork({7: 0}, [])
    assert iteration_bound(lonely, "uniqueness") == lonely.c_max + 1


# ---------------------------------------------------------------------------
# The trust boundary: validated once where an instance enters


def _validated_linear_cost(slope, capacity):
    """The reference for :func:`linear_cost`: the validating constructors."""
    hi = POS_INF if capacity is None else capacity
    return PwlConvex.point(0, 0) if hi == 0 else PwlConvex.linear(slope, 0, hi)


def _outcome(build, *args):
    try:
        f = build(*args)
    except Exception as exc:  # an error is an outcome too: its type and message
        return type(exc), str(exc)
    return f.breakpoints, f.slopes, f.anchor, f._values


@pytest.mark.parametrize("slope", [0, 1, -3, 7 * 2**1100, -(2**1100) - 1])
@pytest.mark.parametrize("capacity", [0, 1, 5, 3 * 2**1100, None])
def test_linear_cost_equals_the_validating_constructors(slope, capacity):
    want = _outcome(_validated_linear_cost, slope, capacity)
    assert _outcome(linear_cost, slope, capacity) == want


@pytest.mark.parametrize(
    "slope, capacity, error",
    [
        (True, 2, NonConvexError),
        (1.5, 2, NonConvexError),
        (1, -3, MalformedDomainError),
        (1, 2.5, MalformedDomainError),
        (1, True, MalformedDomainError),
        (True, None, NonConvexError),
        (Fraction(2**1100, 3), 2, NonConvexError),
    ],
)
def test_linear_cost_rejects_what_the_validating_constructors_reject(slope, capacity, error):
    got = _outcome(linear_cost, slope, capacity)
    assert got[0] is error
    assert got == _outcome(_validated_linear_cost, slope, capacity)


def test_bad_arc_data_fails_at_the_boundary():
    with pytest.raises(NonConvexError, match="^slope True is not an integer$"):
        FlowNetwork.from_data({1: 0, 2: 0}, [(1, 1, 2, 2, True)])
    detail = "^arc 2 capacity -3 is not a non-negative integer$"
    with pytest.raises(NegativeCapacityError, match=detail):
        parse_dimacs(T1_DIMACS.replace("a 2 3 0 2 1", "a 2 3 0 -3 1"))
    d = network_to_json_dict(t1_network())
    d["arcs"][1]["capacity"] = -3
    with pytest.raises(NegativeCapacityError, match=detail):
        network_from_json_dict(d)


def test_derived_networks_equal_their_validated_construction(monkeypatch):
    # every network built on the trusted path, while the engine runs its
    # corpus and approx runs criterion-8-shaped instances, must be what the
    # validating constructor builds from the same data
    made = []
    build = FlowNetwork._trusted.__func__

    def spy(cls, demands, arcs):
        net = build(cls, demands, arcs)
        made.append((sys._getframe(1).f_code.co_name, net))
        return net

    monkeypatch.setattr(FlowNetwork, "_trusted", classmethod(spy))
    for _, net in _differential_cases():
        bp_engine.run(net, rounds=3)
    for seed in range(24):
        k = seed % 3
        net = random_network(
            seed, n=4 + k, m=5 + k, c_max=1 + seed % 5, cap_max=1 + seed % 3, ensure_unique=True
        )
        approx_scheme(net, ("1/10", "1/2")[seed % 2], seed)
    assert {who for who, _ in made} == {
        "preprocess_degree", "cap_negative_uncapacitated", "perturb_costs", "fix_arc"
    }
    for _, net in made:
        twin = FlowNetwork(net.demands, net.arcs)
        assert net == twin and hash(net) == hash(twin)
        assert list(net.demands.items()) == list(twin.demands.items())
        assert list(net.arc_by_id.items()) == list(twin.arc_by_id.items())
        assert list(net.incident.items()) == list(twin.incident.items())
        assert net.c_max == twin.c_max
        # and what the index holds, from its definition
        assert net.c_max == max((abs(s) for a in net.arcs for s in a.cost.slopes), default=0)
        assert net.incident == {
            v: tuple((a, a.delta(v)) for a in net.arcs if v in (a.tail, a.head))
            for v in net.demands
        }
