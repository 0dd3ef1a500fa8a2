import json
from fractions import Fraction

import pytest

from flowbp import bp_engine, cli
from flowbp.bp_engine import (
    MessageState,
    _Rounds,
    belief,
    check_message_invariants,
    detect_uniqueness,
    estimate,
    gap_test,
    init_messages,
    run,
    update_round,
)
from flowbp.errors import (
    EmptyDomainError,
    InfeasibleInstanceError,
    UnboundedError,
    UnboundedObjectiveError,
)
from flowbp.flowmodel import (
    FlowNetwork,
    check_solvable,
    iteration_bound,
    network_to_json_dict,
    preprocess_degree,
)
from flowbp.fpras import _seed_seq, perturb_costs
from flowbp.gen import hard_instance, random_network
from flowbp.oracles import build_tree, exact_solve, is_unique_optimum, tree_solve
from flowbp.pwl import NEG_INF, POS_INF, PwlConvex, scaled_interpolation
from helpers import (
    HEAVY_APPROX_CALLS,
    approx_batch_draw,
    leave_one_out_tilts,
    literal_gap_test,
    literal_tables,
    pointwise_diff,
    same_modulo_constants,
    t1_network,
    tied_network,
    uncapacitated_network,
)


def test_init_messages_t1():
    net = t1_network()
    state = init_messages(net)
    assert state.round == 0
    assert len(state.messages) == 6
    assert all(m == PwlConvex.constant(0) for m in state.messages.values())


def test_init_messages_parallel_arcs():
    net = FlowNetwork.from_data(
        {1: 1, 2: -1}, [(1, 1, 2, 1, 1), (2, 1, 2, 1, 2)]
    )
    state = init_messages(net)
    assert len(state.messages) == 4
    assert set(state.messages) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_update_round_one_t1():
    net = t1_network()
    s1 = update_round(net, init_messages(net))
    assert s1.round == 1
    # every round-1 message equals the arc's own cost restricted to [0, cap]
    assert s1.message(1, 1) == PwlConvex.linear(1, 0, 2)
    assert s1.message(2, 2) == PwlConvex.linear(1, 0, 2)
    assert s1.message(3, 1) == PwlConvex.linear(3, 0, 2)


def test_update_round_two_t1():
    net = t1_network()
    s2 = update_round(net, update_round(net, init_messages(net)))
    assert s2.message(1, 1) == PwlConvex.linear(2, 0, 2)


def _literal_round(net, state):
    # every message from scratch: a signed k-way convolution of the far
    # endpoint's other messages, re-parametrized to the arc's flow, plus
    # the arc cost; keys in arc order, toward the tail first
    prev = state.messages
    table = {}
    for a in net.arcs:
        for to_end, far in ((a.tail, a.head), (a.head, a.tail)):
            others = [(e, d) for e, d in net.incident[far] if e.id != a.id]
            combined = scaled_interpolation(
                [prev[(e.id, far)] for e, _ in others], [d for _, d in others]
            )
            table[(a.id, to_end)] = a.cost.add(
                combined.compose_affine(-a.delta(far), net.demands[far])
            )
    return MessageState(state.round + 1, table)


def _differential_cases():
    for seed in range(6):
        # n=8, m=40: parallel arcs and nodes of degree 10 and more
        net, _ = preprocess_degree(random_network(seed + 7000, n=8, m=40, c_max=5, cap_max=3))
        yield f"random-{seed}", net
    yield "multi-piece", preprocess_degree(
        random_network(7100, n=6, m=18, c_max=6, cap_max=4, cost_pieces=3)
    )[0]
    yield "hard-6", hard_instance(6)
    base = random_network(7200, n=6, m=14, c_max=4, cap_max=3)
    yield "perturbed", preprocess_degree(perturb_costs(base, "1/1000000000000000", 3).network)[0]
    # uncapacitated arcs: messages with infinite domains; with negative
    # costs, nodes whose leave-one-out outputs have slope ranges nearest 0
    # at different tilts
    yield "uncapacitated", preprocess_degree(uncapacitated_network(7306, share=0.5, discount=0))[0]
    yield "uncapacitated-negative-3", preprocess_degree(uncapacitated_network(7303, share=0.4, discount=2))[0]
    yield "uncapacitated-negative-6", preprocess_degree(uncapacitated_network(7306, share=0.4, discount=2))[0]


def _tilt_counts(net, state):
    """Per node, the number of distinct points nearest 0 of its
    leave-one-out outputs' slope ranges."""
    prev = state.messages
    return [
        len(set(leave_one_out_tilts(
            [prev[(e.id, w)] if d == 1 else prev[(e.id, w)].compose_affine(-1, 0) for e, d in inc]
        )))
        for w, inc in net.incident.items()
    ]


def test_differential_cases_cover_hard_shapes():
    cases = dict(_differential_cases())
    random_nets = [net for name, net in cases.items() if name.startswith("random")]
    assert all(max(map(len, net.incident.values())) >= 10 for net in random_nets)
    assert all(
        len({(a.tail, a.head) for a in net.arcs}) < net.m for net in random_nets
    )  # parallel arcs
    assert cases["perturbed"].c_max > 2**64  # slopes beyond machine words
    multi_tilt = 0
    for name, net in cases.items():
        if not name.startswith("uncapacitated"):
            continue
        check_solvable(net)
        assert any(a.capacity is None for a in net.arcs)
        state, infinite = init_messages(net), 0
        for _ in range(8):
            multi_tilt += sum(c > 1 for c in _tilt_counts(net, state))
            state = update_round(net, state)
            infinite += sum(NEG_INF in m.domain or POS_INF in m.domain for m in state.messages.values())
        assert infinite > 0, name
    assert multi_tilt > 0


@pytest.mark.parametrize("name,net", list(_differential_cases()))
def test_update_round_equals_literal_round(name, net):
    # the per-node leave-one-out kernel must give the very same table,
    # entry for entry and in the same key order, as convolving each
    # message's sources from scratch
    state = lit = init_messages(net)
    for _ in range(8):
        state = update_round(net, state)
        lit = _literal_round(net, lit)
        assert list(state.messages) == list(lit.messages)
        for key, m in lit.messages.items():
            assert state.messages[key] == m, (name, state.round, key)


def test_driver_round_one_is_update_round_from_zero():
    # every round-0 message is the zero function, so the driver starts
    # from the arc costs; the table must be exactly the executed round 1
    nets = [net for _, net in _differential_cases()]
    nets += [preprocess_degree(net)[0] for _, net in _run_cases()]
    for net in nets:
        seen = []
        _Rounds(net, on_round=lambda _, state: seen.append(state)).advance(1)
        (first,) = seen
        want = update_round(net, init_messages(net))
        assert first.round == want.round == 1
        assert list(first.messages.items()) == list(want.messages.items())
        assert [m._values for m in first.messages.values()] == [
            m._values for m in want.messages.values()
        ]


def test_update_round_builds_one_object_per_message(monkeypatch):
    trusted, init = PwlConvex._trusted.__func__, PwlConvex.__init__
    built = []

    def count_trusted(cls, *args):
        built.append(args)
        return trusted(cls, *args)

    def count_init(self, *args):
        built.append(args)
        init(self, *args)

    for seed in (0, 1):
        net = random_network(seed, n=30, m=200)
        state = update_round(net, update_round(net, init_messages(net)))
        assert max(m.piece_count for m in state.messages.values()) > 1
        monkeypatch.setattr(PwlConvex, "_trusted", classmethod(count_trusted))
        monkeypatch.setattr(PwlConvex, "__init__", count_init)
        built.clear()
        update_round(net, state)
        monkeypatch.undo()
        assert len(built) == 2 * net.m



def test_belief_is_the_validated_difference_of_the_message_sum():
    # one trusted merge of m_tail + m_head - cost: the same function,
    # anchor and values as the validated difference of the messages' sum
    cases = [*_differential_cases(), *((name, net) for name, net, _ in _drift_cases())]
    for name, net in cases:
        tables = literal_tables(net, 8)
        for a in net.arcs:
            with pytest.raises(EmptyDomainError):  # round 0: zero messages on R
                belief(net, tables[0], a.id)
        for state in tables[1:]:
            for a in net.arcs:
                m_tail, m_head = state.messages[(a.id, a.tail)], state.messages[(a.id, a.head)]
                got = belief(net, state, a.id)
                want = pointwise_diff(m_tail.add(m_head), a.cost)
                assert got == want and got._values == want._values, (name, state.round, a.id)

def test_belief_round1_t1():
    net = t1_network()
    s1 = update_round(net, init_messages(net))
    b = belief(net, s1, 1)
    assert b == PwlConvex.linear(1, 0, 2)
    # when both messages equal the arc cost, the belief is the arc cost
    for aid in (1, 2, 3):
        assert belief(net, s1, aid) == net.arc_by_id[aid].cost


def test_belief_at_uniqueness_bound_t1():
    net = t1_network()
    state = init_messages(net)
    for _ in range(iteration_bound(net, "uniqueness")):
        state = update_round(net, state)
    assert belief(net, state, 3).argmin() == 0


def test_estimate_t1_converged():
    net = t1_network()
    state = init_messages(net)
    for _ in range(iteration_bound(net, "convergence")):
        state = update_round(net, state)
    est = estimate(net, state)
    assert est.flows == {1: 1, 2: 1, 3: 0}
    assert est.objective == 2
    assert est.feasible
    assert est.ties == ()


def test_run_auto_t1():
    out = run(t1_network())
    assert out.rounds_used == 12
    assert out.assignment.flows == {1: 1, 2: 1, 3: 0}
    assert out.assignment.objective == 2


def test_run_merges_forced_chain():
    net = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 2, 1)])
    out = run(net)
    assert out.rounds_used == 0
    assert out.assignment.flows == {1: 1}
    assert out.assignment.feasible


def test_run_matches_oracle_on_unique_instances():
    hits = 0
    for seed in range(25):
        net = random_network(seed + 500, n=5, m=7, c_max=4, cap_max=3, ensure_unique=True)
        out = run(net)
        ref = exact_solve(net)
        assert out.assignment.flows == ref.flows, seed
        assert out.assignment.objective == ref.objective
        hits += 1
    assert hits == 25


def test_message_invariants_every_round():
    net = random_network(123, n=5, m=8, c_max=3, cap_max=3, ensure_unique=True)
    run(net, on_round=check_message_invariants)


def test_message_domains_stay_within_bounds():
    net = t1_network()
    state = update_round(net, init_messages(net))
    for (aid, _), m in state.messages.items():
        cap = net.arc_by_id[aid].capacity
        assert m.breakpoints[0] >= 0 and m.breakpoints[-1] <= cap


def test_estimate_flags_ties():
    # a free zero-cost circulation: every belief is flat on [0, cap]
    net = FlowNetwork.from_data({1: 0, 2: 0}, [(1, 1, 2, 2, 0), (2, 2, 1, 2, 0)])
    state = update_round(net, init_messages(net))
    est = estimate(net, state)
    assert est.flows == {1: 0, 2: 0}  # smallest minimizers
    assert set(est.ties) == {1, 2}


def test_estimate_ties_are_the_arcs_flat_one_unit_up():
    # ties are read from the slope right of each minimizer; by definition
    # they are the arcs whose belief one unit up equals its minimum
    cases = [*_differential_cases(), *((name, net) for name, net, _ in _drift_cases())]
    flat = 0
    for name, net in cases:
        for state in literal_tables(net, 6)[1:]:
            try:
                est = estimate(net, state)
            except UnboundedError:  # uncapped negative-cost uncapacitated arcs
                continue
            beliefs = {a.id: belief(net, state, a.id) for a in net.arcs}
            want = tuple(
                aid for aid, z in est.flows.items()
                if beliefs[aid].evaluate(z + 1) == beliefs[aid].evaluate(z)
            )
            assert est.ties == want, (name, state.round)
            flat += len(want)
    assert flat >= 10


def test_detect_uniqueness_t1():
    res = detect_uniqueness(t1_network())
    assert res.unique
    assert res.assignment.flows == {1: 1, 2: 1, 3: 0}
    assert res.rounds_used == 30


def test_detect_uniqueness_tie():
    res = detect_uniqueness(t1_network(c3=2))
    assert not res.unique
    assert res.assignment is None


def test_detect_uniqueness_near_tie_family():
    d = 5
    net = t1_network(c3=2 * d - 1, d=d)
    res = detect_uniqueness(net)
    assert res.unique
    assert res.assignment.flows == exact_solve(net).flows


def test_detect_uniqueness_fast_equals_slow():
    # the orbit fast-forward must agree with literally executing every
    # round of the uniqueness budget and gap-testing the final beliefs
    for seed in range(8):
        net = random_network(seed + 40, n=4, m=5, c_max=2, cap_max=2)
        fast = detect_uniqueness(net)
        reduced, fixed = preprocess_degree(net)
        total = iteration_bound(reduced, "uniqueness")
        state = literal_tables(reduced, total)[-1]
        unique, flows, _ = literal_gap_test(reduced, state, reduced.n * reduced.c_max)
        assert fast.unique == unique
        if unique:
            assert fast.assignment.flows == {**fixed, **flows}
        assert fast.executed_rounds <= total


def test_detect_uniqueness_empty_after_preprocessing():
    net = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 2, 1)])
    res = detect_uniqueness(net)
    assert res.unique
    assert res.assignment.flows == {1: 1}


def test_fast_beliefs_match_literal_run():
    # the periodic-orbit shortcut must reproduce round-N beliefs exactly
    # up to one additive constant per arc, and the gap test read off the
    # messages must equal the one read off the literal beliefs
    for net, target in [
        (t1_network(), 30),
        (t1_network(c3=2), 25),
        (hard_instance(6), 40),
        (random_network(4, n=4, m=6, c_max=3, cap_max=2), 35),
    ]:
        driver = _Rounds(net)
        fast = driver.advance(target)
        assert driver.executed < target
        lit = literal_tables(net, target)[-1]
        for a in net.arcs:
            assert same_modulo_constants(belief(net, fast, a.id), belief(net, lit, a.id))
        for threshold in (0, 1, net.n * net.c_max):
            assert gap_test(net, fast, threshold) == literal_gap_test(net, lit, threshold)


def test_beliefs_match_computation_tree():
    # the depth-limited tree optimum with pinned root flow equals the belief
    for seed in range(12):
        net = random_network(seed + 2000, n=4, m=5, c_max=3, cap_max=2)
        reduced, _ = preprocess_degree(net)
        if reduced.m == 0:
            continue
        state = init_messages(reduced)
        for depth in (1, 2, 3):
            state = update_round(reduced, state)
            for a in reduced.arcs:
                b = belief(reduced, state, a.id)
                tree = build_tree(reduced, a.id, depth)
                for z in range(a.capacity + 1):
                    assert b.evaluate(z) == tree_solve(tree, z), (seed, a.id, depth, z)


def test_oscillation_on_near_tie_instance():
    # the near-tie family needs a number of rounds growing with d before
    # the path-arc estimate settles
    settle_rounds = []
    for d in (12, 24, 48):
        net = hard_instance(d)
        state = init_messages(net)
        history = []
        for _ in range(3 * d):
            state = update_round(net, state)
            history.append(belief(net, state, 1).argmin())
        final = history[-1]
        last_change = max(i for i, v in enumerate(history) if v != final) + 2
        settle_rounds.append(last_change)
        # still oscillating throughout the early window of rounds
        window = history[: (2 * d // 3 - 1) // 2]
        assert len(set(window)) > 1
    assert settle_rounds[0] < settle_rounds[1] < settle_rounds[2]
    growth = (settle_rounds[-1] - settle_rounds[0]) / (48 - 12)
    assert growth >= 0.2


def test_round_piece_budget():
    # total pieces processed per round stay within the slope-bound budget
    for seed in (21, 22):
        net = random_network(seed + 900, n=5, m=8, c_max=3, cap_max=3)
        out = run(net)
        reduced, _ = preprocess_degree(net)
        m, c = reduced.m, reduced.c_max
        for t, total in enumerate(out.piece_totals, start=1):
            assert total <= 2 * m * (2 * t * c + 1), (seed, t, total)


def test_patience_early_exit_preserves_answer():
    net = t1_network()
    out = run(net, patience=3)
    assert out.executed_rounds < out.rounds_used
    assert out.assignment.flows == exact_solve(net).flows


def _run_cases():
    for seed in range(8):
        # unique and tied optima, linear and three-piece costs
        yield f"random-{seed}", random_network(
            seed + 3000, n=4 + seed % 4, m=7 + seed % 5, c_max=2 + seed % 3, cap_max=3,
            cost_pieces=1 if seed % 3 else 3, ensure_unique=seed % 2 == 0,
        )
    yield "tied-t1", t1_network(c3=2)
    yield "hard-6", hard_instance(6)
    yield "hard-12", hard_instance(12)


def test_run_fast_forward_equals_literal_execution():
    # a no-op hook forces every round to execute; the fast-forwarded run
    # must report the same flows, ties, objective and per-round piece totals
    skipped = 0
    for name, net in _run_cases():
        for rounds in (None, 7, 60):
            fast = run(net, rounds=rounds)
            lit = run(net, rounds=rounds, on_round=lambda *_: None)
            assert fast.assignment.flows == lit.assignment.flows, (name, rounds)
            assert fast.assignment.ties == lit.assignment.ties, (name, rounds)
            assert fast.assignment.objective == lit.assignment.objective, (name, rounds)
            assert fast.piece_totals == lit.piece_totals, (name, rounds)
            assert fast.rounds_used == lit.rounds_used == lit.executed_rounds
            assert fast.executed_rounds <= fast.rounds_used
            skipped += fast.executed_rounds < fast.rounds_used
    assert skipped >= 10


def test_run_patience_equals_literal_patience_loop():
    for name, net in _run_cases():
        out = run(net, patience=3)
        reduced, fixed = preprocess_degree(net)
        state = init_messages(reduced)
        last_flows, streak, totals = None, 0, []
        for _ in range(iteration_bound(reduced, "convergence")):
            state = update_round(reduced, state)
            totals.append(sum(m.piece_count for m in state.messages.values()))
            flows = {a.id: belief(reduced, state, a.id).argmin() for a in reduced.arcs}
            if flows == last_flows:
                streak += 1
                if streak >= 3:
                    break
            else:
                last_flows, streak = flows, 0
        est = estimate(reduced, state)
        assert out.assignment.flows == {**fixed, **est.flows}, name
        assert out.assignment.ties == est.ties, name
        assert out.piece_totals == totals, name
        assert out.executed_rounds <= len(totals)


def test_one_driver_answers_increasing_targets_like_fresh_drivers():
    targets = (1, 3, 10, 11, 40, 41, 41, 97, 301)
    orbits = 0
    for name, net in _run_cases():
        reduced, _ = preprocess_degree(net)
        driver = _Rounds(reduced)
        for t in targets:
            shared = driver.advance(t)
            fresh = _Rounds(reduced).advance(t)
            assert same_modulo_constants(shared, fresh)
            assert gap_test(reduced, shared, 0) == gap_test(reduced, fresh, 0)
            assert driver.executed <= t
        orbits += driver.orbit is not None
        lit = _Rounds(reduced, on_round=lambda *_: None)
        lit.advance(120)
        for r in range(1, 121):
            assert driver.piece_total(r) == lit.piece_total(r), (name, r)
    assert orbits >= 5  # tied and hard instances reach an orbit early


def test_negative_cost_uncapacitated_arcs_are_solved_under_a_flow_bound_cap():
    # gate-passing instances with a negative-cost uncapacitated arc: capped
    # at the flow bound, every message stays finite, run is exact on the
    # unique ones and detect_uniqueness agrees with the residual-cycle test
    cases = 0
    for seed in range(7300, 7360):
        net = uncapacitated_network(seed, share=0.4, discount=2)
        try:
            check_solvable(net)
        except (InfeasibleInstanceError, UnboundedObjectiveError):
            continue
        if not any(a.capacity is None and a.cost.slopes[-1] < 0 for a in net.arcs):
            continue
        cases += 1
        opt = exact_solve(net)
        unique = is_unique_optimum(net, opt.flows)
        detected = detect_uniqueness(net)
        assert detected.unique == unique, seed
        if unique:
            assert run(net).assignment.flows == opt.flows, seed
            assert detected.assignment.flows == opt.flows, seed
    assert cases == 43


@pytest.mark.parametrize("supply, cap", [(1, 1), (2, 1), (3, 2)])
def test_flow_bound_cap_leaves_room_for_a_tie(supply, cap):
    # arc 1 (cost -1) and arc 3 (cost 1) close a zero-cost uncapacitated
    # cycle, so every optimum puts supply + cap or more on arc 1; the cap at
    # the flow bound supply + cap + 1 must keep two of them, a tie
    net = FlowNetwork.from_data(
        {1: supply, 2: -supply}, [(1, 1, 2, None, -1), (2, 2, 1, cap, 0), (3, 2, 1, None, 1)]
    )
    check_solvable(net)
    assert not is_unique_optimum(net, exact_solve(net).flows)
    assert not detect_uniqueness(net).unique


def test_periods_kept_counts_periods_until_a_slope_gap_closes():
    # node 0 has three incoming messages: along arcs 1 and 2 (entering, so
    # their slopes count negated) and arc 3 (leaving); one piece each
    net = FlowNetwork.from_data(
        {0: 0, 1: 0, 2: 0, 3: 0}, [(1, 1, 0, 9, 0), (2, 2, 0, 9, 0), (3, 0, 3, 9, 0)]
    )

    def table(s1, s2, s3):
        return MessageState(0, {
            (aid, 0): PwlConvex.linear(s, 0, 9) for aid, s in ((1, s1), (2, s2), (3, s3))
        })

    def kept(old, new):
        return bp_engine._periods_kept(net, table(*old), table(*new))

    # signed slopes -2 < 0 < 5: both gaps grow
    assert kept((0, 2, 5), (0, 3, 7)) == POS_INF
    # the gap 5 shrinks by 2 a period: positive for k < ceil(5 / 2) = 3
    assert kept((0, 2, 5), (0, 2, 3)) == 3
    # the gap 2 shrinks by 1 and the gap 5 by 1: the first closes first
    assert kept((0, 2, 5), (0, 1, 4)) == 2
    # neighbours that meet or swap within the period, or a tie that splits
    assert kept((0, 2, 5), (0, 2, 0)) == 0
    assert kept((0, 2, 5), (0, 2, -1)) == 0
    assert kept((0, 0, 5), (1, 0, 5)) == 0
    assert kept((0, 0, 5), (1, 1, 6)) == POS_INF  # a tie that holds


def _first_draw_of_slow_approx():
    # the first draw of approx_scheme(random_network(1, n=10, m=20), 1/2,
    # seed=1), which once ran all 16,384 probe rounds
    reduced = preprocess_degree(random_network(1, n=10, m=20))[0]
    stream = _seed_seq(_seed_seq(1, (0,)), (0,))
    return preprocess_degree(perturb_costs(reduced, Fraction(1, 2), stream).network)[0]


def _drift_cases():
    for i in HEAVY_APPROX_CALLS:
        yield f"approx-2-{i}", preprocess_degree(approx_batch_draw(2, i))[0], 80
    for seed in (0, 3, 6, 10, 18, 21):
        yield f"random-n6-{seed}", preprocess_degree(random_network(seed, n=6, m=10))[0], 80
    for seed in (7304, 7316, 7321, 7337, 7339):
        yield f"uncapacitated-{seed}", preprocess_degree(
            uncapacitated_network(seed, share=0.4, discount=0))[0], 80
    yield "slow-approx-draw", _first_draw_of_slow_approx(), 400
    # orbits with no end: each period tilts every message once
    yield "hard-6", preprocess_degree(hard_instance(6))[0], 80
    yield "tied-n4", preprocess_degree(tied_network())[0], 80


def test_drift_orbits_equal_literal_tables_at_every_round():
    # asked for every round in turn, the driver builds each round of every
    # certified window from the stepped table of its phase: each table must
    # be the literal one up to one constant per message, and the gap test
    # read off its messages must equal the one read off the literal
    # beliefs, as must the piece totals
    for name, net, rounds in _drift_cases():
        tables = literal_tables(net, rounds)
        driver = _Rounds(net)
        threshold = net.n * net.c_max
        for r in range(1, rounds + 1):
            fast = driver.advance(r)
            lit = tables[r]
            assert same_modulo_constants(fast, lit), (name, r)
            assert gap_test(net, fast, threshold) == literal_gap_test(net, lit, threshold), (name, r)
            assert driver.piece_total(r) == sum(m.piece_count for m in lit.messages.values())
        # each ends on a certified orbit, and no round inside one is stepped:
        # asking for every round executes as many as asking for the last
        assert driver.orbit is not None, name
        assert driver.executed < rounds, name
        once = _Rounds(net)
        once.advance(rounds)
        assert driver.executed == once.executed, name
        # so does a run whose patience never fires, with the literal answer
        patient = run(net, rounds=rounds, patience=10**9)
        literal = run(net, rounds=rounds, on_round=lambda *_: None)
        assert patient.assignment.flows == literal.assignment.flows, name
        assert patient.assignment.ties == literal.assignment.ties, name
        assert patient.piece_totals == literal.piece_totals, name


def test_drift_orbit_jumps_to_its_certified_end_on_the_slow_approx_draw():
    # K = 56 periods of 6 from round 9: exact through round 345, where a
    # slope order changes; the driver steps past it and certifies again
    net = _first_draw_of_slow_approx()
    driver = _Rounds(net)
    driver.advance(1024)
    assert driver._windows[0] == (9, 6, 345)
    assert len(driver._windows) >= 3 and driver._windows[-1][2] == POS_INF
    assert driver.executed <= 60
    # asked for every round in turn, the driver builds each one inside an
    # orbit: every table is the literal one up to constants
    driver, lit = _Rounds(net), init_messages(net)
    for r in range(1, 1025):
        lit = update_round(net, lit)
        driver.advance(r)
        assert same_modulo_constants(driver.state, lit), r
    assert driver._windows[0] == (9, 6, 345)


def test_drift_orbit_whose_one_round_drifts_never_repeat_is_certified():
    # the first draw of approx_scheme(random_network(2, n=4, m=6,
    # ensure_multiple=True), 1/2, seed=2): the breakpoints hold from round
    # 11 on and the drift over 3 rounds repeats, but each one-round drift
    # moves by a fixed amount every period, so no two of them are equal
    reduced = preprocess_degree(random_network(2, n=4, m=6, ensure_multiple=True))[0]
    stream = _seed_seq(_seed_seq(2, (0,)), (0,))
    net = preprocess_degree(perturb_costs(reduced, Fraction(1, 2), stream).network)[0]
    tables = literal_tables(net, 200)
    driver = _Rounds(net)
    for r in range(1, 201):
        driver.advance(r)
        assert same_modulo_constants(driver.state, tables[r]), r
    assert driver._windows[0] == (11, 3, 1163)
    driver = _Rounds(net)
    driver.advance(4096)
    assert driver.executed <= 60


def test_search_window_never_outgrows_the_rounds_stepped_since_it_started():
    restarts = 0

    class Watched(_Rounds):
        def _search_from(self):
            super()._search_from()
            self.restarted = self.state.round

        def _search(self):
            super()._search()
            stepped = self.state.round - self.restarted
            assert len(self._tables) == min(stepped, bp_engine._WINDOW), name

    for name, net, rounds in _drift_cases():
        driver = Watched(net)
        for r in range(1, rounds + 1):
            driver.advance(r)
        restarts += len(driver._windows) - 1
    assert restarts >= 1  # the slow draw leaves its first drift orbit at round 345

    class Blind(Watched):  # certifies nothing, so the window fills up and slides
        def _drifting(self, q):
            return False

    name = "blind"
    driver = Blind(_first_draw_of_slow_approx())
    driver.advance(3 * bp_engine._WINDOW)
    assert driver.orbit is None and len(driver._tables) == bp_engine._WINDOW


@pytest.mark.parametrize("d", [6, 12, 30])
def test_near_tie_family_certifies_its_orbit_in_nine_rounds(d):
    # from round 3 on, every 3 rounds tilt each message by a fixed amount,
    # an orbit with no end: it is certified at round 9, the first round
    # whose window holds two periods after round 3
    net = hard_instance(d)
    assert run(net).executed_rounds == 9
    assert run(net, patience=10**9).executed_rounds == 9
    assert detect_uniqueness(net).executed_rounds == 9


# rounds executed on random_network(seed, n=20, m=40), seeds 0..7, by the
# earlier search (a lone checkpoint, a forward candidate and a drift clock):
# the window search must not execute more on any seed
_N20_RUN_ROUNDS = (24, 25, 26, 32, 29, 60, 13, 31)
_N20_UNIQUENESS_ROUNDS = (24, 25, 26, 32, 29, 60, 13, 29)


@pytest.mark.parametrize("seed", range(8))
def test_n20_long_runs_execute_no_more_rounds_than_the_earlier_search(seed):
    net = random_network(seed, n=20, m=40)
    assert run(net).executed_rounds <= _N20_RUN_ROUNDS[seed]
    assert detect_uniqueness(net).executed_rounds <= _N20_UNIQUENESS_ROUNDS[seed]
    # asked for every round in turn (a patience that never fires), the
    # driver steps no round inside an orbit
    assert run(net, patience=10**9).executed_rounds == run(net).executed_rounds


@pytest.mark.parametrize("seed", [3, 5])
def test_unique_n20_instances_run_in_under_100_rounds(monkeypatch, capsys, tmp_path, seed):
    # an orbit with no end is certified by round ~44, and both reports
    # equal the literal run's apart from executed_rounds and wall_time_s
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_json_dict(random_network(seed, n=20, m=40))))

    def reports():
        out = {}
        for argv in (["solve", "--iters", "auto"], ["check-unique"]):
            assert cli.main([*argv, "--input", str(path)]) == cli.EXIT_OK
            out[argv[0]] = json.loads(capsys.readouterr().out)
        return out

    fast = reports()
    for report in fast.values():
        assert report["executed_rounds"] < 100 < report["rounds_used"]

    class Literal(_Rounds):
        def __init__(self, reduced, on_round=None):
            super().__init__(reduced, on_round or (lambda *_: None))

    monkeypatch.setattr(bp_engine, "_Rounds", Literal)
    lit = reports()
    for mode, report in fast.items():
        assert lit[mode]["executed_rounds"] == lit[mode]["rounds_used"]
        for key in ("executed_rounds", "wall_time_s"):
            del report[key], lit[mode][key]
        assert report == lit[mode], mode


@pytest.mark.parametrize("rounds", [0, -5])
def test_run_rejects_nonpositive_rounds(rounds):
    with pytest.raises(ValueError, match="rounds must be at least 1"):
        run(t1_network(), rounds=rounds)
    with pytest.raises(ValueError, match="patience must be at least 1"):
        run(t1_network(), patience=rounds)
