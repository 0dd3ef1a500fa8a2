import math
import random
from fractions import Fraction

import pytest
from numpy.random import Generator, Philox, SeedSequence

from flowbp import fpras
from flowbp.errors import (
    RestartBudgetExceededError,
    ResultCheckError,
    ValueOutOfRangeError,
    ZeroCostInstanceError,
)
from flowbp.bp_engine import init_messages, update_round
from flowbp.flowmodel import (
    FlowNetwork,
    check_feasible,
    min_cycle_cost,
    preprocess_degree,
)
from flowbp.fpras import (
    PROBE_CAP,
    PerturbedInstance,
    _decide_perturbed,
    _oracle_gap,
    _philox_key,
    _philox_words,
    _seed_seq,
    approx_scheme,
    aprxmt,
    fix_arc,
    perturb_costs,
)
from flowbp.gen import random_network
from flowbp.oracles import enumerate_integral_flows, exact_solve, is_unique_optimum
from helpers import (
    HEAVY_APPROX_CALLS,
    approx_batch_draw,
    literal_gap_test,
    literal_tables,
    t1_network,
    tied_network,
)


def test_perturb_t1_formula():
    net = t1_network()
    pert = perturb_costs(net, Fraction(1, 2), seed=5)
    assert pert.granularity == Fraction(1, 24)
    # scaled floor for cost 1 is 24, times 4m=12, plus noise in 1..12
    c1 = pert.network.linear_slope(pert.network.arc_by_id[1])
    assert c1 == 288 + pert.noise[1]
    assert 1 <= pert.noise[1] <= 12
    c3 = pert.network.linear_slope(pert.network.arc_by_id[3])
    assert c3 == 12 * 72 + pert.noise[3]


def test_perturb_deterministic():
    net = t1_network()
    a = perturb_costs(net, Fraction(1, 2), seed=123)
    b = perturb_costs(net, Fraction(1, 2), seed=123)
    assert a.network == b.network and a.noise == b.noise
    c = perturb_costs(net, Fraction(1, 2), seed=124)
    assert c.noise != a.noise  # overwhelmingly likely, fixed seeds


def test_perturb_integer_grid_equals_fraction_formula():
    # perturb_costs computes floor(s / t) as one integer floor division;
    # each perturbed cost must equal 4m * floor(s / t) + noise with t the
    # Fraction c_max * eps / (4mn), over seeded costs, epsilons and shapes
    rng = random.Random(8100)
    for seed in range(120):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, 3 * n)
        c_max = rng.choice([1, 2, 5, 17, 1000, 10**12 + 39])
        eps = Fraction(rng.randint(1, 40), 41) if seed % 2 else Fraction(1, rng.randint(2, 10**6))
        net = random_network(seed + 8100, n=n, m=m, c_max=c_max, cap_max=3)
        if net.c_max == 0:
            continue
        pert = perturb_costs(net, eps, seed=seed)
        t = Fraction(net.c_max) * eps / (4 * m * n)
        assert pert.granularity == t and isinstance(pert.granularity, Fraction)
        for a in net.arcs:
            want = 4 * m * math.floor(Fraction(net.linear_slope(a)) / t) + pert.noise[a.id]
            assert pert.network.linear_slope(pert.network.arc_by_id[a.id]) == want, (seed, a.id)


def test_perturb_scaling_dominates():
    net = t1_network()
    pert = perturb_costs(net, Fraction(1, 2), seed=9)
    t = pert.granularity
    assert t < 1
    for a in net.arcs:
        c = net.linear_slope(a)
        assert c / t >= c  # floor(c/t) >= c when t < 1


def test_perturb_bounds_random():
    for seed in range(20):
        net = random_network(seed + 300, n=4, m=6, c_max=5, cap_max=3)
        pert = perturb_costs(net, Fraction(1, 10), seed=seed)
        m = net.m
        for a in pert.network.arcs:
            cbar = pert.network.linear_slope(a)
            orig = net.linear_slope(net.arc_by_id[a.id])
            assert cbar >= 1
            assert abs(Fraction(cbar) - Fraction(4 * m * orig) / pert.granularity) <= 4 * m


def test_perturb_rejects_bad_inputs():
    zero = FlowNetwork.from_data({1: 1, 2: -1}, [(1, 1, 2, 2, 0), (2, 1, 2, 2, 0)])
    with pytest.raises(ZeroCostInstanceError):
        perturb_costs(zero, Fraction(1, 2), seed=1)
    with pytest.raises(ValueError):
        perturb_costs(t1_network(), Fraction(3, 2), seed=1)
    with pytest.raises(ValueError):
        perturb_costs(t1_network(), Fraction(1, 1), seed=1)


def _draw_cases(count: int, seed: int = 8):
    """(entropy, spawn key, low, high, size): entropy 0, below 2**32,
    multi-word, longer than the 4-word pool, or a sequence; 0-3 spawn key
    entries, some at or above 2**32; sizes 1-3000 on the ``4m + 1`` range
    ``perturb_costs`` draws from; and ranges up to 2**32 whose threshold
    ``2**32 mod span`` is large enough to run the rejection loop."""
    rng = random.Random(seed)
    for k in range(count):
        entropy = rng.choice([
            0,
            rng.randrange(1 << 32),
            rng.randrange(1 << 32, 1 << 128),
            rng.randrange(1 << 128, 1 << 400),
            [rng.randrange(1 << 40) for _ in range(rng.randint(0, 6))],
        ])
        spawn_key = tuple(
            rng.choice([rng.randrange(4), rng.randrange(1 << 32, 1 << 70)])
            for _ in range(rng.randint(0, 3))
        )
        size = 3000 if k % 500 == 0 else rng.randint(1, 60)
        low = rng.choice([1, 0, -5, 1 << 40])
        span = rng.choice([
            4 * size,
            rng.randint(1, 1 << 32),
            (1 << 31) + rng.randint(1, 1 << 20),
            3 << 30,
            1 << 32,
            1,
        ])
        yield entropy, spawn_key, low, low + span, size


def test_draw_equals_numpy_philox():
    rejections = 0
    for entropy, spawn_key, low, high, size in _draw_cases(3000):
        ours = _seed_seq(entropy, spawn_key)
        ref = Generator(Philox(SeedSequence(entropy, spawn_key=spawn_key)))
        assert ours.integers(low, high, size) == ref.integers(low, high, size=size).tolist(), (
            entropy, spawn_key, low, high, size)
        span = high - low
        words = _philox_words(_philox_key(entropy, spawn_key))
        rejections += any(next(words) * span % (1 << 32) < (1 << 32) % span for _ in range(size))
    assert rejections >= 100


def test_seed_sequence_seeds_equal_int_seeds():
    net = random_network(5, n=5, m=8, c_max=4, cap_max=3)
    eps = Fraction(1, 2)
    for seed, spawn_key in [(0, ()), (7, (2,)), ((1 << 128) + 1, (3, 1 << 40))]:
        ss = SeedSequence(seed, spawn_key=spawn_key)
        ours = perturb_costs(net, eps, ss)
        assert ours == perturb_costs(net, eps, _seed_seq(seed, spawn_key))
        assert ours.seed_key == (seed, spawn_key)
        draws = Generator(Philox(ss)).integers(1, 4 * net.m + 1, size=net.m)
        assert [ours.noise[aid] for aid in sorted(ours.noise)] == draws.tolist()
    a = aprxmt(net, Fraction(1, 10), SeedSequence(11))
    b = aprxmt(net, Fraction(1, 10), 11)
    assert (a.assignment, a.perturbed, a.restarts) == (b.assignment, b.perturbed, b.restarts)


def test_seed_errors_match_numpy():
    for bad in (-1, [3, -1]):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            SeedSequence(bad)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            _seed_seq(bad)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _seed_seq(3, (-1,))
    with pytest.raises(TypeError):
        _seed_seq(1.5)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        approx_scheme(t1_network(), Fraction(1, 2), seed=-1)


def test_aprxmt_t1_preserves_gap():
    # the 4m-scaled separation between path and direct arc dwarfs the noise,
    # so every draw keeps (1, 1, 0) as the unique perturbed optimum
    res = aprxmt(t1_network(), Fraction(1, 2), seed=42)
    assert res.assignment.flows == {1: 1, 2: 1, 3: 0}
    assert res.restarts == 0
    assert res.assignment.feasible


def test_aprxmt_tied_instance_returns_one_of_the_optima():
    net = t1_network(c3=2)
    res = aprxmt(net, Fraction(1, 2), seed=3)
    assert res.assignment.flows in ({1: 1, 2: 1, 3: 0}, {1: 0, 2: 0, 3: 1})
    # the returned flow is optimal for the perturbed costs and unique there
    assert is_unique_optimum(res.perturbed.network, res.assignment.flows)


def test_aprxmt_restarts_on_unlucky_draw():
    # hunt a seed whose first noise draw ties the perturbed instance
    net = t1_network(c3=2)
    for seed in range(200):
        res = aprxmt(net, Fraction(1, 2), seed=seed)
        if res.restarts >= 1:
            return
    pytest.fail("no seed with a non-unique first draw in 200 tries")


def test_aprxmt_restart_budget(monkeypatch):
    net = t1_network(c3=2)
    monkeypatch.setattr(fpras, "RESTART_BUDGET", 0)
    with pytest.raises(RestartBudgetExceededError):
        # budget zero can never succeed
        aprxmt(net, Fraction(1, 2), seed=0)


def test_fix_arc_bookkeeping():
    net = t1_network()
    smaller = fix_arc(net, 3, 1)
    assert smaller.demands == {1: 0, 2: 0, 3: 0}
    assert sorted(smaller.arc_by_id) == [1, 2]
    reduced, forced = preprocess_degree(smaller)
    assert reduced.m == 0
    assert forced == {1: 0, 2: 0}


def test_fix_arc_zero_flow():
    net = t1_network()
    out = fix_arc(net, 3, 0)
    assert out.demands == net.demands
    assert sorted(out.arc_by_id) == [1, 2]


def test_fix_arc_value_out_of_range():
    with pytest.raises(ValueOutOfRangeError):
        fix_arc(t1_network(), 3, 3)


def test_approx_scheme_t1():
    res = approx_scheme(t1_network(), Fraction(1, 2), seed=7)
    assert res.assignment.feasible
    assert res.assignment.objective == 2  # fixes the expensive arc at 0
    assert res.assignment.objective <= Fraction(3, 2) * 2
    assert res.rounds[0].fixed_arc == 3


def test_approx_scheme_zero_costs():
    net = FlowNetwork.from_data(
        {1: 1, 2: 0, 3: -1},
        [(1, 1, 2, 2, 0), (2, 2, 3, 2, 0), (3, 1, 3, 2, 0)],
    )
    res = approx_scheme(net, Fraction(1, 2), seed=1)
    assert res.assignment.objective == 0
    assert res.assignment.feasible


def test_approx_scheme_rejects_infeasible_assembly(monkeypatch):
    # zero-cost leftovers take the min-cost-flow solver's flow; an
    # infeasible one must raise, not be reported
    net = FlowNetwork.from_data(
        {1: 1, 2: 0, 3: -1},
        [(1, 1, 2, 2, 0), (2, 2, 3, 2, 0), (3, 1, 3, 2, 0)],
    )
    monkeypatch.setattr(fpras, "min_cost_flow", lambda n: {a.id: 0 for a in n.arcs})
    with pytest.raises(ResultCheckError):
        approx_scheme(net, Fraction(1, 2), seed=1)


def test_aprxmt_rejects_infeasible_certificate(monkeypatch):
    monkeypatch.setattr(
        fpras, "_decide_perturbed", lambda pn: (True, {a.id: 0 for a in pn.arcs}, 0)
    )
    with pytest.raises(ResultCheckError):
        aprxmt(t1_network(), Fraction(1, 2), seed=1)


def test_oracle_gap_certifies_the_reference_flow(monkeypatch):
    pn = perturb_costs(t1_network(), Fraction(1, 2), seed=1).network
    flows, gap = _oracle_gap(pn)
    assert flows == {1: 1, 2: 1, 3: 0} and gap > 0
    for wrong in ({1: 0, 2: 0, 3: 0}, {1: 0, 2: 0, 3: 1}):  # infeasible, then not optimal
        monkeypatch.setattr(fpras, "min_cost_flow", lambda net, wrong=wrong: dict(wrong))
        with pytest.raises(ResultCheckError):
            _oracle_gap(pn)


def test_approx_scheme_reproducible():
    net = random_network(88, n=5, m=7, c_max=4, cap_max=3)
    a = approx_scheme(net, Fraction(1, 10), seed=99)
    b = approx_scheme(net, Fraction(1, 10), seed=99)
    assert a.assignment.flows == b.assignment.flows
    assert [r.to_json_dict() for r in a.rounds] == [r.to_json_dict() for r in b.rounds]


def test_approx_scheme_guarantee_small_batch():
    for seed in range(10):
        net = random_network(seed + 4000, n=5, m=6, c_max=4, cap_max=3)
        opt = exact_solve(net).objective
        for eps in (Fraction(1, 10), Fraction(1, 2)):
            res = approx_scheme(net, eps, seed=seed)
            assert res.assignment.feasible
            assert res.assignment.objective <= (1 + eps) * opt, (seed, eps)


def test_per_round_fixing_inequality():
    # fixing the chosen arc at the perturbed optimum's value costs at most
    # |x2 - x1| * n * t against the current instance's own optimum
    for seed in (11, 12):
        net = random_network(seed + 6000, n=5, m=6, c_max=4, cap_max=2)
        res = approx_scheme(net, Fraction(1, 2), seed=seed)
        for rnd in res.rounds:
            inst = rnd.instance
            x1 = exact_solve(inst)
            arc = inst.arc_by_id[rnd.fixed_arc]
            after = fix_arc(inst, rnd.fixed_arc, rnd.value)
            obj3 = exact_solve(after).objective + inst.linear_slope(arc) * rnd.value
            gap = obj3 - x1.objective
            allowance = abs(rnd.value - x1.flows[rnd.fixed_arc]) * inst.n * rnd.granularity
            assert gap <= allowance, (seed, rnd.index)


def _literal_decide(pn):
    # the probe loop the decision rule replaced, with every round executed:
    # gap test at rounds 8, 16, ..., PROBE_CAP, consulting the reference
    # on the first failing probe, then the exact tail
    reduced, fixed = preprocess_degree(pn)
    if reduced.m == 0:
        return True, dict(fixed), 0
    threshold = pn.n * pn.c_max
    oracle_gap = None
    oracle_flows = None
    for t in (1 << k for k in range(3, PROBE_CAP.bit_length())):
        state = literal_tables(reduced, t)[-1]
        cand_unique, flows, _ = literal_gap_test(reduced, state, threshold)
        if cand_unique:
            flows = {**fixed, **flows}
            if check_feasible(pn, flows):
                gap = min_cycle_cost(pn, flows)
                if gap > 0:
                    return True, flows, t
                if gap == 0:
                    return False, None, t
        else:
            if oracle_gap is None:
                oracle_flows, oracle_gap = _oracle_gap(pn)
            if oracle_gap == 0:
                return False, None, t
    if oracle_gap is None:
        oracle_flows, oracle_gap = _oracle_gap(pn)
    if oracle_gap > 0:
        return True, dict(oracle_flows), PROBE_CAP
    return False, None, PROBE_CAP


def _small_draw(seed: int, draw: int):
    net = random_network(seed + 6100, n=3, m=4 + seed % 3, c_max=1, cap_max=2)
    return perturb_costs(preprocess_degree(net)[0], Fraction(1, 2), seed=10 * seed + draw).network


def test_decide_perturbed_equals_literal_probe_loop():
    # the gap test at the horizon decides as the literal probe loop did,
    # on draws that loop certified early or after the reference said "keep
    # going", found a tie by a zero-cost residual cycle, or reached along
    # an orbit; on a tie; and on the benchmark's heavy draws, whose
    # horizon the driver reaches in fewer rounds than the loop stepped
    outcomes = set()
    draws = [(1, 0), (2, 0), (13, 2), (15, 0), (37, 1), (42, 1), (57, 0), (58, 1), (60, 0)]
    small = [_small_draw(seed, draw) for seed, draw in draws] + [tied_network()]
    heavy = [approx_batch_draw(2, i) for i in HEAVY_APPROX_CALLS]
    for k, pn in enumerate(small + heavy):
        unique, flows, executed = _decide_perturbed(pn)
        lit_unique, lit_flows, lit_rounds = _literal_decide(pn)
        assert (unique, flows) == (lit_unique, lit_flows), k
        if k >= len(small):
            assert lit_rounds >= 32 and executed < lit_rounds, k
        outcomes.add(unique)
    assert outcomes == {True, False}


def test_decide_perturbed_equals_literal_gap_test_at_the_horizon():
    # every round to 2 * c_max * n^2 executed, one table kept: a tie
    # (96 rounds), a tied draw (4,664) and a unique draw (2,592)
    tied_draw = _small_draw(57, 0)
    unique_draw = perturb_costs(
        preprocess_degree(random_network(6300, n=2, m=3, c_max=1, cap_max=2))[0],
        Fraction(9, 10), seed=0,
    ).network
    for pn, want in [(tied_network(), False), (tied_draw, False), (unique_draw, True)]:
        reduced, fixed = preprocess_degree(pn)
        state = init_messages(reduced)
        for _ in range(2 * pn.c_max * pn.n * pn.n):
            state = update_round(reduced, state)
        lit_unique, lit_flows, _ = literal_gap_test(reduced, state, pn.n * pn.c_max)
        unique, flows, _ = _decide_perturbed(pn)
        assert unique == lit_unique == want
        assert flows == ({**fixed, **lit_flows} if want else None)


def test_decide_perturbed_rejects_a_pass_without_a_positive_certificate(monkeypatch):
    pn = perturb_costs(t1_network(), Fraction(1, 2), seed=1).network
    unique, flows, _ = _decide_perturbed(pn)
    if not (unique and flows == {1: 1, 2: 1, 3: 0}):  # checked under python -O too
        raise AssertionError((unique, flows))
    monkeypatch.setattr(fpras, "min_cycle_cost", lambda net, flows: 0)
    with pytest.raises(ResultCheckError):
        _decide_perturbed(pn)


def test_decide_perturbed_hands_a_draw_past_the_limit_to_the_reference(monkeypatch):
    calls = []
    monkeypatch.setattr(fpras, "PROBE_CAP", 3)
    monkeypatch.setattr(fpras, "_oracle_gap", lambda pn: calls.append(pn) or _oracle_gap(pn))
    draws = [perturb_costs(t1_network(), Fraction(1, 2), seed=1).network, tied_network()]
    decided = [_decide_perturbed(pn) for pn in draws]
    references = [_oracle_gap(pn) for pn in draws]
    want = [(True, references[0][0], 3), (False, None, 3)]
    if calls != draws or decided != want or references[1][1] != 0:  # checked under python -O too
        raise AssertionError((calls, decided, references))
