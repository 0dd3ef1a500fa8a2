"""Built-in oracle-equivalence and invariant suites for the CLI.

Each suite exercises one correctness contract against an independent
reference: grid minimization for the function algebra, exhaustive
enumeration and the exact solver for flows, the computation-tree dynamic
program for beliefs, and the residual-cycle criterion for uniqueness.
Everything is seeded, so a pass/fail outcome is reproducible.  Checks
raise explicitly rather than using ``assert``, so they still run under
``python -O``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce

from . import bp_engine, fpras, gen, oracles
from .errors import EmptyDomainError, UnboundedError
from .flowmodel import FlowNetwork, preprocess_degree
from .pwl import (
    NEG_INF,
    POS_INF,
    PwlConvex,
    add_composed,
    inf_convolve2,
    leave_one_out,
    node_messages,
)


def _check(cond, detail) -> None:
    if not cond:
        raise AssertionError(detail)


def _t1(c3: int = 3) -> FlowNetwork:
    return FlowNetwork.from_data(
        {1: 1, 2: 0, 3: -1},
        [(1, 1, 2, 2, 1), (2, 2, 3, 2, 1), (3, 1, 3, 2, c3)],
    )


def _random_pwl(rng: random.Random, open_ends: bool = False) -> PwlConvex:
    k = rng.randint(0, 4)
    if k == 0:
        return PwlConvex.point(rng.randint(-5, 5), rng.randint(-5, 5))
    bks = sorted(rng.sample(range(-5, 6), k + 1))
    sls = sorted(rng.sample(range(-5, 6), k))
    value = rng.randint(-5, 5)
    if open_ends:
        ends = rng.randrange(4)
        if ends & 1:
            bks[0] = NEG_INF
        if ends & 2:
            bks[-1] = POS_INF
    z = next((b for b in bks if b not in (NEG_INF, POS_INF)), 0)
    return PwlConvex(bks, sls, (z, value))


def _random_cost(rng: random.Random) -> PwlConvex:
    """An arc cost on ``[0, cap]``: a point, or one or two pieces up to a
    finite or an infinite capacity."""
    kind = rng.randrange(3)
    if kind == 0:
        return PwlConvex.point(0, 0)
    sls = sorted(rng.sample(range(-4, 5), rng.randint(1, 2)))
    bks = [0, 2, 4][: len(sls) + 1]
    if kind == 2:
        bks[-1] = POS_INF
    return PwlConvex(bks, sls, (0, 0))


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except (UnboundedError, EmptyDomainError) as exc:
        return type(exc)


def _literal_node_messages(fs, signs, finishes):
    reflected = [f.compose_affine(sign, 0) for f, sign in zip(fs, signs)]
    return [add_composed(phi, g, a, b) for (phi, a, b), g in zip(finishes, leave_one_out(reflected))]


def _suite_pwl_grid(quick: bool) -> str:
    rng = random.Random(20_240_001)
    pairs = 40 if quick else 200
    checks = 0
    for _ in range(pairs):
        f, g = _random_pwl(rng), _random_pwl(rng)
        h = inf_convolve2(f, g)
        for i in range(-10 * 4, 10 * 4 + 1, 5):
            t = Fraction(i, 4)
            best = POS_INF
            for j in range(-10 * 4, 10 * 4 + 1):
                x = Fraction(j, 4)
                a = f.evaluate(x)
                if a == POS_INF:
                    continue
                b = g.evaluate(t - x)
                if b != POS_INF and a + b < best:
                    best = a + b
            _check(h.evaluate(t) == best, (f, g, t))
            checks += 1
    # the engine's per-node kernel against pairwise convolution, on
    # operands with half-infinite and whole-R domains
    sets = 20 if quick else 100
    unbounded = 0
    for _ in range(sets):
        fs = [_random_pwl(rng, open_ends=True) for _ in range(rng.randint(2, 6))]
        try:
            want = [reduce(inf_convolve2, fs[:i] + fs[i + 1:]) for i in range(len(fs))]
        except UnboundedError:
            want = None
            unbounded += 1
        try:
            got = leave_one_out(fs)
        except UnboundedError:
            got = None
        _check(got == want, ("leave_one_out", fs))
    # the engine's fused node kernel against its literal composition:
    # reflect, leave one out, re-parametrize and add each arc cost
    for _ in range(sets):
        fs = [_random_pwl(rng, open_ends=True) for _ in range(rng.randint(2, 6))]
        signs = [rng.choice((1, -1)) for _ in fs]
        finishes = [(_random_cost(rng), rng.choice((1, -1)), rng.randint(-5, 5)) for _ in fs]
        want = _outcome(_literal_node_messages, fs, signs, finishes)
        got = _outcome(node_messages, fs, signs, finishes)
        _check(got == want, ("node_messages", fs, signs, finishes))
    return (f"{pairs} convolutions, {checks} grid points, "
            f"{sets} leave-one-out sets ({unbounded} unbounded), {sets} node kernels")


def _suite_t1(quick: bool) -> str:
    net = _t1()
    flows = oracles.enumerate_integral_flows(net)
    _check([fa.flows for fa in flows] == [{1: 1, 2: 1, 3: 0}, {1: 0, 2: 0, 3: 1}],
           "enumerated feasible flows")
    _check(bp_engine.run(net).assignment.flows == {1: 1, 2: 1, 3: 0}, "solve")
    _check(bp_engine.detect_uniqueness(net).unique, "unique optimum not detected")
    _check(not bp_engine.detect_uniqueness(_t1(c3=2)).unique, "tie reported unique")
    return "triangle instance: solve + uniqueness"


def _suite_tree_identity(quick: bool) -> str:
    count = 4 if quick else 12
    checks = 0
    for seed in range(count):
        net = gen.random_network(seed + 9000, n=4, m=5, c_max=3, cap_max=2)
        reduced, _ = preprocess_degree(net)
        if reduced.m == 0:
            continue
        state = bp_engine.init_messages(reduced)
        for depth in (1, 2, 3):
            state = bp_engine.update_round(reduced, state)
            for a in reduced.arcs:
                b = bp_engine.belief(reduced, state, a.id)
                tree = oracles.build_tree(reduced, a.id, depth)
                for z in range(a.capacity + 1):
                    _check(b.evaluate(z) == oracles.tree_solve(tree, z), (seed, a.id, depth, z))
                    checks += 1
    return f"{checks} belief/tree value identities"


def _suite_convergence(quick: bool) -> str:
    count = 8 if quick else 25
    for seed in range(count):
        net = gen.random_network(seed + 8100, n=5, m=7, c_max=4, cap_max=3,
                                 ensure_unique=True)
        out = bp_engine.run(net)
        ref = oracles.exact_solve(net)
        _check(out.assignment.flows == ref.flows, seed)
        if out.state:
            bp_engine.check_message_invariants(preprocess_degree(net)[0], out.state)
    return f"{count} unique-optimum instances solved exactly"


def _suite_hard_family(quick: bool) -> str:
    ds = (6, 12, 24) if quick else (6, 12, 24, 48)
    settles = []
    for d in ds:
        net = gen.hard_instance(d)
        state = bp_engine.init_messages(net)
        hist = []
        for _ in range(3 * d):
            state = bp_engine.update_round(net, state)
            hist.append(bp_engine.belief(net, state, 1).argmin())
        final = hist[-1]
        settles.append(max(i for i, v in enumerate(hist) if v != final) + 2)
    _check(settles == sorted(settles) and settles[-1] > settles[0], settles)
    return f"settle rounds {settles} grow with the cost parameter"


def _suite_isolation(quick: bool) -> str:
    net = _t1(c3=2)  # two optima
    trials = 30 if quick else 80
    unique = 0
    for seed in range(trials):
        pert = fpras.perturb_costs(net, Fraction(1, 2), seed)
        sol = oracles.exact_solve(pert.network)
        if oracles.is_unique_optimum(pert.network, sol):
            unique += 1
    _check(unique >= trials // 2, f"only {unique}/{trials} unique")
    return f"{unique}/{trials} perturbations isolated a unique optimum"


def _suite_approx(quick: bool) -> str:
    count = 3 if quick else 8
    for seed in range(count):
        net = gen.random_network(seed + 8200, n=5, m=6, c_max=4, cap_max=3)
        opt = oracles.exact_solve(net).objective
        res = fpras.approx_scheme(net, Fraction(1, 2), seed)
        _check(res.assignment.feasible, seed)
        _check(res.assignment.objective <= Fraction(3, 2) * opt, seed)
    return f"{count} instances within the 1.5x guarantee"


SUITES = [
    ("pwl-grid-oracle", _suite_pwl_grid),
    ("triangle-instance", _suite_t1),
    ("belief-tree-identity", _suite_tree_identity),
    ("exact-convergence", _suite_convergence),
    ("hard-family-scaling", _suite_hard_family),
    ("isolation-probability", _suite_isolation),
    ("approximation-guarantee", _suite_approx),
]


def run_suites(quick: bool = False) -> list[tuple[str, bool, str]]:
    out = []
    for name, fn in SUITES:
        try:
            detail = fn(quick)
            out.append((name, True, detail))
        except Exception as exc:  # report, never crash the runner
            out.append((name, False, f"{type(exc).__name__}: {exc}"))
    return out
