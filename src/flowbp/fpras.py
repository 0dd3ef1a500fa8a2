"""Randomized (1+eps)-approximation by isolation perturbation + decimation.

Arbitrary integral instances may have many optimal flows, which stalls the
message-passing solver.  Scaling every cost to a fine grid and adding small
independent uniform noise makes the optimum unique with probability at
least 1/2 while moving relative costs only by O(eps/m); the solver then
certifies uniqueness itself via the belief gap test, redrawing noise until
it succeeds.  Fixing the most expensive arc at the value of the certified
perturbed optimum costs at most a (1 + eps/2m) factor, so repeating the
draw-solve-fix loop until every arc is pinned compounds to at most (1+eps)
of the true optimum.

All randomness flows through a counter-based generator (Philox) keyed by
the user seed plus (decimation round, restart attempt), so runs are
reproducible and each restart consumes an independent stream.  The draw is
numpy's ``Generator(Philox(SeedSequence(seed, spawn_key))).integers``
stream, computed here in plain integer Python, so no draw imports numpy.
A draw is decided by the belief gap test at the nominal horizon, unless
the round driver must step too many rounds to get there; then the integer
min-cost-flow solver (:func:`flowmodel.min_cost_flow`) decides.  An
all-zero-cost leftover takes that solver's flow, since any feasible flow
is optimal there.

The scheme takes linear non-negative integer costs only: piecewise costs
and negative slopes raise ``ValueError``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple, Optional

from .bp_engine import _Rounds, gap_test
from .errors import (
    RestartBudgetExceededError,
    ResultCheckError,
    ValueOutOfRangeError,
    ZeroCostInstanceError,
)
from .flowmodel import (
    Arc,
    FlowAssignment,
    FlowNetwork,
    check_feasible,
    linear_cost,
    make_assignment,
    min_cost_flow,
    min_cycle_cost,
    preprocess_degree,
)

RESTART_BUDGET = 64

#: Most rounds a draw steps on its way to the horizon before the exact
#: reference decides it instead.
PROBE_CAP = 1 << 14

SeedLike = "int | numpy.random.SeedSequence"

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1


def _words(x) -> list[int]:
    """``x`` as little-endian 32-bit words, the way numpy's ``SeedSequence``
    reads entropy: a non-negative integer (0 is one word), or a sequence of
    them with their words concatenated."""
    if isinstance(x, Iterable) and not isinstance(x, (str, bytes)):
        return [w for v in x for w in _words(v)]
    x = operator.index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    out = [x & _M32]
    while x := x >> 32:
        out.append(x & _M32)
    return out


def _philox_key(entropy, spawn_key: tuple) -> tuple[int, int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(2,
    uint64)``: hash the words into a 4-word pool, mix every word into every
    other, fold in the words past the pool, then hash the pool out again."""
    run, spawn = _words(entropy), _words(spawn_key)
    if spawn:
        run += [0] * (4 - len(run))  # pad short entropy apart from the key
    words = run + spawn
    mult = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal mult
        v ^= mult
        mult = mult * 0x931E8875 & _M32
        v = v * mult & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    mult = 0x8B51F9DD
    state = []
    for v in pool:
        v ^= mult
        mult = mult * 0x58F38DED & _M32
        v = v * mult & _M32
        state.append(v ^ v >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _philox_words(key: tuple[int, int]):
    """numpy's Philox4x64-10 stream as 32-bit words: the 256-bit counter is
    incremented before each 4-word block, and each 64-bit word yields its
    low half first."""
    counter = 0
    while True:
        counter += 1
        c0, c1, c2, c3 = (counter >> s & _M64 for s in (0, 64, 128, 192))
        k0, k1 = key
        for _ in range(10):
            p0 = 0xD2E7470EE14C6C93 * c0
            p2 = 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = p2 >> 64 ^ c1 ^ k0, p2 & _M64, p0 >> 64 ^ c3 ^ k1, p0 & _M64
            k0 = k0 + 0x9E3779B97F4A7C15 & _M64
            k1 = k1 + 0xBB67AE8584CAA73B & _M64
        for w in (c0, c1, c2, c3):
            yield w & _M32
            yield w >> 32


class _Seed:
    """A noise stream: numpy's ``SeedSequence(entropy, spawn_key)``, which
    rejects negative and non-integer entries at once."""

    __slots__ = ("entropy", "spawn_key")

    def __init__(self, entropy, spawn_key: tuple):
        _words((entropy, spawn_key))
        self.entropy = entropy
        self.spawn_key = spawn_key

    def integers(self, low: int, high: int, size: int) -> list[int]:
        """``Generator(Philox(seed_sequence)).integers(low, high,
        size=size)`` for ``high - low <= 2**32``: Lemire's bounded draw on
        32-bit words, redrawing while the low word falls below
        ``2**32 mod span``."""
        span = high - low
        if not 1 <= span <= 1 << 32:
            raise ValueError(f"draw range {span} is not within 1..2**32")
        threshold = (1 << 32) % span
        words = _philox_words(_philox_key(self.entropy, self.spawn_key))
        out = []
        for _ in range(size):
            m = next(words) * span
            while m & _M32 < threshold:
                m = next(words) * span
            out.append(low + (m >> 32))
        return out


def _seed_seq(seed: SeedLike, extra: tuple[int, ...] = ()) -> _Seed:
    """The stream of ``seed`` spawned by ``extra``.  A ``SeedSequence``
    (numpy's or a :class:`_Seed`) is read by its ``entropy`` and
    ``spawn_key``; a negative integer raises ``ValueError``."""
    if hasattr(seed, "entropy") and hasattr(seed, "spawn_key"):
        seed, extra = seed.entropy, tuple(seed.spawn_key) + extra
    return _Seed(seed, extra)


def _as_fraction(eps) -> Fraction:
    eps = Fraction(eps) if not isinstance(eps, Fraction) else eps
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {eps}")
    return eps


class PerturbedInstance(NamedTuple):
    """A noise draw over an integral linear-cost instance.

    ``granularity`` is the exact rational grid step ``c_max * eps / (4mn)``;
    each perturbed cost is ``4m * floor(c_e / granularity) + noise_e`` with
    ``noise_e`` uniform on ``{1, ..., 4m}``.  Perturbed costs are therefore
    positive integers within ``4m`` of ``4m * c_e / granularity``, and their
    maximum is polynomial in ``m``, ``n`` and ``1/eps``.
    """

    network: FlowNetwork
    granularity: Fraction
    noise: dict[int, int]
    seed_key: tuple


def perturb_costs(network: FlowNetwork, eps, seed: SeedLike) -> PerturbedInstance:
    """Draw the scaled-and-jittered cost vector for an instance.

    Requires single-piece non-negative integral costs and ``c_max >= 1``
    (an all-zero-cost instance has nothing to perturb and every feasible
    flow is already optimal: :class:`ZeroCostInstanceError`).  The draw is
    a pure function of ``seed``.
    """
    eps = _as_fraction(eps)
    if not network.is_linear():
        raise ValueError("cost perturbation requires linear (single-piece) arc costs")
    slopes = {a.id: network.linear_slope(a) for a in network.arcs}
    if any(s < 0 for s in slopes.values()):
        raise ValueError("cost perturbation requires non-negative costs")
    if network.c_max == 0:
        raise ZeroCostInstanceError("all costs are zero; any feasible flow is optimal")
    m, n, c_max = network.m, network.n, network.c_max
    # With eps = p/q the grid step is t = c_max p / (4mn q), so s / t is
    # s * 4mn q / (c_max p): every grid quantity below is one integer
    # numerator over the denominator ``den``.
    per, den = 4 * m * n * eps.denominator, c_max * eps.numerator
    ss = _seed_seq(seed)
    noise = dict(zip(sorted(slopes), ss.integers(1, 4 * m + 1, m)))
    arcs = []
    for a in network.arcs:
        s = slopes[a.id]
        scaled = 4 * m * (s * per // den) + noise[a.id]
        if scaled < 1 or abs(scaled * den - 4 * m * s * per) > 4 * m * den:
            raise ResultCheckError(f"scaled cost {scaled} of arc {a.id} is off its grid")
        arcs.append(Arc(a.id, a.tail, a.head, a.capacity, linear_cost(scaled, a.capacity)))
    perturbed = FlowNetwork._trusted(dict(network.demands), tuple(arcs))
    if perturbed.c_max > 4 * m * (c_max * per // den) + 4 * m:
        raise ResultCheckError(f"perturbed c_max {perturbed.c_max} exceeds its bound")
    t = Fraction(den, per)
    return PerturbedInstance(perturbed, t, noise, (ss.entropy, ss.spawn_key))


def _oracle_gap(pn: FlowNetwork) -> tuple[dict[int, int], object]:
    """The reference optimum and its residual-cycle certificate, checked:
    the flow is feasible and the certificate is not negative.  A positive
    certificate means a unique optimum, which every exact solver returns;
    on a tied one every optimal flow has a zero-cost residual cycle."""
    flows = min_cost_flow(pn)
    if not check_feasible(pn, flows):
        raise ResultCheckError("the reference optimum is infeasible")
    gap = min_cycle_cost(pn, flows)
    if gap < 0:
        raise ResultCheckError("the reference optimum admits a negative residual cycle")
    return flows, gap


def _decide_perturbed(pn: FlowNetwork) -> tuple[bool, Optional[dict[int, int]], int]:
    """The paper's decision: run the recursion for the nominal
    ``2 * c_max * n^2`` rounds and apply the belief gap test at threshold
    ``n * c_max``.  At that horizon the test passes iff the optimum is
    unique, and the estimate then *is* that optimum, which a feasible flow
    with a positive residual-cycle certificate confirms (anything else
    raises :class:`ResultCheckError`).  The round driver reaches the
    horizon along certified orbits; a draw that steps ``PROBE_CAP`` rounds
    short of it is decided by the reference (:func:`_oracle_gap`).

    Returns (unique, optimal flows when unique, rounds executed).
    """
    reduced, fixed = preprocess_degree(pn)
    if reduced.m == 0:
        # every flow is forced, so the feasible set is a single point
        return True, dict(fixed), 0
    horizon = 2 * pn.c_max * pn.n * pn.n
    driver = _Rounds(reduced)
    state = driver.advance(horizon, PROBE_CAP)
    if state.round < horizon:
        flows, gap = _oracle_gap(pn)
        return gap > 0, (flows if gap > 0 else None), driver.executed
    passed, flows, _ = gap_test(reduced, state, pn.n * pn.c_max)
    if not passed:
        return False, None, driver.executed
    flows = {**fixed, **flows}
    if not check_feasible(pn, flows) or min_cycle_cost(pn, flows) <= 0:
        raise ResultCheckError("the gap test passed on a flow that is not the unique optimum")
    return True, flows, driver.executed


class AprxmtResult(NamedTuple):
    """One successful perturb-and-certify solve."""

    assignment: FlowAssignment  # unique optimum of the perturbed instance
    perturbed: PerturbedInstance
    restarts: int
    rounds: int
    executed_rounds: int


def aprxmt(network: FlowNetwork, eps, seed: SeedLike) -> AprxmtResult:
    """Perturb, solve, certify uniqueness; redraw until certain.

    Each attempt draws fresh noise from its own sub-stream and applies the
    gap test after the nominal ``2 * perturbed_c_max * n^2`` rounds
    (:func:`_decide_perturbed`).  A draw with a non-unique optimum fails
    the test and triggers a redraw; each draw succeeds with probability at
    least 1/2, so the budget (64) is astronomically safe and exceeding it
    raises.
    """
    eps = _as_fraction(eps)
    for attempt in range(RESTART_BUDGET):
        pert = perturb_costs(network, eps, _seed_seq(seed, (attempt,)))
        pn = pert.network
        rounds = 2 * pn.c_max * pn.n * pn.n
        unique, flows, executed = _decide_perturbed(pn)
        if unique:
            out = make_assignment(network, flows)
            if not out.feasible:
                raise ResultCheckError("the certified perturbed optimum is infeasible")
            return AprxmtResult(out, pert, attempt, rounds, executed)
    raise RestartBudgetExceededError(f"no unique perturbed optimum in {RESTART_BUDGET} draws")


def fix_arc(network: FlowNetwork, arc_id: int, value: int) -> FlowNetwork:
    """Pin an arc's flow: remove the arc and move its flow into the
    endpoint demands."""
    arc = network.arc_by_id[arc_id]
    hi = math.inf if arc.capacity is None else arc.capacity
    if not (isinstance(value, int) and 0 <= value <= hi):
        raise ValueOutOfRangeError(
            f"flow {value} for arc {arc_id} outside [0, {arc.capacity}]"
        )
    demands = dict(network.demands)
    demands[arc.tail] -= value
    demands[arc.head] += value
    return FlowNetwork._trusted(demands, tuple(a for a in network.arcs if a.id != arc_id))


class DecimationRound(NamedTuple):
    """Per-round log of the decimation loop (JSON-friendly fields plus the
    exact objects the acceptance checks need)."""

    index: int
    fixed_arc: int
    value: int
    restarts: int
    c_bar_max: int
    rounds: int
    executed_rounds: int
    instance: FlowNetwork
    granularity: Fraction
    perturbed_flows: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "round": self.index,
            "fixed_arc": self.fixed_arc,
            "value": self.value,
            "restarts": self.restarts,
            "c_bar_max": self.c_bar_max,
            "rounds": self.rounds,
            "executed_rounds": self.executed_rounds,
        }


class ApproxResult(NamedTuple):
    assignment: FlowAssignment
    rounds: list[DecimationRound]


def approx_scheme(network: FlowNetwork, eps, seed: SeedLike) -> ApproxResult:
    """The full decimation loop: (1+eps)-approximation for any feasible
    instance with linear non-negative integer costs.

    Every round re-derives the grid step from the current shrunken
    instance, obtains a certified-unique perturbed optimum, pins the
    currently most expensive arc (ties to the smallest id) at that
    optimum's value, and folds forced flows back in.  All-zero-cost
    leftovers short-circuit to any feasible completion, which is optimal
    for them.
    """
    eps = _as_fraction(eps)
    if not network.is_linear():
        raise ValueError("the approximation scheme requires linear arc costs")
    fixed_total: dict[int, int] = {}
    logs: list[DecimationRound] = []
    current = network
    index = 0
    while True:
        reduced, forced = preprocess_degree(current)
        fixed_total.update(forced)
        if reduced.m == 0:
            break
        if reduced.c_max == 0:
            fixed_total.update(min_cost_flow(reduced))
            break
        res = aprxmt(reduced, eps, _seed_seq(seed, (index,)))
        target = max(reduced.arcs, key=lambda a: (reduced.linear_slope(a), -a.id))
        value = res.assignment.flows[target.id]
        fixed_total[target.id] = value
        logs.append(
            DecimationRound(
                index=index,
                fixed_arc=target.id,
                value=value,
                restarts=res.restarts,
                c_bar_max=res.perturbed.network.c_max,
                rounds=res.rounds,
                executed_rounds=res.executed_rounds,
                instance=reduced,
                granularity=res.perturbed.granularity,
                perturbed_flows=dict(res.assignment.flows),
            )
        )
        current = fix_arc(reduced, target.id, value)
        index += 1
    assignment = make_assignment(network, fixed_total)
    if not assignment.feasible:
        raise ResultCheckError("decimation produced an infeasible assembly")
    return ApproxResult(assignment, logs)
