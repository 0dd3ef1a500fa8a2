"""Round-synchronous min-sum message passing for min-cost flow.

Each arc keeps one cost-to-go function per endpoint.  The message an arc
sends toward one endpoint summarizes the cheapest way the rest of the
network behind its *other* endpoint can absorb each candidate flow value:
the neighbor messages at that endpoint are combined under the conservation
constraint (a signed infimal convolution), re-parametrized to the arc's own
flow, and the arc's own cost is added.  All messages are exact
piecewise-linear convex functions, so rounds are pure integer algebra.

A node's outgoing messages come from one per-node kernel,
:func:`~flowbp.pwl.node_messages`, run over a plan compiled once per
network.  Its incoming messages are signed by the arc orientation without
building reflected copies; per distinct tilt (almost always one) each is
split once and all their pieces are sorted once; every arc's combination
is stitched from that sorted list while skipping the arc's own pieces,
only across the window its flow domain maps to, and merged with the arc
cost.  A node of degree ``d`` with ``P`` incoming pieces costs ``d``
splits and one sort per tilt, ``d`` stitches of at most ``O(P)`` work
each, and one result object per message, instead of a chain of about
``3 * d`` pairwise convolutions.  The tables are identical to the
pairwise ones, because ``PwlConvex`` is canonical.  Every round-0 message
is the zero function, so round 1 is each message's arc cost: the round
driver starts from that table and executes rounds from 2 on.

The per-arc belief combines the two directed messages and subtracts the arc
cost once (each directed message already includes it); its minimizer is the
flow estimate.  On integral instances with a unique optimum the estimate is
exactly optimal once the round count reaches the convergence bound, and a
strict gap in the final beliefs detects uniqueness itself.

A fixed point of the message *shapes* (messages modulo one additive
constant each) is a fixed point of everything the estimate and the gap test
depend on, because one round shifts each new message by a constant when its
inputs are shifted by constants.  One round driver steps every solve, gap
test and probe; it detects such an orbit (up to a verified slope drift) and
answers "beliefs at round N" without executing all N rounds, with identical
results, unless a per-round hook must see every table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .errors import EmptyDomainError, InfeasibleFlowError
from .flowmodel import (
    FlowAssignment,
    FlowNetwork,
    iteration_bound,
    make_assignment,
    preprocess_degree,
)
from .pwl import POS_INF, PwlConvex, node_messages, pointwise_diff

MessageKey = tuple[int, int]  # (arc id, endpoint the message points to)


@dataclass
class MessageState:
    """Message table at one round: exactly two entries per arc."""

    round: int
    messages: dict[MessageKey, PwlConvex]

    def message(self, arc_id: int, endpoint: int) -> PwlConvex:
        return self.messages[(arc_id, endpoint)]


class _Node(NamedTuple):
    sources: tuple[MessageKey, ...]  # the messages toward w, one per incident arc e
    signs: tuple[int, ...]  # delta(w, e)
    finishes: tuple[tuple[PwlConvex, int, int], ...]  # (cost of e, -delta(w, e), demand at w)
    slots: tuple[int, ...]  # table position of the message e sends away from w


class _Plan(NamedTuple):
    keys: tuple[MessageKey, ...]  # table order: per arc, toward its tail, then its head
    costs: tuple[PwlConvex, ...]  # the arc cost under each key: the round-1 table
    nodes: tuple[_Node, ...]  # every node with an incident arc


# Callers step one network at a time and every CLI call parses a fresh
# one, so a larger cache only keeps dead networks and their plans alive.
@lru_cache(maxsize=4)
def _plan(network: FlowNetwork) -> _Plan:
    keys = tuple((a.id, end) for a in network.arcs for end in (a.tail, a.head))
    position = {k: i for i, k in enumerate(keys)}
    nodes = tuple(
        _Node(
            sources=tuple((e.id, w) for e, _ in inc),
            signs=tuple(d for _, d in inc),
            finishes=tuple((e.cost, -d, network.demands[w]) for e, d in inc),
            slots=tuple(position[(e.id, e.head if d == 1 else e.tail)] for e, d in inc),
        )
        for w, inc in network.incident.items()
        if inc
    )
    return _Plan(keys, tuple(a.cost for a in network.arcs for _ in (a.tail, a.head)), nodes)


def init_messages(network: FlowNetwork) -> MessageState:
    """Round-0 table: every message is the all-zero function on R."""
    zero = PwlConvex.constant(0)
    return MessageState(0, {k: zero for k in _plan(network).keys})


def update_round(network: FlowNetwork, state: MessageState) -> MessageState:
    """One synchronous round: every message recomputed from the previous
    table only.

    Each node w's outgoing messages come from one
    :func:`~flowbp.pwl.node_messages` pass over its incoming messages,
    signed by ``delta(w, e)`` so that the conservation constraint becomes
    a plain sum, and finished with each arc's re-parametrization and
    cost.  An :class:`~flowbp.errors.EmptyDomainError` is raised only
    after every node has had its chance to raise any other error.
    """
    plan = _plan(network)
    prev = state.messages
    table: list = [None] * len(plan.keys)
    empty = None
    for node in plan.nodes:
        try:
            out = node_messages([prev[k] for k in node.sources], node.signs, node.finishes)
        except EmptyDomainError as exc:
            empty = exc
            continue
        for slot, m in zip(node.slots, out):
            table[slot] = m
    if empty is not None:
        raise empty
    return MessageState(state.round + 1, dict(zip(plan.keys, table)))


def belief(network: FlowNetwork, state: MessageState, arc_id: int) -> PwlConvex:
    """Per-arc cost-to-go at the current round.

    Both directed messages of the arc include the arc's own cost, so the
    belief is their sum minus that cost, on the arc's flow domain.
    """
    a = network.arc_by_id[arc_id]
    m_to_tail = state.messages[(arc_id, a.tail)]
    m_to_head = state.messages[(arc_id, a.head)]
    return pointwise_diff(m_to_tail.add(m_to_head), a.cost)


def estimate(network: FlowNetwork, state: MessageState) -> FlowAssignment:
    """Smallest belief minimizer per arc, with recomputed objective.

    Mid-run estimates need not be feasible; the flag says whether this one
    is.  Arcs whose belief is flat at the minimum (a tie, so the instance
    cannot have a unique optimum if this persists) are recorded in
    ``ties``.
    """
    return _read_off(network, {a.id: belief(network, state, a.id) for a in network.arcs})


def _read_off(network: FlowNetwork, beliefs: dict[int, PwlConvex]) -> FlowAssignment:
    """Smallest belief minimizer per arc, packaged with its objective and
    the arcs whose belief is flat at that minimizer."""
    flows = {a.id: beliefs[a.id].argmin() for a in network.arcs}
    out = make_assignment(network, flows)
    out.ties = tuple(
        aid for aid, z in flows.items()
        if beliefs[aid].evaluate(z + 1) == beliefs[aid].evaluate(z)
    )
    return out


def check_message_invariants(network: FlowNetwork, state: MessageState) -> None:
    """Assert the structural bounds every round must satisfy on integral
    instances: integer breakpoints, integer slopes, |slope| <= round * c_max."""
    bound = state.round * network.c_max
    for (aid, v), m in state.messages.items():
        for b in m.breakpoints:
            if b not in (POS_INF, float("-inf")) and not isinstance(b, int):
                raise AssertionError(f"non-integral breakpoint {b!r} in message {(aid, v)}")
        for s in m.slopes:
            if not isinstance(s, int):
                raise AssertionError(f"non-integral slope {s!r} in message {(aid, v)}")
            if abs(s) > bound:
                raise AssertionError(
                    f"slope {s} exceeds bound {bound} at round {state.round} in {(aid, v)}"
                )


@dataclass
class RunResult:
    assignment: FlowAssignment
    state: Optional[MessageState]
    rounds_used: int
    executed_rounds: int
    piece_totals: list[int] = field(default_factory=list)


def _merged_assignment(
    network: FlowNetwork,
    fixed: dict[int, int],
    reduced_estimate: Optional[FlowAssignment],
) -> FlowAssignment:
    flows = dict(fixed)
    ties: tuple[int, ...] = ()
    if reduced_estimate is not None:
        flows.update(reduced_estimate.flows)
        ties = reduced_estimate.ties
    out = make_assignment(network, flows)
    out.ties = ties
    return out


def run(
    network: FlowNetwork,
    rounds: Optional[int] = None,
    patience: Optional[int] = None,
    on_round: Optional[Callable[[FlowNetwork, MessageState], None]] = None,
) -> RunResult:
    """Full solve: preprocess, run message rounds, read off the estimate.

    ``rounds=None`` uses the convergence bound of the reduced instance,
    under which the estimate equals the optimum whenever the optimum is
    unique.  ``patience`` enables an early exit once the estimate has been
    unchanged that many consecutive rounds; it is a heuristic (off by
    default) and forfeits the guarantee.  Degree-1-forced flows are merged
    back into the returned assignment.

    Rounds past a verified orbit are fast-forwarded (:class:`_Rounds`)
    with identical results, so ``executed_rounds`` can be far below
    ``rounds_used`` and ``state`` is the last executed table.  An
    ``on_round`` hook sees every table, so it forces literal execution.
    """
    if rounds is not None and rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    reduced, fixed = preprocess_degree(network)
    if reduced.m == 0:
        assignment = _merged_assignment(network, fixed, None)
        if not assignment.feasible:
            raise InfeasibleFlowError("forced flows are not feasible")
        return RunResult(assignment, None, 0, 0)
    total = iteration_bound(reduced, "convergence") if rounds is None else rounds
    driver = _Rounds(reduced, on_round)
    last = total
    if patience is None:
        beliefs = driver.beliefs(total)
    else:
        last_flows, streak = None, 0
        for last in range(1, total + 1):
            beliefs = driver.beliefs(last)
            flows = {aid: b.argmin() for aid, b in beliefs.items()}
            if flows == last_flows:
                streak += 1
                if streak >= patience:
                    break
            else:
                last_flows, streak = flows, 0
    assignment = _merged_assignment(network, fixed, _read_off(reduced, beliefs))
    piece_totals = [driver.piece_total(r) for r in range(1, last + 1)]
    return RunResult(assignment, driver.state, total, driver.executed, piece_totals)


def dump_round(state: MessageState) -> dict:
    """JSON-ready snapshot of one round's message table."""
    return {
        "round": state.round,
        "messages": [
            {"arc": aid, "to": node, "fn": m.to_json_dict()}
            for (aid, node), m in state.messages.items()
        ],
    }


# ---------------------------------------------------------------------------
# The round driver with its affine-periodic fast-forward, and the gap test


def _same_shape(old: MessageState, new: MessageState) -> bool:
    """Whether every message of ``new`` is its ``old`` counterpart plus
    ``alpha_k * z + beta_k``: equal breakpoints and equal slope increments."""
    return all(
        f.breakpoints == g.breakpoints
        and all(x - y == f.slopes[0] - g.slopes[0] for x, y in zip(f.slopes, g.slopes))
        for f, g in zip(new.messages.values(), old.messages.values())
    )


def _invariant_tilt(
    network: FlowNetwork, old: MessageState, new: MessageState
) -> Optional[dict[MessageKey, int]]:
    """Check that one round maps the observed affine offset to itself.

    ``alpha_k`` is each message's slope shift between the two matched
    rounds.  A round preserves the offsets exactly when, for every message
    a node w sends along an arc e, the shifts of w's other incoming
    messages factor through the conservation constraint (``alpha = c *
    sign`` for one constant ``c`` per message, point indicators free) and
    the implied output shift ``-c * delta(w, e)`` equals the observed one.
    Returns the shift per message key, or None when the pattern is not
    invariant.
    """
    plan = _plan(network)
    alpha: dict[MessageKey, Optional[int]] = {}
    for key, f, g in zip(plan.keys, old.messages.values(), new.messages.values()):
        if bool(f.slopes) != bool(g.slopes):
            return None
        # point indicators (no slopes) take any tilt
        alpha[key] = g.slopes[0] - f.slopes[0] if f.slopes else None
    for node in plan.nodes:
        sources = [alpha[k] for k in node.sources]
        for i, slot in enumerate(node.slots):
            c = None
            for j, (a, sign) in enumerate(zip(sources, node.signs)):
                if j == i or a is None:
                    continue
                cand = a * sign
                if c is None:
                    c = cand
                elif c != cand:
                    return None
            out = alpha[plan.keys[slot]]
            if out is None:
                continue
            if c is None:
                # every source is a point indicator, so the output must be
                # one too; a sloped output cannot match
                return None
            if out != -c * node.signs[i]:
                return None
    return {k: (0 if a is None else a) for k, a in alpha.items()}


class _Rounds:
    """The message recursion on one reduced network, stepped on demand
    through the module-level :func:`update_round`.

    Without an ``on_round`` hook, each new table is compared with one
    checkpoint table, moved to the current round at each power of two
    (Brent's cycle detection).  A match up to ``alpha_k * z + beta_k`` per
    message that :func:`_invariant_tilt` certifies is an orbit: from the
    checkpoint on, round ``r + period`` is round ``r`` plus ``alpha``, up
    to one constant per message.
    """

    def __init__(self, reduced: FlowNetwork, on_round=None):
        self.network = reduced
        self.on_round = on_round
        self.state = self._checkpoint = init_messages(reduced)
        self.piece_totals: list[int] = []  # entry r - 1 belongs to round r
        self.orbit: Optional[tuple[int, int, dict[MessageKey, int]]] = None  # start, period, alpha

    @property
    def executed(self) -> int:
        return self.state.round

    def _step(self) -> None:
        if self.state.round:
            self.state = update_round(self.network, self.state)
        else:  # every round-0 message is zero, so round 1 is the arc costs
            plan = _plan(self.network)
            self.state = MessageState(1, dict(zip(plan.keys, plan.costs)))
        self.piece_totals.append(sum(m.piece_count for m in self.state.messages.values()))
        if self.on_round is not None:
            self.on_round(self.network, self.state)
        elif self.orbit is None:
            t, check = self.state.round, self._checkpoint
            if _same_shape(check, self.state):
                alpha = _invariant_tilt(self.network, check, self.state)
                if alpha is not None:
                    self.orbit = (check.round, t - check.round, alpha)
            if t & (t - 1) == 0:
                self._checkpoint = self.state

    def beliefs(self, target: int) -> dict[int, PwlConvex]:
        """Round-``target`` beliefs, each exact up to an additive constant
        (``target`` must not decrease between calls).  On the orbit, the
        rounds left are reduced modulo the period, and each belief gains
        ``periods * (alpha_tail + alpha_head)`` slope: callers read only
        belief differences (minimizers, gap comparisons)."""
        while self.state.round < target and self.orbit is None:
            self._step()
        periods = 0
        if self.orbit is not None:
            _, period, alpha = self.orbit
            for _ in range((target - self.state.round) % period):
                self._step()
            periods = (target - self.state.round) // period
        out = {}
        for a in self.network.arcs:
            b = belief(self.network, self.state, a.id)
            if periods:
                b = b.tilt(periods * (alpha[(a.id, a.tail)] + alpha[(a.id, a.head)]))
            out[a.id] = b
        return out

    def piece_total(self, r: int) -> int:
        """Total message pieces at round ``r``, executed or on the orbit
        (a tilt keeps piece counts)."""
        if r > self.state.round:
            start, period, _ = self.orbit
            r = start + (r - start - 1) % period + 1
        return self.piece_totals[r - 1]


def gap_test(
    reduced: FlowNetwork, beliefs: dict[int, PwlConvex], threshold: int
) -> tuple[bool, FlowAssignment]:
    """The strict final-belief gap test and the accompanying estimate.

    Uniqueness holds iff for every arc the belief one unit away from its
    smallest minimizer exceeds the minimizer's belief by strictly more than
    ``threshold`` (out-of-domain neighbors are infinitely worse and pass
    vacuously).  Only belief differences are read, so beliefs known up to
    additive constants are fine.
    """
    out = _read_off(reduced, beliefs)
    unique = all(
        min(beliefs[aid].evaluate(z - 1), beliefs[aid].evaluate(z + 1))
        > threshold + beliefs[aid].evaluate(z)
        for aid, z in out.flows.items()
    )
    return unique, out


@dataclass
class UniquenessResult:
    unique: bool
    assignment: Optional[FlowAssignment]
    rounds_used: int
    executed_rounds: int


def detect_uniqueness(network: FlowNetwork) -> UniquenessResult:
    """Decide whether the instance has a unique optimal flow.

    Runs the message recursion for the uniqueness round budget of the
    reduced instance and applies the belief gap test with threshold
    ``n * c_max``.  When unique, the accompanying estimate is the exact
    optimum and is returned merged with any degree-1-forced flows.
    """
    reduced, fixed = preprocess_degree(network)
    if reduced.m == 0:
        assignment = _merged_assignment(network, fixed, None)
        return UniquenessResult(True, assignment, 0, 0)
    total = iteration_bound(reduced, "uniqueness")
    driver = _Rounds(reduced)
    unique, reduced_assignment = gap_test(
        reduced, driver.beliefs(total), reduced.n * reduced.c_max
    )
    assignment = None
    if unique:
        assignment = _merged_assignment(network, fixed, reduced_assignment)
    return UniquenessResult(unique, assignment, total, driver.executed)
