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
building reflected copies; each is split once, at one tilt, and all their
pieces are sorted once; every arc's message takes one pass from that
sorted pair of lists (read swapped and negated where the arc's
re-parametrization reflects, again without a copy), skipping the arc's
own pieces, laid out in the arc's flow coordinate only across its cost's
domain, merged with the cost and carrying its values.  A node of degree
``d`` with ``P`` incoming pieces costs ``d`` splits, one sort, ``d``
passes of at most ``O(P)`` work each, and one result object per message,
instead of a chain of about ``3 * d`` pairwise convolutions.  The tables
are identical to the pairwise ones, because ``PwlConvex`` is canonical.
Every round-0 message is the zero function, so round 1 is each message's
arc cost: the round driver starts from that table and executes rounds
from 2 on.

The per-arc belief combines the two directed messages and subtracts the arc
cost once (each directed message already includes it); its minimizer is the
flow estimate.  On integral instances with a unique optimum the estimate is
exactly optimal once the round count reaches the convergence bound, and a
strict gap in the final beliefs detects uniqueness itself.  Breakpoints
are integers, so the estimate, the ties and the gap test read only the
smallest minimizer and the slopes either side of it: :func:`_read_off`
takes them straight off each arc's two messages with one merge that
stops at the minimizer (:func:`~flowbp.pwl.argmin_shared`), and no belief
is built.  :func:`belief` builds the function itself for callers that
want it.

Everything the estimate and the gap test depend on is read from the
message *shapes* (messages modulo one additive constant each), because one
round shifts each new message by a constant when its inputs are shifted by
constants.  One round driver steps every solve and gap test.  It
searches the tables it has stepped for orbits of the shapes: breakpoints
that repeat with a period while each piece's slope moves by a fixed
integer per period, certified from the tables alone for as many periods
as the slope order at every node holds (for ever when each period tilts
the messages into a node alike).  Inside a certified orbit it answers
"the table at round N" with one table built from the stepped table of
N's phase, its slopes moved along their drift, with identical results,
unless a per-round hook must see every table.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import chain, cycle
from typing import Callable, NamedTuple, Optional

from .errors import EmptyDomainError, InfeasibleFlowError
from .flowmodel import (
    FlowAssignment,
    FlowNetwork,
    cap_negative_uncapacitated,
    iteration_bound,
    make_assignment,
    preprocess_degree,
)
from .pwl import POS_INF, Extended, PwlConvex, _node_messages, add_shared, argmin_shared

MessageKey = tuple[int, int]  # (arc id, endpoint the message points to)
ReadOff = tuple[Extended, Extended, Extended]  # belief minimizer, slopes left and right of it


class MessageState(NamedTuple):
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
    # arc i's messages sit at 2 * i (toward its tail) and 2 * i + 1; a
    # node's entries, one per incident arc in arc order (as in
    # ``network.incident``), are the rows of its _Node
    demands = network.demands
    keys: list[MessageKey] = []
    costs: list[PwlConvex] = []
    nodes: dict[int, list] = {v: [] for v in demands}
    for i, a in enumerate(network.arcs):
        to_tail, to_head = (a.id, a.tail), (a.id, a.head)
        keys += (to_tail, to_head)
        costs += (a.cost, a.cost)
        nodes[a.tail].append((to_tail, 1, (a.cost, -1, demands[a.tail]), 2 * i + 1))
        nodes[a.head].append((to_head, -1, (a.cost, 1, demands[a.head]), 2 * i))
    rows = (_Node(*zip(*entries)) for entries in nodes.values() if entries)
    return _Plan(tuple(keys), tuple(costs), tuple(rows))


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
            out = _node_messages([prev[k] for k in node.sources], node.signs, node.finishes)
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
    belief is their sum minus that cost, on the arc's flow domain: one
    trusted merge (:func:`~flowbp.pwl.add_shared`).  The engine itself
    builds no belief; it reads what it needs off the messages
    (:func:`_read_off`).
    """
    a = network.arc_by_id[arc_id]
    return add_shared(state.messages[(arc_id, a.tail)], state.messages[(arc_id, a.head)], a.cost)


def estimate(network: FlowNetwork, state: MessageState) -> FlowAssignment:
    """Smallest belief minimizer per arc, with recomputed objective.

    Mid-run estimates need not be feasible; the flag says whether this one
    is.  Arcs whose belief is flat at the minimum (a tie, so the instance
    cannot have a unique optimum if this persists) are recorded in
    ``ties``.
    """
    return make_assignment(network, *_minimizers(_read_off(network, state)))


def _read_off(network: FlowNetwork, state: MessageState) -> dict[int, ReadOff]:
    """Per arc, the smallest minimizer of its belief and the belief's
    slopes left and right of it (:func:`~flowbp.pwl.argmin_shared`), read
    straight off the arc's two messages: no belief is built."""
    messages = state.messages
    return {
        a.id: argmin_shared(messages[(a.id, a.tail)], messages[(a.id, a.head)], a.cost)
        for a in network.arcs
    }


def _minimizers(read: dict[int, ReadOff]) -> tuple[dict[int, int], tuple[int, ...]]:
    """Smallest belief minimizer per arc, and the arcs whose belief is
    flat at it (``b(z + 1) == b(z)``): breakpoints are integers, so the
    piece right of an integer minimizer spans the next unit, and the
    belief is flat there exactly when its right slope is 0."""
    flows = {aid: z for aid, (z, _, _) in read.items()}
    ties = tuple(aid for aid, (_, _, right) in read.items() if right == 0)
    return flows, ties


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


class RunResult(NamedTuple):
    assignment: FlowAssignment
    state: Optional[MessageState]
    rounds_used: int
    executed_rounds: int
    piece_totals: list[int]


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
    back into the returned assignment.  Uncapacitated arcs whose cost ends
    on a negative slope are capped at ``flowmodel.flow_bound`` (which keeps
    the optimum), so no message is ``-inf`` everywhere.

    Rounds inside a certified orbit are fast-forwarded (:class:`_Rounds`)
    with identical results, so ``executed_rounds`` can be far below
    ``rounds_used``; ``state`` is the table of the last round, exact up to
    one constant per message.  An ``on_round`` hook sees every table, so it
    forces literal execution.
    """
    if rounds is not None and rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    if patience is not None and patience < 1:
        raise ValueError(f"patience must be at least 1, got {patience}")
    reduced, fixed = preprocess_degree(network)
    reduced = cap_negative_uncapacitated(reduced)
    if reduced.m == 0:
        assignment = make_assignment(network, fixed)
        if not assignment.feasible:
            raise InfeasibleFlowError("forced flows are not feasible")
        return RunResult(assignment, None, 0, 0, [])
    total = iteration_bound(reduced, "convergence") if rounds is None else rounds
    driver = _Rounds(reduced, on_round)
    last = total
    if patience is None:
        read = _read_off(reduced, driver.advance(total))
    else:
        last_flows, streak = None, 0
        for last in range(1, total + 1):
            read = _read_off(reduced, driver.advance(last))
            flows = [z for z, _, _ in read.values()]
            if flows == last_flows:
                streak += 1
                if streak >= patience:
                    break
            else:
                last_flows, streak = flows, 0
    flows, ties = _minimizers(read)
    assignment = make_assignment(network, {**fixed, **flows}, ties)
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
# The round driver with its orbit fast-forward, and the gap test


#: The most tables the orbit search keeps, so that a run certifying no
#: orbit holds and searches a bounded window; orbits of period up to a
#: quarter of it stay in reach.
_WINDOW = 64

_BREAKPOINTS = operator.attrgetter("breakpoints")
_SLOPES = operator.attrgetter("slopes")
_WEIGHTS = tuple(map(random.Random(0).getrandbits, [32] * 1024))  # of _fingerprint


def _same_breakpoints(old: MessageState, new: MessageState) -> bool:
    return all(
        f.breakpoints == g.breakpoints
        for f, g in zip(new.messages.values(), old.messages.values())
    )


def _drift(old: MessageState, new: MessageState) -> tuple[tuple[int, ...], ...]:
    """Per message in table order, the slope change of each piece from
    ``old`` to ``new`` (tables with equal breakpoints)."""
    return tuple(
        tuple(map(operator.sub, g.slopes, f.slopes))
        for f, g in zip(old.messages.values(), new.messages.values())
    )


def _fingerprint(state: MessageState) -> int:
    """A linear hash of every slope in table order: between tables with
    equal breakpoints (whose pieces line up), equal drifts give equal
    differences of fingerprints."""
    slopes = chain.from_iterable(map(_SLOPES, state.messages.values()))
    return sum(map(operator.mul, cycle(_WEIGHTS), slopes))


def _periods_kept(network: FlowNetwork, old: MessageState, new: MessageState) -> Extended:
    """For how many periods the slope order at every node holds, when
    ``new`` is ``old`` one period later with equal breakpoints.

    At each node of degree 3 or more, the signed slopes of all incoming
    pieces are sorted by their ``old`` values.  Neighbours ``d0`` apart
    there and ``d1`` apart in ``new`` are ``d0 + k * (d1 - d0)`` apart
    after ``k`` periods of the same drift, so a gap that closes stays
    positive for ``k < ceil(d0 / (d0 - d1))``.  Returns the least such
    bound (``POS_INF`` when no gap closes), or 0 when the order already
    differs: a tie that splits, or neighbours that meet or swap.  A node of
    degree 2 adds its one input to the arc cost and compares no slopes.
    """
    kept: Extended = POS_INF
    for node in _plan(network).nodes:
        if len(node.sources) < 3:
            continue
        x0: list[int] = []
        x1: list[int] = []
        for key, sign in zip(node.sources, node.signs):
            x0 += [sign * s for s in old.messages[key].slopes]
            x1 += [sign * s for s in new.messages[key].slopes]
        order = sorted(range(len(x0)), key=x0.__getitem__)
        for i, j in zip(order, order[1:]):
            d0, d1 = x0[j] - x0[i], x1[j] - x1[i]
            if d1 == d0:
                continue
            if d0 == 0 or d1 <= 0:
                return 0
            if d1 < d0:
                kept = min(kept, -(-d0 // (d0 - d1)))
    return kept


class _Orbit(NamedTuple):
    """One period of stepped tables: the table ``k`` periods after phase
    ``j`` is ``phases[j]`` with every slope moved by ``k`` times its drift
    ``drifts[j]``, up to one constant per message, through round ``end``."""

    phases: tuple[MessageState, ...]  # consecutive rounds, one per phase
    drifts: tuple[tuple[tuple[int, ...], ...], ...]  # per phase, message and piece
    end: Extended  # last certified round; POS_INF when the orbit never ends

    def table(self, r: int) -> MessageState:
        periods, j = divmod(r - self.phases[0].round, len(self.phases))
        return MessageState(
            r,
            {
                key: PwlConvex._trusted(
                    f.breakpoints, [s + periods * d for s, d in zip(f.slopes, drift)], f.anchor
                ) if any(drift) else f
                for (key, f), drift in zip(self.phases[j].messages.items(), self.drifts[j])
            },
        )


class _Rounds:
    """The message recursion on one reduced network, stepped on demand
    through the module-level :func:`update_round`.

    Without an ``on_round`` hook, each stepped table is tested against a
    window of the tables stepped since the search (re)started, whose older
    half is dropped at every power of two rounds since then and whenever
    it holds ``_WINDOW`` tables.  The last one with the same breakpoints is
    ``d`` rounds back.

    An orbit is tested at each period ``Q`` a multiple of ``d`` with
    ``2Q + 1`` tables in the window, when the fingerprints of the period
    starts step by equal amounts and the breakpoint hashes repeat in every
    phase.  Every phase keeps its breakpoints over both periods, each
    piece's slope moves by the same integer over both, and the slope order
    at every node holds for :func:`_periods_kept` periods, more than two.
    A round's output is a function of its input modulo constants, and
    canonical, so its breakpoints follow from the input breakpoints and
    those orders, and its slopes are input slopes plus arc-cost slopes:
    the tables stay exact through the certified end.  When each period
    tilts every message into a node by the same signed amount, no slope
    order changes and the orbit has no end.

    Inside the orbit :meth:`advance` builds the target's table from the
    stepped table of its phase, each slope moved along that phase's drift,
    and steps nothing; it never steps past its target.  Past an orbit's
    end the rounds are stepped and searched again.  ``executed`` counts
    the stepped rounds, which a caller may bound.  It returns the table,
    and callers read each arc's minimizer and gap slopes off it
    (:func:`_read_off`), with no belief built.
    """

    def __init__(self, reduced: FlowNetwork, on_round=None):
        self.network = reduced
        self.on_round = on_round
        self.state = MessageState(0, {})  # never read: round 1 is the arc costs
        self.executed = 0
        self.orbit: Optional[_Orbit] = None
        self._counts: dict[int, int] = {}  # total message pieces per table built
        self._windows: list[tuple[int, int, Extended]] = []  # (stepped from, period, end)
        self._search_from(self.state)

    def _search_from(self, state: MessageState) -> None:
        self._origin = state.round
        # the window, oldest first: consecutive stepped tables, with a hash
        # of each one's breakpoints and its _fingerprint once computed
        self._tables: list[MessageState] = []
        self._keys: list[int] = []
        self._prints: list[Optional[int]] = []

    def _built(self, state: MessageState) -> None:
        self.state = state
        self._counts[state.round] = sum(len(m.slopes) for m in state.messages.values())

    def _step(self) -> None:
        if self.state.round:
            self._built(update_round(self.network, self.state))
        else:  # every round-0 message is zero, so round 1 is the arc costs
            plan = _plan(self.network)
            self._built(MessageState(1, dict(zip(plan.keys, plan.costs))))
        self.executed += 1
        if self.on_round is not None:
            self.on_round(self.network, self.state)
        elif self.orbit is None:
            self._search()

    def _search(self) -> None:
        state, tables, keys, prints = self.state, self._tables, self._keys, self._prints
        key = hash(tuple(map(_BREAKPOINTS, state.messages.values())))
        # the last table in the window with the same breakpoints is d back
        d = keys[::-1].index(key) + 1 if key in keys else 0
        t = state.round - self._origin
        tables.append(state)
        keys.append(key)
        prints.append(None)
        f = self._fingerprint_at
        for q in range(d, (len(tables) + 1) // 2, d) if d else ():
            if (
                keys[-2 * q - 1:-q] == keys[-q - 1:]
                and f(-1) - f(-1 - q) == f(-1 - q) - f(-1 - 2 * q)
                and self._drifting(q)
            ):
                return
        if t & (t - 1) == 0 or len(tables) == _WINDOW:
            for column in (tables, keys, prints):
                del column[:len(column) // 2]

    def _fingerprint_at(self, i: int) -> int:
        """:func:`_fingerprint` of window table ``i``, computed once."""
        prints = self._prints
        if prints[i] is None:
            prints[i] = _fingerprint(self._tables[i])
        return prints[i]

    def _drifting(self, q: int) -> bool:
        """Certify an orbit of period ``q`` from the window's tables of
        the last two periods."""
        tables = self._tables[-2 * q - 1:]
        first, mid, state = tables[0], tables[q], tables[-1]
        if not all(map(_same_breakpoints, tables[:q + 1], tables[q:])):
            return False
        if _drift(first, mid) != _drift(mid, state):
            return False
        kept = min(_periods_kept(self.network, tables[p], tables[p + q]) for p in range(q))
        if kept <= 2:  # the first two periods are stepped anyway
            return False
        drifts = tuple(_drift(tables[p], tables[p + q]) for p in range(q))
        self.orbit = _Orbit(tuple(tables[q:-1]), drifts, first.round + kept * q)
        self._windows.append((first.round, q, self.orbit.end))
        return True

    def _land(self, target: int) -> None:
        """Build the orbit's table at ``target``, or at its end if that
        comes first; at the end the orbit is left and the search starts
        over."""
        orbit = self.orbit
        last = min(target, orbit.end)
        if last > self.state.round:
            self._built(orbit.table(last))
        if last == orbit.end:
            self.orbit = None
            self._search_from(self.state)

    def advance(self, target: int, limit: Extended = POS_INF) -> MessageState:
        """The round-``target`` table (``target`` never decreasing), or an
        earlier one once ``executed`` reaches ``limit``, exact up to one
        additive constant per message: callers read only slopes."""
        while self.state.round < target and self.executed < limit:
            if self.orbit is not None:
                self._land(target)
            if self.state.round < target:
                self._step()
        return self.state

    def piece_total(self, r: int) -> int:
        """Total message pieces at round ``r`` (at most the current round):
        of a table built, or of one a whole number of periods back in a
        certified window, whose breakpoints repeat with the period."""
        if r in self._counts:
            return self._counts[r]
        for stepped, period, end in self._windows:
            if stepped <= r <= end:
                return self._counts[stepped + (r - stepped) % period]
        raise ValueError(f"round {r} has not been reached")


def gap_test(
    reduced: FlowNetwork, state: MessageState, threshold: int
) -> tuple[bool, dict[int, int], tuple[int, ...]]:
    """The strict final-belief gap test on the table ``state``, read off
    each arc's two messages (:func:`_read_off`), with the estimate's flows
    and ties (:func:`_minimizers`).

    Uniqueness holds iff for every arc the belief one unit away from its
    smallest minimizer exceeds the minimizer's belief by strictly more than
    ``threshold`` (out-of-domain neighbors are infinitely worse and pass
    vacuously).  Breakpoints are integers, so those two differences are
    the belief's slopes either side of the minimizer, ``-left`` and
    ``right`` (``+inf`` past the domain); only slopes are read, so tables
    known up to additive constants are fine.
    """
    read = _read_off(reduced, state)
    flows, ties = _minimizers(read)
    unique = all(min(-left, right) > threshold for _, left, right in read.values())
    return unique, flows, ties


class UniquenessResult(NamedTuple):
    unique: bool
    assignment: Optional[FlowAssignment]
    rounds_used: int
    executed_rounds: int


def detect_uniqueness(network: FlowNetwork) -> UniquenessResult:
    """Decide whether the instance has a unique optimal flow.

    Runs the message recursion for the uniqueness round budget of the
    reduced instance (negative-cost uncapacitated arcs capped, as in
    :func:`run`) and applies the belief gap test with threshold
    ``n * c_max``.  When unique, the accompanying estimate is the exact
    optimum and is returned merged with any degree-1-forced flows.
    """
    reduced, fixed = preprocess_degree(network)
    reduced = cap_negative_uncapacitated(reduced)
    if reduced.m == 0:
        assignment = make_assignment(network, fixed)
        return UniquenessResult(True, assignment, 0, 0)
    total = iteration_bound(reduced, "uniqueness")
    driver = _Rounds(reduced)
    unique, flows, ties = gap_test(reduced, driver.advance(total), reduced.n * reduced.c_max)
    assignment = make_assignment(network, {**fixed, **flows}, ties) if unique else None
    return UniquenessResult(unique, assignment, total, driver.executed)
