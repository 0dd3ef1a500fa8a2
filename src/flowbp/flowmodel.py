"""Network data model: instances, validation, DIMACS and JSON ingestion,
degree-1 preprocessing, the residual-cycle certificate, the solvability
gate, the exact min-cost-flow solver and iteration bounds.

Everything here is plain integer code with no third-party imports.  An
instance is validated once, where it enters the program: the parsers,
:meth:`FlowNetwork.from_data` and ``FlowNetwork(...)`` check everything,
and the integer-cost shorthand :func:`linear_cost` is built on the trusted
path once its slope and capacity are plain integers.  Networks derived
from a validated one (:func:`preprocess_degree`,
:func:`cap_negative_uncapacitated` and the (1+eps) scheme's perturbation
and arc fixing) keep every invariant, so they are only indexed.

The certificate :func:`min_cycle_cost` is the cheapest genuine residual
cycle at a flow, returned as an extended integer (an int, ``-inf`` or
``+inf``), so its readers decide optimality and uniqueness by comparing it
with 0.  The solvability gate (:func:`check_solvable`, a max-flow by
Dinic's blocking flows plus a negative-cycle test) is what the CLI runs
before message passing, and :func:`min_cost_flow` (successive shortest
paths on the gate's max-flow network, one link per cost piece) is the
package's one exact solver: the (1+eps) scheme and
:func:`oracles.exact_solve` both run on it.

Conventions.  Flow on an arc is bounded by ``0 <= x_e <= u_e`` with
``u_e = None`` meaning unbounded.  Node demands follow the net-supply
convention: ``sum over incident arcs of delta(v, e) * x_e = f_v`` where
``delta`` is +1 for out-arcs and -1 for in-arcs, so a positive ``f_v`` is a
source.  Arc costs are piecewise-linear convex functions defined on exactly
``[0, u_e]``; a plain linear cost is the single-piece special case.
Parallel arcs are permitted and are distinguished by arc id everywhere.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import (
    BadCostDomainError,
    DemandImbalanceError,
    DimacsInconsistentError,
    DimacsSyntaxError,
    ForcedInfeasibleError,
    InfeasibleFlowError,
    InfeasibleInstanceError,
    JsonInstanceError,
    NegativeCapacityError,
    NonZeroLowerBoundError,
    SelfLoopError,
    UnboundedObjectiveError,
)
from .pwl import NEG_INF, POS_INF, PwlConvex

#: Sentinel for an uncapacitated arc (a real value, never a large number).
UNBOUNDED = None

Capacity = Union[int, None]

#: Largest node count a DIMACS ``p min <n> <m>`` line may declare.
#: ``parse_dimacs`` gives every declared node a demand entry, so a larger
#: count is a parse error before anything is allocated.
MAX_DIMACS_NODES = 100_000


class Arc(NamedTuple):
    """A directed arc with integer capacity bounds and a convex cost."""

    id: int
    tail: int
    head: int
    capacity: Capacity
    cost: PwlConvex

    def delta(self, node: int) -> int:
        """+1 if this arc leaves ``node``, -1 if it enters it."""
        if node == self.tail:
            return 1
        if node == self.head:
            return -1
        raise ValueError(f"arc {self.id} is not incident to node {node}")


def linear_cost(slope: int, capacity: Capacity) -> PwlConvex:
    """The cost ``slope * z`` on ``[0, capacity]`` (``None`` = unbounded).

    An integer slope on a capacity that is ``None`` or a positive integer,
    and any slope on a zero capacity, are built on the trusted path with
    their values; any other input goes through the validating
    constructors, which raise on a bad slope or capacity.
    """
    hi = POS_INF if capacity is None else capacity
    if hi == 0:
        return PwlConvex._trusted((0,), (), (0, 0), (0,))
    if type(slope) is int and (capacity is None or type(capacity) is int and capacity > 0):
        return PwlConvex._trusted(
            (0, hi), (slope,), (0, 0), (0, None if capacity is None else slope * capacity)
        )
    return PwlConvex.linear(slope, 0, hi)


def _check_capacity(aid: int, capacity: Capacity) -> None:
    if capacity is not None and (not isinstance(capacity, int) or capacity < 0):
        raise NegativeCapacityError(f"arc {aid} capacity {capacity!r} is not a non-negative integer")


class FlowNetwork:
    """A validated min-cost-flow instance.

    Construction checks every structural invariant (no self-loops, balanced
    demands, costs defined on exactly the capacity interval, non-negative
    integral capacities), then indexes the instance: the arcs by id, the
    node adjacency and the maximum absolute cost slope; the hash is
    computed on first use and kept.  Instances are immutable.  The
    module's transformation helpers derive modified copies of a validated
    instance through :meth:`_trusted`, which only indexes.
    """

    __slots__ = ("demands", "arcs", "arc_by_id", "incident", "c_max", "_hash")

    def __init__(self, demands: Mapping[int, int], arcs: Iterable[Arc]):
        arcs = tuple(arcs)
        for a in arcs:
            _check_capacity(a.id, a.capacity)
        self._check_and_index(dict(demands), arcs)

    @classmethod
    def _trusted(cls, demands: dict[int, int], arcs: tuple[Arc, ...]) -> "FlowNetwork":
        """Index ``demands`` and ``arcs``, which the network owns from now
        on, without checking them: for networks derived from a validated
        one by a change that keeps every invariant."""
        network = object.__new__(cls)
        network._index(demands, arcs)
        return network

    def _check_and_index(self, demands: dict[int, int], arcs: tuple[Arc, ...]) -> None:
        """The checks past each arc's capacity, then :meth:`_index`."""
        for v, f in demands.items():
            if not isinstance(v, int) or isinstance(f, bool) or not isinstance(f, int):
                raise ValueError(f"node ids and demands must be integers: {v}: {f}")
        if sum(demands.values()) != 0:
            raise DemandImbalanceError(f"demands sum to {sum(demands.values())}, not 0")
        ids = set()
        for a in arcs:
            if a.tail == a.head:
                raise SelfLoopError(f"arc {a.id} is a self-loop at node {a.tail}")
            if a.tail not in demands or a.head not in demands:
                raise ValueError(f"arc {a.id} touches an undeclared node")
            if a.id in ids:
                raise ValueError(f"duplicate arc id {a.id}")
            hi = POS_INF if a.capacity is None else a.capacity
            if a.cost.domain != (0, hi):
                raise BadCostDomainError(
                    f"arc {a.id} cost domain {a.cost.domain} != [0, {hi}]"
                )
            ids.add(a.id)
        self._index(demands, arcs)

    def _index(self, demands: dict[int, int], arcs: tuple[Arc, ...]) -> None:
        self.demands = demands
        self.arcs = arcs
        by_id: dict[int, Arc] = {}
        inc: dict[int, list[tuple[Arc, int]]] = {v: [] for v in demands}
        c_max = 0
        for a in arcs:
            by_id[a.id] = a
            inc[a.tail].append((a, 1))
            inc[a.head].append((a, -1))
            sls = a.cost.slopes
            # the slopes increase, so the largest |slope| is at an end
            if sls and (-sls[0] > c_max or sls[-1] > c_max):
                c_max = max(-sls[0], sls[-1])
        self.arc_by_id = by_id
        self.incident = {v: tuple(l) for v, l in inc.items()}
        self.c_max = c_max
        self._hash = None

    # -- convenience construction -------------------------------------------

    @classmethod
    def from_data(
        cls,
        demands: Mapping[int, int],
        arc_specs: Iterable[tuple],
    ) -> "FlowNetwork":
        """Build from ``(id, tail, head, capacity, cost)`` tuples.

        ``cost`` may be a plain integer slope (shorthand for a linear cost
        on ``[0, capacity]``) or a ready :class:`PwlConvex`.  Each
        capacity is checked as its spec is read, before that cost is
        built, so a negative one raises :class:`NegativeCapacityError`
        naming the arc.
        """
        arcs = []
        for aid, tail, head, cap, cost in arc_specs:
            _check_capacity(aid, cap)
            if isinstance(cost, int):
                cost = linear_cost(cost, cap)
            arcs.append(Arc(aid, tail, head, cap, cost))
        network = object.__new__(cls)
        network._check_and_index(dict(demands), tuple(arcs))
        return network

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.demands)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def degree(self, v: int) -> int:
        return len(self.incident[v])

    def is_linear(self) -> bool:
        """True when every arc cost is a single linear piece."""
        return all(a.cost.piece_count <= 1 for a in self.arcs)

    def linear_slope(self, arc: Arc) -> int:
        if arc.cost.piece_count > 1:
            raise ValueError(f"arc {arc.id} has a multi-piece cost")
        return arc.cost.slopes[0] if arc.cost.slopes else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowNetwork):
            return NotImplemented
        return self.demands == other.demands and self.arcs == other.arcs

    def __hash__(self):
        # lru-cached lookups key on the network; hashing every arc's cost
        # function on each lookup would cost a pass over the instance, and
        # most networks (a parsed one, a draw before its reduction) are
        # never hashed at all
        if self._hash is None:
            self._hash = hash((tuple(sorted(self.demands.items())), self.arcs))
        return self._hash

    def __repr__(self) -> str:
        return f"FlowNetwork(n={self.n}, m={self.m}, c_max={self.c_max})"


class FlowAssignment(NamedTuple):
    """An arc-id -> flow map with its objective value.

    ``feasible`` records whether the assignment satisfied all bounds and
    conservation constraints when it was produced; mid-run estimates from
    the message-passing solver may legitimately carry ``feasible=False``.
    ``ties`` lists arcs whose belief was flat at the minimum when the
    assignment came out of the solver (potentially non-unique optimum).
    """

    flows: dict[int, int]
    objective: int
    feasible: bool = True
    ties: tuple[int, ...] = ()


def objective_value(network: FlowNetwork, flows: Mapping[int, int]):
    """Total cost of ``flows`` under the network's own cost functions."""
    total = 0
    for a in network.arcs:
        v = a.cost.evaluate(flows.get(a.id, 0))
        if v == POS_INF:
            return POS_INF
        total += v
    return total


def check_feasible(network: FlowNetwork, flows: Mapping[int, int]) -> bool:
    """Exact bounds-and-conservation check."""
    for a in network.arcs:
        x = flows.get(a.id, 0)
        if x < 0:
            return False
        if a.capacity is not None and x > a.capacity:
            return False
    for v, f in network.demands.items():
        bal = sum(delta * flows.get(a.id, 0) for a, delta in network.incident[v])
        if bal != f:
            return False
    return True


def make_assignment(
    network: FlowNetwork, flows: Mapping[int, int], ties: tuple[int, ...] = ()
) -> FlowAssignment:
    """Package flows with a recomputed objective and feasibility flag, and
    the solver's tied arcs ``ties``."""
    obj = objective_value(network, flows)
    feas = obj != POS_INF and check_feasible(network, flows)
    return FlowAssignment(dict(flows), obj, feas, ties)


# ---------------------------------------------------------------------------
# DIMACS and JSON formats


def parse_dimacs(text: str) -> FlowNetwork:
    """Parse the DIMACS minimum-cost-flow format.

    Recognized lines: ``c`` comments, one ``p min <n> <m>`` header,
    ``n <id> <flow>`` node lines (positive flow = supply; absent nodes get
    zero; a node listed twice is an error), and
    ``a <src> <dst> <low> <cap> <cost>`` arc lines.  Lower bounds must be
    zero.  Arcs receive ids 1..m in file order.  At most
    :data:`MAX_DIMACS_NODES` nodes may be declared.
    """
    header = None
    node_lines: list[tuple[int, int]] = []
    arc_lines: list[tuple[int, int, int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if header is not None:
                    raise DimacsSyntaxError(f"line {lineno}: duplicate problem line")
                if len(parts) != 4 or parts[1] != "min":
                    raise DimacsSyntaxError(f"line {lineno}: expected 'p min <n> <m>'")
                header = (int(parts[2]), int(parts[3]))
                if header[0] > MAX_DIMACS_NODES:
                    raise DimacsSyntaxError(
                        f"line {lineno}: {header[0]} nodes declared, at most "
                        f"{MAX_DIMACS_NODES} supported"
                    )
            elif parts[0] == "n":
                if len(parts) != 3:
                    raise DimacsSyntaxError(f"line {lineno}: expected 'n <id> <flow>'")
                node_lines.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "a":
                if len(parts) != 6:
                    raise DimacsSyntaxError(
                        f"line {lineno}: expected 'a <src> <dst> <low> <cap> <cost>'"
                    )
                arc_lines.append(tuple(map(int, parts[1:])))
            else:
                raise DimacsSyntaxError(f"line {lineno}: unknown descriptor {parts[0]!r}")
        except ValueError as exc:
            raise DimacsSyntaxError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise DimacsSyntaxError("missing 'p min' problem line")
    n, m = header
    if len(arc_lines) != m:
        raise DimacsInconsistentError(f"header declares {m} arcs, found {len(arc_lines)}")
    demands = {v: 0 for v in range(1, n + 1)}
    listed = set()
    for v, f in node_lines:
        if v not in demands:
            raise DimacsInconsistentError(f"node id {v} outside 1..{n}")
        if v in listed:
            raise DimacsInconsistentError(f"node id {v} is listed twice")
        listed.add(v)
        demands[v] = f
    specs = []
    for i, (src, dst, low, cap, cost) in enumerate(arc_lines, start=1):
        if src not in demands or dst not in demands:
            raise DimacsInconsistentError(f"arc {i} endpoint outside 1..{n}")
        if low != 0:
            raise NonZeroLowerBoundError(f"arc {i} has lower bound {low}; only 0 is supported")
        specs.append((i, src, dst, cap, cost))
    return FlowNetwork.from_data(demands, specs)


def emit_dimacs(network: FlowNetwork) -> str:
    """Write the DIMACS form of a linear-cost, finite-capacity instance.

    Node ids must already be 1..n.  Arcs are emitted in id order, so
    ``parse_dimacs(emit_dimacs(net)) == net`` for canonical instances.
    """
    if sorted(network.demands) != list(range(1, network.n + 1)):
        raise ValueError("DIMACS output requires node ids 1..n")
    lines = [f"p min {network.n} {network.m}"]
    for v in sorted(network.demands):
        if network.demands[v] != 0:
            lines.append(f"n {v} {network.demands[v]}")
    for a in sorted(network.arcs, key=lambda a: a.id):
        if a.capacity is None:
            raise ValueError("DIMACS output requires finite capacities")
        lines.append(f"a {a.tail} {a.head} 0 {a.capacity} {network.linear_slope(a)}")
    return "\n".join(lines) + "\n"


INSTANCE_SCHEMA = "flowbp-instance-1"


def network_to_json_dict(network: FlowNetwork) -> dict:
    """Canonical JSON form; covers unbounded capacities and PWL costs."""
    arcs = []
    for a in sorted(network.arcs, key=lambda a: a.id):
        cost = (
            network.linear_slope(a)
            if a.cost.piece_count <= 1 and a.cost.evaluate(0) == 0
            else a.cost.to_json_dict()
        )
        arcs.append(
            {
                "id": a.id,
                "tail": a.tail,
                "head": a.head,
                "capacity": a.capacity,
                "cost": cost,
            }
        )
    return {
        "schema": INSTANCE_SCHEMA,
        "nodes": [
            {"id": v, "demand": network.demands[v]} for v in sorted(network.demands)
        ],
        "arcs": arcs,
    }


def _field(obj, key: str, kinds: tuple, where: str):
    """``obj[key]``, checked to exist and to be one of ``kinds`` (never a bool)."""
    if not isinstance(obj, dict):
        raise JsonInstanceError(f"{where} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise JsonInstanceError(f"{where} lacks {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise JsonInstanceError(f"{where} {key!r} has the wrong type: {value!r}")
    return value


def network_from_json_dict(d: dict) -> FlowNetwork:
    """Read the canonical JSON form; a missing or mistyped field, or a node
    id listed twice, raises :class:`JsonInstanceError`."""
    demands = {}
    for nd in _field(d, "nodes", (list,), "instance"):
        v = _field(nd, "id", (int,), "node")
        if v in demands:
            raise JsonInstanceError(f"node id {v} is listed twice")
        demands[v] = _field(nd, "demand", (int,), "node")
    specs = []
    for ad in _field(d, "arcs", (list,), "instance"):
        aid, tail, head = (_field(ad, k, (int,), "arc") for k in ("id", "tail", "head"))
        capacity = _field(ad, "capacity", (int, type(None)), "arc")
        cost = _field(ad, "cost", (int, dict), "arc")
        if isinstance(cost, dict):
            for k in ("breakpoints", "slopes", "anchor"):
                _field(cost, k, (list,), "arc cost")
            if len(cost["anchor"]) != 2:
                raise JsonInstanceError(f"arc cost anchor {cost['anchor']!r} is not a pair")
            cost = PwlConvex.from_json_dict(cost)
        specs.append((aid, tail, head, capacity, cost))
    return FlowNetwork.from_data(demands, specs)


# ---------------------------------------------------------------------------
# Degree-1 preprocessing


def preprocess_degree(network: FlowNetwork) -> tuple[FlowNetwork, dict[int, int]]:
    """Eliminate forced structure until every node has degree >= 2.

    Isolated nodes are dropped (their demand must be zero) and the single
    arc at a degree-1 node carries a forced flow determined by the node's
    demand; the opposite endpoint's demand is adjusted and the arc removed.
    Returns the reduced network and the map of forced arc flows.  Raises
    :class:`ForcedInfeasibleError` when a forced flow violates its bounds
    or an isolated node keeps nonzero demand.

    A network with no node of degree below 2 whose arcs are in id order
    is its own reduction, the one the rebuild would index, and is
    returned as it is.
    """
    arcs = network.arcs
    if all(len(inc) > 1 for inc in network.incident.values()) and all(
        a.id < b.id for a, b in zip(arcs, arcs[1:])
    ):
        return network, {}
    demands = dict(network.demands)
    alive: dict[int, Arc] = dict(network.arc_by_id)
    incident: dict[int, set[int]] = {v: set() for v in demands}
    for a in network.arcs:
        incident[a.tail].add(a.id)
        incident[a.head].add(a.id)
    fixed: dict[int, int] = {}
    queue = [v for v, ids in incident.items() if len(ids) <= 1]
    while queue:
        v = queue.pop()
        if v not in incident or len(incident[v]) > 1:
            continue
        if not incident[v]:
            if demands[v] != 0:
                raise ForcedInfeasibleError(
                    f"isolated node {v} has nonzero demand {demands[v]}"
                )
            del incident[v]
            del demands[v]
            continue
        (aid,) = incident[v]
        arc = alive.pop(aid)
        x = arc.delta(v) * demands[v]
        hi = POS_INF if arc.capacity is None else arc.capacity
        if not (0 <= x <= hi):
            raise ForcedInfeasibleError(
                f"degree-1 node {v} forces flow {x} on arc {aid} outside [0, {hi}]"
            )
        fixed[aid] = x
        w = arc.head if v == arc.tail else arc.tail
        demands[w] -= arc.delta(w) * x
        del incident[v]
        del demands[v]
        incident[w].discard(aid)
        if len(incident[w]) <= 1:
            queue.append(w)
    reduced = FlowNetwork._trusted(demands, tuple(alive[aid] for aid in sorted(alive)))
    return reduced, fixed


# ---------------------------------------------------------------------------
# The residual-cycle certificate


def _relax(dist: dict, edges, passes: int) -> bool:
    """Bellman-Ford: up to ``passes`` rounds of relaxing ``(tail, head,
    cost)`` edges into ``dist`` in place, stopping after a round that
    changes nothing.  Returns whether the last round still changed a
    distance (never after zero rounds).  Nodes at ``+inf`` are skipped:
    adding a big integer cost to a float infinity overflows."""
    changed = False
    for _ in range(passes):
        changed = False
        for tail, head, cost in edges:
            d = dist[tail]
            if d != POS_INF and d + cost < dist[head]:
                dist[head] = d + cost
                changed = True
        if not changed:
            break
    return changed


def _has_negative_cycle(nodes, edges) -> bool:
    """Whether ``(tail, head, cost)`` edges over ``nodes`` close a
    negative-cost directed cycle.  Relaxation from an implicit super-source
    joined to every node at cost 0 settles within ``len(nodes) - 1``
    rounds unless they do, so round ``len(nodes)`` still changes a
    distance exactly then."""
    return _relax(dict.fromkeys(nodes, 0), edges, len(nodes))


def min_cycle_cost(network: FlowNetwork, flows: Mapping[int, int]):
    """The residual-cycle certificate of a feasible flow, as an extended
    integer: the minimum cost of a genuine directed residual cycle, ``-inf``
    when some genuine cycle is negative (the flow is not optimal) and
    ``+inf`` when there is none.  So ``< 0`` reads "not optimal", ``== 0``
    "optimal but tied" and ``> 0`` "the unique optimum".

    Arc ``i`` of ``network.arcs`` has a forward residual copy ``2 * i``
    where its flow can still increase, priced at the cost's right
    derivative, and a backward copy ``2 * i + 1`` where it can decrease,
    priced at minus the left derivative (``c_e`` and ``-c_e`` for linear
    costs).  The two copies of one arc move the same flow in opposite
    directions, so a "cycle" of exactly that pair changes nothing: the
    cheapest cycle through copy ``e`` is ``e`` plus the cheapest return
    path that avoids its twin ``e ^ 1``.  Raises
    :class:`InfeasibleFlowError` on an infeasible flow.
    """
    if not check_feasible(network, flows):
        raise InfeasibleFlowError("flow violates bounds or conservation")
    copies: dict[int, tuple[int, int, int]] = {}
    for i, a in enumerate(network.arcs):
        x = flows.get(a.id, 0)
        if x < (POS_INF if a.capacity is None else a.capacity):
            copies[2 * i] = (a.tail, a.head, a.cost.right_derivative(x))
        if x > 0:
            copies[2 * i + 1] = (a.head, a.tail, -a.cost.left_derivative(x))
    # Negative closed walks always contain a genuine negative cycle because
    # same-arc pairs never have negative total cost (convexity), so plain
    # relaxation detects exactly them.
    if _has_negative_cycle(network.demands, copies.values()):
        return NEG_INF
    best = POS_INF
    for e, (tail, head, cost) in copies.items():
        dist = dict.fromkeys(network.demands, POS_INF)
        dist[head] = 0
        _relax(dist, [c for f, c in copies.items() if f != e ^ 1], network.n - 1)
        if dist[tail] != POS_INF:
            best = min(best, dist[tail] + cost)
    return best


# ---------------------------------------------------------------------------
# Max-flow, min-cost flow and the solvability gate


class _Residual:
    """The residual network of ``links`` over the nodes of ``demands``,
    with a super-source joined to every supply node and a super-sink
    joined from every demand node, each link carrying that node's demand.

    A link ``(tail, head, capacity, cost, flow)`` starts with ``flow``
    units on it.  Residual edge ``e`` runs to ``head[e]`` with capacity
    ``cap[e]`` and cost ``cost[e]``, and ``e ^ 1`` is its reverse, so link
    ``k`` is edge ``2 * k`` and carries flow ``cap[2 * k + 1]``.

    The solvability gate sends a maximum flow by :meth:`blocking_flows`
    (Dinic), which reads no costs; :func:`min_cost_flow` sends a cheapest
    one by :meth:`augment` along shortest paths.
    """

    def __init__(self, demands: Mapping[int, int], links):
        slot = {v: i for i, v in enumerate(demands)}
        self.source, self.sink = len(slot), len(slot) + 1
        self.adj: list[list[int]] = [[] for _ in range(len(slot) + 2)]
        self.head: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.potential = [0] * len(self.adj)
        for tail, head, cap, cost, flow in links:
            self._link(slot[tail], slot[head], cap, cost, flow)
        for v, f in demands.items():
            if f > 0:
                self._link(self.source, slot[v], f, 0, 0)
            elif f < 0:
                self._link(slot[v], self.sink, -f, 0, 0)
        self.supply = _supply(demands)

    def _link(self, u: int, v: int, c: int, cost: int, flow: int) -> None:
        e = len(self.head)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)
        self.head += (v, u)
        self.cap += (c - flow, flow)
        self.cost += (cost, -cost)

    def blocking_flows(self) -> int:
        """A maximum flow from the source to the sink by Dinic's blocking
        flows; returns the units sent (at most ``supply``, the room out of
        the source).

        Each phase labels every node with its breadth-first distance from
        the source over edges with room, then sends a blocking flow along
        edges that climb exactly one level: a depth-first walk keeps a
        cursor into each node's edges, past the edges it has found full or
        leading to a dead end, and steps back from a node whose cursor runs
        out (pruning it for the rest of the phase).  Every phase lengthens
        the shortest path to the sink, so there are fewer phases than
        nodes.
        """
        adj, head, cap, source, sink = self.adj, self.head, self.cap, self.source, self.sink
        total = 0
        while True:
            level = [-1] * len(adj)
            level[source] = 0
            frontier = [source]
            while frontier and level[sink] < 0:
                reached = []
                for u in frontier:
                    up = level[u] + 1
                    for e in adj[u]:
                        w = head[e]
                        if cap[e] and level[w] < 0:
                            level[w] = up
                            reached.append(w)
                frontier = reached
            if level[sink] < 0:
                return total
            cursor = [0] * len(adj)
            path: list[int] = []  # the edges from the source to u
            u = source
            while True:
                if u == sink:
                    push = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= push
                        cap[e ^ 1] += push
                    total += push
                    path.clear()
                    u = source
                edges, i = adj[u], cursor[u]
                up = level[u] + 1
                while i < len(edges) and not (cap[edges[i]] and level[head[edges[i]]] == up):
                    i += 1
                cursor[u] = i
                if i < len(edges):
                    path.append(edges[i])
                    u = head[edges[i]]
                elif path:  # a dead end: step back past the edge into it
                    u = head[path.pop() ^ 1]
                    cursor[u] += 1
                else:
                    break

    def cheapest(self) -> dict[int, int]:
        """Shortest-path tree from the source under non-negative edge
        costs: Dijkstra on the costs reduced by ``potential``, which then
        absorbs the distances, so every residual edge among the reached
        nodes keeps a non-negative reduced cost after augmenting along a
        shortest path (nodes not reached now are never reached later)."""
        pot, head, cap, cost = self.potential, self.head, self.cap, self.cost
        dist = {self.source: 0}
        via = {self.source: -1}
        done = set()
        heap = [(0, self.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for e in self.adj[u]:
                w = head[e]
                if cap[e] and w not in done:
                    nd = d + cost[e] + pot[u] - pot[w]
                    if nd < dist.get(w, POS_INF):
                        dist[w] = nd
                        via[w] = e
                        heapq.heappush(heap, (nd, w))
        for v, d in dist.items():
            pot[v] += d
        return via

    def augment(self) -> int:
        """Successive shortest paths: push flow from the source along the
        path to the sink in each :meth:`cheapest` tree, until ``supply``
        units are sent or the sink is cut off; returns the units sent."""
        cap, head = self.cap, self.head
        total = 0
        while total < self.supply:
            via = self.cheapest()
            if self.sink not in via:
                break
            path = []
            w = self.sink
            while w != self.source:
                path.append(via[w])
                w = head[via[w] ^ 1]
            push = min(cap[e] for e in path)
            for e in path:
                cap[e] -= push
                cap[e ^ 1] += push
            total += push
        return total


def _supply(demands: Mapping[int, int]) -> int:
    return sum(f for f in demands.values() if f > 0)


def flow_bound(network: FlowNetwork) -> int:
    """``U = supply + every finite capacity + each uncapacitated cost's
    last finite breakpoint + 1``: on an instance with an optimum, some
    optimal flow stays below ``U`` on every uncapacitated arc.  So capping
    them at ``U`` keeps the optimum, a unique one stays unique, and a tie
    stays tied (the ``+ 1`` leaves room for its zero-cost cycle).

    Proof sketch: decompose an optimal flow of least total flow into paths
    and cycles.  The paths carry at most the supply.  Cancelling a cycle
    must raise the cost, so each cycle's left derivatives sum below 0.
    Cycles through a finite arc carry at most its capacity.  A cycle of
    uncapacitated arcs alone has an arc at or below its last breakpoint,
    else it would cost the last slopes, ``>= 0`` by :func:`check_solvable`;
    so such cycles carry at most the sum of the last breakpoints.
    """
    return (
        _supply(network.demands)
        + sum(a.capacity for a in network.arcs if a.capacity is not None)
        + sum(a.cost.breakpoints[-2] for a in network.arcs if a.capacity is None)
        + 1
    )


def cap_negative_uncapacitated(network: FlowNetwork) -> FlowNetwork:
    """``network`` with every uncapacitated arc whose cost ends on a
    negative slope capped at :func:`flow_bound`, which keeps the optimum
    and whether it is unique.  Without the cap, such arcs let the message
    recursion push unbounded flow out along one and back along another,
    and a message is ``-inf`` everywhere."""
    capped = {
        a.id for a in network.arcs
        if a.capacity is None and a.cost.slopes and a.cost.slopes[-1] < 0
    }
    if not capped:
        return network
    bound = flow_bound(network)
    return FlowNetwork._trusted(dict(network.demands), tuple(
        Arc(a.id, a.tail, a.head, bound,
            PwlConvex(a.cost.breakpoints[:-1] + (bound,), a.cost.slopes, a.cost.anchor))
        if a.id in capped else a
        for a in network.arcs
    ))


def min_cost_flow(network: FlowNetwork) -> dict[int, int]:
    """An optimal flow of an instance that passes :func:`check_solvable`,
    by successive shortest paths through :class:`_Residual`; raises
    :class:`InfeasibleInstanceError` when the demands cannot be met.

    Each cost piece is one link at its slope (exact by convexity), an
    uncapacitated arc's last one ending at :func:`flow_bound`.  Negative
    pieces start saturated, the demands moved to match, so every edge with
    room costs ``>= 0`` and the Dijkstra potentials start at 0.  Linear
    non-negative costs give one link per arc, in arc order.
    """
    bound = flow_bound(network)
    demands = dict(network.demands)
    links, owners = [], []
    for a in network.arcs:
        bks = a.cost.breakpoints
        for i, slope in enumerate(a.cost.slopes):
            span = (bound if bks[i + 1] == POS_INF else bks[i + 1]) - bks[i]
            flow = span if slope < 0 else 0
            demands[a.tail] -= flow
            demands[a.head] += flow
            links.append((a.tail, a.head, span, slope, flow))
            owners.append(a.id)
    residual = _Residual(demands, links)
    if residual.augment() < residual.supply:
        raise InfeasibleInstanceError("no flow satisfies all node demands")
    flows = dict.fromkeys(network.arc_by_id, 0)
    for k, aid in enumerate(owners):
        flows[aid] += residual.cap[2 * k + 1]
    return flows


def check_solvable(network: FlowNetwork) -> None:
    """Raise unless the instance has an optimal flow.

    :class:`InfeasibleInstanceError` when no flow meets the demands (a
    max-flow from the supply to the demand nodes, by Dinic's blocking
    flows in :meth:`_Residual.blocking_flows`, falls short; uncapacitated
    arcs take the total supply as their capacity);
    :class:`UnboundedObjectiveError` when a feasible instance's
    uncapacitated arcs, priced at their last slope, close a negative cycle,
    around which flow can grow without bound.  Without such a cycle the
    objective is bounded below, so an optimum exists.  The messages are
    networkx's, whose network simplex the test suite checks the gate
    against.
    """
    supply = _supply(network.demands)
    if network.m == 0:
        if supply:
            raise InfeasibleInstanceError("nonzero demand with no arcs")
        return
    residual = _Residual(network.demands, [
        (a.tail, a.head, supply if a.capacity is None else a.capacity, 0, 0)
        for a in network.arcs
    ])
    if residual.blocking_flows() < supply:
        raise InfeasibleInstanceError("no flow satisfies all node demands")
    free = [(a.tail, a.head, a.cost.slopes[-1]) for a in network.arcs if a.capacity is None]
    if _has_negative_cycle({v for tail, head, _ in free for v in (tail, head)}, free):
        raise UnboundedObjectiveError("negative cycle with infinite capacity found")


# ---------------------------------------------------------------------------
# Iteration bounds


def iteration_bound(network: FlowNetwork, mode: str) -> int:
    """Round budget for the message-passing solver on integral data.

    ``uniqueness`` is the budget under which the final-belief gap test is a
    complete uniqueness detector: ``n^2 * c_max + n``.  ``convergence`` is
    the budget guaranteeing the estimate equals a unique optimum:
    ``(floor(L/2) + 1) * n`` with the path-cost surrogate
    ``L = (n - 1) * c_max`` and the integral-data cycle gap lower bound 1.
    """
    n, c = network.n, network.c_max
    if mode == "uniqueness":
        return n * n * c + n
    if mode == "convergence":
        return ((n - 1) * c // 2 + 1) * n
    raise ValueError(f"unknown mode {mode!r}")
