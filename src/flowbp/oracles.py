"""Independent ground-truth machinery.

This module supplies the references the solver is validated against: an
exact min-cost-flow solver (the solvability gate, then the integer
successive-shortest-paths solver :func:`flowmodel.min_cost_flow`, its
result checked by the residual-cycle certificate), an exhaustive
integral-flow enumerator for tiny instances, a uniqueness oracle based on
residual cycle costs, and the breadth-first computation tree whose exact
optimum the message-passing beliefs must reproduce.

None of it reuses the message-passing machinery: the tree problems are
solved by a plain integer dynamic program so the two routes stay
independent.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .errors import (
    BudgetExceededError,
    NotOptimalError,
    ResultCheckError,
    SizeBudgetError,
)
from .flowmodel import (
    FlowAssignment,
    FlowNetwork,
    check_solvable,
    make_assignment,
    min_cost_flow,
    min_cycle_cost,
)
from .pwl import POS_INF

ENUM_BUDGET = 10**7
TREE_BUDGET = 10**5


# ---------------------------------------------------------------------------
# Exact reference solver


def exact_solve(network: FlowNetwork) -> FlowAssignment:
    """An exact optimal integral flow.

    Raises :class:`InfeasibleInstanceError` when no feasible flow exists and
    :class:`UnboundedObjectiveError` when negative-cost structure with
    unbounded capacity makes the objective unbounded below (both from
    :func:`flowmodel.check_solvable`, before the solver runs), and
    :class:`ResultCheckError` when the solver's flow is infeasible or has
    a negative residual cycle.
    """
    check_solvable(network)
    out = make_assignment(network, min_cost_flow(network))
    if not out.feasible or min_cycle_cost(network, out.flows) < 0:
        raise ResultCheckError("the exact solver's flow is infeasible or not optimal")
    return out


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def enumerate_integral_flows(network: FlowNetwork) -> list[FlowAssignment]:
    """All feasible integral flows, cheapest first.

    Brute force with early conservation pruning; the product of
    ``capacity + 1`` over all arcs must stay within ``ENUM_BUDGET``.
    """
    size = 1
    for a in network.arcs:
        if a.capacity is None:
            raise BudgetExceededError("enumeration needs finite capacities")
        size *= a.capacity + 1
        if size > ENUM_BUDGET:
            raise BudgetExceededError(f"search space exceeds budget {ENUM_BUDGET}")
    arcs = list(network.arcs)
    last_touch: dict[int, int] = {}
    for i, a in enumerate(arcs):
        last_touch[a.tail] = i
        last_touch[a.head] = i
    balance = {v: 0 for v in network.demands}
    results: list[dict[int, int]] = []

    def rec(i: int):
        if i == len(arcs):
            results.append({a.id: x for a, x in zip(arcs, chosen)})
            return
        a = arcs[i]
        for x in range(a.capacity + 1):
            balance[a.tail] += x
            balance[a.head] -= x
            chosen.append(x)
            ok = True
            for v in (a.tail, a.head):
                if last_touch[v] == i and balance[v] != network.demands[v]:
                    ok = False
            if ok:
                rec(i + 1)
            chosen.pop()
            balance[a.tail] -= x
            balance[a.head] += x

    chosen: list[int] = []
    # nodes with no incident arcs must balance on their own
    if any(network.demands[v] != 0 for v in network.demands if v not in last_touch):
        return []
    rec(0)
    out = [make_assignment(network, f) for f in results]
    out.sort(key=lambda fa: (fa.objective, sorted(fa.flows.items())))
    return out


# ---------------------------------------------------------------------------
# Uniqueness oracle


def is_unique_optimum(network: FlowNetwork, flows: Mapping[int, int]) -> bool:
    """Whether ``flows`` is the unique optimum: whether its residual-cycle
    certificate (:func:`flowmodel.min_cycle_cost`) is positive.

    ``flows`` must already be optimal: a negative certificate raises
    :class:`NotOptimalError`.  A zero-cost genuine residual cycle certifies
    an alternative optimum; otherwise every other feasible flow costs
    strictly more.
    """
    if isinstance(flows, FlowAssignment):
        flows = flows.flows
    gap = min_cycle_cost(network, flows)
    if gap < 0:
        raise NotOptimalError("flow admits a negative residual cycle")
    return gap > 0


# ---------------------------------------------------------------------------
# Computation trees


class TreeVertex(NamedTuple):
    id: int
    orig: int
    parent: int | None
    parent_arc: int | None  # tree-arc id toward the parent
    level: int


class TreeArc(NamedTuple):
    id: int
    orig: int  # original arc id
    tail: int  # tree vertex ids, orientation copied from the original arc
    head: int


class ComputationTree(NamedTuple):
    """Depth-``depth`` breadth-first unwrapping of the graph around an arc.

    The root arc joins two level-0 copies of its original endpoints, which
    are mutual parents.  Every other vertex has one child per original arc
    incident to its image except the arc it was reached through, with tree
    arcs copying the original orientation.  Conservation holds at interior
    vertices only (levels strictly below ``depth``).
    """

    network: FlowNetwork
    depth: int
    vertices: tuple[TreeVertex, ...]
    arcs: tuple[TreeArc, ...]

    @property
    def root_arc(self) -> TreeArc:
        return self.arcs[0]

    def interior(self, vertex: TreeVertex) -> bool:
        return vertex.level < self.depth


def build_tree(network: FlowNetwork, arc_id: int, depth: int) -> ComputationTree:
    """Construct the computation tree of ``arc_id`` to the given depth, of
    at most ``TREE_BUDGET`` vertices."""
    root = network.arc_by_id[arc_id]
    vertices = [
        TreeVertex(0, root.tail, 1, 0, 0),
        TreeVertex(1, root.head, 0, 0, 0),
    ]
    arcs = [TreeArc(0, arc_id, 0, 1)]
    frontier = [vertices[0], vertices[1]]
    for level in range(1, depth + 1):
        nxt = []
        for u in frontier:
            through = arcs[u.parent_arc].orig
            for a, delta in network.incident[u.orig]:
                if a.id == through:
                    continue
                child = TreeVertex(len(vertices), a.head if delta == 1 else a.tail,
                                   u.id, len(arcs), level)
                vertices.append(child)
                if len(vertices) > TREE_BUDGET:
                    raise SizeBudgetError(f"computation tree exceeds {TREE_BUDGET} vertices")
                if delta == 1:
                    arcs.append(TreeArc(len(arcs), a.id, u.id, child.id))
                else:
                    arcs.append(TreeArc(len(arcs), a.id, child.id, u.id))
                nxt.append(child)
        frontier = nxt
    return ComputationTree(network, depth, tuple(vertices), tuple(arcs))


def _tree_tables(tree: ComputationTree) -> tuple[dict, dict]:
    """Bottom-up value tables for both sides of the root arc.

    For every non-root vertex ``u`` the table maps each feasible flow value
    ``y`` on the arc toward ``u``'s parent to the exact minimum cost of the
    subtree hanging below ``u`` (excluding that arc's own cost), honoring
    conservation at interior vertices.

    Arcs reaching the deepest level are *free*: no cost and no bounds.
    The depth-limited problem mirrors what the message recursion has seen
    after that many rounds, and the initial all-zero messages carry neither
    the costs nor the capacities of the arcs one step beyond the horizon.
    A free child therefore absorbs any conservation residual at its parent,
    making that parent's constraint vacuous while the remaining children
    simply minimize their own subtrees.  Plain integer DP, children first.
    """
    net = tree.network
    children: dict[int, list[tuple[TreeArc, TreeVertex]]] = {v.id: [] for v in tree.vertices}
    for ta in tree.arcs[1:]:
        child = tree.vertices[ta.tail if tree.vertices[ta.tail].parent_arc == ta.id else ta.head]
        parent_id = child.parent
        children[parent_id].append((ta, child))

    mu: dict[int, dict[int, int]] = {}

    def subtree_min(ta: TreeArc, child: TreeVertex):
        arc = net.arc_by_id[ta.orig]
        best = POS_INF
        sub = mu[child.id]
        for x in range(arc.capacity + 1):
            if x in sub:
                best = min(best, arc.cost.evaluate(x) + sub[x])
        return best

    def combine(u: TreeVertex):
        """Signed-sum table over the priced children of ``u``, or a
        constant (``None`` table) when a free child voids conservation."""
        priced = [(ta, c) for ta, c in children[u.id] if c.level < tree.depth]
        free = [(ta, c) for ta, c in children[u.id] if c.level >= tree.depth]
        for ta, _ in priced:
            if net.arc_by_id[ta.orig].capacity is None:
                raise BudgetExceededError("tree DP needs finite capacities")
        if free:
            const = 0
            for ta, c in priced:
                const += subtree_min(ta, c)
            return None, const
        table = {0: 0}
        for ta, child in priced:
            arc = net.arc_by_id[ta.orig]
            delta = 1 if ta.tail == u.id else -1
            sub = mu[child.id]
            new: dict[int, int] = {}
            for s, acc in table.items():
                for x in range(arc.capacity + 1):
                    if x not in sub:
                        continue
                    v = acc + arc.cost.evaluate(x) + sub[x]
                    key = s + delta * x
                    if v < new.get(key, POS_INF):
                        new[key] = v
            table = new
        return table, 0

    for u in sorted(tree.vertices[2:], key=lambda t: -t.level):
        if not tree.interior(u):
            continue  # free leaves never contribute a table
        ta = tree.arcs[u.parent_arc]
        arc = net.arc_by_id[ta.orig]
        if arc.capacity is None:
            raise BudgetExceededError("tree DP needs finite capacities")
        delta_u = 1 if ta.tail == u.id else -1
        table, const = combine(u)
        f = net.demands[u.orig]
        if table is None:
            mu[u.id] = {y: const for y in range(arc.capacity + 1)} if const != POS_INF else {}
        else:
            mu[u.id] = {
                y: table[f - delta_u * y]
                for y in range(arc.capacity + 1)
                if f - delta_u * y in table
            }

    sides = {}
    root = tree.arcs[0]
    cap = net.arc_by_id[root.orig].capacity
    if cap is None:
        raise BudgetExceededError("tree DP needs finite capacities")
    for vid in (0, 1):
        u = tree.vertices[vid]
        if not tree.interior(u):
            sides[vid] = None  # no conservation constraint at this end
            continue
        table, const = combine(u)
        if table is None:
            sides[vid] = (
                {z: const for z in range(cap + 1)} if const != POS_INF else {}
            )
        else:
            delta_u = 1 if root.tail == u.id else -1
            f = net.demands[u.orig]
            sides[vid] = {
                z: table[f - delta_u * z]
                for z in range(cap + 1)
                if f - delta_u * z in table
            }
    return sides[0], sides[1]


def tree_solve(tree: ComputationTree, root_flow: int):
    """Exact optimum of the tree problem with the root arc's flow fixed.

    Returns an integer, or ``+inf`` when no feasible completion exists
    (including a root flow outside the arc's bounds).
    """
    root = tree.network.arc_by_id[tree.root_arc.orig]
    phi = root.cost.evaluate(root_flow)
    if phi == POS_INF:
        return POS_INF
    tail_side, head_side = _tree_tables(tree)
    total = phi
    for side in (tail_side, head_side):
        if side is None:
            continue
        if root_flow not in side:
            return POS_INF
        total += side[root_flow]
    return total
