"""Combinatorial search engines.

Connection graphs are weighted bipartite trees encoding genus-zero flat
surfaces with one cone point and only half-infinite cylinders; they serve
both as a brute-force oracle against the closed-form decider and as the
witness source for collinear residue tuples.  Stable configurations extend
the picture to several zeros (trees of single-zero pieces joined at simple
poles with opposite residues) and, with arbitrary component genera and
multigraphs, to disjoint-cylinder questions on holomorphic strata.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .core import (
    NON_COLLINEAR,
    PrimitiveRay,
    QQi,
    Rat,
    StratumSignature,
    collinear_normal_form,
    validate_residues,
    validate_stratum,
)
from . import decide

Vertex = tuple[str, int]  # ("+", k) or ("-", k), k an index within its side


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of budget before concluding."""


@dataclass(frozen=True)
class ConnectionGraph:
    """A weighted bipartite tree with positive weights on both sides.

    Edges join plus-side to minus-side vertices.  Vertices keep stable
    identities across leaf removals, so weights are stored per vertex id.
    """

    vertices: tuple[Vertex, ...]
    weights: tuple[Fraction, ...]
    edges: tuple[tuple[Vertex, Vertex], ...]

    @classmethod
    def from_sides(
        cls,
        plus: Sequence[Rat],
        minus: Sequence[Rat],
        edge_pairs: Sequence[tuple[int, int]],
    ) -> "ConnectionGraph":
        """Build from plus/minus weight lists and (plus index, minus index) edges."""
        vertices = tuple(("+", i) for i in range(len(plus))) + tuple(
            ("-", j) for j in range(len(minus))
        )
        weights = tuple(Fraction(w) for w in plus) + tuple(Fraction(w) for w in minus)
        edges = tuple((("+", i), ("-", j)) for i, j in edge_pairs)
        return cls(vertices, weights, edges)

    def weight(self, v: Vertex) -> Fraction:
        return self.weights[self.vertices.index(v)]

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return tuple(out)

    def leaves(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if len(self.neighbors(v)) == 1)

    def is_tree(self) -> bool:
        index = {v: k for k, v in enumerate(self.vertices)}
        if len(self.edges) != len(index) - 1 or not all(v in index for e in self.edges for v in e):
            return False
        return _connected(len(index), [(index[a], index[b]) for a, b in self.edges])

    def is_bipartite(self) -> bool:
        return all(a[0] == "+" and b[0] == "-" for a, b in self.edges)


def leaf_removal(graph: ConnectionGraph, leaf: Vertex) -> ConnectionGraph:
    """Remove a leaf and subtract its weight from its unique neighbor.

    The resulting weight may be zero or negative; it is the connection-graph
    test, not this operation, that demands positivity.
    """
    nbs = graph.neighbors(leaf)
    if len(nbs) != 1:
        raise ValueError(f"{leaf} is not a leaf (degree {len(nbs)})")
    nb = nbs[0]
    w_leaf = graph.weight(leaf)
    vertices = []
    weights = []
    for v, w in zip(graph.vertices, graph.weights):
        if v == leaf:
            continue
        vertices.append(v)
        weights.append(w - w_leaf if v == nb else w)
    edges = tuple(e for e in graph.edges if leaf not in e)
    return ConnectionGraph(tuple(vertices), tuple(weights), edges)


def is_connection_graph(graph: ConnectionGraph) -> bool:
    """Test the leaf-removal condition.

    A valid graph keeps all weights strictly positive through every sequence
    of leaf removals.  After any removals a vertex weighs the sum of the flows
    on its remaining edges, so this holds exactly when the side totals
    balance and every edge flow is positive (see :func:`_flows_positive`).
    Raises ValueError for inputs that are not bipartite trees.
    """
    if not graph.is_tree():
        raise ValueError("connection graphs must be trees")
    if not graph.is_bipartite():
        raise ValueError("edges must join the plus side to the minus side")
    position: dict[Vertex, int] = {}
    plus: list[Fraction] = []
    minus: list[Fraction] = []
    for v, w in zip(graph.vertices, graph.weights):
        side = plus if v[0] == "+" else minus
        position[v] = len(side)
        side.append(w)
    pairs = [(position[a], position[b]) for a, b in graph.edges]
    return _flows_positive(plus, minus, pairs)


def _flows_positive(
    plus: Sequence[Fraction], minus: Sequence[Fraction], pairs: Sequence[tuple[int, int]]
) -> bool:
    """Balanced side totals and a positive flow on every edge of the tree.

    ``pairs`` are the (plus index, minus index) edges of a spanning tree.
    The flow across an edge is the plus-side total minus the minus-side
    total of the part of the tree on its plus end: the weight a leaf carries
    when it is removed across that edge, and the gluing length
    :func:`removal_order` assigns.
    """
    offset = len(plus)
    net = list(plus) + [-w for w in minus]
    adjacency: list[list[int]] = [[] for _ in net]
    for i, j in pairs:
        adjacency[i].append(offset + j)
        adjacency[offset + j].append(i)
    order, parent = _rooted(adjacency)
    for v in reversed(order[1:]):
        # The part below v has signed total net[v] and, with balanced sides,
        # the part above it -net[v]; an unbalanced tree fails either way.
        if (net[v] if v < offset else -net[v]) <= 0:
            return False
        net[parent[v]] += net[v]
    return bool(pairs) and net[0] == 0


def _rooted(adjacency: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """A tree's vertices in breadth-first order from vertex 0, and their parents.

    Summing each vertex into its parent in reverse order gives subtree totals.
    """
    parent = [-1] * len(adjacency)
    order = [0]
    for v in order:
        for u in adjacency[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    return order, parent


def _prufer_decode(seq: tuple[int, ...], m: int) -> tuple[tuple[int, int], ...]:
    # Standard decode: repeatedly attach the smallest available leaf.
    import heapq

    avail = [1] * m
    for x in seq:
        avail[x] += 1
    edges = []
    heap = [v for v in range(m) if avail[v] == 1]
    heapq.heapify(heap)
    for x in seq:
        v = heapq.heappop(heap)
        edges.append((min(v, x), max(v, x)))
        avail[x] -= 1
        if avail[x] == 1:
            heapq.heappush(heap, x)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((min(u, v), max(u, v)))
    return tuple(edges)


@lru_cache(maxsize=None)
def _labeled_trees(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All labeled trees on m vertices, in lexicographic Prüfer order."""
    if m == 1:
        return ((),)
    if m == 2:
        return (((0, 1),),)
    out = []
    for seq in itertools.product(range(m), repeat=m - 2):
        out.append(_prufer_decode(tuple(seq), m))
    return tuple(out)


@lru_cache(maxsize=None)
def _bipartite_trees(s1: int, s2: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Spanning trees of the complete bipartite graph on (s1, s2) vertices.

    Vertices 0..s1-1 are the plus side, s1..s1+s2-1 the minus side; edges are
    returned as (plus index, minus index) pairs.
    """
    m = s1 + s2
    out = []
    for tree in _labeled_trees(m):
        pairs = []
        for u, v in tree:
            if (u < s1) == (v < s1):
                break
            lo, hi = (u, v) if u < s1 else (v, u)
            pairs.append((lo, hi - s1))
        else:
            out.append(tuple(pairs))
    return tuple(out)


def _signed_values(entries: Sequence[Rat] | PrimitiveRay) -> tuple[Fraction, ...]:
    if isinstance(entries, PrimitiveRay):
        return tuple(Fraction(m) for m in entries.integers)
    return tuple(Fraction(x) for x in entries)


def find_connection_graph(entries: Sequence[Rat] | PrimitiveRay) -> ConnectionGraph | None:
    """Exhaustively search for a connection graph with the given weights.

    ``entries`` is a signed real tuple (or a primitive ray) summing to zero
    with no zero entries; positive entries weight the plus side, negatives
    the minus side.  All spanning trees of the complete bipartite support are
    tried in Prüfer order and the first valid graph is returned, so the
    result is deterministic.
    """
    values = _signed_values(entries)
    if not values or any(v == 0 for v in values):
        raise ValueError("entries must be nonzero")
    if sum(values) != 0:
        raise ValueError("entries must sum to zero")
    plus = [v for v in values if v > 0]
    minus = [-v for v in values if v < 0]
    for pairs in _bipartite_trees(len(plus), len(minus)):
        if _flows_positive(plus, minus, pairs):
            return ConnectionGraph.from_sides(plus, minus, pairs)
    return None


def removal_order(graph: ConnectionGraph) -> tuple[tuple[Vertex, Vertex, Fraction], ...]:
    """Deterministic gluing schedule: (leaf, neighbor, length) per edge.

    Repeatedly removes the smallest leaf until one edge remains, listed last
    with the surviving pair and their common weight.  Each length is the
    flow across its edge.  Raises ValueError unless ``graph`` is a
    connection graph.
    """
    if not is_connection_graph(graph):
        raise ValueError("not a connection graph")
    g = graph
    steps: list[tuple[Vertex, Vertex, Fraction]] = []
    while len(g.vertices) > 2:
        leaf = min(g.leaves())
        nb = g.neighbors(leaf)[0]
        steps.append((leaf, nb, g.weight(leaf)))
        g = leaf_removal(g, leaf)
    a, b = g.vertices
    steps.append((a, b, g.weights[0]))
    return tuple(steps)


# ---------------------------------------------------------------------------
# Stable configurations for several zeros, all poles simple, genus zero.


@dataclass(frozen=True)
class StableComponent:
    zero_order: int
    pole_indices: tuple[int, ...]  # positions into the input residue tuple
    node_edges: tuple[tuple[int, QQi], ...]  # (other component, residue on this side)


@dataclass(frozen=True)
class StableConfigTree:
    components: tuple[StableComponent, ...]
    edges: tuple[tuple[int, int], ...]


def _component_realizable(zero_order: int, residues: tuple[QQi, ...]) -> bool:
    """Single-zero, simple-poles-only criterion for one component."""
    form = collinear_normal_form(residues)
    return form is NON_COLLINEAR or form.positive_sum > zero_order


def _index_subsets(indices: tuple[int, ...], sizes: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not sizes:
        if not indices:
            yield ()
        return
    k = sizes[0]
    for chosen in itertools.combinations(indices, k):
        rest = tuple(i for i in indices if i not in chosen)
        for tail in _index_subsets(rest, sizes[1:]):
            yield (chosen,) + tail


def find_stable_config(
    sig: StratumSignature,
    residues: Sequence[QQi],
    *,
    budget: int = 2_000_000,
) -> StableConfigTree | None:
    """Search for a tree of single-zero components realizing (sig, residues).

    The signature must be genus zero with only simple poles.  Components are
    the zeros; simple poles are distributed among them and each tree edge
    carries a pair of opposite node residues, forced by the residue theorem
    (the node residue toward a subtree is minus the sum of the smooth
    residues inside it).  A configuration is accepted when every component
    passes the single-zero criterion.  Returns None when the exhausted space
    holds no witness; raises SearchBudgetExceeded past the budget.
    """
    bad = validate_residues(sig, residues)
    if bad:
        raise ValueError("; ".join(bad))
    if sig.genus != 0 or sig.p != 0:
        raise ValueError("stable configurations apply to genus 0, simple poles only")
    residues = tuple(residues)
    n = sig.n
    if n == 1:
        # Single component: the question is exactly the connection-graph one.
        form = collinear_normal_form(residues)
        if isinstance(form, PrimitiveRay) and find_connection_graph(form) is None:
            return None
        comp = StableComponent(sig.zeros[0], tuple(range(len(residues))), ())
        return StableConfigTree((comp,), ())

    spent = 0
    all_poles = tuple(range(len(residues)))
    for tree in _labeled_trees(n):
        adjacency: dict[int, list[int]] = {c: [] for c in range(n)}
        for u, v in tree:
            adjacency[u].append(v)
            adjacency[v].append(u)
        # The sizes always sum to the number of poles (degree identity).
        sizes = [sig.zeros[c] + 2 - len(adjacency[c]) for c in range(n)]
        if any(k < 0 for k in sizes):
            continue
        for assignment in _index_subsets(all_poles, sizes):
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(
                    f"stable-config search exceeded budget of {budget} assignments"
                )
            smooth_sum = [sum((residues[i] for i in assignment[c]), QQi(0)) for c in range(n)]
            node_res = _solve_node_residues(tree, adjacency, smooth_sum)
            if node_res is None:
                continue
            ok = True
            for c in range(n):
                comp_res = tuple(residues[i] for i in assignment[c]) + tuple(
                    node_res[(c, d)] for d in sorted(adjacency[c])
                )
                if not _component_realizable(sig.zeros[c], comp_res):
                    ok = False
                    break
            if not ok:
                continue
            components = tuple(
                StableComponent(
                    sig.zeros[c],
                    assignment[c],
                    tuple((d, node_res[(c, d)]) for d in sorted(adjacency[c])),
                )
                for c in range(n)
            )
            return StableConfigTree(components, tree)
    return None


def _solve_node_residues(
    tree: tuple[tuple[int, int], ...],
    adjacency: dict[int, list[int]],
    smooth_sum: list[QQi],
) -> dict[tuple[int, int], QQi] | None:
    """Node residues forced by per-component zero sums; None when one vanishes.

    For the edge (u, v), the residue on u's half is minus the total smooth
    residue of the part of the tree containing u.  All smooth residues sum
    to zero, so one pass of subtree totals gives both halves of every edge.
    """
    order, parent = _rooted(adjacency)
    below = list(smooth_sum)
    for v in reversed(order[1:]):
        below[parent[v]] = below[parent[v]] + below[v]
    out: dict[tuple[int, int], QQi] = {}
    for u, v in tree:
        total = below[v] if parent[v] == u else -below[u]
        if total.is_zero():
            return None
        out[(u, v)] = total
        out[(v, u)] = -total
    return out


# ---------------------------------------------------------------------------
# Stable configurations for disjoint cylinders on holomorphic strata.


@dataclass(frozen=True)
class CylinderComponent:
    genus: int
    zero_indices: tuple[int, ...]


@dataclass(frozen=True)
class CylinderConfig:
    components: tuple[CylinderComponent, ...]
    #: (component a, component b, residue entering a); a == b encodes a loop.
    edges: tuple[tuple[int, int, QQi], ...]


def _partitions_of_set(items: tuple[int, ...], blocks: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of items into `blocks` nonempty blocks, canonical order."""
    if blocks == 0:
        if not items:
            yield ()
        return
    if len(items) < blocks:
        return
    first, rest = items[0], items[1:]

    def rec(remaining: tuple[int, ...], blocks_open: tuple[tuple[int, ...], ...]):
        if not remaining:
            if all(blocks_open) and len(blocks_open) == blocks:
                yield tuple(tuple(b) for b in blocks_open)
            return
        x, tail = remaining[0], remaining[1:]
        for k in range(len(blocks_open)):
            yield from rec(tail, blocks_open[:k] + (blocks_open[k] + (x,),) + blocks_open[k + 1 :])
        if len(blocks_open) < blocks:
            yield from rec(tail, blocks_open + ((x,),))

    yield from rec(rest, ((first,),))


def _connected(k: int, pairs: Sequence[tuple[int, int]]) -> bool:
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(x) for x in range(k)}) == 1


def find_cylinder_config(
    sig: StratumSignature,
    circumferences: Sequence[QQi],
    *,
    budget: int = 2_000_000,
) -> CylinderConfig | None:
    """Search for a stable configuration carrying the given disjoint cylinders.

    Components carry at least one zero each (curve stability forces this);
    each cylinder becomes a node joining two components, or one component to
    itself, with residues plus/minus the circumference at its two branches.
    Component genera are forced by the degree identity; a component is
    acceptable when its residue tuple sums to zero and its own stratum
    admits it (closed form: always for positive genus, the primitive-ray
    criterion for genus zero).
    """
    bad = validate_stratum(sig)
    if bad:
        raise ValueError("; ".join(bad))
    if sig.p != 0 or sig.s != 0:
        raise ValueError("cylinder configurations require a holomorphic stratum")
    lam = tuple(circumferences)
    t = len(lam)
    n = sig.n
    spent = 0
    pair_space = None
    for k in range(1, min(n, t + 1) + 1):
        if t - k + 1 < 0:
            continue
        pair_space = [(a, b) for a in range(k) for b in range(a, k)]
        for blocks in _partitions_of_set(tuple(range(n)), k):
            for ends in itertools.product(pair_space, repeat=t):
                spent += 1
                if spent > budget:
                    raise SearchBudgetExceeded(
                        f"cylinder search exceeded budget of {budget} candidates"
                    )
                half = [0] * k
                for a, b in ends:
                    half[a] += 1
                    half[b] += 1
                genera = []
                ok = True
                for c in range(k):
                    num = sum(sig.zeros[i] for i in blocks[c]) - half[c] + 2
                    if num < 0 or num % 2:
                        ok = False
                        break
                    genera.append(num // 2)
                if not ok:
                    continue
                if not _connected(k, ends):
                    continue
                nonloop = [j for j, (a, b) in enumerate(ends) if a != b]
                for signs in itertools.product((1, -1), repeat=len(nonloop)):
                    sign_of = dict(zip(nonloop, signs))
                    comp_res: list[list[QQi]] = [[] for _ in range(k)]
                    for j, (a, b) in enumerate(ends):
                        if a == b:
                            comp_res[a].extend((lam[j], -lam[j]))
                        else:
                            eps = sign_of[j]
                            comp_res[a].append(lam[j] * eps)
                            comp_res[b].append(-(lam[j] * eps))
                    if any(
                        sum(rs, QQi(0)) != QQi(0) or not rs for rs in map(tuple, comp_res)
                    ):
                        continue
                    if all(
                        _cylinder_component_ok(genera[c], tuple(sig.zeros[i] for i in blocks[c]), tuple(comp_res[c]))
                        for c in range(k)
                    ):
                        edges = []
                        for j, (a, b) in enumerate(ends):
                            res_at_a = lam[j] if a == b else lam[j] * sign_of[j]
                            edges.append((a, b, res_at_a))
                        comps = tuple(
                            CylinderComponent(genera[c], blocks[c]) for c in range(k)
                        )
                        return CylinderConfig(comps, tuple(edges))
    return None


def _cylinder_component_ok(
    genus: int, zeros: tuple[int, ...], residues: tuple[QQi, ...]
) -> bool:
    comp_sig = StratumSignature(genus, zeros, (), len(residues))
    if validate_residues(comp_sig, residues):
        return False
    return decide.decide_realizable(comp_sig, residues).realizable
