"""Combinatorial engines.

Connection graphs are weighted bipartite trees encoding genus-zero flat
surfaces with one cone point and only half-infinite cylinders.  Witnesses
for collinear residue tuples peel one leaf at a time under the closed form;
the brute-force oracle the closed-form decider is checked against searches
the leaf removals, once per pair of weight values, without the closed form.  Both
give the graph as a schedule of integer leaf removals, which
:func:`is_connection_graph` replays.  With several zeros the peel first
takes leaf components, each a single-zero star joined to the rest at a
node, until one zero can carry what is left.
Stable configurations with arbitrary component genera and multigraphs
answer disjoint-cylinder questions on holomorphic strata by a bounded
search, which generates each multiset of zero-order blocks once; the
request check and the default budget live in :mod:`resflat.core`, and
:func:`resflat.decide.search_cylinder_tuple` imports this module only when
no closed form answers.  This module imports only :mod:`resflat.core`, in
the chain core, graphs, decide, surfaces, cli.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import (
    CYLINDER_BUDGET,
    Frozen,
    QQi,
    SearchBudgetExceeded,
    StratumSignature,
    check_cylinder_request,
    lattice,
    line_integers,
    primitive_total_exceeds,
    _set,
)


def find_connection_graph(entries: Sequence[int]) -> tuple[tuple[int, int, int], ...] | None:
    """Exhaustively search for a connection graph on the given weights.

    ``entries`` are nonzero integers summing to zero; positive entries
    weight the plus side, negatives the minus side.  Returns a schedule in
    the form of :func:`peel_connection_graph`, or None; witnesses use the
    peel.  A state holds the positions left, in entry order, and their
    signed weights.  While more than two are left, a leaf v is removed into
    a vertex u on the other side with |w(u)| > |w(v)|, whose weight becomes
    w(u) + w(v).  The two left at the end are equal and opposite, and the
    removals, read as (leaf, neighbour) edges, are the tree found.

    This is exact.  Every connection graph has a leaf whose removal leaves
    one, by the definition; conversely, attaching a leaf of size w to an
    opposite vertex of size above w changes no other edge flow and puts
    flow w > 0 on the new edge.  So a state's success depends only on its
    multiset of weights, and removals with equal (leaf, neighbour) values
    give equal children: each pair of values is tried once, at the first
    positions holding them, values in entry order, and failed multisets are
    remembered for one call.  The oracle never calls the closed form
    :func:`resflat.core.primitive_total_exceeds`, the theorem it checks.
    """
    weights = tuple(entries)
    if not weights or 0 in weights:
        raise ValueError("entries must be nonzero")
    if sum(weights) != 0:
        raise ValueError("entries must sum to zero")
    failed: set[tuple[int, ...]] = set()

    def search(positions: tuple[int, ...], weights: tuple[int, ...]):
        if len(weights) == 2:
            return ((positions[0], positions[1], abs(weights[0])),)
        key = tuple(sorted(weights))
        if key not in failed:
            firsts = [(weights.index(w), w) for w in dict.fromkeys(weights)]
            for v, wv in firsts:
                for u, wu in firsts:
                    if wu * wv < 0 and abs(wu) > abs(wv):
                        rest = list(weights)
                        rest[u] += wv
                        del rest[v]
                        found = search(positions[:v] + positions[v + 1 :], tuple(rest))
                        if found is not None:
                            return ((positions[v], positions[u], abs(wv)),) + found
            failed.add(key)
        return None

    return search(tuple(range(len(weights))), weights)


def is_connection_graph(entries: Sequence[int], steps: Sequence[tuple[int, int, int]]) -> bool:
    """Whether ``steps`` is a schedule of a connection graph on ``entries``.

    ``steps`` has the form :func:`peel_connection_graph` and
    :func:`find_connection_graph` return.  Replayed in order, every step
    but the last must remove a current leaf into a strictly heavier vertex
    on the other side, across an edge whose length is the leaf's weight;
    the last joins the two vertices left, which must be equal, opposite and
    nonzero.  Any other schedule, malformed ones included, gives False.

    This is exact.  A connection graph keeps every weight positive through
    every sequence of leaf removals, so each of its schedules passes.  Read
    backwards, each step attaches a leaf of weight w to a vertex heavier
    than w, which changes no other edge flow and puts flow w > 0 on the new
    edge, so the tree of a schedule that passes is a connection graph.
    """
    if not steps:
        return False
    weight = dict(enumerate(entries))
    for v, u, length in steps[:-1]:
        wv, wu = weight.get(v, 0), weight.get(u, 0)  # a missing position fails as a zero
        if not (wu * wv < 0 and abs(wu) > abs(wv) == length):
            return False
        weight[u] += weight.pop(v)
    a, b, length = steps[-1]
    return weight.keys() == {a, b} and weight[a] == -weight[b] != 0 and abs(weight[a]) == length


def peel_connection_graph(integers: Sequence[int]) -> tuple[tuple[int, int, int], ...] | None:
    """A connection graph on a ray's integer form as a gluing schedule, or None.

    Each step (leaf position, neighbour position, length) removes a leaf,
    whose weight is the flow on its edge, from a neighbour on the other
    side; the last joins the two equal vertices left.  A graph exists
    exactly when the closed form passes, every graph has a leaf whose
    removal leaves one, and putting a leaf back changes no other flow: so
    the first (leaf, heavier neighbour) pair in entry order whose remainder
    passes is safe to peel, and the peel never backtracks.
    """
    weight = dict(enumerate(integers))  # position -> signed weight, in entry order
    if not primitive_total_exceeds(integers, len(weight) - 2):
        return None
    steps = []
    while len(weight) > 2:
        v, u = next(
            (v, u)
            for v, wv in weight.items()
            for u, wu in weight.items()
            if wu * wv < 0
            and abs(wu) > abs(wv)
            and primitive_total_exceeds(
                [w + wv if k == u else w for k, w in weight.items() if k != v],
                len(weight) - 3,
            )
        )
        steps.append((v, u, abs(weight[v])))
        weight[u] += weight.pop(v)
    (a, wa), (b, _) = weight.items()
    steps.append((a, b, abs(wa)))
    return tuple(steps)


# ---------------------------------------------------------------------------
# Trees of single-zero components: several zeros, all poles simple, genus zero.


def find_stable_config(
    integers: Sequence[int], zeros: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
    """A tree of single-zero components on a ray's integer form, or None.

    ``zeros`` are the positive zero orders, summing to ``len(integers) - 2``.
    While one zero cannot carry the entries left, the smallest zero a takes
    the a + 1 entries of largest size (ties by position) from the side with
    more entries (plus on a tie) as a leaf, whose node half carries minus
    their sum sigma; sigma replaces them as a new entry.  Returns the
    components as tuples of positions into ``integers`` extended by the
    leaves' sums, leaf k's sum at ``len(integers) + k``, and the zeros not
    peeled.  Leaves come first; the last component is the remainder, one
    connection graph whose zero splits into the zeros not peeled.

    The peel never fails.  While it runs, the positive total T of the s
    entries left is at most s - 2 units g of their gcd, so at least four
    entries are +/-g, and the side with more entries holds a + 1 of them
    as a <= (s - 2) / 2.  A leaf's a + 1 same-sign entries sum past a of
    their own units, so it is a star.  The remainder keeps T, g (a +/-g
    entry stays, or the leaf is a whole side of s / 2 entries and the
    other, summing to at most s - 2 units, has gcd g) and the largest zero,
    so at the last zero the closed form holds.  Returns None exactly when
    the closed form fails.
    """
    entries = list(integers)
    left = list(zeros)
    if not primitive_total_exceeds(entries, max(left, default=0)):
        return None
    live = list(range(len(entries)))  # positions of the remainder, ascending
    leaves = []
    while not primitive_total_exceeds([entries[k] for k in live], len(live) - 2):
        a = min(left)
        left.remove(a)
        plus = [k for k in live if entries[k] > 0]
        minus = [k for k in live if entries[k] < 0]
        side = plus if len(plus) >= len(minus) else minus
        leaf = tuple(sorted(side, key=lambda k: -abs(entries[k]))[: a + 1])
        leaves.append(leaf)
        entries.append(sum(entries[k] for k in leaf))
        live = [k for k in live if k not in leaf] + [len(entries) - 1]
    return tuple(leaves) + (tuple(live),), tuple(left)


# ---------------------------------------------------------------------------
# Stable configurations for disjoint cylinders on holomorphic strata.


class CylinderComponent(Frozen):
    __slots__ = ("genus", "zero_indices")

    def __init__(self, genus: int, zero_indices: tuple[int, ...]) -> None:
        _set(self, "genus", genus)
        _set(self, "zero_indices", zero_indices)


class CylinderConfig(Frozen):
    """Components, and edges (component a, component b, residue entering a);
    a == b encodes a loop."""

    __slots__ = ("components", "edges")

    def __init__(
        self, components: tuple[CylinderComponent, ...], edges: tuple[tuple[int, int, QQi], ...]
    ) -> None:
        _set(self, "components", components)
        _set(self, "edges", edges)


def _zero_shapes(
    orders: tuple[int, ...], k: int, least: tuple[int, ...] = ()
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Each multiset of k nonempty blocks of the ascending ``orders`` once.

    Blocks are ascending and come in nondecreasing order, none below
    ``least``.  The least block holds the smallest order, so it is that
    order plus a sub-multiset of the rest; the other blocks split the rest.
    """
    if k == 1:
        if orders >= least:
            yield (orders,)
        return
    for sub, left in _splits(orders[1:]):
        block = orders[:1] + sub
        if block >= least and len(left) >= k - 1:
            for shape in _zero_shapes(left, k - 1, block):
                yield (block,) + shape


def _splits(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each sub-multiset of the ascending ``items`` once, with what it leaves."""
    if not items:
        yield (), ()
        return
    run = items.count(items[0])
    for sub, left in _splits(items[run:]):
        for c in range(run + 1):
            yield items[:c] + sub, items[c:run] + left


def find_cylinder_config(
    sig: StratumSignature,
    circumferences: Sequence[QQi],
    *,
    budget: int = CYLINDER_BUDGET,
) -> CylinderConfig | None:
    """Search for a stable configuration carrying the given disjoint cylinders.

    Components carry at least one zero each (curve stability forces this);
    each cylinder becomes a node joining two components, or one component to
    itself, with residues plus/minus the circumference at its two branches.
    Component genera are forced by the degree identity; a component is
    acceptable when its residue tuple sums to zero and its own stratum
    admits it (:func:`_admits`).

    Relabellings are skipped where they are cheap to see.  Zeros of equal
    order are interchangeable, so each multiset of zero-order blocks is
    tried once (:func:`_zero_shapes`), equal blocks on adjacent components.
    Ends are placed one cylinder at a time, never past a component's degree
    cap, the sum of its zeros + 2 (genus zero).  Cylinders equal up to sign
    (negated where opposite) are interchangeable, so each such group takes a
    multiset of end pairs, in pair order.  Components with equal blocks are
    interchangeable too, so each takes its first end only once the one
    before it has one.  Among the relabellings of a configuration, the one
    whose sequence of end pairs is lexicographically least obeys both rules:
    sorting a group, or swapping a component that takes its first end too
    early with the unused one before it, would make it less.

    Signs vanish mod 2, so a balanced component's non-loop circumferences,
    divided by the gcd of all of them, sum to zero mod 2: a branch stops
    once a component reaches its cap with an odd sum.  A complete
    assignment is kept when every sum is even and every genus whole; then
    :func:`_cylinder_signs` finds the signs.  ``budget`` counts the ends
    placed, one unit per cylinder put on a pair of components;
    :func:`resflat.core.check_cylinder_request` checks it with the request.
    """
    lam = tuple(circumferences)
    check_cylinder_request(sig, lam, budget)
    gauss = lattice(lam)[2]  # Gaussian integers of gcd 1, or every residue could be even
    groups: dict[tuple[int, int], list[int]] = {}
    for j, (x, y) in enumerate(gauss):
        groups.setdefault(max((x, y), (-x, -y)), []).append(j)
    order = [j for js in groups.values() for j in js]  # input position of each enumerated end
    gauss = [gauss[j] for j in order]  # in enumeration order
    bits = [x & 1 | (y & 1) << 1 for x, y in gauss]  # mod 2, where signs vanish
    t = len(order)
    fresh = [j == js[0] for js in groups.values() for j in js]  # its ends start over at pair 0
    pool = {m: [i for i, z in enumerate(sig.zeros) if z == m] for m in sig.zeros}  # ascending
    spent = 0
    # The caps of k components total 2g - 2 + 2k and must hold all 2t ends.
    for k in range(max(1, t - sig.genus + 1), min(sig.n, t + 1) + 1):
        pairs = [(a, b) for a in range(k) for b in range(a, k)]
        for shape in _zero_shapes(tuple(sorted(sig.zeros)), k):
            cap = [sum(zeros) + 2 for zeros in shape]
            twin = [c > 0 and shape[c] == shape[c - 1] for c in range(k)]  # c - 1 is c's twin
            deg = [0] * k
            odd = [0] * k  # the bits of each component's non-loop ends, summed mod 2
            ends = [pairs[0]] * t

            def place(i: int, low: int) -> CylinderConfig | None:
                """Place the ends of cylinders i.. from pair ``low`` on, depth first."""
                nonlocal spent
                if i == t:
                    if any(odd) or any((m - d) % 2 for m, d in zip(cap, deg)):
                        return None
                    genera = [(m - d) // 2 for m, d in zip(cap, deg)]
                    signs = _cylinder_signs(ends, gauss, genera, shape)
                    if signs is None:
                        return None
                    by_input = sorted(zip(order, signs, ends))
                    taken = {m: iter(js) for m, js in pool.items()}
                    return CylinderConfig(
                        tuple(
                            CylinderComponent(g, tuple(sorted(next(taken[m]) for m in zeros)))
                            for g, zeros in zip(genera, shape)
                        ),
                        tuple((a, b, lam[j] * eps) for j, eps, (a, b) in by_input),
                    )
                for p in range(0 if fresh[i] else low, len(pairs)):
                    a, b = ends[i] = pairs[p]
                    loop = a == b
                    if not (
                        deg[a] + loop < cap[a]
                        and deg[b] + loop < cap[b]
                        # A component's first end only after its twin's first.
                        and (deg[a] or not twin[a] or deg[a - 1])
                        and (deg[b] or not twin[b] or deg[b - 1] or b - 1 == a)
                    ):
                        continue
                    if spent == budget:
                        raise SearchBudgetExceeded("cylinder", spent, budget)
                    spent += 1
                    deg[a] += 1
                    deg[b] += 1
                    odd[a] ^= bits[i]  # a loop adds its bits twice, so nothing
                    odd[b] ^= bits[i]
                    # A full component takes no more ends: an odd sum there never cancels.
                    if not (deg[a] == cap[a] and odd[a] or deg[b] == cap[b] and odd[b]):
                        found = place(i + 1, p)
                        if found is not None:
                            return found
                    deg[a] -= 1
                    deg[b] -= 1
                    odd[a] ^= bits[i]
                    odd[b] ^= bits[i]
                return None

            found = place(0, 0)
            if found is not None:
                return found
    return None


def _cylinder_signs(
    ends: Sequence[tuple[int, int]],
    gauss: Sequence[tuple[int, int]],
    genera: Sequence[int],
    zeros: Sequence[tuple[int, ...]],
) -> list[int] | None:
    """Signs under which cylinders with these ends make every component
    balanced and admitted, or None.

    Cylinder i joins components ``ends[i] = (a, b)``: its residue is
    ``gauss[i]`` times its sign at a, minus that at b.  A loop's sign is
    moot.  The non-loop cylinders off a breadth-first spanning tree take
    every sign, the first fixed to +1, as negating every sign negates every
    residue.  Then the tree is peeled from its leaves: a tree cylinder must
    carry what balances the leaf it joins, which is plus or minus its
    circumference or nothing fits.  A disconnected graph gets no signs.
    """
    k = len(genera)
    link = [-1] * k  # the tree cylinder joining each component to its parent
    tree = [0]  # breadth-first order
    for c in tree:
        for i, (a, b) in enumerate(ends):
            u = b if a == c else a if b == c else c
            if u and link[u] < 0:
                link[u] = i
                tree.append(u)
    if len(tree) < k:
        return None
    free = [i for i, (a, b) in enumerate(ends) if a != b and i not in link]
    signs = [1] * len(ends)
    for mask in range(0, 1 << len(free), 2):  # bit n: the sign of free[n]
        sx = [0] * k  # each component's residue sum so far, on the real
        sy = [0] * k  # and imaginary axes
        for n, i in enumerate(free):
            eps = signs[i] = -1 if mask >> n & 1 else 1
            (a, b), (x, y) = ends[i], gauss[i]
            sx[a] += eps * x
            sy[a] += eps * y
            sx[b] -= eps * x
            sy[b] -= eps * y
        for c in reversed(tree[1:]):
            i = link[c]
            (a, b), (x, y) = ends[i], gauss[i]
            fx, fy = sx[c], sy[c]  # sign * gauss[i] must cancel c's sum at a, match it at b
            if c == a:
                fx, fy = -fx, -fy
            if fx == x and fy == y:
                signs[i] = 1
            elif fx == -x and fy == -y:
                signs[i] = -1
            else:
                break
            sx[a + b - c] += sx[c]
            sy[a + b - c] += sy[c]
        else:
            residues: list[list[tuple[int, int]]] = [[] for _ in genera]
            for (a, b), (x, y), eps in zip(ends, gauss, signs):
                residues[a].append((eps * x, eps * y))
                residues[b].append((-eps * x, -eps * y))
            if all(_admits(g, max(z), r) for g, z, r in zip(genera, zeros, residues)):
                return signs
    return None


def _admits(genus: int, max_zero: int, residues: Sequence[tuple[int, int]]) -> bool:
    """Whether a component's own stratum admits its residues.

    ``residues`` are balanced nonzero Gaussian-integer (re, im) pairs at
    simple poles.  This is :func:`resflat.decide.decide_realizable` on
    integers: positive genus admits every balanced tuple; genus zero admits
    a tuple that spans the plane, and a collinear one whose integer form
    passes the primitive-ray test at the largest zero order.
    :func:`resflat.core.line_integers` gives that integer form times a
    positive factor, which the test does not see.
    """
    if genus:
        return True
    ints = line_integers(residues)
    return ints is None or primitive_total_exceeds(ints, max_zero)
