"""Witness builders: surfaces of :mod:`resflat.verify`'s format, glued to
order along the decider's route, each claim the kernel's own reading.

Only the stable-assembly routes (``connection-graph``,
``blow-up-of-single-zero`` and ``stable-tree``) peel with
:mod:`resflat.graphs`, so the module imports it inside
:func:`_stable_assembly_base` alone."""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import Sequence

from .core import (
    Pair,
    PrimitiveRay,
    QQi,
    StratumSignature,
    arg_cmp,
    lattice,
    replace,
    residue_tuple,
    _is_int,
)
from . import decide as _decide
from .verify import (
    _CHAINS,
    BlowUpZero,
    ConstructionCertificate,
    FlatSurface,
    Piece,
    PolarPart,
    Polygon,
    SimplePolePart,
    Slot,
    _apply_surgery,
    _check_rotation,
    _read_piece,
    _read_surface,
    profile_matches,
)

_ONE = (1, 0)
_I = (0, 1)


class InternalBuildError(RuntimeError):
    """A builder produced output that failed its own verification (a bug)."""


def _neg(v: Pair) -> Pair:
    return (-v[0], -v[1])


def _map_pairs(piece: Piece, f) -> Piece:
    """The piece with ``f`` applied to every boundary vector, in slot order."""
    return replace(piece, **{k: [f(v) for v in getattr(piece, k)] for k in _CHAINS[type(piece)]})


def blow_up_zero(
    cert: ConstructionCertificate, zero_index: int, parts: Sequence[int]
) -> ConstructionCertificate:
    """Split a zero of the claimed profile into parts of the same total order.

    Pole orders, residues and genus are unchanged.  Raises ValueError when
    the index or a part is not an int (a bool is not one), the index names
    no zero, or the parts are not positive or do not sum to the chosen
    zero's order.
    """
    parts = tuple(parts)
    if not (_is_int(zero_index) and all(_is_int(x) for x in parts)):
        raise ValueError(
            f"zero index and parts must be integers, got {zero_index!r} and {parts!r}"
        )
    step = BlowUpZero(zero_index, parts)
    return replace(
        cert,
        surgeries=cert.surgeries + (step,),
        claimed=_apply_surgery(cert.claimed, step),
        claimed_rotation=None,
    )


# ---------------------------------------------------------------------------
# Elementary builders


def _write_chain(
    pairings: list,
    start: tuple[Slot, Pair],
    trivials: Sequence[tuple[int, Pair]],
    terminal: Slot,
) -> None:
    """Splice a pole piece's slot, trivial parts and a terminal slot into pairings."""
    slot, exposure = start
    for piece_idx, u in trivials:
        # Trivial part (u; u): top slot 0 has canonical +u, bottom slot 1
        # has canonical -u.  Enter through whichever slot opposes the
        # current exposure, leave through the other.
        if exposure == u:
            pairings.append((slot, (piece_idx, 1)))
            slot, exposure = (piece_idx, 0), u
        elif exposure == _neg(u):
            pairings.append((slot, (piece_idx, 0)))
            slot, exposure = (piece_idx, 1), _neg(u)
        else:
            raise InternalBuildError("trivial part does not fit the chain")
    pairings.append((slot, terminal))


# The two closers of a genus-1 chain: the unit square, and the handle, a
# double pole whose +i and -i slots are glued round through ``loop`` more.
_SQUARE = Polygon(((1, 0), (0, 1), (-1, 0), (0, -1)))
_HANDLE = PolarPart(2, 1, (_I, _ONE), (_ONE, _I))


def _chain_surface(
    orders: Sequence[int], taus: Sequence[int], closer: Piece | None = None, loop: int = 0
) -> FlatSurface:
    """Polar parts (1; 1) of the given orders and types, glued in a cycle.

    With no closer the cycle closes on itself: genus 0, two zeros.  A
    closer makes it genus 1: the cycle runs out of the closer's +1 slot and
    back into its -1 slot, and its +i and -i slots are glued to each other
    through ``loop`` double poles (i; i).  Two loops that span H_1 then have
    indices 0 and sum(taus) on :data:`_SQUARE`, and k and p - k + 1 on
    :data:`_HANDLE`, for p double poles in all and k = loop + 1 of them on
    the handle.  Pieces are the parts, the closer, then the loop.
    """
    pieces: list[Piece] = [PolarPart(b, t, (_ONE,), (_ONE,)) for b, t in zip(orders, taus)]
    p = len(pieces)
    chain = [(i, _ONE) for i in range(1, p)]
    pairings: list = []
    if closer is None:
        _write_chain(pairings, ((0, 0), _ONE), chain, (0, 1))
        return FlatSurface(pieces, pairings)
    canon = _read_piece(closer)[0]
    plus, minus, up, down = [(p, canon.index(v)) for v in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    pieces.append(closer)
    if p:
        _write_chain(pairings, ((0, 0), _ONE), chain, minus)
        pairings.append((plus, (0, 1)))
    else:
        pairings.append((plus, minus))
    ring = [(p + 1 + j, _I) for j in range(loop)]
    pieces += [PolarPart(2, 1, (_I,), (_I,)) for _ in ring]
    _write_chain(pairings, (up, _I), ring, down)
    return FlatSurface(pieces, pairings)


def _choose_taus(orders: Sequence[int], total: int) -> tuple[int, ...]:
    """Types tau_i in [1, b_i - 1] with the prescribed total, front-loaded:
    each takes as much of the excess over one per pole as is left."""
    extra = total - len(orders)
    if not (0 <= extra <= sum(b - 2 for b in orders)):
        raise ValueError(f"no admissible types reach total {total}")
    taus = []
    for b in orders:
        t = min(b - 2, extra)
        taus.append(1 + t)
        extra -= t
    return tuple(taus)


def _plumb(
    pieces: Sequence[Piece],
    pairings: Sequence[tuple[Slot, Slot]],
    nodes: int,
    d: int,
    n: int,
) -> FlatSurface:
    """Plumb the last ``2 * nodes`` pieces, simple-pole parts in pairs
    (lower, upper) of opposite residues, into finite cylinders.

    Plumbing two simple poles of residues c and -c leaves a finite cylinder
    of circumference c.  The first pieces keep their places, and pair c
    becomes the polygon lower + [h] + upper + [-h], h = i * sum(lower),
    after them, with h glued to -h, on a surface of scale n/d.  A
    pair on two components is a node; a pair on one component is a handle.
    Slot k of lower stays slot k and slot k of upper becomes slot
    len(lower) + 1 + k; ``pairings`` keep their order with their slots
    renumbered, and the gluings of h follow them, in node order.
    """
    kept = len(pieces) - 2 * nodes
    out = list(pieces[:kept])
    shift = []
    ends = []
    for c in range(nodes):
        lower, upper = pieces[kept + 2 * c].vectors, pieces[kept + 2 * c + 1].vectors
        h = (-sum(y for _, y in lower), sum(x for x, _ in lower))
        out.append(Polygon(lower + (h,) + upper + (_neg(h),)))
        shift += [0, len(lower) + 1]
        ends.append(((kept + c, len(lower)), (kept + c, len(lower) + len(upper) + 1)))

    def moved(slot: Slot) -> Slot:
        i, k = slot
        return slot if i < kept else (kept + (i - kept) // 2, k + shift[i - kept])

    return FlatSurface(out, [(moved(a), moved(b)) for a, b in pairings] + ends, d, n)


def _single_zero_surface(
    sig: StratumSignature, d: int, n: int, residues: Sequence[Pair], ray: PrimitiveRay | None
) -> FlatSurface:
    """Single zero, some residue nonzero: a centre piece and one chain per pole.

    Slot t of the centre, piece 0, is glued to the chain of pole order[t]:
    the pole's piece, one segment of its full residue, with the zero-residue
    higher poles spliced into the host's chain as trivial parts.  With
    ``ray`` None the residues span the plane, the centre is their residual
    polygon and pole k is piece 1 + k.  Otherwise ``ray`` is the normal form
    of the nonzero residues and the centre is the first higher pole, its top
    chain the negated residues that point down and its bottom chain those
    that point up; pole k >= 1 is piece k.  Only the poles of ``sig`` are
    read; the zero carries their whole degree.  Residues are pairs times
    n/d, and every vector built is one of them or its negative.
    """
    nonzero = [k for k, r in enumerate(residues) if r != (0, 0)]
    if ray is None:
        first = 0
        # By ascending argument of -residues[k] in (-pi, pi], ties by index.
        by_arg = cmp_to_key(lambda j, k: arg_cmp(_neg(residues[j]), _neg(residues[k])))
        order = sorted(nonzero, key=by_arg)
        is_up = {k: residues[k][0] >= 0 for k in nonzero}
        centre: Piece = Polygon([_neg(residues[k]) for k in order])
        host = nonzero[0]
    else:
        first = 1
        # On one real line, up is the half-plane of arguments in (-pi/2, pi/2].
        is_up = {k: residues[k] > (0, 0) for k in nonzero}
        down = [k for k in nonzero if k and not is_up[k]]
        up = [k for k in nonzero if k and is_up[k]]
        order = down + up
        centre = PolarPart(
            sig.higher_poles[0], 1, [_neg(residues[k]) for k in down], [residues[k] for k in up]
        )
        host = order[0]
    u = residues[host] if is_up[host] else _neg(residues[host])

    pieces: list[Piece] = [centre]
    trivials: list[tuple[int, Pair]] = []
    for k in range(first, sig.p + sig.s):
        r = residues[k]
        if k >= sig.p:
            pieces.append(SimplePolePart((r,)))
            continue
        b = sig.higher_poles[k]
        if r == (0, 0):
            trivials.append((len(pieces), u))
            pieces.append(PolarPart(b, 1, (u,), (u,)))
        elif is_up[k]:
            pieces.append(PolarPart(b, 1, (r,), ()))
        else:
            pieces.append(PolarPart(b, 1, (), (_neg(r),)))

    pairings: list = []
    for t, k in enumerate(order):
        chain = trivials if k == host else ()
        _write_chain(pairings, ((1 + k - first, 0), residues[k]), chain, (0, t))
    return FlatSurface(pieces, pairings, d, n)


def _triangle_distribution(
    targets: tuple[int, int, int], other_orders: Sequence[int]
) -> list[dict[int, int]]:
    """Distribute each pole's order over two of three corners, hitting targets.

    Corner keys are 0, 1, 2 with target valences ``targets``; the greedy
    sweep moves edges from corner 1 to corner 2 pole by pole, then rebalances
    corner 0.  Every pole ends with multiplicity >= 1 at exactly two corners.
    """
    q = len(other_orders)
    mult = [{0: 1, 1: b - 1} for b in other_orders]
    val = [q, sum(b - 1 for b in other_orders), 0]
    i0 = None
    for i, b in enumerate(other_orders):
        if val[1] - (b - 1) >= targets[1]:
            mult[i] = {0: 1, 2: b - 1}
            val[1] -= b - 1
            val[2] += b - 1
        else:
            i0 = i
            k = val[1] - targets[1]
            assert 0 <= k < b - 1
            mult[i] = {1: b - 1 - k, 2: k + 1}
            val[1] = targets[1]
            val[2] += k + 1
            val[0] -= 1
            break
    if i0 is None:
        raise InternalBuildError("corner distribution never balanced the second corner")
    for j in range(i0 + 1, q):
        if val[0] > targets[0]:
            b = other_orders[j]
            mult[j] = {2: 1, 1: b - 1}
            val[0] -= 1
            val[2] += 1
    if tuple(val) != targets:
        raise InternalBuildError(f"corner valences {val} missed targets {targets}")
    for m in mult:
        if len(m) != 2 or any(x < 1 for x in m.values()):
            raise InternalBuildError("a pole must meet exactly two corners")
    return mult


def _triangle_surface(zeros: Sequence[int], orders: Sequence[int]) -> FlatSurface:
    """Three zeros, zero residues, large zeros: triangle with polar chains.

    ``zeros`` are the three zero orders, ascending, and ``orders`` the
    higher pole orders, one of them 2: that double pole anchors the chains.
    """
    anchor_pos = orders.index(2)
    others = [(k, b) for k, b in enumerate(orders) if k != anchor_pos]
    mult = _triangle_distribution(tuple(zeros), [b for _, b in others])

    v1, v2, v3 = _I, _ONE, (1, 1)
    chain_vec = {frozenset((0, 1)): v1, frozenset((0, 2)): v2, frozenset((1, 2)): v3}
    tau_corner = {frozenset((0, 1)): 1, frozenset((1, 2)): 1, frozenset((0, 2)): 0}

    pieces: list[Piece] = [None] * (1 + len(orders))  # type: ignore[list-item]
    pieces[0] = Polygon((_neg(v1), v3, _neg(v2)))
    pieces[1 + anchor_pos] = PolarPart(2, 1, (v1, v2), (v3,))
    chains: dict[frozenset, list[tuple[int, Pair, int]]] = {
        key: [] for key in chain_vec
    }
    for (pole_pos, b), m in zip(others, mult):
        pair = frozenset(m)
        tau = m[tau_corner[pair]]
        u = chain_vec[pair]
        pieces[1 + pole_pos] = PolarPart(b, tau, (u,), (u,))
        chains[pair].append((1 + pole_pos, u, tau))

    pairings: list = []
    anchor_piece = 1 + anchor_pos
    # Chains start at the anchor's three boundary segments and end on the
    # triangle; slot 0 of the triangle is -v1, slot 1 is +v3, slot 2 is -v2.
    ends = ((v1, (0, 1), 0), (v2, (0, 2), 2), (_neg(v3), (1, 2), 1))
    for k, (start, key, terminal) in enumerate(ends):
        trivials = [(pid, u) for pid, u, _ in chains[frozenset(key)]]
        _write_chain(pairings, ((anchor_piece, k), start), trivials, (0, terminal))
    return FlatSurface(pieces, pairings)


# ---------------------------------------------------------------------------
# Witness dispatch


def _cut_slot(piece: Piece, slot: int, parts: int) -> tuple[Piece, list[int]]:
    """Cut slot ``slot`` into ``parts`` equal parts, at ``slot`` onwards; ``parts`` divides it.

    Returns the new piece and the parts' offsets from ``slot`` in the order
    the canonical direction runs through them, reversed on a bottom chain.
    """
    field = _CHAINS[type(piece)][0]
    k, offsets = slot, list(range(parts))
    if isinstance(piece, PolarPart) and slot >= len(piece.top):
        field, k, offsets = "bottom", slot - len(piece.top), offsets[::-1]
    vectors = getattr(piece, field)
    part = (vectors[k][0] // parts, vectors[k][1] // parts)
    return replace(piece, **{field: vectors[:k] + (part,) * parts + vectors[k + 1 :]}), offsets


def _with_marked_points(
    cert: ConstructionCertificate, zeros: tuple[int, ...]
) -> ConstructionCertificate:
    """Mark regular points on the surface until the declared order-0 zeros
    are covered.  They join the claimed zeros last, so no surgery's zero
    index moves.

    The k points cut the first glued edge pair into k + 1 equal parts each.
    Glued edges run in opposite directions, so the parts are glued
    crosswise, and every cut point has angle pi on either side.  The least
    rescaling t that makes the parts integral keeps the pairs' gcd 1, and
    n/(d * t) is reduced, so the surface stays on its coarsest lattice.
    """
    missing = max(0, zeros.count(0) - cert.claimed.zero_orders.count(0))
    if not missing:
        return cert
    (a, b), *rest = cert.surface.pairings
    piece = cert.surface.pieces[a[0]]
    x, y = [v for k in _CHAINS[type(piece)] for v in getattr(piece, k)][a[1]]
    t = (missing + 1) // math.gcd(missing + 1, x, y)
    pieces = [_map_pairs(pc, lambda v: (v[0] * t, v[1] * t)) for pc in cert.surface.pieces]

    def moved(slot: Slot) -> Slot:  # on past the parts cut before it
        return slot[0], slot[1] + missing * sum(i == slot[0] and k < slot[1] for i, k in (a, b))

    ends = []
    # The later slot is cut first, so the earlier one keeps its index.
    for i, k in sorted((a, b), reverse=True):
        pieces[i], offsets = _cut_slot(pieces[i], k, missing + 1)
        ends.append([(i, moved((i, k))[1] + j) for j in offsets])
    later, earlier = ends
    glued = [*zip(later, earlier[::-1]), *[(moved(x), moved(y)) for x, y in rest]]
    g = math.gcd(cert.surface.n, t)
    surface = FlatSurface(pieces, glued, cert.surface.d * t // g, cert.surface.n // g)
    claimed = replace(cert.claimed, zero_orders=cert.claimed.zero_orders + (0,) * missing)
    return replace(cert, surface=surface, claimed=claimed)


# A route builder returns a base surface and the zero splits to apply to it,
# in order; each split is a tuple of orders, of which the positive ones are
# the parts of the base zero of their sum.
_Base = tuple[FlatSurface, list]


def _zero_residue_base(sig: StratumSignature, rotation: int | None) -> _Base:
    """Every residue zero: one cycle of polar parts (1; 1), closed on
    itself or around a triangle on genus 0, and on genus 1 by the square or
    a double-pole handle, of the ``rotation`` number given if any."""
    orders = sig.higher_poles
    if sig.genus:
        # With no poles at all this is the bare square.
        return _genus1_zero_residue_surface(orders, rotation), [sig.zeros]
    zeros = sorted([a for a in sig.zeros if a > 0], reverse=True)
    if len(zeros) <= 1:
        # The decider admits at most one zero only with a single pole, which
        # a self-glued chain carries; profile_matches rejects anything else.
        return _chain_surface((orders[0],), (1,)), []
    if len(zeros) == 2:
        return _chain_surface(orders, _choose_taus(orders, zeros[0] + 1)), []
    lo1, lo2 = sorted(zeros)[:2]
    if len(zeros) == 3 and lo1 + lo2 > sig.pole_degree - sig.p - 1:
        return _triangle_surface(sorted(zeros), orders), []
    rest = sorted(zeros)[2:]
    surface, splits = _zero_residue_base(StratumSignature(0, (*rest, lo1 + lo2), orders), None)
    return surface, splits + [(lo1, lo2)]


def _stable_assembly_base(sig: StratumSignature, ray: PrimitiveRay) -> _Base:
    """Collinear residues at simple poles only: one surface of single-zero
    components plumbed at nodes.

    Each component is a connection graph on its entries of the peel
    (:func:`resflat.graphs.find_stable_config`); leaf c has one more part,
    its node half, of residue minus the leaf's sum.  Each step of a
    component's peel (:func:`resflat.graphs.peel_connection_graph`) glues
    the leaf's part to its neighbour's along one segment of the step's
    length, the next on each part's chain.  Entry k < s is the simple-pole
    piece k; leaf c's node half is piece s + 2c and entry s + c, the leaf's
    sum, piece s + 2c + 1, so :func:`_plumb` turns each such pair into node
    c.  The remainder's zero is then split into the zeros not peeled.
    With one zero, or when one zero carries every entry, there are no nodes.
    """
    from . import graphs as _graphs

    found = _graphs.find_stable_config(ray.integers, [a for a in sig.zeros if a > 0])
    if found is None:
        raise InternalBuildError("no stable configuration although the decider says realizable")
    components, left = found
    s = len(ray.integers)
    nodes = len(components) - 1
    ints = list(ray.integers)
    d, n, [(x, y)] = lattice([ray.direction])
    chains: list[list[Pair]] = [[] for _ in range(s + 2 * nodes)]
    glued = []
    for c, comp in enumerate(components):
        parts = [k if k < s else s + 2 * (k - s) + 1 for k in comp]
        weights = [ints[k] for k in comp]
        if c < nodes:
            sigma = sum(weights)
            parts.append(s + 2 * c)
            weights.append(-sigma)
            ints.append(sigma)
        steps = _graphs.peel_connection_graph(weights)
        if steps is None:
            raise InternalBuildError("no connection graph although the decider says realizable")
        for leaf, nb, length in steps:
            plus, minus = (leaf, nb) if weights[leaf] > 0 else (nb, leaf)
            ends = []
            for j, m in ((plus, length), (minus, -length)):
                chain = chains[parts[j]]
                ends.append((parts[j], len(chain)))
                chain.append((x * m, y * m))
            glued.append(ends)
    pieces = [SimplePolePart(chain) for chain in chains]
    return _plumb(pieces, glued, nodes, d, n), [left]


def _genus1_zero_residue_surface(orders: Sequence[int], rot: int | None) -> FlatSurface:
    """A genus-1 zero-residue base, of the rotation number given if any: a
    chain closed by the square whose types sum to a total of that gcd with
    the orders, or for double poles only, where no total has it, a handle
    over that many of the poles."""
    orders = tuple(orders)
    p = len(orders)
    if rot is None:
        return _chain_surface(orders, (1,) * p, _SQUARE)
    if rot < 1:
        raise ValueError(f"rotation number must be at least 1, got {rot}")
    g0 = math.gcd(*orders)
    if g0 % rot:
        raise ValueError(f"rotation {rot} does not divide gcd of the orders")
    if p == 1 and rot == orders[0]:
        raise ValueError("the rotation number of this family is a strict divisor")
    total = next((t for t in range(p, sum(orders) - p + 1) if math.gcd(g0, t) == rot), None)
    if total is None:  # only double poles leave no total, and rot is 1 or 2
        return _chain_surface((2,) * (p - rot), (1,) * (p - rot), _HANDLE, rot - 1)
    return _chain_surface(orders, _choose_taus(orders, total), _SQUARE)


def _positive_genus_base(sig: StratumSignature, residues: Sequence[QQi]) -> _Base:
    """g plumbed handles on a single-zero genus-0 base, then the splits.

    The base adds simple poles of residues c_j = (j + i) * r_0 and -c_j for
    j < g, r_0 the first nonzero residue or 1, and :func:`_plumb` joins
    each pair into a handle.  c_0 is off the real line of r_0, so the
    residues span the plane.
    """
    g = sig.genus
    d, n, pairs = lattice(residues)
    x, y = next((r for r in pairs if r != (0, 0)), _ONE)
    handles = []
    for j in range(g):
        c = (j * x - y, x + j * y)
        handles += [c, _neg(c)]
    base_sig = StratumSignature(
        0, (sig.pole_degree + sig.s + 2 * g - 2,), sig.higher_poles, sig.s + 2 * g
    )
    base = _single_zero_surface(base_sig, d, n, [*pairs, *handles], None)
    return _plumb(base.pieces, base.pairings, g, d, n), [sig.zeros]


def build_witness(
    sig: StratumSignature,
    residues: Sequence[QQi] = (),
    *,
    rotation: int | None = None,
) -> ConstructionCertificate | None:
    """Construct a verified certificate for (sig, residues), or None.

    Returns None exactly when the residue tuple is not realizable on the
    stratum.  Otherwise the construction follows the verdict's
    ``certificate_hint``; the returned certificate passes
    :func:`verify_certificate` and reproduces the prescribed invariants, and
    a claim that misses the request raises InternalBuildError.  For genus-1
    zero-residue strata a ``rotation`` number may be prescribed, selecting a
    connected component.  The route's builder returns a base surface and
    its zero splits, and :func:`_build_on_route` finishes every witness the
    same way.
    """
    residues = residue_tuple(residues)
    verdict = _decide.decide_realizable(sig, residues)
    if not verdict.realizable:
        return None
    return _build_on_route(sig, residues, verdict, rotation)


def _build_on_route(
    sig: StratumSignature, residues: tuple[QQi, ...], verdict: _decide.Verdict, rotation: int | None
) -> ConstructionCertificate:
    """:func:`build_witness` on a request that the decider's ``verdict`` calls realizable.

    The one finishing step of every route.  The claim starts as the
    kernel's reading of the base, the one read of a build, against which a
    requested rotation is checked.  Each split is then folded in by
    :func:`blow_up_zero`, at the first zero of the parts' total order, and
    :func:`_with_marked_points` adds one order-0 zero per point it marks,
    which changes no rotation.  That is what :func:`verify_certificate`
    re-derives, so only the request is checked last.

    Raises ValueError on a verdict that is not realizable or names no route.
    """
    if not verdict.realizable:
        raise ValueError(f"verdict {verdict.reason!r} is not realizable")
    route = verdict.certificate_hint
    if rotation is not None:
        if not _is_int(rotation):
            raise ValueError(f"rotation must be an integer, got {rotation!r}")
        if not (
            route == "zero-residue-chain"
            and sig.genus == 1
            and sig.p > 0
            and sum(a > 0 for a in sig.zeros) <= 1
        ):
            raise ValueError(
                "rotation numbers apply to genus-1 strata with higher poles, "
                "zero residues and at most one zero"
            )
    if route == "zero-residue-chain":
        surface, splits = _zero_residue_base(sig, rotation)
    elif route in ("connection-graph", "blow-up-of-single-zero", "stable-tree"):
        surface, splits = _stable_assembly_base(sig, verdict.ray)
    elif route == "genus-reduction":
        surface, splits = _positive_genus_base(sig, residues)
    elif route in ("residual-polygon", "collinear-anchor-chain"):
        surface, splits = _single_zero_surface(sig, *lattice(residues), verdict.ray), [sig.zeros]
    else:
        raise ValueError(f"verdict {verdict.reason!r} names no construction route: {route!r}")
    claimed, tables = _read_surface(surface)
    cert = ConstructionCertificate(surface, (), claimed, rotation)
    if rotation is not None:
        _check_rotation(cert, claimed, tables)
    for split in splits:
        parts = [a for a in split if a > 0]
        if len(parts) > 1:
            cert = blow_up_zero(cert, cert.claimed.zero_orders.index(sum(parts)), parts)
    cert = _with_marked_points(cert, sig.zeros)
    if not profile_matches(cert.claimed, sig, residues):
        raise InternalBuildError(
            f"builder output does not reproduce the request: got {cert.claimed}, "
            f"wanted {sig} with residues {tuple(map(str, residues))}"
        )
    return cert
