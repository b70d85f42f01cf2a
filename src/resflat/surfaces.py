"""Flat pieces, glued surfaces, witness builders and certificates.

A surface is a list of pieces (polygons, higher-order polar parts, simple-pole
parts) plus a perfect matching of their finite boundary edges; matched edges
carry equal translation vectors.  The verifier recovers genus, cone-point
orders and exact pole residues from that data alone, so every constructed
witness is checked by machinery independent of the construction.

Conventions.  Each boundary edge is stored with a canonical direction that
keeps the piece interior on the left; two edges may be glued exactly when
their canonical vectors are opposite.  A polar part of order b >= 2 and type
tau in [1, b-1] consists of two boundary chains (top vectors with weakly
decreasing arguments, bottom vectors with weakly increasing arguments, each
chain with nonnegative real sum) wrapped around b half-plane sheets; its
wrap corners acquire whole turns from the sheets, so cone angles are counted
in whole turns without materializing anything infinite.  Chain vectors must
not point along the negative real axis, where they would run back over the
horizontal gluing rays.  A surface lives on one integer lattice: it holds
a positive denominator d, and its pieces hold integer pairs (x, y), each
the vector (x + iy)/d, which the builders compute and the verifier reads
as stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from .core import (
    Pair,
    PrimitiveRay,
    QQi,
    StratumSignature,
    arg_cmp,
    residue_tuple,
    scaled,
)
from . import decide as _decide
from . import graphs as _graphs

_ONE = (1, 0)
_I = (0, 1)


class VerificationError(Exception):
    """A surface or certificate failed verification."""

    def __init__(self, violations: Iterable[str]) -> None:
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class InternalBuildError(RuntimeError):
    """A builder produced output that failed its own verification (a bug)."""


# ---------------------------------------------------------------------------
# Pieces


@dataclass(frozen=True)
class Polygon:
    """A flat disk bounded by a closed edge chain, counterclockwise."""

    edges: tuple[Pair, ...]

    def __init__(self, edges: Iterable[Pair]) -> None:
        object.__setattr__(self, "edges", tuple([*edges]))


@dataclass(frozen=True)
class PolarPart:
    """Neighborhood of a pole of order >= 2, with two boundary chains."""

    order: int
    pole_type: int
    top: tuple[Pair, ...]
    bottom: tuple[Pair, ...]

    def __init__(
        self, order: int, pole_type: int, top: Iterable[Pair], bottom: Iterable[Pair]
    ) -> None:
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "pole_type", int(pole_type))
        object.__setattr__(self, "top", tuple([*top]))
        object.__setattr__(self, "bottom", tuple([*bottom]))


@dataclass(frozen=True)
class SimplePolePart:
    """A half-infinite cylinder over a boundary chain; simple pole at the end."""

    vectors: tuple[Pair, ...]

    def __init__(self, vectors: Iterable[Pair]) -> None:
        object.__setattr__(self, "vectors", tuple([*vectors]))


Piece = Polygon | PolarPart | SimplePolePart

_CHAINS = {Polygon: ("edges",), PolarPart: ("top", "bottom"), SimplePolePart: ("vectors",)}


def _boundary(piece: Piece) -> tuple[Pair, ...]:
    """Boundary vectors in slot order; a polar part's bottom chain runs reversed."""
    return tuple([v for k in _CHAINS[type(piece)] for v in getattr(piece, k)])


def _neg(v: Pair) -> Pair:
    return (-v[0], -v[1])


def _map_pairs(piece: Piece, f) -> Piece:
    """The piece with ``f`` applied to every boundary vector, in slot order."""
    return replace(piece, **{k: [f(v) for v in getattr(piece, k)] for k in _CHAINS[type(piece)]})


# Angles are counted in whole turns.  With arguments in (-pi, pi], an angle
# from direction u to direction v is arg v - arg u + 2*pi*w for an integer w;
# summed around a closed walk the argument differences cancel, leaving 2*pi
# times the sum of the w.  Call a nonzero pair up when its argument lies in
# (0, pi]; -u is up exactly when u is not.  Then, with c = cross(u, v), the
# counterclockwise sweep from v to -u, taken in (0, 2*pi], has w = up(u)
# when u and v are up alike and w = (c <= 0) otherwise; the signed turn from
# u to v, taken in [-pi, pi), has w = 0 when they are up alike, else up(u)
# when c > 0 and -up(v) when not.


def _read_piece(piece: Piece) -> tuple[Sequence[Pair], list[int], list[int], Pair | None]:
    """Check a piece and read it in one pass over its integer pairs.

    Returns the canonical vectors in slot order, each slot's predecessor on
    the boundary cycle, the turns w (a bool where w is 0 or 1) of the corner
    entering each slot, which sweeps counterclockwise from the slot's
    canonical vector to the reverse of its predecessor's, and the residue
    of the piece's pole as the integer sum of its canonical vectors (None
    for a polygon).  Raises ValueError with the first violated condition.
    Dividing the pairs by the surface's positive denominator changes no
    check or turn, so all are read as stored.

    A polygon must turn once in all, and be convex: at every corner, from
    edge u to edge v, it turns left (cross(u, v) > 0) or goes straight on
    (cross(u, v) == 0 and dot(u, v) > 0).  Every turn is then in [0, pi)
    and they add up to one whole turn, so the edge directions sweep the
    circle once, counterclockwise, and every edge has the whole polygon on
    its left: the polygon is convex, hence simple, and bounds a flat disk.

    A simple-pole chain with residue r != 0 must be strictly monotone along
    r: every vector v has v . r > 0.  Its periodic lift, the chain and its
    translates by k * r, then advances strictly along r from vertex to
    vertex, so it is a simple polyline, and the region on its left, taken
    modulo r, really is a half-infinite cylinder.  A zero residue is
    reported by :func:`verify_surface`.
    """
    if isinstance(piece, PolarPart):
        return _read_polar_part(piece)
    if isinstance(piece, SimplePolePart):
        vs = piece.vectors
        if not vs:
            raise ValueError("simple-pole part needs at least one vector")
        if (0, 0) in vs:
            raise ValueError("simple-pole chain contains a zero vector")
        turns: list[int] = []
        rx = ry = 0
        ux, uy = vs[-1]
        uu = uy > 0 or (uy == 0 and ux < 0)
        for vx, vy in vs:
            uv = vy > 0 or (vy == 0 and vx < 0)
            turns.append(uu if uu == uv else ux * vy - uy * vx <= 0)
            rx += vx
            ry += vy
            ux, uy, uu = vx, vy, uv
        if rx or ry:
            for x, y in vs:
                if x * rx + y * ry <= 0:
                    raise ValueError("simple-pole chain is not monotone along its residue")
        return vs, [len(vs) - 1, *range(len(vs) - 1)], turns, (rx, ry)
    if not isinstance(piece, Polygon):
        raise ValueError(f"unknown piece type {type(piece).__name__}")
    vs = piece.edges
    if len(vs) < 3:
        raise ValueError("polygon needs at least three edges")
    if (0, 0) in vs:
        raise ValueError("polygon edge is zero")
    turns = []
    rx = ry = wind = 0
    convex = True
    ux, uy = vs[-1]
    uu = uy > 0 or (uy == 0 and ux < 0)
    for vx, vy in vs:
        uv = vy > 0 or (vy == 0 and vx < 0)
        c = ux * vy - uy * vx
        if uu == uv:
            turns.append(uu)
        elif c > 0:
            turns.append(False)
            wind += uu
        else:
            turns.append(True)
            wind -= uv
        if c < 0 or (c == 0 and ux * vx + uy * vy < 0):
            convex = False
        rx += vx
        ry += vy
        ux, uy, uu = vx, vy, uv
    if rx or ry:
        raise ValueError("polygon edges do not close up")
    if wind != 1:
        raise ValueError("polygon boundary does not wind once counterclockwise")
    if not convex:
        raise ValueError("polygon is not convex: it turns right or back at a corner")
    return vs, [len(vs) - 1, *range(len(vs) - 1)], turns, None


def _read_polar_part(piece: PolarPart) -> tuple[Sequence[Pair], list[int], list[int], Pair]:
    """:func:`_read_piece` on a polar part.  Top slot k follows k - 1 and
    bottom slot l + k follows l + k + 1, so the corner between chain vectors
    k - 1 and k sweeps from top[k] to -top[k - 1], or from -bottom[k - 1] to
    bottom[k]; off the negative real axis a vector is up exactly when y > 0.
    The wrap corners add the half-plane sheets, tau and order - tau turns
    (order - 1 and a half with one chain)."""
    b, tau, top, bottom = piece.order, piece.pole_type, piece.top, piece.bottom
    if b < 2:
        raise ValueError("polar part order must be at least 2")
    if not (1 <= tau <= b - 1):
        raise ValueError("polar part type must lie in [1, order-1]")
    if not (top or bottom):
        raise ValueError("polar part needs a nonempty boundary chain")
    inner, rx, ry = [], 0, 0
    for chain, down, label in ((top, True, "top"), (bottom, False, "bottom")):
        turns: list[int] = []
        sx = sy = 0
        pu = ordered = True
        for k, (x, y) in enumerate(chain):
            if not (x or y):
                raise ValueError(f"{label} chain contains a zero vector")
            if y == 0 and x < 0:
                raise ValueError(f"{label} chain vector points along the negative real axis")
            u = y > 0
            if k:
                c = px * y - py * x
                if pu == u:
                    turns.append(pu if down else not u)
                    ordered = ordered and (c <= 0 if down else c >= 0)
                else:
                    turns.append(c <= 0 if down else c >= 0)
                    ordered = ordered and (pu if down else u)
            sx += x
            sy += y
            px, py, pu = x, y, u
        if not ordered:
            trend = "decreasing" if down else "increasing"
            raise ValueError(f"{label} chain arguments must be weakly {trend}")
        if sx < 0:
            raise ValueError(f"{label} chain sum must have nonnegative real part")
        inner.append(turns)
        rx, ry = (rx + sx, ry + sy) if down else (rx - sx, ry - sy)
    l, lp = len(top), len(bottom)
    before = [*range(-1, l - 1), *range(l + 1, l + lp + 1)]
    if l and lp:
        before[0], before[-1] = l, l - 1
        wrap = b - tau + (bottom[-1][1] <= 0) - (top[-1][1] <= 0)
        turns = [tau, *inner[0], *inner[1], wrap]
    elif l:
        before[0] = l - 1
        turns = [b - 1 + (top[-1][1] > 0), *inner[0]]
    else:
        before[-1] = 0
        turns = [*inner[1], b - 1 + (bottom[-1][1] <= 0)]
    canon = [*top, *[(-x, -y) for x, y in bottom]] if lp else top
    return canon, before, turns, (rx, ry)


def _value(v: Pair, d: int) -> QQi:
    """The Gaussian rational an integer pair stands for over the denominator d."""
    if d == 1:
        return QQi(Fraction(v[0]), Fraction(v[1]))
    return QQi(Fraction(v[0], d), Fraction(v[1], d))


# ---------------------------------------------------------------------------
# Surfaces and the verifier


Slot = tuple[int, int]  # (piece index, slot index)


@dataclass(frozen=True)
class FlatSurface:
    """Pieces glued along pairings of edge slots; a pair (x, y) is (x + iy)/d."""

    pieces: tuple[Piece, ...]
    pairings: tuple[tuple[Slot, Slot], ...]
    d: int = 1

    def __init__(
        self,
        pieces: Iterable[Piece],
        pairings: Iterable[tuple[Slot, Slot]] = (),
        d: int = 1,
    ) -> None:
        object.__setattr__(self, "pieces", tuple([*pieces]))
        object.__setattr__(
            self, "pairings", tuple([(tuple(a), tuple(b)) for a, b in pairings])
        )
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class Profile:
    """Invariants read off a closed surface: genus, cone orders, poles.

    ``zero_orders`` is sorted descending and includes order-0 entries for
    marked regular points.  ``poles`` lists (order, residue) pairs with order
    -b or -1, in piece order for verified surfaces.
    """

    genus: int
    zero_orders: tuple[int, ...]
    poles: tuple[tuple[int, QQi], ...]


def verify_surface(surface: FlatSurface) -> Profile:
    """Check a glued surface and return its invariants.

    Verifies: a positive denominator, local piece validity, exact vector
    equality across the matching (canonical vectors of matched slots are
    opposite), completeness of the matching, connectivity, and the degree
    identity.  Cone angles are counted exactly in whole turns, and genus
    comes from the Euler characteristic of the induced cell complex.
    Raises VerificationError.

    Dividing by the positive denominator d changes no piece check, winding
    or corner turn, so they are read on the pairs as stored; glued vectors
    are compared as opposite integer pairs, and each residue is its piece's
    integer sum over d.
    """
    return _read_surface(surface)[0]


def _read_surface(surface: FlatSurface) -> tuple[Profile, tuple]:
    """:func:`verify_surface`, with the tables it reads the profile from, on
    flat slot ids in sorted (piece, slot) order: each piece's slot count,
    each slot's canonical vector, the pairings, each slot's predecessor on
    its piece's boundary cycle and the turns of the corner between them,
    and the corner orbit, a point of the surface, that each slot starts
    at.  Each piece is read once, by :func:`_read_piece`."""
    violations: list[str] = []
    pieces = surface.pieces
    if not pieces:
        raise VerificationError(("surface has no pieces",))
    d = surface.d
    if d < 1:
        raise VerificationError((f"surface denominator {d} is not positive",))
    flat: list[Pair] = []
    before: list[int] = []
    turns: list[int] = []
    offsets: list[int] = []  # the flat id of each piece's slot 0
    sizes: list[int] = []
    sums: list[tuple[int, int, Pair]] = []
    for idx, pc in enumerate(pieces):
        try:
            canon, prev, into, res = _read_piece(pc)
        except ValueError as exc:
            violations.append(f"piece {idx}: {exc}")
            continue
        offset = len(flat)
        offsets.append(offset)
        sizes.append(len(canon))
        before.extend([offset + k for k in prev])
        flat.extend(canon)
        turns.extend(into)
        if res is not None:
            sums.append((idx, -pc.order if isinstance(pc, PolarPart) else -1, res))
    if violations:
        raise VerificationError(violations)

    partner = [-1] * len(flat)
    glued: list[tuple[int, int]] = []
    n = len(sizes)
    for num, (a, b) in enumerate(surface.pairings):
        # Two free slots in range with opposite integer vectors are glued
        # at once; glued vectors are nonzero, so the slots differ.
        try:
            (i, k), (j, m) = a, b
            if 0 <= i < n and 0 <= k < sizes[i] and 0 <= j < n and 0 <= m < sizes[j]:
                fa, fb = offsets[i] + k, offsets[j] + m
                (ux, uy), (vx, vy) = flat[fa], flat[fb]
                if ux == -vx and uy == -vy and partner[fa] < 0 and partner[fb] < 0:
                    partner[fa], partner[fb] = fb, fa
                    glued.append((fa, fb))
                    continue
        except (TypeError, ValueError):
            pass
        # Any other pairing is read end by end, to word its rejection.  One
        # that cannot be indexed, or meets a matched slot, ends the matching;
        # any other has a vector mismatch, which does not, so every
        # mismatched pairing is reported.
        blocked, ends = [], []
        for end in (a, b):
            try:
                i, k = end
                inside = 0 <= i < n and 0 <= k < sizes[i]
                ends.append(offsets[i] + k if inside else -1)
            except (TypeError, ValueError):
                ends.append(-1)
            if ends[-1] < 0:
                blocked.append(f"pairing {num}: no such edge slot {end}")
            elif partner[ends[-1]] >= 0:
                blocked.append(f"pairing {num}: slot {end} is matched twice")
        if not blocked and a == b:
            blocked.append(f"pairing {num}: slot {a} glued to itself")
        if blocked:
            raise VerificationError(violations + blocked)
        fa, fb = ends
        u, v = _value(flat[fa], d), _value(flat[fb], d)
        violations.append(f"pairing {num}: vector mismatch, {u} against {v}")
        partner[fa] = fb
        partner[fb] = fa
        glued.append((fa, fb))
    if -1 in partner:
        slots = [(i, k) for i, size in enumerate(sizes) for k in range(size)]
        unmatched = [slots[f] for f, g in enumerate(partner) if g < 0]
        violations.append(f"unmatched boundary edges: {unmatched}")
    if violations:
        raise VerificationError(violations)

    if not _graphs._connected(len(pieces), [(a[0], b[0]) for a, b in surface.pairings]):
        raise VerificationError(("surface is disconnected",))

    # Each corner ends on the direction the next one starts from (matched
    # edges are exact translates), so an orbit's cone angle is 2*pi times
    # its summed turns: a positive integer, as every corner angle is positive.
    vertex = [-1] * len(flat)
    orders: list[int] = []
    for start in range(len(flat)):
        if vertex[start] >= 0:
            continue
        total = 0
        cur = start
        while vertex[cur] < 0:
            vertex[cur] = len(orders)
            total += turns[cur]
            cur = partner[before[cur]]
        orders.append(total - 1)

    poles: list[tuple[int, QQi]] = []
    for i, order, (rx, ry) in sums:
        if order == -1 and not (rx or ry):
            violations.append(f"piece {i}: zero residue at a simple pole")
        poles.append((order, _value((rx, ry), d)))
    if violations:
        raise VerificationError(violations)

    chi = len(pieces) + len(orders) - len(surface.pairings)
    if chi % 2 or chi > 2:
        raise VerificationError((f"Euler characteristic {chi} is not of a closed surface",))
    genus = (2 - chi) // 2

    degree = sum(orders) + sum(o for o, _ in poles)
    if degree != 2 * genus - 2:
        raise VerificationError(
            (f"degree identity fails: orders sum to {degree}, expected {2 * genus - 2}",)
        )
    profile = Profile(genus, tuple(sorted(orders, reverse=True)), tuple(poles))
    return profile, (sizes, flat, glued, before, turns, vertex)


def profile_matches(
    profile: Profile, sig: StratumSignature, residues: Sequence[QQi]
) -> bool:
    """Exact agreement of a profile with prescribed invariants.

    Zero orders are compared as multisets of positive orders; declared
    order-0 marked points must be covered by marked points of the profile,
    and surplus marked points are tolerated (marking a regular point does not
    change the differential).  Poles are compared as a multiset of
    (order, residue) pairs.
    """
    if profile.genus != sig.genus:
        return False
    if sorted([a for a in sig.zeros if a > 0]) != sorted(
        [a for a in profile.zero_orders if a > 0]
    ):
        return False
    if sig.zeros.count(0) > profile.zero_orders.count(0):
        return False
    orders = [-b for b in sig.higher_poles] + [-1] * sig.s
    return _same_poles(list(zip(orders, residues)), profile.poles)


def _same_poles(a: Sequence[tuple[int, QQi]], b: Sequence[tuple[int, QQi]]) -> bool:
    """Whether two lists of (order, residue) poles agree as multisets.

    Reduced fractions are equal exactly when their integer parts are, so
    each pole becomes a tuple of integers.  Lists in the same order are
    then equal as sequences; only lists that differ are sorted.
    """

    def key(poles: Sequence[tuple[int, QQi]]) -> list[tuple[int, int, int, int, int]]:
        return [
            (o, r.re.numerator, r.re.denominator, r.im.numerator, r.im.denominator)
            for o, r in poles
        ]

    if len(a) != len(b):
        return False
    ka, kb = key(a), key(b)
    return ka == kb or sorted(ka) == sorted(kb)


def _loop_indices(tables: tuple) -> list[int]:
    """Indices of 2g loops that span H_1 of the closed surface.

    A tree-cotree split finds them (Eppstein, SODA 2003): the pairings off a
    spanning tree of the corner orbits join pieces as dual edges, and each
    of the 2g of these off a spanning tree of the pieces closes a loop.

    A loop crosses a pairing along the inward normal i*c of the slot it
    enters, c that slot's canonical vector, and runs through a piece from
    slot e to slot f just inside the boundary arc from e counterclockwise to
    f; the other arc differs by a loop about the piece's pole, if any, whose
    index is the pole's order.  It turns by -pi/2, by pi minus each inner
    corner's angle arg(-c_(k-1)) - arg(c_k) + 2*pi*w_k, and by -pi/2.  As
    arg(-c) = arg(c) + pi - 2*pi*up(c), up(c) for arguments in (0, pi], the
    arguments cancel around the loop, and a piece adds the sum of up(c) over
    the arc, minus the inner corners' w_k, minus 1 whole turn.
    """
    sizes, flat, glued, before, turns, vertex = tables
    piece_of = [i for i, size in enumerate(sizes) for _ in range(size)]
    up = [y > 0 or (y == 0 and x < 0) for x, y in flat]
    tree = _graphs._spanning_forest(max(vertex) + 1, [(vertex[a], vertex[b]) for a, b in glued])
    dual: list[list[tuple[int, int]]] = [[] for _ in sizes]
    for (a, b), t in zip(glued, tree):
        if not t:
            dual[piece_of[a]].append((a, b))
            dual[piece_of[b]].append((b, a))
    # Grow the cotree from piece 0, breadth first: link[x] is (slot of x,
    # slot of its parent).  Each dual edge left out, met from both ends,
    # closes one loop.
    depth = [0] + [-1] * (len(sizes) - 1)
    link = [(0, 0)] * len(sizes)
    queue, loops = [0], []
    for x in queue:
        for a, b in dual[x]:
            y = piece_of[b]
            if depth[y] < 0:
                depth[y], link[y] = depth[x] + 1, (b, a)
                queue.append(y)
            elif a < b and link[x] != (a, b):
                loops.append((a, b))

    def arc(e: int, f: int) -> int:
        total = up[f] - 1
        while f != e:
            total -= turns[f]
            f = before[f]
            total += up[f]
        return total

    indices = []
    for a, b in loops:
        # Crossings (exit slot, entry slot): through a -> b, then along the
        # cotree from b's piece up to the common ancestor and down to a's.
        u, v = piece_of[b], piece_of[a]
        climb, descent = [], []
        while u != v:
            if depth[u] >= depth[v]:
                climb.append(link[u])
                u = piece_of[link[u][1]]
            else:
                descent.append(link[v][::-1])
                v = piece_of[link[v][1]]
        crossings = [(a, b), *climb, *reversed(descent)]
        exits = [f for f, _ in crossings[1:] + crossings[:1]]
        indices.append(sum(arc(e, f) for (_, e), f in zip(crossings, exits)))
    return indices


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class BlowUpZero:
    zero_index: int
    parts: tuple[int, ...]


@dataclass(frozen=True)
class ConstructionCertificate:
    """One glued surface, blow-ups and the claimed invariants.

    A blow-up acts on the surface's verified profile by bookkeeping: it
    splits a zero into parts of the same total order.  Zero indices refer
    to the current zero tuple, sorted descending, at each step.
    """

    surface: FlatSurface
    surgeries: tuple[BlowUpZero, ...]
    claimed: Profile
    claimed_rotation: int | None = None


def _apply_surgery(profile: Profile, surgery: BlowUpZero) -> Profile:
    """The profile after one blow-up; raises ValueError when it does not apply."""
    if not isinstance(surgery, BlowUpZero):
        raise ValueError(f"unknown operation {surgery!r}")
    zeros = list(profile.zero_orders)
    if not (0 <= surgery.zero_index < len(zeros)):
        raise ValueError("zero index out of range")
    order = zeros.pop(surgery.zero_index)
    parts = surgery.parts
    if not parts or any(x <= 0 for x in parts):
        raise ValueError("blow-up parts must be positive")
    if sum(parts) != order:
        raise ValueError(f"parts sum to {sum(parts)}, zero has order {order}")
    zeros.extend(parts)
    return Profile(profile.genus, tuple(sorted(zeros, reverse=True)), profile.poles)


def blow_up_zero(
    cert: ConstructionCertificate, zero_index: int, parts: Sequence[int]
) -> ConstructionCertificate:
    """Split a zero of the claimed profile into parts of the same total order.

    Pole orders, residues and genus are unchanged.  Raises ValueError when
    the index names no zero, or the parts are not positive or do not sum
    to the chosen zero's order.
    """
    step = BlowUpZero(zero_index, tuple([int(x) for x in parts]))
    return replace(
        cert,
        surgeries=cert.surgeries + (step,),
        claimed=_apply_surgery(cert.claimed, step),
        claimed_rotation=None,
    )


def verify_certificate(cert: ConstructionCertificate) -> Profile:
    """Re-derive a certificate's profile and check it against the claim.

    The surface is verified from scratch; blow-ups are then folded in by
    their rule.  A claimed rotation number needs a genus-1 surface and no
    surgeries; it must divide the gcd of all orders and equal the rotation
    number read off the surface, the gcd of all orders and the indices of
    two loops that span H_1 (Boissy, Comment. Math. Helv. 90, 2015).
    """
    profile, tables = _read_surface(cert.surface)
    for step, surgery in enumerate(cert.surgeries):
        try:
            profile = _apply_surgery(profile, surgery)
        except ValueError as exc:
            raise VerificationError((f"surgery {step}: {exc}",)) from exc

    if profile.genus != cert.claimed.genus:
        raise VerificationError(
            (f"claimed genus {cert.claimed.genus}, derived {profile.genus}",)
        )
    if profile.zero_orders != cert.claimed.zero_orders:
        raise VerificationError(
            (
                f"claimed zero orders {cert.claimed.zero_orders}, "
                f"derived {profile.zero_orders}",
            )
        )
    if not _same_poles(profile.poles, cert.claimed.poles):
        raise VerificationError(("claimed poles differ from the derived poles",))

    if cert.claimed_rotation is not None:
        _check_rotation(cert, profile, tables)
    return profile


def _check_rotation(cert: ConstructionCertificate, profile: Profile, tables: tuple) -> None:
    rot = cert.claimed_rotation
    if profile.genus != 1:
        raise VerificationError(("rotation numbers apply to genus-1 certificates",))
    if rot < 1:
        raise VerificationError((f"invalid rotation number {rot}",))
    g0 = math.gcd(*profile.zero_orders, *[o for o, _ in profile.poles])
    if g0 % rot:
        raise VerificationError((f"rotation {rot} does not divide gcd of the orders {g0}",))
    if cert.surgeries:
        raise VerificationError(("rotation claims require a surface without surgeries",))
    measured = math.gcd(g0, *_loop_indices(tables))
    if measured != rot:
        raise VerificationError((f"the surface has rotation number {measured}, claimed {rot}",))


# ---------------------------------------------------------------------------
# Elementary builders


def _cert_of(surface: FlatSurface) -> ConstructionCertificate:
    return ConstructionCertificate(surface, (), verify_surface(surface))


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
    pieces: Sequence[Piece], pairings: Sequence[tuple[Slot, Slot]], nodes: int, d: int
) -> FlatSurface:
    """Plumb the last ``2 * nodes`` pieces, simple-pole parts in pairs
    (lower, upper) of opposite residues, into finite cylinders.

    Plumbing two simple poles of residues c and -c leaves a finite cylinder
    of circumference c.  The first n pieces keep their places, and pair c
    becomes the polygon lower + [h] + upper + [-h], h = i * sum(lower),
    at piece n + c, with h glued to -h, on a surface of denominator d.  A
    pair on two components is a node; a pair on one component is a handle.
    Slot k of lower stays slot k and slot k of upper becomes slot
    len(lower) + 1 + k; ``pairings`` keep their order with their slots
    renumbered, and the gluings of h follow them, in node order.
    """
    n = len(pieces) - 2 * nodes
    out = list(pieces[:n])
    shift = []
    ends = []
    for c in range(nodes):
        lower, upper = pieces[n + 2 * c].vectors, pieces[n + 2 * c + 1].vectors
        h = (-sum(y for _, y in lower), sum(x for x, _ in lower))
        out.append(Polygon(lower + (h,) + upper + (_neg(h),)))
        shift += [0, len(lower) + 1]
        ends.append(((n + c, len(lower)), (n + c, len(lower) + len(upper) + 1)))

    def moved(slot: Slot) -> Slot:
        i, k = slot
        return slot if i < n else (n + (i - n) // 2, k + shift[i - n])

    return FlatSurface(out, [(moved(a), moved(b)) for a, b in pairings] + ends, d)


def _single_zero_surface(
    sig: StratumSignature, d: int, residues: Sequence[Pair], ray: PrimitiveRay | None
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
    read; the zero carries their whole degree.  Residues are pairs over d.
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
    return FlatSurface(pieces, pairings, d)


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


def _positive_parts(zeros: Sequence[int]) -> tuple[int, ...]:
    return tuple([a for a in zeros if a > 0])


def _blow_to_target(
    cert: ConstructionCertificate, zeros: Sequence[int]
) -> ConstructionCertificate:
    """Blow the certificate's largest zero into the prescribed positive orders."""
    parts = _positive_parts(zeros)
    if len(parts) <= 1:
        return cert
    total = sum(parts)
    idx = cert.claimed.zero_orders.index(total)
    return blow_up_zero(cert, idx, parts)


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
    rescaling that makes the parts integral keeps d the least denominator.
    """
    missing = max(0, zeros.count(0) - cert.claimed.zero_orders.count(0))
    if not missing:
        return cert
    (a, b), *rest = cert.surface.pairings
    x, y = _boundary(cert.surface.pieces[a[0]])[a[1]]
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
    surface = FlatSurface(pieces, glued, cert.surface.d * t)
    claimed = replace(cert.claimed, zero_orders=cert.claimed.zero_orders + (0,) * missing)
    return replace(cert, surface=surface, claimed=claimed)


def _zero_residue_cert(sig: StratumSignature) -> ConstructionCertificate:
    orders = sig.higher_poles
    total_b = sig.pole_degree
    p = sig.p
    zeros = sorted(_positive_parts(sig.zeros), reverse=True)
    if len(zeros) <= 1:
        # The decider admits at most one zero only with a single pole, which
        # a self-glued chain carries; profile_matches rejects anything else.
        return _cert_of(_chain_surface((orders[0],), (1,)))
    if len(zeros) == 2:
        return _cert_of(_chain_surface(orders, _choose_taus(orders, zeros[0] + 1)))
    lo1, lo2 = sorted(zeros)[:2]
    if len(zeros) == 3 and lo1 + lo2 > total_b - p - 1:
        return _cert_of(_triangle_surface(sorted(zeros), orders))
    rest = sorted(zeros)[2:]
    sub = StratumSignature(0, tuple(rest + [lo1 + lo2]), orders)
    cert = _zero_residue_cert(sub)
    idx = cert.claimed.zero_orders.index(lo1 + lo2)
    return blow_up_zero(cert, idx, (lo1, lo2))


def _stable_assembly_cert(sig: StratumSignature, ray: PrimitiveRay) -> ConstructionCertificate:
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
    c.  The remainder's zero is then blown up into the zeros not peeled.
    With one zero, or when one zero carries every entry, there are no nodes.
    """
    found = _graphs.find_stable_config(ray.integers, _positive_parts(sig.zeros))
    if found is None:
        raise InternalBuildError("no stable configuration although the decider says realizable")
    components, left = found
    s = len(ray.integers)
    nodes = len(components) - 1
    ints = list(ray.integers)
    d, [(x, y)] = scaled([ray.direction])
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
    return _blow_to_target(_cert_of(_plumb(pieces, glued, nodes, d)), left)


def _genus1_zero_residue_cert(
    orders: Sequence[int], rotation: int | None
) -> ConstructionCertificate:
    """A genus-1 zero-residue base, of the rotation number given if any: a
    chain closed by the square whose types sum to a total of that gcd with
    the orders, or for double poles only, where no total has it, a handle
    over that many of the poles."""
    orders = tuple(orders)
    p = len(orders)
    if rotation is None:
        return _cert_of(_chain_surface(orders, (1,) * p, _SQUARE))
    rot = int(rotation)
    if rot < 1:
        raise ValueError(f"rotation number must be at least 1, got {rot}")
    g0 = math.gcd(*orders)
    if g0 % rot:
        raise ValueError(f"rotation {rot} does not divide gcd of the orders")
    if p == 1 and rot == orders[0]:
        raise ValueError("the rotation number of this family is a strict divisor")
    total = next((t for t in range(p, sum(orders) - p + 1) if math.gcd(g0, t) == rot), None)
    if total is None:  # only double poles leave no total, and rot is 1 or 2
        surface = _chain_surface((2,) * (p - rot), (1,) * (p - rot), _HANDLE, rot - 1)
    else:
        surface = _chain_surface(orders, _choose_taus(orders, total), _SQUARE)
    claimed, tables = _read_surface(surface)
    cert = ConstructionCertificate(surface, (), claimed, rot)
    _check_rotation(cert, claimed, tables)
    return cert


def _positive_genus_cert(
    sig: StratumSignature, residues: Sequence[QQi], rotation: int | None
) -> ConstructionCertificate:
    """g plumbed handles on a single-zero genus-0 base, then the blow-ups.

    The base adds simple poles of residues c_j = (j + i) * r_0 and -c_j for
    j < g, r_0 the first nonzero residue or 1, and :func:`_plumb` joins
    each pair into a handle.  c_0 is off the real line of r_0, so the
    residues span the plane.  A genus-1 zero-residue base is built apart.
    """
    g = sig.genus
    if g == 1 and all(r.is_zero() for r in residues):
        # With no poles at all this is the bare square.
        return _blow_to_target(_genus1_zero_residue_cert(sig.higher_poles, rotation), sig.zeros)
    d, pairs = scaled(residues)
    x, y = next((r for r in pairs if r != (0, 0)), _ONE)
    handles = []
    for j in range(g):
        c = (j * x - y, x + j * y)
        handles += [c, _neg(c)]
    base_sig = StratumSignature(
        0, (sig.pole_degree + sig.s + 2 * g - 2,), sig.higher_poles, sig.s + 2 * g
    )
    base = _single_zero_surface(base_sig, d, [*pairs, *handles], None)
    return _blow_to_target(_cert_of(_plumb(base.pieces, base.pairings, g, d)), sig.zeros)


def _certificate_for(
    sig: StratumSignature,
    residues: tuple[QQi, ...],
    verdict: "_decide.Verdict",
    rotation: int | None,
) -> ConstructionCertificate:
    """Build along a realizable verdict's route and check the claim.

    Every claim is :func:`verify_surface`'s reading of the surface, folded
    through :func:`_apply_surgery`, plus one order-0 zero per point
    :func:`_with_marked_points` marks.  That is what
    :func:`verify_certificate` re-derives, so only the request is checked
    here.  A claimed rotation is checked where its base is built, against
    the rotation read off it; marking regular points does not change it.
    """
    if rotation is not None and not (
        sig.genus == 1
        and sig.p > 0
        and all(r.is_zero() for r in residues)
        and len(_positive_parts(sig.zeros)) <= 1
    ):
        raise ValueError(
            "rotation numbers apply to genus-1 strata with higher poles, "
            "zero residues and at most one zero"
        )
    route = verdict.certificate_hint
    if route == "zero-residue-chain":
        cert = _zero_residue_cert(sig)
    elif route in ("connection-graph", "blow-up-of-single-zero", "stable-tree"):
        cert = _stable_assembly_cert(sig, verdict.ray)
    elif route == "genus-reduction":
        cert = _positive_genus_cert(sig, residues, rotation)
    else:
        cert = _cert_of(_single_zero_surface(sig, *scaled(residues), verdict.ray))
        cert = _blow_to_target(cert, sig.zeros)
    cert = _with_marked_points(cert, sig.zeros)
    if not profile_matches(cert.claimed, sig, residues):
        raise InternalBuildError(
            f"builder output does not reproduce the request: got {cert.claimed}, "
            f"wanted {sig} with residues {tuple(map(str, residues))}"
        )
    return cert


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
    connected component.
    """
    residues = residue_tuple(residues)
    verdict = _decide.decide_realizable(sig, residues)
    if not verdict.realizable:
        return None
    return _certificate_for(sig, residues, verdict, rotation)
