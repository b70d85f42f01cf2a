"""The trusted kernel: the surface format and its check.

A surface is a list of pieces (polygons, higher-order polar parts, simple-pole
parts) plus a perfect matching of their finite boundary edges; matched edges
carry equal translation vectors.  The verifier recovers genus, cone-point
orders and exact pole residues from that data alone, so every constructed
witness is checked by machinery independent of the construction: this
module and :mod:`resflat.core`, which is all it imports, and one rule
taken on trust, the blow-up bookkeeping of :func:`_apply_surgery`.

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
a positive denominator d and a positive numerator n, and its pieces hold
integer pairs (x, y), each the vector (x + iy) * n/d, which the builders
compute on the coarsest lattice (:func:`resflat.core.lattice`) and the
verifier reads as stored.

Certificate documents (format_version "4", on :mod:`resflat.core`'s JSON
scalars) hold one "surface", its "surgeries", the claimed profile and a
claimed rotation.  A surface lists pieces, their chains in slot order and
each vector in lowest terms, and pairings of edge slots; the reader puts
them on their coarsest lattice.  Nodes of a stable tree
and handles are polygons, the finite cylinders that plumbing leaves.  The
only surgery is "blow_up_zero"; any other field or surgery, such as the
node list of format "1", the "family" of format "2" or the handle sewing of
format "3", is rejected.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice
from typing import Any, Iterable, Sequence

from .core import FORMAT_VERSION, DocumentError, Frozen, Pair, QQi, StratumSignature, lattice
from .core import _connected, _int_list, _is_int, _pair_to_json, _qqi_from_json, _qqi_to_json
from .core import _residues_from_json, _set, _spanning_forest


class VerificationError(Exception):
    """A surface or certificate failed verification."""

    def __init__(self, violations: Iterable[str]) -> None:
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------------------
# Pieces


class Polygon(Frozen):
    """A flat disk bounded by a closed edge chain, counterclockwise."""

    __slots__ = ("edges",)

    def __init__(self, edges: Iterable[Pair]) -> None:
        _set(self, "edges", tuple([*edges]))


class PolarPart(Frozen):
    """Neighborhood of a pole of order >= 2, with two boundary chains."""

    __slots__ = ("order", "pole_type", "top", "bottom")

    def __init__(
        self, order: int, pole_type: int, top: Iterable[Pair], bottom: Iterable[Pair]
    ) -> None:
        _set(self, "order", order)
        _set(self, "pole_type", pole_type)
        _set(self, "top", tuple([*top]))
        _set(self, "bottom", tuple([*bottom]))


class SimplePolePart(Frozen):
    """A half-infinite cylinder over a boundary chain; simple pole at the end."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: Iterable[Pair]) -> None:
        _set(self, "vectors", tuple([*vectors]))


Piece = Polygon | PolarPart | SimplePolePart

# Each kind's boundary chains in slot order, also its fields in a document.
_CHAINS = {Polygon: ("edges",), PolarPart: ("top", "bottom"), SimplePolePart: ("vectors",)}


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
    check or turn, so all are read as stored.  Coordinates must be integers,
    a bool reading as 0 or 1: a float or Fraction one makes its sum one.

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
    pole = isinstance(piece, SimplePolePart)
    if pole:
        vs = piece.vectors
        if not vs:
            raise ValueError("simple-pole part needs at least one vector")
        if (0, 0) in vs:
            raise ValueError("simple-pole chain contains a zero vector")
        if len(vs) == 1 and type(sum(vs[0])) is int:
            # One integer vector v is its own residue, and v . v > 0: monotone.
            vx, vy = vs[0]
            return vs, [0], [vy > 0 or (vy == 0 and vx < 0)], (vx, vy)
    elif isinstance(piece, Polygon):
        vs = piece.edges
        if len(vs) < 3:
            raise ValueError("polygon needs at least three edges")
        if (0, 0) in vs:
            raise ValueError("polygon edge is zero")
    else:
        raise ValueError(f"unknown piece type {type(piece).__name__}")
    # One walk gives each corner's turn, the winding, the convexity and the
    # sum.  Parallel u and v point the same way exactly when up alike, so a
    # corner goes straight on when up alike with cross(u, v) == 0.  A
    # chain's convexity is never asked, so its cross products are skipped.
    turns: list[int] = []
    rx = ry = wind = 0
    convex = not pole
    ux, uy = vs[-1]
    uu = uy > 0 or (uy == 0 and ux < 0)
    for vx, vy in vs:
        uv = vy > 0 or (vy == 0 and vx < 0)
        if uu == uv:
            turns.append(uu)
            convex = convex and ux * vy >= uy * vx
        elif ux * vy > uy * vx:
            turns.append(False)
            wind += uu
        else:
            turns.append(True)
            wind -= uv
            convex = False
        rx += vx
        ry += vy
        ux, uy, uu = vx, vy, uv
    if not type(rx) is type(ry) is int:
        raise ValueError("coordinates must be integers")
    before = [len(vs) - 1, *range(len(vs) - 1)]
    if pole:
        if rx or ry:
            for x, y in vs:
                if x * rx + y * ry <= 0:
                    raise ValueError("simple-pole chain is not monotone along its residue")
        return vs, before, turns, (rx, ry)
    if rx or ry:
        raise ValueError("polygon edges do not close up")
    if wind != 1:
        raise ValueError("polygon boundary does not wind once counterclockwise")
    if not convex:
        raise ValueError("polygon is not convex: it turns right or back at a corner")
    return vs, before, turns, None


def _read_polar_part(piece: PolarPart) -> tuple[Sequence[Pair], list[int], list[int], Pair]:
    """:func:`_read_piece` on a polar part.  Top slot k follows k - 1 and
    bottom slot l + k follows l + k + 1, so the corner between chain vectors
    k - 1 and k sweeps from top[k] to -top[k - 1], or from -bottom[k - 1] to
    bottom[k]; off the negative real axis a vector is up exactly when y > 0.
    The wrap corners add the half-plane sheets, tau and order - tau turns
    (order - 1 and a half with one chain)."""
    b, tau, top, bottom = piece.order, piece.pole_type, piece.top, piece.bottom
    if type(b) is not int or type(tau) is not int:
        raise ValueError("polar part order and type must be integers")
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
        if not type(sx) is type(sy) is int:
            raise ValueError("coordinates must be integers")
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


# ---------------------------------------------------------------------------
# Surfaces and the verifier


Slot = tuple[int, int]  # (piece index, slot index)


class FlatSurface(Frozen):
    """Pieces glued along pairings of edge slots; a pair (x, y) is (x + iy) * n/d."""

    __slots__ = ("pieces", "pairings", "d", "n")

    def __init__(
        self,
        pieces: Iterable[Piece],
        pairings: Iterable[tuple[Slot, Slot]] = (),
        d: int = 1,
        n: int = 1,
    ) -> None:
        _set(self, "pieces", tuple([*pieces]))
        _set(self, "pairings", tuple([(tuple(a), tuple(b)) for a, b in pairings]))
        _set(self, "d", d)
        _set(self, "n", n)


class Profile(Frozen):
    """Invariants read off a closed surface: genus, cone orders, poles.

    ``zero_orders`` is sorted descending and includes order-0 entries for
    marked regular points.  ``poles`` lists (order, residue) pairs with order
    -b or -1, in piece order for verified surfaces.
    """

    __slots__ = ("genus", "zero_orders", "poles")

    def __init__(
        self, genus: int, zero_orders: tuple[int, ...], poles: tuple[tuple[int, QQi], ...]
    ) -> None:
        _set(self, "genus", genus)
        _set(self, "zero_orders", zero_orders)
        _set(self, "poles", poles)


def verify_surface(surface: FlatSurface) -> Profile:
    """Check a glued surface and return its invariants.

    Verifies: a positive integer denominator and numerator, integer
    coordinates and local piece validity, exact vector equality across the
    matching (canonical vectors of matched slots are opposite), its
    completeness, connectivity, and the degree identity.  Cone angles are
    counted exactly in whole turns, and genus comes from the Euler
    characteristic of the induced cell complex.  Raises VerificationError.

    Multiplying by the positive scale n/d changes no piece check, winding
    or corner turn, so they are read on the pairs as stored; glued vectors
    are compared as opposite integer pairs, and each residue is its piece's
    integer sum times n/d.
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
    d, n = surface.d, surface.n
    for name, value in (("denominator", d), ("numerator", n)):
        if type(value) is not int:
            raise VerificationError((f"surface {name} {value!r} is not an integer",))
        if value < 1:
            raise VerificationError((f"surface {name} {value} is not positive",))
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
    count = len(sizes)
    for num, (a, b) in enumerate(surface.pairings):
        # Two free, distinct slots in range are matched, and a vector
        # mismatch reported; any other pairing ends the matching.
        try:
            (i, k), (j, m) = a, b
            if 0 <= i < count and 0 <= k < sizes[i] and 0 <= j < count and 0 <= m < sizes[j]:
                fa, fb = offsets[i] + k, offsets[j] + m
                if fa != fb and partner[fa] < 0 and partner[fb] < 0:
                    (ux, uy), (vx, vy) = flat[fa], flat[fb]
                    if ux != -vx or uy != -vy:
                        u, v = QQi._of(ux * n, uy * n, d), QQi._of(vx * n, vy * n, d)
                        violations.append(f"pairing {num}: vector mismatch, {u} against {v}")
                    partner[fa], partner[fb] = fb, fa
                    glued.append((fa, fb))
                    continue
        except (TypeError, ValueError):
            pass
        raise VerificationError(violations + _unmatchable(num, (a, b), offsets, sizes, partner))
    if -1 in partner:
        slots = [(i, k) for i, size in enumerate(sizes) for k in range(size)]
        unmatched = [slots[f] for f, g in enumerate(partner) if g < 0]
        violations.append(f"unmatched boundary edges: {unmatched}")
    if violations:
        raise VerificationError(violations)

    if not _connected(len(pieces), [(a[0], b[0]) for a, b in surface.pairings]):
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
        poles.append((order, QQi._of(rx * n, ry * n, d)))
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


def _unmatchable(num: int, pairing: tuple, offsets: list, sizes: list, partner: list) -> list[str]:
    """Why pairing ``num`` cannot be matched: each end that names no slot
    or a matched one, or else its slot glued to itself."""
    words = []
    for end in pairing:
        try:
            i, k = end
            f = offsets[i] + k if 0 <= i < len(sizes) and 0 <= k < sizes[i] else -1
            matched = f >= 0 and partner[f] >= 0
        except (TypeError, ValueError):
            f = -1
        if f < 0:
            words.append(f"pairing {num}: no such edge slot {end}")
        elif matched:
            words.append(f"pairing {num}: slot {end} is matched twice")
    return words or [f"pairing {num}: slot {pairing[0]} glued to itself"]


def profile_matches(
    profile: Profile, sig: StratumSignature, residues: Sequence[QQi]
) -> bool:
    """Exact agreement of a profile with prescribed invariants.

    Zero orders are compared as multisets of positive orders; declared
    order-0 marked points must be covered by marked points of the profile,
    and surplus marked points are tolerated (marking a regular point does not
    change the differential).  Poles are compared as a multiset of
    (order, residue) pairs; a residue tuple whose length is not the
    stratum's pole count matches nothing.
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
    if len(residues) != len(orders):
        return False
    return _same_poles(list(zip(orders, residues)), profile.poles)


def _same_poles(a: Sequence[tuple[int, QQi]], b: Sequence[tuple[int, QQi]]) -> bool:
    """Whether two lists of (order, residue) poles agree as multisets: in
    the same order as sequences, otherwise counted."""
    return len(a) == len(b) and (list(a) == list(b) or Counter(a) == Counter(b))


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
    tree = _spanning_forest(max(vertex) + 1, [(vertex[a], vertex[b]) for a, b in glued])
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


class BlowUpZero(Frozen):
    __slots__ = ("zero_index", "parts")

    def __init__(self, zero_index: int, parts: tuple[int, ...]) -> None:
        _set(self, "zero_index", zero_index)
        _set(self, "parts", parts)


class ConstructionCertificate(Frozen):
    """One glued surface, blow-ups and the claimed invariants.

    A blow-up acts on the surface's verified profile by bookkeeping: it
    splits a zero into parts of the same total order.  Zero indices refer
    to the current zero tuple, sorted descending, at each step.
    """

    __slots__ = ("surface", "surgeries", "claimed", "claimed_rotation")

    def __init__(
        self,
        surface: FlatSurface,
        surgeries: tuple[BlowUpZero, ...],
        claimed: Profile,
        claimed_rotation: int | None = None,
    ) -> None:
        _set(self, "surface", surface)
        _set(self, "surgeries", surgeries)
        _set(self, "claimed", claimed)
        _set(self, "claimed_rotation", claimed_rotation)


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
# Certificate documents

_KINDS = {Polygon: "polygon", PolarPart: "polar_part", SimplePolePart: "simple_pole_part"}


def _piece_to_json(piece: Piece, d: int, n: int) -> dict:
    doc = {
        k: [_pair_to_json((x * n, y * n), d) for x, y in getattr(piece, k)]
        for k in _CHAINS[type(piece)]
    }
    doc["kind"] = _KINDS[type(piece)]
    if isinstance(piece, PolarPart):
        doc.update(order=piece.order, type=piece.pole_type)
    return doc


def _piece_from_json(doc: Any, path: str) -> tuple[type, tuple, list[tuple[QQi, ...]]]:
    """A piece's class, its integer fields and its chains of Gaussian
    rationals, in slot order."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DocumentError(path, "expected a piece object with a 'kind'")
    kind = next((k for k, name in _KINDS.items() if doc["kind"] == name), None)
    if kind is None:
        raise DocumentError(path + ".kind", f"unknown piece kind {doc['kind']!r}")
    head = ()
    if kind is PolarPart:
        if not (_is_int(doc.get("order")) and _is_int(doc.get("type"))):
            raise DocumentError(path, "polar parts need integer 'order' and 'type'")
        head = (doc["order"], doc["type"])
    missing = [] if kind is PolarPart else None  # a polar part may leave out a chain
    chains = [_residues_from_json(doc.get(k, missing), f"{path}.{k}") for k in _CHAINS[kind]]
    return kind, head, chains


def _surface_to_json(surface: FlatSurface) -> dict:
    return {
        "pieces": [_piece_to_json(p, surface.d, surface.n) for p in surface.pieces],
        "pairings": [[list(a), list(b)] for a, b in surface.pairings],
    }


def _surface_from_json(doc: Any, path: str) -> FlatSurface:
    if not isinstance(doc, dict):
        raise DocumentError(path, "expected a surface object")
    pieces_doc = doc.get("pieces")
    if not isinstance(pieces_doc, list):
        raise DocumentError(path + ".pieces", "expected a list")
    read = [_piece_from_json(p, f"{path}.pieces[{k}]") for k, p in enumerate(pieces_doc)]
    # One lattice holds every piece of the surface.
    d, n, pairs = lattice([v for _, _, chains in read for chain in chains for v in chain])
    at = iter(pairs)
    pieces = [
        kind(*head, *[tuple(islice(at, len(chain))) for chain in chains])
        for kind, head, chains in read
    ]
    pairings_doc = doc.get("pairings", [])
    if not isinstance(pairings_doc, list):
        raise DocumentError(path + ".pairings", "expected a list")
    pairings = []
    for k, pair in enumerate(pairings_doc):
        where = f"{path}.pairings[{k}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(where, "expected [[piece, slot], [piece, slot]]")
        for j, slot in enumerate(pair):
            if len(_int_list(slot, f"{where}[{j}]")) != 2:
                raise DocumentError(f"{where}[{j}]", "expected [piece, slot]")
        pairings.append(pair)
    return FlatSurface(pieces, pairings, d, n)


def _profile_to_json(profile: Profile) -> dict:
    return {
        "genus": profile.genus,
        "zeros": list(profile.zero_orders),
        "poles": [{"order": o, "residue": _qqi_to_json(r)} for o, r in profile.poles],
    }


def _profile_from_json(doc: Any, path: str) -> Profile:
    if not isinstance(doc, dict):
        raise DocumentError(path, "expected a profile object")
    zeros = tuple(_int_list(doc.get("zeros", []), path + ".zeros"))
    poles_doc = doc.get("poles", [])
    if not isinstance(poles_doc, list):
        raise DocumentError(path + ".poles", "expected a list")
    poles = []
    for k, pd in enumerate(poles_doc):
        if not isinstance(pd, dict) or not _is_int(pd.get("order")):
            raise DocumentError(f"{path}.poles[{k}]", "expected an object with 'order'")
        residue = _qqi_from_json(pd.get("residue", 0), f"{path}.poles[{k}].residue")
        poles.append((pd["order"], residue))
    genus = doc.get("genus")
    if not _is_int(genus):
        raise DocumentError(path + ".genus", "expected an integer")
    return Profile(genus, zeros, tuple(poles))


def _certificate_to_json(cert: ConstructionCertificate) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "certificate",
        "surface": _surface_to_json(cert.surface),
        "surgeries": [
            {"op": "blow_up_zero", "zero": sg.zero_index, "parts": list(sg.parts)}
            for sg in cert.surgeries
        ],
        "claimed_profile": _profile_to_json(cert.claimed),
        "claimed_rotation": cert.claimed_rotation,
    }


_CERTIFICATE_FIELDS = {
    "format_version", "kind", "surface", "surgeries", "claimed_profile", "claimed_rotation"
}


def _certificate_from_json(doc: Any, path: str = "$") -> ConstructionCertificate:
    if not isinstance(doc, dict):
        raise DocumentError(path, "expected a certificate object")
    if extra := sorted(set(doc) - _CERTIFICATE_FIELDS):
        raise DocumentError(
            f"{path}.{extra[0]}", f"unexpected field in a format {FORMAT_VERSION} certificate"
        )
    surface = _surface_from_json(doc.get("surface"), path + ".surface")
    if not isinstance(doc.get("surgeries", []), list):
        raise DocumentError(path + ".surgeries", "expected a list")
    surgeries = []
    for k, sg in enumerate(doc.get("surgeries", [])):
        spath = f"{path}.surgeries[{k}]"
        if not isinstance(sg, dict) or "op" not in sg:
            raise DocumentError(spath, "expected an object with an 'op'")
        if sg["op"] != "blow_up_zero":
            raise DocumentError(spath + ".op", f"unknown surgery {sg['op']!r}")
        if not _is_int(sg.get("zero")):
            raise DocumentError(spath + ".zero", "expected an integer")
        parts = tuple(_int_list(sg.get("parts"), spath + ".parts"))
        surgeries.append(BlowUpZero(sg["zero"], parts))
    claimed = _profile_from_json(doc.get("claimed_profile"), path + ".claimed_profile")
    rotation = doc.get("claimed_rotation")
    if rotation is not None and not _is_int(rotation):
        raise DocumentError(path + ".claimed_rotation", "expected an integer or null")
    return ConstructionCertificate(surface, tuple(surgeries), claimed, rotation)
