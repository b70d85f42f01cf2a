"""Properties of the surface verifier on witnesses from every route.

Pieces hold integer pairs times one surface scale n/d, and the verifier
reads them as stored, so scaling a whole surface by a positive rational,
through d and the pairs, must change nothing but the residues, which scale
with it.  The builders put a surface on its coarsest lattice, so a common
scale of the residues changes only n and d, never a piece or a pairing.  A
single-field change
to a valid surface must either be rejected or re-derive exactly the claim, and
nothing but VerificationError may escape.  A simple-pole chain the verifier
accepts must lift to a simple periodic polyline.  The JSON codec puts a
surface back on the lattice it was written from, and every small gluing of
simple-pole parts that the verifier accepts reads as a profile the decider
calls realizable.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resflat.core import QQi, StratumSignature, replace, residue_tuple
from resflat.decide import decide_realizable
from resflat.surfaces import _with_marked_points, build_witness
from resflat.verify import (
    _CHAINS,
    FlatSurface,
    PolarPart,
    Polygon,
    SimplePolePart,
    VerificationError,
    _certificate_from_json,
    _certificate_to_json,
    _read_piece,
    _surface_from_json,
    _surface_to_json,
    verify_certificate,
    verify_surface,
)

I = QQi(0, 1)
HALF = Fraction(1, 2)

# (stratum, residues, rotation): every construction route, with residues
# that carry denominators and imaginary parts where the route allows them.
REQUESTS = [
    (StratumSignature(0, (1, 1), (2, 2)), [0, 0], None),
    (StratumSignature(0, (3, 3, 3), (2, 2, 2, 2, 3)), [0] * 5, None),
    (StratumSignature(0, (1, 1), (), 4), [QQi(HALF), I / 3, QQi(-HALF), -I / 3], None),
    (StratumSignature(0, (3,), (3,), 2), [QQi(1, HALF), I, QQi(-1, -Fraction(3, 2))], None),
    (StratumSignature(0, (1, 1), (2,), 2), [QQi(1, 1) * m for m in (HALF, 1, -Fraction(3, 2))], None),
    (StratumSignature(0, (5,), (), 7), [Fraction(m, 3) for m in (3, 1, 1, 1, -2, -2, -2)], None),
    (StratumSignature(0, (1, 1), (), 4), [QQi(3, 3), QQi(-1, -1), QQi(-1, -1), QQi(-1, -1)], None),
    (StratumSignature(0, (2, 2), (), 6), [m * HALF for m in (2, 1, 1, -1, -1, -2)], None),
    (StratumSignature(0, (2, 0), (), 4), [1, I, -1, -I], None),
    (StratumSignature(1, (3,), (2,), 1), [HALF, -HALF], None),
    (StratumSignature(2, (3, 3), (2,), 2), [QQi(1, 1), QQi(HALF), QQi(-Fraction(3, 2), -1)], None),
    (StratumSignature(2, (2, 2), (), 2), [Fraction(2, 7), Fraction(-2, 7)], None),
    (StratumSignature(1, (4,), (2, 2)), [0, 0], 2),
    (StratumSignature(1, (2, 2), (2, 2)), [0, 0], None),
    (StratumSignature(3, (2, 2)), [], None),
]
ROUTES = [decide_realizable(sig, residue_tuple(r)).certificate_hint for sig, r, _ in REQUESTS]
WITNESSES = [build_witness(sig, residue_tuple(r), rotation=rot) for sig, r, rot in REQUESTS]
# The same requests with every residue times 10^320 and 10^-320.
SCALED_WITNESSES = [
    build_witness(sig, [v * scale for v in residue_tuple(r)], rotation=rot)
    for scale in (10**320, QQi(1) / 10**320)
    for sig, r, rot in REQUESTS
]


def test_every_route_is_covered():
    assert set(ROUTES) == {
        "zero-residue-chain",
        "residual-polygon",
        "collinear-anchor-chain",
        "connection-graph",
        "blow-up-of-single-zero",
        "stable-tree",
        "genus-reduction",
    }


def _scaled_piece(piece, n):
    def times(chain):
        return [(x * n, y * n) for x, y in chain]

    if isinstance(piece, Polygon):
        return Polygon(times(piece.edges))
    if isinstance(piece, PolarPart):
        return PolarPart(piece.order, piece.pole_type, times(piece.top), times(piece.bottom))
    return SimplePolePart(times(piece.vectors))


scales = st.builds(
    lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.sampled_from([-400, 0, 400]),
)


@given(st.sampled_from(WITNESSES), scales)
@settings(max_examples=150, deadline=None)
def test_scaling_changes_nothing_but_the_residues(cert, t):
    # The pairs are multiplied by t's numerator and d by its denominator;
    # n stays.
    surface = cert.surface
    before = verify_surface(surface)
    after = verify_surface(
        FlatSurface(
            (_scaled_piece(pc, t.numerator) for pc in surface.pieces),
            surface.pairings,
            surface.d * t.denominator,
            surface.n,
        )
    )
    assert after.genus == before.genus
    assert after.zero_orders == before.zero_orders
    assert after.poles == tuple((o, r * t) for o, r in before.poles)


def _vector_fields(piece):
    if isinstance(piece, Polygon):
        return ["edges"]
    if isinstance(piece, PolarPart):
        return [f for f in ("top", "bottom") if getattr(piece, f)]
    return ["vectors"]


def _nudged(value, scale, data):
    """A different integer: nudged by up to 3 lattice steps or up to 3 times
    ``scale``, negated, or zero."""
    return data.draw(
        st.one_of(
            st.integers(-3, 3).map(lambda k: value + k),
            st.integers(-3 * scale, 3 * scale).map(lambda k: value + k),
            st.just(-value),
            st.just(0),
        ).filter(lambda x: x != value)
    )


def _nudged_piece(piece, d, data):
    """The piece with one coordinate of one pair nudged."""
    field = data.draw(st.sampled_from(_vector_fields(piece)))
    vectors = getattr(piece, field)
    k = data.draw(st.integers(0, len(vectors) - 1))
    v = list(vectors[k])
    part = data.draw(st.integers(0, 1))
    v[part] = _nudged(v[part], d, data)
    return replace(piece, **{field: vectors[:k] + (tuple(v),) + vectors[k + 1 :]})


@given(st.sampled_from(WITNESSES), st.data())
@settings(max_examples=300, deadline=None)
def test_single_field_change_is_rejected_or_rederives_the_claim(cert, data):
    pieces, pairings = list(cert.surface.pieces), list(cert.surface.pairings)
    d, n = cert.surface.d, cert.surface.n
    polar = [i for i, pc in enumerate(pieces) if isinstance(pc, PolarPart)]
    kinds = ["vector", "denominator", "numerator"] + (["pairing"] if pairings else [])
    kinds += ["pole_type"] if polar else []
    kind = data.draw(st.sampled_from(kinds))
    if kind == "vector":
        i = data.draw(st.integers(0, len(pieces) - 1))
        pieces[i] = _nudged_piece(pieces[i], d, data)
    elif kind == "denominator":
        d = _nudged(d, d, data)
    elif kind == "numerator":
        n = _nudged(n, n, data)
    elif kind == "pairing":
        num = data.draw(st.integers(0, len(pairings) - 1))
        end = data.draw(st.integers(0, 1))
        most = max(sum(len(getattr(pc, f)) for f in _vector_fields(pc)) for pc in pieces)
        slot = (data.draw(st.integers(-1, len(pieces))), data.draw(st.integers(-1, most)))
        pair = list(pairings[num])
        pair[end] = slot
        pairings[num] = tuple(pair)
    else:
        i = data.draw(st.sampled_from(polar))
        old = pieces[i].pole_type
        tau = data.draw(st.integers(-1, pieces[i].order + 1).filter(lambda t: t != old))
        pieces[i] = replace(pieces[i], pole_type=tau)
    mutated = replace(cert, surface=FlatSurface(pieces, pairings, d, n))
    try:
        profile = verify_certificate(mutated)
    except VerificationError:
        return
    assert profile.genus == cert.claimed.genus
    assert profile.zero_orders == cert.claimed.zero_orders
    assert Counter(profile.poles) == Counter(cert.claimed.poles)


# A brute-force reference for simple-pole chains: the periodic lift of a
# chain with residue r, the chain and its translates by k * r, is a simple
# polyline.  Segments farther apart than twice the chain's extent cannot
# meet, so a finite window of translates decides it.


def _orient(a, b, c):
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _within(p, q, x):
    return min(p[0], q[0]) <= x[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= x[1] <= max(p[1], q[1])


def _segments_meet(p, q, u, v):
    d1, d2, d3, d4 = _orient(u, v, p), _orient(u, v, q), _orient(p, q, u), _orient(p, q, v)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and _within(u, v, p))
        or (d2 == 0 and _within(u, v, q))
        or (d3 == 0 and _within(p, q, u))
        or (d4 == 0 and _within(p, q, v))
    )


def _lift_is_simple(chain):
    n = len(chain)
    r = (sum(x for x, _ in chain), sum(y for _, y in chain))
    points = [(0, 0)]
    for x, y in chain:
        points.append((points[-1][0] + x, points[-1][1] + y))

    def segment(m):
        k, j = divmod(m, n)
        (x0, y0), (x1, y1) = points[j], points[j + 1]
        return (x0 + k * r[0], y0 + k * r[1]), (x1 + k * r[0], y1 + k * r[1])

    window = 2 * sum(abs(x) + abs(y) for x, y in chain) + 1
    for i in range(n):
        p, q = segment(i)
        for m in range(-window * n, (window + 1) * n):
            u, v = segment(m)
            if m in (i - 1, i + 1):
                # Neighbours share an endpoint; they meet elsewhere only when
                # one runs back along the other.
                a, b = (q[0] - p[0], q[1] - p[1]), (v[0] - u[0], v[1] - u[1])
                if a[0] * b[1] == a[1] * b[0] and a[0] * b[0] + a[1] * b[1] < 0:
                    return False
            elif m != i and _segments_meet(p, q, u, v):
                return False
    return True


def test_lift_reference_sees_a_wrapped_chain():
    # Piece 3 of the excluded-ray gluing returns to its start point.
    assert not _lift_is_simple([(-2, -2), (-1, 0), (3, 2), (-1, 0)])
    assert _lift_is_simple([(2, 1), (1, -1)])


small_vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda v: v != (0, 0))


@given(st.lists(small_vectors, min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_accepted_simple_pole_chains_lift_to_simple_polylines(chain):
    assume(sum(x for x, _ in chain) or sum(y for _, y in chain))
    try:
        _read_piece(SimplePolePart(chain))
    except ValueError:
        assume(False)
    assert _lift_is_simple(chain)


def _reduced(n, d):
    g = math.gcd(n, d)
    return n // g, d // g


# The first request of each route.
ONE_PER_ROUTE = {route: request for route, request in reversed([*zip(ROUTES, REQUESTS)])}


@pytest.mark.parametrize("k", [30, 320, 4000])
@pytest.mark.parametrize("route", sorted(ONE_PER_ROUTE))
def test_a_common_scale_moves_only_n_and_d(route, k):
    """At 10^k times the residues the builders glue the same pieces, and n
    takes the factor; at 10^-k d does.  The builders compute on the pairs
    alone, so their cost does not grow with k."""
    sig, r, rot = ONE_PER_ROUTE[route]
    residues = residue_tuple(r)
    base = build_witness(sig, residues, rotation=rot).surface
    up = build_witness(sig, [v * 10**k for v in residues], rotation=rot).surface
    down = build_witness(sig, [v / 10**k for v in residues], rotation=rot).surface
    if all(v.is_zero() for v in residues):
        # No scale reaches zero residues.
        assert up == down == base
        return
    assert (up.pieces, up.pairings, (up.n, up.d)) == (
        base.pieces, base.pairings, _reduced(base.n * 10**k, base.d)
    )
    assert (down.pieces, down.pairings, (down.n, down.d)) == (
        base.pieces, base.pairings, _reduced(base.n, base.d * 10**k)
    )


@given(st.sampled_from(WITNESSES + SCALED_WITNESSES), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_codec_round_trip_on_the_lattice(cert, marked):
    # Marked points cut a glued pair into equal parts, which may rescale d.
    cert = _with_marked_points(cert, cert.claimed.zero_orders + (0,) * marked)
    # The builders emit the coarsest lattice, coordinates of gcd 1 and a
    # reduced n/d, the one lattice the codec reads, so reading a written
    # surface gives it back exactly.
    surface = cert.surface
    coordinates = [
        c for pc in surface.pieces for k in _CHAINS[type(pc)] for v in getattr(pc, k) for c in v
    ]
    assert math.gcd(*coordinates) == 1 and math.gcd(surface.n, surface.d) == 1
    assert _surface_from_json(_surface_to_json(surface), "$") == surface
    text = json.dumps(_certificate_to_json(cert), sort_keys=True)
    again = _certificate_to_json(_certificate_from_json(json.loads(text)))
    assert json.dumps(again, sort_keys=True) == text


# Verify implies decide, on every small gluing of four simple-pole parts: 6
# or 8 slots, vectors a + bi with |a| <= 3 and |b| <= 2.  Such a gluing has
# 3 or 4 pairings, so a reading is genus 0 with zeros (2), (2, 0) or (1, 1).
# The decider refuses four simple-pole residues there only when one is zero
# or they are c, c, -c, -c (a primitive positive total above 2 is realizable
# on every such stratum, and residues off one line always are), so only
# gluings whose residues are 0 or +-c can be false certificates, and only
# those are handed to the verifier.

LENGTHS = [(3, 1, 1, 1), (2, 2, 1, 1)]
LENGTHS += [(5, 1, 1, 1), (4, 2, 1, 1), (3, 3, 1, 1), (3, 2, 2, 1), (2, 2, 2, 2)]
VECTORS = [(a, b) for a in range(-3, 4) for b in range(-2, 3) if (a, b) != (0, 0)]
# A gluing turned by pi is the same surface, so the first vector is taken
# from one half plane.
UPPER = [(a, b) for a, b in VECTORS if b > 0 or (b == 0 and a > 0)]


def _matchings(slots):
    if not slots:
        yield []
        return
    for k in range(1, len(slots)):
        for rest in _matchings(slots[1:k] + slots[k + 1 :]):
            yield [(slots[0], slots[k]), *rest]


def _pairing_classes(lengths):
    """Connected perfect matchings of the slots of chains of these lengths,
    one per class under relabelling equal chains and rotating each chain (a
    rotated chain bounds the same half-infinite cylinder)."""
    relabel = [
        p for p in itertools.permutations(range(4)) if [lengths[j] for j in p] == list(lengths)
    ]
    turns = list(itertools.product(*[range(n) for n in lengths]))

    def moved(pair, p, r):
        return tuple(sorted([(p[i], (k + r[i]) % lengths[i]) for i, k in pair]))

    seen = set()
    for pairing in _matchings([(i, k) for i, n in enumerate(lengths) for k in range(n)]):
        reached = {0}
        for _ in range(3):
            reached |= {x for (a, _), (b, _) in pairing for x in (a, b) if {a, b} & reached}
        if len(reached) < 4:
            continue
        key = min(
            tuple(sorted(moved(pair, p, r) for pair in pairing)) for p in relabel for r in turns
        )
        if key not in seen:
            seen.add(key)
            yield pairing


def _small_gluings():
    """Surfaces over the classes of pairings, chains filled slot by slot,
    shortest chain first.  A chain's last free slot takes only the vectors
    that make its residue 0 or +-c, c the first nonzero residue, and a
    chain that :func:`_read_piece` refuses is dropped, as the verifier
    would drop it."""
    for lengths in LENGTHS:
        for pairing in _pairing_classes(lengths):
            partner = {a: b for pair in pairing for a, b in (pair, pair[::-1])}
            order = [(i, k) for i in reversed(range(4)) for k in range(lengths[i])]
            chains = [[None] * n for n in lengths]

            def fill(pos, c):
                if pos == len(order):
                    yield FlatSurface([SimplePolePart(chain) for chain in chains], pairing)
                    return
                i, k = order[pos]
                if chains[i][k] is not None:
                    yield from settle(pos, c)
                    return
                j, l = partner[(i, k)]
                rest = [v for n, v in enumerate(chains[i]) if n != k]
                if c is None or None in rest:
                    choices = UPPER if pos == 0 else VECTORS
                else:
                    x, y = sum(x for x, _ in rest), sum(y for _, y in rest)
                    wanted = ((-x, -y), (c[0] - x, c[1] - y), (-c[0] - x, -c[1] - y))
                    choices = [v for v in wanted if v in VECTORS]
                for x, y in choices:
                    chains[i][k], chains[j][l] = (x, y), (-x, -y)
                    yield from settle(pos, c)
                chains[i][k] = chains[j][l] = None

            def settle(pos, c):
                i, k = order[pos]
                if k == lengths[i] - 1:
                    try:
                        _read_piece(SimplePolePart(chains[i]))
                    except ValueError:
                        return
                    r = (sum(x for x, _ in chains[i]), sum(y for _, y in chains[i]))
                    if c is None:
                        c = r if r != (0, 0) else None
                    elif r not in ((0, 0), c, (-c[0], -c[1])):
                        return
                yield from fill(pos + 1, c)

            yield from fill(0, None)


def test_every_small_gluing_the_verifier_accepts_is_realizable():
    candidates = accepted = 0
    for surface in _small_gluings():
        candidates += 1
        try:
            profile = verify_surface(surface)
        except VerificationError:
            continue
        accepted += 1
        sig = StratumSignature(profile.genus, profile.zero_orders, (), len(profile.poles))
        residues = [r for _, r in profile.poles]
        assert decide_realizable(sig, residues).realizable, surface
    assert (candidates, accepted) == (6631, 389)
