"""Properties of the surface verifier on witnesses from every route.

The verifier reads each piece on integer pairs scaled by the lcm of the
piece's denominators, so scaling a whole surface by a positive rational must
change nothing but the residues, which scale with it.  A single-field change
to a valid surface must either be rejected or re-derive exactly the claim, and
nothing but VerificationError may escape.  A simple-pole chain the verifier
accepts must lift to a simple periodic polyline.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resflat.core import QQi, StratumSignature, residue_tuple
from resflat.decide import decide_realizable
from resflat.surfaces import (
    FlatSurface,
    PolarPart,
    Polygon,
    SimplePolePart,
    VerificationError,
    build_witness,
    validate_piece,
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


def _scaled_piece(piece, t):
    if isinstance(piece, Polygon):
        return Polygon(v * t for v in piece.edges)
    if isinstance(piece, PolarPart):
        return PolarPart(
            piece.order, piece.pole_type, (v * t for v in piece.top), (v * t for v in piece.bottom)
        )
    return SimplePolePart(v * t for v in piece.vectors)


scales = st.builds(
    lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.sampled_from([-400, 0, 400]),
)


@given(st.sampled_from(WITNESSES), scales)
@settings(max_examples=150, deadline=None)
def test_scaling_changes_nothing_but_the_residues(cert, t):
    surface = cert.surface
    before = verify_surface(surface)
    after = verify_surface(
        FlatSurface((_scaled_piece(pc, t) for pc in surface.pieces), surface.pairings)
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


def _nudged(piece, data):
    field = data.draw(st.sampled_from(_vector_fields(piece)))
    vectors = getattr(piece, field)
    k = data.draw(st.integers(0, len(vectors) - 1))
    v = vectors[k]
    part = data.draw(st.sampled_from(["re", "im"]))
    old = getattr(v, part)
    new = data.draw(
        st.one_of(
            st.fractions(-3, 3, max_denominator=7).map(lambda d: old + d),
            st.just(-old),
            st.just(Fraction(0)),
        ).filter(lambda x: x != old)
    )
    w = QQi(new, v.im) if part == "re" else QQi(v.re, new)
    return dataclasses.replace(piece, **{field: vectors[:k] + (w,) + vectors[k + 1 :]})


@given(st.sampled_from(WITNESSES), st.data())
@settings(max_examples=300, deadline=None)
def test_single_field_change_is_rejected_or_rederives_the_claim(cert, data):
    pieces, pairings = list(cert.surface.pieces), list(cert.surface.pairings)
    polar = [i for i, pc in enumerate(pieces) if isinstance(pc, PolarPart)]
    kinds = ["vector"] + (["pairing"] if pairings else []) + (["pole_type"] if polar else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "vector":
        i = data.draw(st.integers(0, len(pieces) - 1))
        pieces[i] = _nudged(pieces[i], data)
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
        pieces[i] = dataclasses.replace(pieces[i], pole_type=tau)
    mutated = dataclasses.replace(cert, surface=FlatSurface(pieces, pairings))
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
        validate_piece(SimplePolePart(QQi(x, y) for x, y in chain), list(chain))
    except ValueError:
        assume(False)
    assert _lift_is_simple(chain)
