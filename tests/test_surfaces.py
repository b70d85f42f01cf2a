import contextlib
import functools
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resflat.decide
import resflat.surfaces
from resflat.cli import main
from resflat.core import (
    QQi,
    StratumSignature,
    arg_cmp,
    cross,
    dot,
    primitive_total_exceeds,
    replace,
    residue_tuple,
    validate_residues,
    _qqi_to_json,
)
from resflat.decide import _partitions, decide_realizable
from resflat.surfaces import (
    _HANDLE,
    _SQUARE,
    _chain_surface,
    _choose_taus,
    _plumb,
    _with_marked_points,
    blow_up_zero,
    build_witness,
)
from resflat.verify import (
    BlowUpZero,
    ConstructionCertificate,
    FlatSurface,
    PolarPart,
    Polygon,
    Profile,
    SimplePolePart,
    VerificationError,
    _read_piece,
    profile_matches,
    verify_certificate,
    verify_surface,
)

ONE = QQi(1)
I = QQi(0, 1)
# Pieces hold integer pairs (x, y): on a surface of numerator n and
# denominator d, the vector (x + iy) * n/d.
RIGHT, UP, LEFT, DOWN = (1, 0), (0, 1), (-1, 0), (0, -1)
SQUARE = (RIGHT, UP, LEFT, DOWN)
# Half of a float torus: a triangle with a float edge.
TORUS_HALF = ((1.5, 0), (0, 1), (-1.5, -1))


def _positive_genus_requests(count=640, seed=19):
    """Valid requests of genus 1-4: 0-3 higher poles of orders 2-4, 0-3
    simple poles, zero, collinear or generic residues, 1-3 zeros (none when
    the degree leaves none) and 0-2 marked points."""
    rng = random.Random(seed)
    requests = []
    while len(requests) < count:
        genus, p, s = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3)
        orders = [rng.randint(2, 4) for _ in range(p)]
        total = sum(orders) + s + 2 * genus - 2
        k = min(rng.randint(1, 3), total)
        cuts = [0, *sorted(rng.sample(range(1, total), k - 1)), total] if k else [0]
        zeros = [b - a for a, b in zip(cuts, cuts[1:])] + [0] * rng.randint(0, 2)
        # The first p + s - 1 residues are drawn, the last balances them.
        kind = rng.choice(("zero", "collinear", "generic"))
        if kind == "zero":
            values = [QQi(0)] * (p + s - 1)
        elif kind == "collinear":
            d = rng.choice((ONE, I, ONE + I, QQi(2, -1)))
            values = [d * rng.randint(-3, 3) for _ in range(p + s - 1)]
        else:
            values = [QQi(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(p + s - 1)]
        values = [*values, -sum(values, QQi(0))] if p + s else []
        sig = StratumSignature(genus, zeros, orders, s)
        if not validate_residues(sig, values):
            requests.append((sig, values))
    return requests


def _orient(a, b, c):
    v = cross((b[0] - a[0], b[1] - a[1]), (c[0] - a[0], c[1] - a[1]))
    return (v > 0) - (v < 0)


def _between(p, q, r):
    """Whether r, on the line through p and q, lies on the segment pq."""
    return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])


def _segments_meet(a, b, c, d):
    """Whether the closed segments ab and cd share a point, exactly."""
    o1, o2, o3, o4 = _orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (
        (o1 == 0 and _between(a, b, c))
        or (o2 == 0 and _between(a, b, d))
        or (o3 == 0 and _between(c, d, a))
        or (o4 == 0 and _between(c, d, b))
    )


def _is_simple_polygon(edges):
    """Whether a closed chain of integer-pair edges bounds a simple polygon:
    consecutive edges share only their common vertex, and no other two
    edges meet."""
    vs = list(edges)
    pts = list(itertools.accumulate(vs, lambda p, v: (p[0] + v[0], p[1] + v[1]), initial=(0, 0)))
    n = len(vs)
    for i, j in itertools.combinations(range(n), 2):
        if j == i + 1 or (i, j) == (0, n - 1):
            if cross(vs[i], vs[j]) == 0 and dot(vs[i], vs[j]) < 0:
                return False
        elif _segments_meet(pts[i], pts[i + 1], pts[j], pts[j + 1]):
            return False
    return True


# The reference for the one pass, :func:`resflat.verify._read_piece`: the
# per-piece reading as it stood before the pass fused it, a check, the
# canonical vectors, the boundary cycle with its corner turns and the
# residue, each its own walk over the vectors, with every corner through
# arg_cmp and cross.


def _ref_sweep_turns(u, v):
    """w of the counterclockwise sweep from u to v, taken in (0, 2*pi]."""
    return 1 if arg_cmp(v, u) <= 0 else 0


def _ref_signed_turns(u, v):
    """w of the signed turn from u to v, taken in [-pi, pi)."""
    if cross(u, v) > 0:
        return 1 if arg_cmp(v, u) < 0 else 0
    return -1 if arg_cmp(v, u) > 0 else 0


def _ref_validate_chain(vectors, decreasing, label):
    for x, y in vectors:
        if not (x or y):
            raise ValueError(f"{label} chain contains a zero vector")
        if y == 0 and x < 0:
            raise ValueError(f"{label} chain vector points along the negative real axis")
    for a, b in zip(vectors, vectors[1:]):
        c = arg_cmp(a, b)
        if decreasing and c < 0:
            raise ValueError(f"{label} chain arguments must be weakly decreasing")
        if not decreasing and c > 0:
            raise ValueError(f"{label} chain arguments must be weakly increasing")
    if sum(x for x, _ in vectors) < 0:
        raise ValueError(f"{label} chain sum must have nonnegative real part")


def _ref_validate_piece(piece):
    if isinstance(piece, Polygon):
        vs = piece.edges
        if len(vs) < 3:
            raise ValueError("polygon needs at least three edges")
        if (0, 0) in vs:
            raise ValueError("polygon edge is zero")
        if sum(x for x, _ in vs) or sum(y for _, y in vs):
            raise ValueError("polygon edges do not close up")
        corners = list(zip(vs[-1:] + vs[:-1], vs))
        if sum(_ref_signed_turns(u, v) for u, v in corners) != 1:
            raise ValueError("polygon boundary does not wind once counterclockwise")
        for u, v in corners:
            c = cross(u, v)
            if c < 0 or (c == 0 and dot(u, v) < 0):
                raise ValueError("polygon is not convex: it turns right or back at a corner")
    elif isinstance(piece, PolarPart):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (piece.order, piece.pole_type)):
            raise ValueError("polar part order and type must be integers")
        if piece.order < 2:
            raise ValueError("polar part order must be at least 2")
        if not (1 <= piece.pole_type <= piece.order - 1):
            raise ValueError("polar part type must lie in [1, order-1]")
        if not piece.top + piece.bottom:
            raise ValueError("polar part needs a nonempty boundary chain")
        _ref_validate_chain(piece.top, decreasing=True, label="top")
        _ref_validate_chain(piece.bottom, decreasing=False, label="bottom")
    else:
        vs = piece.vectors
        if not vs:
            raise ValueError("simple-pole part needs at least one vector")
        if (0, 0) in vs:
            raise ValueError("simple-pole chain contains a zero vector")
        r = (sum(x for x, _ in vs), sum(y for _, y in vs))
        if r != (0, 0) and any(dot(v, r) <= 0 for v in vs):
            raise ValueError("simple-pole chain is not monotone along its residue")


def _ref_cycle_and_corners(piece, canon):
    """Boundary cycle of slot ids and the turns of the corner entering each
    slot, in cycle order; the corner between cycle[k-1] and cycle[k] sweeps
    from canon[cycle[k]] to -canon[cycle[k-1]]."""
    if isinstance(piece, PolarPart):
        l, lp = len(piece.top), len(piece.bottom)
        cyc = tuple(range(l)) + tuple(range(l + lp - 1, l - 1, -1))
    else:
        cyc = tuple(range(len(canon)))
    turns = []
    for pos, sid in enumerate(cyc):
        x, y = canon[cyc[pos - 1]]
        turns.append(_ref_sweep_turns(canon[sid], (-x, -y)))
    if isinstance(piece, PolarPart):
        b, tau = piece.order, piece.pole_type
        if l and lp:
            turns[0] = tau
            turns[l] = b - tau + (canon[-1][1] >= 0) - (canon[l - 1][1] <= 0)
        elif l:
            turns[0] = b - 1 + (canon[l - 1][1] > 0)
        else:
            turns[0] = b - 1 + (canon[-1][1] >= 0)
    return cyc, tuple(turns)


def _ref_read_piece(piece):
    """The reference's reading, with the cycle and turns indexed by slot as
    :func:`_read_piece` returns them."""
    _ref_validate_piece(piece)
    if isinstance(piece, PolarPart):
        canon = [*piece.top, *[(-x, -y) for x, y in piece.bottom]]
    else:
        canon = list(piece.edges if isinstance(piece, Polygon) else piece.vectors)
    cyc, turns = _ref_cycle_and_corners(piece, canon)
    before, into = [0] * len(cyc), [0] * len(cyc)
    for pos, sid in enumerate(cyc):
        before[sid], into[sid] = cyc[pos - 1], turns[pos]
    residue = None
    if not isinstance(piece, Polygon):
        residue = (sum(x for x, _ in canon), sum(y for _, y in canon))
    return canon, before, into, residue


_vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_nonzero = _vectors.filter(lambda v: v != (0, 0))
_by_arg = functools.cmp_to_key(arg_cmp)


@st.composite
def _polygons(draw):
    """Raw edge lists; closed ones, drawn edges and the edge that closes
    them, which wind any number of times; or centrally symmetric polygons
    (each drawn edge with its reverse, sorted by argument: convex unless all
    are parallel), started at any edge, one in four with one edge redrawn;
    or, convex by construction, symmetric ones whose first two drawn edges
    span the plane, none redrawn."""
    kind = draw(st.sampled_from(("raw", "closed", "symmetric", "convex")))
    if kind == "raw":
        return Polygon(draw(st.lists(_vectors, max_size=6)))
    if kind == "closed":
        edges = draw(st.lists(_nonzero, min_size=2, max_size=6))
        return Polygon([*edges, (-sum(x for x, _ in edges), -sum(y for _, y in edges))])
    if kind == "symmetric":
        half = draw(st.lists(_nonzero, min_size=1, max_size=4))
    else:
        u = draw(_nonzero)
        half = [u, draw(_nonzero.filter(lambda v: cross(u, v))), *draw(st.lists(_nonzero, max_size=2))]
    edges = sorted([*half, *[(-x, -y) for x, y in half]], key=_by_arg)
    shift = draw(st.integers(0, len(edges) - 1))
    edges = edges[shift:] + edges[:shift]
    if kind == "symmetric" and not draw(st.integers(0, 3)):
        edges[draw(st.integers(0, len(edges) - 1))] = draw(_vectors)
    return Polygon(edges)


_off_the_negative_axis = _nonzero.filter(lambda v: v[1] or v[0] > 0)
_right_half = _nonzero.filter(lambda v: v[0] >= 0)


@st.composite
def _polar_parts(draw):
    """Polar parts with raw fields; with an order and type in range and
    chains off the negative real axis, sorted the way a valid part orders
    them; or, valid by construction, the same with at least one vector, all
    in the closed right half-plane, so that each chain's sum has a
    nonnegative real part."""
    kind = draw(st.sampled_from(("raw", "sorted", "valid")))
    if kind == "raw":
        order, pole_type = draw(st.integers(1, 5)), draw(st.integers(0, 5))
        top, bottom = draw(st.lists(_vectors, max_size=4)), draw(st.lists(_vectors, max_size=4))
        return PolarPart(order, pole_type, top, bottom)
    order = draw(st.integers(2, 5))
    pole_type = draw(st.integers(1, order - 1))
    if kind == "sorted":
        chains = st.lists(_off_the_negative_axis, max_size=4)
        top, bottom = draw(chains), draw(chains)
    else:
        vectors = draw(st.lists(_right_half, min_size=1, max_size=6))
        cut = draw(st.integers(0, len(vectors)))
        top, bottom = vectors[:cut], vectors[cut:]
    top, bottom = sorted(top, key=_by_arg, reverse=True), sorted(bottom, key=_by_arg)
    return PolarPart(order, pole_type, top, bottom)


_pieces = st.one_of(
    _polygons(),
    st.lists(_vectors, max_size=4).map(SimplePolePart),
    _polar_parts(),
)


# Polygons and simple-pole chains share one walk, so each drawn edge list
# is also read as a chain: both kinds' acceptance runs on the same vectors.
_readings = _pieces.map(
    lambda piece: (piece, SimplePolePart(piece.edges)) if isinstance(piece, Polygon) else (piece,)
)


@given(_readings)
@settings(max_examples=800, deadline=None)
def test_one_pass_matches_the_reference_reading(pieces):
    """_read_piece raises the reference's first message, or returns its
    canonical vectors, cycle, turns and residue sums."""
    for piece in pieces:
        try:
            want = _ref_read_piece(piece)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _read_piece(piece)
            assert str(got.value) == str(exc)
            continue
        canon, before, turns, residue = _read_piece(piece)
        assert (list(canon), before, turns, residue) == want


def test_one_pass_reference_strategies_reach_valid_pieces():
    """The strategies above draw accepted pieces of every kind, so the
    comparison is not only over rejections."""
    accepted = {Polygon: 0, SimplePolePart: 0, PolarPart: 0}

    @given(_pieces)
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def count(piece):
        try:
            _ref_validate_piece(piece)
        except ValueError:
            return
        accepted[type(piece)] += 1

    count()
    assert min(accepted.values()) >= 10, accepted


class TestVerifySurface:
    def test_residue_of_polar_top_only(self):
        pieces = (PolarPart(3, 1, ((2, 1), (1, -1)), ()), SimplePolePart(((-1, 1), (-2, -1))))
        surf = FlatSurface(pieces, (((0, 0), (1, 1)), ((0, 1), (1, 0))))
        assert verify_surface(surf).poles == ((-3, QQi(3)), (-1, QQi(-3)))

    def test_residue_of_trivial_part(self):
        surf = FlatSurface((PolarPart(4, 2, (RIGHT,), (RIGHT,)),), (((0, 0), (0, 1)),))
        assert verify_surface(surf).poles == ((-4, QQi(0)),)

    def test_residue_of_simple_pole_over_six(self):
        pieces = (SimplePolePart(((1, 2), (3, 0))), SimplePolePart(((-3, 0), (-1, -2))))
        surf = FlatSurface(pieces, (((0, 0), (1, 1)), ((0, 1), (1, 0))), 6)
        residue = QQi(Fraction(2, 3), Fraction(1, 3))
        assert verify_surface(surf).poles == ((-1, residue), (-1, -residue))

    def test_polygon_is_not_a_pole(self):
        surf = FlatSurface((Polygon(SQUARE),), (((0, 0), (0, 2)), ((0, 1), (0, 3))))
        assert verify_surface(surf).poles == ()

    def test_flat_torus(self):
        prof = verify_surface(_chain_surface((), (), _SQUARE))
        assert prof.genus == 1
        assert prof.zero_orders == (0,)
        assert prof.poles == ()

    def test_plumbed_pole_pair_is_the_flat_torus(self):
        # The simplest handle: the cylinder of two simple poles of residues
        # 1 and -1, glued to each other and then plumbed.
        parts = [SimplePolePart((RIGHT,)), SimplePolePart((LEFT,))]
        assert _plumb(parts, [((0, 0), (1, 0))], 1, 1, 1) == _chain_surface((), (), _SQUARE)

    def test_simple_polygon_helper(self):
        assert _is_simple_polygon(SQUARE)
        bowtie = ((1, 1), DOWN, (-1, 1), DOWN)
        slit = ((2, 0), (0, 2), LEFT, DOWN, UP, LEFT, (0, -2))
        assert not _is_simple_polygon(bowtie)
        assert not _is_simple_polygon(slit)

    def test_two_pole_chain(self):
        surf = _chain_surface((3, 4), _choose_taus((3, 4), 5))
        prof = verify_surface(surf)
        assert prof.genus == 0
        assert prof.zero_orders == (4, 1)
        assert tuple(o for o, _ in prof.poles) == (-3, -4)
        assert all(r.is_zero() for r in tuple(r for _, r in prof.poles))

    def test_graph_surface_profile(self):
        r = residue_tuple([3, 1, 1, 1, -2, -2, -2])
        prof = verify_surface(build_witness(StratumSignature(0, (5,), (), 7), r).surface)
        assert prof.genus == 0
        assert prof.zero_orders == (5,)
        assert tuple(o for o, _ in prof.poles) == (-1,) * 7
        assert tuple(r for _, r in prof.poles) == r

    def test_vector_mismatch_detected(self):
        square = Polygon(SQUARE)
        surf = FlatSurface((square,), (((0, 0), (0, 1)), ((0, 2), (0, 3))))
        with pytest.raises(VerificationError, match="vector mismatch") as both:
            verify_surface(surf)
        assert [v.split(":")[0] for v in both.value.violations] == ["pairing 0", "pairing 1"]
        # A slot matched twice ends the matching, after the mismatch before it.
        surf = FlatSurface((square,), (((0, 0), (0, 1)), ((0, 1), (0, 3)), ((0, 2), (0, 3))))
        with pytest.raises(VerificationError) as blocked:
            verify_surface(surf)
        assert blocked.value.violations == (
            "pairing 0: vector mismatch, 1 against 1i",
            "pairing 1: slot (0, 1) is matched twice",
        )

    def test_pairing_that_cannot_be_indexed(self):
        square = Polygon(SQUARE)
        for pairings, violations in (
            ((((0, 0), (0, 0)),), ("pairing 0: slot (0, 0) glued to itself",)),
            ((((0, 4), (0, 4)),), ("pairing 0: no such edge slot (0, 4)",) * 2),
            # Slots that are not pairs of ints name no slot either.
            ((((0, 0, 0), (0, 2)),), ("pairing 0: no such edge slot (0, 0, 0)",)),
            (((("a", 0), (0, 2)),), ("pairing 0: no such edge slot ('a', 0)",)),
        ):
            with pytest.raises(VerificationError) as exc:
                verify_surface(FlatSurface((square,), pairings))
            assert exc.value.violations == violations

    def test_unmatched_edge_detected(self):
        square = Polygon(SQUARE)
        surf = FlatSurface((square,), (((0, 0), (0, 2)),))
        with pytest.raises(VerificationError, match="unmatched"):
            verify_surface(surf)

    def test_disconnected_detected(self):
        sq = Polygon(SQUARE)
        surf = FlatSurface(
            (sq, sq),
            (
                ((0, 0), (0, 2)),
                ((0, 1), (0, 3)),
                ((1, 0), (1, 2)),
                ((1, 1), (1, 3)),
            ),
        )
        with pytest.raises(VerificationError, match="disconnected"):
            verify_surface(surf)

    def test_a_torus_beside_a_pole_sphere_is_disconnected(self):
        # Read naively, a square torus beside a sphere of two one-vector
        # simple-pole parts glued to each other has chi = 2 and meets the
        # degree identity: H_0(0, 0, -1, -1) with residues 1 and -1.
        pieces = (Polygon(SQUARE), SimplePolePart((RIGHT,)), SimplePolePart((LEFT,)))
        pairings = (((0, 0), (0, 2)), ((0, 1), (0, 3)), ((1, 0), (2, 0)))
        with pytest.raises(VerificationError) as exc:
            verify_surface(FlatSurface(pieces, pairings))
        assert exc.value.violations == ("surface is disconnected",)

    def test_wrapping_simple_pole_chains_detected(self):
        # Read naively, this gluing is genus 0 with zeros (2, 0) and residues
        # (1, 1, -1, -1): the primitive ray the theorem excludes for a zero
        # of order 2.  Pieces 2 and 3 run back against their residue -1, so
        # they are not half-infinite cylinders.
        pieces = (
            SimplePolePart((RIGHT,)),
            SimplePolePart((RIGHT,)),
            SimplePolePart(((-3, -2), (2, 2))),
            SimplePolePart(((-2, -2), LEFT, (3, 2), LEFT)),
        )
        pairings = (((0, 0), (3, 1)), ((1, 0), (3, 3)), ((2, 0), (3, 2)), ((2, 1), (3, 0)))
        profile = Profile(0, (2, 0), tuple((-1, QQi(m)) for m in (1, 1, -1, -1)))
        cert = ConstructionCertificate(FlatSurface(pieces, pairings), (), profile)
        with pytest.raises(VerificationError) as exc:
            verify_certificate(cert)
        assert exc.value.violations == tuple(
            f"piece {i}: simple-pole chain is not monotone along its residue" for i in (2, 3)
        )
        sig = StratumSignature(0, (2, 0), (), 4)
        assert not decide_realizable(sig, residue_tuple([1, 1, -1, -1])).realizable

    def test_bad_polygon_detected(self):
        with pytest.raises(VerificationError, match="close up"):
            verify_surface(FlatSurface((Polygon((RIGHT, UP, LEFT)),), ()))

    @pytest.mark.parametrize(
        "edges", [(RIGHT, UP, (-2, 0), DOWN), (RIGHT, UP, LEFT, (0, -2))], ids=["real-part", "imaginary-part"]
    )
    def test_open_polygon_detected(self, edges):
        with pytest.raises(VerificationError, match="close up"):
            verify_surface(FlatSurface((Polygon(edges),), ()))

    @pytest.mark.parametrize(
        "other",
        [
            SimplePolePart(((-4, -4),)),
            SimplePolePart(((-6, -6),)),
            SimplePolePart(((6, -4),)),
            SimplePolePart(((-6, 4),)),
            PolarPart(2, 1, (), ((6, 3),)),
            PolarPart(2, 1, (), ((4, 4),)),
        ],
        ids=["re-denominator", "im-denominator", "re-sign", "im-sign", "bottom-im", "bottom-re"],
    )
    def test_vector_mismatch_in_one_part(self, other):
        # Over the denominator 12, matched against (6, 4), that is
        # 1/2 + i/3: each differs from the opposite pair in one coordinate
        # only (-1/3 for -1/2, -1/2 for -1/3, a sign, 1/4 for 1/3, 1/3 for
        # 1/2); a bottom chain is stored reversed.
        u = (6, 4)
        surf = FlatSurface((SimplePolePart((u,)), other), (((0, 0), (1, 0)),), 12)
        with pytest.raises(VerificationError, match="vector mismatch"):
            verify_surface(surf)
        value = QQi(Fraction(1, 2), Fraction(1, 3))
        for opposite in (SimplePolePart(((-6, -4),)), PolarPart(2, 1, (), (u,))):
            pieces = (SimplePolePart((u,)), opposite)
            prof = verify_surface(FlatSurface(pieces, (((0, 0), (1, 0)),), 12))
            assert tuple(r for _, r in prof.poles) == (value, -value)

    def test_self_overlapping_polygon_is_rejected(self):
        """A 16-gon that turns once in all but has a clockwise kink: the
        region inside the kink has winding number -1, so no flat disk has
        this boundary.  Turning number 1 alone accepted it."""
        points = [
            (0, 0), (6, 0), (6, -2), (5, -2), (5, 1), (7, 1), (7, 0), (10, 0),
            (10, 10), (5, 10), (5, 8), (7, 8), (7, 11), (4, 11), (4, 10), (0, 10),
        ]
        edges = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1])]
        corners = zip(edges[-1:] + edges[:-1], edges)
        assert sum(_ref_signed_turns(u, v) for u, v in corners) == 1
        with pytest.raises(ValueError, match="not convex"):
            _read_piece(Polygon(edges))

    def test_straight_corners_are_convex(self):
        """A square with one side cut in three keeps two straight corners."""
        _read_piece(Polygon((RIGHT, RIGHT, RIGHT, (0, 3), (-3, 0), (0, -3))))

    def test_denominator_must_be_positive(self):
        for d in (0, -1):
            surface = FlatSurface((Polygon(SQUARE),), (((0, 0), (0, 2)), ((0, 1), (0, 3))), d)
            with pytest.raises(VerificationError, match=f"surface denominator {d} is not positive"):
                verify_surface(surface)

    def test_numerator_must_be_positive(self):
        for n in (0, -1):
            surface = FlatSurface((Polygon(SQUARE),), (((0, 0), (0, 2)), ((0, 1), (0, 3))), 1, n)
            with pytest.raises(VerificationError, match=f"surface numerator {n} is not positive"):
                verify_surface(surface)

    @pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("field", ["denominator", "numerator"])
    def test_scale_must_be_an_integer(self, field, value):
        """On a surface with poles, where a float d reached gcd and raised
        TypeError, and True read as 1."""
        scale = {"d": value} if field == "denominator" else {"n": value}
        pieces = (SimplePolePart((RIGHT,)), SimplePolePart((LEFT,)))
        surface = FlatSurface(pieces, (((0, 0), (1, 0)),), **scale)
        with pytest.raises(VerificationError) as caught:
            verify_surface(surface)
        assert caught.value.violations == (f"surface {field} {value!r} is not an integer",)

    @pytest.mark.parametrize(
        "order, pole_type", [(2.9, True), (2, True), (2.0, 1), (3, 1.5)], ids=str
    )
    def test_polar_part_order_and_type_must_be_integers(self, order, pole_type):
        """A polar part keeps its fields as given, so (2.9, True) no longer
        reads as a double pole of type 1."""
        part = PolarPart(order, pole_type, [RIGHT], [RIGHT])
        assert (part.order, part.pole_type) == (order, pole_type)
        with pytest.raises(VerificationError) as caught:
            verify_surface(FlatSurface((part,), (((0, 0), (0, 1)),)))
        assert caught.value.violations == ("piece 0: polar part order and type must be integers",)

    @pytest.mark.parametrize(
        "pieces, pairings",
        [
            (
                (Polygon(TORUS_HALF), Polygon([(-x, -y) for x, y in TORUS_HALF])),
                [((0, k), (1, k)) for k in range(3)],
            ),
            ((SimplePolePart([(0.5, 0)]), SimplePolePart([(-0.5, 0)])), [((0, 0), (1, 0))]),
            (
                (SimplePolePart([(Fraction(1, 2), 0), UP]), SimplePolePart([DOWN, (-0.5, 0)])),
                [((0, 0), (1, 1)), ((0, 1), (1, 0))],
            ),
            ((PolarPart(2, 1, [(Fraction(1, 2), 0)], [(Fraction(1, 2), 0)]),), [((0, 0), (0, 1))]),
            ((PolarPart(2, 1, [RIGHT], [(1, 0.0)]),), [((0, 0), (0, 1))]),
            ((SimplePolePart([("a", 0)]), SimplePolePart([LEFT])), [((0, 0), (1, 0))]),
        ],
        ids=[
            "float-torus",
            "float-simple-pole",
            "fraction-chain",
            "fraction-polar-part",
            "float-bottom-chain",
            "string-simple-pole",
        ],
    )
    def test_coordinates_must_be_integers(self, pieces, pairings):
        """Two float triangles glued edge to edge read as a genus-1 surface,
        a float simple pole reached gcd and raised TypeError, a Fraction
        polar part was read as well, and a string coordinate raised
        TypeError from the sum."""
        with pytest.raises(VerificationError) as caught:
            verify_surface(FlatSurface(pieces, pairings))
        assert caught.value.violations[0] == "piece 0: coordinates must be integers"

    @pytest.mark.parametrize("bad", ["a", None, 1j], ids=repr)
    @pytest.mark.parametrize(
        "piece",
        [
            lambda v: SimplePolePart([v]),
            lambda v: SimplePolePart([UP, v]),
            lambda v: Polygon([v, LEFT, DOWN]),
            lambda v: PolarPart(2, 1, [v], [RIGHT]),
        ],
        ids=["simple-pole", "simple-pole-chain", "polygon", "polar-part"],
    )
    def test_a_coordinate_that_is_not_a_number_is_a_violation(self, piece, bad):
        """A str, None or complex coordinate fails an operation of the walk
        with TypeError, which the kernel reports in the words it uses for
        floats, in either coordinate, beside a 0 or not, and on every kind
        of piece."""
        for v in ((bad, 1), (1, bad), (bad, 0), (0, bad)):
            with pytest.raises(VerificationError) as caught:
                verify_surface(FlatSurface([piece(v), SimplePolePart([LEFT])], [((0, 0), (1, 0))]))
            assert caught.value.violations == ("piece 0: coordinates must be integers",)

    def test_bool_coordinates_read_as_integers(self):
        """A bool coordinate reads as 0 or 1 on every kind of piece: the
        one-vector chain, a walked chain, a polygon and a polar part."""
        t, f = True, False
        cases = [
            (
                (SimplePolePart([RIGHT]), SimplePolePart([LEFT])),
                (SimplePolePart([(t, f)]), SimplePolePart([(-1, f)])),
                [((0, 0), (1, 0))],
            ),
            (
                (SimplePolePart([RIGHT, UP]), SimplePolePart([DOWN, LEFT])),
                (SimplePolePart([(t, f), (f, t)]), SimplePolePart([DOWN, LEFT])),
                [((0, 0), (1, 1)), ((0, 1), (1, 0))],
            ),
            (
                (Polygon(SQUARE),),
                (Polygon([(t, f), (f, t), LEFT, DOWN]),),
                [((0, 0), (0, 2)), ((0, 1), (0, 3))],
            ),
            (
                (PolarPart(2, 1, [RIGHT], [RIGHT]),),
                (PolarPart(2, 1, [(t, f)], [(t, 0)]),),
                [((0, 0), (0, 1))],
            ),
        ]
        for ints, bools, pairings in cases:
            profile = verify_surface(FlatSurface(ints, pairings))
            assert verify_surface(FlatSurface(bools, pairings)) == profile

    def test_a_slot_index_that_is_not_an_int_names_no_slot(self):
        """A float slot index reached list indexing and raised TypeError."""
        for pairings, violation in (
            ([((0, 0), (0, 2.0)), ((0, 1), (0, 3))], "pairing 0: no such edge slot (0, 2.0)"),
            ([((0, 0), (0, 2)), ((0, 1.0), (0, 3))], "pairing 1: no such edge slot (0, 1.0)"),
        ):
            with pytest.raises(VerificationError) as caught:
                verify_surface(FlatSurface((Polygon(SQUARE),), pairings))
            assert caught.value.violations == (violation,)

    @pytest.mark.parametrize(
        "edges", [(RIGHT, DOWN, LEFT, UP), SQUARE * 2], ids=["clockwise", "twice-around"]
    )
    def test_bad_winding_detected(self, edges):
        with pytest.raises(VerificationError, match="does not wind once counterclockwise"):
            verify_surface(FlatSurface((Polygon(edges),), ()))


def test_poles_match_as_multisets():
    """verify_certificate and profile_matches compare poles as multisets: a
    claim that lists the derived poles in another order passes both, and a
    claim that moves one residue by 1/d fails both."""
    sig = StratumSignature(0, (1, 1), (), 4)
    half, third = Fraction(1, 2), Fraction(1, 3)
    residues = residue_tuple([half, QQi(0, third), -half, QQi(0, -third)])
    cert = build_witness(sig, residues)
    poles = cert.claimed.poles
    for permuted in (poles[1:] + poles[:1], poles[::-1]):
        assert permuted != poles
        claimed = replace(cert.claimed, poles=permuted)
        assert verify_certificate(replace(cert, claimed=claimed)).poles == poles
        assert profile_matches(claimed, sig, residues)
    step = QQi(Fraction(1, cert.surface.d))
    for k in range(len(poles)):
        order, r = poles[k]
        off = (*poles[:k], (order, r + step), *poles[k + 1 :])
        claimed = replace(cert.claimed, poles=off)
        with pytest.raises(VerificationError, match="claimed poles differ"):
            verify_certificate(replace(cert, claimed=claimed))
        assert not profile_matches(claimed, sig, residues)


def test_profile_matches_rejects_a_residue_tuple_of_the_wrong_length():
    """A residue tuple longer or shorter than the stratum's poles matches no
    profile, although its first entries are the profile's residues."""
    sig = StratumSignature(0, (2,), (), 4)
    profile = verify_certificate(build_witness(sig, residue_tuple([1, 2, -1, -2])))
    assert profile_matches(profile, sig, residue_tuple([1, 2, -1, -2]))
    long = residue_tuple([1, 2, -1, -2, 7])
    assert validate_residues(sig, long) == ("residue tuple has length 5, expected 4",)
    assert not profile_matches(profile, sig, long)
    five = StratumSignature(0, (2,), (), 5)
    assert not profile_matches(profile, five, residue_tuple([1, 2, -1, -2]))


class TestBuildWitness:
    def check(self, sig, values, rotation=None):
        r = residue_tuple(values)
        cert = build_witness(sig, r, rotation=rotation)
        assert cert is not None
        prof = verify_certificate(cert)
        assert profile_matches(prof, sig, r)
        return cert

    def test_residual_polygon_witness(self):
        cert = self.check(StratumSignature(0, (2,), (), 4), [ONE, I, -ONE, -I])
        kinds = {type(p).__name__ for p in cert.surface.pieces}
        assert kinds == {"Polygon", "SimplePolePart"}

    def test_a_verdict_with_no_route_is_not_built(self):
        # H_0(2, -1^4) with (1, i, -1, -i) builds on the residual-polygon
        # route; a verdict that is no "yes", or names no route, builds nothing.
        sig = StratumSignature(0, (2,), (), 4)
        verdict, r, on_lattice = resflat.decide._decision(sig, [ONE, I, -ONE, -I])
        Verdict = resflat.decide.Verdict
        assert resflat.surfaces._build_on_route(sig, r, on_lattice, verdict, None)
        for verdict, message in (
            (Verdict("excluded-primitive-ray", "no-such-route"), "is not realizable"),
            (Verdict("excluded-primitive-ray", "residual-polygon"), "is not realizable"),
            (Verdict("non-collinear", "no-such-route"), "names no construction route"),
            (Verdict("non-collinear"), "names no construction route"),
        ):
            with pytest.raises(ValueError, match=message):
                resflat.surfaces._build_on_route(sig, r, on_lattice, verdict, None)

    def test_triangle_family_witness(self):
        self.check(StratumSignature(0, (3, 3, 3), (2, 2, 2, 2, 3)), [0] * 5)

    def test_triangle_rebalanced_corner_witness(self):
        # The corner split moves a pole's unit from corner 0 to corner 2,
        # which leaves corner 1's valence as it was.
        self.check(StratumSignature(0, (3, 3, 2), (2, 2, 2, 2, 2)), [0] * 5)

    def test_every_realizable_zero_residue_request_builds(self):
        """Every realizable genus-0 zero-residue stratum with 1-6 poles of
        orders 2-4 and 1-4 zeros builds, verifies and matches."""
        count = 0
        for p in range(1, 7):
            for orders in itertools.combinations_with_replacement(range(2, 5), p):
                for n in range(1, 5):
                    for zeros in _partitions(sum(orders) - 2, n):
                        sig = StratumSignature(0, zeros, orders)
                        if decide_realizable(sig, residue_tuple([0] * p)).realizable:
                            self.check(sig, [0] * p)
                            count += 1
        assert count == 2745

    def test_torus_with_boundary_witness(self):
        self.check(StratumSignature(1, (4,), (), 4), [1, 1, -1, -1])

    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize(
        "t", [Fraction(1, 10**320), Fraction(1), Fraction(10**320)], ids=["1e-320", "1", "1e320"]
    )
    @pytest.mark.parametrize(
        "values",
        [(1, -1), (I, -I), (1, 1, -1, -1), (ONE + I, ONE + I, -ONE - I, -ONE - I)],
        ids=["1", "i", "1,1", "1+i,1+i"],
    )
    def test_simple_pole_handles_are_simple_polygons(self, values, t, genus):
        # Simple poles only at positive genus: the residual polygon with g
        # plumbed handles.
        s = len(values)
        sig = StratumSignature(genus, (s + 2 * genus - 2,), (), s)
        values = [v * t for v in residue_tuple(values)]
        assert decide_realizable(sig, values).certificate_hint == "genus-reduction"
        cert = self.check(sig, values)
        polygons = [p for p in cert.surface.pieces if isinstance(p, Polygon)]
        assert polygons and all(_is_simple_polygon(p.edges) for p in polygons)

    def test_two_handles_witness(self):
        cert = self.check(StratumSignature(2, (6,), (2, 2)), [1, -1])
        assert cert.surgeries == ()
        assert verify_surface(cert.surface).genus == 2

    def test_positive_genus_sweep(self):
        # Every handle is a plumbed cylinder: the surface alone has the
        # requested genus, and only blow-ups act on its profile.
        requests = _positive_genus_requests()
        assert {sig.genus for sig, _ in requests} == {1, 2, 3, 4}
        for sig, values in requests:
            cert = self.check(sig, values)
            assert all(isinstance(step, BlowUpZero) for step in cert.surgeries)
            assert verify_surface(cert.surface).genus == sig.genus

    @pytest.mark.parametrize(
        "other",
        [
            StratumSignature(1, (4,), (), 4),
            StratumSignature(0, (1, 1), (), 4),
            StratumSignature(0, (2, 0), (), 4),
        ],
        ids=["genus", "zeros", "missing-marked-point"],
    )
    def test_profile_matches_rejects_another_request(self, other):
        r = residue_tuple([1, 2, -1, -2])
        prof = verify_certificate(self.check(StratumSignature(0, (2,), (), 4), r))
        assert not profile_matches(prof, other, r)

    def test_corrected_mixed_example(self):
        self.check(
            StratumSignature(0, (6,), (2, 2, 3), 1),
            [QQi(0), I, QQi(-1, -1), ONE],
        )

    def test_not_realizable_returns_none(self):
        sig = StratumSignature(0, (2,), (), 4)
        assert build_witness(sig, residue_tuple([1, 1, -1, -1])) is None

    def test_stable_assembly_path(self):
        sig = StratumSignature(0, (2, 2), (), 6)
        r = residue_tuple([2, 1, 1, -1, -1, -2])
        cert = self.check(sig, r)
        # The node is one cylinder: the node half's chain, a side h, the
        # chain holding the leaf's sum and -h, with h glued to -h.
        *parts, node = cert.surface.pieces
        assert [p.vectors for p in parts] == [((m, 0),) for m in (2, 1, 1, -1, -1, -2)]
        assert cert.surface.d == 1
        h = (0, 4)
        assert node == Polygon(((-2, 0), LEFT, LEFT, (0, -4), RIGHT, RIGHT, (2, 0), h))
        assert cert.surface.pairings[-1] == ((6, 3), (6, 7))

    def test_connection_graph_wall(self):
        # Twelve poles on one zero, out of reach of an exhaustive tree
        # search, and a seeded random ray of forty poles.
        self.check(StratumSignature(0, (10,), (), 12), [11] + [-1] * 11)
        rng = random.Random(40)
        plus = [rng.randint(1, 5) for _ in range(20)]
        minus = [-rng.randint(1, 5) for _ in range(20)]
        gap = sum(plus) + sum(minus)
        (minus if gap > 0 else plus)[0] -= gap
        values = plus + minus
        rng.shuffle(values)
        sig = StratumSignature(0, (38,), (), 40)
        assert decide_realizable(sig, residue_tuple(values)).certificate_hint == "connection-graph"
        self.check(sig, values)

    def test_stable_tree_sweep(self):
        # Every primitive ray of 4..8 entries in +-1..4, scaled by a random
        # Gaussian rational, on every stratum of two or more zeros that
        # takes the stable-tree route, with and without a marked point.
        rng = random.Random(8)
        built = 0
        for s in range(4, 9):
            for ints in itertools.combinations_with_replacement((4, 3, 2, 1, -1, -2, -3, -4), s):
                if sum(ints) or math.gcd(*ints) != 1 or primitive_total_exceeds(ints, s - 2):
                    continue
                for parts in range(2, s - 1):
                    for zeros in _partitions(s - 2, parts):
                        if not primitive_total_exceeds(ints, zeros[0]):
                            continue
                        unit = QQi(Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4)), rng.randint(-2, 2))
                        values = [unit * m for m in ints]
                        for marked in ((), (0,)):
                            sig = StratumSignature(0, zeros + marked, (), s)
                            route = decide_realizable(sig, residue_tuple(values)).certificate_hint
                            assert route == "stable-tree", (sig, ints)
                            self.check(sig, values)
                            built += 1
        assert built == 2 * 278

    def test_stable_tree_walls(self):
        # Out of reach of an exhaustive search over trees of zeros: the first
        # took 226 s that way, the second 14 s.
        cases = [
            ((2,) * 5, [3, 1, 1, 1, -1, -1, -1, -1, -1, 1, -1, -1]),
            ((1,) * 8, [1, -1] * 5),
            ((1,) * 30, [1, -1] * 16),
        ]
        for zeros, values in cases:
            sig = StratumSignature(0, zeros, (), len(values))
            assert decide_realizable(sig, residue_tuple(values)).certificate_hint == "stable-tree"
            self.check(sig, values)

    # A request on each route, one with a rotation and one with a marked point.
    ONE_PER_ROUTE = [
        (StratumSignature(0, (1, 1), (2, 2)), [0, 0], "zero-residue-chain", None),
        (StratumSignature(0, (1, 1), (), 4), [ONE, I, -ONE, -I], "residual-polygon", None),
        (StratumSignature(0, (1, 1), (2,), 2), [1, 2, -3], "collinear-anchor-chain", None),
        (StratumSignature(0, (5,), (), 7), [3, 1, 1, 1, -2, -2, -2], "connection-graph", None),
        (StratumSignature(0, (1, 1), (), 4), [3, -1, -1, -1], "blow-up-of-single-zero", None),
        (StratumSignature(0, (2, 2), (), 6), [2, 1, 1, -1, -1, -2], "stable-tree", None),
        (
            StratumSignature(1, (3,), (2,), 1),
            [Fraction(1, 2), Fraction(-1, 2)],
            "genus-reduction",
            None,
        ),
        (StratumSignature(1, (4,), (2, 2)), [0, 0], "zero-residue-chain", 2),
        (
            StratumSignature(0, (2, 0), (), 4),
            [Fraction(1, 3), I / 7, Fraction(-1, 3), -I / 7],
            "residual-polygon",
            None,
        ),
    ]

    @pytest.mark.parametrize("sig, values, route, rotation", ONE_PER_ROUTE)
    def test_one_decision_and_one_verification_per_base(
        self, monkeypatch, sig, values, route, rotation
    ):
        # The kernel reads each base once, in _build_on_route: a rotation is
        # checked against that reading, and marked points are added after it.
        # The residues are read and decided once, by decide._decision.
        verdicts, read, validated = [], [], []
        decide, read_surface = resflat.decide._decision, resflat.surfaces._read_surface
        validate = resflat.decide._read_residues

        def counting_decide(*args):
            decision = decide(*args)
            verdicts.append(decision[0])
            return decision

        def counting_read(surface):
            read.append(surface)
            return read_surface(surface)

        def counting_validate(*args):
            validated.append(args)
            return validate(*args)

        monkeypatch.setattr(resflat.decide, "_decision", counting_decide)
        monkeypatch.setattr(resflat.surfaces, "_read_surface", counting_read)
        monkeypatch.setattr(resflat.decide, "_read_residues", counting_validate)
        cert = build_witness(sig, residue_tuple(values), rotation=rotation)
        assert [v.certificate_hint for v in verdicts] == [route]
        assert len(validated) == 1
        assert cert.claimed_rotation == rotation
        assert len(read) == 1
        if 0 in sig.zeros:  # the marked points cut the base into a new surface
            assert cert.claimed.zero_orders.count(0) == sig.zeros.count(0)
            assert read[0] is not cert.surface
        else:
            assert read == [cert.surface]

    @pytest.mark.parametrize(
        "scale", [1, Fraction(10**320), Fraction(1, 10**320)], ids=["1", "1e320", "1e-320"]
    )
    @pytest.mark.parametrize("entry", ["build_witness", "cli-witness"])
    @pytest.mark.parametrize("sig, values, route, rotation", ONE_PER_ROUTE)
    def test_one_lattice_reading_per_request(
        self, monkeypatch, sig, values, route, rotation, entry, scale
    ):
        # Validation, the decider and the builder share one reading of the
        # residues: one lattice call, counted in every namespace binding it.
        residues = tuple(r * scale for r in residue_tuple(values))
        assert decide_realizable(sig, residues).certificate_hint == route
        calls = []
        lattice = resflat.core.lattice

        def counting_lattice(values):
            calls.append(len(values))
            return lattice(values)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "resflat" and vars(module).get("lattice") is lattice:
                monkeypatch.setattr(module, "lattice", counting_lattice)
        if entry == "build_witness":
            assert build_witness(sig, residues, rotation=rotation) is not None
        else:
            stratum = {
                "genus": sig.genus,
                "zeros": list(sig.zeros),
                "poles": list(sig.higher_poles),
                "simple_poles": sig.s,
            }
            doc = {"stratum": stratum, "residues": [_qqi_to_json(r) for r in residues]}
            with mock.patch("sys.stdin", io.StringIO(json.dumps({**doc, "rotation": rotation}))):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["witness", "-"]) == 0
        assert calls == [len(residues)]

    @pytest.mark.parametrize(
        "sig, values, route",
        [
            (StratumSignature(0, (2,), (), 4), (1, I, -1, -I), "residual-polygon"),
            (StratumSignature(0, (3,), (3,), 2), (QQi(1, 1), I, QQi(-1, -2)), "residual-polygon"),
            (StratumSignature(0, (3,), (3,), 2), (2, -1, -1), "collinear-anchor-chain"),
        ],
        ids=["polygon-simple-poles", "polygon-higher-pole", "anchor-chain"],
    )
    @pytest.mark.parametrize(
        "t", [Fraction(10**400), Fraction(1, 10**400)], ids=["1e400", "1e-400"]
    )
    def test_exact_at_any_magnitude(self, sig, values, route, t):
        # Cone angles and winding are whole-turn counts, so no magnitude
        # overflows or underflows them.
        values = [v * t for v in residue_tuple(values)]
        assert decide_realizable(sig, values).certificate_hint == route
        self.check(sig, values)

    def test_decider_and_builder_agree(self):
        # Randomized cross-check is in the acceptance suite; here a fixed grid.
        cases = [
            (StratumSignature(0, (2,), (2, 2)), [0, 0]),
            (StratumSignature(0, (1, 1), (2, 2)), [0, 0]),
            (StratumSignature(0, (3,), (), 5), [2, 1, -1, -1, -1]),
            (StratumSignature(0, (3,), (), 5), [3, 1, -1, -2, -1]),
            (StratumSignature(0, (4,), (2, 2), 2), [0, 0, 1, -1]),
            (StratumSignature(1, (2,), (), 2), [5, -5]),
        ]
        for sig, values in cases:
            r = residue_tuple(values)
            expected = decide_realizable(sig, r).realizable
            cert = build_witness(sig, r)
            assert (cert is not None) == expected, (sig, values)

    def test_decider_and_builder_agree_enumerated(self):
        # Every signature over a small grid, with and without a declared
        # marked point, against a spread of residue patterns: the builder
        # succeeds exactly when the decider says so, and every certificate
        # verifies back to the request.
        import itertools

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(1, total - parts + 2):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest

        def patterns(p, s):
            n = p + s
            if s == 0:
                yield tuple(QQi(0) for _ in range(p))
            for direction in (ONE, I):
                for tvals in itertools.product((-2, 0, 1), repeat=n - 1):
                    last = -sum(tvals)
                    full = tvals + (last,)
                    if abs(last) > 2 or all(t == 0 for t in full):
                        continue
                    if any(full[p + k] == 0 for k in range(s)):
                        continue
                    yield tuple(QQi(0) if t == 0 else direction * t for t in full)
            if n >= 3:
                base = [ONE, I, QQi(2, 1), QQi(-1, 1)]
                vals = [base[k % len(base)] for k in range(n - 1)]
                last = QQi(0)
                for v in vals:
                    last = last - v
                full = vals + [last]
                if not any(full[p + k].is_zero() for k in range(s)):
                    yield tuple(full)

        built = refused = 0
        for genus in (0, 1):
            for bs in ((), (2,), (3,), (2, 2)):
                for s in (0, 2, 3):
                    degree = 2 * genus - 2 + sum(bs) + s
                    if degree < 1:
                        continue
                    for nparts in (1, 2):
                        for zeros in (
                            z + marked
                            for z in compositions(degree, nparts)
                            for marked in ((), (0,))
                        ):
                            sig = StratumSignature(genus, zeros, bs, s)
                            from resflat.core import validate_residues

                            for r in patterns(len(bs), s):
                                if validate_residues(sig, r):
                                    continue
                                expected = decide_realizable(sig, r).realizable
                                cert = build_witness(sig, r)
                                assert (cert is not None) == expected, (sig, r)
                                if cert is None:
                                    refused += 1
                                else:
                                    assert profile_matches(
                                        verify_certificate(cert), sig, r
                                    )
                                    built += 1
        assert built > 400 and refused > 0


class TestSurgeries:
    def base_cert(self):
        return build_witness(
            StratumSignature(1, (4,), (2, 2)), residue_tuple([0, 0])
        )

    def test_blow_up_splits_order(self):
        cert = blow_up_zero(self.base_cert(), 0, (2, 2))
        prof = verify_certificate(cert)
        assert prof.zero_orders == (2, 2)
        assert prof.genus == 1
        assert tuple(o for o, _ in prof.poles) == (-2, -2)

    def test_blow_up_identity(self):
        cert = blow_up_zero(self.base_cert(), 0, (4,))
        assert verify_certificate(cert).zero_orders == (4,)

    def test_blow_up_preserves_residues(self):
        base = build_witness(
            StratumSignature(0, (2,), (), 4), residue_tuple([ONE, I, -ONE, -I])
        )
        cert = blow_up_zero(base, 0, (1, 1))
        prof = verify_certificate(cert)
        target = StratumSignature(0, (1, 1), (), 4)
        assert profile_matches(prof, target, residue_tuple([ONE, I, -ONE, -I]))
        assert decide_realizable(target, residue_tuple([ONE, I, -ONE, -I])).realizable

    def test_blow_up_sum_mismatch(self):
        with pytest.raises(ValueError, match="sum"):
            blow_up_zero(self.base_cert(), 0, (3, 2))

    @pytest.mark.parametrize("index", [0.0, True])
    def test_blow_up_rejects_a_zero_index_that_is_not_an_int(self, index):
        with pytest.raises(ValueError, match="must be integers"):
            blow_up_zero(self.base_cert(), index, (2, 2))

    @pytest.mark.parametrize("parts", [(1.9, 1.2), (2.0, 2), (True, 3)])
    def test_blow_up_rejects_parts_that_are_not_ints(self, parts):
        """Truncated, (1.9, 1.2) would record a (1, 1) split, which verifies."""
        with pytest.raises(ValueError, match="must be integers"):
            blow_up_zero(self.base_cert(), 0, parts)


# The genus-1 bases in closed form, and the indices of two loops that span
# H_1 of each surface: the square closes a chain with indices 0 and the
# types' sum, and the handle over k of p double poles has indices k and
# p - k + 1.  The rotation number is the gcd of these with every order.
def _reference_bases():
    for p in range(1, 5):
        for orders in itertools.combinations_with_replacement(range(2, 6), p):
            for taus in itertools.product(*(range(1, b) for b in orders)):
                yield _chain_surface(orders, taus, _SQUARE), math.gcd(*orders, sum(taus))
    for p in range(1, 7):
        for k in range(1, p + 1):
            surface = _chain_surface((2,) * (p - k), (1,) * (p - k), _HANDLE, k - 1)
            yield surface, math.gcd(2, k, p - k + 1)


def _claim(surface, rotation):
    return ConstructionCertificate(surface, (), verify_surface(surface), rotation)


class TestRotationBookkeeping:
    def test_measured_rotation_matches_the_closed_form(self):
        """Every square-closed chain with 1-4 poles of orders 2-5 (every
        admissible type tuple), and every handle base with 1-6 double poles,
        read their closed-form rotation off the surface, with 0 and with 2
        marked points."""
        count = 0
        for surface, rot in _reference_bases():
            base = _claim(surface, rot)
            for marked in (base, _with_marked_points(base, (0, 0))):
                assert verify_certificate(marked).genus == 1
                count += 1
        assert count == 2 * 2147

    def test_chain_rot_one_and_three(self):
        for rot in (1, 3):
            cert = build_witness(
                StratumSignature(1, (6,), (3, 3)), residue_tuple([0, 0]), rotation=rot
            )
            assert cert.claimed_rotation == rot
            verify_certificate(cert)

    @pytest.mark.parametrize("rotation", [2.9, True])
    def test_rotation_that_is_not_an_int_is_rejected(self, rotation):
        """Truncated, 2.9 and True would claim rotations 2 and 1."""
        sig = StratumSignature(1, (4,), (2, 2))
        with pytest.raises(ValueError, match="rotation must be an integer"):
            build_witness(sig, residue_tuple([0, 0]), rotation=rotation)

    def test_rot_five_violation(self):
        cert = build_witness(
            StratumSignature(1, (6,), (3, 3)), residue_tuple([0, 0]), rotation=3
        )
        bad = replace(cert, claimed_rotation=5)
        with pytest.raises(VerificationError, match="divide"):
            verify_certificate(bad)

    def test_family_mismatch_violation(self):
        """The rotation-2 base with a handle over two double poles, claimed
        as the rotation 1 of the other double-pole base."""
        sig = StratumSignature(1, (6,), (2, 2, 2))
        cert = build_witness(sig, residue_tuple([0, 0, 0]), rotation=2)
        bad = replace(cert, claimed_rotation=1)
        with pytest.raises(VerificationError, match="rotation number 2, claimed 1"):
            verify_certificate(bad)

    def test_flipped_residue_violation(self):
        cert = build_witness(
            StratumSignature(0, (3,), (2,), 3), residue_tuple([0, 2, -1, -1])
        )
        flipped = replace(
            cert,
            claimed=replace(
                cert.claimed, poles=tuple((o, -r) for o, r in cert.claimed.poles)
            ),
        )
        with pytest.raises(VerificationError, match="poles"):
            verify_certificate(flipped)

    def test_family_of_another_base_violation(self):
        """The rotation-3 chain on H_1(6, -3^2) claimed as rotation 1."""
        sig, zero = StratumSignature(1, (6,), (3, 3)), residue_tuple([0, 0])
        forged = replace(build_witness(sig, zero, rotation=3), claimed_rotation=1)
        with pytest.raises(VerificationError, match="rotation number 3, claimed 1"):
            verify_certificate(forged)

    def test_family_with_extra_types_violation(self):
        """The rotation-1 chain on H_1(6, -3^2) claimed as rotation 3."""
        sig, zero = StratumSignature(1, (6,), (3, 3)), residue_tuple([0, 0])
        forged = replace(build_witness(sig, zero, rotation=1), claimed_rotation=3)
        with pytest.raises(VerificationError, match="rotation number 1, claimed 3"):
            verify_certificate(forged)

    def test_rotation_with_marked_point(self):
        sig = StratumSignature(1, (4, 0), (2, 2))
        cert = build_witness(sig, residue_tuple([0, 0]), rotation=2)
        assert cert.claimed.zero_orders == (4, 0)
        assert verify_certificate(cert).zero_orders == (4, 0)

    def test_marked_point_on_the_last_pairing(self):
        """An honest claim no builder emits: the rotation-3 base with its
        marked point cut on its last pairing rather than its first."""
        zero = residue_tuple([0, 0])
        surface = build_witness(StratumSignature(1, (6,), (3, 3)), zero, rotation=3).surface
        *rest, last = surface.pairings
        moved = _claim(FlatSurface(surface.pieces, [last, *rest], surface.d), 3)
        cert = _with_marked_points(moved, (0,))
        built = build_witness(StratumSignature(1, (6, 0), (3, 3)), zero, rotation=3)
        assert cert.surface.pieces != built.surface.pieces
        assert verify_certificate(cert).zero_orders == (6, 0)

    def test_relabelled_surface_keeps_its_rotation(self):
        """The reading does not depend on how pieces and pairings are listed."""
        rng = random.Random(5)
        for taus, rot in (((1, 1), 1), ((1, 2), 3)):
            surface = _chain_surface((3, 3), taus, _SQUARE)
            for _ in range(10):
                order = list(range(len(surface.pieces)))
                rng.shuffle(order)
                where = {old: new for new, old in enumerate(order)}
                pairings = [
                    tuple(rng.sample([(where[a[0]], a[1]), (where[b[0]], b[1])], 2))
                    for a, b in surface.pairings
                ]
                rng.shuffle(pairings)
                pieces = [surface.pieces[i] for i in order]
                verify_certificate(_claim(FlatSurface(pieces, pairings), rot))

    def test_type_shift_moves_beta_index(self):
        """Raising one type by one moves the beta index by one, and the
        rotation of H_1(6, -3^2) from gcd(3, 2) = 1 to gcd(3, 3) = 3."""
        for taus, rot in (((1, 1), 1), ((1, 2), 3)):
            verify_certificate(_claim(_chain_surface((3, 3), taus, _SQUARE), rot))
            with pytest.raises(VerificationError, match=f"rotation number {rot}, claimed"):
                verify_certificate(_claim(_chain_surface((3, 3), taus, _SQUARE), 4 - rot))


class TestMarkedPoints:
    def test_marked_point_stratum(self):
        sig = StratumSignature(0, (0,), (), 2)
        cert = build_witness(sig, residue_tuple([5, -5]))
        prof = verify_certificate(cert)
        assert prof.zero_orders == (0,)
        assert profile_matches(prof, sig, residue_tuple([5, -5]))

    def test_surplus_marked_points_tolerated(self):
        sig = StratumSignature(0, (3,), (5,))
        cert = build_witness(sig, residue_tuple([0]))
        prof = verify_certificate(cert)
        assert prof.zero_orders == (3, 0)
        assert profile_matches(prof, sig, residue_tuple([0]))

    @pytest.mark.parametrize(
        "sig, values, zeros",
        [
            (StratumSignature(0, (2, 0), (), 4), (1, I, -1, -I), (2, 0)),
            (StratumSignature(0, (2, 0), (), 4), (3, -1, -1, -1), (2, 0)),
            (StratumSignature(1, (2, 0), (2,)), (0,), (2, 0)),
            (StratumSignature(0, (2, 0, 0), (), 4), (3, -1, -1, -1), (2, 0, 0)),
            (StratumSignature(2, (2, 0)), (), (2, 0)),
        ],
        ids=[
            "residual-polygon",
            "connection-graph",
            "genus-one-chain",
            "two-marked-points",
            "torus-after-a-handle",
        ],
    )
    def test_marked_points_beside_a_positive_zero(self, sig, values, zeros):
        r = residue_tuple(values)
        cert = build_witness(sig, r)
        prof = verify_certificate(cert)
        assert prof.zero_orders == zeros
        assert profile_matches(prof, sig, r)
