"""The kernel's matching of edge slots against a reference copy.

``reference_matching`` is the pairing loop that ``verify._read_surface``
ran before it read each pairing once: a fast path glued two free slots with
opposite vectors, and every other pairing was read a second time, end by
end, to word its rejection.  On drawn pairing lists over a fixed set of
pieces, the kernel must report the same violations in the same order, or,
where the reference matches every slot, build the same glued and partner
tables, or report a disconnected surface exactly where ``_connected`` finds
one.  Slot indices that are not ints are left out of the drawing: the
reference raised TypeError on them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from resflat.core import QQi
from resflat.verify import (
    FlatSurface,
    PolarPart,
    Polygon,
    SimplePolePart,
    VerificationError,
    _read_piece,
    _read_surface,
)

RIGHT, UP, LEFT, DOWN = (1, 0), (0, 1), (-1, 0), (0, -1)


def _connected(k, pairs):
    """Whether the pairs join vertices 0..k-1 into one component: the
    kernel's connectivity test as a second pass over the pairings, the
    reference for the count of parts its matching keeps."""
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins = 0
    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[ra] = rb
        joins += ra != rb
    return joins == k - 1


# A 2 x 2 square with every side cut in two, a simple pole on each side of
# the real line and a double pole: every matching of opposite vectors is a
# closed surface, which is connected or not.
PIECES = (
    Polygon((RIGHT, RIGHT, UP, UP, LEFT, LEFT, DOWN, DOWN)),
    SimplePolePart((RIGHT,)),
    SimplePolePart((LEFT,)),
    PolarPart(2, 1, (RIGHT,), (RIGHT,)),
)
READ = [_read_piece(piece) for piece in PIECES]
SLOTS = [(i, k) for i, (canon, _, _, _) in enumerate(READ) for k in range(len(canon))]
VECTOR = {slot: READ[slot[0]][0][slot[1]] for slot in SLOTS}
# Slots out of range, of the wrong length, or holding strings.
BAD_SLOTS = [(4, 0), (0, 8), (1, 1), (-1, 0), (0, -1), (0,), (0, 0, 0), (), ("a", 0), (0, "b")]


def reference_matching(surface: FlatSurface) -> tuple:
    """The violations of the matching stage, or the (glued, partner) tables."""
    d, n = surface.d, surface.n
    flat, offsets, sizes = [], [], []
    for canon, _, _, _ in (_read_piece(piece) for piece in surface.pieces):
        offsets.append(len(flat))
        sizes.append(len(canon))
        flat.extend(canon)
    violations = []
    partner = [-1] * len(flat)
    glued = []
    count = len(sizes)
    for num, (a, b) in enumerate(surface.pairings):
        try:
            (i, k), (j, m) = a, b
            if 0 <= i < count and 0 <= k < sizes[i] and 0 <= j < count and 0 <= m < sizes[j]:
                fa, fb = offsets[i] + k, offsets[j] + m
                (ux, uy), (vx, vy) = flat[fa], flat[fb]
                if ux == -vx and uy == -vy and partner[fa] < 0 and partner[fb] < 0:
                    partner[fa], partner[fb] = fb, fa
                    glued.append((fa, fb))
                    continue
        except (TypeError, ValueError):
            pass
        blocked, ends = [], []
        for end in (a, b):
            try:
                i, k = end
                inside = 0 <= i < count and 0 <= k < sizes[i]
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
            return tuple(violations + blocked)
        fa, fb = ends
        u, v = [QQi._of(x * n, y * n, d) for x, y in (flat[fa], flat[fb])]
        violations.append(f"pairing {num}: vector mismatch, {u} against {v}")
        partner[fa] = fb
        partner[fb] = fa
        glued.append((fa, fb))
    if -1 in partner:
        slots = [(i, k) for i, size in enumerate(sizes) for k in range(size)]
        unmatched = [slots[f] for f, g in enumerate(partner) if g < 0]
        violations.append(f"unmatched boundary edges: {unmatched}")
    if violations:
        return tuple(violations)
    return glued, partner


@st.composite
def pairing_lists(draw):
    """A matching of opposite vectors in drawn order and orientation, then
    up to four edits: a pairing dropped, repeated or inserted, an end moved
    to any slot or to a bad one, or a slot glued to itself."""
    pairs = []
    for one, other in ((RIGHT, LEFT), (UP, DOWN)):
        ones = [s for s in SLOTS if VECTOR[s] == one]
        others = draw(st.permutations([s for s in SLOTS if VECTOR[s] == other]))
        pairs += [(a, b) if draw(st.booleans()) else (b, a) for a, b in zip(ones, others)]
    pairs = draw(st.permutations(pairs))
    any_slot = st.sampled_from(SLOTS + BAD_SLOTS)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["drop", "repeat", "insert", "move", "self"]))
        at = draw(st.integers(0, len(pairs)))
        if edit == "insert":
            pairs.insert(at, (draw(any_slot), draw(any_slot)))
        elif at < len(pairs):
            a, b = pairs[at]
            if edit == "drop":
                del pairs[at]
            elif edit == "repeat":
                pairs.insert(draw(st.integers(0, len(pairs))), (a, b))
            elif edit == "move":
                pairs[at] = (a, draw(any_slot)) if draw(st.booleans()) else (draw(any_slot), b)
            else:
                pairs[at] = (a, a)
    return pairs


@settings(max_examples=400, deadline=None)
@given(pairing_lists(), st.integers(1, 6), st.integers(1, 6))
def test_the_matching_agrees_with_its_reference(pairings, d, n):
    surface = FlatSurface(PIECES, pairings, d, n)
    expected = reference_matching(surface)
    try:
        _, (_, _, glued, _, _, _) = _read_surface(surface)
    except VerificationError as exc:
        got = exc.violations
    else:
        partner = [-1] * len(SLOTS)
        for fa, fb in glued:
            partner[fa], partner[fb] = fb, fa
        got = glued, partner
    if isinstance(expected[0], str):
        assert got == expected
    elif _connected(len(PIECES), [(a[0], b[0]) for a, b in pairings]):
        assert got == expected
    else:
        assert got == ("surface is disconnected",)
