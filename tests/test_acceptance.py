"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS line with the measured numbers (pytest -v also reports
one line per criterion).  Everything here is exact.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

from resflat.core import QQi, StratumSignature, residue_tuple, validate_residues
from resflat.decide import (
    decide_realizable,
    enumerate_excluded_rays,
    search_cylinder_tuple,
)
from resflat.graphs import find_connection_graph
from resflat.surfaces import blow_up_zero, build_witness
from resflat.verify import BlowUpZero, profile_matches, verify_certificate, verify_surface

SEED = 20260808


def _canonical_up_to_sign_and_perm(ints):
    a = tuple(sorted(ints))
    b = tuple(sorted(-m for m in ints))
    return min(a, b)


def test_table_reproduction():
    """Excluded rays for single-zero strata with s = 2..6 simple poles."""
    expected = {
        2: set(),
        3: set(),
        4: {(1, 1, -1, -1)},
        5: {(2, 1, -1, -1, -1)},
        6: {
            (1, 1, 1, -1, -1, -1),
            (2, 1, 1, -2, -1, -1),
            (2, 2, -1, -1, -1, -1),
            (3, 1, -1, -1, -1, -1),
        },
    }
    start = time.perf_counter()
    counts = []
    for s in range(2, 7):
        rays = enumerate_excluded_rays(s, s - 2)
        counts.append(len(rays))
        got = {_canonical_up_to_sign_and_perm(r.integers) for r in rays}
        want = {_canonical_up_to_sign_and_perm(t) for t in expected[s]}
        assert got == want, f"s={s}: {got} != {want}"
    elapsed = time.perf_counter() - start
    assert counts == [0, 0, 1, 1, 4]
    assert elapsed < 1.0, f"enumeration took {elapsed:.3f}s"
    print(
        f"\n[ACCEPTANCE] table reproduction: PASS "
        f"(counts {counts}, {elapsed * 1000:.1f} ms)"
    )


def test_oracle_equivalence():
    """Closed form against brute-force graph search: s <= 7 with entries
    <= 5, and s = 8..10 with entries <= 4."""
    cases = Counter()
    disagreements = 0
    for sizes, bound in ((range(2, 8), 5), (range(8, 11), 4)):
        values = [v for v in range(-bound, bound + 1) if v]
        for s in sizes:
            for combo in itertools.combinations_with_replacement(values, s):
                if sum(combo) != 0:
                    continue
                g = 0
                for m in combo:
                    g = gcd(g, abs(m))
                if g != 1 or not any(m > 0 for m in combo) or not any(m < 0 for m in combo):
                    continue
                cases[s] += 1
                sig = StratumSignature(0, (s - 2,), (), s)
                closed = decide_realizable(sig, residue_tuple(combo)).realizable
                brute = find_connection_graph(combo) is not None
                if closed != brute:
                    disagreements += 1
    assert sum(cases[s] for s in range(2, 8)) == 704
    assert (cases[8], cases[9], cases[10]) == (227, 374, 591)
    assert disagreements == 0
    print(
        f"\n[ACCEPTANCE] oracle equivalence: PASS "
        f"({sum(cases.values())} primitive tuples, agreement 100%)"
    )


# ---------------------------------------------------------------------------
# Randomized witness round trips


def _nonzero_qqi(rng):
    while True:
        z = QQi(
            Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
            Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
        )
        if not z.is_zero():
            return z


def _gen_noncollinear_simple(rng):
    n = rng.randint(1, 3)
    zeros = tuple(rng.randint(1, 3) for _ in range(n))
    s = sum(zeros) + 2
    sig = StratumSignature(0, zeros, (), s)
    while True:
        rs = [_nonzero_qqi(rng) for _ in range(s - 1)]
        last = QQi(0)
        for z in rs:
            last = last - z
        if last.is_zero():
            continue
        rs.append(last)
        r = tuple(rs)
        if validate_residues(sig, r):
            continue
        v = decide_realizable(sig, r)
        if v.realizable and v.reason == "non-collinear":
            return sig, r


_DIRECTIONS = (QQi(1), QQi(0, 1), QQi(1, 1), QQi(2, -1), QQi(Fraction(1, 2), 1))


def _gen_collinear_mixed(rng):
    while True:
        p = rng.randint(1, 3)
        bs = tuple(rng.randint(2, 4) for _ in range(p))
        s = rng.randint(0, 2)
        alpha = rng.choice(_DIRECTIONS)
        ts = [rng.randint(-3, 3) for _ in range(p)] + [
            rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(s)
        ]
        balance = -sum(ts[:-1])
        ts[-1] = balance
        if s >= 1 and ts[-1] == 0:
            continue
        if all(t == 0 for t in ts):
            continue
        r = tuple(QQi(0) if t == 0 else alpha * t for t in ts)
        a = sum(bs) + s - 2
        if a < 1:
            continue
        if rng.random() < 0.5 or a < 2:
            zeros = (a,)
        else:
            cut = rng.randint(1, a - 1)
            zeros = (cut, a - cut)
        sig = StratumSignature(0, zeros, bs, s)
        if validate_residues(sig, r):
            continue
        if decide_realizable(sig, r).realizable:
            return sig, r


def _gen_zero_vector(rng):
    while True:
        p = rng.randint(1, 4)
        bs = tuple(rng.randint(2, 4) for _ in range(p))
        bound = sum(bs) - (p + 1)
        total = sum(bs) - 2
        if bound < 1:
            continue
        n = rng.randint(1, 3)
        if n * bound < total or total < n:
            continue
        parts = []
        rest = total
        ok = True
        for k in range(n - 1):
            lo = max(1, rest - (n - k - 1) * bound)
            hi = min(bound, rest - (n - k - 1))
            if lo > hi:
                ok = False
                break
            part = rng.randint(lo, hi)
            parts.append(part)
            rest -= part
        if not ok or not (1 <= rest <= bound):
            continue
        parts.append(rest)
        sig = StratumSignature(0, tuple(parts), bs)
        return sig, tuple(QQi(0) for _ in range(p))


def _gen_simple_collinear(rng, want_stable):
    values = (-3, -2, -1, 1, 2, 3)
    while True:
        s = rng.randint(4, 7)
        combo = [rng.choice(values) for _ in range(s - 1)]
        combo.append(-sum(combo))
        if combo[-1] == 0 or abs(combo[-1]) > 4:
            continue
        g = 0
        for m in combo:
            g = gcd(g, abs(m))
        ints = [m // g for m in combo]
        total = sum(m for m in ints if m > 0)
        if want_stable:
            # Several zeros, all smaller than the positive sum, which itself
            # stays within the single-zero bound.
            if not (2 <= total <= s - 2):
                continue
            n = rng.randint(2, 3)
            a_total = s - 2
            if n > a_total:
                continue
            parts = []
            rest = a_total
            ok = True
            for k in range(n - 1):
                hi = min(total - 1, rest - (n - k - 1))
                if hi < 1:
                    ok = False
                    break
                part = rng.randint(1, hi)
                parts.append(part)
                rest -= part
            if not ok or not (1 <= rest <= total - 1):
                continue
            parts.append(rest)
            zeros = tuple(parts)
        else:
            if total <= s - 2:
                continue
            n = rng.randint(1, 2)
            if n == 1:
                zeros = (s - 2,)
            else:
                cut = rng.randint(1, s - 3)
                zeros = (cut, s - 2 - cut)
        sig = StratumSignature(0, zeros, (), s)
        r = residue_tuple(ints)
        if validate_residues(sig, r):
            continue
        if decide_realizable(sig, r).realizable:
            return sig, r


def _gen_genus_one(rng):
    kind = rng.randint(0, 3)
    if kind == 0:
        # Simple poles only.
        s = rng.randint(2, 5)
        while True:
            rs = [_nonzero_qqi(rng) for _ in range(s - 1)]
            last = QQi(0)
            for z in rs:
                last = last - z
            if last.is_zero():
                continue
            rs.append(last)
            zeros = (s,) if rng.random() < 0.6 or s < 2 else (1, s - 1)
            sig = StratumSignature(1, zeros, (), s)
            r = tuple(rs)
            if not validate_residues(sig, r):
                return sig, r
    if kind == 1:
        # Zero residues, higher poles.
        p = rng.randint(1, 3)
        bs = tuple(rng.randint(2, 4) for _ in range(p))
        a = sum(bs)
        zeros = (a,) if rng.random() < 0.6 else (rng.randint(1, a - 1),)
        if len(zeros) == 1 and zeros[0] != a:
            zeros = (zeros[0], a - zeros[0])
        return StratumSignature(1, zeros, bs), tuple(QQi(0) for _ in bs)
    if kind == 2:
        # Mixed poles with nonzero residues, realized by a plumbed handle.
        sig, r = _gen_collinear_mixed(rng)
        zeros = tuple(list(sig.zeros[:-1]) + [sig.zeros[-1] + 2])
        return StratumSignature(1, zeros, sig.higher_poles, sig.s), r
    # Genus two for good measure.
    sig, r = _gen_collinear_mixed(rng)
    zeros = tuple(list(sig.zeros[:-1]) + [sig.zeros[-1] + 4])
    return StratumSignature(2, zeros, sig.higher_poles, sig.s), r


def test_witness_round_trip():
    """At least 200 randomized realizable pairs rebuild and verify exactly."""
    rng = random.Random(SEED)
    plan = [
        ("non-collinear", _gen_noncollinear_simple, 60),
        ("collinear mixed", _gen_collinear_mixed, 50),
        ("zero vector", _gen_zero_vector, 30),
        ("simple collinear", lambda r: _gen_simple_collinear(r, False), 30),
        ("stable tree", lambda r: _gen_simple_collinear(r, True), 12),
        ("genus >= 1", _gen_genus_one, 40),
    ]
    total = 0
    tally = []
    for label, gen, count in plan:
        for _ in range(count):
            sig, r = gen(rng)
            cert = build_witness(sig, r)
            assert cert is not None, (label, str(sig), tuple(map(str, r)))
            profile = verify_certificate(cert)
            assert profile_matches(profile, sig, r), (label, str(sig))
            total += 1
        tally.append(f"{label}: {count}")
    assert total >= 200
    print(f"\n[ACCEPTANCE] witness round trip: PASS ({total} pairs; {'; '.join(tally)})")


def _partitions_min_two(total):
    def rec(t, mx):
        if t == 0:
            yield ()
            return
        for part in range(min(t, mx), 1, -1):
            for rest in rec(t - part, part):
                yield (part,) + rest

    yield from rec(total, total)


def test_zero_vector_boundary():
    """Two-zero strata accept the zero tuple exactly on the stated bound."""
    accepted = rejected = 0
    for total_b in range(4, 11):
        for bs in _partitions_min_two(total_b):
            p = len(bs)
            bound = total_b - (p + 1)
            for a1 in range(1, total_b - 2):
                a2 = total_b - 2 - a1
                if a2 < a1:
                    break
                sig = StratumSignature(0, (a1, a2), bs)
                r = tuple(QQi(0) for _ in range(p))
                cert = build_witness(sig, r)
                expected = max(a1, a2) <= bound
                assert (cert is not None) == expected, (sig, expected)
                if cert is None:
                    rejected += 1
                else:
                    accepted += 1
                    assert profile_matches(verify_certificate(cert), sig, r)
    assert accepted and rejected
    print(
        f"\n[ACCEPTANCE] zero-vector boundary: PASS "
        f"({accepted} built and verified, {rejected} correctly refused)"
    )


def test_surgery_laws():
    """Blow-ups verify over a grid of 50 base certificates, and every genus
    >= 1 base has only blow-ups on a surface of the requested genus."""
    rng = random.Random(SEED + 1)
    bases = []
    generators = [
        _gen_noncollinear_simple,
        _gen_collinear_mixed,
        _gen_zero_vector,
        lambda r: _gen_simple_collinear(r, False),
        _gen_genus_one,
    ]
    while len(bases) < 50:
        gen = generators[len(bases) % len(generators)]
        sig, r = gen(rng)
        cert = build_witness(sig, r)
        if cert is not None:
            bases.append((sig, r, cert))
    checked_blow = checked_genus = 0
    for sig, r, cert in bases:
        poles_before = sorted(
            (o, str(z)) for o, z in cert.claimed.poles
        )
        if sig.genus >= 1:
            assert all(isinstance(step, BlowUpZero) for step in cert.surgeries)
            assert verify_surface(cert.surface).genus == sig.genus
            checked_genus += 1

        big = cert.claimed.zero_orders[0]
        if big >= 2:
            blown = blow_up_zero(cert, 0, (1, big - 1))
            prof2 = verify_certificate(blown)
            assert prof2.genus == cert.claimed.genus
            assert sorted((o, str(z)) for o, z in prof2.poles) == poles_before
            assert sorted(prof2.zero_orders, reverse=True) == sorted(
                list(cert.claimed.zero_orders[1:]) + [1, big - 1], reverse=True
            )
            checked_blow += 1
    assert checked_genus == 10 and checked_blow >= 40
    print(
        f"\n[ACCEPTANCE] surgery laws: PASS "
        f"({checked_blow} blow-ups over 50 bases, {checked_genus} of genus >= 1 "
        f"with blow-ups only)"
    )


def test_genus1_rotation_families():
    """The four rotation-number certificates verify: each claim is the
    rotation number read off its surface."""
    cases = [
        (StratumSignature(1, (6,), (3, 3)), 1),
        (StratumSignature(1, (6,), (3, 3)), 3),
        (StratumSignature(1, (4,), (2, 2)), 1),
        (StratumSignature(1, (6,), (2, 2, 2)), 2),
    ]
    seen = []
    for sig, rot in cases:
        r = tuple(QQi(0) for _ in sig.higher_poles)
        cert = build_witness(sig, r, rotation=rot)
        assert cert is not None and cert.claimed_rotation == rot
        profile = verify_certificate(cert)
        assert profile_matches(profile, sig, r)
        seen.append(f"{sig}@{rot}")
    print(f"\n[ACCEPTANCE] genus-1 rotation families: PASS ({'; '.join(seen)})")


def test_cylinders():
    """Minimal-stratum exclusion, below-genus freedom and the searched case."""
    not_ok = search_cylinder_tuple(
        StratumSignature(4, (6,), ()), residue_tuple([1, 1, 1, 1])
    )
    assert not not_ok.realizable

    below = search_cylinder_tuple(
        StratumSignature(4, (6,), ()), residue_tuple([1, QQi(1, 1), 2])
    )
    assert below.realizable

    sig = StratumSignature(4, (4, 1, 1), ())
    lam = residue_tuple([1, 1, 1, 1])
    found = search_cylinder_tuple(sig, lam)
    assert found.realizable and found.reason == "search-realizable"
    print(
        "\n[ACCEPTANCE] cylinders: PASS "
        "((1,1,1,1) excluded at the minimal stratum, any 3-tuple below genus, "
        "(1,1,1,1) found by search on the three-zero stratum)"
    )
