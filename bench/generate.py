"""Seeded request lists for the benchmark workloads.

Every list is a pure function of the seed: the generators draw from
``random.Random(seed)`` and build inputs only from ``QQi``,
``StratumSignature`` and ``residue_tuple``.  They never ask the program under
test for an answer.  Each request carries the verdict that follows from how
it was built (for example, a primitive ray whose positive part sums to at
most the largest zero order is excluded), except on ``cylinder-search``,
whose verdicts come from ``cylinder_verdicts.json``.

Lists are made of rounds.  A round holds a fixed number of requests of each
class (its template), in seeded order, so every seed gives the same mix and
any run that covers a few rounds sees nearly the same mix too.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

from resflat import QQi, StratumSignature, residue_tuple

CYLINDER_VERDICTS = Path(__file__).with_name("cylinder_verdicts.json")


@dataclass(frozen=True)
class Request:
    """One request: what to ask, and the answer the generator expects.

    ``kind`` says how the request is run (see ``execute.py``); ``group`` is
    its stratification class.  ``values`` are residues or circumferences;
    ``ints`` is the signed integer tuple an oracle request was built from.
    """

    kind: str
    group: str
    sig: StratumSignature | None = None
    values: tuple[QQi, ...] = ()
    realizable: bool | None = None
    ints: tuple[int, ...] = ()
    rotation: int | None = None
    s_max: int | None = None


def fingerprint(requests: list[Request]) -> str:
    """A digest of the request list, independent of the program's reprs."""
    digest = hashlib.sha256()
    for req in requests:
        sig = req.sig
        row = [
            req.kind,
            req.group,
            None if sig is None else [sig.genus, sig.zeros, sig.higher_poles, sig.simple_poles],
            [[str(v.re), str(v.im)] for v in req.values],
            req.realizable,
            req.ints,
            req.rotation,
            req.s_max,
        ]
        digest.update(json.dumps(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Small helpers, all exact and all local to the benchmark.


def _gauss(rng: random.Random) -> QQi:
    """A nonzero Gaussian rational with small parts."""
    while True:
        z = QQi(
            Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
            Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
        )
        if z.re or z.im:
            return z


def _is_zero(z: QQi) -> bool:
    return z.re == 0 and z.im == 0


def _collinear(values) -> bool:
    """True when all nonzero values lie on one real line through 0."""
    nonzero = [v for v in values if not _is_zero(v)]
    base = nonzero[0]
    return all(v.re * base.im - v.im * base.re == 0 for v in nonzero)


def _balanced(rng: random.Random, count: int) -> list[QQi]:
    """``count`` nonzero Gaussian rationals summing to zero."""
    while True:
        vals = [_gauss(rng) for _ in range(count - 1)]
        last = QQi(0)
        for v in vals:
            last = last - v
        if not _is_zero(last):
            return vals + [last]


def _noncollinear(rng: random.Random, count: int) -> list[QQi]:
    while True:
        vals = _balanced(rng, count)
        if not _collinear(vals):
            return vals


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A uniformly drawn composition of ``total`` into ``parts`` positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _split(rng: random.Random, total: int, parts: int, largest: int) -> tuple[int, ...] | None:
    """``parts`` positive integers summing to ``total``, each at most ``largest``."""
    if parts * largest < total or parts > total:
        return None
    while True:
        comp = _composition(rng, total, parts)
        if max(comp) <= largest:
            return tuple(comp)


def _ray(rng: random.Random, s: int, positives: int, lo: int, hi: int) -> tuple[int, ...]:
    """A shuffled primitive integer ray of length s with positive sum in [lo, hi].

    ``positives`` of the entries are positive, the rest negative.
    """
    while True:
        total = rng.randint(max(lo, positives, s - positives), hi)
        ints = _composition(rng, total, positives) + [
            -x for x in _composition(rng, total, s - positives)
        ]
        g = 0
        for m in ints:
            g = gcd(g, abs(m))
        if g == 1:
            rng.shuffle(ints)
            return tuple(ints)


def _scaled(values, exponent: int) -> tuple[QQi, ...]:
    factor = Fraction(10) ** exponent
    return residue_tuple(QQi(v.re * factor, v.im * factor) for v in values)


def _times(direction: QQi, ints) -> list[QQi]:
    return [QQi(direction.re * m, direction.im * m) for m in ints]


# ---------------------------------------------------------------------------
# witness-mix: one generator per construction family.
# Each returns (signature, residues, realizable, rotation).


def _zeros_split(rng: random.Random, total: int) -> tuple[int, ...]:
    if total >= 2 and rng.random() < 0.5:
        cut = rng.randint(1, total - 1)
        return (cut, total - cut)
    return (total,)


def _g0_noncollinear_simple(rng):
    zeros = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    s = sum(zeros) + 2
    return StratumSignature(0, zeros, (), s), _noncollinear(rng, s), True, None


def _higher_poles(rng, s):
    while True:
        bs = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
        if sum(bs) + s - 2 >= 1:
            return bs


def _g0_noncollinear_mixed(rng):
    while True:
        s = rng.randint(0, 2)
        bs = _higher_poles(rng, s)
        if len(bs) + s >= 3:
            break
    zeros = _zeros_split(rng, sum(bs) + s - 2)
    return StratumSignature(0, zeros, bs, s), _noncollinear(rng, len(bs) + s), True, None


def _collinear_mixed(rng, extra_genus: int = 0):
    """Higher poles plus collinear residues, not all zero; realizable."""
    while True:
        s = rng.randint(0, 2)
        bs = _higher_poles(rng, s)
        if len(bs) + s >= 2:
            break
    while True:
        ts = [rng.randint(-3, 3) for _ in bs] + [
            rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(s)
        ]
        ts[-1] = -sum(ts[:-1])
        if any(ts) and not (s and ts[-1] == 0):
            break
    zeros = _zeros_split(rng, sum(bs) + s - 2 + 2 * extra_genus)
    sig = StratumSignature(extra_genus, zeros, bs, s)
    return sig, _times(_gauss(rng), ts), True, None


def _g0_collinear_mixed(rng):
    return _collinear_mixed(rng)


def _zero_residue(rng, excluded: bool):
    """Higher poles only, all residues zero.

    Realizable exactly when every zero order is at most
    (sum of pole orders) - (number of poles + 1).
    """
    while True:
        p = rng.randint(2 if excluded else 1, 4)
        bs = tuple(rng.randint(2, 4) for _ in range(p))
        bound = sum(bs) - (p + 1)
        total = sum(bs) - 2
        if excluded:
            big = rng.randint(bound + 1, total)
            zeros = (big,) if big == total else (big, total - big)
        else:
            if bound < 1:
                continue
            zeros = _split(rng, total, rng.randint(1, 3), bound)
            if zeros is None:
                continue
        sig = StratumSignature(0, zeros, bs)
        return sig, [QQi(0)] * p, not excluded, None


def _g0_zero_residue(rng):
    return _zero_residue(rng, excluded=False)


def _g0_zero_residue_excluded(rng):
    return _zero_residue(rng, excluded=True)


def _g0_simple_collinear(rng):
    s = rng.randint(3, 6)
    ints = _ray(rng, s, rng.randint(1, s - 1), s - 1, s + 2)
    sig = StratumSignature(0, (s - 2,), (), s)
    return sig, _times(_gauss(rng), ints), True, None


def _g0_blowup(rng):
    s = rng.randint(4, 6)
    ints = _ray(rng, s, rng.randint(1, s - 1), s - 1, s + 2)
    cut = rng.randint(1, s - 3)
    sig = StratumSignature(0, (cut, s - 2 - cut), (), s)
    return sig, _times(_gauss(rng), ints), True, None


def _g0_stable_tree(rng):
    """Several zeros, each smaller than the ray's positive sum: realizable."""
    while True:
        s = rng.randint(4, 6)
        ints = _ray(rng, s, rng.randint(2, s - 2), 2, s - 2)
        total = sum(m for m in ints if m > 0)
        zeros = _split(rng, s - 2, rng.randint(2, 3), total - 1)
        if zeros is not None:
            sig = StratumSignature(0, zeros, (), s)
            return sig, _times(_gauss(rng), ints), True, None


def _g0_excluded_ray(rng):
    """A ray whose positive sum is at most the largest zero: excluded."""
    while True:
        s = rng.randint(4, 6)
        ints = _ray(rng, s, rng.randint(2, s - 2), 2, s - 2)
        total = sum(m for m in ints if m > 0)
        if rng.random() < 0.5 or total > s - 3:
            zeros = (s - 2,)
        else:
            big = rng.randint(total, s - 3)
            zeros = (big, s - 2 - big)
        sig = StratumSignature(0, zeros, (), s)
        return sig, _times(_gauss(rng), ints), False, None


def _holomorphic(rng):
    genus, zeros = rng.choice(((1, (0,)), (2, (2,)), (2, (1, 1))))
    return StratumSignature(genus, zeros), [], True, None


def _g1_simple_poles(rng):
    s = rng.randint(2, 5)
    zeros = (s,) if rng.random() < 0.6 else (1, s - 1)
    return StratumSignature(1, zeros, (), s), _balanced(rng, s), True, None


def _g1_zero_residue(rng):
    bs = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
    zeros = _zeros_split(rng, sum(bs))
    return StratumSignature(1, zeros, bs), [QQi(0)] * len(bs), True, None


_ROTATION_CASES = (
    ((6,), (3, 3), 1),
    ((6,), (3, 3), 3),
    ((4,), (2, 2), 1),
    ((6,), (2, 2, 2), 2),
)


def _g1_rotation(rng):
    zeros, bs, rot = rng.choice(_ROTATION_CASES)
    return StratumSignature(1, zeros, bs), [QQi(0)] * len(bs), True, rot


def _g1_mixed(rng):
    return _collinear_mixed(rng, extra_genus=1)


def _g2_mixed(rng):
    if rng.random() < 0.5:
        return _collinear_mixed(rng, extra_genus=2)
    s = rng.randint(2, 4)
    return StratumSignature(2, (s + 2,), (), s), _balanced(rng, s), True, None


_WITNESS_FAMILIES = {
    "g0-noncollinear-simple": _g0_noncollinear_simple,
    "g0-noncollinear-mixed": _g0_noncollinear_mixed,
    "g0-collinear-mixed": _g0_collinear_mixed,
    "g0-zero-residue": _g0_zero_residue,
    "g0-zero-residue-excluded": _g0_zero_residue_excluded,
    "g0-simple-collinear": _g0_simple_collinear,
    "g0-blowup": _g0_blowup,
    "g0-stable-tree": _g0_stable_tree,
    "g0-excluded-ray": _g0_excluded_ray,
    "holomorphic": _holomorphic,
    "g1-simple-poles": _g1_simple_poles,
    "g1-zero-residue": _g1_zero_residue,
    "g1-rotation": _g1_rotation,
    "g1-mixed": _g1_mixed,
    "g2-mixed": _g2_mixed,
}

#: One round of witness-mix: (family, decimal exponent of the residue scale).
#: Two of the 21 requests are excluded; the exponents run from 10^-320 to
#: 10^320, past the range of a float in both directions.
WITNESS_TEMPLATE = (
    ("g0-noncollinear-simple", 0),
    ("g0-noncollinear-simple", 30),
    ("g0-noncollinear-simple", 320),
    ("g0-noncollinear-mixed", 0),
    ("g0-noncollinear-mixed", -30),
    ("g0-collinear-mixed", 0),
    ("g0-collinear-mixed", -320),
    ("g0-zero-residue", 0),
    ("g0-zero-residue", 0),
    ("g0-simple-collinear", 0),
    ("g0-simple-collinear", 320),
    ("g0-blowup", 0),
    ("g0-stable-tree", 0),
    ("g0-excluded-ray", -320),
    ("g0-zero-residue-excluded", 0),
    ("holomorphic", 0),
    ("g1-simple-poles", 0),
    ("g1-zero-residue", 0),
    ("g1-rotation", 0),
    ("g1-mixed", 30),
    ("g2-mixed", 0),
)


def _witness_round(rng: random.Random) -> list[Request]:
    out = []
    for family, exponent in WITNESS_TEMPLATE:
        sig, residues, realizable, rotation = _WITNESS_FAMILIES[family](rng)
        group = family if exponent == 0 else f"{family}@1e{exponent}"
        out.append(
            Request("witness", group, sig, _scaled(residues, exponent), realizable, (), rotation)
        )
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# collinear-oracle: genus 0, one zero of order s-2, s simple poles.

#: (s, excluded, positive entries).  The numbers of positive and negative
#: entries fix which spanning trees the oracle walks, so they are part of the
#: class.  The three exhaustive s=8 searches are the slowest sixth of a round,
#: which puts the 90th percentile inside one class rather than on the edge
#: between two.
ORACLE_TEMPLATE = (
    (4, True, 2), (4, False, 1), (4, False, 3),
    (5, True, 2), (5, False, 1), (5, False, 3),
    (6, True, 2), (6, True, 3), (6, False, 2), (6, False, 4),
    (7, True, 2), (7, True, 4), (7, False, 3),
    (8, True, 3), (8, True, 4), (8, True, 5), (8, False, 2),
)


def _oracle_round(rng: random.Random) -> list[Request]:
    out = []
    for s, excluded, positives in ORACLE_TEMPLATE:
        if excluded:
            ints = _ray(rng, s, positives, 2, s - 2)
        else:
            ints = _ray(rng, s, positives, s - 1, s + 3)
        sig = StratumSignature(0, (s - 2,), (), s)
        verdict = "excluded" if excluded else "realizable"
        group = f"s{s}-{verdict}-{positives}+{s - positives}-"
        residues = residue_tuple(_times(_gauss(rng), ints))
        out.append(Request("oracle", group, sig, residues, not excluded, ints))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# cylinder-search: holomorphic strata with 2-3 zeros, t <= 5 cylinders.

#: (genus, zeros, t, recorded verdict) classes of one round, with counts.
#: The last class exhausts a search of about 0.4 s at the seed commit; its
#: three requests are the slowest seventh of a round, so the 90th percentile
#: falls inside it.  H_3(3,1) with four cylinders exhausts its search in about
#: 4 ms with little spread; its four requests sit in the middle of the round,
#: so the median falls inside them.  The other classes are found or exhausted
#: within tens of ms.  Left out: classes whose cost swings by 10-100x with the
#: order of the circumferences (found on H_3(2,1,1), H_4(3,2,1), H_4(2,2,2)),
#: which would move the median from seed to seed, and classes that take a
#: second or more, one draw of which moves a run's throughput past the bound.
CYLINDER_TEMPLATE = (
    ((2, (1, 1), 2, True), 1),
    ((2, (1, 1), 3, True), 1),
    ((3, (3, 1), 4, True), 1),
    ((3, (2, 2), 4, True), 1),
    ((4, (5, 1), 5, True), 1),
    ((4, (4, 2), 5, True), 1),
    ((4, (3, 3), 5, True), 1),
    ((5, (6, 2), 5, True), 1),
    ((3, (3, 1), 4, False), 4),
    ((2, (1, 1), 3, False), 1),
    ((3, (2, 2), 4, False), 1),
    ((4, (5, 1), 5, False), 1),
    ((4, (4, 2), 5, False), 1),
    ((4, (3, 3), 5, False), 1),
    ((5, (7, 1), 5, False), 1),
    ((3, (2, 1, 1), 5, False), 3),
)


def load_cylinder_cases() -> dict[tuple, list[tuple[int, ...]]]:
    """Recorded cases grouped by (genus, zeros, t, verdict).

    Each case is a tuple of circumferences given as (re, im) integer pairs.
    """
    doc = json.loads(CYLINDER_VERDICTS.read_text())
    groups: dict[tuple, list] = {}
    for case in doc["cases"]:
        circ = tuple(tuple(c) for c in case["circumferences"])
        key = (case["genus"], tuple(case["zeros"]), len(circ), case["realizable"])
        groups.setdefault(key, []).append(circ)
    return groups


def _cylinder_round(rng: random.Random, cases: dict) -> list[Request]:
    out = []
    for key in (key for key, count in CYLINDER_TEMPLATE for _ in range(count)):
        genus, zeros, _, realizable = key
        circ = list(rng.choice(cases[key]))
        rng.shuffle(circ)
        scale = _gauss(rng)
        values = []
        for re, im in circ:
            sign = rng.choice((1, -1))
            values.append(QQi(re * sign, im * sign) * scale)
        group = f"H{genus}{list(zeros)}-t{len(circ)}-{'found' if realizable else 'none'}"
        out.append(
            Request("cylinders", group, StratumSignature(genus, zeros), tuple(values), realizable)
        )
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# cli-roundtrip: witness-mix requests through decide, witness and verify,
# plus table.

TABLE_S_MAX = (4, 5, 6)


def _cli_round(rng: random.Random) -> list[Request]:
    out = []
    for req in _witness_round(rng):
        out.append(Request("cli-decide", req.group, req.sig, req.values, req.realizable, (), req.rotation))
        out.append(Request("cli-witness", req.group, req.sig, req.values, req.realizable, (), req.rotation))
        if req.realizable:
            # Verifies the certificate the witness step just wrote.
            out.append(Request("cli-verify", req.group, req.sig, req.values, True, (), req.rotation))
    s_max = rng.choice(TABLE_S_MAX)
    out.append(Request("cli-table", f"table-s{s_max}", s_max=s_max))
    return out


# ---------------------------------------------------------------------------

#: Rounds in each workload's list.  A timed run cycles through its list.
ROUNDS = {
    "witness-mix": 64,
    "collinear-oracle": 32,
    "cylinder-search": 24,
    "cli-roundtrip": 4,
}

WORKLOADS = tuple(ROUNDS)


def generate(workload: str, seed: int) -> list[Request]:
    """The request list of a workload: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "witness-mix":
        make = _witness_round
    elif workload == "collinear-oracle":
        make = _oracle_round
    elif workload == "cylinder-search":
        cases = load_cylinder_cases()
        make = lambda r: _cylinder_round(r, cases)  # noqa: E731
    elif workload == "cli-roundtrip":
        make = _cli_round
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out: list[Request] = []
    for _ in range(ROUNDS[workload]):
        out.extend(make(rng))
    return out


def warmup_requests(requests: list[Request]) -> list[Request]:
    """The first request of each (kind, group) class, in list order."""
    seen = set()
    out = []
    for req in requests:
        key = (req.kind, req.group)
        if key not in seen:
            seen.add(key)
            out.append(req)
    return out
