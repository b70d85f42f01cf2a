"""Closed-form realizability verdicts and excluded-ray enumeration.

The decision procedure: on genus at least one every admissible residue tuple
is realizable; one surface is built and only its genus-1 rotation is read.
On genus zero the obstructions are exactly

* the zero tuple, when some zero order exceeds (sum of higher pole orders)
  minus (number of higher poles + 1), in strata without simple poles;
* primitive rays: with only simple poles, a tuple collinear over the reals
  whose primitive integer form has positive part summing to at most the
  largest zero order.

Cylinder circumference tuples of holomorphic strata reduce to the simple-pole
case; below the genus there is no obstruction.  :func:`search_cylinder_tuple`
checks the request, answers the closed-form cases, and past them runs the
bounded search of :mod:`resflat.graphs`.  The module stands after core and
graphs in the chain core, graphs, decide, surfaces, cli, but imports graphs
only for that search: :func:`decide_realizable` and every closed-form
cylinder answer run on :mod:`resflat.core` alone, as a ``resflat decide``
process and a closed-form ``resflat cylinders`` process do.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Sequence

from .core import (
    CYLINDER_BUDGET,
    Frozen,
    PrimitiveRay,
    QQi,
    StratumSignature,
    check_cylinder_request,
    collinear_normal_form,
    line_integers,
    primitive_total_exceeds,
    scaled,
    validate_residues,
    _set,
)

REASON_GENUS_POSITIVE = "genus-positive-surjective"
REASON_NON_COLLINEAR = "non-collinear"
REASON_MIXED = "mixed-poles-surjective"
REASON_ZERO_OK = "zero-vector-allowed"
REASON_ZERO_EXCLUDED = "zero-vector-excluded-by-large-zero"
REASON_EXCLUDED_RAY = "excluded-primitive-ray"
REASON_COLLINEAR_OK = "collinear-sum-exceeds-max-zero"
REASON_BELOW_GENUS = "below-genus-bound"
REASON_SEARCH_REALIZABLE = "search-realizable"
REASON_SEARCH_NONE = "search-not-realizable"

_NEGATIVE_REASONS = (REASON_ZERO_EXCLUDED, REASON_EXCLUDED_RAY, REASON_SEARCH_NONE)
_REASONS = _NEGATIVE_REASONS + (REASON_GENUS_POSITIVE, REASON_NON_COLLINEAR, REASON_MIXED,
    REASON_ZERO_OK, REASON_COLLINEAR_OK, REASON_BELOW_GENUS, REASON_SEARCH_REALIZABLE)


class Verdict(Frozen):
    """A realizability answer: the decider's reason, from which ``realizable`` follows.

    On a realizable residue tuple ``certificate_hint`` names the
    construction route :func:`resflat.surfaces.build_witness` follows, and
    on collinear residues ``ray`` is the normal form of the nonzero ones,
    which the builders read rather than recompute; equality and the hash
    leave ``ray`` out.
    """

    __slots__ = ("reason", "certificate_hint", "ray")

    def __init__(
        self, reason: str, certificate_hint: str | None = None, ray: PrimitiveRay | None = None
    ) -> None:
        if reason not in _REASONS:
            raise ValueError(f"unknown verdict reason {reason!r}")
        _set(self, "reason", reason)
        _set(self, "certificate_hint", certificate_hint)
        _set(self, "ray", ray)

    @property
    def realizable(self) -> bool:
        return self.reason not in _NEGATIVE_REASONS

    def _key(self) -> tuple:
        return self.reason, self.certificate_hint


def decide_realizable(sig: StratumSignature, residues: Sequence[QQi]) -> Verdict:
    """Decide whether a residue tuple is attained on the given stratum.

    Raises ValueError when (sig, residues) fails validation.
    """
    bad = validate_residues(sig, residues)
    if bad:
        raise ValueError("; ".join(bad))
    if sig.genus >= 1:
        chain = sig.genus == 1 and all(r.is_zero() for r in residues)
        return Verdict(REASON_GENUS_POSITIVE, "zero-residue-chain" if chain else "genus-reduction")
    nonzero = [r for r in residues if not r.is_zero()]
    if not nonzero:
        # All residues vanish; only higher poles present.
        bound = sig.pole_degree - (sig.p + 1)
        if sig.max_zero() <= bound:
            return Verdict(REASON_ZERO_OK, "zero-residue-chain")
        return Verdict(REASON_ZERO_EXCLUDED)

    form = collinear_normal_form(tuple(nonzero))
    if form is None:
        return Verdict(REASON_NON_COLLINEAR, "residual-polygon")
    if sig.p >= 1:
        return Verdict(REASON_MIXED, "collinear-anchor-chain", ray=form)

    # Only simple poles.
    if not primitive_total_exceeds(form.integers, sig.max_zero()):
        return Verdict(REASON_EXCLUDED_RAY)
    one_zero = primitive_total_exceeds(form.integers, sig.s - 2)
    hint = "connection-graph" if sig.n == 1 else (
        "blow-up-of-single-zero" if one_zero else "stable-tree"
    )
    return Verdict(REASON_COLLINEAR_OK, hint, ray=form)


def _partitions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of `total` into exactly `parts` >= 1 positive parts, descending."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(total - parts + 1, 0, -1):
        for rest in _partitions(total - first, parts - 1):
            if rest[0] > first:
                continue
            yield (first,) + rest


def enumerate_excluded_rays(s: int, max_zero: int) -> tuple[PrimitiveRay, ...]:
    """All excluded primitive rays of length s, up to permutation and sign.

    These are the integer tuples with no zero entry, total sum zero, jointly
    coprime, whose positive part sums to at most ``max_zero``.  Entries are
    emitted sorted descending; representatives are deduplicated under global
    sign by keeping the lexicographically largest form, and the output is
    sorted lexicographically.
    """
    if s < 2:
        raise ValueError("a ray needs at least two entries")
    found: set[tuple[int, ...]] = set()
    for total in range(1, max_zero + 1):
        for s1 in range(1, s):
            s2 = s - s1
            if total < s1 or total < s2:
                continue
            for pos in _partitions(total, s1):
                for neg in _partitions(total, s2):
                    if gcd(*pos, *neg) != 1:
                        continue
                    # Both parts descend, so each sign's form is already
                    # sorted: positives descending, then negatives by size.
                    found.add(
                        max(pos + tuple(-y for y in neg), neg + tuple(-x for x in pos))
                    )
    return tuple(
        PrimitiveRay(QQi(1), ints) for ints in sorted(found)
    )


def search_cylinder_tuple(
    sig: StratumSignature,
    circumferences: Sequence[QQi],
    budget: int = CYLINDER_BUDGET,
) -> Verdict:
    """Decide whether a holomorphic stratum carries disjoint cylinders with
    the given circumference tuple (each entry taken up to sign).

    Below the genus every tuple works.  At the genus, on the single-zero
    stratum, the obstruction is the primitive integer profile with total at
    most 2g-2; the plain torus H_1() counts as H_1(0), one cylinder.  The
    remaining cases (t = g with several zeros, or t > g up to the maximal
    count g + n - 1) have no closed form here: the bounded search of
    :mod:`resflat.graphs` answers them within ``budget`` placements of
    cylinder ends.  A negative ``budget`` raises ValueError even when no
    search runs.
    """
    check_cylinder_request(sig, circumferences, budget)
    t = len(circumferences)
    g, n = sig.genus, max(sig.n, 1)
    if t > g + n - 1:
        raise ValueError(
            f"{t} disjoint cylinders exceed the maximal count {g + n - 1}"
        )
    if t < g:
        return Verdict(REASON_BELOW_GENUS)
    if t == g and n == 1:
        ints = line_integers(scaled(circumferences)[1])
        if ints is None:
            return Verdict(REASON_NON_COLLINEAR)
        if not primitive_total_exceeds([abs(m) for m in ints], 2 * g - 2):
            return Verdict(REASON_EXCLUDED_RAY)
        return Verdict(REASON_COLLINEAR_OK)
    from . import graphs

    if graphs.find_cylinder_config(sig, circumferences, budget=budget) is None:
        return Verdict(REASON_SEARCH_NONE)
    return Verdict(REASON_SEARCH_REALIZABLE)
