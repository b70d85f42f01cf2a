import itertools
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resflat import core, decide, graphs, surfaces
from resflat.core import (
    QQi,
    StratumSignature,
    collinear_normal_form,
    lattice,
    primitive_total_exceeds,
    residue_tuple,
    validate_residues,
)
from resflat.decide import (
    REASON_BELOW_GENUS,
    REASON_COLLINEAR_OK,
    REASON_EXCLUDED_RAY,
    REASON_GENUS_POSITIVE,
    REASON_MIXED,
    REASON_NON_COLLINEAR,
    REASON_SEARCH_NONE,
    REASON_SEARCH_REALIZABLE,
    REASON_ZERO_EXCLUDED,
    REASON_ZERO_OK,
    Verdict,
    decide_realizable,
    enumerate_excluded_rays,
    search_cylinder_tuple,
)
from resflat.graphs import find_connection_graph


class TestDecideRealizable:
    def test_excluded_table_row(self):
        v = decide_realizable(StratumSignature(0, (2,), (), 4), residue_tuple([1, 1, -1, -1]))
        assert not v.realizable and v.reason == REASON_EXCLUDED_RAY

    def test_zero_vector_excluded(self):
        v = decide_realizable(StratumSignature(0, (2,), (2, 2)), residue_tuple([0, 0]))
        assert not v.realizable and v.reason == REASON_ZERO_EXCLUDED

    def test_zero_vector_allowed(self):
        v = decide_realizable(StratumSignature(0, (1, 1), (2, 2)), residue_tuple([0, 0]))
        assert v.realizable and v.reason == REASON_ZERO_OK

    def test_large_collinear_sum(self):
        v = decide_realizable(
            StratumSignature(0, (5,), (), 7), residue_tuple([3, 1, 1, 1, -2, -2, -2])
        )
        assert v.realizable and v.reason == REASON_COLLINEAR_OK

    def test_positive_genus(self):
        v = decide_realizable(StratumSignature(1, (6,), (3, 3)), residue_tuple([0, 0]))
        assert v.realizable and v.reason == REASON_GENUS_POSITIVE

    def test_genus_one_zero_residues_take_the_chain_route(self):
        """A genus-1 request with every residue zero names the chain builder;
        nonzero residues, or genus 2, name genus-reduction."""
        for sig, values, route in (
            (StratumSignature(1, (4,), (2, 2)), [0, 0], "zero-residue-chain"),
            (StratumSignature(1, (0,)), [], "zero-residue-chain"),
            (StratumSignature(1, (4,), (2, 2)), [1, -1], "genus-reduction"),
            (StratumSignature(2, (6,), (2, 2)), [0, 0], "genus-reduction"),
        ):
            v = decide_realizable(sig, residue_tuple(values))
            assert (v.reason, v.certificate_hint) == (REASON_GENUS_POSITIVE, route)

    def test_non_collinear(self):
        v = decide_realizable(
            StratumSignature(0, (2,), (), 4),
            residue_tuple([QQi(1), QQi(0, 1), QQi(-1), QQi(0, -1)]),
        )
        assert v.realizable and v.reason == REASON_NON_COLLINEAR

    def test_mixed_poles(self):
        v = decide_realizable(
            StratumSignature(0, (3,), (2,), 3), residue_tuple([0, 2, -1, -1])
        )
        assert v.realizable and v.reason == REASON_MIXED

    def test_invalid_input_raises(self):
        with pytest.raises(ValueError):
            decide_realizable(StratumSignature(0, (2,), (), 4), residue_tuple([1, -1]))

    def test_verdict_reason_consistency(self):
        reasons = [v for k, v in vars(decide).items() if k.startswith("REASON_")]
        assert len(set(reasons)) == 10
        negative = {REASON_ZERO_EXCLUDED, REASON_EXCLUDED_RAY, REASON_SEARCH_NONE}
        for reason in reasons:
            assert Verdict(reason).realizable is (reason not in negative)
        # A boolean or None in the reason's place is no reason.
        for bogus in ("bogus", True, None):
            with pytest.raises(ValueError, match="unknown verdict reason"):
                Verdict(bogus, "residual-polygon")

    @given(
        st.lists(st.integers(-4, 4).filter(bool), min_size=2, max_size=5),
        st.builds(QQi, st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4)).filter(lambda z: not z.is_zero()),
    )
    @settings(max_examples=60)
    def test_scale_invariance(self, ints, scale):
        if sum(ints) != 0:
            ints.append(-sum(ints))
        s = len(ints)
        sig = StratumSignature(0, (s - 2,), (), s)
        base = residue_tuple(ints)
        scaled = tuple(scale * z for z in base)
        assert (
            decide_realizable(sig, base).realizable
            == decide_realizable(sig, scaled).realizable
        )

    @given(st.permutations([2, 1, 1, -2, -1, -1]))
    def test_permutation_invariance(self, perm):
        sig = StratumSignature(0, (4,), (), 6)
        v = decide_realizable(sig, residue_tuple(perm))
        assert not v.realizable

    def test_equal_order_pole_permutation_invariance(self):
        sig = StratumSignature(0, (5,), (2, 2, 3), 0)
        a = decide_realizable(sig, residue_tuple([1, -1, 0]))
        b = decide_realizable(sig, residue_tuple([-1, 1, 0]))
        assert a.realizable == b.realizable


class TestEnumerateExcludedRays:
    def test_table_values(self):
        assert enumerate_excluded_rays(4, 2)[0].integers == (1, 1, -1, -1)
        assert [r.integers for r in enumerate_excluded_rays(5, 3)] == [(2, 1, -1, -1, -1)]
        assert [r.integers for r in enumerate_excluded_rays(6, 4)] == [
            (1, 1, 1, -1, -1, -1),
            (2, 1, 1, -2, -1, -1),
            (2, 2, -1, -1, -1, -1),
            (3, 1, -1, -1, -1, -1),
        ]

    def test_a_bound_at_s_leaves_out_the_non_primitive_tuples(self):
        # With max_zero >= s a balanced tuple can share a factor: (2, 2, -2, -2)
        # sums to 4 but is twice (1, 1, -1, -1), which is already listed.
        rays = [r.integers for r in enumerate_excluded_rays(4, 4)]
        assert rays == [
            (1, 1, -1, -1),
            (2, 1, -2, -1),
            (3, -1, -1, -1),
            (3, 1, -3, -1),
            (3, 1, -2, -2),
            (4, -2, -1, -1),
        ]
        assert (2, 2, -2, -2) not in rays

    def test_empty_rows(self):
        assert enumerate_excluded_rays(3, 1) == ()
        assert enumerate_excluded_rays(2, 0) == ()

    def test_rays_are_primitive_and_balanced(self):
        for ray in enumerate_excluded_rays(7, 5):
            ints = ray.integers
            assert sum(ints) == 0
            g = 0
            for m in ints:
                g = gcd(g, abs(m))
            assert g == 1

    def test_monotone_in_max_zero(self):
        # Raising the bound only adds rays.
        for s in range(3, 7):
            previous: set = set()
            for bound in range(0, s):
                current = {r.integers for r in enumerate_excluded_rays(s, bound)}
                assert previous <= current
                previous = current


class TestOracleAgreementSmall:
    def test_small_sweep(self):
        values = [v for v in range(-3, 4) if v]
        for s in range(2, 6):
            for combo in itertools.combinations_with_replacement(values, s):
                if sum(combo) != 0:
                    continue
                g = 0
                for m in combo:
                    g = gcd(g, abs(m))
                if g != 1 or not any(m > 0 for m in combo):
                    continue
                sig = StratumSignature(0, (s - 2,), (), s)
                closed = decide_realizable(sig, residue_tuple(combo)).realizable
                brute = find_connection_graph(combo) is not None
                assert closed == brute, combo


class TestCylinders:
    def test_minimal_excluded(self):
        v = search_cylinder_tuple(StratumSignature(4, (6,), ()), residue_tuple([1, 1, 1, 1]))
        assert isinstance(v, Verdict) and not v.realizable
        assert v.reason == REASON_EXCLUDED_RAY

    def test_below_genus(self):
        v = search_cylinder_tuple(
            StratumSignature(4, (6,), ()), residue_tuple([1, QQi(1, 1), 2])
        )
        assert v.realizable and v.reason == REASON_BELOW_GENUS

    def test_needs_search_then_found(self):
        sig = StratumSignature(4, (4, 1, 1), ())
        lam = residue_tuple([1, 1, 1, 1])
        v = search_cylinder_tuple(sig, lam)
        assert v.realizable and v.reason == REASON_SEARCH_REALIZABLE

    @pytest.mark.parametrize("budget", [0.5, True])
    def test_budget_that_is_not_an_int_is_rejected(self, budget):
        """The search stops when its count of placements equals the budget,
        which 1000.5 never does; such a budget is refused before any work."""
        sig = StratumSignature(4, (4, 1, 1), ())
        with pytest.raises(ValueError, match="budget must be an integer"):
            search_cylinder_tuple(sig, residue_tuple([1, 1, 1, 1]), budget=budget)

    def test_minimal_large_sum_realizable(self):
        v = search_cylinder_tuple(StratumSignature(2, (2,), ()), residue_tuple([3, 1]))
        assert v.realizable and v.reason == REASON_COLLINEAR_OK

    def test_plain_torus_is_one_cylinder(self):
        torus, marked = StratumSignature(1, ()), StratumSignature(1, (0,))
        for lam in (residue_tuple([1]), residue_tuple([QQi(2, 3)])):
            v = search_cylinder_tuple(torus, lam)
            assert v.realizable and v.reason == REASON_COLLINEAR_OK
            assert v == search_cylinder_tuple(marked, lam)
        with pytest.raises(ValueError, match="2 disjoint cylinders exceed the maximal count 1"):
            search_cylinder_tuple(torus, residue_tuple([1, 1]))

    def test_naveh_bound(self):
        with pytest.raises(ValueError):
            search_cylinder_tuple(
                StratumSignature(2, (2,), ()), residue_tuple([1, 1, 1, 1])
            )

    def test_sign_insensitive(self):
        sig = StratumSignature(3, (4,), ())
        a = search_cylinder_tuple(sig, residue_tuple([1, -1, 2]))
        b = search_cylinder_tuple(sig, residue_tuple([1, 1, 2]))
        assert a == b


def test_every_public_entry_takes_ints_and_fractions():
    """validate_residues, decide_realizable, build_witness and
    search_cylinder_tuple read ints and Fractions as their Gaussian
    rationals, as residue_tuple does."""
    sig = StratumSignature(0, (0,), (), 2)
    for values in ([1, -1], [Fraction(1, 2), Fraction(-1, 2)], [Fraction(3), -3]):
        r = residue_tuple(values)
        assert validate_residues(sig, values) == validate_residues(sig, r) == ()
        assert decide_realizable(sig, values) == decide_realizable(sig, r)
        assert surfaces.build_witness(sig, values) == surfaces.build_witness(sig, r)
    unbalanced = [1, Fraction(1, 3)]
    assert validate_residues(sig, unbalanced) == ("residues sum to 4/3, expected 0",)
    with pytest.raises(ValueError, match="^residues sum to 4/3, expected 0$"):
        decide_realizable(sig, unbalanced)
    cylinders = StratumSignature(2, (1, 1))
    for values in ([1, 1], [Fraction(1, 2), Fraction(-3, 2)], [2, Fraction(1, 3)]):
        verdict = search_cylinder_tuple(cylinders, values)
        assert verdict == search_cylinder_tuple(cylinders, residue_tuple(values))


def _decide_genus_zero_by_ray(sig, residues):
    """The genus-0 branch of :func:`decide_realizable` as it ran through
    :func:`collinear_normal_form`, kept as a reference: the verdict's
    (reason, certificate_hint)."""
    nonzero = [r for r in residues if not r.is_zero()]
    if not nonzero:
        bound = sig.pole_degree - (sig.p + 1)
        if sig.max_zero() <= bound:
            return REASON_ZERO_OK, "zero-residue-chain"
        return REASON_ZERO_EXCLUDED, None
    form = collinear_normal_form(tuple(nonzero))
    if form is None:
        return REASON_NON_COLLINEAR, "residual-polygon"
    if sig.p >= 1:
        return REASON_MIXED, "collinear-anchor-chain"
    if not primitive_total_exceeds(form.integers, sig.max_zero()):
        return REASON_EXCLUDED_RAY, None
    one_zero = primitive_total_exceeds(form.integers, sig.s - 2)
    hint = "connection-graph" if sig.n == 1 else (
        "blow-up-of-single-zero" if one_zero else "stable-tree"
    )
    return REASON_COLLINEAR_OK, hint


SCALES = (QQi(1), QQi(10**320), QQi(Fraction(1, 10**320)))
_STABLE_ROUTES = ("connection-graph", "blow-up-of-single-zero", "stable-tree")


@st.composite
def _genus_zero_requests(draw):
    """A valid genus-0 request: residues on no line, on one line with a
    higher pole, or on one line at simple poles only; times a drawn
    direction and a scale of 1, 10^320 or 10^-320; zeros of the right total."""
    kind = draw(st.sampled_from(["non-collinear", "mixed-collinear", "simple-collinear"]))
    least = 1 if kind == "mixed-collinear" else 0
    most = 0 if kind == "simple-collinear" else 3
    orders = tuple(draw(st.lists(st.integers(2, 4), min_size=least, max_size=most)))
    s = draw(st.integers(2 if kind == "simple-collinear" else 0, 7))
    assume(len(orders) + s >= (3 if kind == "non-collinear" else 2))
    bound = draw(st.integers(1, 4))
    small = st.integers(-bound, bound)
    if kind == "non-collinear":
        entries = [QQi(draw(small), draw(small)) for _ in range(len(orders) + s - 1)]
    else:
        entries = [QQi(draw(small)) for _ in range(len(orders) + s - 1)]
    entries.append(-sum(entries, QQi(0)))
    assume(not any(e.is_zero() for e in entries[len(orders):]))
    if kind == "non-collinear":
        nonzero = [e for e in entries if not e.is_zero()]
        assume(nonzero and collinear_normal_form(nonzero) is None)
    direction = QQi(draw(st.integers(-3, 3)), draw(st.integers(-3, 3))) / draw(st.integers(1, 3))
    assume(not direction.is_zero())
    scale = draw(st.sampled_from(SCALES))
    residues = tuple(e * direction * scale for e in entries)
    left = sum(orders) + s - 2
    zeros = []
    for _ in range(draw(st.integers(0, 2))):
        zeros.append(draw(st.integers(0, left)))
        left -= zeros[-1]
    sig = StratumSignature(0, sorted([*zeros, left], reverse=True), orders, s)
    assert not validate_residues(sig, residues)
    return sig, residues


@given(_genus_zero_requests())
@settings(max_examples=400, deadline=None)
def test_the_decider_agrees_with_the_ray_reference(request):
    """The decider reads the line through the residues' integer pairs and
    gives the reason and route that the normal form gave; on a stable route
    the builder reads off the pairs the normal form's integers, and its
    direction's lattice (x, y, d, n)."""
    sig, residues = request
    verdict = decide_realizable(sig, residues)
    assert (verdict.reason, verdict.certificate_hint) == _decide_genus_zero_by_ray(sig, residues)
    if verdict.certificate_hint not in _STABLE_ROUTES:
        return
    form = collinear_normal_form(residues)
    d, n, [(x, y)] = lattice([form.direction])
    read, original = [], graphs.find_stable_config

    def find_stable_config(integers, zeros):
        read.append(tuple(integers))  # the builder extends its list afterwards
        return original(integers, zeros)

    with (
        mock.patch("resflat.graphs.find_stable_config", find_stable_config),
        mock.patch("resflat.surfaces.dot", wraps=core.dot) as dot,
        mock.patch("resflat.surfaces._plumb", wraps=surfaces._plumb) as plumb,
    ):
        surfaces._stable_assembly_base(sig, *lattice(residues))
    assert read == [form.integers]
    assert {call.args[1] for call in dot.call_args_list} == {(x, y)}
    assert plumb.call_args.args[3:] == (d, n)


@pytest.mark.parametrize("scale", SCALES, ids=["1", "10^320", "10^-320"])
def test_every_short_excluded_ray_agrees_with_the_ray_reference(scale):
    """Each excluded ray of s <= 7 entries, on the one-zero stratum and on
    every two-zero split of it: the boundary between the excluded rays, the
    stable trees and the blow-ups, which random draws seldom reach."""
    direction = QQi(Fraction(2, 3), -1) * scale
    for s in range(3, 8):
        for ray in enumerate_excluded_rays(s, s - 2):
            residues = tuple(direction * m for m in ray.integers)
            for a in range(s - 2, (s - 3) // 2, -1):
                sig = StratumSignature(0, (a, s - 2 - a) if a < s - 2 else (a,), (), s)
                verdict = decide_realizable(sig, residues)
                want = _decide_genus_zero_by_ray(sig, residues)
                assert (verdict.reason, verdict.certificate_hint) == want


@pytest.mark.parametrize("k", [320, 3000])
def test_the_deciders_integers_do_not_grow_with_a_common_scale(k):
    """The closed form reads the residues on their coarsest lattice, so a
    common scale 10^k or 10^-k hands it the integers of scale 1, not
    k-digit ones whose products grow with the scale."""
    sig = StratumSignature(0, (3,), (), 5)
    read = []

    def spy(integers, bound):
        read.append(tuple(integers))
        return primitive_total_exceeds(integers, bound)

    for scale in (QQi(1), QQi(10**k), QQi(Fraction(1, 10**k))):
        residues = tuple(QQi(m) * scale for m in (3, 1, -1, -1, -2))
        with mock.patch("resflat.decide.primitive_total_exceeds", spy):
            assert decide_realizable(sig, residues).reason == REASON_COLLINEAR_OK
    assert len(read) == 6 and set(read) == {read[0]}
