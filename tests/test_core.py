import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resflat.core import (
    DocumentError,
    PrimitiveRay,
    QQi,
    StratumSignature,
    arg_cmp,
    collinear_normal_form,
    cross,
    line_integers,
    residue_tuple,
    scaled,
    validate_residues,
    validate_stratum,
    _qqi_from_json,
)
from resflat.decide import (
    REASON_COLLINEAR_OK,
    REASON_EXCLUDED_RAY,
    REASON_NON_COLLINEAR,
    search_cylinder_tuple,
)

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
# Parts at the magnitudes the benchmark uses, up to 10^±320 (1,000-bit
# integers), as well as small ones.
parts = st.one_of(
    small_fracs,
    st.builds(lambda f, e: f * Fraction(10) ** e, small_fracs, st.integers(-320, 320)),
)
qqis = st.builds(QQi, parts, parts)
nonzero_qqis = qqis.filter(lambda z: not z.is_zero())


@given(qqis, qqis, qqis)
def test_field_arithmetic_is_exact(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert a * b == b * a


@given(qqis, parts.filter(bool))
def test_division_roundtrip(a, w):
    assert (a / w) * w == a
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_canonical_representation():
    z = QQi(Fraction(2, 4), Fraction(-3, -6))
    assert z.re == Fraction(1, 2) and z.im == Fraction(1, 2)
    assert z.re.denominator > 0


@given(qqis, qqis)
def test_equality_is_equality_of_values(a, b):
    # Equality reads the three reduced integers; it agrees with the
    # Fractions', and with the hash.
    assert (a == b) == (a.re == b.re and a.im == b.im)
    assert a == QQi(a.re, a.im) and hash(a) == hash(QQi(a.re, a.im))
    assert a != (a.re, a.im) and QQi(1) != 1


def _reduced(z: QQi) -> bool:
    return z._d > 0 and math.gcd(z._x, z._y, z._d) == 1


@given(parts, parts, parts, parts, parts.filter(bool), st.integers(), st.integers(), st.integers(1))
def test_integers_stay_reduced_and_read_as_fractions(a, b, c, e, w, x, y, d):
    # Each QQi, however made, holds reduced integers, and its parts equal
    # the same arithmetic done on Fractions.
    z, u = QQi(a, b), QQi(c, e)
    n, k = a.numerator, b.denominator
    cases = [
        (z, a, b),
        (QQi(a), a, 0),
        (QQi(n, k), n, k),
        (QQi(n), n, 0),
        (QQi._of(x, y, d), Fraction(x, d), Fraction(y, d)),
        (z + u, a + c, b + e),
        (z - u, a - c, b - e),
        (-z, -a, -b),
        (z * u, a * c - b * e, a * e + b * c),
        (z * w, a * w, b * w),
        (n * z, n * a, n * b),
        (z / w, a / w, b / w),
        (z / -k, a / -k, b / -k),
    ]
    for q, re, im in cases:
        assert _reduced(q)
        assert type(q.re) is Fraction and type(q.im) is Fraction
        assert (q.re, q.im) == (re, im)


def _reference_scaled(values):
    """scaled on the Fraction parts, as it was computed before QQi held integers."""
    m = math.lcm(*[x.denominator for v in values for x in (v.re, v.im)])
    return m, [
        (v.re.numerator * (m // v.re.denominator), v.im.numerator * (m // v.im.denominator))
        for v in values
    ]


@given(st.lists(qqis, max_size=6))
def test_scaled_agrees_with_fractions(values):
    assert scaled(values) == _reference_scaled(values)


def test_qqi_is_immutable():
    z = QQi(Fraction(1, 2), 3)
    for name in ("re", "im", "_x", "_y", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert (z.re, z.im) == (Fraction(1, 2), 3)
    assert copy.deepcopy(z) == z and pickle.loads(pickle.dumps(z)) == z


# JSON rationals: bare ints and [n, d] pairs, unreduced, with either sign of
# d, at magnitudes up to 10^±320.
big_ints = st.builds(lambda m, e: m * 10**e, st.integers(-999, 999), st.integers(0, 320))
rational_docs = st.one_of(big_ints, st.tuples(big_ints, big_ints.filter(bool)).map(list))


def _old_fraction(doc) -> Fraction:
    """A JSON rational read as the decoder read it before it kept integers."""
    return Fraction(doc) if isinstance(doc, int) else Fraction(doc[0], doc[1])


@given(rational_docs, rational_docs, st.sampled_from(["both", "re", "im", "bare"]))
def test_rational_decoder_agrees_with_fractions(re, im, form):
    doc = {"both": {"re": re, "im": im}, "re": {"re": re}, "im": {"im": im}, "bare": re}[form]
    want = QQi(
        _old_fraction(re) if form != "im" else 0,
        _old_fraction(im) if form in ("both", "im") else 0,
    )
    assert _qqi_from_json(doc, "$") == want


@pytest.mark.parametrize(
    "doc, line",
    [
        ([1, 0], "$: zero denominator"),
        (True, "$: expected a rational, got a boolean"),
        ([1.5, 2], "$: expected an integer or a [numerator, denominator] pair"),
        ({"im": [1, 0]}, "$.im: zero denominator"),
        ({"re": True}, "$.re: expected a rational, got a boolean"),
        ({"re": [1.5, 2]}, "$.re: expected an integer or a [numerator, denominator] pair"),
    ],
)
def test_rational_decoder_keeps_its_error_lines(doc, line):
    with pytest.raises(DocumentError) as info:
        _qqi_from_json(doc, "$")
    assert str(info.value) == line


nonzero_pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(any)


@given(nonzero_pairs, nonzero_pairs)
def test_arg_cmp_matches_atan2(a, b):
    fa = math.atan2(a[1], a[0])
    fb = math.atan2(b[1], b[0])
    c = arg_cmp(a, b)
    if abs(fa - fb) > 1e-12:
        assert c == (1 if fa > fb else -1)
    else:
        assert c == 0


def test_scaled_to_integer_pairs():
    assert scaled([QQi(Fraction(1, 2), Fraction(-1, 3)), QQi(2)]) == (6, [(3, -2), (12, 0)])


@pytest.mark.parametrize(
    "args",
    [(0, (True, 2.7), (2.5,), 1.9), (1.0,), (0, (2,), (2.0,)), (0, (2,), (), True), ("1",)],
    ids=str,
)
def test_stratum_entries_must_be_ints(args):
    """A float, bool or string entry raises instead of being truncated."""
    with pytest.raises(ValueError, match="stratum entries must be integers"):
        StratumSignature(*args)


class TestValidateStratum:
    def test_two_pole_example(self):
        assert validate_stratum(StratumSignature(0, (4, 1), (3, 4), 0)) == ()

    def test_holomorphic_torus(self):
        assert validate_stratum(StratumSignature(1, (), (), 0)) == ()

    def test_single_simple_pole_is_empty(self):
        bad = validate_stratum(StratumSignature(0, (3,), (), 1))
        assert any("empty stratum" in v for v in bad)

    def test_single_simple_pole_degree_valid(self):
        # Degree identity can hold while the pattern stays excluded.
        bad = validate_stratum(StratumSignature(1, (1,), (), 1))
        assert any("empty stratum" in v for v in bad)

    def test_degree_identity(self):
        bad = validate_stratum(StratumSignature(0, (3,), (2,), 0))
        assert any("degree identity" in v for v in bad)

    def test_no_zero_needs_poles_absent(self):
        bad = validate_stratum(StratumSignature(0, (), (2,), 0))
        assert bad


class TestValidateResidues:
    def test_table_row_tuple(self):
        sig = StratumSignature(0, (2,), (), 4)
        assert validate_residues(sig, residue_tuple([1, 1, -1, -1])) == ()

    def test_zero_at_simple_pole(self):
        sig = StratumSignature(0, (2,), (), 4)
        bad = validate_residues(sig, residue_tuple([1, 1, -1, 0]))
        assert any("zero residue at simple pole" in v for v in bad)

    def test_higher_pole_residues_may_vanish(self):
        sig = StratumSignature(0, (2,), (2, 2), 0)
        assert validate_residues(sig, residue_tuple([0, 0])) == ()

    def test_length_mismatch(self):
        sig = StratumSignature(0, (2,), (2, 2), 0)
        bad = validate_residues(sig, residue_tuple([0]))
        assert any("length" in v for v in bad)

    def test_nonzero_sum(self):
        sig = StratumSignature(0, (2,), (2, 2), 0)
        bad = validate_residues(sig, residue_tuple([1, 1]))
        assert any("sum" in v for v in bad)


def _reference_validate_residues(sig, residues):
    """validate_residues as it read the residues before it shared the
    decider's lattice: on the pairs of :func:`scaled`."""
    bad = list(validate_stratum(sig))
    if bad:
        return tuple(bad)
    if len(residues) != sig.num_poles:
        bad.append(
            f"residue tuple has length {len(residues)}, expected {sig.num_poles}"
        )
        return tuple(bad)
    m, pairs = scaled(residues)
    re, im = sum(x for x, _ in pairs), sum(y for _, y in pairs)
    if re or im:
        bad.append(f"residues sum to {QQi._of(re, im, m)}, expected 0")
    for k in range(sig.p, sig.num_poles):
        if residues[k].is_zero():
            bad.append(f"zero residue at simple pole #{k - sig.p}")
    return tuple(bad)


# Valid strata with simple poles only, higher poles only, both, and genus 1,
# and one that breaks the degree identity.
VALIDATED_STRATA = (
    StratumSignature(0, (2,), (), 4),
    StratumSignature(0, (3,), (3, 2)),
    StratumSignature(0, (1, 1), (2,), 2),
    StratumSignature(1, (3,), (2,), 1),
    StratumSignature(0, (2,), (), 3),
)


@st.composite
def residue_requests(draw):
    """A stratum and residues at one scale, 1 or 10^+-320: of the wrong
    length one time in three, summing to zero or not, and with a zero
    simple-pole residue put in one time in three."""
    sig = draw(st.sampled_from(VALIDATED_STRATA))
    length = max(0, sig.num_poles + draw(st.sampled_from((0, 0, 0, 0, -1, 1))))
    scale = draw(st.sampled_from((Fraction(1), Fraction(10**320), Fraction(1, 10**320))))
    values = [QQi(draw(small_fracs), draw(small_fracs)) * scale for _ in range(length)]
    if values and draw(st.booleans()):
        values[-1] = values[-1] - sum(values, QQi(0))
    poles = range(sig.p, min(length, sig.num_poles))
    if poles and draw(st.integers(0, 2)) == 0:
        values[draw(st.sampled_from(poles))] = QQi(0)
    return sig, tuple(values)


@settings(max_examples=400, deadline=None)
@given(residue_requests())
def test_validation_on_the_lattice_agrees_with_its_reference(request):
    sig, residues = request
    assert validate_residues(sig, residues) == _reference_validate_residues(sig, residues)


class TestCollinearNormalForm:
    def test_scaled_integer_tuple(self):
        w = QQi(1, 1)
        form = collinear_normal_form((w * 2, w * 1, w * (-3)))
        assert isinstance(form, PrimitiveRay)
        assert form.direction == w
        assert form.integers == (2, 1, -3)
        assert sum(m for m in form.integers if m > 0) == 3

    def test_non_collinear(self):
        entries = residue_tuple([QQi(1), QQi(0, 1), QQi(-1, -1)])
        assert collinear_normal_form(entries) is None

    def test_two_opposite(self):
        form = collinear_normal_form(
            (QQi(Fraction(3, 2)), QQi(Fraction(-3, 2)))
        )
        assert form.direction == QQi(Fraction(3, 2))
        assert form.integers == (1, -1)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            collinear_normal_form((QQi(0), QQi(1)))

    @given(nonzero_qqis, st.lists(st.integers(-5, 5).filter(bool), min_size=2, max_size=5))
    @settings(max_examples=80)
    def test_scaling_invariance(self, scale, ints):
        if sum(ints) != 0:
            ints.append(-sum(ints))
        base = [QQi(m) for m in ints]
        form0 = collinear_normal_form(base)
        form1 = collinear_normal_form([scale * z for z in base])
        assert isinstance(form0, PrimitiveRay) and isinstance(form1, PrimitiveRay)
        assert form0.integers == form1.integers

    def test_reconstruction_is_exact(self):
        w = QQi(Fraction(2, 3), Fraction(-1, 6))
        entries = (w * 4, w * (-1), w * (-3))
        form = collinear_normal_form(entries)
        assert tuple([form.direction * m for m in form.integers]) == entries


def _reference_ratio(a: QQi, b: QQi) -> Fraction | None:
    """The rational t with a = t*b, or None when a/b is not real."""
    if a.re * b.im - a.im * b.re != 0:
        return None
    return (a.re * b.re + a.im * b.im) / (b.re * b.re + b.im * b.im)


def _reference_primitive(ratios: list[Fraction]) -> tuple[list[int], Fraction]:
    """Coprime integers m_k and the unit u > 0 with ratios[k] == m_k * u."""
    scale = math.lcm(*(t.denominator for t in ratios))
    ints = [int(t * scale) for t in ratios]
    g = math.gcd(*ints)
    return [m // g for m in ints], Fraction(g, scale)


def _reference_normal_form(entries: tuple[QQi, ...]):
    """collinear_normal_form on Fractions, as it was computed before integer pairs."""
    ratios = [_reference_ratio(e, entries[0]) for e in entries]
    if None in ratios:
        return None
    ints, unit = _reference_primitive(ratios)
    sign = 1 if ints[0] > 0 else -1
    direction = entries[0] * (sign * unit)
    ints = [sign * m for m in ints]
    assert tuple(direction * m for m in ints) == entries
    return PrimitiveRay(direction, tuple(ints))


def _reference_abs_profile(entries: tuple[QQi, ...]) -> tuple[int, ...] | None:
    """The primitive integers of entries collinear up to sign, as absolute
    values sorted descending, on Fractions; None off a line."""
    ratios = [_reference_ratio(e, entries[0]) for e in entries]
    if None in ratios:
        return None
    ints, _ = _reference_primitive([abs(t) for t in ratios])
    return tuple(sorted(ints, reverse=True))


@st.composite
def balanced_tuples(draw):
    """Nonzero Gaussian rationals summing to zero, collinear or not, times
    10^e for e in [-320, 320] and a Gaussian rational direction."""
    direction = draw(nonzero_qqis) * Fraction(10) ** draw(st.integers(-320, 320))
    if draw(st.booleans()):
        ints = draw(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=6))
        shape = [QQi(m) for m in ints]
    else:
        shape = draw(st.lists(nonzero_qqis, min_size=1, max_size=6))
    total = sum(shape, QQi(0))
    if not total.is_zero():
        shape.append(-total)
    return tuple(direction * z for z in shape)


@given(balanced_tuples())
@settings(max_examples=150)
def test_integer_pairs_agree_with_fractions(entries):
    form = collinear_normal_form(entries)
    want = _reference_normal_form(entries)
    if want is None:
        assert form is None
    else:
        assert (form.direction, form.integers) == (want.direction, want.integers)
    ints = line_integers(scaled(entries)[1])
    if ints is None:
        assert _reference_abs_profile(entries) is None
    else:
        profile = sorted([abs(m) // math.gcd(*ints) for m in ints], reverse=True)
        assert tuple(profile) == _reference_abs_profile(entries)


def test_cylinder_tuple_on_gaussian_rationals():
    sig = StratumSignature(3, (4,))
    w = QQi(0, Fraction(5, 3))
    # Primitive profile (3, 2, 1): total 6 exceeds 2g - 2 = 4.
    assert search_cylinder_tuple(sig, (w * 2, -w * 4, w * 6)).reason == REASON_COLLINEAR_OK
    # Primitive profile (2, 1, 1): total 4 does not.
    third = QQi(0, Fraction(1, 3))
    verdict = search_cylinder_tuple(sig, (third, third, third * -2))
    assert (verdict.realizable, verdict.reason) == (False, REASON_EXCLUDED_RAY)
    verdict = search_cylinder_tuple(sig, residue_tuple([1, QQi(1, 1), 1]))
    assert (verdict.realizable, verdict.reason) == (True, REASON_NON_COLLINEAR)


def test_cross_detects_collinearity():
    assert cross((2, 4), (1, 2)) == 0
    assert cross((1, 0), (0, 1)) == 1
