"""Exact arithmetic and the basic vocabulary of the realizability problem.

Everything downstream (deciders, graph searches, flat-surface builders and
the surface verifier) works over Gaussian rationals, so every comparison made
by this package is exact; cone angles are counted in whole turns.

Exact integers.  Plane geometry is read on integer pairs: :func:`scaled`
puts a list of Gaussian rationals on one lattice, the lcm m of their
denominators, as the pairs m * v.  A positive rational scale keeps every
argument order, every sign of a cross or dot product, every zero test and
the negative-real-axis test, so :func:`cross`, :func:`dot`, :func:`arg_cmp`
and :func:`line_integers` answer on the pairs as on the Gaussian rationals;
a sum of pairs divided back by m is the sum of the values.  :func:`lattice`
goes on to the coarsest such lattice: it divides the pairs by their gcd n,
so a value is its pair times n/m, and a common positive scale of the values
changes n/m alone, never the pairs.  Flat surfaces live on that lattice:
their pieces hold the pairs and the surface holds n and m as its numerator
and denominator, so the verifier never rescales them, and a surface's
integers do not grow with a common scale of its residues.

A Gaussian rational is itself a point of a lattice: :class:`QQi` holds the
reduced integers of (x + iy)/d, so its arithmetic, equality and hash are
integer operations.  ``Fraction`` is left at the edges only: ``QQi(re, im)``
accepts Fractions, and ``.re`` and ``.im`` return them, for messages and
callers that build inputs.  The JSON codecs read and write integers, so
:mod:`fractions` is loaded only when a Fraction is made or passed in.

Records.  The vocabulary types of the package (signatures, rays, verdicts,
pieces, surfaces, certificates) are immutable records on ``__slots__`` that
derive from :class:`Frozen`; :func:`replace` rebuilds one with some fields
changed.

Cylinder requests.  The check of a request and its budget, the default
budget and the exception of a spent one live here, so a closed-form cylinder
answer and the CLI never load the search of :mod:`resflat.graphs`.
"""

from __future__ import annotations

import math
import sys
from math import gcd
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

Rat = Union[int, "Fraction"]


def _fraction(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator); the first call imports the class
    and rebinds this name to it."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(numerator, denominator)


def _rat(w: Rat) -> Rat:
    if isinstance(w, int) or w.__class__ is _fraction:
        return w
    # A Fraction exists only once its module is loaded.
    fractions = sys.modules.get("fractions")
    if fractions and isinstance(w, fractions.Fraction):
        return w
    raise TypeError(f"expected an int or Fraction, got {type(w).__name__}")


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, a field of an immutable record."""


_set = object.__setattr__


class Frozen:
    """An immutable record on ``__slots__``.

    A subclass names its fields in ``__slots__``, in the order of the
    parameters of its ``__init__``, which sets them through ``_set``, past
    the ``__setattr__`` that keeps the record immutable.  Records of one
    class are equal when their ``_key`` tuples, all fields by default, are;
    the hash reads the same tuple.  ``copy``, ``deepcopy``, ``pickle`` and
    :func:`replace` rebuild a record through its ``__init__``, so its checks
    run again.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    _key = _fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


def replace(record: Frozen, /, **changes: object) -> Frozen:
    """A copy of ``record`` with the given fields changed, built through
    its class's ``__init__``."""
    return record.__class__(**dict(zip(record.__slots__, record._fields()), **changes))


class QQi(Frozen):
    """A Gaussian rational (x + iy)/d, held as three integers.

    The integers are reduced: d > 0 and gcd(x, y, d) = 1, so equal values
    have equal integers, and equality, the hash and the arithmetic work on
    them alone.  ``re`` and ``im`` read the parts off them as exact
    Fractions, for messages and callers.  Instances are immutable
    and hashable; arithmetic is exact.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re: Rat = 0, im: Rat = 0) -> None:
        x, p = _rat(re).as_integer_ratio()
        y, q = _rat(im).as_integer_ratio()
        if p != q:
            # Over the lcm of two reduced denominators, x, y and d stay coprime.
            g = gcd(p, q)
            x, y, p = x * (q // g), y * (p // g), p // g * q
        _set_x(self, x)
        _set_y(self, y)
        _set_d(self, p)

    @classmethod
    def _of(cls, x: int, y: int, d: int) -> "QQi":
        """(x + iy)/d for integers with d > 0, reduced by one gcd, which a
        denominator of 1 makes unneeded whatever the size of x and y."""
        if d != 1 and (g := gcd(x, y, d)) != 1:
            x, y, d = x // g, y // g, d // g
        z = object.__new__(cls)
        _set_x(z, x)
        _set_y(z, y)
        _set_d(z, d)
        return z

    def __reduce__(self):
        return QQi, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return _fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return _fraction(self._y, self._d)

    def __hash__(self) -> int:
        return hash((self._x, self._y, self._d))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._x == other._x and self._y == other._y and self._d == other._d

    def __add__(self, other: "QQi") -> "QQi":
        d, e = self._d, other._d
        if d == e:
            return QQi._of(self._x + other._x, self._y + other._y, d)
        return QQi._of(self._x * e + other._x * d, self._y * e + other._y * d, d * e)

    def __sub__(self, other: "QQi") -> "QQi":
        return self + -other

    def __neg__(self) -> "QQi":
        return QQi._of(-self._x, -self._y, self._d)

    def __mul__(self, other: "QQi | Rat") -> "QQi":
        x, y = self._x, self._y
        if isinstance(other, QQi):
            u, v = other._x, other._y
            return QQi._of(x * u - y * v, x * v + y * u, self._d * other._d)
        n, m = _rat(other).as_integer_ratio()
        return QQi._of(x * n, y * n, self._d * m)

    __rmul__ = __mul__

    def __truediv__(self, other: Rat) -> "QQi":
        n, m = _rat(other).as_integer_ratio()
        if n == 0:
            raise ZeroDivisionError("division by zero")
        if n < 0:
            n, m = -n, -m
        return QQi._of(self._x * m, self._y * m, self._d * n)

    def is_zero(self) -> bool:
        return not (self._x or self._y)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"QQi({self.re!s}, {self.im!s})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


# The slots are written through their descriptors, past the __setattr__
# that keeps a QQi immutable.
_set_x, _set_y, _set_d = QQi._x.__set__, QQi._y.__set__, QQi._d.__set__


Pair = tuple[int, int]

# Lists, not tuples built from generators: such a tuple is allocated at a
# guessed length and resized, and on release joins the free list of its
# final length, so those free lists grow call after call.


def scaled(values: Sequence[QQi]) -> tuple[int, list[Pair]]:
    """The lcm m of the values' denominators, and each value times m as an
    integer pair (re, im)."""
    m = math.lcm(*[v._d for v in values])
    return m, [(v._x * (k := m // v._d), v._y * k) for v in values]


def lattice(values: Sequence[QQi]) -> tuple[int, int, list[Pair]]:
    """The values on their coarsest lattice: positive integers d and n, and
    integer pairs whose coordinates have gcd 1, each value its pair times n/d.

    d is the lcm of the denominators, as in :func:`scaled`, and n the gcd of
    the scaled pairs' coordinates, which is prime to d.  All-zero values
    keep n = 1.
    """
    d, pairs = scaled(values)
    n = 0
    for x, y in pairs:
        n = gcd(n, x, y)
        if n == 1:
            return d, 1, pairs
    if n:
        pairs = [(x // n, y // n) for x, y in pairs]
    return d, n or 1, pairs


def cross(a: Pair, b: Pair) -> int:
    """Planar cross product; 0 exactly when a and b are real-collinear."""
    return a[0] * b[1] - a[1] * b[0]


def dot(a: Pair, b: Pair) -> int:
    return a[0] * b[0] + a[1] * b[1]


def arg_cmp(a: Pair, b: Pair) -> int:
    """Exactly compare arg(a) and arg(b) of nonzero pairs, both taken in
    (-pi, pi]; returns -1, 0 or 1."""
    # "Upper" covers the arguments in (0, pi], the rest lie in (-pi, 0].
    ua = a[1] > 0 or (a[1] == 0 and a[0] < 0)
    ub = b[1] > 0 or (b[1] == 0 and b[0] < 0)
    if ua != ub:
        return 1 if ua else -1
    c = cross(b, a)
    return (c > 0) - (c < 0)


def line_integers(pairs: Sequence[Pair]) -> list[int] | None:
    """The dot products of the pairs with the first, or None when some pair
    is off the first one's real line.

    On that line the dot products are the pairs' ratios to the first times
    its squared length: an integer form of the tuple with a positive first
    entry.
    """
    base = pairs[0]
    if any(cross(p, base) for p in pairs):
        return None
    return [dot(p, base) for p in pairs]


def primitive_total_exceeds(integers: Sequence[int], bound: int) -> bool:
    """The simple-pole closed form: does the primitive positive total exceed ``bound``?

    ``integers`` is a collinear tuple's integer form, not necessarily
    coprime.  The tuple is excluded exactly when this fails for the largest
    zero order, and one zero (a connection graph) realizes it when it
    holds for ``bound = s - 2``.
    """
    return sum(m for m in integers if m > 0) > bound * gcd(*integers)


def _spanning_forest(k: int, pairs: Sequence[tuple[int, int]]) -> list[bool]:
    """Whether each pair joins two components of the pairs before it, on
    vertices 0..k-1; the pairs that do form a spanning forest.  The graph
    searches and the verifier share this union-find."""
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins = []
    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[ra] = rb
        joins.append(ra != rb)
    return joins


def _connected(k: int, pairs: Sequence[tuple[int, int]]) -> bool:
    return sum(_spanning_forest(k, pairs)) == k - 1


class StratumSignature(Frozen):
    """Genus, zero orders, higher pole orders and simple pole count.

    Pole orders are stored positive: ``higher_poles=(3, 4)`` means two poles
    of orders -3 and -4.  A zero order 0 is a marked regular point.  The
    genus, every order and the count must be ints, not bools; anything else
    raises ValueError.
    """

    __slots__ = ("genus", "zeros", "higher_poles", "simple_poles")

    def __init__(
        self,
        genus: int,
        zeros: Iterable[int] = (),
        higher_poles: Iterable[int] = (),
        simple_poles: int = 0,
    ) -> None:
        zeros, higher_poles = tuple(zeros), tuple(higher_poles)
        for value in (genus, *zeros, *higher_poles, simple_poles):
            if type(value) is not int:
                raise ValueError(f"stratum entries must be integers, got {value!r}")
        _set(self, "genus", genus)
        _set(self, "zeros", zeros)
        _set(self, "higher_poles", higher_poles)
        _set(self, "simple_poles", simple_poles)

    @property
    def n(self) -> int:
        return len(self.zeros)

    @property
    def p(self) -> int:
        return len(self.higher_poles)

    @property
    def s(self) -> int:
        return self.simple_poles

    @property
    def pole_degree(self) -> int:
        """Sum of the higher pole orders."""
        return sum(self.higher_poles)

    @property
    def num_poles(self) -> int:
        return self.p + self.s

    def max_zero(self) -> int:
        return max(self.zeros) if self.zeros else 0

    def __str__(self) -> str:
        parts = [str(a) for a in self.zeros]
        parts += [str(-b) for b in self.higher_poles]
        parts += ["-1"] * self.simple_poles
        return f"H_{self.genus}({', '.join(parts)})"


def validate_stratum(sig: StratumSignature) -> tuple[str, ...]:
    """Check the structural identities of a signature.

    Returns a tuple of violation messages; empty means valid.  This is a
    total function, it never raises.
    """
    bad: list[str] = []
    if sig.genus < 0:
        bad.append(f"genus must be nonnegative, got {sig.genus}")
    if any(a < 0 for a in sig.zeros):
        bad.append("zero orders must be nonnegative")
    if any(b < 2 for b in sig.higher_poles):
        bad.append("higher pole orders must be at least 2")
    if sig.simple_poles < 0:
        bad.append("simple pole count must be nonnegative")
    if bad:
        return tuple(bad)
    degree = sum(sig.zeros) - sig.pole_degree - sig.simple_poles
    if degree != 2 * sig.genus - 2:
        bad.append(
            f"degree identity violated: sum of orders is {degree}, "
            f"expected {2 * sig.genus - 2}"
        )
    if sig.p == 0 and sig.s == 1:
        bad.append("empty stratum: a single simple pole violates the residue theorem")
    if sig.n == 0 and not (sig.genus == 1 and sig.num_poles == 0):
        bad.append("at least one zero (or marked point) is required here")
    return tuple(bad)


def residue_tuple(values: Iterable[QQi | Rat]) -> tuple[QQi, ...]:
    """Coerce a sequence of numbers into a tuple of Gaussian rationals."""
    out = []
    for v in values:
        out.append(v if isinstance(v, QQi) else QQi(v))
    return tuple(out)


def validate_residues(sig: StratumSignature, residues: Sequence[QQi]) -> tuple[str, ...]:
    """Check a candidate residue tuple against a signature.

    The tuple lists the higher pole residues first, then the simple pole
    residues.  Violations of the length, of the residue theorem and of the
    nonvanishing at simple poles are each reported distinctly.
    """
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


class PrimitiveRay(Frozen):
    """A collinear tuple in normal form: direction times a primitive integer vector.

    The integers sum to zero, are jointly coprime, and the first entry is
    positive; the original tuple is ``direction * integers[k]`` entrywise.
    """

    __slots__ = ("direction", "integers")

    def __init__(self, direction: QQi, integers: tuple[int, ...]) -> None:
        if direction.is_zero():
            raise ValueError("ray direction must be nonzero")
        ints = integers
        if not ints or any(m == 0 for m in ints):
            raise ValueError("ray integers must be nonzero")
        if sum(ints) != 0:
            raise ValueError("ray integers must sum to zero")
        if gcd(*ints) != 1:
            raise ValueError("ray integers must be coprime")
        _set(self, "direction", direction)
        _set(self, "integers", integers)


def collinear_normal_form(entries: Sequence[QQi]) -> PrimitiveRay | None:
    """Normal form of a tuple of nonzero Gaussian rationals on a real line.

    Returns a :class:`PrimitiveRay` when all entries lie on one real line
    through the origin, None when two of them span the plane.  The normal
    form is invariant under scaling every entry by a common nonzero
    Gaussian rational.  Zero entries are rejected (the caller filters them
    out).
    """
    entries = tuple(entries)
    if not entries:
        raise ValueError("empty tuple has no normal form")
    d, n, pairs = lattice(entries)
    if (0, 0) in pairs:
        raise ValueError("zero entry: the ray normal form is undefined")
    ints = line_integers(pairs)
    if ints is None:
        return None
    g = gcd(*ints)
    ints = [m // g for m in ints]
    (x0, y0), m0 = pairs[0], ints[0]
    assert all(
        x * m0 == x0 * m and y * m0 == y0 * m for (x, y), m in zip(pairs, ints)
    ), "normal form must reproduce the input exactly"
    if sum(ints) != 0:
        raise ValueError("collinear normal form requires entries summing to zero")
    # The first entry is (x0 + i*y0) * n/d, and m0 > 0 times the direction.
    return PrimitiveRay(QQi._of(x0 * n, y0 * n, d * m0), tuple(ints))


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of budget before concluding.

    ``stage`` names the search (``"cylinder"``), ``spent`` counts the
    cylinder ends it placed and ``budget`` is the limit it hit.  The
    cylinder search spends one unit each time it puts a cylinder's two ends
    on a pair of components (see :func:`resflat.graphs.find_cylinder_config`).
    """

    def __init__(self, stage: str, spent: int, budget: int) -> None:
        super().__init__(
            f"{stage} search exceeded its budget: {spent} of {budget} placements of "
            "cylinder ends spent"
        )
        self.stage, self.spent, self.budget = stage, spent, budget


#: The cylinder search's default budget, in placements of cylinder ends.
CYLINDER_BUDGET = 2_000_000


def check_cylinder_request(
    sig: StratumSignature, circumferences: Sequence[QQi], budget: int
) -> None:
    """Raise ValueError unless ``budget`` is a nonnegative int (a bool is
    not one), ``sig`` a valid holomorphic stratum and ``circumferences`` a
    nonempty tuple of nonzero values, checked in that order."""
    if not _is_int(budget):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    bad = validate_stratum(sig)
    if bad:
        raise ValueError("; ".join(bad))
    if sig.p != 0 or sig.s != 0:
        raise ValueError("disjoint cylinders require a holomorphic stratum")
    if not circumferences or any(c.is_zero() for c in circumferences):
        raise ValueError("circumferences must be a nonempty tuple of nonzero values")


# ---------------------------------------------------------------------------
# JSON scalars, which the certificate codec of :mod:`resflat.verify` and the
# CLI's request codec share; a process that decides never loads the kernel.
# Rationals are [numerator, denominator] pairs in lowest terms with positive
# denominators; a bare integer is accepted on input.  Gaussian rationals are
# {"re": rational, "im": rational}; bare integers and rationals are taken real.

FORMAT_VERSION = "4"


class DocumentError(Exception):
    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def _is_int(doc: object) -> bool:
    return isinstance(doc, int) and not isinstance(doc, bool)


def _int_list(doc: object, path: str) -> list[int]:
    if not isinstance(doc, list) or not all(_is_int(v) for v in doc):
        raise DocumentError(path, "expected a list of integers")
    return list(doc)


def _frac_from_json(doc: object, path: str) -> tuple[int, int]:
    """A rational as its numerator and positive denominator."""
    if isinstance(doc, bool):
        raise DocumentError(path, "expected a rational, got a boolean")
    if isinstance(doc, int):
        return doc, 1
    if isinstance(doc, list) and len(doc) == 2 and all(_is_int(v) for v in doc):
        n, d = doc
        if d == 0:
            raise DocumentError(path, "zero denominator")
        return (n, d) if d > 0 else (-n, -d)
    raise DocumentError(path, "expected an integer or a [numerator, denominator] pair")


def _pair_to_json(v: Pair, d: int) -> dict:
    """The vector (x + iy)/d of a pair (x, y) and a denominator d > 0."""
    g, h = gcd(v[0], d), gcd(v[1], d)
    return {"re": [v[0] // g, d // g], "im": [v[1] // h, d // h]}


def _qqi_to_json(z: QQi) -> dict:
    return _pair_to_json((z._x, z._y), z._d)


def _qqi_from_json(doc: object, path: str) -> QQi:
    if isinstance(doc, dict):
        if extra := set(doc) - {"re", "im"}:
            raise DocumentError(path, f"unexpected fields {sorted(extra)}")
        x, p = _frac_from_json(doc.get("re", 0), path + ".re")
        y, q = _frac_from_json(doc.get("im", 0), path + ".im")
        return QQi._of(x * q, y * p, p * q)
    x, p = _frac_from_json(doc, path)
    return QQi._of(x, 0, p)


def _residues_from_json(doc: object, path: str) -> tuple[QQi, ...]:
    if not isinstance(doc, list):
        raise DocumentError(path, "expected a list")
    return tuple(_qqi_from_json(v, f"{path}[{k}]") for k, v in enumerate(doc))
