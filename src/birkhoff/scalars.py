"""Exact coefficient arithmetic.

Two value classes carry every coefficient of the library:

* ``GaussianRational`` for values in Q(i), the field actually used by the
  numeric pipelines (frequencies may be imaginary);
* ``SymScalar`` for polynomials with rational coefficients in one
  indeterminate per input coefficient, used by the structure checker.

Both store plain integers over one positive denominator, in lowest terms:
a ``GaussianRational`` is the triple (a, b, d) meaning (a + b i)/d with
gcd(a, b, d) = 1, and a ``SymScalar`` maps each exponent tuple to an
integer numerator over one shared ``den``.  Equal values therefore have
equal fields, so ``==`` and ``hash`` compare fields.  A real value is just
b = 0, and a product of two reals multiplies only the a's and the d's.

A series does not hold these values: it keeps integer numerators over one
denominator, and a complex numerator is a ``GaussianInteger`` and a real
one a plain ``int``.  Series sums and products pack a complex numerator
into one ``int`` and read the result back, so ``GaussianInteger``
arithmetic is left to the eigenvalue factors of the termwise operators
and to the product loop of ``onedof.compute_S``.  A series over a
``SymRing`` holds only ``int`` numerators, with each indeterminate
monomial packed into its key, so the series kernel does no ``SymScalar``
arithmetic; ``SymScalar`` values are what a series is built from and what
its ``terms`` view reads back.

Values answer for their own arithmetic: ``+ - *``, ``is_zero`` and
``scaled(q)`` by an int or ``Fraction``.  A ``SymScalar`` may also be
multiplied by a real ``GaussianRational`` (an eigenvalue or its inverse).
Only a ``GaussianRational`` has ``inverse()``: no code divides by a
symbolic value.  The components are read as ``Fraction`` through
``re``/``im`` and ``terms``; text and JSON are written from the integers.  The public
``SymScalar`` constructor checks the arity and sign of every exponent key
of a nonzero term; arithmetic results skip that check, because their keys
are sums of keys already checked.  A
:class:`CoefficientRing` only names the domain a series lives in: it holds
the constants ``zero`` and ``one`` and renders values as text and JSON.
No floating point exists anywhere: the constructors accept only ``int``
and ``Fraction`` values.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import ParseError, UsageError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") into a Fraction.  Accepts U+2212 for minus."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    cleaned = text.strip().replace("−", "-")
    if not _RATIONAL_RE.match(cleaned):
        raise ParseError(f"malformed rational {text!r}; expected integer or p/q")
    try:
        return Fraction(cleaned)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in rational {text!r}") from None
    except ValueError:
        raise ParseError(
            f"rational literal of {len(cleaned)} characters exceeds the "
            f"interpreter's {sys.get_int_max_str_digits()}-digit limit for integers"
        ) from None


def _ratio_text(num: int, den: int) -> str:
    """Render num/den (den > 0) in lowest terms as "p/q", or "p" when q is 1.

    This is the one place where a rational becomes text.  A numerator or
    denominator past the interpreter's integer-to-text digit limit is
    refused with a usage error; the limit itself is process-wide and stays
    as it is.
    """
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise UsageError(
            "a coefficient has more digits than the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit limit for writing an integer"
        ) from None


def join_terms(terms: Iterable[str]) -> str:
    """Rendered terms as one sum: " - t" for a term "-t", " + t" otherwise.

    No terms make "0".
    """
    parts = list(terms)
    if not parts:
        return "0"
    text = parts[0]
    for term in parts[1:]:
        text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return text


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", omitting the denominator when it is 1."""
    return _ratio_text(value.numerator, value.denominator)


def _require_rational(value: object) -> None:
    # floats and strings are rejected: exactness is the whole point
    if not isinstance(value, (int, Fraction)):
        raise UsageError(
            f"expected an int or Fraction component, got {type(value).__name__}"
        )


def _ratio_of(q: int | Fraction) -> tuple[int, int]:
    """A scaling factor as (numerator, denominator > 0)."""
    if isinstance(q, int):
        return q, 1
    _require_rational(q)
    return q.numerator, q.denominator


_new = object.__new__


class GaussianRational:
    """An element (a + b i)/d of Q(i), kept as integers in lowest terms.

    d > 0 and gcd(a, b, d) = 1; zero is (0, 0, 1).  Instances are immutable
    by convention: no method assigns a field after construction.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction, im: int | Fraction):
        _require_rational(re)
        _require_rational(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # both parts are in lowest terms, so over the lcm the triple is too
        d = lcm(q, s)
        self.a, self.b, self.d = p * (d // q), r * (d // s), d

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_real(self) -> bool:
        return not self.b

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self.d, other.d
        if d == f:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self.d, other.d
        if d == f:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __neg__(self) -> "GaussianRational":
        return _reduced(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        if not b and not e:
            return _reduced(a * c, 0, self.d * other.d)
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    def scaled(self, q: int | Fraction) -> "GaussianRational":
        if isinstance(q, int):
            return _reduced(self.a * q, self.b * q, self.d)
        num, den = _ratio_of(q)
        return _reduced(self.a * num, self.b * num, self.d * den)

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _reduced(d * a, -d * b, norm)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio_text(a, d)
        if not a:
            return f"{_ratio_text(b, d)}i"
        sign = "+" if b > 0 else "-"
        return f"{_ratio_text(a, d)}{sign}{_ratio_text(abs(b), d)}i"

    def to_json(self) -> dict:
        return {"re": _ratio_text(self.a, self.d), "im": _ratio_text(self.b, self.d)}

    @staticmethod
    def from_json(obj: object) -> "GaussianRational":
        """Parse {"re": "p/q", "im": "p/q"}; a bare string means a real value."""
        if isinstance(obj, str):
            return GaussianRational(parse_rational(obj), 0)
        if isinstance(obj, Mapping):
            unknown = set(obj) - {"re", "im"}
            if unknown:
                raise ParseError(f"unknown keys {sorted(unknown)} in coefficient object")
            re_part = parse_rational(obj["re"]) if "re" in obj else 0
            im_part = parse_rational(obj["im"]) if "im" in obj else 0
            return GaussianRational(re_part, im_part)
        raise ParseError(f"expected a coefficient object or string, got {obj!r}")


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d for d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    value = _new(GaussianRational)
    value.a = a
    value.b = b
    value.d = d
    return value


GAUSSIAN_ZERO = GaussianRational.of(0)
GAUSSIAN_ONE = GaussianRational.of(1)


class GaussianInteger:
    """A Gaussian integer a + b i with b != 0, the numerator of a complex value.

    A real numerator is a plain ``int``: every operation returns an int when
    the imaginary part vanishes, so ints and Gaussian integers mix freely
    and each value has one form.
    """

    __slots__ = ("re", "im")

    def __add__(self, other: "int | GaussianInteger") -> "int | GaussianInteger":
        if type(other) is int:
            return _gaussian(self.re + other, self.im)
        return gaussian_integer(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other: "int | GaussianInteger") -> "int | GaussianInteger":
        if type(other) is int:
            return gaussian_integer(self.re * other, self.im * other)
        if type(other) is GaussianInteger:
            a, b, c, d = self.re, self.im, other.re, other.im
            return gaussian_integer(a * c - b * d, a * d + b * c)
        return NotImplemented

    __rmul__ = __mul__

    def __floordiv__(self, k: int) -> "GaussianInteger":
        """Exact division by an int that divides both parts."""
        return _gaussian(self.re // k, self.im // k)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is GaussianInteger and self.re == other.re and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianInteger({self.re}, {self.im})"


def _gaussian(a: int, b: int) -> GaussianInteger:
    """a + b i for b != 0."""
    value = _new(GaussianInteger)
    value.re = a
    value.im = b
    return value


def gaussian_integer(a: int, b: int) -> "int | GaussianInteger":
    """a + b i as a numerator: the int a when b is 0."""
    return _gaussian(a, b) if b else a


def _check_arity(nvars: int, exponents: tuple[int, ...]) -> None:
    if len(exponents) != nvars:
        raise UsageError(
            f"symbolic monomial arity {len(exponents)} does not match ring arity {nvars}"
        )


class SymScalar:
    """A polynomial with rational coefficients in abstract indeterminates.

    Terms are stored sparsely as integer numerators ``nums`` (exponent tuple
    -> nonzero int) over one denominator ``den`` > 0, in lowest terms:
    gcd(den, *nums) = 1, and zero is ({}, 1).  ``terms`` is the same
    polynomial as exponent tuple -> Fraction.  Which indeterminate each
    position refers to is the owning ring's business; this class only needs
    the arity.  Instances are immutable by convention: no method mutates
    ``nums`` after construction.
    """

    __slots__ = ("nvars", "nums", "den")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int | Fraction]):
        den = 1
        for coeff in terms.values():
            _require_rational(coeff)
            den = lcm(den, coeff.denominator)
        nums = {
            exponents: coeff.numerator * (den // coeff.denominator)
            for exponents, coeff in terms.items()
            if coeff
        }
        _check_keys(nvars, nums)
        _fill(self, nvars, nums, den)

    @staticmethod
    def zero(nvars: int) -> "SymScalar":
        return SymScalar(nvars, {})

    @staticmethod
    def constant(nvars: int, value: int | Fraction) -> "SymScalar":
        return SymScalar(nvars, {(0,) * nvars: value})

    @staticmethod
    def indeterminate(nvars: int, index: int) -> "SymScalar":
        exponents = tuple(1 if j == index else 0 for j in range(nvars))
        return SymScalar(nvars, {exponents: 1})

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        den = self.den
        return {exponents: Fraction(num, den) for exponents, num in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def _require_same(self, other: "SymScalar") -> None:
        if not isinstance(other, SymScalar) or other.nvars != self.nvars:
            raise UsageError("symbolic values from different rings cannot be combined")

    def _combined(self, other: "SymScalar", sign: int) -> "SymScalar":
        """self + sign * other, over the lcm of the two denominators."""
        self._require_same(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            merged = dict(self.nums)
            factor = sign
        else:
            g = gcd(d1, d2)
            scale = d2 // g
            merged = {exponents: num * scale for exponents, num in self.nums.items()}
            factor = sign * (d1 // g)
            d1 *= scale
        get = merged.get
        for exponents, num in other.nums.items():
            merged[exponents] = get(exponents, 0) + num * factor
        return _fill(_new(SymScalar), self.nvars, merged, d1)

    def __add__(self, other: "SymScalar") -> "SymScalar":
        return self._combined(other, 1)

    def __sub__(self, other: "SymScalar") -> "SymScalar":
        return self._combined(other, -1)

    def __neg__(self) -> "SymScalar":
        # negation keeps every numerator nonzero and the gcd unchanged
        value = _new(SymScalar)
        value.nvars = self.nvars
        value.nums = {exponents: -num for exponents, num in self.nums.items()}
        value.den = self.den
        return value

    def __mul__(self, other: "SymScalar | GaussianRational") -> "SymScalar":
        if isinstance(other, GaussianRational):
            if other.b:
                raise UsageError(
                    "symbolic mode supports only real rational frequencies; "
                    f"got eigenvalue {other}"
                )
            return self._times(other.a, other.d)
        self._require_same(other)
        product: dict[tuple[int, ...], int] = {}
        get = product.get
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                key = tuple(map(add, e1, e2))
                product[key] = get(key, 0) + c1 * c2
        return _fill(_new(SymScalar), self.nvars, product, self.den * other.den)

    def _times(self, num: int, den: int) -> "SymScalar":
        """self * num/den for den > 0."""
        if not num:
            return SymScalar.zero(self.nvars)
        scaled = {exponents: c * num for exponents, c in self.nums.items()}
        return _lowest(_new(SymScalar), self.nvars, scaled, self.den * den)

    def scaled(self, q: int | Fraction) -> "SymScalar":
        return self._times(*_ratio_of(q))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lexicographic order on the exponent vectors."""
        den = self.den
        return [(exponents, Fraction(num, den)) for exponents, num in self._sorted_nums()]

    def _sorted_nums(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.nums.items(), key=lambda item: (sum(item[0]), item[0]))

    def evaluate(self, values: Sequence[GaussianRational]) -> GaussianRational:
        """Substitute a numeric value for each indeterminate."""
        if len(values) != self.nvars:
            raise UsageError("substitution length does not match ring arity")
        total = GAUSSIAN_ZERO
        for exponents, coeff in self.terms.items():
            factor = GAUSSIAN_ONE
            for value, power in zip(values, exponents):
                for _ in range(power):
                    factor = factor * value
            total = total + factor.scaled(coeff)
        return total

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymScalar)
            and other.nvars == self.nvars
            and other.den == self.den
            and other.nums == self.nums
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        return f"SymScalar({self.nvars}, {dict(self.sorted_terms())!r})"


def _check_keys(nvars: int, keys) -> None:
    """Refuse the first key of another arity or with a negative exponent."""
    # one pass over all keys; the loop below names the first bad one
    if keys and (set(map(len, keys)) != {nvars} or (nvars and min(map(min, keys)) < 0)):
        for exponents in keys:
            _check_arity(nvars, exponents)
            if min(exponents, default=0) < 0:
                raise UsageError(f"negative exponent in symbolic monomial {exponents}")


def _fill(value: SymScalar, nvars: int, nums: dict, den: int) -> SymScalar:
    """Set value's fields to nums/den, zeros dropped, in lowest terms.

    The keys are trusted: the public constructor checks them first, and
    arithmetic builds them from keys already checked.
    """
    return _lowest(value, nvars, {exponents: num for exponents, num in nums.items() if num}, den)


def _lowest(value: SymScalar, nvars: int, nums: dict, den: int) -> SymScalar:
    """``_fill`` for numerators already known to be nonzero."""
    g = gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {exponents: num // g for exponents, num in nums.items()}
    value.nvars = nvars
    value.nums = nums
    value.den = den
    return value


class CoefficientRing:
    """The domain a series' values live in.

    Values do their own arithmetic; the ring supplies the constants, the
    number ``nvars`` of indeterminates (none over Q(i)) and renders values
    as text and JSON.
    """

    zero: object
    one: object
    nvars = 0

    def render(self, value) -> str:
        """Text form as a factor: a sum of terms goes in parentheses."""
        raise NotImplementedError

    def render_plain(self, value) -> str:
        """Standalone text form, no grouping parentheses."""
        raise NotImplementedError

    def value_to_json(self, value):
        raise NotImplementedError


class GaussianRing(CoefficientRing):
    """The field Q(i); the numeric coefficient ring."""

    def __init__(self) -> None:
        self.zero = GAUSSIAN_ZERO
        self.one = GAUSSIAN_ONE

    def render(self, value: GaussianRational) -> str:
        text = str(value)
        if value.a and value.b:
            return f"({text})"
        return text

    def render_plain(self, value: GaussianRational) -> str:
        return str(value)

    def value_to_json(self, value: GaussianRational) -> dict:
        return value.to_json()


GAUSSIAN_RING = GaussianRing()

ExponentPairKey = tuple[tuple[int, ...], tuple[int, ...]]


class SymRing(CoefficientRing):
    """Polynomials in one indeterminate per input coefficient.

    ``labels`` fixes the indeterminate order: position j stands for the input
    coefficient at exponent pair ``labels[j]``.  Coefficients of the
    polynomials are plain rationals, so a value can only be multiplied by a
    real eigenvalue; the symbolic pipeline therefore requires a real
    rational frequency vector.
    """

    def __init__(self, labels: Sequence[ExponentPairKey]):
        ordered = tuple(labels)
        if len(set(ordered)) != len(ordered):
            raise UsageError("duplicate exponent pair among symbolic indeterminates")
        self.labels = ordered
        self.nvars = len(ordered)
        self.index = {label: j for j, label in enumerate(ordered)}
        self.zero = SymScalar.zero(self.nvars)
        self.one = SymScalar.constant(self.nvars, 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymRing) and other.labels == self.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def indeterminate(self, label: ExponentPairKey) -> SymScalar:
        if label not in self.index:
            raise UsageError(f"no indeterminate for exponent pair {label}")
        return SymScalar.indeterminate(self.nvars, self.index[label])

    def _label_text(self, position: int) -> str:
        alpha, beta = self.labels[position]
        return "h[%s;%s]" % (",".join(map(str, alpha)), ",".join(map(str, beta)))

    def render(self, value: SymScalar) -> str:
        text = self.render_plain(value)
        return f"({text})" if len(value.nums) > 1 else text

    def render_plain(self, value: SymScalar) -> str:
        parts: list[str] = []
        for exponents, num in value._sorted_nums():
            factors = []
            for position, power in enumerate(exponents):
                if power == 0:
                    continue
                text = self._label_text(position)
                factors.append(text if power == 1 else f"{text}^{power}")
            body = "*".join(factors)
            coeff = _ratio_text(num, value.den)
            parts.append(coeff if not body else f"{coeff}*{body}")
        return join_terms(parts)

    def value_to_json(self, value: SymScalar) -> list:
        rows = []
        for exponents, num in value._sorted_nums():
            factors = []
            for position, power in enumerate(exponents):
                if power == 0:
                    continue
                alpha, beta = self.labels[position]
                factors.append(
                    {"alpha": list(alpha), "beta": list(beta), "power": power}
                )
            rows.append({"coeff": _ratio_text(num, value.den), "factors": factors})
        return rows


def evaluation_map(ring: SymRing, values: Mapping[ExponentPairKey, GaussianRational]) -> list[GaussianRational]:
    """Arrange a pair->value mapping in the ring's indeterminate order."""
    missing = [label for label in ring.labels if label not in values]
    if missing:
        raise UsageError(f"missing substitution values for {missing}")
    return [values[label] for label in ring.labels]
