"""Exact coefficient arithmetic.

Two value classes carry every coefficient of the library:

* ``GaussianRational`` for values in Q(i), the field actually used by the
  numeric pipelines (frequencies may be imaginary);
* ``SymScalar`` for polynomials with rational coefficients in one
  indeterminate per input coefficient, used by the structure checker.

Values answer for their own arithmetic: ``+ - *``, ``is_zero`` and
``scaled(q)`` by a rational.  ``GaussianRational`` has a fast path for
real values: when every imaginary part involved is zero, ``+ - *`` and
``scaled`` do one ``Fraction`` operation, so real problems pay almost
nothing for the complex field.  A ``SymScalar`` may also be multiplied by a
real ``GaussianRational`` (an eigenvalue or its inverse).  A
:class:`CoefficientRing` only names the domain a series lives in: it holds
the constants ``zero`` and ``one`` and renders values as text and JSON.
No floating point exists anywhere.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

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


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", omitting the denominator when it is 1.

    This is the one place where a rational becomes text.  A numerator or
    denominator past the interpreter's integer-to-text digit limit is
    refused with a usage error; the limit itself is process-wide and stays
    as it is.
    """
    try:
        return str(value)
    except ValueError:
        raise UsageError(
            "a coefficient has more digits than the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit limit for writing an integer"
        ) from None


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An element a + b*i of Q(i) with exact rational components."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "GaussianRational":
        # floats and strings are rejected: exactness is the whole point
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise UsageError(
                    f"expected an int or Fraction component, got {type(part).__name__}"
                )
        return GaussianRational(Fraction(re), Fraction(im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if not self.im and not other.im:
            return GaussianRational(self.re + other.re, self.im)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        if not self.im and not other.im:
            return GaussianRational(self.re - other.re, self.im)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re, self.im)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scaled(self, q: int | Fraction) -> "GaussianRational":
        if not self.im:
            return GaussianRational(self.re * q, self.im)
        return GaussianRational(self.re * q, self.im * q)

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        im_part = f"{format_rational(self.im)}i"
        if self.re == 0:
            return im_part
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}i"

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @staticmethod
    def from_json(obj: object) -> "GaussianRational":
        """Parse {"re": "p/q", "im": "p/q"}; a bare string means a real value."""
        if isinstance(obj, str):
            return GaussianRational(parse_rational(obj), Fraction(0))
        if isinstance(obj, Mapping):
            unknown = set(obj) - {"re", "im"}
            if unknown:
                raise ParseError(f"unknown keys {sorted(unknown)} in coefficient object")
            re_part = parse_rational(obj["re"]) if "re" in obj else Fraction(0)
            im_part = parse_rational(obj["im"]) if "im" in obj else Fraction(0)
            return GaussianRational(re_part, im_part)
        raise ParseError(f"expected a coefficient object or string, got {obj!r}")


GAUSSIAN_ZERO = GaussianRational.of(0)
GAUSSIAN_ONE = GaussianRational.of(1)


def _check_arity(nvars: int, exponents: tuple[int, ...]) -> None:
    if len(exponents) != nvars:
        raise UsageError(
            f"symbolic monomial arity {len(exponents)} does not match ring arity {nvars}"
        )


class SymScalar:
    """A polynomial with rational coefficients in abstract indeterminates.

    Terms are stored sparsely as exponent tuple -> Fraction.  Which
    indeterminate each position refers to is the owning ring's business; this
    class only needs the arity.  Instances are immutable by convention: no
    method mutates ``terms`` after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction]):
        self.nvars = nvars
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exponents, coeff in terms.items():
            if coeff == 0:
                continue
            _check_arity(nvars, exponents)
            if min(exponents, default=0) < 0:
                raise UsageError(f"negative exponent in symbolic monomial {exponents}")
            cleaned[exponents] = coeff
        self.terms = cleaned

    @staticmethod
    def zero(nvars: int) -> "SymScalar":
        return SymScalar(nvars, {})

    @staticmethod
    def constant(nvars: int, value: Fraction) -> "SymScalar":
        return SymScalar(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def indeterminate(nvars: int, index: int) -> "SymScalar":
        exponents = tuple(1 if j == index else 0 for j in range(nvars))
        return SymScalar(nvars, {exponents: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same(self, other: "SymScalar") -> None:
        if not isinstance(other, SymScalar) or other.nvars != self.nvars:
            raise UsageError("symbolic values from different rings cannot be combined")

    def __add__(self, other: "SymScalar") -> "SymScalar":
        self._require_same(other)
        merged = dict(self.terms)
        for exponents, coeff in other.terms.items():
            merged[exponents] = merged.get(exponents, Fraction(0)) + coeff
        return SymScalar(self.nvars, merged)

    def __neg__(self) -> "SymScalar":
        return SymScalar(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SymScalar") -> "SymScalar":
        return self + (-other)

    def __mul__(self, other: "SymScalar | GaussianRational") -> "SymScalar":
        if isinstance(other, GaussianRational):
            if not other.is_real:
                raise UsageError(
                    "symbolic mode supports only real rational frequencies; "
                    f"got eigenvalue {other}"
                )
            return self.scaled(other.re)
        self._require_same(other)
        product: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                product[key] = product.get(key, Fraction(0)) + c1 * c2
        return SymScalar(self.nvars, product)

    def scaled(self, q: int | Fraction) -> "SymScalar":
        if q == 0:
            return SymScalar.zero(self.nvars)
        return SymScalar(self.nvars, {e: c * q for e, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lexicographic order on the exponent vectors."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

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
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        return f"SymScalar({self.nvars}, {dict(self.sorted_terms())!r})"


class CoefficientRing:
    """The domain a series' values live in.

    Values do their own arithmetic; the ring supplies the constants and
    renders values as text and JSON.
    """

    zero: object
    one: object

    def render(self, value) -> str:
        raise NotImplementedError

    def render_plain(self, value) -> str:
        """Standalone text form, no grouping parentheses."""
        return self.render(value)

    def value_to_json(self, value):
        raise NotImplementedError


class GaussianRing(CoefficientRing):
    """The field Q(i); the numeric coefficient ring."""

    def __init__(self) -> None:
        self.zero = GAUSSIAN_ZERO
        self.one = GAUSSIAN_ONE

    def render(self, value: GaussianRational) -> str:
        text = str(value)
        if value.im != 0 and value.re != 0:
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
        self.one = SymScalar.constant(self.nvars, Fraction(1))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymRing) and other.labels == self.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def indeterminate(self, label: ExponentPairKey) -> SymScalar:
        if label not in self.index:
            raise UsageError(f"no indeterminate for exponent pair {label}")
        return SymScalar.indeterminate(self.nvars, self.index[label])

    def monomial_weight(self, exponents: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Multiplicity-weighted sum of the label exponent pairs, as (wx, wy)."""
        _check_arity(self.nvars, exponents)
        n = len(self.labels[0][0]) if self.labels else 0
        wx = [0] * n
        wy = [0] * n
        for power, (alpha, beta) in zip(exponents, self.labels):
            for j in range(n):
                wx[j] += power * alpha[j]
                wy[j] += power * beta[j]
        return tuple(wx), tuple(wy)

    def _label_text(self, position: int) -> str:
        alpha, beta = self.labels[position]
        return "h[%s;%s]" % (",".join(map(str, alpha)), ",".join(map(str, beta)))

    def render(self, value: SymScalar) -> str:
        if value.is_zero:
            return "0"
        parts: list[str] = []
        for exponents, coeff in value.sorted_terms():
            factors = []
            for position, power in enumerate(exponents):
                if power == 0:
                    continue
                text = self._label_text(position)
                factors.append(text if power == 1 else f"{text}^{power}")
            body = "*".join(factors)
            piece = format_rational(coeff) if not body else f"{format_rational(coeff)}*{body}"
            parts.append(piece)
        rendered = parts[0]
        for piece in parts[1:]:
            rendered += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return rendered

    def value_to_json(self, value: SymScalar) -> list:
        rows = []
        for exponents, coeff in value.sorted_terms():
            factors = []
            for position, power in enumerate(exponents):
                if power == 0:
                    continue
                alpha, beta = self.labels[position]
                factors.append(
                    {"alpha": list(alpha), "beta": list(beta), "power": power}
                )
            rows.append({"coeff": format_rational(coeff), "factors": factors})
        return rows


def evaluation_map(ring: SymRing, values: Mapping[ExponentPairKey, GaussianRational]) -> list[GaussianRational]:
    """Arrange a pair->value mapping in the ring's indeterminate order."""
    missing = [label for label in ring.labels if label not in values]
    if missing:
        raise UsageError(f"missing substitution values for {missing}")
    return [values[label] for label in ring.labels]
