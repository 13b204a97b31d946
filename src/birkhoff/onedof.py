"""Closed-form pipeline for one degree of freedom.

For n = 1 every non-diagonal monomial is non-resonant, so the normal form is
a power series in the single product w = x y.  This module computes it
without running the degree-by-degree recursion:

1. ``average`` projects a series onto its diagonal part, read as a series in
   w: the terms (xy)^a with a >= 2.
2. ``compute_S`` evaluates the invariant functional

       S[H] = sum_{m>=1} (-1)^{m-1} / (lambda^{m-1} m!) d_w^{m-1} <H_*^m>,

   where H_* is H minus its quadratic part.  S is invariant under formal
   symplectic changes of variables fixing the origin, which the property
   tests exercise by conjugating with random time-1 flows.  Each power
   H_*^m is a content-form ``PolySeries`` (integer numerators on packed
   keys over one denominator) on a key layout wide enough for every degree
   kept, and keeps only the terms that can still reach S through w^wmax:
   a degree cut, since every factor of H_* adds at least 3 to the degree,
   and a charge cut on |a - b| for x^a y^b, since each remaining factor
   moves the charge by at most the largest charge in H_*.  Both cuts act
   in the product loop, and each power costs one gcd.  The average and its
   derivative are read straight off the diagonal terms.
3. ``nf_from_S`` recovers the normal form nu(z) = lambda z + N_2 z^2 + ...
   as nu = lambda (id - c S)^{-1}: it reverts phi(u) = u - c S(u) with the
   Lagrange-Buermann coefficients g_s = (1/s) [u^{s-1}] (u / phi(u))^s.

The constant c fixes the convention:

* ``convention="proof"`` (default):  c = 1/lambda
* ``convention="stated"``:           c = -1

The default is the one validated by exact agreement with the two other
pipelines; the alternative is kept for comparison and fails that agreement.
Every coefficient of phi^{-1} is additionally cross-checked, term by term,
against an independent partition-sum formula in c S; any mismatch raises
``InternalCheckError`` with a full diagnostic.

Steps 2 and 3 run over either coefficient ring: over a ``SymRing`` the
result writes each N_k as a polynomial in the input coefficients, for a
real lambda.  Only 1/lambda stays numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InternalCheckError, UsageError
from .operators import FreqVector, validate_hamiltonian
from .scalars import (
    GAUSSIAN_ONE,
    GAUSSIAN_RING,
    CoefficientRing,
    GaussianRational,
    join_terms,
)
from .series import ExponentPair, PolySeries

CONVENTIONS = ("proof", "stated")


class WSeries:
    """Truncated power series in the scalar variable w."""

    __slots__ = ("order", "ring", "coeffs")

    def __init__(
        self,
        order: int,
        ring: CoefficientRing = GAUSSIAN_RING,
        coeffs: dict[int, object] | None = None,
    ):
        if order < 0:
            raise UsageError(f"truncation order must be non-negative, got {order}")
        self.order = order
        self.ring = ring
        cleaned: dict[int, object] = {}
        if coeffs:
            for k, value in coeffs.items():
                if k < 0:
                    raise UsageError(f"negative w-power {k}")
                if k > order or value.is_zero:
                    continue
                cleaned[k] = value
        self.coeffs = cleaned

    @staticmethod
    def zero(order: int, ring: CoefficientRing = GAUSSIAN_RING) -> "WSeries":
        return WSeries(order, ring)

    def _require_compatible(self, other: "WSeries") -> None:
        if not isinstance(other, WSeries):
            raise UsageError(f"expected a WSeries, got {type(other).__name__}")
        if other.order != self.order:
            raise UsageError(
                f"truncation order mismatch: {self.order} vs {other.order}; "
                "re-truncate explicitly with with_order()"
            )
        if other.ring is not self.ring and other.ring != self.ring:
            raise UsageError("coefficient ring mismatch")

    def __add__(self, other: "WSeries") -> "WSeries":
        self._require_compatible(other)
        merged = dict(self.coeffs)
        for k, value in other.coeffs.items():
            merged[k] = merged[k] + value if k in merged else value
        return WSeries(self.order, self.ring, merged)

    def __neg__(self) -> "WSeries":
        return WSeries(
            self.order, self.ring, {k: -v for k, v in self.coeffs.items()}
        )

    def __sub__(self, other: "WSeries") -> "WSeries":
        return self + (-other)

    def __mul__(self, other: "WSeries") -> "WSeries":
        self._require_compatible(other)
        out: dict[int, object] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                if k > self.order:
                    continue
                piece = v1 * v2
                out[k] = out[k] + piece if k in out else piece
        return WSeries(self.order, self.ring, out)

    def scale(self, q: Fraction) -> "WSeries":
        return WSeries(
            self.order, self.ring,
            {k: v.scaled(q) for k, v in self.coeffs.items()},
        )

    def scale_by_gaussian(self, g: GaussianRational) -> "WSeries":
        return WSeries(
            self.order, self.ring,
            {k: v * g for k, v in self.coeffs.items()},
        )

    def derivative(self) -> "WSeries":
        if self.order == 0:
            return WSeries(0, self.ring)
        return WSeries(
            self.order - 1,
            self.ring,
            {k - 1: v.scaled(k) for k, v in self.coeffs.items() if k >= 1},
        )

    def with_order(self, order: int) -> "WSeries":
        return WSeries(order, self.ring, dict(self.coeffs))

    def coefficient(self, k: int):
        return self.coeffs.get(k, self.ring.zero)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def min_degree(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def sorted_items(self) -> list[tuple[int, object]]:
        return sorted(self.coeffs.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WSeries):
            return NotImplemented
        return (
            other.order == self.order
            and (other.ring is self.ring or other.ring == self.ring)
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, tuple(sorted(self.coeffs))))

    def render(self) -> str:
        return join_terms(
            f"{self.ring.render(value)} " + ("1" if k == 0 else "w" if k == 1 else f"w^{k}")
            for k, value in self.sorted_items()
        )

    def __repr__(self) -> str:
        return f"WSeries(order={self.order}, {self.render()})"

    def to_rows(self) -> list[list[str]]:
        return [[str(k), self.ring.render_plain(v)] for k, v in self.sorted_items()]

    def diagonal_series(self, order: int) -> PolySeries:
        """This series at w = x y, in one degree of freedom, truncated at order."""
        return PolySeries(
            1, order, self.ring,
            {ExponentPair((k,), (k,)): v for k, v in self.coeffs.items()},
        )


def average(series: PolySeries) -> WSeries:
    """Diagonal projection <G> = sum_{a>=2} G_{aa} w^a (one degree of freedom)."""
    if series.n != 1:
        raise UsageError(
            f"averaging is defined for one degree of freedom, got n={series.n}"
        )
    out = {}
    for pair, value in series.terms.items():
        a = pair.alpha[0]
        if pair.beta[0] == a and a >= 2:
            out[a] = out[a] + value if a in out else value
    return WSeries(series.order // 2, series.ring, out)


def compute_S(
    hamiltonian: PolySeries, lam: GaussianRational, wmax: int
) -> WSeries:
    """The invariant series S[H] through w^wmax, exactly.

    The input is treated as an exact polynomial, whatever truncation order
    it was carried at.  Power m of H_* enters S through the diagonal terms
    (x y)^k of <H_*^m> with k <= wmax + m - 1, and each diagonal term gives
    one coefficient: d_w^{m-1} w^k = k!/(k-m+1)! w^{k-m+1}.  Power m keeps
    only the terms that can still reach such a diagonal term, by two cuts
    that drop nothing S needs:

    * degree at most 2(wmax + m - 1): every further factor of H_* adds at
      least 3 to the degree, while the bound of a later power grows by 2
      per factor;
    * charge |a - b| at most c_max (mmax - m), with c_max the largest
      |a - b| in H_*: each of the at most mmax - m remaining factors shifts
      the charge by at most c_max, and a diagonal term has charge 0.

    Each power is a content-form series on the key layout of the working
    order 2(wmax + mmax - 1), whose fields hold every degree kept.  The
    product loop multiplies numerators and applies both cuts pair by pair;
    the tail is sorted by key, so the degree cut ends a row.  Each power
    is closed with one gcd; the same loop serves both coefficient rings,
    and S comes out over the input's ring, ready for ``nf_from_S``.
    """
    if hamiltonian.n != 1:
        raise UsageError(
            f"this pipeline needs one degree of freedom, got n={hamiltonian.n}"
        )
    validate_hamiltonian(hamiltonian, FreqVector((lam,)))
    if wmax < 1:
        raise UsageError(f"wmax must be at least 1, got {wmax}")
    mmax = max(1, 2 * wmax - 2)
    h = hamiltonian.with_order(max(hamiltonian.order, 2 * (wmax + mmax - 1)))
    top, mask = h.layout.top, (1 << h.layout.width) - 1
    x_shift, y_shift = h.layout.shifts

    def charge(key: int) -> int:
        return (key >> x_shift & mask) - (key >> y_shift & mask)

    tail = h._select(lambda key: key >> top >= 3)
    rows = [(key, charge(key), value) for key, value in sorted(tail.nums.items())]
    cmax = max((abs(c) for _, c, _ in rows), default=0)
    lam_inv = lam.inverse()
    lam_power = GaussianRational.of(1)
    coeffs: dict[int, object] = {}
    power = h._make({0: 1}, 1)
    for m in range(1, mmax + 1):
        reach, bound = cmax * (mmax - m), 2 * (wmax + m - 1) + 1
        out: dict[int, object] = {}
        get = out.get
        for k1, v1 in power.nums.items():
            # a pair keeps degree < bound and charge c1 + c2 within reach
            limit = bound - (k1 >> top) << top
            c1 = charge(k1)
            low, high = -reach - c1, reach - c1
            for k2, c2, v2 in rows:
                if k2 >= limit:
                    break
                if not low <= c2 <= high:
                    continue
                key = k1 + k2
                piece = v1 * v2
                known = get(key)
                out[key] = piece if known is None else known + piece
        power = power._make(out, power.den * tail.den)
        if power.is_zero:
            break
        weight = Fraction((-1) ** (m - 1), math.factorial(m))
        # a diagonal term of power m has 2a >= 3m, so a >= 2 and a >= m - 1;
        # the degree cut gives j <= wmax
        for pair, value in power._select(lambda key: not charge(key)).terms.items():
            a = pair.alpha[0]
            piece = value.scaled(weight * math.perm(a, m - 1)) * lam_power
            j = a - m + 1
            coeffs[j] = coeffs[j] + piece if j in coeffs else piece
        lam_power = lam_power * lam_inv
    return WSeries(wmax, hamiltonian.ring, coeffs)


def is_linearizable(
    hamiltonian: PolySeries, lam: GaussianRational, wmax: int
) -> bool:
    """True iff S[H] vanishes identically through w^wmax."""
    return compute_S(hamiltonian, lam, wmax).is_zero


def invert_unit_series(coeffs: Sequence[object], order: int) -> list[object]:
    """Coefficients of 1 / (a_0 + a_1 u + ...) through u^order; a_0 != 0."""
    if not coeffs or coeffs[0].is_zero:
        raise UsageError("cannot invert a series with zero constant term")
    zero = coeffs[0].scaled(0)
    series = list(coeffs) + [zero] * (order + 1 - len(coeffs))
    lead_inv = series[0].inverse()
    out = [lead_inv]
    for k in range(1, order + 1):
        total = zero
        for i in range(1, k + 1):
            total = total + series[i] * out[k - i]
        out.append(-(lead_inv * total))
    return out


def revert_wseries(series: WSeries) -> WSeries:
    """Compositional inverse of a series with zero constant and nonzero linear term.

    Lagrange-Buermann: g_s = (1/s) [z^{s-1}] (z / f(z))^s, over the series'
    own ring.  The linear coefficient must be invertible there: over a
    SymRing, a nonzero constant.
    """
    if not series.coefficient(0).is_zero:
        raise UsageError("cannot revert a series with a constant term")
    if series.coefficient(1).is_zero:
        raise UsageError("cannot revert a series with zero linear coefficient")
    order, ring = series.order, series.ring
    line = [series.coefficient(k + 1) for k in range(order)]
    base = WSeries(order - 1, ring, dict(enumerate(invert_unit_series(line, order - 1))))
    power = WSeries(order - 1, ring, {0: ring.one})
    coeffs = {}
    for s in range(1, order + 1):
        power = power * base
        coeffs[s] = power.coefficient(s - 1).scaled(Fraction(1, s))
    return WSeries(order, ring, coeffs)


def _partitions(total: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of total into non-increasing parts >= 1."""
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for head in range(min(total, largest), 0, -1):
        for rest in _partitions(total - head, head):
            yield (head,) + rest


def partition_normal_form(s_series: WSeries, m: int) -> object:
    """Independent partition-sum value for [u^m] of the inverse of u - T(u).

    With T = s_series = sum_k T_k u^k (k >= 2), that coefficient is the sum
    over multisets {alpha_k} with sum (k-1) alpha_k = m - 1 of
    (m - 1 + |alpha|)! / (alpha! m!) * prod T_k^{alpha_k}.
    """
    if m < 2:
        raise UsageError(f"the partition formula starts at m=2, got m={m}")
    ring = s_series.ring
    total = ring.zero
    for parts in _partitions(m - 1):
        multiplicity: dict[int, int] = {}
        for p in parts:
            k = p + 1
            multiplicity[k] = multiplicity.get(k, 0) + 1
        size = len(parts)
        weight = Fraction(math.factorial(m - 1 + size), math.factorial(m))
        product = ring.one
        for k, count in multiplicity.items():
            weight /= math.factorial(count)
            coeff = s_series.coefficient(k)
            for _ in range(count):
                product = product * coeff
        if product.is_zero:
            continue
        total = total + product.scaled(weight)
    return total


def nf_from_S(
    s_series: WSeries, lam: GaussianRational, convention: str = "proof"
) -> WSeries:
    """Recover nu = lambda (id - c S)^{-1} from S, as a series in w.

    c is 1/lambda under the "proof" convention and -1 under "stated".
    Coefficient 1 of the result is lambda, coefficient k >= 2 is N_k.  Each
    coefficient of (id - c S)^{-1} is cross-checked against the
    partition-sum formula for c S; a mismatch raises InternalCheckError.
    S may be over either coefficient ring; over a SymRing lambda must be
    real.
    """
    if convention not in CONVENTIONS:
        raise UsageError(
            f"unknown convention {convention!r}; choose one of {CONVENTIONS}"
        )
    if lam.is_zero:
        raise UsageError("the frequency lambda must be nonzero")
    if not s_series.coefficient(0).is_zero:
        raise InternalCheckError("inverse series acquired a constant term")
    order, ring = s_series.order, s_series.ring
    c = lam.inverse() if convention == "proof" else -GAUSSIAN_ONE
    cs = s_series.scale_by_gaussian(c)
    inverse = revert_wseries(WSeries(order, ring, {1: ring.one}) - cs)
    nu = inverse.scale_by_gaussian(lam)
    if inverse.coefficient(1) != ring.one:
        raise InternalCheckError(
            f"reversion produced linear coefficient {ring.render_plain(nu.coefficient(1))}, "
            f"expected {lam}"
        )
    for m in range(2, order + 1):
        expected = partition_normal_form(cs, m)
        actual = inverse.coefficient(m)
        if expected != actual:
            raise InternalCheckError(
                "partition cross-check failed at degree "
                f"{m}: reversion gives {ring.render_plain(actual)}, "
                f"partition sum gives {ring.render_plain(expected)}; "
                f"S = {s_series.render()}, nu = {nu.render()}"
            )
    return nu


@dataclass(frozen=True)
class OneDofResult:
    """Full output of the closed-form pipeline."""

    s_series: WSeries
    nu: WSeries
    normal_form: PolySeries


def onedof_normal_form(
    hamiltonian: PolySeries,
    lam: GaussianRational,
    convention: str = "proof",
) -> OneDofResult:
    """Normal form of a 1-DOF Hamiltonian through its truncation order."""
    order = hamiltonian.order
    s_series = compute_S(hamiltonian, lam, max(1, order // 2))
    nu = nf_from_S(s_series, lam, convention)
    return OneDofResult(s_series=s_series, nu=nu, normal_form=nu.diagonal_series(order))
