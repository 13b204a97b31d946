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
   kept, and keeps only the terms that can still reach S through w^wmax.
   One joint cut decides that: a term of degree d and charge c = a - b
   (for x^a y^b) is kept iff |c| <= r (2(wmax + m - 1) - d), with r the
   largest |charge| / (degree - 2) over H_*.  Each further factor of
   degree delta uses delta - 2 of that degree slack and moves the charge
   by at most r (delta - 2), and a diagonal term has charge 0, so the cut
   drops nothing S needs; when H_* holds every cubic and quartic, it keeps
   exactly the terms that reach S.  The terms of H_* are
   grouped by degree and sorted by charge, so each term of a power
   multiplies only the charge window the cut keeps, found by bisection.
   Each power costs one gcd.  The average and its derivative are read
   straight off the diagonal terms.
3. ``nf_from_S`` recovers the normal form nu(z) = lambda z + N_2 z^2 + ...
   as nu = lambda (id - c S)^{-1}.  The inverse psi of u - c S(u) is the
   Lagrange-inversion partition sum (``partition_normal_form``), grouped
   by the number of parts into one table for every degree, so it costs a
   polynomial number of ring operations.  It is then certified by
   composition: psi - c S(psi) must be u through the order, read off the
   powers psi^k, each one kernel product from the last.  u - c S(u) has
   linear coefficient 1, so its inverse is unique and the check proves
   psi right rather than comparing two formulas; a mismatch raises
   ``InternalCheckError`` with a full diagnostic.

The constant c fixes the convention:

* ``convention="proof"`` (default):  c = 1/lambda
* ``convention="stated"``:           c = -1

The default is the one validated by exact agreement with the two other
pipelines; the alternative is kept for comparison and fails that agreement.

Steps 2 and 3 run over either coefficient ring: over a ``SymRing`` the
result writes each N_k as a polynomial in the input coefficients, for a
real lambda.  Only 1/lambda stays numeric.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

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
    """Truncated power series in the scalar variable w = x y.

    A w-series of order o is stored as its diagonal: the one-DOF
    ``PolySeries`` of order 2 o that holds w^k as the term x^k y^k.  Sums,
    scalings and products are those of the shared kernel, in content form.
    """

    __slots__ = ("order", "diagonal")

    def __init__(
        self,
        order: int,
        ring: CoefficientRing = GAUSSIAN_RING,
        coeffs: dict[int, object] | None = None,
    ):
        if order < 0:
            raise UsageError(f"truncation order must be non-negative, got {order}")
        terms = {}
        for k, value in (coeffs or {}).items():
            if k < 0:
                raise UsageError(f"negative w-power {k}")
            terms[ExponentPair((k,), (k,))] = value
        self.order = order
        self.diagonal = PolySeries(1, 2 * order, ring, terms)

    @staticmethod
    def zero(order: int, ring: CoefficientRing = GAUSSIAN_RING) -> "WSeries":
        return WSeries(order, ring)

    @property
    def ring(self) -> CoefficientRing:
        return self.diagonal.ring

    def _require_compatible(self, other: "WSeries") -> None:
        if not isinstance(other, WSeries):
            raise UsageError(f"expected a WSeries, got {type(other).__name__}")
        if other.order != self.order:
            raise UsageError(
                f"truncation order mismatch: {self.order} vs {other.order}; "
                "re-truncate explicitly with with_order()"
            )

    def __add__(self, other: "WSeries") -> "WSeries":
        self._require_compatible(other)
        return _view(self.diagonal + other.diagonal)

    def __sub__(self, other: "WSeries") -> "WSeries":
        self._require_compatible(other)
        return _view(self.diagonal - other.diagonal)

    def __mul__(self, other: "WSeries") -> "WSeries":
        self._require_compatible(other)
        return _view(self.diagonal * other.diagonal)

    def scale(self, q: Fraction) -> "WSeries":
        return _view(self.diagonal.scale(q))

    def scale_by_gaussian(self, g: GaussianRational) -> "WSeries":
        if g.is_real:
            return self.scale(g.re)
        # ring.one * g refuses a complex g over a SymRing
        return self * WSeries(self.order, self.ring, {0: self.ring.one * g})

    def derivative(self) -> "WSeries":
        return WSeries(
            max(0, self.order - 1),
            self.ring,
            {k - 1: v.scaled(k) for k, v in self.sorted_items() if k >= 1},
        )

    def with_order(self, order: int) -> "WSeries":
        return WSeries(order, self.ring, dict(self.sorted_items()))

    def coefficient(self, k: int):
        return self.diagonal.coefficient(ExponentPair((k,), (k,)))

    @property
    def is_zero(self) -> bool:
        return self.diagonal.is_zero

    def min_degree(self) -> int | None:
        degree = self.diagonal.min_degree()
        return None if degree is None else degree // 2

    def sorted_items(self) -> list[tuple[int, object]]:
        return [(pair.alpha[0], value) for pair, value in self.diagonal.terms.items()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WSeries):
            return NotImplemented
        return other.diagonal == self.diagonal

    def __hash__(self) -> int:
        return hash(self.diagonal)

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
        return self.diagonal.with_order(order)


def _view(diagonal: PolySeries) -> WSeries:
    """The w-series whose diagonal is the given kernel result."""
    series = object.__new__(WSeries)
    series.order = diagonal.order // 2
    series.diagonal = diagonal
    return series


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
    only the terms that can still reach such a diagonal term, by one cut
    that drops nothing S needs.  A term of degree d and charge c = a - b
    (for x^a y^b) has the degree slack 2(wmax + m - 1) - d: a further
    factor of degree delta adds delta to the degree and 2 to the bound of
    the later power, so it uses delta - 2 >= 1 of the slack, and it moves
    the charge by at most r (delta - 2), with r the largest
    |charge| / (degree - 2) over the terms of H_*.  A diagonal term has
    charge 0, so a term that reaches one has slack >= 0 and
    |c| <= r * slack.  The cut keeps the terms that pass both tests,
    compared in integers with r = p/q.  When H_* holds every cubic and
    quartic (r = 3), these are exactly the terms that reach S: the cubics
    alone move the charge by any amount of the right parity up to 3 per
    unit of slack.  The cut also ends the powers: power m has degree at
    least 3m, so past mmax = 2 wmax - 2 no term has slack.

    The terms of H_* are grouped by degree, and each group is sorted by
    charge, so each term of a power multiplies, in each group whose degree
    it can afford, only the window of charges the cut keeps: one bisect at
    each end, no test per pair.  Each power is a content-form series on
    the key layout of the working order 2(wmax + mmax - 1), whose fields
    hold every degree kept, and is closed with one gcd; the same loop
    serves both coefficient rings, and S comes out over the input's ring,
    ready for ``nf_from_S``.
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
    by_degree: dict[int, list] = {}
    for key, value in tail.nums.items():
        by_degree.setdefault(key >> top, []).append((charge(key), key, value))
    # (degree, charges ascending, the (key, numerator) terms in that order)
    groups = []
    for degree, rows in sorted(by_degree.items()):
        rows.sort()
        groups.append((degree, [c for c, _, _ in rows], [(k, v) for _, k, v in rows]))
    # r = p/q, the largest |charge| / (degree - 2) over the groups' ends
    p, q = 0, 1
    for degree, charges, _ in groups:
        largest = max(-charges[0], charges[-1])
        if largest * q > p * (degree - 2):
            p, q = largest, degree - 2
    lam_inv = lam.inverse()
    lam_power = GaussianRational.of(1)
    coeffs: dict[int, object] = {}
    power = h._make({0: 1}, 1)
    for m in range(1, mmax + 1):
        bound = 2 * (wmax + m - 1)
        out: dict[int, object] = {}
        get = out.get
        for k1, v1 in power.nums.items():
            room = bound - (k1 >> top)
            c1 = (k1 >> x_shift & mask) - (k1 >> y_shift & mask)
            for degree, charges, terms in groups:
                slack = room - degree
                if slack < 0:
                    break
                reach = p * slack // q
                window = terms[
                    bisect_left(charges, -reach - c1):bisect_right(charges, reach - c1)
                ]
                for k2, v2 in window:
                    key = k1 + k2
                    piece = v1 * v2
                    known = get(key)
                    out[key] = piece if known is None else known + piece
        power = power._make(out, power.den * tail.den)
        if power.is_zero:
            break
        weight = Fraction((-1) ** (m - 1), math.factorial(m))
        # a diagonal term of power m has 2a >= 3m, so a >= 2 and a >= m - 1;
        # the cut gives j <= wmax
        diagonal = {
            key: num for key, num in power.nums.items()
            if not (key >> x_shift ^ key >> y_shift) & mask
        }
        for pair, value in power._make(diagonal, power.den).terms.items():
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


def partition_normal_form(s_series: WSeries) -> WSeries:
    """The inverse of u - T(u) through T's order, by the partition sum.

    With T = s_series = sum_{k>=2} T_k u^k, Lagrange inversion gives [u^m]
    of the inverse as the sum over multisets {alpha_k} with
    sum (k-1) alpha_k = m - 1 of

        (m - 1 + |alpha|)! / (alpha! m!) * prod T_k^{alpha_k}.

    The weight depends on alpha only through p = |alpha|, so the sum is
    grouped by p: [u^m] = sum_p (m - 1 + p)!/m! E[m - 1][p], where E[j][p]
    sums prod T_k^{alpha_k}/alpha_k! over the alpha with
    sum (k-1) alpha_k = j and |alpha| = p.  The table is filled one k at a
    time, E[j][p] += E[j - (k-1) a][p - a] T_k^a/a! for a >= 1, with j
    descending so that each read is of the table before k; it serves every
    m at once.  The terms are those of the partition sum, only regrouped,
    and the arithmetic is that of the ring's values.  A T with a constant
    or linear term is a ``UsageError``.
    """
    order, ring = s_series.order, s_series.ring
    if not (s_series.coefficient(0).is_zero and s_series.coefficient(1).is_zero):
        raise UsageError("the partition formula needs a series that starts at u^2")
    table: list[dict[int, object]] = [{} for _ in range(order)]
    if order:
        table[0][0] = ring.one
    for k, value in s_series.sorted_items():
        step = k - 1
        # powers[a] = T_k^a / a!
        powers = [ring.one]
        for a in range(1, (order - 1) // step + 1):
            powers.append((powers[-1] * value).scaled(Fraction(1, a)))
        for j in range(order - 1, step - 1, -1):
            row = table[j]
            for a in range(1, j // step + 1):
                factor = powers[a]
                for p, entry in table[j - a * step].items():
                    piece = entry * factor
                    row[p + a] = row[p + a] + piece if p + a in row else piece
    coeffs = {}
    for m in range(1, order + 1):
        total = ring.zero
        # (m - 1 + p)!/m! is an integer: p >= 1, or p = 0 and m = 1
        for p, entry in table[m - 1].items():
            total = total + entry.scaled(math.factorial(m - 1 + p) // math.factorial(m))
        coeffs[m] = total
    return WSeries(order, ring, coeffs)


def nf_from_S(
    s_series: WSeries, lam: GaussianRational, convention: str = "proof"
) -> WSeries:
    """Recover nu = lambda (id - c S)^{-1} from S, as a series in w.

    c is 1/lambda under the "proof" convention and -1 under "stated".
    Coefficient 1 of the result is lambda, coefficient k >= 2 is N_k.  The
    inverse psi of u - c S(u) is ``partition_normal_form(c S)``, so an S
    with a w^1 term is a ``UsageError``.  psi is certified by composition:
    the residue r = psi - c S(psi) is read degree by degree off the powers
    psi^k, and must be u through the order; otherwise InternalCheckError
    names the first bad degree.  S may be over either coefficient ring;
    over a SymRing lambda must be real.
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
    psi = partition_normal_form(cs)
    nu = psi.scale_by_gaussian(lam)
    residue = dict(psi.sorted_items())
    power, exponent = psi, 1
    for k, t in cs.sorted_items():
        while exponent < k:
            power, exponent = power * psi, exponent + 1
        for m, value in power.sorted_items():
            piece = t * value
            residue[m] = residue[m] - piece if m in residue else -piece
    for m in range(order + 1):
        value = residue.get(m, ring.zero)
        if value != (ring.one if m == 1 else ring.zero):
            raise InternalCheckError(
                f"composition check failed at degree {m}: psi - c S(psi) has "
                f"coefficient {ring.render_plain(value)}, expected {int(m == 1)}; "
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
