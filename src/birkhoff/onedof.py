"""Closed-form pipeline for one degree of freedom.

For n = 1 every non-diagonal monomial is non-resonant, so the normal form is
a power series in the single product w = x y.  This module computes it
without running the degree-by-degree recursion, as one Lagrange-Buermann
functional applied twice:

    L_q[X] = sum_{m>=1} q^{m-1}/m! d_w^{m-1} <X^m>,

where X is the part of degree >= 3 of a one-DOF series and ``average``,
<.>, projects a series onto its diagonal part, read as a series in w: the
terms (xy)^a with a >= 2.

1. ``compute_S`` evaluates the invariant functional S[H] = L_q[H_*] with
   q = -1/lambda,

       S[H] = sum_{m>=1} (-1)^{m-1} / (lambda^{m-1} m!) d_w^{m-1} <H_*^m>,

   where H_* is H minus its quadratic part.  S is invariant under formal
   symplectic changes of variables fixing the origin, which the property
   tests exercise by conjugating with random time-1 flows.
2. ``nf_from_S`` recovers the normal form nu(z) = lambda z + N_2 z^2 + ...
   as nu = lambda (id - c S)^{-1}.  The inverse psi of u - T(u), T = c S,
   is u + L_1[T(x y)] by Lagrange inversion (``partition_normal_form``).
   It is then certified by composition: psi - c S(psi) must be u through
   the order, read off the powers psi^k, each one kernel product from the
   last.  u - c S(u) has linear coefficient 1, so its inverse is unique and
   the check proves psi right rather than comparing two formulas; a
   mismatch raises ``InternalCheckError`` with a full diagnostic.

``_lagrange_sum`` evaluates L_q on packed keys, with no arithmetic on ring
values.  Each power X^m is a content-form ``PolySeries`` (integer
numerators on packed keys over one denominator) that keeps only the terms
that can still reach w^wmax, by one joint reach cut; d_w^{m-1} <X^m> is
read straight off its diagonal keys (``_diagonal_part``), and one
``combination`` sums the parts with their weights q^{m-1}/m!.

The constant c fixes the convention:

* ``convention="proof"`` (default):  c = 1/lambda
* ``convention="stated"``:           c = -1

The default is the one validated by exact agreement with the two other
pipelines; the alternative is kept for comparison and fails that agreement.

Both steps run over either coefficient ring: over a ``SymRing`` the
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
from .series import ExponentPair, PolySeries, combination

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
        like = PolySeries.zero(1, 2 * max(0, self.order - 1), self.ring)
        return _view(_diagonal_part(self.diagonal, 1, 1, like))

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
    like = PolySeries.zero(1, 2 * (series.order // 2), series.ring)
    return _view(_diagonal_part(series, 0, 2, like))


def _diagonal_part(series: PolySeries, s: int, lowest: int, like: PolySeries) -> PolySeries:
    """d_w^s of the diagonal terms (x y)^a, a >= lowest >= s, of a one-DOF
    series, on the key layout of like, a diagonal that holds each w^(a - s).

    Read on keys: the key of x^a y^a goes to (a - s) times the key of x y in
    like's layout, its indeterminate fields kept, and the numerator is
    multiplied by a!/(a - s)!; the denominator stays.
    """
    layout, (x, y) = series.layout, like.layout.shifts
    mask, low = (1 << layout.width) - 1, (1 << layout.low) - 1
    x_shift, y_shift = layout.shifts
    step = 2 << like.layout.top | 1 << x | 1 << y
    nums = {}
    for key, value in series.nums.items():
        a = key >> x_shift & mask
        if a >= lowest and a == key >> y_shift & mask:
            nums[(a - s) * step | key & low] = value * math.perm(a, s) if s else value
    return like._make(nums, series.den)


def _lagrange_sum(x: PolySeries, q: GaussianRational, wmax: int) -> WSeries:
    """L_q[X] = sum_{m>=1} q^{m-1}/m! d_w^{m-1} <X^m> through w^wmax, exactly,
    with X the part of degree >= 3 of the one-DOF series x.

    Power m of X enters the sum through the diagonal terms (x y)^a of X^m
    with a <= wmax + m - 1, each one term of d_w^{m-1} w^a =
    a!/(a-m+1)! w^{a-m+1}.  Power m keeps only the terms that can still
    reach such a diagonal term, by one cut that drops nothing the sum
    needs.  A term of degree d and charge c = a - b (for x^a y^b) has the
    degree slack 2(wmax + m - 1) - d: a further factor of degree delta adds
    delta to the degree and 2 to the bound of the later power, so it uses
    delta - 2 >= 1 of the slack, and it moves the charge by at most
    r (delta - 2), with r the largest |charge| / (degree - 2) over the terms
    of X.  A diagonal term has charge 0, so a term that reaches one has
    slack >= 0 and |c| <= r * slack.  The cut keeps the terms that pass
    both tests, compared in integers with r = p/t.  When X holds every
    cubic and quartic (r = 3), these are exactly the terms that reach the
    sum: the cubics alone move the charge by any amount of the right parity
    up to 3 per unit of slack.  A diagonal X, such as a w-series, has
    r = 0, and its cut keeps degree <= 2(wmax + m - 1), exactly the
    headroom d_w^{m-1} needs.  The cut also ends the powers: power m has
    degree at least 3m, so past mmax = 2 wmax - 2 no term has slack.  A
    term of X above degree 2 wmax has no slack even in power 1 and is
    dropped at once.

    The terms of X are grouped by degree, and each group is sorted by
    charge, so each term of a power multiplies, in each group whose degree
    it can afford, only the window of charges the cut keeps: one bisect at
    each end, no test per pair.  Each power is a content-form series on
    the key layout of the working order 2(wmax + mmax - 1), whose fields
    hold every degree kept, and is closed with one gcd.  Its part
    d_w^{m-1} <X^m> is read off its diagonal keys, and one ``combination``
    sums the parts: a real weight q^{m-1}/m! scales a part there, while a
    complex q^{m-1} multiplies its part by ``scale_by_gaussian``, so the
    powers of X stay on the ring of x.  The same loop serves both
    coefficient rings, and the sum comes out over the ring of x.
    """
    ring, layout = x.ring, x.layout
    mmax = max(1, 2 * wmax - 2)
    like = PolySeries.zero(1, 2 * wmax, ring)
    work = PolySeries.zero(1, 2 * (wmax + mmax - 1), ring)
    top, (x_shift, y_shift) = work.layout.top, work.layout.shifts
    mask, low = (1 << layout.width) - 1, (1 << layout.low) - 1
    x_from, y_from = layout.shifts
    # each term x^a y^b of X up to degree 2 wmax, keyed on the working
    # layout, under its degree with its charge a - b
    by_degree: dict[int, list] = {}
    for key, value in x.nums.items():
        degree = key >> layout.top
        if 3 <= degree <= 2 * wmax:
            a, b = key >> x_from & mask, key >> y_from & mask
            by_degree.setdefault(degree, []).append(
                (a - b, degree << top | a << x_shift | b << y_shift | key & low, value)
            )
    # (degree, charges ascending, the (key, numerator) terms in that order)
    groups = []
    for degree, terms in sorted(by_degree.items()):
        terms.sort()
        groups.append((degree, [c for c, _, _ in terms], [(k, v) for _, k, v in terms]))
    # r = p/t, the largest |charge| / (degree - 2) over the groups' ends
    p, t = 0, 1
    for degree, charges, _ in groups:
        largest = max(-charges[0], charges[-1])
        if largest * t > p * (degree - 2):
            p, t = largest, degree - 2
    work_mask = (1 << work.layout.width) - 1
    parts = []
    q_power = GAUSSIAN_ONE
    power = work._make({0: 1}, 1)
    for m in range(1, mmax + 1):
        bound = 2 * (wmax + m - 1)
        out: dict[int, object] = {}
        get = out.get
        for k1, v1 in power.nums.items():
            room = bound - (k1 >> top)
            c1 = (k1 >> x_shift & work_mask) - (k1 >> y_shift & work_mask)
            for degree, charges, terms in groups:
                slack = room - degree
                if slack < 0:
                    break
                reach = p * slack // t
                window = terms[
                    bisect_left(charges, -reach - c1):bisect_right(charges, reach - c1)
                ]
                for k2, v2 in window:
                    key = k1 + k2
                    piece = v1 * v2
                    known = get(key)
                    out[key] = piece if known is None else known + piece
        power = power._make(out, power.den * x.den)
        if power.is_zero:
            break
        # a diagonal term of power m has 2a >= 3m, so a >= m - 1; the cut
        # gives a - m + 1 <= wmax
        part = _diagonal_part(power, m - 1, m - 1, like)
        weight = Fraction(1, math.factorial(m))
        if q_power.is_real:
            parts.append((weight * q_power.re, part))
        elif part.nums:
            parts.append((weight, _view(part).scale_by_gaussian(q_power).diagonal))
        q_power = q_power * q
    return _view(combination(parts, like))


def compute_S(
    hamiltonian: PolySeries, lam: GaussianRational, wmax: int
) -> WSeries:
    """The invariant series S[H] through w^wmax, exactly.

    S[H] is the Lagrange sum ``_lagrange_sum`` of H_* = H - H_2 with
    q = -1/lambda.  The input is treated as an exact polynomial, whatever
    truncation order it was carried at, and S comes out over the input's
    ring, ready for ``nf_from_S``.  q weighs the parts, never the powers of
    H_*, so a real H stays on int numerators under an imaginary lambda.
    """
    if hamiltonian.n != 1:
        raise UsageError(
            f"this pipeline needs one degree of freedom, got n={hamiltonian.n}"
        )
    validate_hamiltonian(hamiltonian, FreqVector((lam,)))
    if wmax < 1:
        raise UsageError(f"wmax must be at least 1, got {wmax}")
    return _lagrange_sum(hamiltonian, -lam.inverse(), wmax)


def is_linearizable(
    hamiltonian: PolySeries, lam: GaussianRational, wmax: int
) -> bool:
    """True iff S[H] vanishes identically through w^wmax."""
    return compute_S(hamiltonian, lam, wmax).is_zero


def partition_normal_form(s_series: WSeries) -> WSeries:
    """The inverse psi of u - T(u) through T's order, by Lagrange inversion.

    With T = s_series = sum_{k>=2} T_k u^k, psi = u + T(psi), and
    Lagrange-Buermann inversion gives

        psi = u + sum_{p>=1} (1/p!) d^{p-1} (T^p),

    which is ``_lagrange_sum`` of T's diagonal at q = 1: a w-series is
    diagonal, and its average is itself.  This is the partition sum:
    [u^m] psi is the sum over multisets {alpha_k} with
    sum (k-1) alpha_k = m - 1 of

        (m - 1 + |alpha|)! / (alpha! m!) * prod T_k^{alpha_k}.

    Group that sum by p = |alpha| into E[j][p], the sum of
    prod T_k^{alpha_k}/alpha_k! over the alpha with sum (k-1) alpha_k = j
    and |alpha| = p, so that [u^m] psi = sum_p (m - 1 + p)!/m! E[m-1][p].
    With g = T/u = sum_k T_k u^{k-1}, the multinomial theorem gives
    g^p/p! = sum_{|alpha| = p} prod (T_k u^{k-1})^{alpha_k}/alpha_k!, so
    E[j][p] = [u^j] g^p/p!, and T^p = u^p g^p.  Since
    d^{p-1} u^{m+p-1} = (m+p-1)!/m! u^m,

        [u^m] (1/p!) d^{p-1} (T^p) = (m+p-1)!/m! [u^{m+p-1}] T^p/p!
                                   = (m+p-1)!/m! E[m-1][p],

    the p-th term of the grouped partition sum; p = 0 gives u
    (I. Gessel, "Lagrange inversion", J. Combin. Theory Ser. A 144, 2016).
    A T with a constant or linear term is a ``UsageError``.
    """
    diagonal = s_series.diagonal
    if not (s_series.coefficient(0).is_zero and s_series.coefficient(1).is_zero):
        raise UsageError("the partition formula needs a series that starts at u^2")
    # u is the term x y, its key built on the diagonal's layout
    layout = diagonal.layout
    x, y = layout.shifts
    u = _view(diagonal._make({2 << layout.top | 1 << x | 1 << y: 1}, 1))
    return _lagrange_sum(diagonal, GAUSSIAN_ONE, s_series.order) + u


def nf_from_S(
    s_series: WSeries, lam: GaussianRational, convention: str = "proof"
) -> WSeries:
    """Recover nu = lambda (id - c S)^{-1} from S, as a series in w.

    c is 1/lambda under the "proof" convention and -1 under "stated".
    Coefficient 1 of the result is lambda, coefficient k >= 2 is N_k.  The
    inverse psi of u - c S(u) is ``partition_normal_form(c S)``, the
    Lagrange sum of c S at q = 1 on packed keys, so an S with a w^0 or w^1
    term is a ``UsageError``.  psi is certified by composition, which reads
    the powers of psi, not of c S, and so checks the sum independently: the
    residue r = psi - c S(psi) is read degree by degree off the powers
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
