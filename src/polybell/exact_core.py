"""Exact arithmetic kernel: rationals, dense polynomials, truncated EGF series.

Conventions
-----------
* ``Rational`` is :class:`fractions.Fraction`: arbitrary precision, always in
  lowest terms, denominator positive.  The wire format is ``"num/den"`` with
  plain integers rendered without the ``/1`` (so ``"7"``, ``"-1/2"``, ``"5/6"``).
* :class:`EgfSeries` stores ``a_k``, the coefficient of ``z^k/k!``, for
  ``k = 0..order``.  Everything downstream is stated in EGF form; ordinary
  coefficients appear only at boundaries (multiply by ``k!``).
* All values are immutable and all operations are pure, so sharing across
  threads is safe.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterable, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]

__all__ = [
    "Rational",
    "RationalLike",
    "rational",
    "format_rational",
    "parse_rational",
    "Polynomial",
    "poly_eval",
    "EgfSeries",
    "egf_zero",
    "egf_constant",
    "egf_z",
    "egf_exp_rz",
    "egf_em1",
    "egf_mul",
    "egf_pow",
    "egf_exp",
    "egf_div",
    "egf_derivative",
    "egf_compose_em1",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(q: Fraction) -> str:
    """Serialize to "num/den", or a bare integer when the denominator is 1."""
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    """Parse the wire format produced by :func:`format_rational`.

    Decimal notation is rejected on purpose: the interchange format is exact.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(s)


class Polynomial:
    """Dense polynomial over the rationals, coefficients in ascending degree.

    Canonical form keeps no trailing zero coefficients, except the zero
    polynomial which is stored as the single coefficient [0] (``degree`` 0,
    ``is_zero`` True).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = (0,)):
        cs = [rational(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self._coeffs) == 1 and self._coeffs[0] == 0

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the stored degree)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        body = ", ".join(format_rational(c) for c in self._coeffs)
        return f"Polynomial([{body}])"

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self._coeffs, other._coeffs
        n = max(len(a), len(b))
        return Polynomial(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other: Union[Polynomial, RationalLike]) -> Polynomial:
        if isinstance(other, Polynomial):
            a, b = self._coeffs, other._coeffs
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca == 0:
                    continue
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
            return Polynomial(out)
        c = rational(other)
        return Polynomial([c * x for x in self._coeffs])

    __rmul__ = __mul__

    def compose(self, inner: Polynomial) -> Polynomial:
        """self(inner(x)), by Horner over polynomial arithmetic."""
        result = Polynomial([self._coeffs[-1]])
        for c in reversed(self._coeffs[:-1]):
            result = result * inner + Polynomial([c])
        return result

    def derivative(self) -> Polynomial:
        if self.degree == 0:
            return Polynomial()
        return Polynomial([(i + 1) * c for i, c in enumerate(self._coeffs[1:])])

    def antiderivative(self) -> Polynomial:
        """The antiderivative with zero constant term."""
        return Polynomial([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self._coeffs)])

    @staticmethod
    def x() -> Polynomial:
        return Polynomial([0, 1])


def poly_eval(p: Polynomial, x: RationalLike) -> Fraction:
    """Exact Horner evaluation."""
    xv = rational(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * xv + c
    return acc


class EgfSeries:
    """Truncated exponential generating function.

    ``coeffs[k]`` is the coefficient of ``z^k/k!`` for ``k = 0..order``.
    Binary operations truncate to the smaller order of the two operands.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = tuple(rational(c) for c in coeffs)
        if not cs:
            raise ValueError("an EGF series needs at least the constant term")
        self._coeffs = cs

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        return self._coeffs[k]

    def truncate(self, order: int) -> EgfSeries:
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to {order}")
        return EgfSeries(self._coeffs[: order + 1])

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if zero to order."""
        for i, c in enumerate(self._coeffs):
            if c != 0:
                return i
        return None

    def scale(self, c: RationalLike) -> EgfSeries:
        cv = rational(c)
        return EgfSeries([cv * a for a in self._coeffs])

    def __add__(self, other: Union[EgfSeries, RationalLike]) -> EgfSeries:
        if isinstance(other, EgfSeries):
            n = min(self.order, other.order)
            return EgfSeries([self._coeffs[i] + other._coeffs[i] for i in range(n + 1)])
        c = rational(other)
        return EgfSeries((self._coeffs[0] + c,) + self._coeffs[1:])

    __radd__ = __add__

    def __sub__(self, other: Union[EgfSeries, RationalLike]) -> EgfSeries:
        if isinstance(other, EgfSeries):
            n = min(self.order, other.order)
            return EgfSeries([self._coeffs[i] - other._coeffs[i] for i in range(n + 1)])
        c = rational(other)
        return EgfSeries((self._coeffs[0] - c,) + self._coeffs[1:])

    def __neg__(self) -> EgfSeries:
        return EgfSeries([-c for c in self._coeffs])

    def first_difference(self, other: EgfSeries, upto: int | None = None) -> int | None:
        """Smallest k with differing coefficients over the shared order.

        Returns None when the two series agree on every compared coefficient.
        """
        n = min(self.order, other.order)
        if upto is not None:
            n = min(n, upto)
        for k in range(n + 1):
            if self._coeffs[k] != other._coeffs[k]:
                return k
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EgfSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        body = ", ".join(format_rational(c) for c in self._coeffs)
        return f"EgfSeries([{body}])"


def egf_zero(order: int) -> EgfSeries:
    return EgfSeries([Fraction(0)] * (order + 1))


def egf_constant(c: RationalLike, order: int) -> EgfSeries:
    return EgfSeries([rational(c)] + [Fraction(0)] * order)


def egf_z(order: int) -> EgfSeries:
    """The monomial z (EGF coefficients 0, 1, 0, 0, ...)."""
    cs = [Fraction(0)] * (order + 1)
    if order >= 1:
        cs[1] = Fraction(1)
    return EgfSeries(cs)


def egf_exp_rz(r: RationalLike, order: int) -> EgfSeries:
    """exp(r z): coefficients r^k."""
    rv = rational(r)
    cs, acc = [], Fraction(1)
    for _ in range(order + 1):
        cs.append(acc)
        acc *= rv
    return EgfSeries(cs)


def egf_em1(order: int) -> EgfSeries:
    """e^z - 1: coefficients 0, 1, 1, 1, ..."""
    return EgfSeries([Fraction(0)] + [Fraction(1)] * order)


def _over_lcm(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``cs`` over the lcm of their denominators."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def egf_mul(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    """Binomial convolution: c_n = sum_k C(n,k) a_k b_{n-k}, run on ints with
    each operand over a common denominator and reduced once per coefficient."""
    n = min(a.order, b.order)
    (ac, da), (bc, db) = _over_lcm(a.coeffs[: n + 1]), _over_lcm(b.coeffs[: n + 1])
    return EgfSeries(
        Fraction(sum(comb(m, k) * ac[k] * bc[m - k] for k in range(m + 1)), da * db)
        for m in range(n + 1)
    )


def egf_pow(a: EgfSeries, k: int) -> EgfSeries:
    """a^k by binary exponentiation (k >= 0); a^0 is the constant 1."""
    if k < 0:
        raise ValueError("negative powers are not power series in general")
    result = egf_constant(1, a.order)
    base = a
    while k:
        if k & 1:
            result = egf_mul(result, base)
        base = egf_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def egf_exp(a: EgfSeries) -> EgfSeries:
    """exp(a) for a series with zero constant term.

    Uses b' = a' b coefficient-wise: b_{m+1} = sum_k C(m,k) a_{k+1} b_{m-k}.
    """
    if a.coeffs[0] != 0:
        raise ValueError("egf_exp needs a zero constant term (exp of a unit is not rational)")
    n = a.order
    ac = a.coeffs
    b = [Fraction(1)] + [Fraction(0)] * n
    for m in range(n):
        b[m + 1] = sum(comb(m, k) * ac[k + 1] * b[m - k] for k in range(m + 1))
    return EgfSeries(b)


def _shift_down(s: EgfSeries, v: int, upto: int) -> list[Fraction]:
    # A(z)/z^v in EGF coefficients: a'_m = a_{m+v} * m!/(m+v)!
    return [s.coeffs[m + v] * Fraction(factorial(m), factorial(m + v)) for m in range(upto + 1)]


def egf_div(num: EgfSeries, den: EgfSeries) -> EgfSeries:
    """Series quotient num/den.

    The denominator may vanish at z = 0: both sides are divided by z^v where
    v is the denominator's valuation, which requires the numerator to vanish
    at least as fast.  The result is truncated to ``min(order) - v``.
    """
    n = min(num.order, den.order)
    v = den.valuation()
    if v is None or v > n:
        raise ZeroDivisionError("division by a series that is zero to its truncation order")
    nv = num.valuation()
    if nv is None:
        return egf_zero(n - v)
    if nv < v:
        raise ValueError(
            "quotient is not a power series (numerator valuation "
            f"{nv} below denominator valuation {v})"
        )
    m = n - v
    sn = _shift_down(num.truncate(n), v, m)
    sd = _shift_down(den.truncate(n), v, m)
    q = [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        acc = sn[i] - sum(comb(i, k) * q[k] * sd[i - k] for k in range(i))
        q[i] = acc / sd[0]
    return EgfSeries(q)


def egf_derivative(a: EgfSeries) -> EgfSeries:
    """d/dz: shifts coefficients down one slot; order drops by one."""
    if a.order == 0:
        raise ValueError("cannot differentiate a series known only to order 0")
    return EgfSeries(a.coeffs[1:])


def egf_compose_em1(outer_coeffs: Sequence[RationalLike], order: int) -> EgfSeries:
    """sum_k c_k (e^z - 1)^k truncated at the given order.

    (e^z - 1)^k has valuation k, so only k <= order contributes.  Powers are
    accumulated by repeated binomial convolution; no coefficient beyond the
    truncation order is ever formed.
    """
    cs = [rational(c) for c in outer_coeffs]
    result = egf_zero(order)
    w = egf_em1(order)
    power = egf_constant(1, order)
    for k, c in enumerate(cs):
        if k > order:
            break
        if k > 0:
            power = egf_mul(power, w)
        if c != 0:
            result = result + power.scale(c)
    return result
