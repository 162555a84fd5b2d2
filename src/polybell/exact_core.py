"""Exact arithmetic kernel: rationals, dense polynomials, truncated EGF series.

Conventions
-----------
* Rationals are :class:`fractions.Fraction`: arbitrary precision, always in
  lowest terms, denominator positive.  The wire format is ``"num/den"`` with
  plain integers rendered without the ``/1`` (so ``"7"``, ``"-1/2"``, ``"5/6"``).
* :class:`EgfSeries` stores ``a_k``, the coefficient of ``z^k/k!``, for
  ``k = 0..order``.  Everything downstream is stated in EGF form; ordinary
  coefficients appear only at boundaries (multiply by ``k!``).
* :class:`EgfSeries` and :class:`Polynomial` share one private base class,
  ``_Numerators``, that holds the number format: ``int`` numerators over one
  positive ``int`` denominator, the lcm of the coefficients' reduced
  denominators.  Every series and polynomial operation (and ``poly_eval``)
  runs on those integers; ``coeffs`` and ``coeff`` hand out Fractions.  All
  values are immutable and all operations are pure.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "RationalLike",
    "rational",
    "format_rational",
    "parse_rational",
    "Polynomial",
    "poly_eval",
    "EgfSeries",
    "egf_constant",
    "egf_exp_rz",
    "egf_em1",
    "egf_mul",
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
    return str(q) if type(q) in (int, Fraction) else str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    """Parse the wire format produced by :func:`format_rational`.

    Decimal notation is rejected on purpose: the interchange format is exact.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(s)


class _Numerators:
    """``int`` numerators ``_nums`` over one positive ``int`` ``_den``, in lowest
    terms.  ``_make`` is the one constructor; each subclass adds its canonical
    form to it."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[RationalLike]):
        made = self._make(*_over_lcm(coeffs))
        self._nums, self._den = made._nums, made._den

    @classmethod
    def _make(cls, nums: Sequence[int], den: int):
        """A new ``cls`` holding nums/den (den != 0) in lowest terms, den > 0."""
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        obj = object.__new__(cls)
        obj._nums = tuple(a // g for a in nums) if g != 1 else tuple(nums)
        obj._den = den // g
        return obj

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self._den) for a in self._nums)

    def scale(self, c: RationalLike):
        cn, cd = _num_den(c)
        return self._make([cn * a for a in self._nums], cd * self._den)

    def __neg__(self):
        return self._make([-a for a in self._nums], self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, _Numerators) else -rational(other))

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        body = ", ".join(format_rational(c) for c in self.coeffs)
        return f"{type(self).__name__}([{body}])"


class Polynomial(_Numerators):
    """Dense polynomial over the rationals, coefficients in ascending degree.

    Canonical form keeps no trailing zero coefficients, except the zero
    polynomial which is stored as the single coefficient [0] (``degree`` 0,
    ``is_zero`` True).
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[RationalLike] = (0,)):
        super().__init__(coeffs)

    @classmethod
    def _make(cls, nums: Sequence[int], den: int) -> Polynomial:
        """The polynomial nums/den (den != 0), without trailing zeros, reduced."""
        d = len(nums)
        while d > 1 and not nums[d - 1]:
            d -= 1
        return super()._make(nums[:d] or [0], den)

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return self._nums == (0,)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the stored degree)."""
        if 0 <= k < len(self._nums):
            return Fraction(self._nums[k], self._den)
        return Fraction(0)

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented  # a scalar goes through * or scale, a series has no degree
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        pairs = zip_longest(self._nums, other._nums, fillvalue=0)
        return _poly([fa * a + fb * b for a, b in pairs], den)

    def __mul__(self, other: Union[Polynomial, RationalLike]) -> Polynomial:
        if isinstance(other, Polynomial):
            return _poly(_convolve(self._nums, other._nums), self._den * other._den)
        return self.scale(other)

    __rmul__ = __mul__

    def compose(self, inner: Polynomial) -> Polynomial:
        """self(inner(x)), by Horner on the numerators: with inner = B/E,
        R_0 = a_d and R_{j+1} = R_j B + a_{d-j-1} E^{j+1}, then divide by E^d."""
        b, e = inner._nums, inner._den
        acc, epow = [self._nums[-1]], 1
        for c in reversed(self._nums[:-1]):
            epow *= e
            acc = _convolve(acc, b)
            acc[0] += c * epow
        return _poly(acc, self._den * epow)

    def derivative(self) -> Polynomial:
        return _poly([(i + 1) * a for i, a in enumerate(self._nums[1:])], self._den)

    def antiderivative(self) -> Polynomial:
        """The antiderivative with zero constant term, over one lcm(1..d+1)."""
        scale = lcm(*range(1, len(self._nums) + 1))
        nums = [0] + [a * (scale // (i + 1)) for i, a in enumerate(self._nums)]
        return _poly(nums, self._den * scale)

    @staticmethod
    def x() -> Polynomial:
        return Polynomial([0, 1])


_poly = Polynomial._make


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def poly_eval(p: Polynomial, x: RationalLike) -> Fraction:
    """Exact Horner evaluation on the integers: for x = u/v,
    p(x) = (sum_k a_k u^k v^(d-k)) / (den v^d)."""
    u, v = _num_den(x)
    acc, vpow = p._nums[-1], 1
    for c in reversed(p._nums[:-1]):
        vpow *= v
        acc = acc * u + c * vpow
    return Fraction(acc, p._den * vpow)


class EgfSeries(_Numerators):
    """Truncated exponential generating function.

    ``coeffs[k]`` is the coefficient of ``z^k/k!`` for ``k = 0..order``.
    Binary operations truncate to the smaller order of the two operands.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, nums: Sequence[int], den: int) -> EgfSeries:
        """The series nums/den (den != 0), reduced to canonical form."""
        if not nums:
            raise ValueError("an EGF series needs at least the constant term")
        return super()._make(nums, den)

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        return Fraction(self._nums[k], self._den)

    def truncate(self, order: int) -> EgfSeries:
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to {order}")
        return _series(self._nums[: order + 1], self._den)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if zero to order."""
        return next((i for i, a in enumerate(self._nums) if a), None)

    def __add__(self, other: Union[EgfSeries, RationalLike]) -> EgfSeries:
        if not isinstance(other, EgfSeries):
            other = egf_constant(other, self.order)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        return _series([fa * a + fb * b for a, b in zip(self._nums, other._nums)], den)

    __radd__ = __add__

    def first_difference(self, other: EgfSeries) -> int | None:
        """Smallest k with differing coefficients over the shared order.

        Returns None when the two series agree on every compared coefficient.
        """
        da, db = self._den, other._den
        pairs = zip(self._nums, other._nums)
        return next((k for k, (a, b) in enumerate(pairs) if a * db != b * da), None)


_series = EgfSeries._make


def _num_den(value: RationalLike) -> tuple[int, int]:
    q = value if isinstance(value, int) else rational(value)
    return q.numerator, q.denominator


def _over_lcm(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over the lcm of their denominators."""
    pairs = [_num_den(c) for c in values]
    den = lcm(*(d for _, d in pairs))
    return [a * (den // d) for a, d in pairs], den


def egf_constant(c: RationalLike, order: int) -> EgfSeries:
    cn, cd = _num_den(c)
    return _series([cn] + [0] * order, cd)


def egf_exp_rz(r: RationalLike, order: int) -> EgfSeries:
    """exp(r z): coefficients r^k, as p^k q^(order-k) over q^order for r = p/q."""
    p, q = _num_den(r)
    return _series([p**k * q ** (order - k) for k in range(order + 1)], q**order)


def egf_em1(order: int) -> EgfSeries:
    """e^z - 1: coefficients 0, 1, 1, 1, ..."""
    return _series([0] + [1] * order, 1)


def egf_mul(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    """Binomial convolution: c_n = sum_k C(n,k) a_k b_{n-k}, run on the
    stored numerators over the product of the denominators."""
    ac, bc, n = a._nums, b._nums, min(a.order, b.order)
    conv = [sum(comb(m, k) * ac[k] * bc[m - k] for k in range(m + 1)) for m in range(n + 1)]
    return _series(conv, a._den * b._den)


def egf_exp(a: EgfSeries) -> EgfSeries:
    """exp(a) for a series with zero constant term.

    Uses b' = a' b coefficient-wise, on a = A/D and the integers B_m = b_m D^m:
    B_{m+1} = sum_k C(m,k) A_{k+1} B_{m-k} D^k.
    """
    if a._nums[0]:
        raise ValueError("egf_exp needs a zero constant term (exp of a unit is not rational)")
    n, ac = a.order, a._nums
    dpow = [a._den**k for k in range(n + 1)]
    b = [1] + [0] * n
    for m in range(n):
        b[m + 1] = sum(comb(m, k) * ac[k + 1] * b[m - k] * dpow[k] for k in range(m + 1))
    return _series([bm * dpow[n - m] for m, bm in enumerate(b)], dpow[n])


def egf_div(num: EgfSeries, den: EgfSeries) -> EgfSeries:
    """Series quotient num/den.

    The denominator may vanish at z = 0: both sides are divided by z^v where
    v is the denominator's valuation, which requires the numerator to vanish
    at least as fast.  The result is truncated to ``min(order) - v``.

    Both shifted sides (a_{i+v}/(v! C(i+v, v))) are cleared to integers SN, SD;
    with s0 = SD_0, Q_i = q_i s0^(i+1) = SN_i s0^i - sum_{k<i} C(i,k) Q_k SD_{i-k} s0^(i-1-k).
    """
    n = min(num.order, den.order)
    v = den.valuation()
    if v is None or v > n:
        raise ZeroDivisionError("division by a series that is zero to its truncation order")
    nv = num.valuation()
    if nv is not None and nv < v:
        raise ValueError(
            "quotient is not a power series (numerator valuation "
            f"{nv} below denominator valuation {v})"
        )
    m = n - v
    scale = [comb(i + v, v) for i in range(m + 1)]
    clear = lcm(*scale)
    sn = [a * (clear // c) for a, c in zip(num._nums[v:], scale)]
    sd = [a * (clear // c) for a, c in zip(den._nums[v:], scale)]
    spow = [sd[0] ** i for i in range(m + 2)]
    q = [0] * (m + 1)
    for i in range(m + 1):
        q[i] = sn[i] * spow[i] - sum(
            comb(i, k) * q[k] * sd[i - k] * spow[i - 1 - k] for k in range(i)
        )
    # q_i = Q_i / s0^(i+1) * den._den / num._den, as SN and SD were built from numerators
    return _series([x * spow[m - i] * den._den for i, x in enumerate(q)], spow[m + 1] * num._den)


def egf_derivative(a: EgfSeries) -> EgfSeries:
    """d/dz: shifts coefficients down one slot; order drops by one."""
    if a.order == 0:
        raise ValueError("cannot differentiate a series known only to order 0")
    return _series(a._nums[1:], a._den)


def egf_compose_em1(outer_coeffs: Sequence[RationalLike], order: int) -> EgfSeries:
    """sum_k c_k (e^z - 1)^k truncated at the given order.

    Only k <= order contributes.  The coefficient of z^n/n! is sum_k c_k T(n, k)
    over the rows of ``_em1_rows``, which read no Stirling cache of ``special_numbers``.
    """
    return _compose_em1(*_over_lcm(outer_coeffs), _em1_rows(order))


def _em1_rows(order: int) -> list[list[int]]:
    """Rows 0..order of T(n, k) = k! S(n, k) = k (T(n-1, k-1) + T(n-1, k)), the
    coefficient of z^n/n! in (e^z - 1)^k, built here row by row."""
    rows = [[1]]
    for n in range(1, order + 1):
        row = rows[-1]
        rows.append([0] + [k * (row[k - 1] + (row[k] if k < n else 0)) for k in range(1, n + 1)])
    return rows


def _compose_em1(cs: Sequence[int], den: int, rows: Sequence[Sequence[int]]) -> EgfSeries:
    """sum_k (cs[k] / den) (e^z - 1)^k to the order of ``rows`` (``_em1_rows``)."""
    return _series([sum(map(mul, cs, row)) for row in rows], den)
