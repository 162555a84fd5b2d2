"""Poly-Bell numbers: the factorial-normalized companions of the p-Bell family.

For p >= 0 the poly-Bell number is B_n^(p) = B_{n,p}/p!.  The negative-index
values are the integers

    B_n^(-p) = sum_{k=p}^{n} k!/(k-p)! {n,k},

zero whenever p > n except B_0^(0) = 1.  They satisfy

    sum_{p=0}^{n} B_n^(-p) y^p/p! = phi_n(1 + y),

and, unlike poly-Bernoulli numbers, they are NOT symmetric in (n, p):
``duality_counterexample`` exhibits the smallest witness.

Touchard's phi_{n+1} = x (phi_n + phi_n'), with B_n^(p) the p-fold antiderivative
of phi_n at 1 and B_n^(-p) its p-th derivative there, gives for every integer k

    B_{n+1}^(k) = (1 - k) B_n^(k) + B_n^(k-1) - k B_n^(k+1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, perm

from .exact_core import poly_eval
from .special_numbers import _bell_column, _check_indices, bell_number, bell_poly, stirling2, stirling2_row

__all__ = [
    "polybell_neg",
    "polybell_neg_columns",
    "polybell_neg_derivative",
    "duality_counterexample",
    "iterated_integral_pbell",
]


def polybell_neg(n: int, p: int) -> int:
    """B_n^(-p) = sum_{k >= p} k!/(k-p)! {n,k}."""
    _check_indices(n, p)
    return sum(perm(k, p) * s for k, s in enumerate(stirling2_row(n)))


def polybell_neg_columns(n_max: int, p_max: int) -> list[list[int]]:
    """[[B_n^(-p) for n = 0..n_max] for p = 0..p_max], from the Bell numbers alone
    by the order relation at k = -p, one row shorter per step and with no division."""
    _check_indices(n_max, p_max)
    cols = [_bell_column(n_max + p_max)]
    for p in range(p_max):  # at p = 0, cols[p - 1] is cols[0], under the weight p = 0
        cols.append([up - (p + 1) * d - p * low for d, up, low in zip(cols[p], cols[p][1:], cols[p - 1])])
    return [col[: n_max + 1] for col in cols]


def polybell_neg_derivative(n: int, p: int) -> int:
    """The derivative form B_n^(-p) = p! sum_j C(n,j) {j,p} phi_{n-j}."""
    _check_indices(n, p)
    return factorial(p) * sum(comb(n, j) * stirling2(j, p) * bell_number(n - j) for j in range(p, n + 1))


def duality_counterexample() -> tuple[int, int, int, int]:
    """Smallest (n, p) with n > p >= 1 and B_n^(-p) != B_p^(-n).

    Poly-Bernoulli numbers satisfy B_n^(-p) = B_p^(-n); poly-Bell numbers do
    not, and the first witness is (2, 1) with 3 on the left and 0 on the
    right.  Diagonal cells agree trivially and are skipped.
    """
    for n in range(2, 50):
        for p in range(1, n):
            lhs, rhs = polybell_neg(n, p), polybell_neg(p, n)
            if lhs != rhs:
                return n, p, lhs, rhs
    raise AssertionError("no witness found below n = 50; the asymmetry should appear at (2, 1)")


def iterated_integral_pbell(n: int, p: int) -> Fraction:
    """B_{n,p} as p! times the p-fold antiderivative of phi_n at 1 (integration constants zero)."""
    return _iterated_integrals(n, p)[p]


def _iterated_integrals(n: int, p_max: int) -> list[Fraction]:
    """[iterated_integral_pbell(n, p) for p = 0..p_max], along one chain of antiderivatives."""
    _check_indices(n, p_max)
    chain = accumulate(range(p_max), lambda poly, _: poly.antiderivative(), initial=bell_poly(n))
    return [factorial(p) * poly_eval(poly, 1) for p, poly in enumerate(chain)]
