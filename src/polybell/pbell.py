"""p-Bell numbers and polynomials.

The p-Bell number B_{n,p} is defined by the EGF

    f_p(z) = sum_n B_{n,p} z^n/n! = 1F1(1; p+1; e^z - 1)
           = sum_k C(k+p,k)^{-1} (e^z - 1)^k / k!,

so B_{n,0} is the Bell number and B_{n,p} = sum_k C(k+p,k)^{-1} {n,k}.

Four independent computation routes are kept in ``ROUTES`` and cross-checked:

* ``explicit``     -- the C(k+p,k)^{-1} {n,k} sum above;
* ``recurrence``   -- a derivative recurrence coupling columns p and p+1:
                      B_{n+1,p} = (n+1) B_{n,p}
                                  - sum_{k=0}^{n-2} C(n,k) (-1)^{n-k} B_{k+1,p}
                                  - p/(p+1) B_{n,p+1},
                      run on the integers V_{n,p} = B_{n,p} (n+p)!/p!;
* ``ztriangle``    -- the triangle Z_{n+1,m} = (m+1)/(m+p+1) Z_{n,m+1} + m Z_{n,m}, Z_{0,m} = 1, with
                      B_{n,p} = Z_{n,0} (the fast route, and the one ``pbell_number``, ``pbell_column``
                      and ``pbell_poly`` take), by antidiagonals of Z_{n,m} lcm(p+1..n+m+p)/C(m+p,m);
* ``genbernoulli`` -- a closed form through Bell numbers and higher-order
                      Bernoulli numbers, swept in the order by Nörlund's recurrence.

The p-Bell polynomial is the binomial transform
B_{n,p}(x) = sum_k C(n,k) B_{k,p} x^{n-k}; it is monic of degree n with
constant term B_{n,p}, and equals sum_k C(k+p,k)^{-1} S_n^k(x) in terms of the
weighted Stirling polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm, perm
from operator import mul

from .exact_core import EgfSeries, Polynomial, RationalLike, _poly, _series, poly_eval, rational
from .special_numbers import CACHE, _bell_column, _check_indices, _column, _column_step
from .special_numbers import _gen_bernoulli_columns, stirling2, weighted_stirling_poly

__all__ = [
    "ROUTES",
    "BackendMismatch",
    "pbell_explicit",
    "pbell_recurrence",
    "pbell_z_triangle",
    "pbell_gen_bernoulli",
    "pbell_number",
    "pbell_column",
    "pbell_columns",
    "pbell_egf",
    "pbell_ramanujan_p1",
    "pbell_poly",
    "pbell_poly_weighted",
]


class BackendMismatch(Exception):
    """Raised when cross-checked backends disagree on a value."""

    def __init__(self, n: int, p: int, values: dict[str, Fraction]):
        self.n, self.p, self.values = n, p, values
        body = ", ".join(f"{name}={value}" for name, value in sorted(values.items()))
        super().__init__(f"backends disagree at (n={n}, p={p}): {body}")


def pbell_explicit(n: int, p: int) -> Fraction:
    """B_{n,p} = sum_k C(k+p,k)^{-1} {n,k}."""
    _check_indices(n, p)
    return sum(Fraction(1, comb(k + p, k)) * stirling2(n, k) for k in range(n + 1))


def _recurrence_table(n_max: int, p: int) -> list[Fraction]:
    """[B_{0,p}, ..., B_{n_max,p}] by the derivative recurrence.

    Row r+1 at column c needs row r at columns c and c+1 and the rows below r
    at column c, so ``rows[r][j]``, column c = p + j, fill one full row at a
    time over a shrinking window.  They hold the integers V_{r,c} =
    B_{r,c} (r+c)!/c!: V_{0,c} = 1 and V_{r+1,c} = (r+1)(r+1+c) V_{r,c}
    - c V_{r,c+1} - sum_{k<r-1} C(r,k) (-1)^{r-k} V_{k+1,c} (r+1+c)!/(k+1+c)!,
    the sum by Horner's rule in the factors k+1+c (one big product per term).
    Each B_{r,p} = V_{r,p} / ((r+p)!/p!) is reduced once.
    """
    rows = [[1] * (n_max + 1)]
    for r in range(n_max):
        signed = [comb(r, k) * (-1) ** (r - k) for k in range(r - 1)]
        prev, row = rows[r], []
        for j in range(n_max - r):
            c, h = p + j, 0
            for k, a in enumerate(signed):
                h = h * (k + 1 + c) + a * rows[k + 1][j]
            row.append((r + 1 + c) * ((r + 1) * prev[j] - (r + c) * h) - c * prev[j + 1])
        rows.append(row)
    return [Fraction(row[0], perm(r + p, r)) for r, row in enumerate(rows)]


def pbell_recurrence(n: int, p: int) -> Fraction:
    _check_indices(n, p)
    return _recurrence_table(n, p)[n]


def _z_step(p: int):
    """Fill step of ``bell:p``: row d from row d-1 as one suffix sum from its end U_{0,d} (see ``_z_rows``)."""
    def step(d: int, prev: tuple) -> tuple:
        scale = prev[-1] * comb(d - 1 + p, d - 1)  # M_{d-1}
        r = (d + p) // gcd(scale, d + p)  # M_d / M_{d-1}
        terms = reversed(list(map(mul, range(0, d * r, r), prev)))
        return tuple(accumulate(terms, initial=scale * r // comb(d + p, d)))[::-1]
    return _column_step(step)


def _z_rows(n_max: int, p: int) -> list[int]:
    """[U_{0,0}, ..., U_{n_max,0}], U_{n,0} = B_{n,p} M_n over M_n = lcm(p+1..n+p): entry 0 of rows n of
    the tag ``bell:p``.  Over C(m+p,m) the triangle Z becomes Y_{n+1,m} = Y_{n,m+1} + m Y_{n,m} with
    Y_{0,m} = 1/C(m+p,m), and U_{n,m} = Y_{n,m} M_{n+m} is an integer: by Kummer's theorem a prime q
    divides C(m+p,m) once for each q^e at which adding m and p in base q carries, and each such q^e
    divides one of p+1..m+p.  Row d is the antidiagonal (U_{d,0}, ..., U_{0,d}), from U_{0,d} = M_d /
    C(d+p,d) by U_{d-m,m} = U_{d-m-1,m+1} + m r U_{d-m-1,m}, r = M_d / M_{d-1}; a longer request resumes."""
    return _column(f"bell:{p}", n_max, _z_step(p))


def pbell_z_triangle(n: int, p: int) -> Fraction:
    _check_indices(n, p)
    top = range(max(p + 1, (n + p) // 2 + 1), n + p + 1)  # holds a power-of-two multiple of each k in p+1..n+p
    return Fraction(CACHE.fill_rows(f"bell:{p}", n, _z_step(p))[0], lcm(*top))


def pbell_gen_bernoulli(n: int, p: int) -> Fraction:
    """B_{n,p} = C(n+p,p)^{-1} sum_{k=0}^{n+p} C(n+p,k) phi_{n+p-k} B_k^(p)
                 - sum_{k=1}^{p} C(n+k,k)^{-1} C(p,k) B_{n+k}^(k),
    from one sweep of the orders 0..p over rows 0..n+p; the head is one integer."""
    _check_indices(n, p)
    tail = Fraction(0)
    for k, (column, den) in enumerate(_gen_bernoulli_columns(n + p, p)):
        if k:
            tail += Fraction(comb(p, k) * column[n + k], comb(n + k, k) * den)
    phi = _bell_column(n + p)
    head = sum(comb(n + p, k) * phi[n + p - k] * c for k, c in enumerate(column))
    return Fraction(head, comb(n + p, p) * den) - tail


ROUTES = {
    "explicit": pbell_explicit,
    "recurrence": pbell_recurrence,
    "ztriangle": pbell_z_triangle,
    "genbernoulli": pbell_gen_bernoulli,
}


def pbell_number(n: int, p: int, *, cross_check: bool = False) -> Fraction:
    """B_{n,p} by the ``ztriangle`` route.

    With ``cross_check`` every route of ``ROUTES`` is evaluated and any
    disagreement raises :class:`BackendMismatch` carrying all computed values.
    """
    if not cross_check:
        return pbell_z_triangle(n, p)
    values = {name: fn(n, p) for name, fn in ROUTES.items()}
    if len(set(values.values())) != 1:
        raise BackendMismatch(n, p, values)
    return values["ztriangle"]


def _z_column(n_max: int, p: int) -> tuple[list[int], list[int]]:
    """B_{n,p} = U_{n,0} / M_n for n <= n_max by one ``ztriangle`` sweep, as the lists of
    ``_z_rows``' integers U_{n,0} and of the scales M_n = lcm(p+1..n+p)."""
    _check_indices(n_max, p)
    return _z_rows(n_max, p), list(accumulate(range(p + 1, p + n_max + 1), lcm, initial=1))


def pbell_column(n_max: int, p: int) -> list[Fraction]:
    """[B_{0,p}, ..., B_{n_max,p}] by one ``ztriangle`` sweep."""
    return list(map(Fraction, *_z_column(n_max, p)))


def _pbell_numerators(n_max: int, p_max: int) -> tuple[list[list[int]], list[int]]:
    """The columns of ``pbell_columns`` as integers U_{n,p} = B_{n,p} L_{n+p}, L_s = lcm(1..s), and
    [L_0, ..., L_{n_max+p_max}].  Order 0 is phi_n L_n, order 1 ``_z_rows(., 1)`` itself (as
    lcm(2..n+1) = L_{n+1}), and each higher order one row shorter by the order relation of
    ``polybell``, B_{n,j+1} = (j+1) (j B_{n,j-1} - (j-1) B_{n,j} - B_{n+1,j}) / j, on these scales."""
    _check_indices(n_max, p_max)
    ls = list(accumulate(range(1, n_max + p_max + 1), lcm, initial=1))
    steps = [1] + [b // a for a, b in zip(ls, ls[1:])]  # L_s / L_{s-1}
    us = [list(map(mul, _bell_column(n_max + p_max), ls))]
    if p_max:
        us.append(_z_rows(n_max + p_max - 1, 1))
    for j in range(1, p_max):  # s t = L_{n+j+1} / L_{n+j-1}, s = L_{n+j+1} / L_{n+j}
        us.append([(j + 1) * (j * low * s * t - (j - 1) * mid * s - up) // j
                   for low, mid, up, s, t in zip(us[j - 1], us[j], us[j][1:], steps[j + 1 :], steps[j:])])
    return [u[: n_max + 1] for u in us], ls


def pbell_columns(n_max: int, p_max: int) -> list[list[Fraction]]:
    """[pbell_column(n_max, p) for p = 0..p_max], over the integers of ``_pbell_numerators``."""
    us, ls = _pbell_numerators(n_max, p_max)
    return [list(map(Fraction, u, ls[p:])) for p, u in enumerate(us)]


def pbell_egf(p: int, order: int) -> EgfSeries:
    """The truncated EGF f_p(z) with exact coefficients B_{n,p}, over the one scale M_order."""
    us, ms = _z_column(order, p)
    return _series([u * (ms[-1] // m) for u, m in zip(us, ms)], ms[-1])


def pbell_ramanujan_p1(n: int) -> Fraction:
    """Ramanujan's Bernoulli-number form of the p = 1 column:
    B_{n,1} = sum_k C(n,k) phi_{k+1} B_{n-k} / (k+1), summed as one integer over
    (n+1) d by C(n,k)/(k+1) = C(n+1,k+1)/(n+1), d the lcm of the Bernoulli column."""
    _check_indices(n, 0)
    phi = _bell_column(n + 1)
    _, (column, den) = _gen_bernoulli_columns(n, 1)
    return Fraction(sum(comb(n + 1, k + 1) * phi[k + 1] * column[n - k] for k in range(n + 1)), (n + 1) * den)


def pbell_poly(n: int, p: int) -> Polynomial:
    """B_{n,p}(x) = sum_k C(n,k) B_{k,p} x^{n-k} (monic, constant term B_{n,p}), over M_n."""
    us, ms = _z_column(n, p)
    return _poly([comb(n, d) * us[n - d] * (ms[n] // ms[n - d]) for d in range(n + 1)], ms[n])


def pbell_poly_weighted(n: int, p: int, x: RationalLike) -> Fraction:
    """B_{n,p}(x) summed through weighted Stirling polynomials:
    sum_k C(k+p,k)^{-1} S_n^k(x)."""
    _check_indices(n, p)
    xv = rational(x)
    return sum(Fraction(1, comb(k + p, k)) * poly_eval(weighted_stirling_poly(n, k), xv) for k in range(n + 1))
