"""Classical exact sequences used throughout the package.

Stirling numbers of both kinds, their r-shifted and weighted-polynomial
relatives, Whitney numbers, Bernoulli and higher-order Bernoulli numbers, and
Bell numbers/polynomials.  Stirling, r-Stirling and Bell numbers are exact
``int``s, the Bernoulli families exact ``Fraction``s; all are memoized in one
shared write-once triangle cache, filled row by row by ``TriangleCache.fill_rows``.

Conventions
-----------
* ``stirling2(n, k)``: partitions of an n-set into k blocks,
  {n+1,k} = k{n,k} + {n,k-1}.
* ``stirling1(n, k)``: signed, s(n+1,k) = s(n,k-1) - n s(n,k), so that
  x(x-1)...(x-n+1) = sum_k s(n,k) x^k.
* ``r_stirling2(n, k, r)``: the shifted r-Stirling value {n+r, k+r}_r, i.e.
  partitions of an (n+r)-set into k+r blocks where the first r elements live
  in distinct blocks.  Recurrence T(n+1,k) = (k+r) T(n,k) + T(n,k-1),
  T(0,k) = [k = 0].
* ``weighted_stirling_poly(n, k)``: S_n^k(x) = sum_i C(n,i) {i,k} x^{n-i}, the
  polynomial with S_n^k(r) = {n+r, k+r}_r for every nonnegative integer r.
* ``bernoulli(n)``: coefficient of z^n/n! in z/(e^z - 1), so B_1 = -1/2.
* ``gen_bernoulli(n, alpha)``: coefficient of z^n/n! in (z/(e^z - 1))^alpha
  for integer alpha >= 0.
* ``bell_poly(n)``: phi_n(x) = sum_k {n,k} x^k; ``bell_number(n)`` = phi_n(1).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .exact_core import Polynomial, RationalLike, poly_eval, rational

__all__ = [
    "TriangleCache",
    "CACHE",
    "reset_cache",
    "stirling1",
    "stirling2",
    "stirling2_row",
    "r_stirling2",
    "weighted_stirling_poly",
    "whitney2",
    "bernoulli",
    "gen_bernoulli",
    "bell_poly",
    "bell_number",
]

Key = tuple  # (family tag, row, col)


class TriangleCache:
    """Write-once memo for triangular families, keyed by (tag, row, col).

    There is no lock: every read and write is one dict operation, which is
    atomic in CPython, and ``put`` is ``dict.setdefault``, so two threads
    racing on the same cell still observe the same value.  ``force`` exists
    for fault injection in tests and is the only way to overwrite an entry.
    """

    def __init__(self) -> None:
        self._store: dict[Key, object] = {}
        self._rows: dict[str, int] = {}

    def get(self, key: Key):
        return self._store.get(key)

    def put(self, key: Key, value):
        return self._store.setdefault(key, value)

    def fill_rows(self, tag: str, n_max: int, step, width: int | None = None) -> None:
        """Fill rows 0..n_max of ``tag`` with ``step(tag, r, c)``, in increasing
        order so every read of row r-1 hits the cache.  Row r holds columns
        0..r (a triangle) when ``width`` is None, else columns 0..width-1.

        A fill resumes after the last row it recorded as complete; ``put``
        keeps the first value, so cells planted by ``force`` win and feed
        later rows.  A racing fill may record a lower count, which only costs
        a redundant refill; ``clear`` must not race a fill.
        """
        for r in range(self._rows.get(tag, 0), n_max + 1):
            for c in range(r + 1 if width is None else width):
                self.put((tag, r, c), step(tag, r, c))
            self._rows[tag] = r + 1

    def force(self, key: Key, value) -> None:
        """Test hook: overwrite one cell, bypassing write-once semantics."""
        self._store[key] = value

    def clear(self) -> None:
        self._store.clear()
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Key) -> bool:
        return key in self._store


CACHE = TriangleCache()

_S1 = "s1"
_S2 = "s2"
_BERN = "bernoulli"
_BELL = "bell"


def reset_cache() -> None:
    CACHE.clear()


def _check_indices(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, k={k}")


def _cached(tag: str, r: int, c: int):
    val = CACHE.get((tag, r, c))
    return 0 if val is None else val


def _cell(tag: str, n: int, k: int, step, width: int | None = None):
    """Cell (n, k) of ``tag``: one cache read on a hit, else fill rows 0..n."""
    hit = CACHE.get((tag, n, k))
    if hit is None:
        CACHE.fill_rows(tag, n, step, width)
        hit = CACHE.get((tag, n, k))
    return hit


def _s2_step(tag: str, r: int, c: int) -> int:
    if r == 0:
        return 1 if c == 0 else 0
    if c == 0:
        return 0
    return c * _cached(tag, r - 1, c) + _cached(tag, r - 1, c - 1)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind {n, k}."""
    _check_indices(n, k)
    return 0 if k > n else _cell(_S2, n, k, _s2_step)


def stirling2_row(n: int) -> list[int]:
    """[{n,0}, ..., {n,n}]: one fill, then plain cache reads, so cells
    planted by ``force`` win as they do in :func:`stirling2`."""
    _check_indices(n, 0)
    CACHE.fill_rows(_S2, n, _s2_step)
    return [CACHE.get((_S2, n, k)) for k in range(n + 1)]


def _s1_step(tag: str, r: int, c: int) -> int:
    if r == 0:
        return 1 if c == 0 else 0
    if c == 0:
        return 0
    return _cached(tag, r - 1, c - 1) - (r - 1) * _cached(tag, r - 1, c)


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    _check_indices(n, k)
    return 0 if k > n else _cell(_S1, n, k, _s1_step)


def r_stirling2(n: int, k: int, r: int) -> int:
    """The shifted r-Stirling number {n+r, k+r}_r."""
    _check_indices(n, k)
    if r < 0:
        raise ValueError(f"shift must be nonnegative, got r={r}")
    if k > n:
        return 0

    def step(t: str, row: int, c: int) -> int:
        if row == 0:
            return 1 if c == 0 else 0
        return (c + r) * _cached(t, row - 1, c) + _cached(t, row - 1, c - 1)

    return _cell(f"s2r:{r}", n, k, step)


def weighted_stirling_poly(n: int, k: int) -> Polynomial:
    """S_n^k(x) = sum_{i} C(n,i) {i,k} x^{n-i}; the zero polynomial if k > n."""
    _check_indices(n, k)
    if k > n:
        return Polynomial()
    coeffs = [Fraction(0)] * (n - k + 1)
    for i in range(k, n + 1):
        coeffs[n - i] = comb(n, i) * stirling2(i, k)
    return Polynomial(coeffs)


def whitney2(n: int, k: int, m: int, r: int) -> Fraction:
    """Whitney number of the second kind W_{m,r}(n,k) = m^{n-k} S_n^k(r/m)."""
    _check_indices(n, k)
    if m <= 0:
        raise ValueError(f"modulus must be positive, got m={m}")
    if k > n:
        return Fraction(0)
    return Fraction(m) ** (n - k) * poly_eval(weighted_stirling_poly(n, k), Fraction(r, m))


def _bern_step(tag: str, m: int, c: int) -> Fraction:
    if m == 0:
        return Fraction(1)
    return -sum(comb(m + 1, j) * _cached(tag, j, 0) for j in range(m)) / (m + 1)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    _check_indices(n, 0)
    return _cell(_BERN, n, 0, _bern_step, 1)


def _genbern_tag(alpha: int) -> str:
    """One column per order; order 1 is the Bernoulli column itself."""
    return _BERN if alpha == 1 else f"genbernoulli:{alpha}"


def _genbern_step(tag: str, m: int, c: int) -> Fraction:
    lower = _genbern_tag(int(tag.partition(":")[2]) - 1)
    return sum(comb(m, j) * _cached(_BERN, j, 0) * _cached(lower, m - j, 0) for j in range(m + 1))


def gen_bernoulli(n: int, alpha: int) -> Fraction:
    """Higher-order Bernoulli number B_n^(alpha), coefficient of z^n/n! in
    (z/(e^z - 1))^alpha, built by repeated binomial convolution."""
    if n < 0 or alpha < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, alpha={alpha}")
    if alpha == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    hit = CACHE.get((_genbern_tag(alpha), n, 0))
    if hit is not None:
        return hit
    bernoulli(n)
    for a in range(2, alpha + 1):  # order a reads order a-1, already filled to row n
        CACHE.fill_rows(_genbern_tag(a), n, _genbern_step, 1)
    return CACHE.get((_genbern_tag(alpha), n, 0))


def bell_poly(n: int) -> Polynomial:
    """Bell polynomial phi_n(x) = sum_k {n,k} x^k."""
    _check_indices(n, 0)
    return Polynomial(stirling2_row(n))


def _bell_step(tag: str, r: int, c: int) -> int:
    return sum(stirling2_row(r))


def bell_number(n: int) -> int:
    """Bell number phi_n = number of partitions of an n-set."""
    _check_indices(n, 0)
    return _cell(_BELL, n, 0, _bell_step, 1)
