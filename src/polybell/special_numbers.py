"""Classical exact sequences used throughout the package.

Stirling numbers of both kinds, their r-shifted and weighted-polynomial
relatives, Bernoulli and higher-order Bernoulli numbers, and Bell
numbers/polynomials, as exact ``int`` rows memoized in one shared write-once
cache: a tag maps to rows filled in order by ``fill_rows``, row r from row r-1
alone, and ``rows(tag)`` hands a reader of many cells the tag's map.  Three
families are read at entry 0 and hold only their last two rows whole: ``bell``
(Aitken's array, phi_r), ``bell:p`` (``pbell``'s Z-triangle by antidiagonals)
and ``bernoulli`` (Seidel-Entringer rows, the zigzag number E_r).  Higher-order
Bernoulli numbers are swept from the Bernoulli column, not stored.

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
from itertools import accumulate
from math import comb

from .exact_core import Polynomial, _over_lcm

__all__ = [
    "TriangleCache",
    "CACHE",
    "reset_cache",
    "stirling1",
    "stirling2",
    "stirling2_row",
    "r_stirling2",
    "weighted_stirling_poly",
    "bernoulli",
    "gen_bernoulli",
    "bell_poly",
    "bell_number",
]


class TriangleCache:
    """Write-once memo for triangular families: one map per tag from row
    index to row tuple, filled in row order, so the rows held are 0..len-1.

    ``put((tag, r), row)`` stores a whole row; ``get((tag, r, c))`` and
    ``key in cache`` read one cell of a stored row, and ``rows(tag)`` hands
    out the tag's map for readers of many cells.  ``put`` is ``dict.setdefault``,
    so of two racing fills the first row stored wins; ``force``, a fault-injection
    hook for tests, is the only way to change a stored value.
    """

    def __init__(self) -> None:
        self._tags: dict[str, dict[int, tuple]] = {}
        self._planted: dict[tuple, dict[int, object]] = {}

    def rows(self, tag: str) -> dict[int, tuple]:
        """The live row map of ``tag``; empty until a row is stored."""
        return self._tags.setdefault(tag, {})

    def get(self, key: tuple):
        tag, r, c = key
        row = self.rows(tag).get(r, ())
        return row[c] if c < len(row) else None

    def put(self, key: tuple, row: tuple) -> tuple:
        return self.rows(key[0]).setdefault(key[1], row)

    def fill_rows(self, tag: str, n_max: int, step) -> tuple:
        """Build rows 0..n_max of ``tag``, row r as ``step(tag, r, row r-1)``
        (row -1 is ``()``), and return row n_max.

        A fill resumes at the first row not stored, so a stored row is
        returned without calling ``step``.  Cells that ``force`` parked for a
        row are planted by ``force`` as soon as it is stored, so they feed
        every later row.  ``clear`` must not race a fill.
        """
        rows = self.rows(tag)
        for r in range(len(rows), n_max + 1):
            self.put((tag, r), step(tag, r, rows.get(r - 1, ())))
            for c, value in self._planted.pop((tag, r), {}).items():
                self.force((tag, r, c), value)
        return rows[n_max]

    def force(self, key: tuple, value) -> None:
        """Test hook: overwrite cell (tag, r, c).  A stored row is replaced
        by a copy holding the value, and rows already built keep theirs; a
        row not yet built takes the value when ``fill_rows`` builds it, so
        it feeds the rows built after it.  A cell past the end of a stored
        row, cut or not, raises ``IndexError``."""
        tag, r, c = key
        rows = self.rows(tag)
        if r in rows:
            if c >= len(rows[r]):
                raise IndexError(f"no cell {key}: row {r} of {tag!r} has {len(rows[r])}")
            rows[r] = rows[r][:c] + (value,) + rows[r][c + 1 :]
        else:
            self._planted.setdefault((tag, r), {})[c] = value

    def clear(self) -> None:
        self._tags.clear()
        self._planted.clear()

    def __contains__(self, key: tuple) -> bool:
        tag, r, c = key
        return c < len(self.rows(tag).get(r, ()))


CACHE = TriangleCache()

def reset_cache() -> None:
    CACHE.clear()


def _check_indices(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, k={k}")


def _r_step(shift: int):
    """Row step of T(r, c) = (c + shift) T(r-1, c) + T(r-1, c-1), T(0, c) = [c = 0]."""
    return lambda tag, r, prev: (
        tuple((c + shift) * a + b for c, (a, b) in enumerate(zip(prev + (0,), (0,) + prev)))
        if r
        else (1,)
    )


_s2_step = _r_step(0)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind {n, k}."""
    _check_indices(n, k)
    return 0 if k > n else CACHE.fill_rows("s2", n, _s2_step)[k]


def stirling2_row(n: int) -> list[int]:
    """[{n,0}, ..., {n,n}]: a copy of the stored row, so cells planted by
    ``force`` win as they do in :func:`stirling2`."""
    _check_indices(n, 0)
    return list(CACHE.fill_rows("s2", n, _s2_step))


def _s1_step(tag: str, r: int, prev: tuple) -> tuple:
    return tuple(b - (r - 1) * a for a, b in zip(prev + (0,), (0,) + prev)) if r else (1,)


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    _check_indices(n, k)
    return 0 if k > n else CACHE.fill_rows("s1", n, _s1_step)[k]


def r_stirling2(n: int, k: int, r: int) -> int:
    """The shifted r-Stirling number {n+r, k+r}_r."""
    _check_indices(n, k)
    if r < 0:
        raise ValueError(f"shift must be nonnegative, got r={r}")
    return 0 if k > n else CACHE.fill_rows(f"s2r:{r}", n, _r_step(r))[k]


def weighted_stirling_poly(n: int, k: int) -> Polynomial:
    """S_n^k(x) = sum_{i} C(n,i) {i,k} x^{n-i}; the zero polynomial if k > n."""
    _check_indices(n, k)
    return Polynomial([comb(n, i) * stirling2(i, k) for i in range(n, k - 1, -1)])


def _column_step(step):
    """Fill step of a family read at entry 0: row 0 is (1,), row r is ``step(r, row r-1)``
    and cuts row r-2 to its first entry (a fill that reads a cut row builds a stored one)."""
    def fill(tag: str, r: int, prev: tuple) -> tuple:
        if r > 1:
            rows = CACHE.rows(tag)
            rows[r - 2] = rows[r - 2][:1]
        return step(r, prev) if r else (1,)
    return fill


def _column(tag: str, n_max: int, step) -> list[int]:
    """Entry 0 of rows 0..n_max of ``tag``, from one fill and one read of the row map."""
    CACHE.fill_rows(tag, n_max, step)
    rows = CACHE.rows(tag)
    return [rows[n][0] for n in range(n_max + 1)]


# Seidel-Entringer triangle (A008280): row r-1 accumulated from 0, reversed; starts at E_r.
_zigzag_step = _column_step(lambda r, prev: tuple(accumulate(prev, initial=0))[::-1])


def _bernoulli(n: int, e: int) -> Fraction:
    """B_n from the zigzag number e = E_{n-1}, which only even n >= 2 read."""
    if n < 2 or n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(int(n == 0))
    return Fraction((-1) ** (n // 2 - 1) * n * e, (1 << 2 * n) - (1 << n))


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention); for even n >= 2, from the
    tangent number E_{n-1}: B_n = (-1)^(n/2-1) n E_{n-1} / (2^n (2^n - 1))."""
    _check_indices(n, 0)
    return _bernoulli(n, CACHE.fill_rows("bernoulli", n - 1, _zigzag_step)[0] if n > 1 and n % 2 == 0 else 0)


def _gen_bernoulli_columns(n_max: int, alpha: int):
    """Yield (C, den) with B_m^(a) = C[m] / den, m <= n_max, for a = 0..alpha:
    [1, 0, ...] over 1, the Bernoulli column over its lcm d from one read of the zigzag
    numbers, then by Nörlund's (1924) recurrence in the order, B_m^(a+1) = (1 - m/a) B_m^(a)
    - m B_{m-1}^(a), C_m^(a+1) = (a - m) C_m^(a) - a m C_{m-1}^(a) over a! d."""
    yield [1] + [0] * n_max, 1
    if alpha:
        zigzag = [0] + (_column("bernoulli", n_max - 1, _zigzag_step) if n_max else [])
        column, den = _over_lcm(map(_bernoulli, range(n_max + 1), zigzag))
        yield column, den
        for a in range(1, alpha):
            column = [(a - m) * c - a * m * low for m, (c, low) in enumerate(zip(column, [0] + column))]
            den *= a
            yield column, den


def gen_bernoulli(n: int, alpha: int) -> Fraction:
    """Higher-order Bernoulli number B_n^(alpha), coefficient of z^n/n! in
    (z/(e^z - 1))^alpha, by Nörlund's recurrence in the order."""
    _check_indices(n, alpha)
    *_, (column, den) = _gen_bernoulli_columns(n, alpha)
    return Fraction(column[n], den)


def bell_poly(n: int) -> Polynomial:
    """Bell polynomial phi_n(x) = sum_k {n,k} x^k."""
    _check_indices(n, 0)
    return Polynomial(stirling2_row(n))


# Aitken's array (A011971): row r-1 accumulated from its last entry; starts at phi_r.
_bell_step = _column_step(lambda r, prev: tuple(accumulate(prev, initial=prev[-1])))


def bell_number(n: int) -> int:
    """Bell number phi_n = number of partitions of an n-set."""
    _check_indices(n, 0)
    return CACHE.fill_rows("bell", n, _bell_step)[0]


def _bell_column(n_max: int) -> list[int]:
    """[phi_0, ..., phi_{n_max}]."""
    return _column("bell", n_max, _bell_step)
