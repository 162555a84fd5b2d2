"""Classical exact sequences used throughout the package.

Stirling numbers of both kinds, their r-shifted and weighted-polynomial
relatives, Bernoulli and higher-order Bernoulli numbers, and Bell
numbers/polynomials.  Stirling, r-Stirling and Bell numbers are exact
``int``s, Bernoulli numbers exact ``Fraction``s, each memoized in one shared
write-once cache mapping a tag to rows filled in order by ``fill_rows``; a
reader of many cells takes the tag's map once through ``rows(tag)``.  Bell
numbers come from Aitken's array, of which only the last two rows are held
whole (a fill racing another still reads its last row whole).  Row n
of tag ``bell:p`` is ``pbell``'s integer B_{n,p} (n+p)!/p!, stored by ``put``.
Higher-order Bernoulli numbers are swept from the Bernoulli column, not stored.

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
    out the tag's map for readers of many cells.  ``put`` is
    ``dict.setdefault``, so a re-sweep of ``pbell._z_rows`` keeps the rows
    already stored, forced ones included.  ``force`` exists for fault
    injection in tests and is the only way to change a stored value.  The
    ``bell`` step for row r cuts row r-2 to (phi_{r-2},), so memory stays O(n).
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
        row not yet built replace the computed ones before the row is stored,
        so they feed every later row; ``put`` keeps the first row stored.
        ``clear`` must not race a fill.
        """
        rows = self.rows(tag)
        for r in range(len(rows), n_max + 1):
            row = step(tag, r, rows.get(r - 1, ()))
            planted = self._planted.pop((tag, r), None)
            if planted:
                row = tuple(planted.get(c, v) for c, v in enumerate(row))
            self.put((tag, r), row)
        return rows[n_max]

    def force(self, key: tuple, value) -> None:
        """Test hook: overwrite cell (tag, r, c).  A stored row is replaced
        by a copy holding the value, and rows already built keep theirs; a
        row not yet built takes the value when ``fill_rows`` builds it, so
        it feeds the rows built after it.  Rows stored by ``put`` alone, such
        as ``bell:p``, never take a value planted before they were built."""
        tag, r, c = key
        rows = self.rows(tag)
        if r in rows:
            rows[r] = rows[r][:c] + (value,) + rows[r][c + 1 :]
        else:
            self._planted.setdefault((tag, r), {})[c] = value

    def clear(self) -> None:
        self._tags.clear()
        self._planted.clear()

    def __len__(self) -> int:
        return sum(map(len, self._tags.values()))

    def __contains__(self, key: tuple) -> bool:
        tag, r, c = key
        return c < len(self.rows(tag).get(r, ()))


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
    return 0 if k > n else CACHE.fill_rows(_S2, n, _s2_step)[k]


def stirling2_row(n: int) -> list[int]:
    """[{n,0}, ..., {n,n}]: a copy of the stored row, so cells planted by
    ``force`` win as they do in :func:`stirling2`."""
    _check_indices(n, 0)
    return list(CACHE.fill_rows(_S2, n, _s2_step))


def _s1_step(tag: str, r: int, prev: tuple) -> tuple:
    return tuple(b - (r - 1) * a for a, b in zip(prev + (0,), (0,) + prev)) if r else (1,)


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    _check_indices(n, k)
    return 0 if k > n else CACHE.fill_rows(_S1, n, _s1_step)[k]


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


def _bern_step(tag: str, m: int, prev: tuple) -> tuple:
    if m == 0:
        return (Fraction(1),)
    b = CACHE.rows(tag)
    return (-sum(comb(m + 1, j) * b[j][0] for j in range(m)) / (m + 1),)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    _check_indices(n, 0)
    return CACHE.fill_rows(_BERN, n, _bern_step)[0]


def _gen_bernoulli_columns(n_max: int, alpha: int):
    """Yield (C, den) with B_m^(a) = C[m] / den, m <= n_max, for a = 0..alpha:
    [1, 0, ...] over 1, the Bernoulli column over its lcm d, then by Nörlund's
    (1924) recurrence in the order, B_m^(a+1) = (1 - m/a) B_m^(a) - m B_{m-1}^(a),
    C_m^(a+1) = (a - m) C_m^(a) - a m C_{m-1}^(a) over a! d."""
    yield [1] + [0] * n_max, 1
    if alpha:
        column, den = _over_lcm(map(bernoulli, range(n_max + 1)))
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


def _bell_step(tag: str, r: int, prev: tuple) -> tuple:
    """Row r of Aitken's array (OEIS A011971), starting at phi_r.  Row r-2 is cut to
    (phi_{r-2},): a fill that reads it as its last row builds a row already stored."""
    if r > 1:
        rows = CACHE.rows(tag)
        rows[r - 2] = rows[r - 2][:1]
    return tuple(accumulate(prev, initial=prev[-1])) if r else (1,)


def bell_number(n: int) -> int:
    """Bell number phi_n = number of partitions of an n-set."""
    _check_indices(n, 0)
    return CACHE.fill_rows(_BELL, n, _bell_step)[0]


def _bell_column(n_max: int) -> list[int]:
    """[phi_0, ..., phi_{n_max}], from one fill and one read of the row map."""
    bell_number(n_max)
    rows = CACHE.rows(_BELL)
    return [rows[n][0] for n in range(n_max + 1)]
