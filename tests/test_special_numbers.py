import sys
import threading
from fractions import Fraction
from itertools import islice
from math import comb, factorial, lcm

import pytest

from polybell.exact_core import (
    EgfSeries,
    Polynomial,
    _over_lcm,
    egf_constant,
    egf_div,
    egf_em1,
    egf_mul,
    poly_eval,
)
from polybell.pbell import _recurrence_table, _z_rows, pbell_column
from polybell.special_numbers import (
    CACHE,
    TriangleCache,
    _bell_column,
    _column,
    _gen_bernoulli_columns,
    _zigzag_step,
    bell_number,
    bell_poly,
    bernoulli,
    gen_bernoulli,
    r_stirling2,
    stirling1,
    stirling2,
    stirling2_row,
    weighted_stirling_poly,
)


def egf_z(order):
    """The monomial z (EGF coefficients 0, 1, 0, 0, ...)."""
    return EgfSeries([int(k == 1) for k in range(order + 1)])


def _partition_counts(n: int) -> dict[int, int]:
    """Block-count histogram of all set partitions of {0..n-1}, enumerated as
    restricted growth strings.  Independent brute-force oracle."""
    counts: dict[int, int] = {}

    def extend(prefix: list[int], used: int):
        if len(prefix) == n:
            counts[used] = counts.get(used, 0) + 1
            return
        for block in range(used + 1):
            extend(prefix + [block], max(used, block + 1))

    if n == 0:
        return {0: 1}
    extend([], 0)
    return counts


@pytest.mark.parametrize("n", range(0, 9))
def test_stirling2_counts_partitions(n):
    oracle = _partition_counts(n)
    for k in range(n + 2):
        assert stirling2(n, k) == oracle.get(k, 0)


def test_stirling2_out_of_range():
    assert stirling2(3, 5) == 0
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_stirling1_expands_falling_factorial():
    # x(x-1)...(x-n+1) = sum_k s(n,k) x^k, checked as exact polynomials
    x = Polynomial.x()
    for n in range(13):
        falling = Polynomial([1])
        for i in range(n):
            falling = falling * (x - Polynomial([i]))
        expected = Polynomial([stirling1(n, k) for k in range(n + 1)])
        assert falling == expected


@pytest.mark.parametrize("n", range(0, 21, 4))
def test_stirling_orthogonality(n):
    for m in range(n + 1):
        total = sum(stirling1(n, k) * stirling2(k, m) for k in range(n + 1))
        assert total == (1 if n == m else 0)


def test_r_stirling2_reduces_to_plain():
    for n in range(10):
        for k in range(n + 2):
            assert r_stirling2(n, k, 0) == stirling2(n, k)


def test_r_stirling2_binomial_expansion():
    # T_r(n,k) = sum_j C(n,j) r^{n-j} {j,k}: distribute the elements that sit
    # with the r special blocks
    for r in (1, 2, 3):
        for n in range(9):
            for k in range(n + 1):
                expected = sum(
                    comb(n, j) * r ** (n - j) * stirling2(j, k) for j in range(k, n + 1)
                )
                assert r_stirling2(n, k, r) == expected


def test_weighted_stirling_poly_values():
    for n in range(9):
        for k in range(n + 1):
            poly = weighted_stirling_poly(n, k)
            # at x = 0 it collapses to a plain Stirling number
            assert poly_eval(poly, 0) == stirling2(n, k)
            # at x = 1 it shifts both indices up by one
            assert poly_eval(poly, 1) == stirling2(n + 1, k + 1)
            # at integer x = r it matches the r-shifted triangle
            for r in (1, 2, 3):
                assert poly_eval(poly, r) == r_stirling2(n, k, r)


def test_weighted_stirling_poly_above_diagonal_is_zero():
    assert weighted_stirling_poly(3, 5).is_zero


def test_bernoulli_against_series_quotient():
    # dual route: z/(e^z - 1) coefficient extraction vs the recurrence
    q = egf_div(egf_z(21), egf_em1(21))
    for n in range(21):
        assert bernoulli(n) == q.coeff(n)


def _bernoulli_by_recurrence(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} from sum_{j<=m} C(m+1, j) B_j = 0, one Fraction sum per number:
    the reference for the Seidel-Entringer route of ``bernoulli``."""
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_bernoulli_matches_the_fraction_recurrence():
    assert [bernoulli(n) for n in range(401)] == _bernoulli_by_recurrence(400)
    assert all(type(v) is int for row in CACHE.rows("bernoulli").values() for v in row)


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    for n in range(3, 20, 2):
        assert bernoulli(n) == 0


def test_norlund_sweep_reads_the_bernoulli_column_over_its_lcm():
    # order 1 of the sweep is built from one read of the zigzag numbers
    for n in (0, 1, 2, 3, 30, 31, 60):
        _, order_one = islice(_gen_bernoulli_columns(n, 1), 2)
        assert order_one == _over_lcm(map(bernoulli, range(n + 1))), n
    CACHE.clear()
    assert next(islice(_gen_bernoulli_columns(0, 3), 1, 2)) == ([1], 1)
    assert CACHE.rows("bernoulli") == {}


def test_gen_bernoulli_level_one():
    for n in range(15):
        assert gen_bernoulli(n, 1) == bernoulli(n)


def test_gen_bernoulli_level_zero_and_small():
    assert gen_bernoulli(0, 0) == 1
    assert gen_bernoulli(3, 0) == 0
    for alpha in (1, 2, 3, 4):
        assert gen_bernoulli(0, alpha) == 1
        assert gen_bernoulli(1, alpha) == Fraction(-alpha, 2)
        assert gen_bernoulli(2, alpha) == Fraction(alpha * (3 * alpha - 1), 12)


def test_gen_bernoulli_convolution():
    # (z/(e^z-1))^alpha (z/(e^z-1))^beta = (z/(e^z-1))^{alpha+beta}
    order = 12
    for alpha in (1, 2, 3):
        for beta in (1, 2, 4):
            sa = EgfSeries([gen_bernoulli(n, alpha) for n in range(order + 1)])
            sb = EgfSeries([gen_bernoulli(n, beta) for n in range(order + 1)])
            sab = EgfSeries([gen_bernoulli(n, alpha + beta) for n in range(order + 1)])
            assert egf_mul(sa, sb).coeffs == sab.coeffs


def test_bell_numbers_and_polynomials():
    known = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    for n, value in enumerate(known):
        assert bell_number(n) == value
        assert poly_eval(bell_poly(n), 1) == value
    # row polynomial coefficients are the partition-count triangle
    assert bell_poly(4).coeffs == (0, 1, 7, 6, 1)
    assert bell_poly(0).coeffs == (1,)


def test_bell_poly_touchard_recurrence():
    x = Polynomial.x()
    for n in range(12):
        rhs = Polynomial([0])
        for k in range(n + 1):
            rhs = rhs + comb(n, k) * bell_poly(k)
        assert bell_poly(n + 1) == x * rhs


# ---------------------------------------------------------------------------
# the memo cache


def test_cache_put_is_write_once():
    cache = TriangleCache()
    assert cache.put(("t", 1), (4, Fraction(5))) == (4, 5)
    assert cache.put(("t", 1), (8, Fraction(9))) == (4, 5)
    assert cache.get(("t", 1, 1)) == 5
    assert ("t", 1, 1) in cache
    assert ("t", 1, 2) not in cache and cache.get(("t", 1, 2)) is None
    assert len(cache.rows("t")) == 1


def test_cache_force_overrides_for_tests():
    cache = TriangleCache()
    cache.put(("t", 1), (4, Fraction(5)))
    cache.force(("t", 1, 1), Fraction(9))
    assert cache.get(("t", 1, 0)) == 4 and cache.get(("t", 1, 1)) == 9
    cache.force(("t", 2, 0), Fraction(7))  # row 2 is not built: parked, not readable
    assert cache.get(("t", 2, 0)) is None
    with pytest.raises(IndexError, match=r"\('t', 1, 2\)"):
        cache.force(("t", 1, 2), 0)  # past the end of a stored row
    cache.force(("t", 3, 4), 0)  # parked past the end of the row that fill_rows builds
    with pytest.raises(IndexError, match=r"\('t', 3, 4\)"):
        cache.fill_rows("t", 3, lambda tag, r, prev: (r, r))
    bell_number(10)
    with pytest.raises(IndexError, match=r"\('bell', 3, 2\)"):
        CACHE.force(("bell", 3, 2), 99)  # row 3 is cut to (phi_3,)
    assert CACHE.rows("bell")[3] == (5,) and bell_number(3) == 5
    cache.clear()
    assert cache.rows("t") == {}
    assert cache.get(("t", 1, 1)) is None
    # clear also drops the parked cell, so a later fill computes row 2 afresh
    assert cache.fill_rows("t", 2, lambda tag, r, prev: (r, r)) == (2, 2)


def test_global_cache_resets_between_tests():
    # conftest's autouse fixture must have cleared anything earlier tests left
    assert ("s2", 6, 3) not in CACHE or CACHE.get(("s2", 6, 3)) == 90


def test_cache_concurrent_fill_is_consistent():
    results = []
    errors = []

    def worker():
        try:
            results.append(stirling2(60, 30))
        except Exception as exc:  # pragma: no cover - only on a real race
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(set(results)) == 1
    # spot value against the explicit alternating-sum formula
    expected = sum((-1) ** (30 - j) * comb(30, j) * j**60 for j in range(31)) // factorial(30)
    assert results[0] == expected


# ---------------------------------------------------------------------------
# the resumable row fill


def _s2_rows(n_max: int, poke: dict | None = None) -> list[list]:
    """Rows 0..n_max of {n,k} by the plain recurrence, with ``poke`` cells
    replaced as they are reached, so a corrupted cell feeds the rows above it."""
    poke = poke or {}
    rows = [[poke.get((0, 0), 1)]]
    for r in range(1, n_max + 1):
        prev = rows[-1] + [0]
        row = [0] + [c * prev[c] + prev[c - 1] for c in range(1, r + 1)]
        rows.append([poke.get((r, c), v) for c, v in enumerate(row)])
    return rows


def test_integer_families_are_ints():
    assert type(stirling2(10, 3)) is int
    assert type(stirling1(10, 3)) is int
    assert type(r_stirling2(10, 3, 2)) is int
    assert type(bell_number(10)) is int
    assert type(stirling2(3, 5)) is int


def test_stirling2_row_is_a_copy():
    row = stirling2_row(6)
    row[3] = 0
    row.append(1)
    assert stirling2(6, 3) == 90
    assert stirling2_row(6) == [0, 1, 31, 90, 65, 15, 1]


def test_stirling2_row_matches_cells():
    for n in (30, 0, 12):
        assert stirling2_row(n) == [stirling2(n, k) for k in range(n + 1)]
    CACHE.force(("s2", 6, 3), 91)
    assert stirling2_row(6)[3] == 91
    with pytest.raises(ValueError):
        stirling2_row(-1)


def test_forced_cell_before_fill_spreads():
    CACHE.force(("s2", 6, 3), Fraction(91))
    expected = _s2_rows(9, {(6, 3): 91})
    assert [stirling2(9, k) for k in range(10)] == expected[9]
    assert stirling2(6, 3) == 91
    assert stirling2(7, 3) == 3 * 91 + 31


def test_forced_cell_after_partial_fill_spreads():
    assert stirling2(4, 2) == 7
    CACHE.force(("s2", 6, 3), Fraction(91))
    expected = _s2_rows(9, {(6, 3): 91})
    assert [stirling2(9, k) for k in range(10)] == expected[9]
    assert [stirling2(5, k) for k in range(6)] == _s2_rows(5)[5]


def test_forced_cell_in_complete_row_is_kept_but_not_refilled():
    # rows already filled are never recomputed, so the poke is read back
    # but does not reach rows that were complete before it
    assert stirling2(10, 4) == 34105
    CACHE.force(("s2", 6, 3), Fraction(91))
    assert stirling2(6, 3) == 91
    assert [stirling2(12, k) for k in range(13)] == _s2_rows(12)[12]


def test_forced_diagonal_cell_does_not_skip_lower_rows():
    CACHE.force(("s2", 10, 10), 1)
    assert stirling2(10, 4) == 34105
    clean = _s2_rows(10)
    for r in range(11):
        for c in range(r + 1):
            assert CACHE.get(("s2", r, c)) == clean[r][c], (r, c)


class CountingCache(TriangleCache):
    def __init__(self):
        super().__init__()
        self.puts: dict = {}

    def put(self, key, value):
        self.puts[key] = self.puts.get(key, 0) + 1
        return super().put(key, value)


def _counting_cache(monkeypatch) -> CountingCache:
    import polybell.special_numbers as sn

    cache = CountingCache()
    monkeypatch.setattr(sn, "CACHE", cache)
    return cache


def test_sequential_requests_put_each_cell_once(monkeypatch):
    cache = _counting_cache(monkeypatch)
    for n in range(201):
        assert stirling2(n, 1) == (1 if n >= 1 else 0)
    assert set(cache.puts) == {("s2", r) for r in range(201)}
    assert set(cache.puts.values()) == {1}
    assert all(("s2", r, r) in cache and ("s2", r, r + 1) not in cache for r in range(201))


def test_racing_fills_never_skip_a_row():
    # threads resume from each other's recorded row counts; a count that ran
    # ahead of the rows actually written would leave cells missing
    clean = _s2_rows(120)
    results: dict = {}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda n=n: results.update({n: stirling2(n, n // 3)}))
            for n in range(40, 121, 10)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == {n: clean[n][n // 3] for n in range(40, 121, 10)}
    for r in range(121):
        assert [CACHE.get(("s2", r, c)) for c in range(r + 1)] == clean[r], r


def test_cache_clear_forgets_complete_rows():
    cache = TriangleCache()

    def step(tag, r, prev):
        return tuple(10 * r + c for c in range(r + 1))

    def boom(tag, r, prev):
        raise AssertionError(f"row {r} of {tag} was built again")

    assert cache.fill_rows("t", 3, step) == (30, 31, 32, 33)
    assert len(cache.rows("t")) == 4 and cache.get(("t", 3, 2)) == 32
    assert cache.fill_rows("t", 2, boom) == (20, 21, 22)  # a stored row calls no step
    cache.clear()
    assert cache.fill_rows("t", 1, step) == (10, 11)
    assert len(cache.rows("t")) == 2 and cache.get(("t", 0, 0)) == 0


def test_stored_reads_make_no_per_cell_get(monkeypatch):
    # a stored column or row is read whole through its row map, never cell by cell
    calls = [lambda: pbell_column(60, 3), lambda: gen_bernoulli(40, 4), lambda: stirling2(30, 7)]
    first = [call() for call in calls]

    def no_get(self, key):
        raise AssertionError(f"per-cell get of {key}")

    monkeypatch.setattr(TriangleCache, "get", no_get)
    assert [call() for call in calls] == first


# ---------------------------------------------------------------------------
# the one-column families share the same fill


def test_one_column_families_put_each_cell_once(monkeypatch):
    cache = _counting_cache(monkeypatch)
    for n in range(31):
        gen_bernoulli(n, 4)
    assert {tag for tag, r in cache.puts} == {"bernoulli"}  # higher orders are not stored
    for n in range(31):
        bernoulli(n)
        gen_bernoulli(n, 4)
        bell_number(n)
        _z_rows(n, 2)
    # B_30 reads the zigzag number E_29, so the bernoulli rows stop one short
    rows = {"bernoulli": 30, "bell": 31, "bell:2": 31}
    assert set(cache.puts) == {(tag, r) for tag, n in rows.items() for r in range(n)}
    assert set(cache.puts.values()) == {1}
    whole = {(tag, r) for tag, n in rows.items() for r in (n - 2, n - 1)}  # the last two rows
    assert all((key + (0,) in cache) and (key + (1,) in cache) == (key in whole) for key in cache.puts)


# ---------------------------------------------------------------------------
# Bell numbers from Aitken's array


def test_aitken_bell_numbers_are_the_stirling_row_sums():
    sums = [sum(stirling2_row(n)) for n in range(301)]
    CACHE.clear()
    assert _bell_column(300) == sums
    assert [bell_number(n) for n in range(301)] == sums


def _zigzag_numbers(n_max: int) -> list[int]:
    """E_0..E_{n_max} by 2 E_{n+1} = sum_k C(n,k) E_k E_{n-k} for n >= 1: the reference
    for the first entries of the Seidel-Entringer rows."""
    e = [1, 1]
    for n in range(1, n_max):
        e.append(sum(comb(n, k) * e[k] * e[n - k] for k in range(n + 1)) // 2)
    return e[: n_max + 1]


# the three families read at entry 0 of their rows: tag -> (that column through the
# cache, a reference that reads no row of the tag)
COLUMN_FAMILIES = {
    "bell": (_bell_column, lambda n: [sum(stirling2_row(k)) for k in range(n + 1)]),
    "bell:3": (
        lambda n: _z_rows(n, 3),
        lambda n: [int(b * lcm(*range(4, k + 4))) for k, b in enumerate(_recurrence_table(n, 3))],
    ),
    "bernoulli": (lambda n: _column("bernoulli", n, _zigzag_step), _zigzag_numbers),
}


@pytest.mark.parametrize("tag", COLUMN_FAMILIES)
def test_column_fill_resumes_from_the_last_two_rows(tag):
    column, reference = COLUMN_FAMILIES[tag]
    column(50)
    warm = column(120)
    assert warm == reference(120)
    CACHE.clear()
    assert column(120) == warm


@pytest.mark.parametrize("tag", COLUMN_FAMILIES)
def test_only_the_last_two_rows_are_held_whole(tag):
    column, _ = COLUMN_FAMILIES[tag]
    column(40)
    column(75)
    rows = CACHE.rows(tag)
    assert sorted(rows) == list(range(76))
    assert all(len(rows[r]) == 1 for r in range(74)) and len(rows[74]) == 75 and len(rows[75]) == 76
    assert CACHE.rows("s2") == {}


@pytest.mark.parametrize("tag", COLUMN_FAMILIES)
def test_racing_column_fills_read_whole_rows(tag):
    # a fill builds row r from row r-1 whole, so a step may cut only a row that
    # no racing fill can still read as its last; a step that cut row r-1 in
    # place of r-2 stored wrong rows in most runs of this test
    column, reference = COLUMN_FAMILIES[tag]
    clean = reference(200)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            CACHE.clear()
            results: dict = {}
            threads = [
                threading.Thread(target=lambda n=n: results.update({n: column(n)[n]}))
                for n in range(20, 201, 20)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == {n: clean[n] for n in range(20, 201, 20)}
            assert column(200) == clean
    finally:
        sys.setswitchinterval(old)


def test_forced_bell_cell_before_fill_spreads():
    clean = _bell_column(20)
    CACHE.clear()
    CACHE.force(("bell", 10, 0), 7)
    forced = [bell_number(n) for n in range(21)]
    assert forced[:10] == clean[:10] and forced[10] == 7
    # phi_11 is the last entry of row 10, which the plant does not reach; phi_12
    # sums row 10, so it moves by exactly the planted difference
    assert forced[11] == clean[11]
    assert forced[12] - clean[12] == 7 - clean[10]
    assert all(f != c for f, c in zip(forced[12:], clean[12:]))


def test_gen_bernoulli_against_series_powers():
    # independent route: powers of the series z/(e^z - 1)
    q = egf_div(egf_z(31), egf_em1(31))
    power = egf_constant(1, 31)
    for a in range(7):
        assert [gen_bernoulli(n, a) for n in range(31)] == [power.coeff(n) for n in range(31)]
        power = egf_mul(power, q)


def test_forced_bernoulli_cell_before_fill_spreads():
    clean = _bernoulli_by_recurrence(40)
    # the bernoulli rows are Seidel-Entringer rows: row 3 is (E_3, 2, 1, 0) = (2, 2, 1, 0),
    # so E_4 = E_3 + 3 and E_5 = 4 E_3 + 8, and B_n = (-1)^(n/2-1) n E_{n-1} / (2^n (2^n - 1))
    CACHE.force(("bernoulli", 3, 0), 7)
    b4, b6 = Fraction(-4 * 7, 2**4 * (2**4 - 1)), Fraction(6 * (4 * 7 + 8), 2**6 * (2**6 - 1))
    assert bernoulli(4) == b4 != clean[4]
    assert bernoulli(6) == b6 != clean[6]
    assert [bernoulli(n) for n in range(4)] == clean[:4] and bernoulli(5) == 0
    assert all(bernoulli(n) != clean[n] for n in range(8, 41, 2))
    # Nörlund's step from order 1: B_6^(2) = (1 - 6) B_6 - 6 B_5, clean value -5/42
    assert gen_bernoulli(6, 2) == (1 - 6) * b6 - 6 * bernoulli(5) != Fraction(-5, 42)
