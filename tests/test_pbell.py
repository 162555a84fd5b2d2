import random
from fractions import Fraction
from math import comb, gcd, lcm, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybell.cli import main
from polybell.exact_core import EgfSeries, Polynomial, poly_eval
from polybell.pbell import (
    ROUTES,
    BackendMismatch,
    _pbell_numerators,
    _recurrence_table,
    _z_rows,
    pbell_column,
    pbell_columns,
    pbell_egf,
    pbell_explicit,
    pbell_gen_bernoulli,
    pbell_number,
    pbell_poly,
    pbell_poly_weighted,
    pbell_ramanujan_p1,
    pbell_recurrence,
    pbell_z_triangle,
)
from polybell.special_numbers import CACHE, TriangleCache, bell_number, bell_poly, bernoulli, reset_cache, stirling2

# the 7x4 reference matrix (columns p = 0..3, rows n = 0..6)
REFERENCE_MATRIX = {
    (0, 0): "1", (0, 1): "1", (0, 2): "1", (0, 3): "1",
    (1, 0): "1", (1, 1): "1/2", (1, 2): "1/3", (1, 3): "1/4",
    (2, 0): "2", (2, 1): "5/6", (2, 2): "1/2", (2, 3): "7/20",
    (3, 0): "5", (3, 1): "7/4", (3, 2): "14/15", (3, 3): "3/5",
    (4, 0): "15", (4, 1): "68/15", (4, 2): "13/6", (4, 3): "179/140",
    (5, 0): "52", (5, 1): "167/12", (5, 2): "127/21", (5, 3): "185/56",
    (6, 0): "203", (6, 1): "2057/42", (6, 2): "235/12", (6, 3): "8389/840",
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_reference_matrix(route):
    for (n, p), text in REFERENCE_MATRIX.items():
        assert ROUTES[route](n, p) == Fraction(text), (n, p, route)


def test_first_column_is_bell():
    for n in range(18):
        assert pbell_number(n, 0) == bell_number(n)


def test_p_one_column_harmonic_weights():
    # direct definition with C(k+1,k) = k+1
    for n in range(15):
        expected = sum(Fraction(stirling2(n, k), k + 1) for k in range(n + 1))
        assert pbell_number(n, 1) == expected


def test_columns_strictly_decrease_in_p():
    for n in range(1, 21):
        for p in range(8):
            assert pbell_number(n, p) > pbell_number(n, p + 1) > 0


def test_backend_pairwise_small_grid():
    for n in range(13):
        for p in range(5):
            values = {name: fn(n, p) for name, fn in ROUTES.items()}
            assert len(set(values.values())) == 1, (n, p, values)


def test_pbell_column_matches_scalar_calls(route_column):
    for route, fn in ROUTES.items():
        assert route_column(route, 9, 2) == [fn(n, 2) for n in range(10)], route


@pytest.mark.parametrize("route", list(ROUTES))
def test_order_climb_matches_per_column_sweeps(route, route_column):
    reset_cache()
    climbed = pbell_columns(25, 8)
    # only the p = 1 column is swept by the triangle; the higher orders climb from it
    swept = [p for p in range(9) if CACHE.rows(f"bell:{p}")]
    assert swept == [1]
    reference = [route_column(route, 25, p) for p in range(9)]
    assert climbed == reference
    for p_max in range(9):
        assert pbell_columns(25, p_max) == reference[: p_max + 1], p_max
    for n_max in range(26):
        assert pbell_columns(n_max, 8) == [col[: n_max + 1] for col in reference], n_max
    assert pbell_columns(0, 0) == [[1]]
    assert pbell_columns(0, 1) == [[1], [1]]


def test_binomials_divide_the_lcm_scale():
    # the lemma behind the integer scales: C(n+p,n) divides lcm(p+1..n+p), so
    # B_{n,p} = sum_k {n,k} / C(k+p,k) times lcm(p+1..n+p) is an integer
    for p in range(13):
        for n in range(81):
            scale = lcm(*range(p + 1, n + p + 1))
            assert scale % comb(n + p, n) == 0, (n, p)
            assert (pbell_explicit(n, p) * scale).denominator == 1, (n, p)


@pytest.mark.parametrize("route", list(ROUTES))
def test_numerator_columns_over_their_lcms_are_the_columns(route, route_column):
    columns, scales = _pbell_numerators(60, 8)
    assert len(columns) == 9 and scales == [lcm(*range(1, s + 1)) for s in range(69)]
    for p, column in enumerate(columns):
        assert len(column) == 61
        assert [Fraction(u, lcm(*range(1, n + p + 1))) for n, u in enumerate(column)] == route_column(route, 60, p)


def test_order_climb_at_the_table_size_stores_only_the_backend_column():
    reset_cache()
    columns = pbell_columns(200, 12)
    # the climbed orders are not kept as triangle rows; only the p = 1 sweep is
    assert len(CACHE.rows("bell:1")) == 212
    assert all(not CACHE.rows(f"bell:{p}") for p in (0, *range(2, 13)))
    reset_cache()
    assert columns == [pbell_column(200, p) for p in range(13)]
    with pytest.raises(ValueError):
        pbell_columns(-1, 3)
    with pytest.raises(ValueError):
        pbell_columns(3, -1)


def test_pbell_egf_coefficients():
    s = pbell_egf(8, 10)
    assert s.order == 10
    for n in range(11):
        assert s.coeff(n) == pbell_number(n, 8)


def _fraction_poly(column, n):
    """B_{n,p}(x) from one reduced Fraction per cell: the reference for the integer build of ``pbell_poly``."""
    return Polynomial([comb(n, d) * column[n - d] for d in range(n + 1)])


def test_integer_series_and_polynomials_match_the_fraction_builds():
    # pbell_egf and pbell_poly scale _z_rows' integers to one lcm; the Fraction
    # column and the explicit Stirling sum, cell by cell, are the references
    for p in range(9):
        column = pbell_column(40, p)
        explicit = [pbell_explicit(n, p) for n in range(41)]
        assert column == explicit, p
        for n in range(41):
            assert pbell_egf(p, n) == EgfSeries(column[: n + 1]) == EgfSeries(explicit[: n + 1]), (n, p)
            assert pbell_poly(n, p) == _fraction_poly(column, n) == _fraction_poly(explicit, n), (n, p)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 120), st.integers(0, 12))
def test_integer_builds_match_the_fraction_column(n, p):
    column = pbell_column(n, p)
    assert pbell_egf(p, n) == EgfSeries(column)
    assert pbell_poly(n, p) == _fraction_poly(column, n)


def test_bell_sum_recurrence():
    # the p = 0 case of the step recurrence collapses to the classical
    # partition-count sum
    for n in range(20):
        assert bell_number(n + 1) == sum(comb(n, k) * bell_number(k) for k in range(n + 1))


def test_bell_poly_touchard():
    x = Polynomial.x()
    for n in range(12):
        acc = Polynomial([0])
        for k in range(n + 1):
            acc = acc + comb(n, k) * bell_poly(k)
        assert bell_poly(n + 1) == x * acc


def test_ramanujan_route_p1():
    for n in range(16):
        assert pbell_ramanujan_p1(n) == pbell_number(n, 1)


def _fraction_ramanujan_p1(n):
    """Ramanujan's form with one reduced Fraction per term: the reference for the integer sum."""
    return sum(Fraction(comb(n, k), k + 1) * bell_number(k + 1) * bernoulli(n - k) for k in range(n + 1))


def test_integer_ramanujan_matches_the_fraction_sum():
    column = pbell_column(80, 1)
    for n in range(81):
        assert pbell_ramanujan_p1(n) == _fraction_ramanujan_p1(n) == column[n], n


def zpoly_triangle(n, p, x):
    """B_{n,p}(x) at a Fraction x by the polynomial triangle
    Z_{n+1,m}(x) = (m+1)/(m+p+1) Z_{n,m+1}(x) + (m+x) Z_{n,m}(x), Z_{0,m} = 1."""
    row = [Fraction(1)] * (n + 1)
    for _ in range(n):
        row = [Fraction(m + 1, m + p + 1) * row[m + 1] + (m + x) * row[m] for m in range(len(row) - 1)]
    return row[0]


def test_polynomial_three_routes_agree():
    points = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    for n in range(9):
        for p in range(5):
            poly = pbell_poly(n, p)
            for x in points:
                direct = poly_eval(poly, x)
                assert direct == pbell_poly_weighted(n, p, x), (n, p, x)
                assert direct == zpoly_triangle(n, p, x), (n, p, x)


def test_polynomial_at_zero_is_number():
    for n in range(10):
        for p in range(4):
            assert poly_eval(pbell_poly(n, p), 0) == pbell_number(n, p)


def test_polynomial_monic_with_binomial_lower_coeffs():
    for n in range(8):
        for p in range(4):
            poly = pbell_poly(n, p)
            assert poly.degree == n
            assert poly.coeff(n) == 1
            for j in range(n + 1):
                assert poly.coeff(j) == comb(n, j) * pbell_number(n - j, p)


def test_displayed_low_degree_forms_generic_p():
    for p in (1, 2, 3, 7):
        pf = Fraction(p)
        b1 = pbell_poly(1, p)
        assert b1.coeffs == (1 / (pf + 1), Fraction(1))
        b2 = pbell_poly(2, p)
        assert b2.coeffs == (
            (pf + 4) / ((pf + 1) * (pf + 2)),
            2 / (pf + 1),
            Fraction(1),
        )


def test_integer_triangle_column_matches_explicit():
    # the fraction-free Z-triangle sweep never reads the Stirling triangle; check it
    # against the Stirling sum cell by cell, and its single-value path too
    for p in range(13):
        column = pbell_column(40, p)
        assert column == [pbell_explicit(n, p) for n in range(41)], p
        assert all(type(c) is Fraction for c in column)
        for n in (0, 1, 17, 40):
            assert pbell_z_triangle(n, p) == column[n]


def _fraction_recurrence_table(n_max, p):
    """The derivative recurrence with one reduced Fraction per term: the
    reference for the integer sweep in ``_recurrence_table``."""
    memo = {}
    for c in range(p, p + n_max + 1):
        memo[(0, c)] = Fraction(1)
    for r in range(n_max):
        for c in range(p, p + n_max - r):
            acc = (r + 1) * memo[(r, c)]
            acc -= sum(comb(r, k) * (-1) ** (r - k) * memo[(k + 1, c)] for k in range(r - 1))
            acc -= Fraction(c, c + 1) * memo[(r, c + 1)]
            memo[(r + 1, c)] = acc
    return [memo[(r, p)] for r in range(n_max + 1)]


def test_integer_recurrence_matches_fraction_reference():
    for p in range(9):
        for n_max in (0, 1, 2, 3):
            assert _recurrence_table(n_max, p) == _fraction_recurrence_table(n_max, p), (n_max, p)
        reference = _fraction_recurrence_table(40, p)
        column = _recurrence_table(40, p)
        assert column == reference, p
        assert all(type(c) is Fraction for c in column)
        assert [pbell_recurrence(n, p) for n in range(41)] == reference, p


def test_integer_recurrence_matches_triangle_and_explicit():
    for p in range(13):
        column = _recurrence_table(60, p)
        assert column == pbell_column(60, p), p
        assert column == [pbell_explicit(n, p) for n in range(61)], p


def test_cached_triangle_columns_match_explicit_and_a_fresh_sweep():
    # single values in shuffled order leave each order's column stored up to
    # a different row; every value read back from those rows must be exact
    rng = random.Random(14)
    cells = [(n, p) for n in range(0, 201, 9) for p in range(13)]
    rng.shuffle(cells)
    cells = cells[:60]
    top: dict[int, int] = {}
    for n, p in cells:
        value = pbell_z_triangle(n, p)
        assert value == pbell_explicit(n, p), (n, p)
        assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1
        top[p] = max(top.get(p, 0), n)
    stored = {p: pbell_column(n, p) for p, n in top.items()}
    reset_cache()
    for p, n in top.items():
        assert stored[p] == pbell_column(n, p), p
        assert all(gcd(c.numerator, c.denominator) == 1 for c in stored[p])


def test_triangle_call_inside_the_stored_prefix_does_not_sweep(monkeypatch):
    stored = _z_rows(50, 3)
    expected = [pbell_explicit(n, 3) for n in range(51)]  # fills the Stirling rows first
    puts = []
    monkeypatch.setattr(TriangleCache, "put", lambda self, key, row: puts.append(key))
    assert _z_rows(30, 3) == stored[:31]
    assert pbell_z_triangle(30, 3) == expected[30]
    assert pbell_column(50, 3) == expected
    assert puts == []


def test_longer_triangle_call_keeps_the_stored_rows():
    short = _z_rows(20, 2)
    CACHE.force(("bell:2", 10, 0), 7)  # a stored row: the longer fill resumes past it
    longer = _z_rows(40, 2)
    assert longer[10] == 7 and CACHE.get(("bell:2", 10, 0)) == 7
    assert longer[:10] + longer[11:21] == short[:10] + short[11:]
    assert pbell_column(40, 2)[21:] == [pbell_explicit(n, 2) for n in range(21, 41)]


def _swept_triangle_column(n_max, p):
    """U_{0,0}..U_{n_max,0} from W_{n,0} = B_{n,p} (n+p)!/p! of the row sweep
    W_{n+1,m} = (m+1) W_{n,m+1} + m (m+n+p+1) W_{n,m} over a shrinking row, rescaled exactly to
    U_{n,0} = W_{n,0} lcm(p+1..n+p) / ((n+p)!/p!): the reference for the antidiagonal rows of ``_z_rows``."""
    row, out = [1] * (n_max + 1), []
    for n in range(n_max + 1):
        scale, q = divmod(row[0] * lcm(*range(p + 1, n + p + 1)), perm(n + p, n))
        assert q == 0, (n, p)
        out.append(scale)
        row = [(m + 1) * row[m + 1] + m * (m + n + p + 1) * row[m] for m in range(n_max - n)]
    return out


@pytest.mark.parametrize("p", [0, 1, 3, 12])
def test_antidiagonal_rows_match_the_row_sweep(p, monkeypatch):
    reference = _swept_triangle_column(300, p)
    assert _z_rows(300, p) == reference
    reset_cache()
    assert _z_rows(120, p) == reference[:121]
    put, puts = TriangleCache.put, []
    monkeypatch.setattr(TriangleCache, "put", lambda self, key, row: puts.append(key) or put(self, key, row))
    assert _z_rows(300, p) == reference  # resumes from the shorter stored column
    assert puts == [(f"bell:{p}", n) for n in range(121, 301)]


def test_single_values_divide_by_the_full_lcm():
    # pbell_z_triangle takes lcm(p+1..n+p) from the upper half of the range only;
    # the lcm over the whole range is the independent reference, n < p included
    for p in range(17):
        column = _z_rows(300, p)
        for n in range(301):
            assert pbell_z_triangle(n, p) == Fraction(column[n], lcm(*range(p + 1, n + p + 1))), (n, p)


def test_reset_cache_drops_the_triangle_columns():
    for p in range(4):
        pbell_column(25, p)
    assert all(("bell:%d" % p, n, 0) in CACHE for p in range(4) for n in range(26))
    reset_cache()
    assert not any(("bell:%d" % p, n, 0) in CACHE for p in range(4) for n in range(26))
    assert not any(CACHE.rows("bell:%d" % p) for p in range(4))


def test_cross_check_detects_a_poisoned_triangle_row():
    assert pbell_number(6, 2) == Fraction(235, 12)
    CACHE.force(("bell:2", 6, 0), 1)  # U_{6,0} = B_{6,2} lcm(3..8) is 16450
    with pytest.raises(BackendMismatch) as exc_info:
        pbell_number(6, 2, cross_check=True)
    values = exc_info.value.values
    assert values["ztriangle"] == Fraction(1, 840)
    assert values["explicit"] == values["recurrence"] == values["genbernoulli"] == Fraction(235, 12)


def test_cell_planted_before_its_triangle_column_is_applied(capsys):
    # bell:p rows are built by fill_rows like every other tag, so a parked cell takes its row
    CACHE.force(("bell:2", 6, 0), 1)  # U_{6,0} = B_{6,2} lcm(3..8) is 16450
    assert pbell_column(6, 2)[6] == Fraction(1, 840)
    # the left edge U_{d,0} feeds no other cell: its factor m r is 0
    assert pbell_column(12, 2)[7:] == [pbell_explicit(n, 2) for n in range(7, 13)]
    reset_cache()
    CACHE.force(("bell:2", 6, 0), 1)
    assert main(["value", "--kind", "pbell", "--n", "6", "--p", "2", "--cross-check"]) == 1
    err = capsys.readouterr().err
    assert "cross-check failed" in err and "ztriangle=1/840" in err and "explicit=235/12" in err


def test_recurrence_reads_no_cache():
    # a poisoned Stirling cell reaches the explicit route but not the recurrence
    CACHE.force(("s2", 6, 3), 91)
    assert pbell_explicit(6, 0) != pbell_z_triangle(6, 0)
    assert pbell_recurrence(6, 0) == pbell_z_triangle(6, 0) == 203


def test_cross_check_passes_on_clean_cache():
    assert pbell_number(7, 3, cross_check=True) == pbell_number(7, 3)


def test_cross_check_detects_poisoned_triangle():
    CACHE.force(("s2", 6, 3), Fraction(91))
    with pytest.raises(BackendMismatch) as exc_info:
        pbell_number(6, 0, cross_check=True)
    message = str(exc_info.value)
    assert "6" in message and "explicit" in message


def test_validation_errors():
    with pytest.raises(ValueError):
        pbell_number(-1, 0)
    with pytest.raises(ValueError):
        pbell_number(0, -1)
    with pytest.raises(ValueError):
        pbell_poly(3, -2)


def test_gen_bernoulli_backend_matches_triangle_past_the_acceptance_grid():
    # the acceptance grid stops at n = 25, p = 8; Nörlund's order sweep must
    # hold to the last order and row it builds
    for p in range(13):
        column = pbell_column(120, p)
        for n in range(0, 121, 8):
            assert pbell_gen_bernoulli(n, p) == column[n], (n, p)


def test_default_backend_is_triangle_sweep(monkeypatch):
    # without a cross-check, pbell_number takes the ztriangle route: from a cold
    # cache it builds rows of bell:p alone, and no Stirling, Bernoulli or Bell row
    put, tags = TriangleCache.put, []
    monkeypatch.setattr(TriangleCache, "put", lambda self, key, row: tags.append(key[0]) or put(self, key, row))
    assert pbell_number(6, 1) == Fraction(2057, 42)
    assert tags == ["bell:1"] * 7
    assert pbell_number(6, 1, cross_check=True) == Fraction(2057, 42)
    assert {"s2", "bernoulli", "bell"} <= set(tags)
    assert pbell_z_triangle(6, 1) == Fraction(2057, 42)
    assert pbell_explicit(6, 1) == Fraction(2057, 42)
    assert pbell_recurrence(6, 1) == Fraction(2057, 42)
    assert pbell_gen_bernoulli(6, 1) == Fraction(2057, 42)


def test_backend_is_not_a_parameter():
    # one route per value; the cross-check is the way to the other three
    for fn in (pbell_number, pbell_column, pbell_poly):
        with pytest.raises(TypeError):
            fn(6, 1, backend="explicit")
    with pytest.raises(TypeError):  # a route name where the backend used to go is not read as a cross-check
        pbell_number(6, 1, "explicit")
