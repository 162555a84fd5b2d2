from fractions import Fraction
from math import comb

import pytest

from polybell.exact_core import Polynomial, poly_eval
from polybell.pbell import (
    DEFAULT_BACKEND,
    BackendMismatch,
    PBellBackend,
    _recurrence_table,
    _z_rows,
    pbell_column,
    pbell_egf,
    pbell_explicit,
    pbell_gen_bernoulli,
    pbell_number,
    pbell_poly,
    pbell_poly_weighted,
    pbell_ramanujan_p1,
    pbell_recurrence,
    pbell_z_triangle,
    zpoly_triangle,
)
from polybell.special_numbers import CACHE, bell_number, bell_poly, stirling2

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


@pytest.mark.parametrize("backend", list(PBellBackend))
def test_reference_matrix(backend):
    for (n, p), text in REFERENCE_MATRIX.items():
        assert pbell_number(n, p, backend) == Fraction(text), (n, p, backend)


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
            values = {b: pbell_number(n, p, b) for b in PBellBackend}
            assert len(set(values.values())) == 1, (n, p, values)


def test_pbell_column_matches_scalar_calls():
    for backend in PBellBackend:
        col = pbell_column(9, 2, backend)
        assert col == [pbell_number(n, 2, backend) for n in range(10)]


def test_pbell_egf_coefficients():
    s = pbell_egf(8, 10)
    assert s.order == 10
    for n in range(11):
        assert s.coeff(n) == pbell_number(n, 8)


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
    # the fraction-free Z-triangle sweep is a cache-free route; check it
    # against the Stirling sum cell by cell, and its single-value path too
    for p in range(13):
        column = pbell_column(40, p, PBellBackend.Z_TRIANGLE)
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
        assert pbell_column(40, p, PBellBackend.DERIVATIVE_RECURRENCE) == reference, p


def test_integer_recurrence_matches_triangle_and_explicit():
    for p in range(13):
        column = _recurrence_table(60, p)
        assert column == _z_rows(60, p), p
        assert column == [pbell_explicit(n, p) for n in range(61)], p


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
        pbell_number(6, 0, PBellBackend.EXPLICIT_STIRLING, cross_check=True)
    message = str(exc_info.value)
    assert "6" in message and "explicit" in message


def test_validation_errors():
    with pytest.raises(ValueError):
        pbell_number(-1, 0)
    with pytest.raises(ValueError):
        pbell_number(0, -1)
    with pytest.raises(ValueError):
        pbell_poly(3, -2)


def test_default_backend_is_triangle_sweep():
    assert DEFAULT_BACKEND is PBellBackend.Z_TRIANGLE
    assert pbell_z_triangle(6, 1) == Fraction(2057, 42)
    assert pbell_explicit(6, 1) == Fraction(2057, 42)
    assert pbell_recurrence(6, 1) == Fraction(2057, 42)
    assert pbell_gen_bernoulli(6, 1) == Fraction(2057, 42)
