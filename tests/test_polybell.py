from fractions import Fraction
from math import factorial, perm

import pytest

from polybell.exact_core import Polynomial, poly_eval
from polybell.pbell import pbell_explicit, pbell_number
from polybell.polybell import (
    _iterated_integrals,
    duality_counterexample,
    iterated_integral_pbell,
    polybell_neg,
    polybell_neg_derivative,
    polybell_neg_columns,
)
from polybell.special_numbers import CACHE, bell_number, bell_poly, reset_cache, stirling2

# rows n = 0..9 of the negative-order table, columns p = 1..4
NEG_TABLE = [
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (3, 2, 0, 0),
    (10, 12, 6, 0),
    (37, 62, 60, 24),
    (151, 320, 450, 360),
    (674, 1712, 3120, 3720),
    (3263, 9604, 21336, 33600),
    (17007, 56674, 147756, 287784),
    (94828, 351792, 1048830, 2424744),
]


def test_negative_order_reference_table():
    for n, row in enumerate(NEG_TABLE):
        for p, expected in enumerate(row, start=1):
            assert polybell_neg(n, p) == expected, (n, p)


def test_negative_order_row_equals_per_cell_sums():
    columns = polybell_neg_columns(60, 12)
    for n in range(61):
        cells = [sum(perm(k, p) * stirling2(n, k) for k in range(p, n + 1)) for p in range(13)]
        assert [column[n] for column in columns] == cells, n
        assert [polybell_neg(n, p) for p in range(13)] == cells, n


def test_forced_stirling_cell_reaches_negative_orders():
    clean = [polybell_neg(6, p) for p in range(7)]
    # {6,3} enters B_6^(-p) with weight 3!/(3-p)!; poke it before and after a fill
    for filled in (False, True):
        reset_cache()
        if filled:
            polybell_neg(6, 0)
        CACHE.force(("s2", 6, 3), 91)
        expected = [clean[p] + perm(3, p) for p in range(7)]
        assert [polybell_neg(6, p) for p in range(7)] == expected


def test_negative_order_columns_past_the_diagonal_are_zero():
    # B_n^(-p) = 0 for p > n, so every column past n_max is all zeros
    columns = polybell_neg_columns(5, 9)
    assert len(columns) == 10 and all(len(column) == 6 for column in columns)
    for p, column in enumerate(columns):
        assert column == [polybell_neg(n, p) for n in range(6)], p
    assert columns[6:] == [[0] * 6] * 4
    assert polybell_neg_columns(0, 3) == [[1], [0], [0], [0]]


def test_order_relation_links_every_integer_order():
    # B_{n+1}^(k) = (1 - k) B_n^(k) + B_n^(k-1) - k B_n^(k+1), with the positive orders
    # from the explicit Stirling sums and the negative ones from the derivative form
    def poly_bell(n, k):
        return pbell_explicit(n, k) / factorial(k) if k >= 0 else polybell_neg_derivative(n, -k)

    for n in range(40):
        row, up = ({k: poly_bell(m, k) for k in range(-16, 17)} for m in (n, n + 1))
        for k in range(-15, 16):
            assert up[k] == (1 - k) * row[k] + row[k - 1] - k * row[k + 1], (n, k)


def test_negative_order_int_view():
    assert polybell_neg(9, 4) == 2424744
    assert type(polybell_neg(9, 4)) is int
    assert polybell_neg(0, 1) == 0


def test_negative_order_derivative_route():
    for n in range(13):
        for p in range(1, 6):
            assert polybell_neg(n, p) == polybell_neg_derivative(n, p), (n, p)


def polybell_neg_row_poly(n):
    """The row polynomial sum_p B_n^(-p) y^p/p!, which equals phi_n(1 + y)."""
    columns = polybell_neg_columns(n, n)
    return Polynomial([Fraction(c[n], factorial(p)) for p, c in enumerate(columns)])


def test_row_polynomial_is_shifted_bell_polynomial():
    # sum_p B_n^(-p) y^p / p! as a polynomial in y equals phi_n(1 + y)
    shift = Polynomial([1, 1])
    for n in range(13):
        assert polybell_neg_row_poly(n) == bell_poly(n).compose(shift)


def test_row_sum_is_bell_at_two():
    # p = 0 contributes phi_n itself; the whole row sums to phi_n(2)
    for n in range(16):
        total = bell_number(n) + sum(
            Fraction(polybell_neg(n, p), factorial(p)) for p in range(1, n + 1)
        )
        assert total == poly_eval(bell_poly(n), 2)


def test_duality_fails_with_recorded_witness():
    n, p, lhs, rhs = duality_counterexample()
    assert (n, p) == (2, 1)
    assert lhs == 3 and rhs == 0
    assert polybell_neg(2, 1) == 3
    assert polybell_neg(1, 2) == 0


def test_positive_order_scaling():
    # B_n^(0) = B_{n,0}/0! is the Bell number
    for n in range(10):
        assert pbell_number(n, 0) == bell_number(n)


def test_iterated_integral_route():
    for n in range(11):
        for p in range(6):
            assert iterated_integral_pbell(n, p) == pbell_number(n, p), (n, p)


def _iterated_integral_anew(n, p):
    """p antiderivatives of phi_n taken anew for each p: the reference for the shared chain."""
    poly = bell_poly(n)
    for _ in range(p):
        poly = poly.antiderivative()
    return factorial(p) * poly_eval(poly, 1)


def test_iterated_integral_column_matches_each_p():
    for n in range(16):
        column = _iterated_integrals(n, 8)
        assert len(column) == 9
        for p in range(9):
            assert column[p] == iterated_integral_pbell(n, p) == _iterated_integral_anew(n, p), (n, p)
            assert column[p] == pbell_number(n, p), (n, p)
    with pytest.raises(ValueError):
        _iterated_integrals(3, -1)


def test_degenerate_and_error_cases():
    assert polybell_neg(0, 3) == 0
    assert polybell_neg(3, 3) == 6  # 3! {3,3}
    with pytest.raises(ValueError):
        polybell_neg(-1, 1)
    with pytest.raises(ValueError):  # B_n^(p) = B_{n,p}/p! has no positive-order p < 0
        pbell_number(2, -1)
