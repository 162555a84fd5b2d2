import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polybell.exact_core import (
    EgfSeries,
    Polynomial,
    egf_compose_em1,
    egf_constant,
    egf_derivative,
    egf_div,
    egf_em1,
    egf_exp,
    egf_exp_rz,
    egf_mul,
    format_rational,
    parse_rational,
    poly_eval,
    rational,
)
from polybell.special_numbers import CACHE, stirling2

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=10
)
coeff_lists = st.lists(rationals, min_size=1, max_size=9)


def egf_z(order):
    """The monomial z (EGF coefficients 0, 1, 0, 0, ...)."""
    return EgfSeries([int(k == 1) for k in range(order + 1)])


# ---------------------------------------------------------------------------
# rational wire format


def test_rational_coercions():
    assert rational(3) == Fraction(3)
    assert rational(Fraction(5, 6)) == Fraction(5, 6)
    assert rational("-7/3") == Fraction(-7, 3)


def test_rational_rejects_floats():
    # strict on purpose: exact containers must never absorb a rounded value
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        Polynomial([0.5])
    with pytest.raises(TypeError):
        EgfSeries([1, 0.5])


def test_format_rational():
    assert format_rational(Fraction(5, 6)) == "5/6"
    assert format_rational(Fraction(-7, 3)) == "-7/3"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0)) == "0"


def test_format_rational_of_ints_bools_and_strings():
    # ints and Fractions print as themselves; anything else goes through Fraction
    assert format_rational(-12) == "-12"
    assert format_rational(10**40) == str(10**40)
    assert format_rational(True) == "1"
    assert format_rational("6/4") == "3/2"


@pytest.mark.parametrize("text", ["5/6", "-7/3", "0", "42", "+3/7", "-12"])
def test_parse_format_round_trip(text):
    value = parse_rational(text)
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("bad", ["1.5", "1/0", "/3", "1/-2", "", "a", "1 / 2", "0x3"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_parse_inverts_format(q):
    assert parse_rational(format_rational(q)) == q


# ---------------------------------------------------------------------------
# polynomials


def test_polynomial_trims_trailing_zeros():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert Polynomial([0, 0]).is_zero
    assert Polynomial([0, 0]).coeffs == (Fraction(0),)


def test_polynomial_arithmetic():
    x = Polynomial.x()
    one = Polynomial([1])
    p = x * x + 2 * x + one
    assert p.coeffs == (Fraction(1), Fraction(2), Fraction(1))
    assert (p - p).is_zero
    assert (-p + p).is_zero
    q = p * Fraction(1, 2)
    assert q.coeff(2) == Fraction(1, 2)
    assert p.coeff(17) == 0


def test_polynomial_compose():
    x = Polynomial.x()
    p = x * x  # x^2 composed with (x + 1) -> x^2 + 2x + 1
    shifted = p.compose(x + Polynomial([1]))
    assert shifted.coeffs == (Fraction(1), Fraction(2), Fraction(1))


def test_polynomial_calculus_round_trip():
    p = Polynomial([Fraction(3), Fraction(-1, 2), Fraction(5)])
    assert p.antiderivative().derivative() == p
    assert p.derivative().coeffs == (Fraction(-1, 2), Fraction(10))
    assert p.antiderivative().coeff(0) == 0


@given(coeff_lists, rationals)
def test_poly_eval_matches_power_sum(coeffs, x):
    p = Polynomial(coeffs)
    direct = sum(c * x**k for k, c in enumerate(p.coeffs))
    assert poly_eval(p, x) == direct


# Integer Polynomial against a per-coefficient Fraction reference.

poly_lists = st.lists(rationals, min_size=0, max_size=7)


def _trim(cs):
    cs = [Fraction(c) for c in cs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs) or (Fraction(0),)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_compose(a, b):
    acc = (a[-1],)
    for c in reversed(a[:-1]):
        acc = _ref_add(_ref_mul(acc, b), (c,))
    return acc


def _ref_eval(a, x):
    return sum((c * x**k for k, c in enumerate(a)), Fraction(0))


@given(poly_lists, poly_lists, rationals)
@example([], [0, 0], Fraction(0))
@example([Fraction(1, 2), 0, 0], [Fraction(-3, 4), 2], Fraction(-5, 3))
def test_integer_polynomial_matches_fraction_reference(a, b, c):
    pa, pb = Polynomial(a), Polynomial(b)
    ra, rb = _trim(a), _trim(b)
    assert pa.coeffs == ra and pa.degree == len(ra) - 1
    cases = [
        (pa + pb, _ref_add(ra, rb)),
        (pa - pb, _ref_add(ra, tuple(-x for x in rb))),
        (pa * pb, _ref_mul(ra, rb)),
        (pa * c, _trim([c * x for x in ra])),
        (c * pa, _trim([c * x for x in ra])),
        (pa.compose(pb), _ref_compose(ra, rb)),
        (pa.antiderivative(), _trim([0] + [x / (i + 1) for i, x in enumerate(ra)])),
        (pa.derivative(), _trim([i * x for i, x in enumerate(ra)][1:] or [0])),
    ]
    for got, want in cases:
        assert got.coeffs == want
        # canonical form: equal to, and hashed as, the polynomial built directly
        assert got == Polynomial(want) and hash(got) == hash(Polynomial(want))
    for x in (c, Fraction(0), -abs(c) - 1, 3):
        assert poly_eval(pa, x) == _ref_eval(ra, Fraction(x))


def test_polynomial_canonical_form():
    zero = Polynomial([])
    assert zero == Polynomial() == Polynomial([0, 0, 0]) == Polynomial([1]) * 0
    assert zero.is_zero and zero.degree == 0 and zero.coeffs == (Fraction(0),)
    assert (Polynomial([Fraction(1, 3), 1]) - Polynomial([Fraction(1, 3), 1])) == zero
    half = Polynomial([Fraction(2, 4), Fraction(3, 6), 0])
    assert half == Polynomial([Fraction(1, 2), Fraction(1, 2)])
    assert hash(half) == hash(Polynomial([Fraction(1, 2), Fraction(1, 2)]))
    assert Polynomial([2, 4]) != Polynomial([1, 2])
    assert poly_eval(zero, Fraction(-7, 2)) == 0
    with pytest.raises(TypeError):
        Polynomial([0.5])
    with pytest.raises(TypeError):
        Polynomial([1, 2]) * 0.5


@pytest.mark.parametrize("cls", [Polynomial, EgfSeries])
def test_shared_number_format(cls):
    # the private constructor takes a negative, non-reduced denominator
    a = cls._make([2, -4, 6], -4)
    assert a == cls([Fraction(-1, 2), 1, Fraction(-3, 2)]) and a._den == 2
    assert repr(a) == f"{cls.__name__}([-1/2, 1, -3/2])"
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.extra = 1
    twin = (EgfSeries if cls is Polynomial else Polynomial)(a.coeffs)
    assert a != twin and twin != a and len({a, twin}) == 2
    b = cls._make([3, 0, -9], 6)
    assert -a == cls([Fraction(1, 2), -1, Fraction(3, 2)]) and hash(-(-a)) == hash(a)
    assert a - b == cls([-1, 1, 0]) and b - a == -(a - b)
    quarter = cls([Fraction(1, 4), Fraction(-1, 2), Fraction(3, 4)])
    assert a.scale(Fraction(-2, 4)) == a.scale("-1/2") == quarter
    assert a.scale(0) == cls([0, 0, 0]) and a.scale(-1) == -a
    if cls is Polynomial:
        assert a * Fraction(-1, 2) == Fraction(-1, 2) * a == quarter
        assert Polynomial([5]).derivative() == Polynomial()
    assert Polynomial([1, 2]) != EgfSeries([1, 2])


def test_polynomial_adds_only_polynomials():
    # a series is not read as a polynomial, nor a polynomial as a series
    with pytest.raises(TypeError):
        Polynomial([1]) + EgfSeries([1, 2])
    with pytest.raises(TypeError):
        EgfSeries([1, 2]) + Polynomial([1])
    # a scalar is not added to a polynomial (it goes through * or scale)
    for scalar in (3, Fraction(1, 2), "3"):
        with pytest.raises(TypeError):
            Polynomial([1]) - scalar
        with pytest.raises(TypeError):
            Polynomial([1]) + scalar
    assert EgfSeries([1, 2]) - 3 == EgfSeries([-2, 2])


# ---------------------------------------------------------------------------
# truncated EGF arithmetic


def test_series_basics():
    s = EgfSeries([1, 2, 3])
    assert s.order == 2
    assert s.coeff(2) == 3
    with pytest.raises(IndexError):
        s.coeff(3)
    assert s.truncate(1).coeffs == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        s.truncate(5)
    assert egf_constant(0, 4).valuation() is None
    assert egf_em1(4).valuation() == 1


def test_series_factories():
    assert egf_em1(5).coeffs == (0, 1, 1, 1, 1, 1)
    assert egf_exp_rz(Fraction(2), 4).coeffs == (1, 2, 4, 8, 16)
    assert egf_z(3).coeffs == (0, 1, 0, 0)
    assert egf_constant(Fraction(7), 2).coeffs == (7, 0, 0)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_egf_mul_commutes(a, b):
    s, t = EgfSeries(a), EgfSeries(b)
    assert egf_mul(s, t).coeffs == egf_mul(t, s).coeffs


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=40)
def test_egf_mul_associates(a, b, c):
    s, t, u = EgfSeries(a), EgfSeries(b), EgfSeries(c)
    lhs = egf_mul(egf_mul(s, t), u)
    rhs = egf_mul(s, egf_mul(t, u))
    assert lhs.coeffs == rhs.coeffs


@given(coeff_lists)
def test_egf_mul_identity(a):
    s = EgfSeries(a)
    assert egf_mul(s, egf_constant(Fraction(1), s.order)).coeffs == s.coeffs


mixed_coeffs = st.lists(
    st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60),
    ),
    min_size=1,
    max_size=12,
)


@given(mixed_coeffs, mixed_coeffs)
@settings(max_examples=80)
@example([Fraction(3, 4)], [Fraction(-5, 6), Fraction(1, 7)])
@example([Fraction(0)] * 4, [Fraction(1, 3), Fraction(0), Fraction(-2, 9), Fraction(5)])
def test_egf_mul_matches_per_term_fraction_convolution(a, b):
    # the common-denominator int convolution against the naive Fraction one
    n = min(len(a), len(b)) - 1
    naive = tuple(
        sum((math.comb(m, k) * a[k] * b[m - k] for k in range(m + 1)), Fraction(0))
        for m in range(n + 1)
    )
    got = egf_mul(EgfSeries(a), EgfSeries(b)).coeffs
    assert got == naive
    assert all(type(c) is Fraction for c in got)


def test_egf_mul_is_binomial_convolution():
    # e^z * e^z has coefficients 2^n
    e = egf_exp_rz(Fraction(1), 6)
    assert egf_mul(e, e).coeffs == tuple(Fraction(2) ** n for n in range(7))


@given(coeff_lists, coeff_lists)
@settings(max_examples=40)
def test_egf_exp_is_additive_homomorphism(a, b):
    order = min(len(a), len(b), 8)
    s = EgfSeries([Fraction(0)] + a[: order - 1]) if order > 1 else EgfSeries([0])
    t = EgfSeries([Fraction(0)] + b[: order - 1]) if order > 1 else EgfSeries([0])
    lhs = egf_exp(s + t)
    rhs = egf_mul(egf_exp(s), egf_exp(t))
    assert lhs.coeffs == rhs.coeffs


def test_egf_exp_of_z_is_exp():
    assert egf_exp(egf_z(7)).coeffs == tuple(Fraction(1) for _ in range(8))


def test_egf_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        egf_exp(egf_constant(Fraction(1), 3))


def test_egf_exp_of_em1_is_bell_egf():
    # partition-count generating function: 1, 1, 2, 5, 15, 52, 203, ...
    got = egf_exp(egf_em1(7)).coeffs
    assert got == (1, 1, 2, 5, 15, 52, 203, 877)


@given(coeff_lists, coeff_lists)
@settings(max_examples=40)
def test_egf_div_inverts_mul(a, b):
    s, t = EgfSeries(a), EgfSeries(b)
    order = min(s.order, t.order)
    v = t.valuation()
    assume(v is not None and v <= order)  # else the documented ZeroDivisionError
    product = egf_mul(s.truncate(order), t.truncate(order))
    back = egf_div(product, t)
    assert back.coeffs == s.coeffs[: back.order + 1]


def test_egf_div_by_valuation_above_truncated_order_raises():
    # the truncated product [0] * [0, 1] has order 0, below the divisor's valuation 1
    product = egf_mul(EgfSeries([0]), EgfSeries([0, 1]))
    with pytest.raises(ZeroDivisionError):
        egf_div(product, EgfSeries([0, 1]))


def test_egf_div_with_valuation_shift():
    # z / (e^z - 1): constant term 1, linear term -1/2 (classical zeta-family values)
    q = egf_div(egf_z(10), egf_em1(10))
    assert q.coeff(0) == 1
    assert q.coeff(1) == Fraction(-1, 2)
    assert q.coeff(2) == Fraction(1, 6)
    assert q.coeff(3) == 0
    assert q.order == 9


def test_egf_div_errors():
    with pytest.raises(ZeroDivisionError):
        egf_div(egf_z(4), egf_constant(0, 4))
    # numerator valuation below denominator valuation is not a power series
    with pytest.raises(ValueError):
        egf_div(egf_constant(Fraction(1), 4), egf_em1(4))
    # zero numerator divides cleanly (order drops by the valuation)
    q = egf_div(egf_constant(0, 4), egf_em1(4))
    assert q.order == 3 and q.valuation() is None


def test_egf_derivative_shifts():
    s = EgfSeries([5, 1, 2, 6])
    assert egf_derivative(s).coeffs == (1, 2, 6)
    with pytest.raises(ValueError):
        egf_derivative(EgfSeries([1]))


def test_egf_compose_em1_exponential_outer():
    # outer = e^w (ordinary coefficients 1/k!) gives the substitution
    # w = e^z - 1, i.e. the partition-count EGF
    got = egf_compose_em1([Fraction(1, math.factorial(k)) for k in range(13)], 12)
    assert got.coeffs[:8] == (1, 1, 2, 5, 15, 52, 203, 877)


def test_egf_compose_em1_linear_outer():
    # outer = w reproduces e^z - 1 itself
    outer = [Fraction(0), Fraction(1)] + [Fraction(0)] * 9
    assert egf_compose_em1(outer, 10).coeffs == egf_em1(10).coeffs


def test_first_difference_reports_smallest_index():
    s = EgfSeries([1, 2, 3, 4])
    t = EgfSeries([1, 2, 7, 4])
    assert s.first_difference(t) == 2
    assert s.first_difference(s) is None
    # only the shared order is compared
    assert s.first_difference(EgfSeries([1, 2, 7])) == 2
    assert s.truncate(1).first_difference(t) is None
    # numerators are compared over their own denominators
    assert EgfSeries([1, 2]).first_difference(EgfSeries([Fraction(1, 3), Fraction(2, 3)])) == 0
    u = EgfSeries([1, Fraction(1, 2), Fraction(1, 3)])
    assert u.first_difference(EgfSeries([1, Fraction(1, 2), Fraction(1, 5)])) == 2


def test_series_scalar_add_affects_constant_term():
    s = egf_em1(4) + Fraction(1)
    assert s.coeff(0) == 1
    assert s.coeff(1) == 1


def test_scale():
    s = egf_em1(4).scale(Fraction(3, 2))
    assert s.coeffs == (0, Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), Fraction(3, 2))


# ---------------------------------------------------------------------------
# integer kernels against the per-term Fraction versions they replaced


def _fraction_exp(a):
    b = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for m in range(len(a) - 1):
        b[m + 1] = sum(math.comb(m, k) * a[k + 1] * b[m - k] for k in range(m + 1))
    return tuple(b)


def _fraction_div(num, den):
    n = min(len(num), len(den)) - 1
    v = next(i for i, c in enumerate(den) if c != 0)
    m = n - v

    def shift(s):
        return [s[i + v] * Fraction(math.factorial(i), math.factorial(i + v)) for i in range(m + 1)]

    sn, sd = shift(num), shift(den)
    q = [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        acc = sn[i] - sum(math.comb(i, k) * q[k] * sd[i - k] for k in range(i))
        q[i] = acc / sd[0]
    return tuple(q)


def _fraction_compose_em1(outer, order):
    w = [Fraction(0)] + [Fraction(1)] * order
    power = [Fraction(1)] + [Fraction(0)] * order
    result = [Fraction(0)] * (order + 1)
    for k, c in enumerate(Fraction(c) for c in outer):
        if k > order:
            break
        if k > 0:
            power = [
                sum(math.comb(m, j) * power[j] * w[m - j] for j in range(m + 1))
                for m in range(order + 1)
            ]
        result = [r + c * x for r, x in zip(result, power)]
    return tuple(result)


nonzero = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60
).filter(bool)


@given(mixed_coeffs)
@settings(max_examples=80)
@example([Fraction(0)])
@example([Fraction(-5, 6), Fraction(7, 4), Fraction(0), Fraction(-1, 9)])
def test_egf_exp_matches_per_term_fraction_recurrence(tail):
    a = [Fraction(0)] + tail[:-1]
    got = egf_exp(EgfSeries(a)).coeffs
    assert got == _fraction_exp(a)
    assert all(type(c) is Fraction for c in got)


@given(st.integers(0, 3), nonzero, mixed_coeffs, st.integers(0, 3), mixed_coeffs)
@settings(max_examples=120)
@example(0, Fraction(-3, 7), [Fraction(0)], 0, [Fraction(5, 2)])  # order 0, negative lead
@example(3, Fraction(6), [Fraction(-1, 2)] * 8, 0, [Fraction(0)] * 12)  # zero numerator
@example(2, Fraction(-2, 3), [Fraction(5, 6), Fraction(0), Fraction(-7, 60)], 1, [Fraction(1, 5)])
def test_egf_div_matches_per_term_fraction_quotient(v, lead, den_tail, extra, num_tail):
    den = [Fraction(0)] * v + [lead] + den_tail
    num = [Fraction(0)] * (v + extra) + num_tail
    assume(v <= min(len(num), len(den)) - 1)
    got = egf_div(EgfSeries(num), EgfSeries(den)).coeffs
    assert got == _fraction_div(num, den)
    assert all(type(c) is Fraction for c in got)


@given(mixed_coeffs | st.just([]), st.integers(0, 14))
@settings(max_examples=100)
@example([], 0)
@example([Fraction(-7, 3)], 0)
@example([Fraction(1, 2), Fraction(0), Fraction(-5, 12)], 9)  # shorter than the order
@example([Fraction(k - 6, k + 1) for k in range(12)], 4)  # longer than the order
def test_egf_compose_em1_matches_repeated_fraction_convolution(outer, order):
    got = egf_compose_em1(outer, order).coeffs
    assert got == _fraction_compose_em1(outer, order)
    assert all(type(c) is Fraction for c in got)


@given(mixed_coeffs)
@settings(max_examples=60)
def test_equal_series_built_by_different_routes_are_equal_and_hash_equal(cs):
    s = EgfSeries(cs)
    e = egf_exp_rz(Fraction(-1, 3), s.order)
    routes = [
        EgfSeries([format_rational(c) for c in cs]),
        s.scale(Fraction(-6, 7)).scale(Fraction(-7, 6)),
        (s + s) - s,
        egf_mul(s, egf_constant(1, s.order)),
        egf_div(egf_mul(s, e), e),
        egf_div(-s, egf_constant(Fraction(-1, 5), s.order)).scale(Fraction(1, 5)),
        egf_derivative(EgfSeries([Fraction(9, 4)] + list(cs))),
        EgfSeries(list(cs) + [Fraction(1, 97)]).truncate(s.order),
    ]
    for t in routes:
        assert t == s and hash(t) == hash(s)
    assert len(set(routes + [s])) == 1


def test_canonical_form_of_constructed_series():
    assert egf_exp(egf_z(6)) == egf_exp_rz(1, 6) == EgfSeries([1] * 7)
    assert egf_em1(5) - egf_em1(5) == egf_constant(0, 5)
    assert hash(egf_constant(0, 3).scale(Fraction(5, 7))) == hash(egf_constant(0, 3))
    assert egf_constant("4/6", 2) == EgfSeries([Fraction(2, 3), 0, 0])
    assert EgfSeries([1, Fraction(1, 2)]).truncate(0) == egf_constant(1, 0)
    assert egf_z(0) == egf_constant(0, 0)


def test_egf_compose_em1_reads_no_cache():
    # a poisoned Stirling cell reaches stirling2 but not the substitution
    outer = [Fraction(1, math.factorial(k)) for k in range(9)]
    clean = egf_compose_em1(outer, 8)
    CACHE.force(("s2", 6, 3), 91)
    assert stirling2(6, 3) == 91
    assert egf_compose_em1(outer, 8) == clean
    assert clean.coeff(6) == 203
