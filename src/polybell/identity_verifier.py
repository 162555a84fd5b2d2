"""Mechanical verification of the generating-function and pointwise identities.

Every verifier recomputes both sides of one identity with exact arithmetic at
a requested truncation order (or over a requested index range) and reports the
smallest differing index when the sides disagree.  Identity ids are stable
strings, usable from the CLI with ``verify --only``.

Dual-route discipline: the two sides of each check are built along different
computation routes (e.g. backend values vs. pure series algebra), so a defect
planted in one shared table surfaces as a localized first difference.

One ``_Basis`` per run builds what the EGF checks share, once: the powers of
w = e^z - 1, exp(w), exp(-w), the operator chain, the column series f_q, w f_q
and w^q f_q, and the rows k! {n,k} of the ``egf-definition`` composition.

Identities covered, by id
-------------------------
* ``egf-definition``        f_p(z) = sum_k C(k+p,k)^{-1} (e^z-1)^k / k!
* ``egf-closed-form``       (e^z-1)^p f_p = p! exp(e^z-1)
                            - sum_{k=1}^p p!/(p-k)! (e^z-1)^{p-k},
                            plus the displayed low-p quotient forms
* ``egf-step-recurrence``   (e^z-1) f_p = p (f_{p-1} - 1)
* ``egf-three-term``        f_p = (1 + w/(p+1)) f_{p+1} - (w/(p+2)) f_{p+2}
* ``double-egf-pbell``      (e^z-1-y) sum B_{n,p} z^n/n! y^p/p!
                            = (e^z-1) exp(e^z-1) - y e^y
                            (the -y e^y term makes the finite geometric
                            telescoping honest at n = 0)
* ``double-egf-polybell``   sum B_n^(-p) z^n/n! y^p/p! = exp((y+1)(e^z-1))
* ``egf-derivative-operator`` f_p = (-1)^{p-1} p exp(e^z-1)
                            (e^{-z} d/dz)^{p-1} [(1-exp(1-e^z))/(e^z-1)]
* ``incomplete-gamma-form`` (e^z-1)^p f_p = p exp(e^z-1) (p-1)!
                            (1 - e^{-(e^z-1)} sum_{j<p} (e^z-1)^j/j!),
                            plus a floating-point spot check of
                            f_p(z0) = p e^w w^{-p} gamma(p, w), w = e^{z0}-1
* ``cross-column-recurrence`` B_{n+1,p+1} = B_{n+1,p}
                            - sum_{k=0}^n C(n+1,k) (B_{k,p+1}/(p+1)
                                                     - B_{k,p+2}/(p+2))
                            (the convolution the three-term relation actually
                            implies; the coefficient-free two-term shortcut
                            fails already at n = 1, p = 0)
* ``stirling-transform``    sum_{k<=m} s(m,k) B_{n+k,p}
                            = sum_{k<=n} {n+m,k+m}_m C(m+k+p,p)^{-1}
* ``poly-recurrence``       B_{n+1,p}(x) = x B_{n,p}(x)
                            - sum_k C(n,k) ((p/(p+1)) B_{k,p+1}(x) - B_{k,p}(x))
* ``ramanujan-p1``          B_{n,1} = sum_k C(n,k) phi_{k+1} B_{n-k}/(k+1)
* ``iterated-integral``     B_{n,p} = p! (p-fold antiderivative of phi_n)(1)
* ``polybell-row-sum``      sum_{p<=n} B_n^(-p)/p! = phi_n(2)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import comb, exp, expm1, factorial, lcm, perm
from typing import Callable, Iterable, Sequence

from .exact_core import (
    EgfSeries,
    Polynomial,
    _compose_em1,
    _em1_rows,
    _over_lcm,
    egf_constant,
    egf_derivative,
    egf_div,
    egf_em1,
    egf_exp,
    egf_exp_rz,
    egf_mul,
    poly_eval,
)
from .numeric_bridge import hyp1f1, lower_inc_gamma
from .pbell import pbell_column, pbell_egf, pbell_poly, pbell_ramanujan_p1
from .polybell import _iterated_integrals, polybell_neg, polybell_neg_columns
from .special_numbers import bell_poly, r_stirling2, stirling1

__all__ = [
    "CheckReport",
    "IDENTITY_IDS",
    "run_all",
    "thread_count",
    "verify_egf_definition",
    "verify_closed_forms",
    "verify_step_recurrence",
    "verify_three_term_contiguous",
    "verify_double_egf_pbell",
    "verify_double_egf_polybell",
    "verify_derivative_operator_form",
    "verify_incomplete_gamma_form",
    "verify_column_recurrence",
    "verify_stirling_transform",
    "verify_poly_recurrence",
    "verify_ramanujan_form",
    "verify_iterated_integral",
    "verify_row_sum",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check.

    ``detail`` is empty exactly when ``status`` is "pass"; on failure it names
    the smallest differing coefficient index and both values.
    """

    identity_id: str
    params: dict = field(default_factory=dict)
    status: str = "pass"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.identity_id,
                "params": self.params,
                "status": self.status,
                "detail": self.detail,
            }
        )


def _series_report(identity_id: str, params: dict, lhs: EgfSeries, rhs: EgfSeries) -> CheckReport:
    idx = lhs.first_difference(rhs)
    if idx is None:
        return CheckReport(identity_id, params)
    detail = (
        f"first difference at n={idx}: lhs={lhs.coeffs[idx]}, rhs={rhs.coeffs[idx]}"
    )
    return CheckReport(identity_id, params, "fail", detail)


def _bivariate_report(
    identity_id: str,
    params: dict,
    lhs_slices: Sequence[EgfSeries],
    rhs_slices: Sequence[EgfSeries],
) -> CheckReport:
    for q, (ls, rs) in enumerate(zip(lhs_slices, rhs_slices)):
        idx = ls.first_difference(rs)
        if idx is not None:
            detail = (
                f"first difference at (n={idx}, p={q}): "
                f"lhs={ls.coeffs[idx]}, rhs={rs.coeffs[idx]}"
            )
            return CheckReport(identity_id, params, "fail", detail)
    return CheckReport(identity_id, params)


def _pointwise_report(identity_id: str, params: dict, cases: Iterable[tuple[str, object, object]]) -> CheckReport:
    for label, lhs, rhs in cases:
        if lhs != rhs:
            detail = f"first failing case at ({label}): lhs={lhs}, rhs={rhs}"
            return CheckReport(identity_id, params, "fail", detail)
    return CheckReport(identity_id, params)


def _cleared_report(
    identity_id: str, params: dict, cases: Iterable[tuple[str, int, int, int]]
) -> CheckReport:
    """Pointwise report for cases (label, lhs, rhs, den) given as integer
    numerators over a positive den; Fractions are built only for a failure."""
    for label, lhs, rhs, den in cases:
        if lhs != rhs:
            case = (label, Fraction(lhs, den), Fraction(rhs, den))
            return _pointwise_report(identity_id, params, [case])
    return CheckReport(identity_id, params)


class _Basis:
    """What the EGF checks of one run share, each built on first read and kept.
    At ``order``: the powers of w = e^z - 1, exp(w), the column series
    f_q = pbell_egf(q, order) with the products w f_q and w^q f_q, and the rows
    T(n, k) = k! {n,k} of the (e^z-1)-composition.  One guard order up: exp(-w)
    and the operator chain g_k, so the chain's division by w keeps ``order``."""

    def __init__(self, order: int):
        self.order = order
        self._powers: list[EgfSeries] = []
        self._chain: list[EgfSeries] = []
        self._f: dict[tuple[int, int], EgfSeries] = {}

    @cached_property
    def em1_rows(self) -> list[list[int]]:
        return _em1_rows(self.order)

    @cached_property
    def exp_w(self) -> EgfSeries:
        return egf_exp(self.power(1))

    @cached_property
    def exp_minus_w(self) -> EgfSeries:
        return egf_exp(egf_em1(self.order + 1).scale(-1))

    def power(self, k: int) -> EgfSeries:
        """w^k, one egf_mul for each power above w not built yet."""
        if not self._powers:
            self._powers = [egf_constant(1, self.order), egf_em1(self.order)]
        while len(self._powers) <= k:
            self._powers.append(egf_mul(self._powers[-1], self._powers[1]))
        return self._powers[k]

    def f(self, q: int, k: int = 0) -> EgfSeries:
        """w^k f_q; the checks read k = 0, 1 and q."""
        if (q, k) not in self._f:
            self._f[q, k] = egf_mul(self.power(k), self.f(q)) if k else pbell_egf(q, self.order)
        return self._f[q, k]

    def chain(self, k: int) -> EgfSeries:
        """g_k = (e^{-z} d/dz)^{k-1} [(1-exp(-w))/w] to order + 1 - k, for k >= 1."""
        if not self._chain:
            w = egf_em1(self.order + 1)
            self._chain = [egf_div(egf_constant(1, w.order) - self.exp_minus_w, w)]
        while len(self._chain) < k:
            g = egf_derivative(self._chain[-1])
            self._chain.append(egf_mul(egf_exp_rz(-1, self.order), g))
        return self._chain[k - 1]


def verify_egf_definition(p: int, basis: _Basis) -> CheckReport:
    """Compare the (e^z-1)-composition route against backend values: the outer
    coefficients 1/(C(k+p,p) k!) = p!/(k+p)! are (order+p)!/(k+p)! over (order+p)!/p!."""
    order = basis.order
    outer = [perm(order + p, order - k) for k in range(order + 1)]
    lhs = _compose_em1(outer, perm(order + p, order), basis.em1_rows)
    return _series_report("egf-definition", {"p": p, "order": order}, lhs, basis.f(p))


def verify_closed_forms(p: int, basis: _Basis) -> CheckReport:
    """Denominator-cleared closed form, plus the displayed quotients for p <= min(3, order)."""
    if p < 1:
        raise ValueError("the closed form needs p >= 1")
    order, exp_w = basis.order, basis.exp_w
    params = {"p": p, "order": order}
    f, lhs = basis.f(p), basis.f(p, p)
    rhs = exp_w.scale(factorial(p))
    for k in range(1, p + 1):
        rhs = rhs - basis.power(p - k).scale(perm(p, k))
    report = _series_report("egf-closed-form", params, lhs, rhs)
    if not report.passed or p > 3 or order < p:
        return report
    if p == 1:
        quotient = egf_div(exp_w - 1, basis.power(1))
    elif p == 2:
        quotient = egf_div((exp_w - egf_exp_rz(1, order)).scale(2), basis.power(2))
    else:
        numerator = (exp_w.scale(2) - egf_exp_rz(2, order) - 1).scale(3)
        quotient = egf_div(numerator, basis.power(3))
    report2 = _series_report("egf-closed-form", params, quotient, f.truncate(quotient.order))
    if not report2.passed:
        detail = f"displayed quotient form: {report2.detail}"
        return CheckReport("egf-closed-form", params, "fail", detail)
    return report


def verify_step_recurrence(p: int, basis: _Basis) -> CheckReport:
    """(e^z - 1) f_p = p (f_{p-1} - 1)."""
    if p < 1:
        raise ValueError("the step recurrence needs p >= 1")
    rhs = (basis.f(p - 1) - 1).scale(p)
    return _series_report("egf-step-recurrence", {"p": p, "order": basis.order}, basis.f(p, 1), rhs)


def verify_three_term_contiguous(p: int, basis: _Basis) -> CheckReport:
    """f_p = (1 + w/(p+1)) f_{p+1} - (w/(p+2)) f_{p+2} with w = e^z - 1."""
    w_f1, w_f2 = basis.f(p + 1, 1), basis.f(p + 2, 1)
    rhs = basis.f(p + 1) + w_f1.scale(Fraction(1, p + 1)) - w_f2.scale(Fraction(1, p + 2))
    return _series_report("egf-three-term", {"p": p, "order": basis.order}, basis.f(p), rhs)


def verify_double_egf_pbell(basis: _Basis, y_order: int) -> CheckReport:
    """Cleared double EGF: (e^z-1-y) S(z,y) = (e^z-1) exp(e^z-1) - y e^y.

    S(z,y) = sum_{n,p} B_{n,p} z^n/n! y^p/p! to z-order ``basis.order``; its
    slices are indexed by the y-power with 1/p! normalization, so multiplying
    by y sends slice q-1 to q times itself at q.
    """
    z_order = basis.order
    params = {"z_order": z_order, "y_order": y_order}
    lhs = [basis.f(0, 1)] + [basis.f(q, 1) - basis.f(q - 1).scale(q) for q in range(1, y_order + 1)]
    rhs = [egf_mul(basis.power(1), basis.exp_w)]
    rhs += [egf_constant(-q, z_order) for q in range(1, y_order + 1)]
    return _bivariate_report("double-egf-pbell", params, lhs, rhs)


def verify_double_egf_polybell(basis: _Basis, y_order: int) -> CheckReport:
    """sum_{n,p} B_n^(-p) z^n/n! y^p/p! = exp((y+1)(e^z-1)) to z-order
    ``basis.order``: slice p of the right side is (e^z-1)^p exp(e^z-1)."""
    z_order = basis.order
    params = {"z_order": z_order, "y_order": y_order}
    lhs = [
        EgfSeries([polybell_neg(n, q) for n in range(z_order + 1)]) for q in range(y_order + 1)
    ]
    rhs = [egf_mul(basis.exp_w, basis.power(q)) for q in range(y_order + 1)]
    return _bivariate_report("double-egf-polybell", params, lhs, rhs)


def verify_derivative_operator_form(p: int, basis: _Basis) -> CheckReport:
    """f_p = (-1)^{p-1} p exp(e^z-1) (e^{-z} d/dz)^{p-1} [(1-exp(1-e^z))/(e^z-1)].

    Each application of e^{-z} d/dz costs one order of truncation, so the
    comparison runs to order - (p-1), which must stay >= 1.
    """
    order = basis.order
    if p < 1:
        raise ValueError("the operator form needs p >= 1")
    if order - (p - 1) < 1:
        raise ValueError(f"order {order} leaves no coefficients after {p - 1} derivatives")
    params = {"p": p, "order": order, "compare_order": order - (p - 1)}
    operator_side = egf_mul(basis.exp_w, basis.chain(p)).scale(Fraction((-1) ** (p - 1) * p))
    f = basis.f(p).truncate(operator_side.order)
    return _series_report("egf-derivative-operator", params, f, operator_side)


def verify_incomplete_gamma_form(p: int, basis: _Basis) -> CheckReport:
    """Lower-incomplete-gamma representation of f_p, in two layers.

    Symbolic layer: substitute the closed form gamma(p, w) = (p-1)! P(p, w),
    P(p, w) = 1 - e^{-w} sum_{j<p} w^j/j! (integer p), into
    f_p = p e^w w^{-p} gamma(p, w) and compare the cleared identity exactly.
    Numeric layer: evaluate both sides as floats at z = 1/2.
    """
    if p < 1:
        raise ValueError("the incomplete-gamma form needs p >= 1")
    order = basis.order
    params = {"p": p, "order": order, "z0": "1/2"}
    lhs = basis.f(p, p)
    partial_sum = egf_constant(0, order)
    for j in range(p):
        partial_sum = partial_sum + basis.power(j).scale(Fraction(1, factorial(j)))
    regularized = egf_constant(1, order) - egf_mul(basis.exp_minus_w, partial_sum)
    rhs = egf_mul(basis.exp_w, regularized).scale(factorial(p))
    report = _series_report("incomplete-gamma-form", params, lhs, rhs)
    if not report.passed:
        return report
    w0 = expm1(0.5)
    series_side = hyp1f1(1.0, p + 1.0, w0)
    gamma_side = p * exp(w0) / w0**p * lower_inc_gamma(p, w0)
    if abs(series_side - gamma_side) > 1e-10:
        detail = (
            f"float spot check at z0=1/2: series form {series_side!r} vs "
            f"gamma form {gamma_side!r}"
        )
        return CheckReport("incomplete-gamma-form", params, "fail", detail)
    return report


def verify_column_recurrence(n_max: int, p_max: int) -> CheckReport:
    """The cross-column convolution implied by the three-term relation:

    B_{n+1,p+1} = B_{n+1,p} - sum_{k=0}^{n} C(n+1,k)
                  (B_{k,p+1}/(p+1) - B_{k,p+2}/(p+2)).

    (A two-term shortcut replacing the convolution by single binomial-weighted
    terms is tempting but already false at n = 1, p = 0.)

    Each column is taken as integer numerators over one denominator, and both
    sides are compared as integers over den = lcm(D_p, (p+1) D_{p+1}, (p+2) D_{p+2}).
    """
    params = {"n_max": n_max, "p_max": p_max}
    cols = [_over_lcm(pbell_column(n_max + 1, q)) for q in range(p_max + 3)]

    def cases():
        for p in range(p_max + 1):
            (b0, d0), (b1, d1), (b2, d2) = cols[p : p + 3]
            den = lcm(d0, d1 * (p + 1), d2 * (p + 2))
            f1, f2 = den // (d1 * (p + 1)), den // (d2 * (p + 2))
            terms = [x * f1 - y * f2 for x, y in zip(b1, b2)]
            for n in range(n_max):
                lhs = b1[n + 1] * (den // d1)
                rhs = b0[n + 1] * (den // d0) - sum(comb(n + 1, k) * terms[k] for k in range(n + 1))
                yield f"n={n + 1}, p={p + 1}", lhs, rhs, den

    return _cleared_report("cross-column-recurrence", params, cases())


def verify_stirling_transform(n_max: int, m_max: int, p_max: int) -> CheckReport:
    """sum_{k<=m} s(m,k) B_{n+k,p} = sum_{k<=n} {n+m,k+m}_m C(m+k+p,p)^{-1}.

    Column p is taken as integer numerators over one denominator D_p, and both
    sides are compared as integers over den = lcm(D_p, C(j+p,p) for all j).
    """
    params = {"n_max": n_max, "m_max": m_max, "p_max": p_max}
    cols = [_over_lcm(pbell_column(n_max + m_max, q)) for q in range(p_max + 1)]

    def cases():
        for p, (b, dp) in enumerate(cols):
            binoms = [comb(j + p, p) for j in range(n_max + m_max + 1)]
            den = lcm(dp, *binoms)
            shares = [den // c for c in binoms]
            for m in range(m_max + 1):
                s_row = [stirling1(m, k) for k in range(m + 1)]
                for n in range(n_max + 1):
                    lhs = (den // dp) * sum(s * b[n + k] for k, s in enumerate(s_row))
                    rhs = sum(r_stirling2(n, k, m) * shares[m + k] for k in range(n + 1))
                    yield f"n={n}, m={m}, p={p}", lhs, rhs, den

    return _cleared_report("stirling-transform", params, cases())


def verify_poly_recurrence(n_max: int, p_max: int) -> CheckReport:
    """B_{n+1,p}(x) = x B_{n,p}(x) - sum_k C(n,k) ((p/(p+1)) B_{k,p+1}(x)
    - B_{k,p}(x)), compared coefficient-by-coefficient."""
    params = {"n_max": n_max, "p_max": p_max}
    x = Polynomial.x()

    def cases():
        for p in range(p_max + 1):
            polys_p = [pbell_poly(n, p) for n in range(n_max + 2)]
            ratio = Fraction(p, p + 1)
            corrections = [pbell_poly(k, p + 1) * ratio - polys_p[k] for k in range(n_max + 1)]
            for n in range(n_max + 1):
                acc = x * polys_p[n]
                for k in range(n + 1):
                    acc = acc - comb(n, k) * corrections[k]
                yield f"n={n + 1}, p={p}", polys_p[n + 1], acc

    return _pointwise_report("poly-recurrence", params, cases())


def verify_ramanujan_form(n_max: int) -> CheckReport:
    """Ramanujan's Bernoulli form of the p = 1 column against the backend."""
    params = {"n_max": n_max}
    col = pbell_column(n_max, 1)
    cases = ((f"n={n}", pbell_ramanujan_p1(n), col[n]) for n in range(n_max + 1))
    return _pointwise_report("ramanujan-p1", params, cases)


def verify_iterated_integral(n_max: int, p_max: int) -> CheckReport:
    """B_{n,p} as p! times the p-fold antiderivative of phi_n at 1, one chain of antiderivatives per n."""
    params = {"n_max": n_max, "p_max": p_max}
    cols = [pbell_column(n_max, q) for q in range(p_max + 1)]
    rows = [_iterated_integrals(n, p_max) for n in range(n_max + 1)]
    cases = ((f"n={n}, p={p}", rows[n][p], cols[p][n]) for p in range(p_max + 1) for n in range(n_max + 1))
    return _pointwise_report("iterated-integral", params, cases)


def verify_row_sum(n_max: int) -> CheckReport:
    """sum_{p<=n} B_n^(-p)/p! = phi_n(2), both sides as integers over n!."""
    params = {"n_max": n_max}
    cols = polybell_neg_columns(n_max, n_max)
    cases = (
        (
            f"n={n}",
            sum(perm(n, n - p) * cols[p][n] for p in range(n + 1)),
            factorial(n) * poly_eval(bell_poly(n), 2),
            factorial(n),
        )
        for n in range(n_max + 1)
    )
    return _cleared_report("polybell-row-sum", params, cases)


def thread_count() -> int:
    """Worker count of the identity suite: 1, since the suite runs serially."""
    return 1


def _jobs(n_max: int, p_max: int, order: int) -> list[tuple[str, Callable[[], CheckReport]]]:
    basis = _Basis(order)

    def per_order(identity_id: str, check: Callable[..., CheckReport], first: int, last: int = p_max):
        return ((identity_id, partial(check, p, basis)) for p in range(first, last + 1))

    return [
        *per_order("egf-definition", verify_egf_definition, 0),
        *per_order("egf-closed-form", verify_closed_forms, 1),
        *per_order("egf-step-recurrence", verify_step_recurrence, 1),
        *per_order("egf-three-term", verify_three_term_contiguous, 0),
        ("double-egf-pbell", partial(verify_double_egf_pbell, basis, p_max)),
        ("double-egf-polybell", partial(verify_double_egf_polybell, basis, p_max)),
        *per_order("egf-derivative-operator", verify_derivative_operator_form, 1, min(p_max, order)),
        *per_order("incomplete-gamma-form", verify_incomplete_gamma_form, 1),
        ("cross-column-recurrence", partial(verify_column_recurrence, n_max, p_max)),
        ("stirling-transform", partial(verify_stirling_transform, min(n_max, 8), min(n_max, 8), min(p_max, 4))),
        ("poly-recurrence", partial(verify_poly_recurrence, min(n_max, 10), min(p_max, 4))),
        ("ramanujan-p1", partial(verify_ramanujan_form, n_max)),
        ("iterated-integral", partial(verify_iterated_integral, min(n_max, 10), p_max)),
        ("polybell-row-sum", partial(verify_row_sum, n_max)),
    ]


IDENTITY_IDS: tuple[str, ...] = tuple(dict.fromkeys(name for name, _ in _jobs(1, 1, 1)))


def run_all(
    n_max: int = 12,
    p_max: int = 5,
    order: int = 12,
    only: Sequence[str] | None = None,
) -> list[CheckReport]:
    """Run every identity check (or the named subset) and return the reports
    in a deterministic order."""
    if min(n_max, p_max, order) < 0:
        raise ValueError(f"bounds must be nonnegative, got n_max={n_max}, p_max={p_max}, order={order}")
    if only is not None:
        unknown = sorted(set(only) - set(IDENTITY_IDS))
        if unknown:
            raise KeyError(f"unknown identity ids: {', '.join(unknown)}; known: {', '.join(IDENTITY_IDS)}")
    jobs = [job for name, job in _jobs(n_max, p_max, order) if only is None or name in only]
    if not jobs:
        raise ValueError(
            f"no identity check selected by only={list(only)} at "
            f"n_max={n_max}, p_max={p_max}, order={order}"
        )
    return [job() for job in jobs]
