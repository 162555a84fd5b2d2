import json
import re
from collections import Counter
from fractions import Fraction

import pytest

from polybell import exact_core, identity_verifier, pbell
from polybell.exact_core import format_rational, parse_rational
from polybell.identity_verifier import (
    IDENTITY_IDS,
    CheckReport,
    _Basis,
    run_all,
    thread_count,
    verify_column_recurrence,
    verify_derivative_operator_form,
    verify_double_egf_polybell,
    verify_iterated_integral,
    verify_row_sum,
    verify_stirling_transform,
)
from polybell.special_numbers import CACHE


def test_identity_id_inventory():
    assert len(IDENTITY_IDS) == 14
    assert len(set(IDENTITY_IDS)) == 14
    for name in ("egf-definition", "egf-closed-form", "cross-column-recurrence",
                 "double-egf-polybell", "incomplete-gamma-form", "polybell-row-sum"):
        assert name in IDENTITY_IDS


def test_full_suite_passes_modest_grid():
    reports = run_all(n_max=10, p_max=4, order=10)
    assert reports, "suite produced no reports"
    bad = [r for r in reports if not r.passed]
    assert not bad, [(r.identity_id, r.params, r.detail) for r in bad]
    assert {r.identity_id for r in reports} == set(IDENTITY_IDS)


def test_only_filter_restricts_ids():
    reports = run_all(n_max=8, p_max=3, order=8, only=["ramanujan-p1", "polybell-row-sum"])
    assert {r.identity_id for r in reports} == {"ramanujan-p1", "polybell-row-sum"}
    assert all(r.passed for r in reports)


def test_unknown_id_raises_key_error():
    with pytest.raises(KeyError, match="no-such-check"):
        run_all(only=["no-such-check"])


def test_selection_of_no_check_raises():
    # a selection that runs nothing would report 0/0 checks passed
    with pytest.raises(ValueError, match=r"egf-closed-form.*n_max=0, p_max=0, order=0"):
        run_all(0, 0, 0, only=["egf-closed-form"])
    with pytest.raises(ValueError, match=r"only=\[\]"):
        run_all(only=[])


@pytest.mark.parametrize("order", range(4))
def test_orders_below_p_max_pass(order):
    # below order p the series w^p truncates to zero, so the displayed
    # quotient of the closed form is skipped rather than divided by it
    reports = run_all(0, 3, order)
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize(
    "bounds,bad", [((-1, 3, 4), "n_max=-1"), ((4, -1, 4), "p_max=-1"), ((4, 3, -1), "order=-1")]
)
def test_negative_bounds_are_rejected(bounds, bad):
    with pytest.raises(ValueError, match=bad):
        run_all(*bounds)


def test_report_json_shape():
    (report,) = run_all(n_max=6, p_max=2, order=6, only=["iterated-integral"])
    doc = json.loads(report.to_json())
    assert doc == {
        "id": "iterated-integral",
        "params": {"n_max": 6, "p_max": 2},
        "status": "pass",
        "detail": "",
    }


def test_suite_runs_serially(monkeypatch):
    import threading

    for raw in ("4", "0", "junk", ""):
        monkeypatch.setenv("POLYBELL_THREADS", raw)
        assert thread_count() == 1

    def no_threads(self):
        raise AssertionError("run_all started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    assert all(r.passed for r in run_all(n_max=8, p_max=3, order=8))


def test_cold_and_warm_cache_runs_agree():
    # determinism: a cold run and a warm run give the same reports
    cold = run_all(n_max=8, p_max=3, order=8)
    warm = run_all(n_max=8, p_max=3, order=8)
    assert [r.to_json() for r in cold] == [r.to_json() for r in warm]


def test_poisoned_triangle_is_reported_with_first_difference():
    CACHE.force(("s2", 6, 3), Fraction(91))
    report = verify_double_egf_polybell(_Basis(12), 5)
    assert not report.passed
    assert "first difference at (n=6, p=0)" in report.detail
    assert "lhs=" in report.detail and "rhs=" in report.detail

    report = verify_iterated_integral(10, 5)
    assert not report.passed
    assert "first failing case at (n=6, p=0)" in report.detail


@pytest.mark.parametrize(
    "check, detail",
    [
        (
            lambda: verify_column_recurrence(8, 3),
            "first failing case at (n=6, p=1): lhs=2057/42, rhs=2075/42",
        ),
        (
            lambda: verify_stirling_transform(6, 4, 3),
            "first failing case at (n=5, m=0, p=2): lhs=130/21, rhs=127/21",
        ),
    ],
    ids=["cross-column-recurrence", "stirling-transform"],
)
def test_planted_column_cell_is_reported_in_lowest_terms(monkeypatch, check, detail):
    # B_{5,2} off by 1/7: the integer comparisons over one common denominator
    # must name the same first case, with reduced values, as the Fraction sums did
    real = identity_verifier.pbell_column

    def planted(n, p):
        col = list(real(n, p))
        if p == 2 and n >= 5:
            col[5] += Fraction(1, 7)
        return col

    monkeypatch.setattr(identity_verifier, "pbell_column", planted)
    report = check()
    assert not report.passed
    assert report.detail == detail
    values = re.findall(r"[lr]hs=([^,\s]+)", report.detail)
    assert len(values) == 2
    assert all(format_rational(parse_rational(v)) == v for v in values)


def test_planted_row_sum_fault_is_reported_in_lowest_terms(monkeypatch):
    # phi_3(2) scaled by 8/7: both sides are compared as integers over 3!, and
    # the detail names the same values the Fraction sum did
    real = identity_verifier.bell_poly
    monkeypatch.setattr(
        identity_verifier, "bell_poly", lambda n: real(n) * Fraction(8, 7) if n == 3 else real(n)
    )
    report = verify_row_sum(8)
    assert report.detail == "first failing case at (n=3): lhs=22, rhs=176/7"


def _count_calls(monkeypatch, name, module=exact_core):
    """The argument tuples of every call to ``module.name`` that the suite makes."""
    real = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(identity_verifier, name, counting)
    return calls


def test_egf_checks_build_one_power_ladder(monkeypatch):
    # (e^z-1)^k is built once per run, one egf_mul per power (519 calls when
    # each power came from its own egf_pow, 239 when each check built its own),
    # and so are w f_q and w^q f_q (123 calls when each check formed its own)
    calls = _count_calls(monkeypatch, "egf_mul")
    assert all(r.passed for r in run_all(30, 10, 30))
    assert len(calls) <= 82


def test_each_column_series_and_the_composition_rows_are_built_once_per_run(monkeypatch):
    # 105 pbell_egf calls for 22 distinct series, and one T triangle per p, before
    # the checks shared them
    egfs = _count_calls(monkeypatch, "pbell_egf", pbell)
    rows = _count_calls(monkeypatch, "_em1_rows")
    assert all(r.passed for r in run_all(30, 10, 30))
    assert Counter(egfs) == {(q, 30): 1 for q in range(13)}
    assert rows == [(30,)]


def test_operator_chain_is_built_once_per_run(monkeypatch):
    # g_p = e^{-z} g'_{p-1} for p = 2..p_max, one derivative each (45 when the
    # check for each p applied the operator p - 1 times from scratch)
    calls = _count_calls(monkeypatch, "egf_derivative")
    assert all(r.passed for r in run_all(30, 10, 30))
    assert len(calls) == 9


def test_shared_series_are_built_only_when_read(monkeypatch):
    calls = _count_calls(monkeypatch, "egf_exp")
    built = {name: _count_calls(monkeypatch, name) for name in ("egf_mul", "_em1_rows")}
    built["pbell_egf"] = _count_calls(monkeypatch, "pbell_egf", pbell)
    basis = _Basis(30)
    assert calls == [] and all(c == [] for c in built.values())
    assert basis.f(3) is basis.f(3) and basis.f(3, 1) is basis.f(3, 1)
    assert [len(c) for c in built.values()] == [1, 0, 1]  # w f_3 reads f_3, and w needs no product
    assert all(r.passed for r in run_all(30, 10, 30, only=["egf-definition"]))
    assert calls == []
    assert [len(c) for c in built.values()] == [1, 1, 12]  # the T rows and f_0..f_10
    run_all(30, 10, 30, only=["egf-closed-form", "egf-derivative-operator"])
    assert len(calls) == 2  # exp(w), then exp(-w) one order up for the chain


def test_planted_triangle_cell_fails_the_recurrences_with_the_same_first_differences():
    # U_{6,0} of bell:2 planted at 1 makes B_{6,2} = 1/840; each check reads the
    # run's shared f_q and must name the same first difference as when it built its own
    CACHE.force(("bell:2", 6, 0), 1)
    reports = run_all(8, 3, 8, only=["egf-step-recurrence", "egf-three-term"])
    assert [(r.identity_id, r.params["p"], r.detail) for r in reports] == [
        ("egf-step-recurrence", 1, ""),
        ("egf-step-recurrence", 2, "first difference at n=7: lhs=29921/120, rhs=4637/12"),
        ("egf-step-recurrence", 3, "first difference at n=6: lhs=235/4, rhs=1/280"),
        ("egf-three-term", 0, "first difference at n=7: lhs=877, rhs=75643/80"),
        ("egf-three-term", 1, "first difference at n=6: lhs=2057/42, rhs=24691/840"),
        ("egf-three-term", 2, "first difference at n=6: lhs=1/840, rhs=235/12"),
        ("egf-three-term", 3, ""),
    ]


def test_derivative_operator_needs_enough_order():
    with pytest.raises(ValueError):
        verify_derivative_operator_form(8, _Basis(6))
    report = verify_derivative_operator_form(3, _Basis(10))
    assert report.passed
    assert report.params["compare_order"] == 8


def test_check_report_passed_property():
    ok = CheckReport("x", {}, "pass", "")
    bad = CheckReport("x", {}, "fail", "boom")
    assert ok.passed and not bad.passed
