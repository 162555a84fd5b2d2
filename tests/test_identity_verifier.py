import json
from fractions import Fraction

import pytest

from polybell.identity_verifier import (
    IDENTITY_IDS,
    CheckReport,
    run_all,
    thread_count,
    verify_derivative_operator_form,
    verify_double_egf_polybell,
    verify_iterated_integral,
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


def test_serial_and_parallel_runs_agree():
    # determinism: a cold run and a warm run give the same reports
    cold = run_all(n_max=8, p_max=3, order=8)
    warm = run_all(n_max=8, p_max=3, order=8)
    assert [r.to_json() for r in cold] == [r.to_json() for r in warm]


def test_poisoned_triangle_is_reported_with_first_difference():
    CACHE.force(("s2", 6, 3), Fraction(91))
    report = verify_double_egf_polybell(12, 5)
    assert not report.passed
    assert "first difference at (n=6, p=0)" in report.detail
    assert "lhs=" in report.detail and "rhs=" in report.detail

    report = verify_iterated_integral(10, 5)
    assert not report.passed
    assert "first failing case at (n=6, p=0)" in report.detail


def test_derivative_operator_needs_enough_order():
    with pytest.raises(ValueError):
        verify_derivative_operator_form(8, 6)
    report = verify_derivative_operator_form(3, 10)
    assert report.passed
    assert report.params["compare_order"] == 8


def test_check_report_passed_property():
    ok = CheckReport("x", {}, "pass", "")
    bad = CheckReport("x", {}, "fail", "boom")
    assert ok.passed and not bad.passed
