"""Acceptance gate: one test per shipped guarantee, each printing a PASS line
with the measured margin.  Tolerances and runtime budgets are pinned here and
nowhere else; loosening them is an interface change, not a test fix.

Run ``pytest tests/test_acceptance.py -v`` for the one-line-per-criterion
view.
"""

import time
from fractions import Fraction
from pathlib import Path

from polybell.cli import main
from polybell.identity_verifier import IDENTITY_IDS, run_all
from polybell.numeric_bridge import RngStream, cesaro_pbell, dobinski_pbell, mc_moment_check
from polybell.pbell import ROUTES, pbell_poly
from polybell.polybell import duality_counterexample
from polybell.special_numbers import CACHE

GOLDEN_DIR = Path(__file__).parent / "golden"


def _announce(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_01_golden_pbell_matrix(capsys):
    start = time.perf_counter()
    code = main(["table", "--kind", "pbell-numbers", "--nmax", "6", "--pmax", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    golden = (GOLDEN_DIR / "pbell_numbers_6x3.csv").read_text()
    assert code == 0
    assert out == golden, "table output differs from the frozen 7x4 matrix"
    # the golden file itself carries the independently transcribed anchors
    for anchor in ("68/15", "167/12", "2057/42", "14/15", "127/21", "235/12",
                   "179/140", "185/56", "8389/840"):
        assert anchor in golden, f"golden file lost anchor {anchor}"
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    with capsys.disabled():
        _announce("criterion 1", f"7x4 matrix byte-identical in {elapsed * 1e3:.0f} ms")


def test_criterion_02_golden_polybell_table(capsys):
    start = time.perf_counter()
    code = main(["table", "--kind", "polybell-neg", "--nmax", "9", "--pmax", "4"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    golden = (GOLDEN_DIR / "polybell_neg_9x4.csv").read_text()
    assert code == 0
    assert out == golden, "table output differs from the frozen 10x4 table"
    for anchor in ("94828", "351792", "1048830", "2424744"):
        assert anchor in golden, f"golden file lost anchor {anchor}"
    cells = [
        cell for line in golden.strip().splitlines()[1:] for cell in line.split(",")[1:]
    ]
    assert len(cells) == 40 and all(cell.lstrip("-").isdigit() for cell in cells)
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    with capsys.disabled():
        _announce("criterion 2", f"10x4 integer table byte-identical in {elapsed * 1e3:.0f} ms")


def test_criterion_03_backend_agreement(capsys, route_column):
    start = time.perf_counter()
    mismatches = []
    columns = {route: {} for route in ROUTES}
    for p in range(9):
        for route in ROUTES:
            columns[route][p] = route_column(route, 25, p)
    for p in range(9):
        for n in range(26):
            values = {route: columns[route][p][n] for route in ROUTES}
            if len(set(values.values())) != 1:
                mismatches.append((n, p, values))
    elapsed = time.perf_counter() - start
    assert not mismatches, mismatches[:3]
    assert elapsed < 30.0, f"grid took {elapsed:.3f}s"
    with capsys.disabled():
        _announce("criterion 3", f"4 backends x 234 cells identical in {elapsed:.2f} s")


def test_criterion_04_identity_suite(capsys):
    start = time.perf_counter()
    reports = run_all(n_max=12, p_max=5, order=12)
    elapsed = time.perf_counter() - start
    failures = [r for r in reports if not r.passed]
    assert not failures, [(r.identity_id, r.params, r.detail) for r in failures]
    assert {r.identity_id for r in reports} == set(IDENTITY_IDS), "a verifier never ran"
    assert elapsed < 60.0, f"suite took {elapsed:.3f}s"
    with capsys.disabled():
        _announce(
            "criterion 4",
            f"{len(reports)} checks over {len(IDENTITY_IDS)} identities pass in {elapsed:.2f} s",
        )


def test_criterion_05_low_degree_polynomials(capsys):
    for p in (1, 2, 3, 10):
        q = Fraction(p)
        d1, d2, d3, d4 = (q + 1), (q + 1) * (q + 2), (q + 1) * (q + 2) * (q + 3), (
            (q + 1) * (q + 2) * (q + 3) * (q + 4)
        )
        expected = {
            1: (1 / d1, Fraction(1)),
            2: ((q + 4) / d2, 2 / d1, Fraction(1)),
            3: (
                (q * q + 11 * q + 30) / d3,
                3 * (q + 4) / d2,
                3 / d1,
                Fraction(1),
            ),
            4: (
                (q**3 + 23 * q * q + 160 * q + 360) / d4,
                4 * (q * q + 11 * q + 30) / d3,
                6 * (q + 4) / d2,
                4 / d1,
                Fraction(1),
            ),
        }
        for n, coeffs in expected.items():
            got = pbell_poly(n, p).coeffs
            assert got == coeffs, (n, p, got, coeffs)
        assert pbell_poly(0, p).coeffs == (Fraction(1),)
    with capsys.disabled():
        _announce("criterion 5", "displayed degree<=4 coefficients exact at p in {1,2,3,10}")


def test_criterion_06_dobinski_grid(capsys):
    worst = 0.0
    for n in range(9):
        for p in range(1, 5):
            check = dobinski_pbell(n, p)
            worst = max(worst, check.abs_error)
            assert check.abs_error <= 1e-8, (n, p, check.abs_error)
    with capsys.disabled():
        _announce("criterion 6", f"36 series estimates within 1e-8 (worst {worst:.2e})")


def test_criterion_07_monte_carlo_moments(capsys):
    start = time.perf_counter()
    worst_ratio = 0.0
    seed = 42
    for n in (1, 2, 3):
        for p in (1, 2):
            for x in (0, 1):
                check = mc_moment_check(n, p, x, 1_000_000, RngStream(seed))
                seed += 1
                assert check.passed, (n, p, x, check.abs_error, check.tolerance)
                worst_ratio = max(worst_ratio, check.abs_error / check.tolerance)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sampling took {elapsed:.3f}s"
    with capsys.disabled():
        _announce(
            "criterion 7",
            f"12 moment checks at 4-sigma in {elapsed:.2f} s (worst at {worst_ratio:.2f}x tolerance)",
        )


def test_criterion_08_duality_counterexample(capsys):
    n, p, lhs, rhs = duality_counterexample()
    assert (n, p, lhs, rhs) == (2, 1, 3, 0)
    with capsys.disabled():
        _announce("criterion 8", "order-swap symmetry fails first at (2,1): 3 != 0")


def test_criterion_09_oscillatory_quadrature(capsys):
    margins = []
    for (n, p), tol in [((1, 1), 1e-6), ((2, 1), 1e-6), ((3, 2), 1e-5)]:
        check = cesaro_pbell(n, p, tol=tol)
        assert check.abs_error <= tol, (n, p, check.abs_error)
        margins.append(f"({n},{p})={check.abs_error:.1e}")
    with capsys.disabled():
        _announce("criterion 9", "quadrature errors " + ", ".join(margins))


def test_criterion_10_fault_detection(capsys):
    # corrupt one interior triangle cell: {6,3} = 90 -> 91
    CACHE.force(("s2", 6, 3), Fraction(91))
    reports = run_all(n_max=12, p_max=5, order=12)
    failures = {r.identity_id: r for r in reports if not r.passed}
    assert failures, "no verifier noticed a corrupted triangle cell"
    assert "iterated-integral" in failures
    assert "first failing case at (n=6, p=0)" in failures["iterated-integral"].detail
    assert "double-egf-polybell" in failures
    assert "first difference at (n=6, p=0)" in failures["double-egf-polybell"].detail
    with capsys.disabled():
        _announce(
            "criterion 10",
            f"{len(failures)} verifiers flag the poke, first difference located at (n=6, p=0)",
        )
