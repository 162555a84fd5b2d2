import ast
import inspect
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polybell.cli import _cell, build_parser, main, render_table
from polybell.exact_core import format_rational, parse_rational, poly_eval
from polybell.identity_verifier import IDENTITY_IDS
from polybell.pbell import pbell_poly
from polybell.special_numbers import CACHE, TriangleCache

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# value


def test_value_pbell_reference(capsys):
    code, out, _ = run_cli(capsys, "value", "--kind", "pbell", "--n", "6", "--p", "1")
    assert code == 0 and out == "2057/42\n"


def test_value_polybell_negative_order(capsys):
    code, out, _ = run_cli(capsys, "value", "--kind", "polybell", "--n", "7", "--p", "-3")
    assert code == 0 and out == "21336\n"


def test_value_trivial_row(capsys):
    code, out, _ = run_cli(capsys, "value", "--kind", "pbell", "--n", "0", "--p", "5")
    assert code == 0 and out == "1\n"


def test_value_approx_and_cross_check(capsys):
    code, out, _ = run_cli(
        capsys, "value", "--kind", "pbell", "--n", "6", "--p", "1", "--approx", "--cross-check"
    )
    assert code == 0
    assert out.startswith("2057/42 approx=48.97619")


@pytest.mark.parametrize(
    "kind,n,p,approx",
    [("pbell", 300, 7, "4.4326748489503268e+444"), ("polybell", 1, 400, "3.8944080086424694e-872")],
)
def test_value_approx_beyond_float_range(capsys, kind, n, p, approx):
    code, out, _ = run_cli(
        capsys, "value", "--kind", kind, "--n", str(n), "--p", str(p), "--approx"
    )
    assert code == 0
    exact, printed = out.rstrip("\n").split(" approx=")
    assert printed == approx
    assert abs(Fraction(printed) / Fraction(exact) - 1) < 1e-16


def test_value_polybell_positive_order(capsys):
    # B_4^(2) = B_{4,2}/2! = 13/12
    code, out, _ = run_cli(capsys, "value", "--kind", "polybell", "--n", "4", "--p", "2")
    assert code == 0 and out == "13/12\n"


def test_value_rejects_negative_p_for_pbell(capsys):
    code, _, err = run_cli(capsys, "value", "--kind", "pbell", "--n", "3", "--p", "-1")
    assert code == 2 and "requires p >= 0" in err


def test_value_cross_check_failure_exits_one(capsys):
    CACHE.force(("s2", 6, 3), Fraction(91))
    code, _, err = run_cli(
        capsys, "value", "--kind", "pbell", "--n", "6", "--p", "0", "--cross-check",
    )
    assert code == 1
    assert "cross-check failed" in err and "explicit" in err


def test_value_cross_check_catches_a_poisoned_triangle_row(capsys):
    argv = ("value", "--kind", "pbell", "--n", "6", "--p", "2")
    assert run_cli(capsys, *argv)[:2] == (0, "235/12\n")
    CACHE.force(("bell:2", 6, 0), 1)
    code, _, err = run_cli(capsys, *argv, "--cross-check")
    assert code == 1
    assert "cross-check failed" in err and "ztriangle=1/840" in err


def test_every_cache_family_is_counted_by_the_tracer(capsys, monkeypatch):
    # the traced benchmark run counts cells by family, the tag text before ":", and
    # raises KeyError on one that perfbench/tracer.py does not list
    source = (Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text()
    families = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "CACHE_FAMILIES"
    )
    put, tags = TriangleCache.put, set()

    def counted_put(cache, key, row):
        tags.add(key[0])
        return put(cache, key, row)

    monkeypatch.setattr(TriangleCache, "put", counted_put)
    requests = [
        ["value", "--kind", "pbell", "--n", "12", "--p", "3"],
        ["value", "--kind", "pbell", "--n", "9", "--p", "2", "--cross-check"],
        ["table", "--kind", "pbell-numbers", "--nmax", "20", "--pmax", "4"],
        ["verify", "--nmax", "8", "--pmax", "3", "--order", "8"],
    ]
    for argv in requests:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert {"bell", "bell:1", "bell:2", "bell:3", "bernoulli", "s2"} <= tags
    assert {tag.split(":", 1)[0] for tag in tags} <= set(families)


def test_value_polybell_cross_check_names_every_backend(capsys):
    CACHE.force(("s2", 6, 3), Fraction(91))
    code, _, err = run_cli(
        capsys, "value", "--kind", "polybell", "--n", "6", "--p", "0", "--cross-check",
    )
    assert code == 1 and "cross-check failed" in err
    for name in ("explicit", "recurrence", "ztriangle", "genbernoulli"):
        assert f"{name}=" in err, name


def test_usage_error_is_exit_two(capsys):
    assert main(["value"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_survives_a_usage_error(capsys):
    assert main(["value", "--kind", "pbell", "--n", "3"]) == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "value", "--kind", "pbell", "--n", "3", "--p", "1")
    assert code == 0 and out == "7/4\n"


# ---------------------------------------------------------------------------
# table


def test_table_matches_golden_pbell(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "pbell-numbers", "--nmax", "6", "--pmax", "3"
    )
    assert code == 0
    assert out == (GOLDEN_DIR / "pbell_numbers_6x3.csv").read_text()


def test_table_matches_golden_polybell_neg(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "polybell-neg", "--nmax", "9", "--pmax", "4"
    )
    assert code == 0
    assert out == (GOLDEN_DIR / "polybell_neg_9x4.csv").read_text()


def test_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "pbell-numbers", "--nmax", "0", "--pmax", "3")
    assert code == 0
    assert out == "n\\p,0,1,2,3\n0,1,1,1,1\n"


@pytest.mark.parametrize(
    "kind, nmax, pmax",
    [
        ("pbell-numbers", "-1", "3"),
        ("polybell-neg", "-1", "3"),
        ("pbell-poly-coeffs", "-1", "3"),
        ("pbell-numbers", "4", "-1"),
        ("polybell-neg", "4", "0"),
        ("pbell-poly-coeffs", "4", "-1"),
    ],
)
def test_table_bounds_out_of_range_exit_two_before_any_output(capsys, kind, nmax, pmax):
    # polybell-neg lists the orders -1..-pmax, so pmax 0 would be a table without columns
    code, out, err = run_cli(capsys, "table", "--kind", kind, "--nmax", nmax, "--pmax", pmax)
    assert code == 2 and out == ""
    assert "table bounds out of range" in err


def test_table_csv_cells_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "pbell-numbers", "--nmax", "5", "--pmax", "4"
    )
    assert code == 0
    lines = out.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        head, *cells = line.split(",")
        rebuilt.append(",".join([head] + [format_rational(parse_rational(c)) for c in cells]))
    assert "\n".join(rebuilt) + "\n" == out


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "pbell-numbers", "--nmax", "4", "--pmax", "2",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"n": 0, "p": 0, "value": "1"}
    assert len(rows) == 5 * 3
    assert json.dumps(rows) + "\n" == out
    for row in rows:
        parse_rational(row["value"])  # every value is exact wire format


def test_table_poly_coeffs_kind(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "pbell-poly-coeffs", "--nmax", "3", "--pmax", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\\k,0,1,2,3"
    # row n=3 lists B_{3,2}(x) coefficients 14/15, 3/2, 1, 1
    assert lines[4] == "3,14/15,3/2,1,1"


@pytest.mark.parametrize("route", ["ztriangle", "explicit", "recurrence", "genbernoulli"])
def test_table_poly_coeffs_match_per_row_polynomials(route, route_column):
    # one column sweep must give the same cells as one pbell_poly per row, whose constant
    # terms every route gives, in both formats
    n_max, p = 14, 3
    polys = [pbell_poly(n, p) for n in range(n_max + 1)]
    assert [poly.coeff(0) for poly in polys] == route_column(route, n_max, p)
    cells = [[format_rational(poly.coeff(k)) for k in range(n_max + 1)] for poly in polys]
    csv = ["n\\k," + ",".join(str(k) for k in range(n_max + 1))]
    csv += (f"{n}," + ",".join(row) for n, row in enumerate(cells))
    assert render_table("pbell-poly-coeffs", n_max, p) == "\n".join(csv) + "\n"
    records = [{"n": n, "k": k, "value": v} for n, row in enumerate(cells) for k, v in enumerate(row)]
    text = render_table("pbell-poly-coeffs", n_max, p, "json")
    assert text == json.dumps(records) + "\n"


def test_table_poly_coeffs_match_fraction_products_at_benchmark_size():
    # C(n,k) B_{n-k,p} through Fraction arithmetic, cell by cell, at the size the tables workload prints
    from polybell.pbell import pbell_column

    n_max, p = 100, 3
    column = pbell_column(n_max, p)
    lines = ["n\\k," + ",".join(map(str, range(n_max + 1)))]
    for n in range(n_max + 1):
        row = [math.comb(n, k) * column[n - k] if k <= n else 0 for k in range(n_max + 1)]
        lines.append(f"{n}," + ",".join(map(format_rational, row)))
    assert render_table("pbell-poly-coeffs", n_max, p) == "\n".join(lines) + "\n"


@given(
    st.integers(1, 10**30),
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**30),
)
@example(6, -5, 1)  # b = 1
@example(12, -7, 4)  # b divides c: an integer, with no "/1"
@example(4, 3, 8)
def test_cell_is_the_reduced_fraction(c, a, b):
    assert _cell(c * a, b) == format_rational(Fraction(c * a, b))
    g = math.gcd(a, b)
    a, b = a // g, b // g  # a/b in lowest terms, as a pbell-poly-coeffs column holds it
    text = _cell(c * a, b)
    assert text == format_rational(c * Fraction(a, b))
    assert ("/" in text) == (c % b != 0)


def test_value_prints_more_digits_than_the_str_limit(capsys):
    # B_1^(2000) = B_{1,2000}/2000! = 1/2001!, whose denominator has 5739
    # digits, above the default int-to-str limit of Python >= 3.10.7
    has_limit = hasattr(sys, "set_int_max_str_digits")
    old = sys.get_int_max_str_digits() if has_limit else None
    try:
        if has_limit:
            sys.set_int_max_str_digits(0)
        expected = f"1/{math.factorial(2001)}\n"
        if has_limit:
            sys.set_int_max_str_digits(4300)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "value", "--kind", "polybell", "--n", "1", "--p", "2000")
        elapsed = time.perf_counter() - start
    finally:
        if has_limit:
            sys.set_int_max_str_digits(old)
    assert code == 0, err
    assert out == expected and len(expected) > 4300
    assert elapsed < 5


def test_table_out_file_and_write_error(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "table", "--kind", "pbell-numbers", "--nmax", "6", "--pmax", "3",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text() == (GOLDEN_DIR / "pbell_numbers_6x3.csv").read_text()
    code, _, err = run_cli(
        capsys, "table", "--kind", "pbell-numbers", "--nmax", "1", "--pmax", "1",
        "--out", str(tmp_path / "missing" / "t.csv"),
    )
    assert code == 2 and "cannot write" in err


def test_render_table_agrees_from_a_warm_cache_and_across_backends(route_column):
    from polybell.pbell import ROUTES

    cold = render_table("pbell-numbers", 8, 4)
    warm = render_table("pbell-numbers", 8, 4)
    assert cold == warm
    header = "n\\p," + ",".join(map(str, range(4)))
    for route in ROUTES:
        rows = zip(*(route_column(route, 5, p) for p in range(4)))
        lines = [header] + [f"{n}," + ",".join(map(format_rational, row)) for n, row in enumerate(rows)]
        assert render_table("pbell-numbers", 5, 3) == "\n".join(lines) + "\n", route


def test_pbell_numbers_table_reads_no_stirling_row():
    render_table("pbell-numbers", 60, 6)
    assert CACHE.rows("s2") == {}


@pytest.mark.parametrize("route", ["explicit", "recurrence", "ztriangle", "genbernoulli"])
def test_pbell_numbers_cells_match_the_fraction_columns(route, route_column):
    n_max, p_max = 60, 6
    columns = [route_column(route, n_max, p) for p in range(p_max + 1)]
    rows = [list(map(format_rational, row)) for row in zip(*columns)]
    csv = ["n\\p," + ",".join(map(str, range(p_max + 1)))] + [f"{n}," + ",".join(row) for n, row in enumerate(rows)]
    assert render_table("pbell-numbers", n_max, p_max) == "\n".join(csv) + "\n"
    cells = [{"n": n, "p": p, "value": text} for n, row in enumerate(rows) for p, text in enumerate(row)]
    assert json.loads(render_table("pbell-numbers", n_max, p_max, "json")) == cells


# ---------------------------------------------------------------------------
# verify


def test_verify_small_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "8", "--pmax", "3", "--order", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1].endswith("identity checks passed")


def test_verify_30_10_30_matches_golden(capsys):
    # the benchmark's oracle reads only pass/fail; this pins every detail line
    code, out, _ = run_cli(capsys, "verify", "--nmax", "30", "--pmax", "10", "--order", "30")
    assert code == 0
    assert out == (GOLDEN_DIR / "verify_30_10_30.txt").read_text()


def test_verify_only_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "double-egf-polybell")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "double-egf-polybell" in lines[0]


def test_verify_only_comma_separated(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--nmax", "8", "--pmax", "2", "--order", "8",
        "--only", "ramanujan-p1,polybell-row-sum",
    )
    assert code == 0
    assert "ramanujan-p1" in out and "polybell-row-sum" in out


def test_verify_unknown_id_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "not-an-id")
    assert code == 2 and "not-an-id" in err
    # the ids are listed here, not in --help, so building the parser does not load the suite
    assert all(identity_id in err for identity_id in IDENTITY_IDS)


def test_verify_low_order_and_negative_bounds(capsys):
    assert run_cli(capsys, "verify", "--order", "0", "--pmax", "1")[0] == 0
    code, out, _ = run_cli(capsys, "verify", "--order", "2", "--pmax", "3", "--only", "egf-closed-form")
    assert code == 0 and out.endswith("3/3 identity checks passed\n")
    # a negative p_max used to pass 8 checks vacuously
    for flag in ("--nmax", "--pmax", "--order"):
        code, out, err = run_cli(capsys, "verify", flag, "-1")
        assert code == 2 and out == "" and "=-1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--only", ","),
        ("--only",),
        ("--pmax", "0", "--only", "egf-closed-form"),
        ("--order", "0", "--pmax", "2", "--only", "egf-derivative-operator"),
    ],
)
def test_verify_selecting_no_check_exits_two(capsys, argv):
    # each printed "0/0 identity checks passed" and exited 0
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == "" and "no identity check selected" in err


def test_verify_reports_failure_with_exit_one(capsys):
    CACHE.force(("s2", 6, 3), Fraction(91))
    code, out, _ = run_cli(capsys, "verify", "--nmax", "12", "--pmax", "5", "--order", "12")
    assert code == 1
    assert "[FAIL]" in out
    assert "first failing case at (n=6, p=0)" in out


# ---------------------------------------------------------------------------
# numeric


def test_numeric_dobinski_json_line(capsys):
    code, out, _ = run_cli(capsys, "numeric", "dobinski", "--n", "2", "--p", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "dobinski"
    assert doc["target"] == "5/6"
    assert doc["passed"] is True
    assert doc["abs_error"] <= doc["tolerance"]


def test_numeric_dobinski_poly_settles_at_a_large_point(capsys):
    # the series settles once x + k >= n, so x = 1000 needs a few dozen terms,
    # not the 1000 + n the old rule waited for; x far below -1000 still exits 2
    args = ("numeric", "dobinski-poly", "--n", "3", "--p", "2", "--x")
    code, out, _ = run_cli(capsys, *args, "1000")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["samples_or_terms"] < 100
    assert parse_rational(doc["target"]) == poly_eval(pbell_poly(3, 2), 1000)
    code, _, err = run_cli(capsys, *args, "-2000")
    assert code == 2 and "did not settle in 1000 terms" in err


def test_numeric_mc_reference(capsys):
    code, out, _ = run_cli(
        capsys, "numeric", "mc", "--n", "1", "--p", "1", "--x", "0",
        "--samples", "1000000", "--seed", "42",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == "1/2" and doc["passed"] is True


def test_numeric_mc_seed_reproducibility(capsys):
    args = ("numeric", "mc", "--n", "2", "--p", "2", "--x", "1/2",
            "--samples", "200000", "--seed", "7")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    _, out_c, _ = run_cli(capsys, *(args[:-1] + ("8",)))
    assert out_c != out_a


def test_numeric_seed_only_on_the_seeded_checks(capsys):
    # dobinski, dobinski-poly and cesaro are deterministic and take no --seed
    for argv in (("dobinski",), ("dobinski-poly", "--x", "1"), ("cesaro",)):
        code, out, err = run_cli(capsys, "numeric", *argv, "--n", "3", "--p", "1", "--seed", "1")
        assert code == 2 and out == "" and "--seed" in err
    code, out, _ = run_cli(capsys, "numeric", "mc", "--n", "1", "--p", "1", "--x", "0",
                           "--samples", "1000000", "--seed", "42")  # the README example
    assert code == 0 and json.loads(out)["params"]["seed"] == 42
    parser = build_parser()
    assert parser.parse_args(["numeric", "mgf", "--p", "1", "--t", "1", "--seed", "3"]).seed == 3
    assert parser.parse_args(["numeric", "pmf", "--p", "1", "--k", "1", "--seed", "3"]).seed == 3


@pytest.mark.parametrize(
    "check, argv, params, rejected",
    [
        ("dobinski", ("--n", "3", "--p", "1"), ["n", "p"], "--samples"),
        ("dobinski-poly", ("--n", "3", "--p", "1", "--x", "1/2"), ["n", "p", "x"], "--samples"),
        ("cesaro", ("--n", "3", "--p", "1"), ["n", "p"], "--samples"),
        ("mc", ("--n", "2", "--p", "1", "--x", "1/2", "--samples", "20000"), ["n", "p", "x", "seed"], "--tol"),
        ("mgf", ("--p", "2", "--t", "0.5", "--samples", "20000"), ["p", "t", "seed"], "--tol"),
        ("pmf", ("--p", "2", "--k", "1", "--samples", "20000"), ["p", "k", "seed"], "--tol"),
    ],
)
def test_numeric_options_and_echoed_params_per_check(capsys, check, argv, params, rejected):
    # only the series and contour checks take --tol; only the Monte Carlo checks take --samples
    code, out, _ = run_cli(capsys, "numeric", check, *argv)
    assert code in (0, 1) and list(json.loads(out)["params"]) == params
    code, out, err = run_cli(capsys, "numeric", check, *argv, rejected, "1")
    assert code == 2 and out == "" and f"unrecognized arguments: {rejected} 1" in err


@pytest.mark.parametrize(
    "argv, printed",
    [
        (("dobinski", "--n", "0", "--p", "1"), "1e-09"),
        (("cesaro", "--n", "3", "--p", "2"), "1e-06"),
        (("cesaro", "--n", "3", "--p", "2", "--tol", "1e-5"), "1e-05"),
    ],
)
def test_numeric_omitted_tol_is_the_library_default(capsys, argv, printed):
    from polybell import numeric_bridge

    code, out, _ = run_cli(capsys, "numeric", *argv)
    assert code == 0 and f'"tolerance": {printed}' in out
    args = build_parser().parse_args(["numeric", *argv])
    if "--tol" not in argv:  # the CLI holds no copy of the default that could drift from the library's
        assert args.tol is None
        function = {"dobinski": numeric_bridge.dobinski_pbell, "cesaro": numeric_bridge.cesaro_pbell}[argv[0]]
        assert inspect.signature(function).parameters["tol"].default == float(printed)


def test_numeric_mgf_reports_both_forms(capsys):
    code, out, _ = run_cli(
        capsys, "numeric", "mgf", "--p", "3", "--t", "-0.5", "--samples", "200000"
    )
    assert code == 0
    doc = json.loads(out)
    assert "shifted_form" in doc and "shifted_form_abs_error" in doc
    assert doc["shifted_form_abs_error"] > doc["abs_error"]


def test_numeric_mgf_past_the_float_range_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "numeric", "mgf", "--p", "1", "--t", "7", "--samples", "1000"
    )
    assert code == 2 and out == ""
    assert "float range" in err and "t <= 6.5755" in err
    assert "Infinity" not in err and "NaN" not in err
    code, out, err = run_cli(capsys, "numeric", "mgf", "--p", "1", "--t=-inf", "--samples", "10")
    assert code == 2 and out == "" and "finite t" in err


def test_numeric_mgf_with_a_band_wider_than_the_target_exits_2(capsys):
    # E[e^{5Z}] at p = 1 is 7.1e61, carried by draws no 200,000 samples reach
    code, out, err = run_cli(
        capsys, "numeric", "mgf", "--p", "1", "--t", "5", "--samples", "200000"
    )
    assert code == 2 and out == "" and "at least the target" in err
    code, out, err = run_cli(capsys, "numeric", "mgf", "--p", "1", "--t", "2", "--samples", "2000")
    assert code == 2 and out == "" and "more than 6.53e+18 samples" in err


def test_numeric_pmf_with_a_band_wider_than_the_target_exits_2(capsys):
    # P(Z = 10) at p = 1 is 1.0e-8; 1000 samples give a band of 9.5e-6
    code, out, err = run_cli(
        capsys, "numeric", "pmf", "--p", "1", "--k", "10", "--samples", "1000"
    )
    assert code == 2 and out == ""
    assert "at least the target" in err and "more than 8.96e+08 samples" in err


def test_numeric_cesaro_and_pmf(capsys):
    code, out, _ = run_cli(capsys, "numeric", "cesaro", "--n", "3", "--p", "2", "--tol", "1e-5")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, "numeric", "pmf", "--p", "2", "--k", "0", "--samples", "300000")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and "unnormalized_form" in doc


def test_numeric_usage_and_domain_errors(capsys):
    assert main(["numeric"]) == 2
    capsys.readouterr()
    code, _, err = run_cli(capsys, "numeric", "dobinski", "--n", "2", "--p", "0")
    assert code == 2 and "error:" in err
    for check in ("mc", "dobinski-poly"):  # an --x that parses neither way names the accepted forms
        code, out, err = run_cli(capsys, "numeric", check, "--n", "2", "--p", "1", "--x", "1/0")
        assert code == 2 and out == "" and "--x takes num/den with a nonzero denominator, or a float" in err
        assert "'1/0'" in err, check


@pytest.mark.parametrize("check", ["mc", "dobinski-poly"])
@pytest.mark.parametrize("x", ["inf", "-inf", "nan", "1e999"])
def test_numeric_non_finite_x_exits_two(capsys, check, x):
    # these used to exit 2 with "cannot convert Infinity to integer ratio"
    code, out, err = run_cli(capsys, "numeric", check, "--n", "2", "--p", "1", f"--x={x}")
    assert code == 2 and out == ""
    assert f"error: --x takes num/den with a nonzero denominator, or a float, not '{x}'" in err


@pytest.mark.parametrize("check", ["mc", "dobinski-poly"])
def test_numeric_negative_fraction_is_written_with_equals(capsys, check):
    # argparse reads "--x -1/2" as a missing value, so the help and README give this form
    samples = ("--samples", "1000") if check == "mc" else ()
    code, out, _ = run_cli(capsys, "numeric", check, "--n", "2", "--p", "1", "--x=-1/2", *samples)
    assert code == 0
    assert json.loads(out)["target"] == "7/12"


# ---------------------------------------------------------------------------
# retired subcommands


def test_bench_is_not_a_subcommand(capsys):
    code, out, err = run_cli(capsys, "bench", "--nmax", "5")
    assert code == 2 and out == "" and "invalid choice" in err


def test_backend_is_not_an_option(capsys):
    # a printed number has one route; --cross-check runs the other three
    for argv in (
        ("value", "--kind", "pbell", "--n", "6", "--p", "1", "--backend", "explicit"),
        ("table", "--kind", "pbell-numbers", "--nmax", "3", "--pmax", "2", "--backend", "recurrence"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err, argv


# ---------------------------------------------------------------------------
# entry points


def test_module_and_script_entry_points():
    result = subprocess.run(
        [sys.executable, "-m", "polybell", "value", "--kind", "pbell", "--n", "2", "--p", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout == "5/6\n"
