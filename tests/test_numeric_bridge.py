import json
import math
import re
from fractions import Fraction

import mpmath

import numpy as np
import pytest

import polybell.numeric_bridge as nb
from polybell.numeric_bridge import (
    NumericCheck,
    RngStream,
    beta_poisson_batch,
    cesaro_pbell,
    dobinski_pbell,
    dobinski_pbell_poly,
    hyp1f1,
    lower_inc_gamma,
    mc_moment_check,
    mgf_check,
    pmf_check,
)
from polybell.cli import main
from polybell.exact_core import poly_eval
from polybell.pbell import pbell_number, pbell_poly


# ---------------------------------------------------------------------------
# special functions


@pytest.mark.parametrize("z", [-1.0, -0.25, 0.3, 1.0, math.e - 1.0])
def test_hyp1f1_collapses_at_unit_parameters(z):
    # 1F1(1; 2; z) = (e^z - 1)/z and 1F1(a; a; z) = e^z
    assert abs(hyp1f1(1, 2, z) - math.expm1(z) / z) < 1e-14
    assert abs(hyp1f1(3.5, 3.5, z) - math.exp(z)) < 1e-13


@pytest.mark.parametrize("a,b,z", [(1.0, 3.0, 0.9), (2.0, 5.0, -1.0), (0.5, 2.5, 1.3)])
def test_hyp1f1_kummer_transformation(a, b, z):
    lhs = hyp1f1(a, b, z)
    rhs = math.exp(z) * hyp1f1(b - a, b, -z)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_hyp1f1_rejects_nonpositive_integer_denominator_parameter():
    with pytest.raises(ValueError):
        hyp1f1(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        hyp1f1(1.0, -3.0, 0.5)


@pytest.mark.parametrize("s,x", [(3.0, 750.0), (1.0, 2e4), (2.5, 40.0), (7.0, 7.5), (0.5, 1e-3)])
def test_lower_inc_gamma_matches_mpmath(s, x):
    mpmath = pytest.importorskip("mpmath")
    got = lower_inc_gamma(s, x)
    assert math.isclose(got, float(mpmath.gammainc(s, 0, x)), rel_tol=1e-12), (s, x, got)


@pytest.mark.parametrize("s,x", [(1e6, 1e6 + 5e3), (4e5, 4e5 + 3e3), (150.0, 1e3), (200.0, 1e3)])
def test_lower_inc_gamma_past_the_term_cap_is_right_or_raises(s, x):
    mpmath = pytest.importorskip("mpmath")
    try:
        got = lower_inc_gamma(s, x)
    except (RuntimeError, OverflowError):
        return
    assert not math.isnan(got)
    assert math.isclose(got, float(mpmath.gammainc(s, 0, x)), rel_tol=1e-10), (s, x, got)


def test_lower_inc_gamma_closed_forms():
    for x in (0.1, 0.5, 1.0, 2.3, 7.0):
        assert abs(lower_inc_gamma(1.0, x) - (1 - math.exp(-x))) < 1e-14
        expected2 = 1 - math.exp(-x) * (1 + x)
        assert abs(lower_inc_gamma(2.0, x) - expected2) < 1e-14
    assert lower_inc_gamma(3.7, 0.0) == 0.0
    with pytest.raises(ValueError):
        lower_inc_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        lower_inc_gamma(1.0, -0.5)


# ---------------------------------------------------------------------------
# series and quadrature against exact values


def test_dobinski_matches_exact_grid():
    for n in range(9):
        for p in range(1, 5):
            check = dobinski_pbell(n, p)
            assert check.abs_error <= 1e-8, (n, p, check.abs_error)
            assert check.passed
            assert check.target == pbell_number(n, p)


def test_dobinski_tolerance_covers_float_rounding():
    # the terms are positive, so the rounding error is at most about
    # terms * 2^-53 * estimate; an absolute 1e-9 false-fails large values
    for n, p in ((30, 3), (60, 3)):
        check = dobinski_pbell(n, p)
        assert check.passed, (n, p, check.abs_error, check.tolerance)
        assert check.abs_error <= 1e-15 * float(check.target)
        assert check.tolerance == check.samples_or_terms * 2**-53 * check.estimate
    for n in range(61):
        for p in range(1, 7):
            check = dobinski_pbell(n, p)
            assert check.passed, (n, p, check.abs_error, check.tolerance)


def test_dobinski_small_grid_keeps_absolute_tolerance():
    for n in range(9):
        for p in range(1, 5):
            assert dobinski_pbell(n, p).tolerance == 1e-9, (n, p)


def test_dobinski_more_terms_does_not_hurt():
    loose = dobinski_pbell(5, 2, tol=1e-6)
    tight = dobinski_pbell(5, 2, tol=1e-12)
    assert tight.samples_or_terms >= loose.samples_or_terms
    assert tight.abs_error <= loose.abs_error + 1e-12


def test_dobinski_poly_reference_points():
    check = dobinski_pbell_poly(1, 1, 0)
    assert check.target == Fraction(1, 2) and check.passed
    check = dobinski_pbell_poly(2, 1, 1)
    assert check.target == Fraction(17, 6) and check.passed
    for x in (Fraction(7, 3), -2.5, 0):
        check = dobinski_pbell_poly(0, 2, x)
        assert check.target == 1 and check.passed


def test_float_point_is_read_exactly():
    # a float point is taken at its exact binary value, the same as its fraction
    assert dobinski_pbell_poly(5, 2, 0.5).target == dobinski_pbell_poly(5, 2, "1/2").target


def test_dobinski_poly_negative_point():
    check = dobinski_pbell_poly(3, 2, Fraction(-3, 2))
    assert check.passed, check.abs_error


def test_dobinski_poly_tolerance_covers_float_rounding():
    # an absolute 1e-9 false-failed (30, 3, 1) at relative error 1.2e-16; the
    # bound sums |term|, so it also holds where x < 0 makes terms change sign
    for n, p, x in ((30, 3, 1), (30, 3, Fraction(-1, 2)), (25, 2, Fraction(-7, 3))):
        check = dobinski_pbell_poly(n, p, x)
        assert check.passed, (n, p, x, check.abs_error, check.tolerance)
        assert check.tolerance > 1e-9


def test_dobinski_poly_small_grid_keeps_absolute_tolerance():
    for n in range(9):
        for p in range(1, 5):
            for x in (0, 1, Fraction(1, 3), Fraction(-3, 2)):
                check = dobinski_pbell_poly(n, p, x)
                assert check.tolerance == 1e-9 and check.passed, (n, p, x)


def test_dobinski_number_is_the_polynomial_series_at_zero():
    # one series serves both checks: at x = 0 every float operation is the same
    for n in range(31):
        for p in range(1, 7):
            number, poly = dobinski_pbell(n, p), dobinski_pbell_poly(n, p, 0)
            assert number.to_json_dict() == poly.to_json_dict(), (n, p)


def test_dobinski_poly_weights_do_not_overflow_inside_the_float_range():
    # (x+k)^n passes the float range from k ~ 110 here, but each weight is rounded
    # once from its exact value, which is small by then
    check = dobinski_pbell_poly(150, 3, Fraction(7, 2))
    assert check.passed, (check.abs_error, check.tolerance)
    assert check.abs_error <= 1e-15 * float(check.target)


def test_dobinski_validates_input():
    with pytest.raises(ValueError):
        dobinski_pbell(3, 0)
    with pytest.raises(ValueError):
        dobinski_pbell_poly(-1, 1, 0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_bad_tolerance_is_rejected_before_any_work(monkeypatch, tol):
    # a nan tolerance fails every comparison, so it gave a false fail; a zero or
    # negative one never stops the Dobinski series; 0 is a valid Cesaro tol
    def no_work(*args):
        raise AssertionError("the target was computed")

    monkeypatch.setattr(nb, "pbell_number", no_work)
    monkeypatch.setattr(nb, "pbell_poly", no_work)
    for check in (lambda: dobinski_pbell(5, 1, tol), lambda: dobinski_pbell_poly(5, 1, 2, tol)):
        with pytest.raises(ValueError, match=f"tol={tol}"):
            check()
    if tol != 0:
        with pytest.raises(ValueError, match=f"tol={tol}"):
            cesaro_pbell(5, 1, tol)


def test_bad_tolerance_exits_two(capsys):
    assert main(["numeric", "cesaro", "--n", "5", "--p", "1", "--tol", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tol=nan" in captured.err
    assert main(["numeric", "dobinski", "--n", "5", "--p", "1", "--tol", "0"]) == 2
    assert main(["numeric", "dobinski-poly", "--n", "5", "--p", "1", "--x", "1", "--tol", "-1"]) == 2
    assert "tol=-1.0" in capsys.readouterr().err


def test_cesaro_reference_cases():
    for (n, p), tol in [((1, 1), 1e-6), ((2, 1), 1e-6), ((3, 2), 1e-5)]:
        check = cesaro_pbell(n, p, tol=tol)
        assert check.abs_error <= tol, (n, p, check.abs_error)
        assert check.passed


def test_cesaro_settles_and_passes_for_n_up_to_11():
    for n in range(1, 12):
        for p in range(1, 7):
            check = cesaro_pbell(n, p)
            assert check.passed, (n, p, check.abs_error)


@pytest.mark.parametrize("n,p", [(12, 5), (13, 5), (14, 1), (14, 2), (20, 6), (30, 1)])
def test_cesaro_beyond_domain_settles_right_or_raises(n, p):
    # the old unit-circle quadrature stopped settling here; the saddle-point
    # circle must now pass
    check = cesaro_pbell(n, p)
    assert check.passed, (n, p, check.abs_error, check.tolerance)


def test_cesaro_respects_node_count_and_validates(monkeypatch):
    # N starts at 2n + 64 and only doubles, and a doubling evaluates only the
    # new nodes, so N nodes are evaluated in all
    real, evaluated = nb._f_on_circle, []
    monkeypatch.setattr(nb, "_f_on_circle", lambda z, *a: evaluated.append(z.size) or real(z, *a))
    for n, p in [(1, 1), (2, 1), (12, 5), (27, 5), (60, 8)]:
        evaluated.clear()
        nodes, first = cesaro_pbell(n, p).samples_or_terms, 2 * n + 64
        assert evaluated == [first] + [first << k for k in range(len(evaluated) - 1)]
        assert sum(evaluated) == nodes, (n, p)
    monkeypatch.undo()
    for n, p in [(0, 1), (1, 0), (-3, 2)]:
        with pytest.raises(ValueError):
            cesaro_pbell(n, p)
    with pytest.raises(TypeError):
        cesaro_pbell(2, 1, quad_points=8)
    assert main(["numeric", "cesaro", "--n", "2", "--p", "1", "--quad-points", "8"]) == 2


def test_cesaro_grid_passes_within_a_relative_bound():
    for n in range(1, 61):
        for p in range(1, 9):
            check = cesaro_pbell(n, p)
            target = float(check.target)
            assert check.passed, (n, p, check.abs_error, check.tolerance)
            assert check.tolerance <= max(1e-6, 1e-7 * target), (n, p, check.tolerance)


def test_cesaro_perturbed_target_fails(monkeypatch):
    # no false pass: a target off by one part in 10^6 is caught wherever the
    # absolute floor 1e-6 cannot hide it
    monkeypatch.setattr(nb, "pbell_number", lambda n, p: pbell_number(n, p) * Fraction(1000001, 10**6))
    for n in range(1, 61):
        for p in range(1, 9):
            if pbell_number(n, p) >= 10:
                assert not cesaro_pbell(n, p).passed, (n, p)


# at large p, w^p/p! underflows on part of the circle, so f_p must not divide by it
@pytest.mark.parametrize("n,p", [(200, 1), (200, 6), (1, 200), (1, 1000), (60, 100), (242, 100)])
def test_cesaro_passes_at_large_n_or_p(n, p):
    check = cesaro_pbell(n, p, tol=0.0)
    assert check.passed and check.abs_error <= 1e-12 * float(check.target), (n, p)


def test_cesaro_series_cut_off_drops_below_half_an_ulp():
    # log of t_m = w^m p!/(p+m)! and of the rest past _series_terms(w), bounded
    # by a geometric series, against the largest term
    for w in [1e-3, 0.5, 3.0, 20.0, 150.0, 1e3, 1e4]:
        for p in [1, 5, 100, 10**4]:
            terms = nb._series_terms(w)

            def log_t(m):
                return m * math.log(w) - math.lgamma(p + m + 1) + math.lgamma(p + 1)

            top = log_t(max(0, min(terms, math.ceil(w - p - 1))))
            rest = log_t(terms) - math.log1p(-w / (p + terms + 1))
            assert rest - top < -54 * math.log(2), (w, p)


def test_cesaro_raises_instead_of_looping(monkeypatch):
    # a non-finite sum, or an aliasing bound that would need more than 2^16
    # nodes, raises instead of doubling N for ever
    monkeypatch.setattr(nb, "_f_on_circle", lambda z, p, terms: z * np.nan)
    with pytest.raises(ValueError, match="broke down"):
        cesaro_pbell(5, 2)
    monkeypatch.undo()
    real, radii = nb._log_f_real, []

    def inflated(r, p):
        log_f, slope = real(r, p)
        aliasing_call = radii and math.isclose(r, 1.25 * radii[-1])
        radii.append(r)
        return log_f + (1e5 if aliasing_call else 0.0), slope

    monkeypatch.setattr(nb, "_log_f_real", inflated)
    with pytest.raises(ValueError, match="broke down at 69632 nodes"):
        cesaro_pbell(2, 1)


def test_cesaro_rejects_a_target_past_the_float_range(capsys):
    assert float(pbell_number(219, 1)) > 1e306
    with pytest.raises(ValueError, match="float range"):
        cesaro_pbell(220, 1)
    assert main(["numeric", "cesaro", "--n", "220", "--p", "1"]) == 2
    assert "n <= 219" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the random stream


def test_rng_known_answers():
    # frozen regression anchors for the counter-mode generator
    got = RngStream(0).uniforms(3)
    expected = [0.8833108082136426, 0.43152799704850997, 0.026433771592597743]
    assert got.tolist() == expected
    got42 = RngStream(42).uniforms(2)
    assert got42.tolist() == [0.7415648787718233, 0.1599103928769201]


def test_rng_first_output_from_integer_arithmetic():
    # independent scalar recomputation of output #1 for seed 0
    mask = (1 << 64) - 1
    x = 0x9E3779B97F4A7C15
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    expected = (x >> 11) * 2.0**-53
    assert RngStream(0).uniforms(1)[0] == expected


def test_rng_stream_is_stateful_and_reproducible():
    r = RngStream(7)
    first = r.uniforms(4)
    second = r.uniforms(4)
    assert not np.array_equal(first, second)
    replay = RngStream(7)
    assert np.array_equal(replay.uniforms(8), np.concatenate([first, second]))
    assert np.array_equal(RngStream(7).uniforms(4), first)
    # the output bits, pinned across NumPy 1.x and 2.x casting rules
    assert first.tolist() == [
        0.3898297483912715,
        0.01678829452815611,
        0.9007606806068834,
        0.5829302930280781,
    ]


def _reference_uniforms(seed, start, count):
    """Outputs start+1 .. start+count of ``RngStream(seed)``, computed with
    a new array per step: the reference for the in-place stream."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x = np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def test_rng_in_place_mix_is_unchanged():
    for seed in (0, 1, 42, 2**64 - 1):
        r = RngStream(seed)
        assert np.array_equal(r.uniforms(1000), _reference_uniforms(seed, 0, 1000))
        assert np.array_equal(r.uniforms(7), _reference_uniforms(seed, 1000, 7))


def test_rng_uniforms_are_not_capped_by_the_step_table():
    # a draw of several blocks, starting past a block edge, matches the reference bit for bit
    seed, count = 2**64 - 1, 3 * nb._BLOCK + 7
    rng = RngStream(seed)
    rng.uniforms(nb._BLOCK + 3)
    got = rng.uniforms(count)
    assert got.tobytes() == _reference_uniforms(seed, nb._BLOCK + 3, count).tobytes()
    assert rng.uniforms(1).tobytes() == _reference_uniforms(seed, 4 * nb._BLOCK + 10, 1).tobytes()


def test_rng_outputs_lie_in_unit_interval():
    u = RngStream(123).uniforms(10_000)
    assert (u >= 0).all() and (u < 1).all()
    assert abs(float(u.mean()) - 0.5) < 0.02


def test_rng_split_streams_are_stable_and_distinct():
    base = RngStream(42)
    a = base.split(0).uniforms(5)
    b = base.split(1).uniforms(5)
    assert not np.array_equal(a, b)
    assert np.array_equal(RngStream(42).split(0).uniforms(5), a)
    with pytest.raises(ValueError):
        base.split(-1)
    with pytest.raises(ValueError):
        base.uniforms(-1)


# ---------------------------------------------------------------------------
# sampling and Monte Carlo checks


def test_beta_poisson_batch_counts_are_nonnegative_ints():
    counts = beta_poisson_batch(2, 1000, RngStream(5))
    assert counts.dtype == np.int64 and (counts >= 0).all()
    assert counts.sum() == 1000 and counts[-1] > 0
    assert beta_poisson_batch(1, 0, RngStream(0)).size == 0
    with pytest.raises(ValueError):
        beta_poisson_batch(0, 1, RngStream(5))
    with pytest.raises(ValueError):
        beta_poisson_batch(1, -1, RngStream(5))


def _reference_beta_poisson(p, count, seed, start=0):
    """Beta-Poisson draws with every draw updated each round of the
    inversion: the reference for the sampler that keeps only active draws."""
    u_lambda = _reference_uniforms(seed, start, count)
    u_z = _reference_uniforms(seed, start + count, count)
    lam = 1.0 - u_lambda ** (1.0 / p)
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    z = np.zeros(count, dtype=np.int64)
    k = 0
    while True:
        active = u_z >= cdf
        if not active.any():
            return z
        k += 1
        pmf *= lam / k
        cdf += np.where(active, pmf, 0.0)
        z += active


def test_beta_poisson_batch_draws_are_unchanged():
    block = nb._BLOCK
    for seed in (3, 2024, 2**63 + 11):
        for p in range(1, 7):
            for count in (0, 1, block - 1, block, block + 1, 3 * block + 7, 200_000):
                rng = RngStream(seed)
                got = beta_poisson_batch(p, count, rng)
                want = np.bincount(_reference_beta_poisson(p, count, seed))
                assert np.array_equal(got, want), (seed, p, count)
                assert np.array_equal(rng.uniforms(3), _reference_uniforms(seed, 2 * count, 3))


def test_beta_poisson_batch_draws_from_the_stream_position():
    # a batch on a stream already advanced takes its uniforms from there on
    count = nb._BLOCK + 5
    rng = RngStream(77)
    rng.uniforms(13)
    got = beta_poisson_batch(3, count, rng)
    assert np.array_equal(got, np.bincount(_reference_beta_poisson(3, count, 77, start=13)))
    assert np.array_equal(rng.uniforms(2), _reference_uniforms(77, 13 + 2 * count, 2))


def test_block_size_changes_no_draw(monkeypatch):
    # blocks lay out memory only: every histogram and the stream position are the same
    runs = {}
    for block in (1000, 1 << 13, 1 << 14):
        monkeypatch.setattr(nb, "_BLOCK", block)
        monkeypatch.setattr(nb, "_steps", {})
        for p in (1, 3, 6):
            rng = RngStream(2**64 - 3)
            rng.uniforms(5)
            hist = nb._chunked_histogram(p, 200_000, rng)
            batch = beta_poisson_batch(p, 20_000, rng).tolist()
            runs.setdefault(p, []).append((hist, batch, repr(rng), rng.uniforms(2).tolist()))
        assert list(nb._steps) == [block]
    for p, results in runs.items():
        assert all(result == results[0] for result in results), p


@pytest.mark.parametrize("chunk", [nb._CHUNK, (1 << 15) + 5])
def test_chunked_histogram_is_exact_across_chunks(monkeypatch, chunk):
    # the real chunk is a whole number of blocks; the shorter one, 5 past a
    # power of two, puts a partial block at the end of both chunks
    assert chunk == nb._CHUNK or chunk > nb._BLOCK and chunk % nb._BLOCK
    monkeypatch.setattr(nb, "_CHUNK", chunk)
    p, seed, tail = 2, 31, nb._BLOCK + 3
    split = RngStream(seed).split
    draws = np.concatenate(
        [_reference_beta_poisson(p, chunk, split(0).seed), _reference_beta_poisson(p, tail, split(1).seed)]
    )
    assert nb._chunked_histogram(p, chunk + tail, RngStream(seed)) == np.bincount(draws).tolist()


def test_beta_poisson_batch_mean_tracks_first_moment():
    # E[Z] = 1/(p+1)
    for p in (1, 3):
        counts = beta_poisson_batch(p, 400_000, RngStream(11 + p))
        k = np.arange(counts.size)
        mean = float(k @ counts) / counts.sum()
        std = math.sqrt(float((k - mean) ** 2 @ counts) / (counts.sum() - 1))
        assert abs(mean - 1 / (p + 1)) < 5 * std / math.sqrt(counts.sum())


def test_mc_moment_check_reference():
    check = mc_moment_check(1, 1, 0, 1_000_000, RngStream(42))
    assert check.target == Fraction(1, 2)
    assert check.passed


def test_mc_moment_check_is_exact_over_the_reference_draws():
    # two chunks; at x = 1/2 each value (x + z)^n is (2z + 1)^n / 2^n
    n, p, seed, samples = 7, 2, 19, nb._CHUNK + 1000
    split = RngStream(seed).split
    draws = np.concatenate(
        [
            _reference_beta_poisson(p, nb._CHUNK, split(0).seed),
            _reference_beta_poisson(p, 1000, split(1).seed),
        ]
    ).tolist()
    values = [(2 * z + 1) ** n for z in draws]
    total, squares = sum(values), sum(v * v for v in values)
    check = mc_moment_check(n, p, Fraction(1, 2), samples, RngStream(seed))
    assert check.estimate == float(Fraction(total, 2**n * samples))
    variance = Fraction(samples * squares - total**2, 4**n * samples * (samples - 1))
    assert check.tolerance == 4.0 * math.sqrt(variance) / math.sqrt(samples)
    assert check.passed


def test_mc_moment_check_is_reproducible():
    a = mc_moment_check(2, 1, Fraction(1, 2), 200_000, RngStream(9))
    b = mc_moment_check(2, 1, Fraction(1, 2), 200_000, RngStream(9))
    assert a == b
    c = mc_moment_check(2, 1, Fraction(1, 2), 200_000, RngStream(10))
    assert c.estimate != a.estimate


def test_mc_moment_check_constant_case():
    check = mc_moment_check(0, 1, 3, 1_000, RngStream(0))
    assert check.estimate == 1.0
    assert check.tolerance == 0.0
    assert check.passed


def test_mc_band_survives_a_large_offset():
    # at x = 1e9 the draws are ~1e18 and differ by ~1e9, so a float
    # sum v^2 - n mean^2 cancels to a band of 0.0 and a false fail; the sample
    # variance, taken in rationals, keeps the band near 4 sigma with the exact
    # variance B_{4,1}(x) - B_{2,1}(x)^2
    samples, x = 1_000_000, 10**9
    check = mc_moment_check(2, 1, float(x), samples, RngStream(0))
    assert check.estimate == 1.000000000998538e18  # the same estimate as the float sum
    exact_var = poly_eval(pbell_poly(4, 1), x) - poly_eval(pbell_poly(2, 1), x) ** 2
    exact_band = 4 * math.sqrt(exact_var) / math.sqrt(samples)
    assert check.tolerance == pytest.approx(exact_band, rel=0.05)
    assert check.passed


def test_mc_accepts_float_and_rational_points():
    a = mc_moment_check(1, 2, 0.5, 100_000, RngStream(4))
    b = mc_moment_check(1, 2, Fraction(1, 2), 100_000, RngStream(4))
    assert a == b


def test_mgf_forms_coincide_only_at_p_one():
    check = mgf_check(1, 0.3, 400_000, RngStream(8))
    assert check.passed
    assert check.extra["shifted_form"] == check.target
    check = mgf_check(3, -0.5, 400_000, RngStream(8))
    assert check.passed
    # the parameter-shifted variant is not the MGF for p > 1: it misses by
    # ~0.16 while the Monte Carlo CI is ~1e-3
    assert check.extra["shifted_form_abs_error"] > 50 * check.tolerance


def test_pmf_matches_beta_mixture_form():
    for p in (1, 2):
        for k in (0, 1, 2):
            check = pmf_check(p, k, 1_000_000, RngStream(100 * p + k))
            assert check.passed, (p, k, check.abs_error, check.tolerance)


def test_pmf_alternate_form_fails_beyond_p_one():
    # at p = 1 the two closed forms agree mathematically; the float routes
    # differ only by rounding
    check = pmf_check(1, 1, 200_000, RngStream(3))
    assert math.isclose(check.extra["unnormalized_form"], check.target, rel_tol=1e-13)
    check = pmf_check(2, 0, 1_000_000, RngStream(3))
    # true mass at zero is 2/e; the unnormalized variant lands near 0.5285
    assert abs(check.target - 2 / math.e) < 1e-12
    assert abs(check.extra["unnormalized_form"] - 0.5285) < 5e-4
    assert check.extra["unnormalized_form_abs_error"] > 100 * check.tolerance
    assert check.passed


def test_vacuous_bands_are_rejected_before_sampling(monkeypatch):
    # the exact mgf band is at least the target iff N <= 16 (f_p(2t)/f_p(t)^2 - 1),
    # the pmf band iff N <= 9 (1 - pi)/pi; the thresholds come from mpmath
    def sample(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(nb, "_chunked_histogram", sample)
    for p, t in ((1, 0.3), (1, 1.0), (3, 1.5)):
        f = lambda s: mpmath.hyp1f1(1, p + 1, mpmath.expm1(s))
        need = float(16 * (f(2 * t) / f(t) ** 2 - 1))
        with pytest.raises(ValueError, match=re.escape(f"more than {need:.3g} samples")):
            mgf_check(p, t, math.floor(need), RngStream(0))
        with pytest.raises(AssertionError, match="sampled"):
            mgf_check(p, t, math.floor(need) + 1, RngStream(0))
    for p, k in ((1, 3), (2, 5)):
        pi = mpmath.factorial(p) / mpmath.factorial(p + k) * mpmath.hyp1f1(k + 1, p + k + 1, -1)
        need = float(9 * (1 - pi) / pi)
        with pytest.raises(ValueError, match=re.escape(f"more than {need:.3g} samples")):
            pmf_check(p, k, math.floor(need), RngStream(0))
        with pytest.raises(AssertionError, match="sampled"):
            pmf_check(p, k, math.floor(need) + 1, RngStream(0))


def test_pmf_band_is_the_exact_binomial_band():
    check = pmf_check(2, 1, 100_000, RngStream(6))
    assert check.tolerance == 3.0 * math.sqrt(check.target * (1.0 - check.target) / 100_000)


def test_numeric_check_json_round_trip():
    check = dobinski_pbell(3, 2)
    doc = json.loads(json.dumps(check.to_json_dict()))
    assert doc["target"] == "14/15"
    assert doc["samples_or_terms"] == check.samples_or_terms
    assert doc["abs_error"] == check.abs_error
    check = mgf_check(2, 0.1, 1_000, RngStream(0))
    doc = check.to_json_dict()
    assert isinstance(doc["target"], float)
    assert "shifted_form" in doc


def test_numeric_check_reports_relative_error():
    check = dobinski_pbell(20, 2)
    doc = check.to_json_dict()
    assert doc["rel_error"] == check.abs_error / float(check.target)
    assert NumericCheck(0.5, Fraction(0), 0.5, 1.0, 1).to_json_dict()["rel_error"] is None
    doc = mgf_check(2, 0.1, 1_000, RngStream(0)).to_json_dict()
    assert doc["rel_error"] == doc["abs_error"] / abs(doc["target"])


def test_numeric_check_passed_is_tolerance_comparison():
    assert NumericCheck(1.0, Fraction(1), 0.0, 0.0, 1).passed
    assert not NumericCheck(1.1, Fraction(1), 0.1, 0.05, 1).passed
