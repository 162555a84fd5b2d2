"""Floating-point and Monte Carlo cross-checks of the exact results.

Every routine here estimates a quantity whose exact value the rest of the
package computes rationally, and returns a :class:`NumericCheck` pairing the
estimate with that exact target.

Randomness contract
-------------------
:class:`RngStream` is SplitMix64 run in counter mode: output ``i`` (1-based)
is ``mix64(seed + i * 0x9E3779B97F4A7C15)`` with the standard SplitMix64
finalizer, mapped to [0, 1) doubles by taking the top 53 bits.  The same seed
always yields the same sequence.  ``split(j)`` derives the disjoint child
stream ``mix64(seed XOR mix64((j+1) * 0xC2B2AE3D27D4EB4F))``; Monte Carlo
loops draw chunk ``j`` from ``split(j)``: the chunk layout is a pure function
of the sample count, so the histogram does not depend on the reduction order.

The beta-Poisson sampler draws lambda ~ Beta(1, p) by inverse CDF
(lambda = 1 - u^{1/p}, always in [0, 1]) and then Z ~ Poisson(lambda) by
inversion, which needs one uniform per draw since lambda <= 1.  It works in
blocks whose arrays stay under 128 KiB, so that glibc does not trim the heap
after each block; blocking changes no output.  It returns the histogram of
Z, which takes a dozen or so small values: chunk histograms are added as
integers, and each reduction is exact over the distinct values (a rational
sum for ``mc``, ``math.fsum`` for ``mgf``), rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial
from typing import Iterator, Union

from .exact_core import RationalLike, format_rational, poly_eval, rational
from .pbell import pbell_number, pbell_poly

__all__ = [
    "NumericCheck",
    "RngStream",
    "hyp1f1",
    "lower_inc_gamma",
    "dobinski_pbell",
    "dobinski_pbell_poly",
    "cesaro_pbell",
    "beta_poisson_batch",
    "mc_moment_check",
    "mgf_check",
    "pmf_check",
]

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_SPLIT = 0xC2B2AE3D27D4EB4F
_CHUNK = 1 << 19
_BLOCK = 1 << 13  # draws per block: 64 KiB arrays (128 KiB ones cost 1,152 heap-trim faults per mc)
_U = 2.0**-53  # unit roundoff of float64
_HYP_TOL = 1e-15  # hyp1f1 stops at a term this far below the sum
_steps: dict[int, np.ndarray] = {}  # b -> i * _GOLDEN mod 2^64, i = 1 .. b; built by the first draw


@dataclass(frozen=True)
class NumericCheck:
    """A numeric estimate against its exact (or closed-form) target.

    ``target`` is a Fraction whenever the exact side is rational; the MGF and
    pmf checks compare against transcendental closed forms and store a float.
    ``extra`` carries secondary comparisons (e.g. an alternate printed form)
    and is merged into the JSON serialization.
    """

    estimate: float
    target: Union[Fraction, float]
    abs_error: float
    tolerance: float
    samples_or_terms: int
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tolerance

    def to_json_dict(self) -> dict:
        target = (
            format_rational(self.target) if isinstance(self.target, Fraction) else self.target
        )
        out = {
            "estimate": self.estimate,
            "target": target,
            "abs_error": self.abs_error,
            "tolerance": self.tolerance,
            "samples_or_terms": self.samples_or_terms,
            "rel_error": self.abs_error / abs(float(self.target)) if self.target else None,
        }
        out.update(self.extra)
        return out


def _mix64_int(x: int) -> int:
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _uniforms(seed: int, start: int, count: int) -> Iterator[np.ndarray]:
    """Outputs ``start + 1 .. start + count`` of this seed's stream, in blocks."""
    import numpy as np
    if (steps := _steps.get(_BLOCK)) is None:
        steps = _steps[_BLOCK] = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    for lo in range(start, start + count, _BLOCK):
        x = steps[: min(_BLOCK, start + count - lo)] + np.uint64((seed + lo * _GOLDEN) & _M64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        x >>= np.uint64(11)  # the top 53 bits, exact as int64 and as float64
        yield np.multiply(x.view(np.int64), 2.0**-53, out=x.view(np.float64))


class RngStream:
    """Deterministic, splittable uniform stream (see module docstring)."""

    __slots__ = ("seed", "_pos")

    algorithm = "splitmix64-counter"

    def __init__(self, seed: int):
        self.seed = seed & _M64
        self._pos = 0

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` doubles in [0, 1), advancing the stream."""
        import numpy as np
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        self._pos += count
        return np.concatenate([np.empty(0), *_uniforms(self.seed, self._pos - count, count)])

    def split(self, index: int) -> "RngStream":
        """Child stream ``index``, disjoint from this stream and its siblings."""
        if index < 0:
            raise ValueError(f"split index must be nonnegative, got {index}")
        return RngStream(self.seed ^ _mix64_int((index + 1) * _GOLDEN_SPLIT))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, algorithm={self.algorithm!r}, pos={self._pos})"


def hyp1f1(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric 1F1(a; b; z) by direct summation.

    The Dobinski and pmf checks use z = -1 and z = 1; the MGF check uses
    z = e^t - 1 > -1, up to where the sum passes the float range (z ~ 716
    at b = 2).  There the series converges in well under the 10^4-term cap;
    hitting the cap raises with the partial sum.
    """
    if b <= 0 and float(b).is_integer():
        raise ValueError(f"1F1 undefined at nonpositive integer b={b}")
    total = term = 1.0
    for k in range(10_000):
        term *= (a + k) / (b + k) * z / (k + 1)
        total += term
        if abs(term) <= _HYP_TOL * max(1.0, abs(total)):
            return total
    raise RuntimeError(f"1F1({a}; {b}; {z}) did not converge in 10^4 terms; partial={total!r}")


def lower_inc_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma gamma(s, x) for s > 0, x >= 0, by the series
    gamma(s,x) = x^s e^{-x} sum_k x^k / (s (s+1) ... (s+k)).

    For x > s the rest Gamma(s, x) is at most x^s e^{-x}/(x - s + 1); once that
    is below 2^-54 Gamma(s) the answer is Gamma(s).  Otherwise the sum, which is
    e^x x^-s gamma(s, x), stays below 2^54 for x > s and below its value at
    x = s for x <= s, and x^s e^{-x} is taken in logs, so nothing overflows
    unless the result does.  Past 10^4 terms it raises, as hyp1f1 does.
    """
    if s <= 0:
        raise ValueError(f"shape must be positive, got s={s}")
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got x={x}")
    if x == 0:
        return 0.0
    if x > s and s * math.log(x) - x - math.log(x - s + 1) < math.lgamma(s) - 54 * math.log(2):
        return math.gamma(s)
    total = term = 1.0 / s
    for k in range(1, 10_000):
        term *= x / (s + k)
        total += term
        if term <= 1e-17 * total:
            return math.exp(s * math.log(x) - x) * total
    raise RuntimeError(f"gamma({s}, {x}) series did not converge in 10^4 terms; partial={total!r}")


def _dobinski(n: int, p: int, x: Fraction, tol: float) -> NumericCheck:
    """The Dobinski series of B_{n,p}(x), each weight rounded once from its exact value.
    From k = max(n, 1) - min(x, 0) on, x + k >= n: each weight is <= e/(p+k+1) times the last."""
    if n < 0 or p < 1 or not 0 < tol < math.inf:
        raise ValueError(f"need n >= 0, p >= 1 and a finite tol > 0; got n={n}, p={p}, tol={tol}")
    target = poly_eval(pbell_poly(n, p), x) if x else pbell_number(n, p)
    a, b = x.as_integer_ratio()
    total = size = 0.0
    for k in range(1000):
        weight = float(Fraction((a + k * b) ** n, b**n * factorial(k) * comb(p + k, k)))
        term = weight * hyp1f1(k + 1, p + k + 1, -1.0)
        total += term
        size += abs(term)
        if abs(weight) < tol * 1e-3 and k >= max(n, 1) - min(x, 0):
            break
    else:
        raise RuntimeError(f"Dobinski series ({n}, {p}, {float(x)}) did not settle in 1000 terms")
    tolerance = max(tol, (k + 1) * _U * size)
    return NumericCheck(total, target, abs(total - float(target)), tolerance, k + 1)


def dobinski_pbell(n: int, p: int, tol: float = 1e-9) -> NumericCheck:
    """Dobinski-type series for B_{n,p}:

    B_{n,p} = sum_{k>=0} C(p+k,k)^{-1} 1F1(k+1; p+k+1; -1) k^n/k!.

    The hypergeometric factor lies in (0, 1], so the tail is dominated by the
    classical Dobinski tail and the loop stops once the weight drops three
    orders below ``tol`` (finite and positive).  The terms are positive, so
    rounding leaves the sum within about terms * 2^-53 * estimate (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3-4); the check
    passes within the larger of that bound and ``tol``.
    """
    return _dobinski(n, p, Fraction(0), tol)


def dobinski_pbell_poly(n: int, p: int, x: RationalLike | float, tol: float = 1e-9) -> NumericCheck:
    """Dobinski-type series for the p-Bell polynomial:

    B_{n,p}(x) = sum_{k>=0} C(p+k,k)^{-1} 1F1(k+1; p+k+1; -1) (x+k)^n/k!.

    This is the term-by-term expansion of the binomial-transform definition
    through the number-level series; the weight C(p+k,k)^{-1}/k! (equivalently
    p!/(p+k)!) is what the beta integral int_0^1 e^{-t} t^k (1-t)^{p-1} dt
    actually carries.  The check passes within the larger of ``tol`` and the
    rounding bound terms * 2^-53 * sum |term| (as in :func:`dobinski_pbell`).
    """
    return _dobinski(n, p, Fraction(x) if isinstance(x, float) else rational(x), tol)


def _series_terms(w: float) -> int:
    """Terms of f_p = sum_m t_m, t_m = w^m p!/(p+m)!, kept at real w >= 0:
    past m = w + 10 sqrt(w) + 20 the rest is below 2^-54 of the largest term."""
    return int(w + 10 * math.sqrt(w)) + 20


def _log_f_real(r: float, p: int) -> tuple[float, float]:
    """log f_p(r) and r f_p'(r)/f_p(r) at real r > 0, from the positive series
    f_p = sum_m t_m, w = e^r - 1, summed relative to its largest term
    (r f_p' = r (w+1)/w sum_m m t_m)."""
    import numpy as np
    w = math.expm1(r)
    m = np.arange(_series_terms(w))
    log_t = np.concatenate(([0.0], np.cumsum(np.log(w / (p + m[1:])))))
    t = np.exp(log_t - log_t.max())
    total = t.sum()
    return log_t.max() + math.log(total), r * (w + 1) / w * (m @ t) / total


def _f_on_circle(z: np.ndarray, p: int, terms: int) -> np.ndarray:
    """f_p(z) = sum_{m<terms} w^m p!/(p+m)!, w = e^z - 1, at complex nodes."""
    import numpy as np
    w = np.exp(z) - 1.0
    t = np.ones_like(w)
    value = t.copy()
    for m in range(1, terms):
        t = t * (w / (p + m))
        value += t
    return value


def cesaro_pbell(n: int, p: int, tol: float = 1e-6) -> NumericCheck:
    """Cesaro's integral for B_{n,p} (n, p >= 1), Cauchy's coefficient integral
    of f_p(z) = 1F1(1; p+1; e^z - 1), by the N-node trapezoid rule on |z| = r:
    B_{n,p} ~ n! r^-n mean_j f_p(z_j) e^{-i n theta_j}, z_j = r e^{i theta_j},
    theta_j = 2 pi j/N.  Cesaro took r = 1; here r is the saddle point, the
    minimiser of log f_p(r) - n log r (12 bisection steps on r f_p'/f_p = n in
    [0, log(n+p+2)]; the bounds below hold for any r), where the rule converges
    geometrically and is well conditioned.  e^{-i n theta_j} is conj(e^{i theta_k}), k = nj mod N, and
    n! r^-n times the mean is formed in logs.  f_p(z_j) is summed as its power
    series in w = e^{z_j} - 1 to M = _series_terms(W) terms, W = e^r - 1 >= |w|:
    the coefficients are positive, so sum_m |t_m| <= f_p(r), which exceeds the
    mean on this circle by only the saddle-point width factor.  (Dividing by
    w^p/p!, as the closed form does, underflows where |w| is small.)

    N starts at 2n + 64 and doubles, each pass evaluating only the new nodes,
    until the aliasing bound is below the rounding bound.  Each B_{k,p}/k! >= 0, so |f_p| <= f_p(R) on |z| = R and
    aliasing is at most n! f_p(R) R^-n q/(1-q), q = (r/R)^N, at R = 1.25 r.

    Rounding, u = 2^-53, taking real operations correct to u, exp, log, cos
    and sin to 2u, lgamma to 8u and complex products and quotients to 5u:
    - nodes: the angle is within 6 pi u, e^{i theta_j} within 22u, z_j within
      23 r u and e^{z_j} - 1 within (23 r + 6) u e^r, which moves f_p(z_j)
      by at most (23 r + 6) u f_p'(r), as |f_p'| <= f_p'(r) on the circle;
    - evaluation: t_m is within 10 m u, the sum adds M u and the dropped rest,
      at most that at W, is below u f_p(r); with the phase (22u) and the real
      part of the product (3u), and sum_m |t_m| <= f_p(r), each summand is
      within (11 M + 26) u f_p(r);
    - accumulation: fsum and the division by N add u each; the exponent
      lgamma(n+1) - n log r + log|mean| is within 15 u Lambda, Lambda the sum
      of its three magnitudes; exp, the target's rounding and the difference
      add 4u, in all (16 Lambda + 8) u |estimate|.
    The check passes within max(tol, rounding + aliasing), tol finite and >= 0.
    A target past the float range (p = 1: n >= 220) raises ValueError before any
    quadrature, and so does a non-finite sum or a need for more than 2^16 nodes.
    """
    import numpy as np
    if n < 1 or p < 1 or not 0 <= tol < math.inf:
        raise ValueError(f"need n >= 1, p >= 1 and a finite tol >= 0; got n={n}, p={p}, tol={tol}")
    target = pbell_number(n, p)
    try:
        target_float = float(target)
    except OverflowError:
        msg = f"B_{{{n},{p}}} is past the float range (1.8e308); for p = 1 the limit is n <= 219"
        raise ValueError(msg) from None
    lo, hi = 0.0, math.log(n + p + 2)
    for _ in range(12):
        r = 0.5 * (lo + hi)
        log_fr, slope = _log_f_real(r, p)
        lo, hi = (r, hi) if slope < n else (lo, r)
    log_aliasing = math.lgamma(n + 1) + _log_f_real(1.25 * r, p)[0] - n * math.log(1.25 * r)
    log_prefactor = math.lgamma(n + 1) - n * math.log(r)
    terms = _series_terms(math.expm1(r))
    per_unit = (23 * r + 6) * slope / r + 11 * terms + 26  # in u n! r^-n f_p(r)
    evaluation_error = math.exp(log_prefactor + log_fr + math.log(per_unit * _U))
    nodes, new, summands = 2 * n + 64, slice(None), np.empty(0)
    while True:
        k = np.arange(nodes)
        omega = np.exp(2j * math.pi / nodes * k)
        value = _f_on_circle(r * omega[new], p, terms)
        summands = np.concatenate((summands, (value * np.conj(omega[n * k[new] % nodes])).real))
        mean = math.fsum(summands) / nodes
        log_mean = math.log(abs(mean))
        estimate = math.copysign(math.exp(log_prefactor + log_mean), mean)
        lam = math.lgamma(n + 1) + abs(n * math.log(r)) + abs(log_mean)
        rounding = evaluation_error + abs(estimate) * ((16 * lam + 8) * _U)
        if not math.isfinite(estimate + rounding) or nodes > 1 << 16:
            raise ValueError(f"the quadrature for B_{{{n},{p}}} broke down at {nodes} nodes")
        log_q = nodes * math.log(0.8)
        log_alias = log_aliasing + log_q - math.log1p(-math.exp(log_q))
        if log_alias <= math.log(rounding):
            break
        nodes, new = 2 * nodes, slice(1, None, 2)
    error, tolerance = abs(estimate - target_float), max(tol, rounding + math.exp(log_alias))
    return NumericCheck(estimate, target, error, tolerance, nodes, {"radius": r})


def beta_poisson_batch(p: int, count: int, rng: RngStream) -> np.ndarray:
    """Histogram of ``count`` beta-Poisson draws: ``counts[k]`` draws have
    Z = k.  The first ``count`` of 2 ``count`` uniforms feed the Beta(1,p)
    inverse CDF, the rest drive Poisson inversion.  Each round keeps only the
    draws whose cdf is still at most their uniform, so the draws kept after
    round k are those with Z >= k; a stopped draw never restarts, so the kept
    ones see the same float ops as when every draw is updated each round.
    Blocks of ``_BLOCK`` draws take their uniforms by stream position."""
    import numpy as np
    if p < 1 or count < 0:
        raise ValueError(f"need p >= 1 and count >= 0, got p={p}, count={count}")
    pos, rng._pos = rng._pos, rng._pos + 2 * count
    at_least = np.zeros(202, dtype=np.int64)  # at_least[k]: draws with Z >= k (k <= 200)
    for u_lam, u_z in zip(_uniforms(rng.seed, pos, count), _uniforms(rng.seed, pos + count, count)):
        lam = np.subtract(1.0, u_lam ** (1.0 / p), out=u_lam)
        pmf = cdf = np.exp(-lam)
        k = 0
        while u_z.size:
            if k > 200:
                raise RuntimeError("Poisson inversion runaway; lambda should be <= 1")
            at_least[k] += u_z.size
            keep = np.flatnonzero(u_z >= cdf)
            lam, pmf, cdf, u_z = lam[keep], pmf[keep], cdf[keep], u_z[keep]
            k += 1
            pmf *= lam / k
            cdf += pmf
    tails = at_least[: np.count_nonzero(at_least) + 1]
    return tails[:-1] - tails[1:]


def _chunked_histogram(p: int, samples: int, rng: RngStream) -> list[int]:
    """Histogram of ``samples`` draws, chunk ``j`` drawn from ``rng.split(j)``."""
    counts: list[int] = []
    for j, done in enumerate(range(0, samples, _CHUNK)):
        chunk = beta_poisson_batch(p, min(_CHUNK, samples - done), rng.split(j)).tolist()
        counts = [a + b for a, b in zip_longest(counts, chunk, fillvalue=0)]
    return counts


def mc_moment_check(
    n: int, p: int, x: RationalLike | float, samples: int, rng: RngStream
) -> NumericCheck:
    """Monte Carlo check of B_{n,p}(x) = E[(x + Z)^n] for beta-Poisson Z.

    The sample mean and variance are exact rationals over the histogram of Z,
    each rounded once.  The tolerance reported is the 4-sigma confidence
    half-width 4 * std / sqrt(samples).
    """
    if n < 0 or p < 1 or samples < 1:
        raise ValueError(f"need n >= 0, p >= 1, samples >= 1; got {n}, {p}, {samples}")
    x_exact = Fraction(x) if isinstance(x, float) else rational(x)
    counts = _chunked_histogram(p, samples, rng)
    values = [(x_exact + k) ** n for k in range(len(counts))]
    mean = sum(c * v for c, v in zip(counts, values)) / samples
    variance = sum(c * (v - mean) ** 2 for c, v in zip(counts, values)) / max(samples - 1, 1)
    tolerance = 4.0 * math.sqrt(variance) / math.sqrt(samples)
    target, estimate = poly_eval(pbell_poly(n, p), x_exact), float(mean)
    return NumericCheck(estimate, target, abs(estimate - float(target)), tolerance, samples)


def mgf_check(p: int, t: float, samples: int, rng: RngStream) -> NumericCheck:
    """Monte Carlo check of E[e^{tZ}] against the closed form f_p(t) =
    1F1(1; p+1; e^t - 1).  A closed form past the float range (p = 1:
    t > 6.5755) raises ValueError before any sampling, and so does a request
    whose exact 4-sigma band is at least f_p(t): f_p(2t)/f_p(t)^2 >= 1 + N/16,
    tested in logs (for t > 0, log f_p(2t) from the positive series).

    The one-parameter-shifted variant 1F1(p; p+1; e^t - 1) is recorded
    alongside (keys ``shifted_form`` / ``shifted_form_abs_error``); it
    coincides with f_p(t) only at p = 1.
    """
    if p < 1 or samples < 1 or not math.isfinite(t):
        raise ValueError(f"need p >= 1, samples >= 1 and a finite t; got {p}, {samples}, {t}")
    w = math.expm1(min(t, 709.0))  # both forms are inf well before e^t - 1 overflows
    target, shifted = hyp1f1(1.0, p + 1.0, w), hyp1f1(float(p), p + 1.0, w)
    if not math.isfinite(target + shifted):
        msg = f"f_{p}({t}) or its shifted form is past the float range (1.8e308); "
        raise ValueError(msg + "for p = 1 the limit is t <= 6.5755")
    if t > 0:
        log_f2 = _log_f_real(2 * t, p)[0]
    else:
        log_f2 = math.log(hyp1f1(1.0, p + 1.0, math.expm1(2 * t)))
    excess = log_f2 - 2 * math.log(target)  # log(1 + Var/mean^2)
    if excess >= math.log1p(samples / 16):
        need = 16 * math.expm1(excess) if excess < 700 else math.inf
        msg = f"the 4-sigma band of f_{p}({t}) is at least the target; it needs more than "
        raise ValueError(msg + f"{need:.3g} samples")
    counts = _chunked_histogram(p, samples, rng)
    values = [math.exp(t * k) for k in range(len(counts))]
    mean = math.fsum(c * v for c, v in zip(counts, values)) / samples
    variance = math.fsum(c * (v - mean) ** 2 for c, v in zip(counts, values)) / max(samples - 1, 1)
    tolerance = 4.0 * math.sqrt(variance) / math.sqrt(samples)
    extra = {"shifted_form": shifted, "shifted_form_abs_error": abs(mean - shifted)}
    return NumericCheck(mean, target, abs(mean - target), tolerance, samples, extra)


def pmf_check(p: int, k: int, samples: int, rng: RngStream) -> NumericCheck:
    """Monte Carlo check of P(Z = k) against the closed form

        P(Z = k) = p!/(p+k)! 1F1(k+1; p+k+1; -1)
                 = p!/(e (p+k)!) 1F1(p; p+k+1; 1),

    i.e. the beta-mixture integral p int_0^1 (1-t)^{p-1} t^k e^{-t}/k! dt done
    exactly.  The tolerance is the 3-sigma binomial half-width at the exact
    target pi; where it is at least pi (N <= 9 (1-pi)/pi) it raises ValueError
    before any sampling.  A variant without the beta normalization,
    p/(e k! (p+k)) 1F1(1; p+k+1; 1), is recorded alongside (keys
    ``unnormalized_form`` / ..._abs_error); it coincides with the true pmf
    only at p = 1.
    """
    if p < 1 or k < 0 or samples < 1:
        raise ValueError(f"need p >= 1, k >= 0, samples >= 1; got {p}, {k}, {samples}")
    target = factorial(p) / factorial(p + k) * hyp1f1(k + 1.0, p + k + 1.0, -1.0)
    if samples * target <= 9 * (1 - target):
        need = 9 * (1 - target) / target if target else math.inf
        msg = f"the 3-sigma band of P(Z = {k}) = {target:.3g} is at least the target; it needs "
        raise ValueError(msg + f"more than {need:.3g} samples")
    counts = _chunked_histogram(p, samples, rng)
    empirical = counts[k] / samples if k < len(counts) else 0.0
    unnormalized = p / (math.e * factorial(k) * (p + k)) * hyp1f1(1.0, p + k + 1.0, 1.0)
    extra = {
        "unnormalized_form": unnormalized,
        "unnormalized_form_abs_error": abs(empirical - unnormalized),
    }
    tolerance = 3.0 * math.sqrt(target * (1.0 - target) / samples)
    return NumericCheck(empirical, target, abs(empirical - target), tolerance, samples, extra)
