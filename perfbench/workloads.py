"""Workload inputs, the closed-loop client and the correctness oracles.

Every request is an argv list for ``polybell.cli.main``, run in-process by one
client that sends the next request only after the last one returned.
``tables`` and ``verify`` are fixed jobs; only the ``queries`` stream depends
on the seed.  The oracles run after the timed region, on a cold cache, and
re-derive each checked answer by a route other than the one the command used.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from time import perf_counter

WORKLOADS = ("tables", "verify", "queries")

# The ROADMAP anchors are 300x12, 300x12 and 150 at p=3; these sizes keep the
# same three sweeps but let one run hold four cold repetitions.
TABLES = (("pbell-numbers", 200, 12), ("polybell-neg", 200, 12), ("pbell-poly-coeffs", 100, 3))
VERIFY = (30, 10, 30)  # nmax, pmax, order: the ROADMAP anchor

# Requests per queries repetition, by kind.  200 leaves 10 samples above
# p95.  Fewer than 10 cesaro requests fall in its slow non-settling range
# (n >= 12), so p95 falls among the large values, not on the edge of that
# cluster.
QUERY_MIX = {
    "pbell": 60,
    "polybell": 60,
    "cross-check": 30,
    "dobinski": 18,
    "cesaro": 12,
    "mc": 20,
}

MC_SAMPLES = 200_000

# Failures the program is known to make at this commit.  They stay in the
# mix and count in ``failed``; only a failure outside them, or one that does
# not fit its signature, makes a run incorrect.
KNOWN_DEFECTS = {
    "dobinski-absolute-tolerance": "numeric dobinski fails with relative error <= 1e-12: it "
    "passes only if |error| <= 1e-9, so it fails at float rounding once B_{n,p} > ~1e7 "
    "(n >= ~14)",
    "cesaro-does-not-settle": "numeric cesaro exits 2 'did not settle by 4096 panels' at "
    "n >= 12 (always for n >= 14): float cancellation against the n! p! prefactor",
    "mc-heavy-tail": "numeric mc at n >= 6 fails with an estimate in [0, target): its "
    "4-sigma band comes from the sample std, which the heavy right tail of (x+Z)^n "
    "underestimates, so a sample that missed the tail undershoots outside the band",
}
# Where the failures above begin.  cesaro is deterministic: over n 1..30 and
# p 1..6 it settles for every n <= 11 and fails first at (12, 5).  mc is
# seeded: over 1800 seeds for each n of 3..8 (300 per p, x 0, 1, 1/2 in turn)
# it failed 0, 0, 0, 2, 14 and 19 times, every failure below the target.
CESARO_UNSETTLED_N = 12
MC_HEAVY_TAIL_N = 6


@dataclass(frozen=True)
class Result:
    argv: tuple[str, ...]
    code: int | None  # None when main raised
    out: str
    err: str
    seconds: float


def requests(workload: str, seed: int) -> list[list[str]]:
    if workload == "tables":
        return [
            ["table", "--kind", kind, "--nmax", str(n), "--pmax", str(p)] for kind, n, p in TABLES
        ]
    if workload == "verify":
        n, p, order = VERIFY
        return [["verify", "--nmax", str(n), "--pmax", str(p), "--order", str(order)]]
    if workload == "queries":
        return query_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


def query_stream(seed: int) -> list[list[str]]:
    """The seeded request list.

    Within each kind, the i-th request takes n from the i-th of equal strata
    of the n range and p from a fixed stride through the p range, so every
    seed sends the same mix of (n stratum, p).  The seed picks n within each
    stratum, the ``mc`` seeds and the order of the requests.
    """
    rng = random.Random(seed)

    def design(name: str, n_lo: int, n_hi: int, p_lo: int, p_hi: int, stride: int):
        count, width = QUERY_MIX[name], p_hi - p_lo + 1
        for i in range(count):
            n = n_lo + int((i + rng.random()) * (n_hi - n_lo + 1) / count)
            yield i, n, p_lo + i * stride % width

    def value(kind: str, n: int, p: int) -> list[str]:
        return ["value", "--kind", kind, "--n", str(n), "--p", str(p)]

    out = [value("pbell", n, p) for _, n, p in design("pbell", 0, 200, 0, 12, 5)]
    out += [value("polybell", n, p) for _, n, p in design("polybell", 0, 200, -12, 12, 7)]
    for i, n, p in design("cross-check", 0, 40, 0, 8, 2):
        out.append(value(("pbell", "polybell")[i % 2], n, p) + ["--cross-check"])
    for check, n_lo in (("dobinski", 0), ("cesaro", 1)):
        for _, n, p in design(check, n_lo, 30, 1, 6, 5):
            out.append(["numeric", check, "--n", str(n), "--p", str(p)])
    for i, n, p in design("mc", 0, 30, 1, 6, 5):
        mc = ["numeric", "mc", "--n", str(n), "--p", str(p), "--x", ("0", "1", "1/2")[i % 3]]
        out.append(mc + ["--samples", str(MC_SAMPLES), "--seed", str(rng.randrange(1 << 31))])
    rng.shuffle(out)
    return out


def run_rep(cli, argvs: list[list[str]], between=None) -> list[Result]:
    """One repetition: every request in order, calling ``between()`` (if
    given) before each, outside the request's timing."""
    results = []
    for argv in argvs:
        if between is not None:
            between()
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                code = None
                print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = perf_counter() - t0
        results.append(Result(tuple(argv), code, out.getvalue(), err.getvalue(), seconds))
    return results


# ---------------------------------------------------------------------------
# oracles


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    known: dict = field(default_factory=dict)  # defect name -> count
    unexpected: list = field(default_factory=list)  # failures outside KNOWN_DEFECTS

    def fail(self, defect: str | None, detail: str) -> None:
        self.failed += 1
        if defect is None:
            self.unexpected.append(detail)
        else:
            self.known[defect] = self.known.get(defect, 0) + 1


class Oracle:
    """Checks the results of one repetition against second routes."""

    def __init__(self, polybell, seed: int):
        self.pb = polybell
        self.rng_seed = seed

    def check(self, results: list[Result]) -> Verdicts:
        v = Verdicts()
        for r in results:
            if r.argv[0] == "verify":
                self._verify(r, v)
            else:
                self._check_one(r, v)
        return v

    def _check_one(self, r: Result, v: Verdicts) -> None:
        v.attempted += 1
        if r.code is None:
            v.fail(None, f"{' '.join(r.argv)}: raised {r.err.strip()}")
            return
        try:
            if r.argv[0] == "table":
                defect, detail = None, self._table(r)
            elif r.argv[0] == "value":
                defect, detail = None, self._value(r)
            else:
                defect, detail = self._numeric(r)
        except (ValueError, KeyError, IndexError) as exc:  # unparsable output is a wrong answer
            defect, detail = None, f"unreadable output: {exc}"
        if detail:
            v.fail(defect, f"{' '.join(r.argv)}: {detail}")

    def _table(self, r: Result) -> str:
        if r.code != 0:
            return f"exit {r.code}: {r.err.strip()}"
        args = dict(zip(r.argv[1::2], r.argv[2::2]))
        kind, n_max, p_max = args["--kind"], int(args["--nmax"]), int(args["--pmax"])
        lines = r.out.splitlines()
        header = lines[0].split(",")[1:]
        rows = [[Fraction(c) for c in line.split(",")[1:]] for line in lines[1:]]
        if len(rows) != n_max + 1 or any(len(row) != len(header) for row in rows):
            return f"table shape {len(rows)}x{len(header)}"
        rng = random.Random(f"{self.rng_seed}:{kind}")
        pb = self.pb
        if kind == "pbell-poly-coeffs":
            # A row is B_{n,p}(x); compare its value at a seeded x with the
            # weighted-Stirling route.
            for n in sorted({n_max, *rng.sample(range(n_max), 3)}):
                x = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                got = sum(c * x**k for k, c in enumerate(rows[n]))
                want = pb.pbell_poly_weighted(n, p_max, x)
                if got != want:
                    return f"row n={n} at x={x}: {got} != {want}"
            return ""
        cells = {(n_max, col) for col in range(len(header))}
        cells |= {(rng.randrange(n_max + 1), rng.randrange(len(header))) for _ in range(40)}
        for n, col in sorted(cells):
            p = int(header[col])
            if kind == "pbell-numbers":
                want = pb.pbell_explicit(n, p)
            else:
                want = pb.polybell_neg_derivative(n, -p)
            if rows[n][col] != want:
                return f"cell n={n} p={p}: {rows[n][col]} != {want}"
        return ""

    def _value(self, r: Result) -> str:
        if r.code != 0:
            return f"exit {r.code}: {r.err.strip()}"
        args = dict(zip(r.argv[1::2], r.argv[2::2]))
        kind, n, p = args["--kind"], int(args["--n"]), int(args["--p"])
        got = Fraction(r.out.split()[0])
        pb = self.pb
        if p < 0:
            want = pb.polybell_neg_derivative(n, -p)
        elif "--cross-check" in r.argv:
            # The command already ran all four backends; this is a fifth route.
            want = pb.iterated_integral_pbell(n, p)
        else:
            want = pb.pbell_explicit(n, p)
        if kind == "polybell" and p >= 0:
            want /= factorial(p)
        return "" if got == want else f"{got} != {want}"

    def _numeric(self, r: Result) -> tuple[str | None, str]:
        """The check's own verdict, and which known defect explains a failure."""
        check = r.argv[1]
        n = int(r.argv[r.argv.index("--n") + 1])
        if r.code == 2 and check == "cesaro" and n >= CESARO_UNSETTLED_N and "did not settle" in r.err:
            return "cesaro-does-not-settle", r.err.strip()
        if r.code not in (0, 1):
            return None, f"exit {r.code}: {r.err.strip()}"
        report = json.loads(r.out)
        if report["passed"] and r.code == 0:
            return None, ""
        if r.code != 1 or report["passed"]:
            return None, f"exit {r.code} disagrees with passed={report['passed']}"
        detail = f"abs_error {report['abs_error']:.3g} > tolerance {report['tolerance']:.3g}"
        target = float(Fraction(report["target"]))
        if check == "dobinski" and report["abs_error"] <= 1e-12 * abs(target):
            return "dobinski-absolute-tolerance", detail
        if check == "mc" and n >= MC_HEAVY_TAIL_N and 0 <= report["estimate"] < target:
            return "mc-heavy-tail", detail
        return None, detail

    def _verify(self, r: Result, v: Verdicts) -> None:
        """Each identity check is one operation; a non-pass report fails."""
        lines = r.out.splitlines()
        reports = [line for line in lines if re.match(r"\[[A-Z]+\] ", line)]
        v.attempted += max(1, len(reports))
        summary = re.fullmatch(r"(\d+)/(\d+) identity checks passed", lines[-1]) if lines else None
        if r.code is None or summary is None or int(summary[2]) != len(reports):
            v.fail(None, f"verify: exit {r.code}, unreadable output: {r.err.strip()[:200]}")
            return
        failed_before = v.failed
        for line in reports:
            if not line.startswith("[PASS] "):
                v.fail(None, line[:200])
        missing = set(self.pb.IDENTITY_IDS) - {line.split()[1] for line in reports}
        if missing or (r.code != 0) != (v.failed > failed_before):
            v.fail(None, f"verify: exit {r.code}, ids never checked: {sorted(missing)}")


def peak_bits(results: list[Result]) -> int:
    """Bit length of the largest integer any command printed."""
    return max((int(d).bit_length() for r in results for d in re.findall(r"\d+", r.out)), default=0)
