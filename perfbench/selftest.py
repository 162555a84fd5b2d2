"""Self-test of the benchmark: determinism and agreement with BENCHMARK.json.

    python3 perfbench/selftest.py

Checks that
* the same seed gives the same request list, and another seed changes only
  the ``queries`` stream;
* two traced runs with the same seed report identical counts
  (``COUNTS``), and a traced run with another seed reports the same counts on
  ``tables`` and ``verify``;
* the metrics each mode prints are exactly those BENCHMARK.json declares, with
  the same units.

Each run does one repetition, so the whole test takes a few minutes.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

COUNTS = (
    "exact_core.egf_mul.calls",
    "special_numbers.cache.cells",
    "pbell.column.cells",
    "cli.output_peak_bits",
)
SEED_A, SEED_B = 1, 2


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    expect(
        sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
        "BENCHMARK.json lists the workloads run.py knows",
    )
    for w in workloads.WORKLOADS:
        same = workloads.requests(w, SEED_A) == workloads.requests(w, SEED_A)
        expect(same, f"{w}: same seed, same requests")
        changed = workloads.requests(w, SEED_A) != workloads.requests(w, SEED_B)
        seeded = w == "queries"
        expect(changed == seeded, f"{w}: requests {'' if seeded else 'do not '}depend on the seed")

    for w in workloads.WORKLOADS:
        first, again, other = (run(w, s, 1) for s in (SEED_A, SEED_A, SEED_B))
        for name in COUNTS:
            a, b, c = (r["metrics"][name]["value"] for r in (first, again, other))
            expect(a == b, f"{w}: {name} repeats with the same seed ({a}, {b})")
            if w != "queries":
                expect(a == c, f"{w}: {name} does not depend on the seed ({a}, {c})")
        units = {k: m["unit"] for k, m in first["metrics"].items()}
        expect(units == declared[1], f"{w}: --trace 1 prints the per_layer metrics of BENCHMARK.json")
        plain = run(w, SEED_A, 0)
        units = {k: m["unit"] for k, m in plain["metrics"].items()}
        expect(units == declared[0], f"{w}: --trace 0 prints the end_to_end metrics of BENCHMARK.json")
        expect(all(r["correct"] for r in (first, again, other, plain)), f"{w}: outputs correct")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
