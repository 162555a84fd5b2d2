"""Benchmark of polybell: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload tables|verify|queries --seed N \
        --seconds S --trace 0|1

It imports polybell from ``src/`` of the checkout it sits in.  With
``--trace 0`` it repeats the workload's job on a cold cache as often as fits
in ``--seconds``, measures set-up in separate processes, and prints the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
repetitions and prints the per-layer metrics; no end-to-end number comes from
a traced repetition.  Outputs are checked after the timed region.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 20

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_polybell():
    """Import polybell from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "polybell" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polybell sources at {SRC / 'polybell'}")
    sys.path.insert(0, str(SRC))
    import polybell
    from polybell import cli

    if Path(polybell.__file__).resolve().parent != SRC / "polybell":
        raise SystemExit(f"perfbench: imported polybell from {polybell.__file__}, not {SRC}")
    return polybell, cli


def environment(polybell) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit or None,
        "POLYBELL_THREADS": os.environ.get("POLYBELL_THREADS"),
        "program_threads": polybell.thread_count(),
        "platform": platform.platform(),
    }


def measure_setup(args) -> float:
    """Seconds of set-up in a fresh process: the polybell import and the
    input generation that come before the first timed operation.  The
    interpreter's own start-up is left out; it is not polybell's, and on a
    shared host it drifts with file-system load more than the rest does."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or not proc.stdout.startswith("setup_s "):
        raise SystemExit(f"perfbench: set-up probe failed with exit {proc.returncode}")
    return float(proc.stdout.split()[1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


@dataclass
class Rep:
    """What is kept of a repetition: each request's seconds and a digest of
    what it printed, so the memory held does not grow with the repetitions."""

    seconds: list[float]
    digests: list[bytes]

    @classmethod
    def of(cls, results) -> Rep:
        digests = [hashlib.blake2b(f"{r.code}\0{r.out}".encode()).digest() for r in results]
        return cls([r.seconds for r in results], digests)

    @property
    def wall(self) -> float:
        """Time spent in the requests, without set-up probes between them."""
        return math.fsum(self.seconds)


def request_latencies(reps: list[Rep]) -> list[float]:
    """Each request's latency: the median of its repetitions.

    Every repetition replays the same requests on a cold cache, so a request
    does the same work each time.  On a shared host, other load slows a
    sample for stretches of seconds to minutes.  The fastest sample depends
    on whether a run happened to catch one of the rare quiet spells; the
    median follows the state the machine is in most of the run, and varies
    less from run to run.
    """
    return [statistics.median(col) for col in zip(*(rep.seconds for rep in reps))]


def one_rep(polybell, cli, argvs, tracer=None, between=None):
    polybell.reset_cache()
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        return workloads.run_rep(cli, argvs, between)
    finally:
        if tracer is not None:
            tracer.uninstall()


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("POLYBELL_THREADS", None)  # run the program as users run it
    if args.probe:
        start = perf_counter()
        import_polybell()
        workloads.requests(args.workload, args.seed)
        print(f"setup_s {perf_counter() - start!r}")
        return 0

    polybell, cli = import_polybell()
    argvs = workloads.requests(args.workload, args.seed)
    env = environment(polybell)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        from tracer import Tracer

    # Cold-cache repetitions.  Another one starts only if it should end
    # within --seconds, judged by the last one.  Untraced runs start set-up
    # probes between requests, one every --seconds / SETUP_PROBES, so the
    # probes sample the whole run; traced runs follow each untraced
    # repetition by a traced one.
    first, untraced, traced, layers, setup = None, [], [], [], []
    tracer = None
    start = perf_counter()

    def probe_when_due():
        due = perf_counter() - start
        while len(setup) < SETUP_PROBES and due >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(measure_setup(args))

    while not untraced or (
        perf_counter() - start + untraced[-1].wall + (traced[-1].wall if traced else 0)
        <= args.seconds
    ):
        results = one_rep(polybell, cli, argvs, between=None if args.trace else probe_when_due)
        untraced.append(Rep.of(results))
        if first is None:
            first = results
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer(polybell)
            results = one_rep(polybell, cli, argvs, tracer)
            traced.append(Rep.of(results))
            layer = tracer.metrics(polybell.IDENTITY_IDS)
            layer["cli.output_bytes"] = sum(len(r.out) for r in results)
            layer["cli.output_peak_bits"] = workloads.peak_bits(results)
            layers.append(layer)
        del results
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args))

    # The oracle checks the first repetition; every other one must print
    # exactly the same, request by request.
    polybell.reset_cache()
    verdicts = workloads.Oracle(polybell, args.seed).check(first)
    reference = untraced[0].digests
    for i, rep in enumerate(untraced[1:] + traced, 1):
        for argv, digest, want in zip(argvs, rep.digests, reference):
            if digest != want:
                verdicts.unexpected.append(
                    f"{' '.join(argv)}: repetition {i} printed other output than the first"
                )

    walls = [rep.wall for rep in untraced]
    print(
        f"workload {args.workload} seed {args.seed} requests/repetition {len(argvs)} "
        f"repetitions {len(untraced)} traced {len(traced)}"
    )
    print("repetition walls_s " + " ".join(f"{w:.4f}" for w in walls))
    if args.trace:
        metrics = layer_metrics(layers, untraced, traced, tracer, args)
    else:
        latencies = request_latencies(untraced)
        print("setup probes_s " + " ".join(f"{s:.4f}" for s in setup))
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": math.fsum(latencies),  # the job: every request once
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p95_ms": percentile(latencies, 95) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    error_rate = verdicts.failed / max(1, verdicts.attempted)
    print(f"error_rate {error_rate} ({verdicts.failed}/{verdicts.attempted} in one repetition)")
    for name, count in sorted(verdicts.known.items()):
        print(f"known defect {name}: {count} failed -- {workloads.KNOWN_DEFECTS[name]}")
    for line in verdicts.unexpected[:20]:
        print(f"UNEXPECTED {line}")
    print(
        json.dumps(
            {
                "correct": not verdicts.unexpected,
                "attempted": verdicts.attempted,
                "failed": verdicts.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def layer_metrics(layers, untraced, traced, last, args) -> dict:
    """Medians over the traced repetitions; the spans of the last one are
    written to ``.bench_out``."""
    import numpy as np

    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    values["trace.overhead_frac"] = (
        math.fsum(request_latencies(traced)) / math.fsum(request_latencies(untraced)) - 1
    )
    out = ROOT / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.npz"
    np.savez_compressed(path, names=np.array(last.names()), **last.spans())
    print(f"spans written to {path}")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last.endswith(("ratio", "frac")):
        return "ratio"
    if last == "output_bytes":
        return "bytes"
    if last == "output_peak_bits":
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
