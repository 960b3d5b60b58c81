#!/usr/bin/env python3
"""orbstab benchmark: three closed-loop workloads, end-to-end and per-layer.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py``): ``verify-sweep``, ``oracle-asym``, ``arith``.
Each is driven from this one process in a closed loop: one call at a time,
the next only after the previous returns.  Inputs are made from ``--seed``
before timing starts, as one round; the round repeats until ``--seconds``
is used up (a further round starts only while at least half a round's time
is left).

``--trace 0`` reports the end-to-end metrics with tracing off:

    setup_s      median of 10 fresh interpreters importing orbstab and
                 filling its lazy polyhedral caches (setup_probe.py),
                 half before the timed rounds and half after
    items_per_s  checked items per second of timed wall time
    item_p50_ms, item_p90_ms
                 latency per item (at least 100 items per run)
    peak_rss_mb  ru_maxrss of this process

plus ``fail_frac`` (failed or wrong items / items attempted), which the
result line carries as ``failed`` / ``attempted``.

``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics per traced round (``tracer.py``), with ``trace.overhead_frac`` =
traced / untraced round time - 1.  Counts must repeat exactly in every
traced round, and must equal the call counts the workload knows
independently; otherwise the run is not correct.

Every line before the last names the run environment or one metric with
its unit.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``compare.py`` compares two
saved outputs; ``selftest.py`` is a quick check of this benchmark.
"""

import os

# pin the BLAS/OpenMP pools before numpy is imported, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from setup_probe import MissingSource, set_up
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 10

#: metric names, units and bounds; the result must carry exactly these
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a very small round and two set-up samples "
                        "(used by selftest.py)")
    return p.parse_args(argv)


def time_set_up(src: Path, samples: int) -> list[float]:
    """Seconds of ``samples`` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def environment(args, orbstab) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    kernels = importlib.import_module("orbstab.kernels")
    return {
        "backend": kernels.active_backend(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "orbstab": orbstab.__version__,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
    }


def repeat_rounds(seconds: float, one_round) -> int:
    """Call ``one_round()`` until the time is used up; return the count."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if seconds - elapsed < 0.5 * elapsed / rounds:
            return rounds


def end_to_end(rnd, seconds: float):
    records = []
    start = time.perf_counter()
    rounds = repeat_rounds(seconds, lambda: records.extend(rnd.run()))
    wall = time.perf_counter() - start
    print(f"rounds {rounds} of {len(records) // rounds} items in {wall:.2f} s")
    latencies = [lat for lat, _ in records]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "items_per_s": len(records) / wall,
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_p90_ms": 1e3 * deciles[8],
    }
    return records, metrics


def traced(rnd, seconds: float):
    records = []
    untraced_s = traced_s = 0.0
    tracers = []

    def pair():
        nonlocal untraced_s, traced_s
        start = time.perf_counter()
        records.extend(rnd.run())
        untraced_s += time.perf_counter() - start
        with Tracer() as tr:
            start = time.perf_counter()
            records.extend(rnd.run())
            traced_s += time.perf_counter() - start
        tracers.append(tr)

    rounds = repeat_rounds(seconds, pair)
    print(f"round pairs {rounds}: untraced {untraced_s:.2f} s, "
          f"traced {traced_s:.2f} s")
    problems = []
    first = tracers[0].snapshot()
    for i, tr in enumerate(tracers[1:], start=2):
        if tr.snapshot() != first:
            problems.append(f"traced round {i} counts differ from round 1")
    for tr in tracers:
        problems.extend(rnd.span_checks(tr))

    k = len(tracers)
    seconds_of = lambda name: sum(tr.stats[name].seconds for tr in tracers) / k
    self_of = lambda name: sum(tr.stats[name].self_seconds for tr in tracers) / k
    tr = tracers[0]  # counts are identical in every traced round
    triples = tr.counters["kernels.scan.triples"]
    metrics = {
        "kernels.scan.calls": tr.calls("kernels.scan"),
        "kernels.scan.s": seconds_of("kernels.scan"),
        "kernels.scan.triples": triples,
        "kernels.scan.survivors": tr.counters["kernels.scan.survivors"],
        "kernels.scan.keep_ratio":
            tr.counters["kernels.scan.survivors"] / triples if triples else 0.0,
        "kernels.scan.match_bytes": tr.counters["kernels.scan.match_bytes"],
        "oracle.stabilizer.calls": tr.calls("oracle.stabilizer"),
        "oracle.stabilizer.s": seconds_of("oracle.stabilizer"),
        "oracle.stabilizer.self_s": self_of("oracle.stabilizer"),
        "oracle.identify_group.s": seconds_of("oracle.identify_group"),
        "oracle.projective_order.calls": tr.calls("oracle.projective_order"),
        "oracle.group_order.sum": tr.counters["oracle.group_order.sum"],
        "geometry.mobius_through_triple.calls":
            tr.calls("geometry.mobius_through_triple"),
        "geometry.mobius_through_triple.s":
            seconds_of("geometry.mobius_through_triple"),
        "geometry.maps_equal.calls": tr.calls("geometry.maps_equal"),
        "geometry.maps_equal.s": seconds_of("geometry.maps_equal"),
        "witness.witness.calls": tr.calls("witness.witness"),
        "witness.witness.self_s": self_of("witness.witness"),
        "witness.oracle_calls":
            tr.calls_from("oracle.stabilizer", "witness.witness"),
        "cli.verify.calls": tr.calls("cli.verify"),
        "cli.verify.self_s": self_of("cli.verify"),
        "classifier.classify.calls": tr.calls("classifier.classify"),
        "classifier.classify.s": seconds_of("classifier.classify"),
        "classifier.cardinality_set.s": seconds_of("classifier.cardinality_set"),
        "classifier.entries": tr.counters["classifier.entries"],
        "moduli.g_sigma.calls": tr.calls("moduli.g_sigma"),
        "moduli.g_sigma_definitional.s": seconds_of("moduli.g_sigma_definitional"),
        "moduli.g_sigma_closed.s": seconds_of("moduli.g_sigma_closed"),
        "moduli.stabilizer_G_lambda.s": seconds_of("moduli.stabilizer_G_lambda"),
        "moduli.phi_check.s": seconds_of("moduli.phi_check"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    return records, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    try:
        orbstab = set_up(src)
    except MissingSource as exc:
        print(f"error: {exc}; run from the root of an orbstab checkout",
              file=sys.stderr)
        return 2

    env = environment(args, orbstab)
    print("env " + json.dumps(env, sort_keys=True))

    rnd = workloads.build(args.workload, args.seed, args.tiny, root)
    rnd.warm()
    problems = []
    if args.trace:
        records, metrics, problems = traced(rnd, args.seconds)
    else:
        # half the set-up samples before the timed rounds and half after,
        # so that they meet two states of a machine whose speed drifts
        samples = 2 if args.tiny else SETUP_SAMPLES
        setup_times = time_set_up(src, samples // 2)
        records, metrics = end_to_end(rnd, args.seconds)
        setup_times += time_set_up(src, samples - samples // 2)
        metrics["setup_s"] = statistics.median(setup_times)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = peak_kb / 1024.0
    attempted = len(records)
    failed = sum(1 for _, ok in records if not ok)

    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    print(f"metric fail_frac {failed / attempted} fraction "
          f"({failed} of {attempted} items)")
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
