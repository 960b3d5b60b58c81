#!/usr/bin/env python3
"""Compare two saved outputs of ``run.py``, metric by metric.

    python3 perfbench/run.py --workload arith --seed 1 --seconds 30 > base.txt
    python3 perfbench/run.py --workload arith --seed 1 --seconds 30 > new.txt
    python3 perfbench/compare.py base.txt new.txt

Refuses, with exit code 2, to compare two results whose environments
differ in kernel backend, workload or trace mode: a number from the numba
scan is never comparable to one from the numpy scan.  Otherwise prints
each metric's change and marks an end-to-end metric that got worse by
more than its bound in ``BENCHMARK.json``; exits 1 if any did.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MUST_MATCH = ("backend", "workload", "trace")


def load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, res_a), (env_b, res_b) = load(argv[0]), load(argv[1])
    for key in MUST_MATCH:
        if env_a.get(key) != env_b.get(key):
            print(f"refusing to compare: {key} differs "
                  f"({env_a.get(key)!r} vs {env_b.get(key)!r})", file=sys.stderr)
            return 2
    for key in sorted(set(env_a) | set(env_b)):
        if key not in ("seed",) and env_a.get(key) != env_b.get(key):
            print(f"note: {key} differs: {env_a.get(key)!r} vs {env_b.get(key)!r}")

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            print(f"{name:40s} missing from the second result")
            continue
        change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
        flag = ""
        if name in bounds:
            sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
            if sign * change > bounds[name]["bound"]:
                flag = "  WORSE than bound"
                worse += 1
        print(f"{name:40s} {a['value']:>14.6g} -> {b['value']:>14.6g} "
              f"{a['unit']:<10s} {100.0 * change:+7.1f}%{flag}")
    for res, label in ((res_a, "first"), (res_b, "second")):
        if not res["correct"]:
            print(f"{label} result is not correct "
                  f"({res['failed']} of {res['attempted']} items failed)")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
