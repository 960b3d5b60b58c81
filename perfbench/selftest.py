#!/usr/bin/env python3
"""Quick self-test of the benchmark (under a minute).

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload, a tiny run must print every end-to-end metric
(``--trace 0``) and every per-layer metric (``--trace 1``) that
``BENCHMARK.json`` names, with no failed item and with span counts that
match the known call counts; two traced runs with the same seed must give
identical counts.  Each correctness gate must reject a deliberately wrong
expectation, the span checks must reject a trace that saw no calls, and
the benchmark must refuse to run in a directory that holds only itself.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE.relative_to(HERE.parent) / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def check_runs(spec: dict, problems: list) -> None:
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            counts = []
            for _ in range(2 if trace else 1):
                out = run(w["name"], trace)
                tag = f"{w['name']} --trace {trace}"
                if out.returncode != 0:
                    problems.append(f"{tag}: exit {out.returncode}: "
                                    f"{out.stderr[-400:]}")
                    break
                result = json.loads(out.stdout.splitlines()[-1])
                if sorted(result["metrics"]) != sorted(names[trace]):
                    problems.append(f"{tag}: metrics {sorted(result['metrics'])}")
                if (not result["correct"] or result["failed"]
                        or result["attempted"] < 1):
                    problems.append(f"{tag}: not correct: {out.stderr[-400:]}")
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] in ("count", "B-computed")})
            if len(counts) == 2 and counts[0] != counts[1]:
                problems.append(f"{w['name']}: counts differ between two "
                                f"runs with the same seed")
            print(f"selftest: {w['name']} --trace {trace} done", flush=True)


def check_gates(problems: list) -> None:
    print("selftest: feeding the gates wrong expectations; the item "
          "failures reported below are expected", flush=True)
    sys.path.insert(0, str(HERE))
    from setup_probe import set_up
    import workloads as wl
    orbstab = set_up(ROOT / "src")

    call = wl.build("verify-sweep", 0, True, ROOT).units[0]
    if not all(ok for _, ok in call()):
        problems.append("verify gate rejects a correct call")
    # one wrong expected entry: the second entry's line in place of the first
    wrong = wl.VerifyCall(call.lo, call.hi, call.expected[1:2] + call.expected[1:])
    if all(ok for _, ok in wrong()):
        problems.append("verify gate accepts a wrong expected entry")

    icosahedron = orbstab.polyhedral_orbit(orbstab.classifier.A5, "V12")
    item = wl.Item("icosahedron", lambda: orbstab.stabilizer(icosahedron),
                   wl.asym_check(icosahedron))
    if item()[0][1]:
        problems.append("oracle-asym gate accepts a symmetric set")

    golden = (ROOT / "tests" / "data" / "golden_2018.txt").read_bytes()
    entries = orbstab.classify(2018)
    if not wl.golden_check(golden)(entries):
        problems.append("golden gate rejects classify(2018)")
    if wl.golden_check(golden.replace(b"D_2018", b"D_2017", 1))(entries):
        problems.append("golden gate accepts a wrong listing")
    from tracer import Tracer
    for name in wl.NAMES:
        if not wl.build(name, 0, True, ROOT).span_checks(Tracer()):
            problems.append(f"{name}: span checks accept an empty trace")
    print("selftest: gates done", flush=True)


def check_bare_directory(problems: list) -> None:
    prefix = ".perfbench-selftest-"
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=prefix) as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run("arith", 0, cwd=bare)
        if out.returncode == 0 or out.stdout.strip():
            problems.append("the benchmark ran without the orbstab sources")
    print("selftest: bare directory done", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_gates(problems)
    check_bare_directory(problems)
    check_runs(spec, problems)
    for p in problems:
        print(f"selftest FAILED: {p}")
    print("selftest: OK" if not problems else "selftest: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
