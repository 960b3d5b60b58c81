"""Command-line front end.

Subcommands: ``classify`` prints the possible stabilizer groups for a
cardinality, ``witness`` builds a verified example set for one entry,
``verify`` round-trips every entry of a range through the witness
generator and the stabilizer oracle, and ``moduli`` runs the group-law
and isomorphism checks of the parameter-space action.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import classifier as cl
from .errors import (AmbiguousMatching, InvalidCardinality, OrbstabError,
                     UnrealizableIndex, WitnessSearchExhausted)
from .geometry import (DEFAULT_TOL, MobiusMap, PointSet, RiemannPoint,
                       parse_complex, point_to_str)
from .moduli import (_PRESETS, LambdaTuple, phi_check, preset_lambda,
                     random_lambda, verify_group_law)
from .oracle import stabilizer
from .witness import witness


def _tol(text: str) -> float:
    """``--tol``'s type: a float in (0, 1e-3], else argparse's usage error."""
    tol = float(text)
    if not 0.0 < tol <= 1e-3:  # nan too
        raise argparse.ArgumentTypeError(f"must be in (0, 1e-3], not {text}")
    return tol


def _count(text: str, least: int = 0) -> int:
    """``--seed``'s type: an integer >= least, else a usage error."""
    count = int(text)
    if count < least:
        raise argparse.ArgumentTypeError(
            f"must be a {('non-negative', 'positive')[least]} integer, "
            f"not {text}")
    return count


def _trials(text: str) -> int:
    """``--trials``' type: a positive integer, else a usage error."""
    return _count(text, least=1)


def _add_common(parser, run):
    parser.set_defaults(run=run)
    parser.add_argument("--tol", type=_tol, default=DEFAULT_TOL,
                        help="chordal tolerance in (0, 1e-3] (default 1e-8)")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbstab",
        description="Classify, construct and verify the Mobius stabilizers "
                    "of finite point sets on the Riemann sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="all possible stabilizers at size n")
    p.add_argument("n", type=int)
    _add_common(p, cmd_classify)

    p = sub.add_parser("witness", help="a verified witness set for one entry")
    p.add_argument("n", type=int)
    p.add_argument("--entry", required=True,
                   help="entry selector, e.g. 'Z_2,(1,2)' or '(0)'")
    _add_common(p, cmd_witness)

    p = sub.add_parser("verify",
                       help="round-trip every entry of classify(n) through "
                            "witness construction and the oracle")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("--exhaustive-small", action="store_true",
                   help="also check that sampled configurations only ever "
                        "produce listed entries (n <= 7)")
    p.add_argument("--seed", type=_count, default=0)
    _add_common(p, cmd_verify)

    p = sub.add_parser("moduli", help="parameter-space action checks")
    p.add_argument("n", type=int)
    p.add_argument("--group-law", action="store_true")
    p.add_argument("--phi", action="store_true")
    p.add_argument("--trials", type=_trials, default=200)
    p.add_argument("--seed", type=_count, default=0)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=tuple(_PRESETS))
    source.add_argument("--lambda", dest="lambda_csv", metavar="CSV",
                        help="comma-separated coordinates, e.g. '2+1i,5'")
    _add_common(p, cmd_moduli)
    return parser


class _Output:
    def __init__(self, out_path):
        self.lines: list[str] = []
        # opened now, so an unwritable path fails before the command runs
        self.file = open(out_path, "w") if out_path else None

    def emit(self, text: str):
        print(text)
        self.lines.append(text)

    def close(self):
        if self.file:
            with self.file:
                self.file.write("\n".join(self.lines) + "\n")


def cmd_classify(args, out: _Output) -> int:
    try:
        entries = cl.classify(args.n)
    except InvalidCardinality as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if 3 <= args.n <= 4:
        print("warning: the moduli-space reading of this listing requires "
              "n >= 5; for n = 3, 4 it classifies plain point subsets only",
              file=sys.stderr)
    if args.json:
        out.emit(json.dumps([e.to_json() for e in entries], indent=2))
    else:
        for e in entries:
            out.emit(e.to_line())
    return 0


def cmd_witness(args, out: _Output) -> int:
    try:
        entry = cl.parse_entry(args.entry)
    except ValueError as exc:
        print(f"error: cannot parse entry: {exc}", file=sys.stderr)
        return 2
    try:
        entries = cl.classify(args.n)
    except InvalidCardinality as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if entry not in entries:
        print(f"error: {entry.to_line()} is not in the classification of "
              f"n = {args.n}", file=sys.stderr)
        return 3
    if entry.label.kind == cl.INFINITE:
        print("error: an infinite stabilizer has no finite witness set",
              file=sys.stderr)
        return 4
    try:
        ps = witness(args.n, entry, tol=args.tol)
    except (WitnessSearchExhausted, UnrealizableIndex) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.json:
        out.emit(json.dumps({"n": args.n, "entry": entry.to_json(),
                             "points": ps.to_json()}, indent=2))
    else:
        out.emit(f"# {entry.to_line()}  [verified]")
        for p in ps.points:
            out.emit(point_to_str(p))
    return 0


def _sample_configurations(n: int, rng, tol: float):
    """Random well-separated n-point sets for the exhaustive-small check."""
    while True:
        xyz = rng.normal(size=(n, 3))
        xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
        pts = [RiemannPoint.from_sphere(*row) for row in xyz]
        try:
            yield PointSet(pts, tol=tol)
        except AmbiguousMatching:
            continue


def _random_mobius(rng):
    while True:
        a, b, c, d = (complex(*rng.normal(size=2)) for _ in range(4))
        if abs(a * d - b * c) > 0.2:
            return MobiusMap(a, b, c, d)


def _jittered(ps: PointSet, rng, scale: float = 1e-3) -> PointSet:
    """Nudge every point along the sphere, breaking all symmetries."""
    pts = []
    for p in ps.points:
        xyz = np.asarray(p.to_sphere()) + scale * rng.normal(size=3)
        xyz /= np.linalg.norm(xyz)
        pts.append(RiemannPoint.from_sphere(*xyz))
    return PointSet(pts, tol=ps.tol)


def _check_sample(report, n: int, listed, tag: str, ps: PointSet,
                  expect=None) -> None:
    """Report one sample's stabilizer: its entry must be ``expect`` when
    given, else one of ``listed``."""
    head = {"n": n, "sample": tag.strip()}
    try:
        got = stabilizer(ps).entry()
    except OrbstabError as exc:  # report, do not abort the table
        why = f"{type(exc).__name__}: {exc}"
        return report(f"n={n:<4d} {tag} FAIL {why}",
                      {**head, "entry": None, "pass": False, "detail": why})
    if expect is None:
        ok, why = got in listed, "entry not listed"
    else:
        ok, why = got == expect, f"expected {expect.to_line()}"
    report(f"n={n:<4d} {tag} -> {got.to_line():<13s} "
           f"{'PASS' if ok else f'FAIL ({why})'}",
           {**head, "entry": got.to_json(), "pass": ok,
            "detail": "" if ok else why})


def cmd_verify(args, out: _Output) -> int:
    if not 3 <= args.n_min <= args.n_max:
        print("error: need 3 <= n_min <= n_max", file=sys.stderr)
        return 2
    records = []

    def report(text: str, record: dict):
        """One checked line: kept, and printed at once unless --json."""
        records.append(record)
        if not args.json:
            out.emit(text)

    for n in range(args.n_min, args.n_max + 1):
        entries = cl.classify(n)
        sampling = args.exhaustive_small and n <= 7
        verified = []  # this n's (entry, witness set) pairs, when sampling
        for entry in entries:
            if entry.label.kind == cl.INFINITE:
                continue
            try:
                ps = witness(n, entry, tol=args.tol)
                if sampling:
                    verified.append((entry, ps))
                got = stabilizer(ps)
                ok = (got.label == entry.label and got.index == entry.index
                      and ps.n == n)
                detail = "" if ok else f"oracle saw {got.entry().to_line()}"
            except Exception as exc:  # report, do not abort the table
                ok = False
                detail = f"{type(exc).__name__}: {exc}"
            report(f"n={n:<4d} {entry.to_line():<24s} "
                   f"{'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}",
                   {"n": n, "entry": entry.to_json(), "pass": ok,
                    "detail": detail})
        if not sampling:
            continue
        listed = set(entries)
        rng = np.random.default_rng(args.seed + n)
        sampler = _sample_configurations(n, rng, args.tol)
        for _ in range(25):
            _check_sample(report, n, listed, "sampled   ", next(sampler))
        # a verified witness moved by a Mobius map keeps its exact entry;
        # jittered, it lands on a listed one (the trivial one for n >= 5)
        for entry, ps in verified:
            g = _random_mobius(rng)
            moved = PointSet([g.apply(p) for p in ps.points], tol=args.tol)
            _check_sample(report, n, listed, "conjugated", moved, entry)
            _check_sample(report, n, listed, "jittered  ", _jittered(ps, rng))
    passed = sum(record["pass"] for record in records)
    if args.json:
        out.emit(json.dumps({"entries": records, "passed": passed,
                             "total": len(records)}, indent=2))
    else:
        out.emit(f"summary: {passed}/{len(records)} PASS")
    return 0 if passed == len(records) else 1


def cmd_moduli(args, out: _Output) -> int:
    if args.n < 4:
        print("error: the action needs n >= 4", file=sys.stderr)
        return 2
    if not (args.group_law or args.phi):
        print("error: nothing to do; pass --group-law and/or --phi",
              file=sys.stderr)
        return 2
    if args.phi:  # check the configuration before running anything
        try:
            if args.lambda_csv is not None:
                lam = LambdaTuple(tuple(parse_complex(part)
                                        for part in args.lambda_csv.split(",")),
                                  tol=args.tol)
            elif args.preset:
                lam = LambdaTuple(preset_lambda(args.preset).values,
                                  tol=args.tol)
            else:
                lam = random_lambda(args.n, np.random.default_rng(args.seed),
                                    tol=args.tol)
        except ValueError as exc:  # unparsable, or not a point of K_n
            print(f"error: bad configuration: {exc}", file=sys.stderr)
            return 2
        if lam.n != args.n:
            print(f"error: the configuration has n = {lam.n}, not the "
                  f"requested n = {args.n}", file=sys.stderr)
            return 2
        if lam.n < 5:
            print("error: the isomorphism check needs n >= 5", file=sys.stderr)
            return 2
    reports = {}

    def report(name, rep):
        """One finished check: printed at once as text, or kept for the JSON."""
        reports[name] = rep
        if not args.json:
            out.emit(rep.summary())

    if args.group_law:
        report("group_law", verify_group_law(args.n, trials=args.trials,
                                             rng_seed=args.seed, tol=args.tol))
    if args.phi:
        report("phi", phi_check(lam))
    if args.json:
        out.emit(json.dumps(
            {name: {**dataclasses.asdict(rep), "passed": rep.passed}
             for name, rep in reports.items()}, indent=2))
    return 0 if all(rep.passed for rep in reports.values()) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = _Output(args.out)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args, out)
    finally:
        out.close()


def entrypoint():  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
