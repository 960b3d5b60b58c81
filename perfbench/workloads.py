"""The benchmark's three workloads: inputs, per-item gates and span checks.

``build(name, seed, tiny, root)`` makes one *round* of a workload from the
seed, before any timing: a list of units in seeded order, each of which
runs one call into orbstab and returns one ``(latency_s, ok)`` record per
checked item.  The run repeats the same round until its time is up, one
call at a time.

verify-sweep
    ``orbstab.cli.main(["verify", lo, hi])`` in-process over n = 5..30,
    split into consecutive ranges of seeded width, run in seeded order.
    An item is one emitted ``n=... PASS`` line; its latency is the gap
    since the previous line (or since the call started).  Exercises every
    group type on symmetric sets, so the oracle's dedup, closure,
    identification and component index work shows; the classifier does
    almost nothing.
oracle-asym
    ``stabilizer()`` on asymmetric sets of 12..80 points: trivial witnesses,
    random sphere points, and jittered symmetric witnesses moved by a random
    Mobius map, about half of them with a point pushed near infinity.  The
    scan rejects almost every candidate early, so the kernel does nearly
    all the work; witness and classifier do none.
arith
    ``classify`` (n = 2018 against the golden listing, and n near 10^5),
    ``cardinality_set``, batches of ``g_sigma`` over n = 8..32 and
    ``phi_check`` at n <= 8.  The call mix is set so the median falls in
    the ``g_sigma`` batches and the 90th percentile in the large
    ``classify`` calls, each a dense group of similar items.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("verify-sweep", "oracle-asym", "arith")


def _mod(name: str):
    # orbstab.witness is shadowed by the witness() function on the package,
    # so submodules are fetched from the import system, not as attributes
    return importlib.import_module(f"orbstab.{name}")


def _report(label: str, why: str) -> None:
    print(f"item failed: {label}: {why}", file=sys.stderr)


@dataclass
class Item:
    """One call, timed, then gated by ``check(result) -> bool``."""

    label: str
    call: Callable
    check: Callable

    def __call__(self) -> list[tuple[float, bool]]:
        start = time.perf_counter()
        try:
            result = self.call()
        except Exception as exc:  # a raised exception is a failed item
            latency = time.perf_counter() - start
            _report(self.label, f"{type(exc).__name__}: {exc}")
            return [(latency, False)]
        latency = time.perf_counter() - start
        try:
            ok = bool(self.check(result))
        except Exception as exc:
            _report(self.label, f"gate raised {type(exc).__name__}: {exc}")
            ok = False
        if not ok:
            _report(self.label, "wrong result")
        return [(latency, ok)]


@dataclass
class Round:
    units: list
    #: (tracer) -> list of problems; span counts against known call counts
    span_checks: Callable
    #: a small untimed call that lets first-call costs settle
    warm: Callable

    def run(self) -> list[tuple[float, bool]]:
        records = []
        for unit in self.units:
            records.extend(unit())
        return records


def _shuffled(rng, units: list) -> list:
    """Units in seeded random order, so that items of every size are spread
    over the whole run rather than meeting one burst of machine load."""
    return [units[i] for i in rng.permutation(len(units))]


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


# ---------------------------------------------------------------------------
# verify-sweep

class _LineClock(io.TextIOBase):
    """Stand-in stdout that timestamps each complete line as it is written."""

    def __init__(self):
        super().__init__()
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = time.perf_counter()
        *done, self._partial = (self._partial + text).split("\n")
        self.lines.extend((now, line) for line in done)
        return len(text)


@dataclass
class VerifyCall:
    """``orbstab verify lo hi`` in-process; one item per entry line.

    Gate: the entry lines equal ``expected`` (the entries of classify(n),
    each marked PASS) line for line, and the summary line and exit code
    agree with them; otherwise every item of the call fails.
    """

    lo: int
    hi: int
    expected: list[str] = field(default_factory=list)

    def __call__(self) -> list[tuple[float, bool]]:
        label = f"verify {self.lo} {self.hi}"
        clock = _LineClock()
        start = time.perf_counter()
        code = None
        try:
            with contextlib.redirect_stdout(clock):
                code = _mod("cli").main(["verify", str(self.lo), str(self.hi)])
        except Exception as exc:
            _report(label, f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        entries = [(t, line) for t, line in clock.lines if line.startswith("n=")]
        others = [line for _, line in clock.lines if not line.startswith("n=")]
        total = len(self.expected)
        whole_ok = (code == 0 and len(entries) == total
                    and others == [f"summary: {total}/{total} PASS"])
        if not whole_ok:
            _report(label, f"exit code {code}, {len(entries)} entry lines "
                           f"(expected {total}), other lines {others!r}")
        records = []
        prev = start
        for i, want in enumerate(self.expected):
            if i < len(entries):
                stamp, got = entries[i]
                if got != want:
                    _report(label, f"line {got!r}, expected {want!r}")
                records.append((stamp - prev, whole_ok and got == want))
                prev = stamp
            else:
                records.append((end - prev, False))
        return records


def verify_lines(n: int) -> list[str]:
    """The lines a passing ``orbstab verify n n`` prints for its entries."""
    cl = _mod("classifier")
    return [f"n={n:<4d} {e.to_line():<24s} PASS"
            for e in cl.classify(n) if e.label.kind != cl.INFINITE]


def _verify_sweep(rng: np.random.Generator, tiny: bool) -> Round:
    n_max = 8 if tiny else 30
    calls = []
    lo = 5
    while lo <= n_max:
        hi = min(n_max, lo + int(rng.integers(0, 2)))
        call = VerifyCall(lo, hi)
        for n in range(lo, hi + 1):
            call.expected.extend(verify_lines(n))
        calls.append(call)
        lo = hi + 1
    calls = _shuffled(rng, calls)
    entries = sum(len(c.expected) for c in calls)

    def span_checks(tr) -> list[str]:
        problems: list[str] = []
        _expect(problems, "cli.verify calls", tr.calls("cli.verify"), len(calls))
        _expect(problems, "witness calls", tr.calls("witness.witness"), entries)
        attempts = tr.calls_from("oracle.stabilizer", "witness.witness")
        if attempts < entries:
            problems.append(f"{attempts} witness attempts for {entries} entries")
        _expect(problems, "oracle calls = entries + witness attempts",
                tr.calls("oracle.stabilizer"), entries + attempts)
        _expect(problems, "scan calls = oracle calls",
                tr.calls("kernels.scan"), tr.calls("oracle.stabilizer"))
        return problems

    return Round(calls, span_checks,
                 warm=VerifyCall(5, 5, verify_lines(5)))


# ---------------------------------------------------------------------------
# oracle-asym

def _sphere_points(xyz) -> list:
    RiemannPoint = _mod("geometry").RiemannPoint
    xyz = np.asarray(xyz, dtype=float)
    xyz = xyz / np.linalg.norm(xyz, axis=1, keepdims=True)
    return [RiemannPoint.from_sphere(*row) for row in xyz]


def _random_sphere(rng, n: int) -> list:
    return _sphere_points(rng.normal(size=(n, 3)))


def _jittered(points, rng, scale: float = 1e-3) -> list:
    xyz = np.array([p.to_sphere() for p in points])
    return _sphere_points(xyz + scale * rng.normal(size=xyz.shape))


def _random_mobius(rng, points, near_infinity: bool):
    """A random Mobius map; if ``near_infinity``, one that sends a random
    point of the set to within about 1e-3 (chordal) of infinity."""
    MobiusMap = _mod("geometry").MobiusMap
    while True:
        a, b, c, d = (complex(*rng.normal(size=2)) for _ in range(4))
        if near_infinity:
            p = points[int(rng.integers(len(points)))]
            eps = 1e-3 * p.norm() * complex(*rng.normal(size=2))
            if abs(p.w) > abs(p.z):
                d = (eps - c * p.z) / p.w
            else:
                c = (eps - d * p.w) / p.z
        if abs(a * d - b * c) > 0.2 * max(abs(a), abs(b), abs(c), abs(d)) ** 2:
            return MobiusMap(a, b, c, d)


def _symmetric_shape(n: int) -> list:
    """Points of a symmetric witness construction with n points."""
    W = _mod("witness")
    cl = _mod("classifier")
    named = {
        12: lambda: W.polyhedral_orbit(cl.A5, "V12"),       # icosahedron
        16: lambda: W.dihedral_witness(7, (1, 0, 1)),       # D_7
        30: lambda: W.polyhedral_orbit(cl.A5, "V30"),       # A5 edge orbit
        62: lambda: [p for tag in ("V12", "V20", "V30")     # A5 (1,1,1,0)
                     for p in W.polyhedral_orbit(cl.A5, tag).points],
    }
    if n in named:
        shape = named[n]()
    elif n % 2 == 0:
        shape = W.dihedral_witness(n // 2, (0, 0, 1))
    else:
        shape = W.cyclic_witness((n - 1) // 2, (1, 2))
    return list(getattr(shape, "points", shape))


def _asym_set(rng, kind: str, n: int):
    """A seeded asymmetric n-point set of the given kind."""
    if kind == "trivial":
        # as built: the scan's cost on this near-dihedral set depends on
        # where the odd point sits, so a shuffled order would make the
        # item's cost depend on the seed
        return _mod("witness").trivial_witness(n)
    while True:
        if kind == "sphere":
            points = _random_sphere(rng, n)
        else:
            points = _jittered(_symmetric_shape(n), rng)
            g = _random_mobius(rng, points, near_infinity=rng.random() < 0.5)
            points = [g.apply(p) for p in points]
            points = [points[i] for i in rng.permutation(n)]
        try:
            return _mod("geometry").PointSet(points)
        except _mod("errors").AmbiguousMatching:
            continue  # two points within tolerance: draw again


def asym_check(ps) -> Callable:
    """Gate: a trivial label, and orbits that cover exactly the n points."""
    cl = _mod("classifier")

    def check(result) -> bool:
        covered = Counter((p.z, p.w) for orbit in result.orbits for p in orbit)
        wanted = Counter((p.z, p.w) for p in ps.points)
        return result.label == cl.LABEL_TRIVIAL and covered == wanted
    return check


#: (kind, n) of one oracle-asym round.  The 12/16/30/62 shapes and the
#: trivial 20/60 sets carry over the kernel benchmark's former workloads.
_ASYM_ROUND = (
    [("jittered", 12), ("jittered", 16), ("trivial", 20)]
    + [("jittered" if n == 30 else ("trivial", "sphere", "jittered")[n % 3], n)
       for n in range(24, 53)]
    + [("sphere", 54), ("trivial", 56), ("jittered", 58), ("trivial", 60),
       ("jittered", 62), ("sphere", 72), ("trivial", 80)]
)
_ASYM_TINY = [("jittered", 12), ("trivial", 20), ("sphere", 24)]


def _oracle_asym(rng: np.random.Generator, tiny: bool) -> Round:
    oracle = _mod("oracle")
    oracle_call = lambda ps: lambda: oracle.stabilizer(ps)
    items = []
    for kind, n in _ASYM_TINY if tiny else _ASYM_ROUND:
        ps = _asym_set(rng, kind, n)
        items.append(Item(f"stabilizer {kind} n={n}", oracle_call(ps),
                          asym_check(ps)))
    items = _shuffled(rng, items)

    def span_checks(tr) -> list[str]:
        problems: list[str] = []
        _expect(problems, "oracle calls", tr.calls_from("oracle.stabilizer", None),
                len(items))
        _expect(problems, "all oracle calls from the benchmark",
                tr.calls("oracle.stabilizer"), len(items))
        _expect(problems, "scan calls = oracle calls",
                tr.calls("kernels.scan"), len(items))
        _expect(problems, "group order sum (all trivial)",
                tr.counters["oracle.group_order.sum"], len(items))
        for idle in ("witness.witness", "cli.verify", "classifier.classify"):
            _expect(problems, f"{idle} calls", tr.calls(idle), 0)
        return problems

    warm_ps = _asym_set(rng, "sphere", 12)
    return Round(items, span_checks,
                 warm=Item("warm", oracle_call(warm_ps), asym_check(warm_ps)))


# ---------------------------------------------------------------------------
# arith

def golden_check(golden: bytes) -> Callable:
    """Gate: the classification, one line per entry, is byte-equal to
    the golden listing."""
    def check(entries) -> bool:
        text = "".join(e.to_line() + "\n" for e in entries)
        return text.encode() == golden
    return check


def _classify_check(n: int) -> Callable:
    """Gate for a large n: distinct entries, the trivial group last, every
    other entry of cardinality n."""
    cl = _mod("classifier")

    def check(entries) -> bool:
        *groups, last = entries
        return (len(set(entries)) == len(entries)
                and last.label == cl.LABEL_TRIVIAL
                and all(cl.cardinality_of(e) == n for e in groups))
    return check


def _random_lambda(rng, n: int):
    """A K_n point with coordinates at least 0.05 from 0, 1 and each other."""
    M = _mod("moduli")
    while True:
        values = [complex(rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 2.0))
                  for _ in range(n - 3)]
        pts = values + [0.0, 1.0]
        if all(abs(a - b) > 0.05 for i, a in enumerate(pts) for b in pts[i + 1:]):
            return M.LambdaTuple(tuple(values))


def _g_sigma_batch(batch) -> Callable:
    M = _mod("moduli")
    return lambda: [M.g_sigma(lam, sigma) for lam, sigma in batch]


def _arith(rng: np.random.Generator, tiny: bool, golden: bytes) -> Round:
    cl = _mod("classifier")
    M = _mod("moduli")
    classify = lambda n: lambda: cl.classify(n)
    phi = lambda lam: lambda: M.phi_check(lam)
    phi_ok = lambda report: report.passed
    items = []
    n_classify = n_cardinality = n_phi = n_g_sigma = 0

    # fast group: the golden listing, small phi checks
    for _ in range(2 if tiny else 8):
        items.append(Item("classify 2018", classify(2018), golden_check(golden)))
        n_classify += 1
    small = [M.preset_lambda("d5"), M.preset_lambda("z2"),
             _random_lambda(rng, 5), _random_lambda(rng, 5)]
    for lam in small[:1] if tiny else small:
        items.append(Item(f"phi_check n={lam.n}", phi(lam), phi_ok))
        n_phi += 1

    # median group: g_sigma batches of one make-up, so that all cost about
    # the same: 14 calls at each n = 8, 12, ..., 32; the seed picks the
    # points and permutations
    for _ in range(2 if tiny else 20):
        batch = []
        for n in range(8, 33, 4):
            lam = _random_lambda(rng, n)
            for _ in range(2 if tiny else 14):
                images = tuple(int(i) + 1 for i in rng.permutation(n))
                batch.append((lam, M.Permutation(images)))
        items.append(Item(f"g_sigma x{len(batch)}", _g_sigma_batch(batch),
                          lambda out, batch=batch: [len(v.values) for v in out]
                              == [len(lam.values) for lam, _ in batch]))
        n_g_sigma += len(batch)

    # upper group: cardinality sets up to N = 250, checked against the
    # definition (every m <= N whose classification holds the label)
    labels = [cl.LABEL_A5, cl.LABEL_S4, cl.LABEL_A4, cl.LABEL_K4, cl.LABEL_Z2,
              cl.dihedral(int(rng.integers(3, 8))),
              cl.cyclic(int(rng.integers(3, 8))), cl.LABEL_TRIVIAL]
    n_max = 25 if tiny else 250
    for label in labels[:1] if tiny else labels:
        want = {m for m in range(1, n_max + 1)
                if any(e.label == label for e in cl.classify(m))}
        items.append(Item(
            f"cardinality_set {label} {n_max}",
            lambda label=label: cl.cardinality_set(label, n_max),
            lambda got, want=want: got == want))
        n_cardinality += 1

    # 90th-percentile group: classify near n = 10^5, spread over fixed
    # sizes with a small seeded offset
    for base in (2500,) if tiny else range(96_500, 104_500, 1000):
        n = base + int(rng.integers(-200, 201))
        items.append(Item(f"classify {n}", classify(n), _classify_check(n)))
        n_classify += 1

    # slowest: the direct S_n enumeration behind phi_check
    for n in (6,) if tiny else (7, 8):
        items.append(Item(f"phi_check n={n}", phi(_random_lambda(rng, n)), phi_ok))
        n_phi += 1
    items = _shuffled(rng, items)

    def span_checks(tr) -> list[str]:
        problems: list[str] = []
        _expect(problems, "classify calls from the benchmark",
                tr.calls_from("classifier.classify", None), n_classify)
        _expect(problems, "cardinality_set calls",
                tr.calls("classifier.cardinality_set"), n_cardinality)
        _expect(problems, "g_sigma calls", tr.calls("moduli.g_sigma"), n_g_sigma)
        for path in ("moduli.g_sigma_definitional", "moduli.g_sigma_closed"):
            _expect(problems, f"{path} calls from g_sigma",
                    tr.calls_from(path, "moduli.g_sigma"), n_g_sigma)
        _expect(problems, "phi_check calls", tr.calls("moduli.phi_check"), n_phi)
        _expect(problems, "oracle calls (one per phi_check)",
                tr.calls("oracle.stabilizer"), n_phi)
        for idle in ("witness.witness", "cli.verify"):
            _expect(problems, f"{idle} calls", tr.calls(idle), 0)
        return problems

    return Round(items, span_checks,
                 warm=Item("warm", classify(500), _classify_check(500)))


def build(name: str, seed: int, tiny: bool, root: Path) -> Round:
    """One round of the named workload, generated from ``seed``."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "verify-sweep":
        return _verify_sweep(rng, tiny)
    if name == "oracle-asym":
        return _oracle_asym(rng, tiny)
    golden = (root / "tests" / "data" / "golden_2018.txt").read_bytes()
    return _arith(rng, tiny, golden)
