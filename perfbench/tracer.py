"""Per-layer spans and counts for the benchmark's traced run.

A ``Tracer`` wraps the public functions of each orbstab layer from the
benchmark's side: nothing inside ``src/orbstab`` changes.  Every module of
the package that holds a function under some name (``from .oracle import
stabilizer`` in ``cli``, ``witness`` and ``moduli``, say) gets that name
rebound to the wrapper, so calls are caught at every import site.

Each wrapper records a span per call: its layer name, its duration and
the nearest enclosing traced span (its parent).  Spans are aggregated in
memory rather than stored one by one, since the O(m^2) ``maps_equal``
dedup makes millions of them.  A span's self time is its duration minus
the time spent in traced spans it caused.

Use one tracer per traced round:

    with Tracer() as tr:
        ...                       # calls into orbstab
    tr.snapshot()                 # exact counts
    tr.stats["oracle.stabilizer"].seconds
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
from dataclasses import dataclass

#: span name -> (defining module, function name)
SPANS = {
    "cli.verify": ("orbstab.cli", "cmd_verify"),
    "classifier.classify": ("orbstab.classifier", "classify"),
    "classifier.cardinality_set": ("orbstab.classifier", "cardinality_set"),
    "witness.witness": ("orbstab.witness", "witness"),
    "oracle.stabilizer": ("orbstab.oracle", "stabilizer"),
    "oracle.identify_group": ("orbstab.oracle", "identify_group"),
    "oracle.projective_order": ("orbstab.oracle", "projective_order"),
    "kernels.scan": ("orbstab.kernels", "scan_stabilizer_triples"),
    "geometry.mobius_through_triple": ("orbstab.geometry", "mobius_through_triple"),
    "geometry.maps_equal": ("orbstab.geometry", "maps_equal"),
    "moduli.g_sigma": ("orbstab.moduli", "g_sigma"),
    "moduli.g_sigma_definitional": ("orbstab.moduli", "g_sigma_definitional"),
    "moduli.g_sigma_closed": ("orbstab.moduli", "g_sigma_closed"),
    "moduli.stabilizer_G_lambda": ("orbstab.moduli", "stabilizer_G_lambda"),
    "moduli.phi_check": ("orbstab.moduli", "phi_check"),
}


def _count_scan(counters, args, result):
    n = len(args[0])
    triples = n * (n - 1) * (n - 2)
    counters["kernels.scan.triples"] += triples
    counters["kernels.scan.survivors"] += len(result)
    # the numpy scan's int64 match table, (n-1)(n-2) rows of n per outer i
    counters["kernels.scan.match_bytes"] += 8 * triples


def _count_stabilizer(counters, args, result):
    counters["oracle.group_order.sum"] += result.order


def _count_classify(counters, args, result):
    counters["classifier.entries"] += len(result)


#: extra counts taken from a call's arguments and result, by span name
_COUNTERS = {
    "kernels.scan": _count_scan,
    "oracle.stabilizer": _count_stabilizer,
    "classifier.classify": _count_classify,
}


@dataclass(slots=True)
class SpanStat:
    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """Wraps every layer function while active; see the module docstring."""

    def __init__(self):
        self.stats = {name: SpanStat() for name in SPANS}
        self.parents: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        homes = {home: importlib.import_module(home) for home, _ in SPANS.values()}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "orbstab" or name.startswith("orbstab.")]
        for name, (home, attr) in SPANS.items():
            original = getattr(homes[home], attr, None)
            if original is None:
                self.__exit__(None, None, None)
                raise LookupError(f"span {name}: {home} has no {attr}")
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._saved.append((module, key, original))
        return self

    def __exit__(self, *exc_info):
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()
        return False

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        count = _COUNTERS.get(name)
        stack = self._stack
        parents = self.parents
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # [span name, seconds in child spans]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.seconds += elapsed
                stat.child_seconds += frame[1]
                if parent is not None:
                    parent[1] += elapsed
                parents[name, parent[0] if parent else None] += 1
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def calls_from(self, name: str, parent: str | None) -> int:
        """Calls of a span made inside the span ``parent`` (``None``: made
        directly by the benchmark)."""
        return self.parents[name, parent]

    def snapshot(self) -> dict:
        """Every exact count of the round, for the determinism check."""
        out = {f"{name}.calls": s.calls for name, s in self.stats.items()}
        out.update({f"{child}<-{parent}": c
                    for (child, parent), c in self.parents.items()})
        out.update(self.counters)
        return out
