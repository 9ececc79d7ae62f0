"""Span tracer for the benchmark's traced runs.

A traced run rebinds every name in the ``hadwalk`` modules that refers to a
layer function (module globals, class attributes such as the methods of
``RationalSeries``, and module-level registries such as ``cli._SUITES``) to a
wrapper that records one span per call.  The package itself is not edited,
and untraced samples never install the wrappers.

A span is ``[name, start, end, thread, parent, cpu]``: perf-counter start and
end, the thread ident, the index of the enclosing span (-1 for none) and the
thread CPU time spent inside it.  The enclosing span is the innermost open
span on the same thread; a span opened on a worker thread with nothing open
there gets the innermost open span of the main thread as its parent, because
the main thread is blocked waiting for that worker (the verify thread pool).

Spans are kept in memory and written once, by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One layer function to trace.

    ``key`` maps the call arguments to a hashable key whose distinct values
    are counted; ``count`` maps the result to a number that is summed.
    """

    name: str
    func: Callable
    key: Callable | None = None
    count: Callable | None = None


def _jacobi_key(k, r, s, x=Fraction(0)):
    return k, r, s, Fraction(x)


def _quadrature_nodes(result) -> int:
    return sum(part.node_count for part in result)


def layer_targets() -> list:
    """The traced functions of every hadwalk layer, with their span names."""
    from hadwalk import asymptotics, cli, genfun, jacobi, ring, walk

    series = ring.RationalSeries
    targets = [
        Target("jacobi.jacobi_at", jacobi.jacobi_at, key=_jacobi_key),
        Target("jacobi.binomial", jacobi.binomial),
        Target("jacobi.psi_closed_r", jacobi.psi_closed_r),
        Target("jacobi.psi_closed_l", jacobi.psi_closed_l),
        Target("jacobi.check_jacobi_identities", jacobi.check_jacobi_identities),
        Target("ring.mul", series.__mul__),
        Target("ring.reciprocal", series.reciprocal),
        Target("ring.sqrt", series.sqrt),
        Target("ring.pow_int", series.pow_int),
        Target("ring.compose", series.compose),
        Target("walk.step", walk.step),
        Target("walk.mantissa_to_float", walk.mantissa_to_float),
        Target("asymptotics.quadrature_psi", asymptotics.quadrature_psi,
               count=_quadrature_nodes),
        Target("asymptotics.psi_asymptotic", asymptotics.psi_asymptotic),
        Target("asymptotics.btilde", asymptotics.btilde),
        Target("asymptotics.b_pathintegral", asymptotics.b_pathintegral),
        Target("cli.main", cli.main),
        Target("cli.cmd_verify", cli.cmd_verify),
        Target("cli.cmd_asymptotics", cli.cmd_asymptotics),
        Target("cli.run_verify", cli.run_verify),
    ]
    for fam in ("equivalence_ledger", "closed_form_series", "definitional_series",
                "jacobi_generating", "check_intermediate_relations",
                "lagrange_invert"):
        targets.append(Target(f"genfun.{fam}", getattr(genfun, fam)))
    for suite, func in cli._SUITES.items():
        targets.append(Target(f"cli.suite.{suite}", func))
    return targets


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.distinct: dict = {}
        self.totals: dict = {}
        self._stacks: dict = {}
        self._main = threading.main_thread().ident

    def wrap(self, target: Target) -> Callable:
        name_id = len(self.names)
        self.names.append(target.name)
        spans, stacks, main = self.spans, self._stacks, self._main
        clock, cpu_clock, ident_of = time.perf_counter, time.thread_time, threading.get_ident
        func, key, count = target.func, target.key, target.count
        seen = self.distinct.setdefault(target.name, set()) if key else None
        if count:
            self.totals[target.name] = 0

        @functools.wraps(func)
        def traced(*args, **kwargs):
            ident = ident_of()
            stack = stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main) if ident != main else None
                parent = main_stack[-1] if main_stack else None
            record = [name_id, 0.0, 0.0, ident, parent, 0.0]
            spans.append(record)
            stack.append(record)
            cpu0 = cpu_clock()
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                record[5] = cpu_clock() - cpu0
                stack.pop()
            if seen is not None:
                seen.add(key(*args, **kwargs))
            if count:
                self.totals[target.name] += count(result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every span, with parents as indices, in one JSON document."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        spans = [[r[0], r[1], r[2], r[3], -1 if r[4] is None else index[id(r[4])], r[5]]
                 for r in self.spans]
        doc = {"names": self.names, "spans": spans,
               "distinct": {k: len(v) for k, v in self.distinct.items()},
               "totals": self.totals}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer, targets: list) -> None:
    """Rebind every hadwalk name that refers to a target to its traced wrapper.

    Raises if a target is bound nowhere, so a renamed layer function fails the
    traced run instead of silently reporting zero calls.
    """
    wrappers = {id(t.func): tracer.wrap(t) for t in targets}
    rebound = defaultdict(int)

    def rebind(namespace: dict, assign) -> None:
        for name, value in list(namespace.items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                assign(name, wrapper)
                rebound[id(value)] += 1

    modules = [m for name, m in list(sys.modules.items())
               if name == "hadwalk" or name.startswith("hadwalk.")]
    for module in modules:
        namespace = vars(module)
        rebind(namespace, namespace.__setitem__)
        for value in list(namespace.values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                rebind(dict(vars(value)), functools.partial(setattr, value))
            elif isinstance(value, dict):
                rebind(value, value.__setitem__)
    missing = [t.name for t in targets if not rebound[id(t.func)]]
    if missing:
        raise RuntimeError(f"traced functions bound nowhere: {missing}")


def span_stats(doc: dict) -> dict:
    """Per span name: calls, wall_s, self_s and wait_s summed over its spans.

    self_s is a span's duration minus the union of its children's intervals
    (clipped to the span); wait_s is its duration minus its thread CPU time.
    """
    names, spans = doc["names"], doc["spans"]
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(i)
    stats = {name: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "wait_s": 0.0}
             for name in names}
    for i, (name_id, start, end, _thread, _parent, cpu) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = stats[names[name_id]]
        entry["calls"] += 1
        entry["wall_s"] += end - start
        entry["self_s"] += end - start - covered
        entry["wait_s"] += end - start - cpu
    return stats
