"""Spans and counts recorded from the benchmark's side of each layer boundary.

When enabled, the tracer replaces public functions of the heisenkep modules
(and a few methods of the exact classes) with wrappers that time each call.
Nothing in the package itself changes.  Calls between functions of one
module go through the wrappers too, because a module looks up its own
functions at call time.  When disabled, nothing is patched and `span` costs one branch.

Spans are kept in memory.  Coarse spans (everything outside `exactalg`) are
kept one by one with their parent, so a trace file can rebuild the call
tree; `exactalg` spans are many thousands per operation and are kept only as
totals.  A name that is already open on the stack adds no inclusive time
again, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _targets():
    """(owner, attribute, span name) for every wrapped entry point."""
    from heisenkep import dynamics, galois, heisenmodel, variational
    from heisenkep.exactalg import ExactMatrix, ExactPoly

    out = [
        (heisenmodel, "poisson_bracket", "heisenmodel.bracket"),
        (dynamics, "integrate", "dynamics.integrate"),
        (dynamics, "monitor_conserved", "dynamics.monitor"),
    ]
    for name in ("ve_along", "ve_twobody_blocks", "gauge_transform",
                 "cyclic_to_scalar", "exp_substitution"):
        out.append((variational, name, f"variational.{name}"))
    for name in ("o3r_operator", "liouvillian_verdict_o3r", "exp_solutions",
                 "fuchsian_check", "sym_power", "singularity_analysis",
                 "case2_obstruction", "exterior_square", "system_exp_solutions",
                 "plucker_check", "factorization_basis"):
        out.append((galois, name, f"galois.{name}"))
    for name in ("rank", "nullspace", "det", "inverse"):
        out.append((ExactMatrix, name, "exactalg.matrix"))
    out.append((ExactPoly, "gcd", "exactalg.poly_gcd"))
    return out


class Tracer:
    """Span stack, per-name totals and counters for one benchmark process."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.total = defaultdict(float)   # inclusive seconds per name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []                   # coarse spans: dicts
        self._stack = []                  # [name, start, child_seconds, id]
        self._open = defaultdict(int)     # name -> open depth
        self._saved = []
        self._next_id = 0
        self.op = None                    # label of the current operation

    # -- recording --------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def _exit(self):
        end = time.perf_counter()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        self._open[name] -= 1
        if self._open[name] == 0:
            self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if not name.startswith("exactalg."):
            self.spans.append({
                "id": sid, "parent": parent[3] if parent else None,
                "op": self.op, "name": name, "start": start, "end": end,
                "self": dur - child,
            })

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, name):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every target; a no-op when tracing is off."""
        if not self.enabled or self._saved:
            return
        for owner, attr, name in _targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- output -----------------------------------------------------------

    def write(self, path):
        """JSON lines: one per coarse span, then one per name with totals."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({
                    "total": name, "seconds": self.total[name],
                    "self": self.self_time[name], "calls": self.calls[name],
                }, sort_keys=True) + "\n")
            for name in sorted(self.counts):
                fh.write(json.dumps({"count": name, "value": self.counts[name]},
                                    sort_keys=True) + "\n")
