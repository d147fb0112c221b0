"""Span tracing of relfacts from outside the package.

`Tracer.installed()` wraps the public functions of each layer module (and
a few methods and private helpers the per-layer metrics need) for the
duration of a `with` block, then puts the originals back. Each wrapped call
becomes a span: name, start, end and parent, kept in memory. Counters are
bumped by hooks on the same wrappers. Nothing under src/ is edited; the
wrappers are bound in place of every module attribute that referred to the
original, so `from .pauli import commutes` in another module is traced too.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("cli", "report", "scenarios", "observers", "statevector", "pauli", "parity", "verify")

# Public helpers left unwrapped: they run once per value of a report, many
# thousand times per command, and their time stays inside report.json_ms
# and report.text_ms.
SKIPPED = {"report.round_float", "report.canonicalize"}

# Private functions and methods that carry a per-layer metric.
EXTRA = {
    "observers": ("_premeasure_array",),
    "scenarios": ("_sequential_outcome_distribution", "_draw_outcome_counts"),
}
METHODS = {
    "pauli": {"PauliString": ("apply_to_array", "dense_matrix")},
    "statevector": {"StateVector": ("__post_init__",)},
    "report": {"ReportDocument": ("to_json",)},
}


def _count_apply(counts, args, result):
    # Computed, not measured: the input and the output amplitude arrays.
    counts["pauli.apply_bytes_computed"] += args[1].nbytes + result.nbytes


def _count_shots(counts, args, result):
    counts["scenarios.shots_drawn"] += args[1]


def _count_tested(counts, args, result):
    counts["parity.assignments_tested"] += result.tested


def _count_report_bytes(counts, args, result):
    counts["report.bytes"] += len(result.encode())


HOOKS = {
    "pauli.PauliString.apply_to_array": _count_apply,
    "scenarios._draw_outcome_counts": _count_shots,
    "parity.enumerate_assignments": _count_tested,
    "report.ReportDocument.to_json": _count_report_bytes,
    "report.render_text": _count_report_bytes,
}

# Per-layer metrics drawn from spans. "calls" counts spans of the group that
# have no ancestor in the group, "ms" sums their durations (inclusive time),
# and "self_ms" sums each span's duration less its children's.
SPAN_METRICS = (
    ("pauli.apply_calls", "calls", ("pauli.PauliString.apply_to_array",)),
    ("pauli.apply_ms", "ms", ("pauli.PauliString.apply_to_array",)),
    ("statevector.states_built", "calls", ("statevector.StateVector.__post_init__",)),
    ("statevector.construct_ms", "ms", ("statevector.StateVector.__post_init__",)),
    ("statevector.expectation_calls", "calls", ("statevector.expectation",)),
    ("statevector.expectation_ms", "ms", ("statevector.expectation",)),
    ("observers.premeasure_calls", "calls", ("observers.premeasure", "observers.reverse",
                                             "observers._premeasure_array")),
    ("observers.premeasure_ms", "ms", ("observers.premeasure", "observers.reverse",
                                       "observers._premeasure_array")),
    ("observers.lift_calls", "calls", ("observers.lift",)),
    ("pauli.commutes_calls", "calls", ("pauli.commutes",)),
    ("pauli.commutes_ms", "ms", ("pauli.commutes",)),
    ("report.build_ms", "ms", ("report.from_scenario", "report.from_cdr_suite",
                               "report.from_parity", "report.from_verify")),
    ("report.json_ms", "ms", ("report.ReportDocument.to_json",)),
    ("report.text_ms", "ms", ("report.render_text",)),
    ("cli.self_ms", "self_ms", ("cli.main",)),
    ("scenarios.flow_self_ms", "self_ms", ("scenarios.run_lmz", "scenarios.run_cdr",
                                           "scenarios.run_cdr_suite")),
    ("scenarios.certify_ms", "ms", ("scenarios.certify_constraint",)),
    ("scenarios.sample_ms", "ms", ("scenarios.sample_records",
                                   "scenarios._sequential_outcome_distribution",
                                   "scenarios._draw_outcome_counts")),
    ("scenarios.cpl_ms", "ms", ("scenarios.cpl_check",)),
    ("pauli.dense_matrix_calls", "calls", ("pauli.PauliString.dense_matrix",)),
    ("pauli.dense_matrix_ms", "ms", ("pauli.PauliString.dense_matrix",)),
    ("verify.self_ms", "self_ms", ("verify.run_all_checks",)),
    ("parity.parse_ms", "ms", ("parity.parse_constraints",)),
    ("parity.solve_ms", "ms", ("parity.satisfiable",)),
    ("parity.enumerate_ms", "ms", ("parity.enumerate_assignments",)),
)
COUNTER_METRICS = {"pauli.apply_bytes_computed": "B", "report.bytes": "B",
                   "scenarios.shots_drawn": "count", "parity.assignments_tested": "count"}


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every relfacts layer inside the block."""
        wrappers = {}      # id(original) -> wrapper
        restore = []       # (owner, attribute, original)
        for layer in LAYERS:
            module = sys.modules[f"relfacts.{layer}"]
            wanted = set(EXTRA.get(layer, ()))
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") and f"{layer}.{attr}" not in SKIPPED
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (public or attr in wanted)):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))
                    restore.append((cls, method, original))
        for name, module in list(sys.modules.items()):
            if name != "relfacts" and not name.startswith("relfacts."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
                    restore.append((module, attr, obj))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict:
        """Per-layer sums over all spans and counters (not yet per command)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {}
        for metric, kind, group in SPAN_METRICS:
            members = set(group)
            value = 0
            for i, (name, start, end, parent) in enumerate(spans):
                if name not in members:
                    continue
                if kind == "self_ms":
                    value += end - start - child_ns[i]
                elif not self._inside(i, members):
                    value += 1 if kind == "calls" else end - start
            totals[metric] = value if kind == "calls" else value / 1e6
        for metric in COUNTER_METRICS:
            totals[metric] = self.counts[metric]
        return totals

    def _inside(self, index: int, members: set) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in members:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """Spans as JSON lines; `request` is the index of the root span."""
        spans = self.spans
        origin = spans[0][1] if spans else 0
        roots = []
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(spans):
                roots.append(i if parent < 0 else roots[parent])
                fh.write(json.dumps({
                    "request": roots[i], "span": i, "parent": parent, "name": name,
                    "start_us": (start - origin) / 1e3, "end_us": (end - origin) / 1e3,
                }) + "\n")
