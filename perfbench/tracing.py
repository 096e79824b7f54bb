"""Spans around the calls into each fastcu module, recorded from outside.

The benchmark never edits the package.  Tracing replaces module attributes
(and two ``FamilyGeometry`` methods) with wrappers that record a span per
call: name, start, end, parent span and operation id.  Spans stay in memory
and are written out once, at the end of the run.

Modules import names directly (``from .qsim import apply_on``), so a function
is wrapped in every namespace it is called through.  A hook whose target no
longer exists is reported as missing and its metrics are left out; nothing is
raised, so renaming a private helper degrades the trace instead of breaking
the benchmark.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass


def _count_edges(out, args):
    return {"qgbuilder.candidate_edges": len(out[0])}


def _count_classes(out, args):
    geom = args[0]
    return {"qgbuilder.classes": ("max", int(getattr(geom, "n_classes", 0) or 0))}


def _count_accept(out, args):
    built = out[0] if isinstance(out, tuple) else out
    return {"qgbuilder.assemble_attempts": 1,
            "qgbuilder.assemble_accepts": int(built is not None)}


def _count_table(out, args):
    return {"algebra.table_bytes": ("max", int(out.table.nbytes + out.left_div.nbytes))}


def _count_exact_branches(out, args):
    return {"exact_protocol.branches": len(out.branches)}


def _count_qsim_branches(out, args):
    return {"qsim.branches": len(out)}


@dataclass(frozen=True)
class Hook:
    """One wrap point: ``target`` is ``module:attr`` or ``module:Class.method``."""

    span: str
    target: str
    count: object = None      # callable(result, args) -> {counter: amount | ("max", value)}


def _in(span, modules, attr, count=None):
    return [Hook(span, f"fastcu.{m}:{attr}", count) for m in modules]


HOOKS: tuple[Hook, ...] = tuple(
    _in("net.build_net", ("net", "compiler"), "build_net")
    + _in("net.nearest", ("net", "compiler"), "nearest_in_net")
    + [
        Hook("qgbuilder.geometry", "fastcu.qgbuilder:FamilyGeometry.__init__", _count_classes),
        Hook("qgbuilder.candidate_edges", "fastcu.qgbuilder:FamilyGeometry.candidate_edges",
             _count_edges),
        Hook("qgbuilder.matching_pass", "fastcu.qgbuilder:_matching_pass"),
        Hook("qgbuilder.max_flow", "fastcu.qgbuilder:_solve_class_flow"),
        Hook("qgbuilder.expand_column", "fastcu.qgbuilder:_expand_column"),
        Hook("qgbuilder.dense_graph", "fastcu.qgbuilder:build_graph"),
        Hook("qgbuilder.dense_matching", "fastcu.qgbuilder:max_matching"),
        Hook("qgbuilder.finish_build", "fastcu.qgbuilder:_finish_build"),
        Hook("qgbuilder.assemble", "fastcu.qgbuilder:assemble_quasigroup", _count_accept),
        Hook("qgbuilder.assemble", "fastcu.compiler:assemble_or_reject", _count_accept),
        Hook("algebra.validate", "fastcu.qgbuilder:quasigroup_from_transposed", _count_table),
        Hook("algebra.certify", "fastcu.qgbuilder:certify_approx_rep"),
        Hook("compiler.error_budget", "fastcu.compiler:error_budget"),
    ]
    + _in("approx_protocol.dilation_error", ("compiler", "approx_protocol"), "dilation_error")
    + [
        Hook("approx_protocol.measured", "fastcu.approx_protocol:run_measured_variant"),
        Hook("approx_protocol.hidden", "fastcu.approx_protocol:run_hidden_variant"),
        Hook("approx_protocol.choi", "fastcu.approx_protocol:hidden_variant_choi"),
        Hook("exact_protocol.run", "fastcu.exact_protocol:run_exact_protocol",
             _count_exact_branches),
    ]
    + _in("qsim.apply_on", ("qsim", "approx_protocol", "exact_protocol"), "apply_on")
    + _in("qsim.measure", ("qsim", "approx_protocol", "exact_protocol"), "measure_registers",
          _count_qsim_branches)
    + _in("qsim.partial_trace", ("qsim", "approx_protocol"), "partial_trace")
    + _in("qsim.product_state", ("qsim", "approx_protocol", "exact_protocol"), "product_state")
)

# per-layer metric -> (kind, source); kind is "incl", "self", "calls" or "count"
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "net.build_net_s": ("incl", "net.build_net"),
    "net.build_net_calls": ("calls", "net.build_net"),
    "net.nearest_s": ("incl", "net.nearest"),
    "net.nearest_calls": ("calls", "net.nearest"),
    "qgbuilder.geometry_s": ("incl", "qgbuilder.geometry"),
    "qgbuilder.classes": ("count", "qgbuilder.geometry"),
    "qgbuilder.matching_pass_s": ("self", "qgbuilder.matching_pass"),
    "qgbuilder.candidate_edges_s": ("incl", "qgbuilder.candidate_edges"),
    "qgbuilder.candidate_edges": ("count", "qgbuilder.candidate_edges"),
    "qgbuilder.max_flow_s": ("incl", "qgbuilder.max_flow"),
    "qgbuilder.max_flow_calls": ("calls", "qgbuilder.max_flow"),
    "qgbuilder.expand_column_s": ("incl", "qgbuilder.expand_column"),
    "qgbuilder.expand_column_calls": ("calls", "qgbuilder.expand_column"),
    "qgbuilder.dense_match_s": ("incl", "qgbuilder.dense_graph+qgbuilder.dense_matching"),
    "qgbuilder.dense_graphs": ("calls", "qgbuilder.dense_graph"),
    "qgbuilder.finish_build_s": ("self", "qgbuilder.finish_build"),
    "qgbuilder.assemble_attempts": ("count", "qgbuilder.assemble"),
    "qgbuilder.assemble_accepts": ("count", "qgbuilder.assemble"),
    "algebra.certify_s": ("incl", "algebra.certify"),
    "algebra.validate_s": ("incl", "algebra.validate"),
    "algebra.table_bytes": ("count", "algebra.validate"),
    "compiler.error_budget_s": ("incl", "compiler.error_budget"),
    "approx_protocol.dilation_error_s": ("incl", "approx_protocol.dilation_error"),
    "approx_protocol.measured_s": ("incl", "approx_protocol.measured"),
    "approx_protocol.measured_calls": ("calls", "approx_protocol.measured"),
    "approx_protocol.hidden_s": ("incl", "approx_protocol.hidden"),
    "approx_protocol.hidden_calls": ("calls", "approx_protocol.hidden"),
    "approx_protocol.choi_s": ("incl", "approx_protocol.choi"),
    "approx_protocol.choi_calls": ("calls", "approx_protocol.choi"),
    "exact_protocol.run_s": ("incl", "exact_protocol.run"),
    "exact_protocol.run_calls": ("calls", "exact_protocol.run"),
    "exact_protocol.branches": ("count", "exact_protocol.run"),
    "qsim.apply_on_s": ("incl", "qsim.apply_on"),
    "qsim.apply_on_calls": ("calls", "qsim.apply_on"),
    "qsim.measure_s": ("incl", "qsim.measure"),
    "qsim.branches": ("count", "qsim.measure"),
    "qsim.partial_trace_s": ("incl", "qsim.partial_trace"),
    "qsim.product_state_s": ("incl", "qsim.product_state"),
}

# metrics about the trace itself, always present in a traced run
TRACE_METRICS = ("qgbuilder.accept_ratio", "trace.overhead_s", "trace.overhead_est_s",
                 "trace.wall_s", "trace.unattributed_s", "trace.spans", "trace.missing_hooks")


def _resolve(target: str):
    """(owner, attribute name, current value) of a hook target, or None if gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, timed on a no-op in a scratch tracer."""
    def noop():
        return None

    scratch = Tracer()
    scratch.active = True
    wrapped = scratch.wrap(noop, "calibration", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


class Tracer:
    """In-memory span recorder; single-threaded, like the workloads it traces."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name_id, start, end, parent, op]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.active = False
        self.op = -1
        self.phase = "setup"
        self.ops: list[tuple[int, str, str]] = []   # (op id, phase, label)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # ------------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def start_op(self, label: str) -> None:
        self.op += 1
        self.ops.append((self.op, self.phase, label))

    def wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if count is not None:
                for key, amount in count(out, args).items():
                    if isinstance(amount, tuple):
                        tracer.counters[key] = max(tracer.counters[key], amount[1])
                    else:
                        tracer.counters[key] += amount
            return out

        return traced

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            found = _resolve(hook.target)
            if found is None:
                self.missing.append(hook.target)
                continue
            owner, attr, fn = found
            setattr(owner, attr, self.wrap(fn, hook.span, hook.count))
            self._undo.append((owner, attr, fn))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # ---------------------------------------------------------------- metrics

    def missing_spans(self, hooks=HOOKS) -> set[str]:
        gone = set(self.missing)
        return {h.span for h in hooks if h.target in gone}

    def totals(self, phase: str | None = None):
        """Per span name: inclusive seconds, self seconds and call count."""
        keep_ops = {op for op, ph, _ in self.ops if phase is None or ph == phase}
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (nid, start, end, _, op) in enumerate(self.spans):
            if op not in keep_ops:
                continue
            name = self.names[nid]
            incl[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return incl, own, calls

    def layer_metrics(self, hooks=HOOKS) -> dict[str, float]:
        """Every per-layer metric whose hooks are all in place."""
        incl, own, calls = self.totals()
        gone = self.missing_spans(hooks)
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            parts = source.split("+")
            if any(p in gone for p in parts):
                continue
            if kind == "incl":
                out[metric] = sum(incl[p] for p in parts)
            elif kind == "self":
                out[metric] = sum(own[p] for p in parts)
            elif kind == "calls":
                out[metric] = float(sum(calls[p] for p in parts))
            else:
                out[metric] = float(self.counters.get(metric, 0))
        if "qgbuilder.assemble" not in gone:
            attempts = self.counters.get("qgbuilder.assemble_attempts", 0)
            accepts = self.counters.get("qgbuilder.assemble_accepts", 0)
            out["qgbuilder.accept_ratio"] = accepts / attempts if attempts else 0.0
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span and counter as one gzipped JSON document."""
        doc = {"meta": meta, "names": self.names,
               "columns": ["name", "start", "end", "parent", "op"],
               "spans": self.spans, "ops": self.ops,
               "counters": dict(self.counters), "missing_hooks": self.missing}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
