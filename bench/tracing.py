"""Per-layer tracing of the package, installed from outside it.

`Tracer.install` rebinds the public functions of each layer, in every kfour
module that imported them, to wrappers that record a span (name, start, end,
parent, op id) in flat arrays; functions that take only a few microseconds
(`FgGroup.canonical`, `CohomologyRing.require_valid`) are counted instead.
After the traced batch, `layer_metrics` turns the spans into the per-layer
metrics, where a span's self time is its duration minus its child spans, and
`write` dumps every span as tab-separated text.  Spans are timed on the
process CPU clock, like every time the benchmark reports.
"""

from __future__ import annotations

import resource
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name); a dotted attribute is a method
SPANS = (
    ("kfour.abelian", "smith_normal_form", "abelian.snf"),
    ("kfour.cohomology", "CohomologyRing.cup", "cohomology.cup"),
    ("kfour.kclasses", "k_add", "kclasses.add"),
    ("kfour.kclasses", "k_neg", "kclasses.neg"),
    ("kfour.kclasses", "k_mul", "kclasses.mul"),
    ("kfour.kclasses", "k_pow", "kclasses.pow"),
    ("kfour.structure", "full_k_structure", "structure"),
    ("kfour.structure", "reduced_k_structure", "structure"),
    ("kfour.oracle", "verify_relations", "oracle.relations"),
    ("kfour.oracle", "verify_ring_axioms", "oracle.axioms"),
    ("kfour.oracle", "oracle_reduced_group", "oracle.group"),
    ("kfour.oracle", "oracle_compare", "oracle.compare"),
    ("kfour.dsl", "parse_ring", "dsl.parse_ring"),
    ("kfour.dsl", "eval_expr", "dsl.eval_expr"),
)
COUNTS = (
    ("kfour.abelian", "FgGroup.canonical", "abelian.canonical"),
    ("kfour.cohomology", "CohomologyRing.require_valid", "cohomology.require_valid"),
)
ENGINE = ("kclasses.add", "kclasses.neg", "kclasses.mul", "kclasses.pow")

# per-layer metric name -> unit, in the order they are reported
UNITS = {
    "abelian.canonical_calls": "count",
    "abelian.snf_calls": "count",
    "abelian.snf_s": "s",
    "abelian.snf_max_cells": "cells",
    "cohomology.cup_calls": "count",
    "cohomology.cup_s": "s",
    "cohomology.require_valid_calls": "count",
    "kclasses.add_calls": "count",
    "kclasses.neg_calls": "count",
    "kclasses.mul_calls": "count",
    "kclasses.pow_calls": "count",
    "kclasses.add_self_s": "s",
    "kclasses.mul_self_s": "s",
    "kclasses.pow_self_s": "s",
    "structure.calls": "count",
    "structure.s": "s",
    "oracle.relation_instances": "count",
    "oracle.relations_s": "s",
    "oracle.axiom_instances": "count",
    "oracle.axioms_s": "s",
    "oracle.axioms_engine_calls": "count",
    "oracle.axiom_instances_per_engine_call": "instances/call",
    "oracle.group_s": "s",
    "oracle.group_matrix_rows": "rows",
    "dsl.parse_ring_calls": "count",
    "dsl.parse_ring_s": "s",
    "dsl.eval_expr_self_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.interpreter_s": "s",
    "trace.overhead_s": "s",
}


def children_cpu_ns() -> int:
    """User plus system time of the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def cpu_ns() -> int:
    """The benchmark's clock: CPU time of this process and of its children.

    Wall time on a shared host includes time stolen by other tenants, which
    no change to the program can move; CPU time does not.
    """
    return time.process_time_ns() + children_cpu_ns()


def rebind(original, replacement) -> None:
    """Point every name bound to `original` in a loaded kfour module at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kfour":
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_id = array("i")
        self.stack: list[int] = []
        self.op = 0  # id of the benchmark op being executed, set by the harness
        self.counts: Counter[str] = Counter()
        self.snf_max_cells = 0
        self.group_matrix_rows = 0
        self.relation_instances = 0
        self.axiom_instances = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add_span(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Record a span timed elsewhere (on a CPU clock, in ns); returns its index."""
        self.kind.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op_id.append(self.op)
        return len(self.kind) - 1

    def _timed(self, name: str, fn):
        nid = self._name_id(name)
        kind, start, end, parent, op_id, stack = (
            self.kind, self.start, self.end, self.parent, self.op_id, self.stack
        )
        clock = time.process_time_ns
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(tracer.op)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_abelian_snf(self, idx, args, result) -> None:
        m = args[0]
        self.snf_max_cells = max(self.snf_max_cells, m.rows * m.cols)
        up = self.parent[idx]
        if up >= 0 and self.names[self.kind[up]] == "oracle.group":
            self.group_matrix_rows += m.rows

    def _after_oracle_relations(self, idx, args, result) -> None:
        self.relation_instances += result.total_instances

    def _after_oracle_axioms(self, idx, args, result) -> None:
        self.axiom_instances += result.total_instances

    def install(self) -> None:
        """Rebind every traced name in the loaded kfour modules."""
        for table, make in ((SPANS, self._timed), (COUNTS, self._counted)):
            for module, attr, name in table:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, method, make(name, getattr(cls, method)))
                else:
                    original = getattr(owner, attr)
                    rebind(original, make(name, original))

    def _durations(self):
        n = len(self.kind)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, child

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        dur, child = self._durations()
        names, kind, parent = self.names, self.kind, self.parent
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()  # inclusive ns, outermost span of a name only
        self_ns: Counter[str] = Counter()
        engine_calls = 0
        for i in range(len(kind)):
            name = names[kind[i]]
            calls[name] += 1
            up = parent[i]
            up_name = names[kind[up]] if up >= 0 else None
            if up_name != name:
                total[name] += dur[i]
            self_ns[name] += dur[i] - child[i]
            if up_name == "oracle.axioms" and name in ENGINE:
                engine_calls += 1
        s = lambda ns: ns / 1e9  # noqa: E731
        out = {
            "abelian.canonical_calls": self.counts["abelian.canonical"],
            "abelian.snf_calls": calls["abelian.snf"],
            "abelian.snf_s": s(total["abelian.snf"]),
            "abelian.snf_max_cells": self.snf_max_cells,
            "cohomology.cup_calls": calls["cohomology.cup"],
            "cohomology.cup_s": s(total["cohomology.cup"]),
            "cohomology.require_valid_calls": self.counts["cohomology.require_valid"],
            "kclasses.add_calls": calls["kclasses.add"],
            "kclasses.neg_calls": calls["kclasses.neg"],
            "kclasses.mul_calls": calls["kclasses.mul"],
            "kclasses.pow_calls": calls["kclasses.pow"],
            "kclasses.add_self_s": s(self_ns["kclasses.add"]),
            "kclasses.mul_self_s": s(self_ns["kclasses.mul"]),
            "kclasses.pow_self_s": s(self_ns["kclasses.pow"]),
            "structure.calls": calls["structure"],
            "structure.s": s(total["structure"]),
            "oracle.relation_instances": self.relation_instances,
            "oracle.relations_s": s(total["oracle.relations"]),
            "oracle.axiom_instances": self.axiom_instances,
            "oracle.axioms_s": s(total["oracle.axioms"]),
            "oracle.axioms_engine_calls": engine_calls,
            "oracle.axiom_instances_per_engine_call": (
                self.axiom_instances / engine_calls if engine_calls else 0.0
            ),
            "oracle.group_s": s(total["oracle.group"]),
            "oracle.group_matrix_rows": self.group_matrix_rows,
            "dsl.parse_ring_calls": calls["dsl.parse_ring"],
            "dsl.parse_ring_s": s(total["dsl.parse_ring"]),
            "dsl.eval_expr_self_s": s(self_ns["dsl.eval_expr"]),
            "cli.import_s": s(total["cli.import"]),
            "cli.main_s": s(total["cli.main"]),
            "cli.interpreter_s": s(self_ns["cli.process"]),
        }
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds of self time per layer (first part of the span name)."""
        dur, child = self._durations()
        out: Counter[str] = Counter()
        for i in range(len(self.kind)):
            out[self.names[self.kind[i]].split(".")[0]] += dur[i] - child[i]
        return {layer: ns / 1e9 for layer, ns in sorted(out.items())}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.kind)):
                out.write(
                    f"{i}\t{self.names[self.kind[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.op_id[i]}\n"
                )
