"""Span tracing of the library's layers, installed from outside.

The tracer replaces public functions of the package modules (and a few
named methods) with wrappers that record one span per call: name, start,
end, the index of the enclosing span and an optional probe value computed
from the arguments (for example nnz(a) * nnz(b) for a group-ring product).
Nothing under ``src/`` is edited; the wrappers are installed on the module
and class objects after import, in every package module that imported a
wrapped function by name.

Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the durations of its direct children;
children of one span never overlap because the library is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "fermat_homology"

# Modules whose public module-level functions are traced; the first part
# of every span name is the layer.
LAYERS = (
    "scalars",
    "group_ring",
    "fp_linalg",
    "homology",
    "cohomology",
    "bsigma",
    "galois_kummer",
    "cyclotomic",
    "reference_tables",
    "reproduction",
    "cli",
)

# Short span names for functions whose metric names the benchmark fixes.
ALIASES = {
    ("reproduction", "run_reproduction"): "reproduction.run",
    ("cyclotomic", "verify_cyclotomic_identities"): "cyclotomic.verify",
    ("reference_tables", "load_tables"): "reference_tables.load",
}

PROBE_SPAN = "trace.probe"


def _nnz(element) -> int:
    zero = element.ring.zero
    return len(element.coeffs) - element.coeffs.count(zero)


def _mul_pairs(a, b) -> int:
    return _nnz(a) * _nnz(b)


def _cells(*args, **kwargs) -> int:
    """rows x cols summed over the matrix-like arguments of an fp_linalg call.

    A matrix is an object with ``rows`` and ``cols``, or a list/tuple of
    vectors.  Iterators are never inspected, so probing consumes nothing.
    """
    total = 0
    for arg in list(args) + list(kwargs.values()):
        if hasattr(arg, "rows") and hasattr(arg, "cols"):
            total += arg.rows * arg.cols
        elif isinstance(arg, (list, tuple)) and arg and isinstance(arg[0], (list, tuple)):
            total += len(arg) * len(arg[0])
    return total


def _basis_rows(b, basis, *args, **kwargs) -> int:
    return len(basis)


# (module, class, attribute) -> (span name, probe).  The methods traced in
# addition to the public module-level functions.
METHODS = {
    ("group_ring", "GroupRingElement", "__mul__"): ("group_ring.mul", _mul_pairs),
    ("group_ring", "GroupRingElement", "substitute"): ("group_ring.substitute", None),
    ("scalars", "PrimeExtensionField", "mul"): ("scalars.ext_mul", None),
    ("fp_linalg", "FpMatrix", "__matmul__"): ("fp_linalg.matmul", _cells),
    ("cohomology", "GModule", "__post_init__"): ("cohomology.gmodule_check", None),
}

# Private functions traced because a per-layer metric counts them.
PRIVATE = {("fp_linalg", "_rref"): "fp_linalg.eliminate"}

PROBES = {"homology.action_matrix": _basis_rows}
LAYER_PROBES = {"fp_linalg": _cells}


class Tracer:
    """Collects spans in memory; ``wrap`` makes a traced copy of a callable."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # Each span is [name, start, end, parent index or -1, probe value].
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = None
            if probe is not None:
                # The probe is a span of its own so that its cost is not
                # charged to the enclosing span's self time.
                t = clock()
                value = probe(*args, **kwargs)
                spans.append([PROBE_SPAN, t, clock(), stack[-1], None])
            span = [name, 0.0, 0.0, stack[-1], value]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "probe"], "spans": self.spans},
                fh,
            )


def _package_modules() -> list:
    prefix = PACKAGE + "."
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(prefix))
    ]


def _targets() -> dict:
    """Map id(original callable) -> (callable, span name, probe)."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = ALIASES.get((layer, attr), f"{layer}.{attr}")
            found[id(obj)] = (obj, name, PROBES.get(name, LAYER_PROBES.get(layer)))
    for (layer, attr), name in PRIVATE.items():
        obj = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), attr, None)
        if callable(obj):
            found[id(obj)] = (obj, name, None)
    return found


def install(tracer: Tracer) -> None:
    """Wrap every traced callable wherever the package refers to it by name.

    Functions or methods the package no longer has are skipped, so their
    metrics read 0.
    """
    wrappers = {key: tracer.wrap(name, obj, probe) for key, (obj, name, probe) in _targets().items()}
    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
    for (layer, cls_name, attr), (name, probe) in METHODS.items():
        cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
        fn = vars(cls).get(attr) if isinstance(cls, type) else None
        if fn is not None:
            setattr(cls, attr, tracer.wrap(name, fn, probe))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Additive statistics of one traced process, keyed by statistic name.

    For every span name: ``<name>.calls``, ``<name>.self_s``,
    ``<name>.total_s`` (durations of calls not nested in a call of the same
    name), ``<name>.probe`` (probe values summed) and, per layer,
    ``layer.<layer>.self_s``, ``<layer>.outer_calls``, ``<layer>.outer_s``
    and ``<layer>.outer_probe`` over the calls not nested in that layer.
    ``inside.<outer>.<inner>`` counts calls of ``inner`` nested anywhere
    below a call of ``outer``.  All values add across processes.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    # Names and layers of every ancestor, shared between siblings.
    enclosing: list[frozenset] = [frozenset()] * n
    cache: dict[int, frozenset] = {-1: frozenset()}
    stats: dict[str, float] = {}

    def add(key, value):
        stats[key] = stats.get(key, 0) + value

    for i, (name, start, end, parent, probe) in enumerate(spans):
        outer = cache.get(parent)
        if outer is None:
            pname = spans[parent][0]
            outer = enclosing[parent] | {pname, layer_of(pname)}
            cache[parent] = outer
        enclosing[i] = outer
        if name == PROBE_SPAN:
            add("trace.probe_s", end - start)
            continue
        layer = layer_of(name)
        duration = end - start
        self_s = duration - child_time[i]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        add(f"layer.{layer}.self_s", self_s)
        if probe is not None:
            add(f"{name}.probe", probe)
        if name not in outer:
            add(f"{name}.total_s", duration)
        if layer not in outer:
            add(f"{layer}.outer_calls", 1)
            add(f"{layer}.outer_s", duration)
            if probe is not None:
                add(f"{layer}.outer_probe", probe)
        for anc in outer:
            if "." in anc:
                add(f"inside.{anc}.{name}", 1)
    add("trace.spans", n)
    return stats


def merge(parts) -> dict:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, mul_table_entries: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from merged statistics."""
    s = lambda key: stats.get(key, 0)  # noqa: E731
    invert_calls = s("group_ring.invert.calls")
    am_rows = s("homology.action_matrix.probe")
    hg_calls = s("cohomology.h_groups.calls")
    metrics = {
        "group_ring.mul.calls": s("group_ring.mul.calls"),
        "group_ring.mul.self_s": s("group_ring.mul.self_s"),
        "group_ring.mul.coeff_pairs": s("group_ring.mul.probe"),
        "group_ring.invert.calls": invert_calls,
        "group_ring.invert.self_s": s("group_ring.invert.self_s"),
        "group_ring.invert.muls_per_call": _ratio(
            s("inside.group_ring.invert.group_ring.mul"), invert_calls
        ),
        "group_ring.substitute.self_s": s("group_ring.substitute.self_s"),
        "group_ring.mul_table.entries": mul_table_entries,
        "scalars.ext_mul.calls": s("scalars.ext_mul.calls"),
        "scalars.ext_mul.self_s": s("scalars.ext_mul.self_s"),
        "fp_linalg.calls": s("fp_linalg.outer_calls"),
        "fp_linalg.self_s": s("layer.fp_linalg.self_s"),
        "fp_linalg.cells": s("fp_linalg.outer_probe"),
        "fp_linalg.solve.calls": s("fp_linalg.solve.calls"),
        "fp_linalg.matmul.self_s": s("fp_linalg.matmul.self_s"),
        "fp_linalg.eliminate.calls": s("fp_linalg.eliminate.calls"),
        "homology.action_matrix.calls": s("homology.action_matrix.calls"),
        "homology.action_matrix.self_s": s("homology.action_matrix.self_s"),
        "homology.action_matrix.solves_per_row": _ratio(
            s("inside.homology.action_matrix.fp_linalg.solve"), am_rows
        ),
        "cohomology.h_groups.calls": hg_calls,
        "cohomology.h_groups.self_s": s("cohomology.h_groups.self_s"),
        "cohomology.h_groups.fp_calls_per_call": _ratio(
            s("inside.cohomology.h_groups.fp_linalg.eliminate"), hg_calls
        ),
        "cohomology.gmodule_check.total_s": s("cohomology.gmodule_check.total_s"),
        "bsigma.total_s": s("bsigma.outer_s"),
        "cyclotomic.verify.total_s": s("cyclotomic.verify.total_s"),
        "galois_kummer.total_s": s("galois_kummer.outer_s"),
        "reproduction.run.self_s": s("reproduction.run.self_s"),
        "cli.main.self_s": s("cli.main.self_s"),
        "reference_tables.load.total_s": s("reference_tables.load.total_s"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = s(f"layer.{layer}.self_s")
    metrics["trace.spans"] = s("trace.spans")
    return metrics


def metric_unit(name: str) -> str:
    if name.endswith(("_per_call", "_per_row")):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def mul_table_entries() -> int:
    """Cells held by group_ring._MUL_TABLES, read from outside; 0 if absent."""
    tables = getattr(sys.modules.get(f"{PACKAGE}.group_ring"), "_MUL_TABLES", None)
    if not isinstance(tables, dict):
        return 0
    return sum(len(t) * (len(t[0]) if t else 0) for t in tables.values())
