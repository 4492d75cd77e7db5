"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of each relfd module at
every name it is bound to: the module attribute and each copy a
`from ... import` made in another module (`fd.pid`, `search.attr_closure`,
`laws.satisfies_typed`, ...).  A cached function is wrapped around its cache,
so the cache stays in place.  The law sweeps, which the law registry holds
rather than a module, are wrapped in the registry.

Each wrapped call records a span (name, start, end, parent span, request id)
in memory; a direct recursive call records none, so a recursive function's
span covers its whole recursion.  Counters are taken at the same
boundaries.  `dump` writes spans and counters out when the run ends, and
`layer_metrics` turns them into the per-layer metrics: a span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import math
import os
import statistics
import time
from array import array
from collections import Counter, defaultdict

import workloads

LAYERS = ("cli", "tables", "fd", "rel", "infer", "query", "search", "laws",
          "bitrel")
COMMANDS = ("check", "optimize", "closure", "derive", "cex", "laws")
LAWS = workloads.SOUND_LAWS + workloads.CORRUPTED_LAWS
# the op-table builders behind the law sweeps, all cached
BITREL_BUILDERS = ("canonical_carrier", "mats", "compose_table",
                   "converse_table", "kernel_table", "domain_table",
                   "function_masks", "fork_kernel_table")
REL_BUILDERS = ("compose", "converse", "union", "intersect", "fork")


def _law_assignments(law, sizes: dict) -> int:
    """Assignments one sweep covers: n^m functions or 2^(m*n) relations
    per variable of carrier sizes (m, n)."""
    total = 1
    for v in law.variables:
        m, n = sizes[v.source], sizes[v.target]
        total *= n ** m if v.function else 2 ** (m * n)
    return total


class Tracer:
    def __init__(self, raw_rows: dict | None = None):
        self.raw_rows = raw_rows or {}
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_request = array("i")
        self.stack: list[tuple[int, int]] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self.undo: list = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def _open(self, ix: int) -> int:
        span = len(self.span_name)
        self.span_name.append(ix)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_request.append(self.request)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append((span, ix))
        return span

    def wrap(self, fn, name: str, hook=None):
        ix = self._name(name)
        stack, clock = self.stack, time.perf_counter
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, ix)

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == ix:
                return fn(*args, **kwargs)
            span = self._open(ix)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_start[span] = start
                self.span_end[span] = end
            if hook is not None:
                hook(self, args, kwargs, result, end - start)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_generator(self, fn, ix):
        stack, clock = self.stack, time.perf_counter
        search_ix = self._name("search.search_tables")

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            for_search = bool(stack) and stack[-1][1] == search_ix
            while True:
                span = self._open(ix)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    self.span_start[span] = start
                    self.span_end[span] = end
                self.counts["tables.enumerate_tables.yielded"] += 1
                if for_search:
                    self.counts["search.candidates"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding site of every public relfd function."""
        mods = {m: importlib.import_module(f"relfd.{m}") for m in LAYERS}
        self.builders = [getattr(mods["bitrel"], f) for f in BITREL_BUILDERS]
        self.misses0 = self._bitrel_misses()
        self.count_pid_nodes = mods["query"].count_pid_nodes
        wrapped: dict[int, object] = {}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                origin = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type)
                        or not origin.startswith("relfd.")
                        or not (inspect.isfunction(obj)
                                or hasattr(obj, "cache_info"))):
                    continue
                if id(obj) not in wrapped:
                    name = f"{origin.split('.')[1]}.{obj.__name__}"
                    wrapped[id(obj)] = self.wrap(obj, name, HOOKS.get(name))
                setattr(mod, attr, wrapped[id(obj)])
                self.undo.append((mod, attr, obj))
        registry = mods["laws"].LAW_REGISTRY
        for law_id, law in list(registry.items()):
            registry[law_id] = dataclasses.replace(
                law,
                sweep=self.wrap(law.sweep, "laws.sweep", _sweep_hook(law)),
                holds=self.wrap(law.holds, "laws.holds"))
            self.undo.append((registry, law_id, law))

    def uninstall(self) -> None:
        self.counts["bitrel.cache_misses"] = (self._bitrel_misses()
                                              - self.misses0)
        for target, key, original in reversed(self.undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self.undo.clear()

    def _bitrel_misses(self) -> int:
        return sum(f.cache_info().misses for f in self.builders)

    def dump(self, directory: str) -> None:
        """Write spans and counters out; `load` reads them back."""
        with open(os.path.join(directory, "spans.bin"), "wb") as fh:
            for col in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_request):
                col.tofile(fh)
        with open(os.path.join(directory, "spans.json"), "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_name),
                       "counts": self.counts, "samples": self.samples}, fh)


# -- counters at the wrapped boundaries ------------------------------------


def _cli_main(t, args, kwargs, result, dt):
    argv = args[0] if args else kwargs.get("argv")
    if argv:
        t.samples[f"cli.{argv[0]}"].append(dt)


def _load_table(t, args, kwargs, result, dt):
    kept = len(result.rows)
    t.counts["tables.rows_loaded"] += kept
    t.counts["tables.rows_dropped"] += t.raw_rows.get(args[0], kept) - kept


def _pid(t, args, kwargs, result, dt):
    t.counts["tables.universe_rows"] += len(result.source)


def _oracle(t, args, kwargs, result, dt):
    t.counts["fd.checks"] += 1
    t.counts["fd.refuted"] += not result


def _rel_builder(name):
    def hook(t, args, kwargs, result, dt):
        t.counts[f"rel.{name}.calls"] += 1
        t.counts["rel.pairs_out"] += len(result.pairs)
        t.counts["rel.max_carrier"] = max(t.counts["rel.max_carrier"],
                                          len(result.source),
                                          len(result.target))
    return hook


def _counter(key):
    def hook(t, args, kwargs, result, dt):
        t.counts[key] += 1
    return hook


def _derive(t, args, kwargs, result, dt):
    t.counts["infer.derive.calls"] += 1
    if result is not None:  # nodes of the tree as printed: shared subtrees
        sizes: dict = {}   # count once per occurrence
        stack = [result]
        while stack:
            node = stack[-1]
            pending = [p for p in node.premises if id(p) not in sizes]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            sizes[id(node)] = 1 + sum(sizes[id(p)] for p in node.premises)
        t.counts["infer.derivation_nodes"] += sizes[id(result)]


def _rewrite(t, args, kwargs, result, dt):
    t.counts["query.windows_fired"] += (t.count_pid_nodes(args[0])
                                        - t.count_pid_nodes(result))


def _verify(t, args, kwargs, result, dt):
    t.counts["query.counterexamples"] += not result


def _search_law(t, args, kwargs, result, dt):
    law_id, scope = args[0], args[1]
    if scope.max_carrier == 3:
        t.samples[f"laws.{law_id}"].append(dt)


def _sweep_hook(law):
    def hook(t, args, kwargs, result, dt):
        t.counts["laws.assignments"] += _law_assignments(law, args[0])
    return hook


HOOKS = {
    "cli.main": _cli_main,
    "tables.load_table": _load_table,
    "tables.pid": _pid,
    "fd.satisfies_oracle": _oracle,
    "infer.attr_closure": _counter("infer.attr_closure.calls"),
    "infer.derive": _derive,
    "query.rewrite_selfjoin": _rewrite,
    "query.verify_equiv": _verify,
    "search.search_tables": _counter("search.search_tables.calls"),
    "search.search_law": _search_law,
    **{f"rel.{n}": _rel_builder(n) for n in REL_BUILDERS},
}


# -- aggregation -------------------------------------------------------------


def load(directory: str) -> dict:
    with open(os.path.join(directory, "spans.json")) as fh:
        meta = json.load(fh)
    n = meta["spans"]
    cols = [array(code) for code in "iddqi"]
    with open(os.path.join(directory, "spans.bin"), "rb") as fh:
        for col in cols:
            col.fromfile(fh, n)
    meta["columns"] = cols
    return meta


def self_times(meta: dict) -> dict[str, float]:
    """Per function: summed span durations minus their child spans'."""
    names, start, end, parent, _ = meta["columns"]
    own = [0.0] * len(meta["names"])
    for i in range(len(names)):
        dur = end[i] - start[i]
        own[names[i]] += dur
        if parent[i] >= 0:
            own[names[parent[i]]] -= dur
    return dict(zip(meta["names"], own))


def layer_metrics(meta: dict, exit_mismatch: int, overhead: float,
                  wanted: list[dict]) -> dict:
    """The metrics named in `wanted` (BENCHMARK.json's `per_layer` list)."""
    own = self_times(meta)
    counts = Counter(meta["counts"])
    samples = meta["samples"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                     if k.split(".")[0] == layer)
    for c in COMMANDS:
        vals = samples.get(f"cli.{c}", [])
        out[f"cli.{c}.p50_s"] = statistics.median(vals) if vals else 0.0
    out["cli.exit_mismatch"] = exit_mismatch
    out["bitrel.table_build.self_s"] = sum(own.get(f"bitrel.{f}", 0.0)
                                           for f in BITREL_BUILDERS)
    out["fd.refuted_share"] = (counts["fd.refuted"] / counts["fd.checks"]
                               if counts["fd.checks"] else 0.0)
    verdicts = counts["search.search_tables.calls"]
    out["search.candidates_per_verdict"] = (
        counts["search.candidates"] / verdicts if verdicts else 0.0)
    for law in LAWS:
        out[f"laws.{law}.s"] = math.fsum(samples.get(f"laws.{law}", []))
    out["trace.overhead_frac"] = overhead
    for m in wanted:
        if m["name"] not in out:
            out[m["name"]] = (own.get(m["name"].removesuffix(".self_s"), 0.0)
                              if m["name"].endswith(".self_s")
                              else counts[m["name"]])
    return {m["name"]: {"value": out[m["name"]], "unit": m["unit"]}
            for m in wanted}
