"""Span tracing from outside the program, for the benchmark's traced run.

`Tracer.install` replaces every public function of the `ncf` modules with a
wrapper that records a span, in the defining module and wherever another
module bound the same function by import (e.g. `ncf.gausskuzmin.apply_transfer`).
`DensityFunction.__post_init__`, the quadrature each density construction
runs, is wrapped as `measure.DensityFunction`.  Spans are kept in memory as
(name id, start ns, end ns, parent index, task, meta) and summarised at the
end; `uninstall` restores the originals.  Nothing inside `src/ncf` changes.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("core", "measure", "transfer", "rscc", "gausskuzmin", "cli")

# Prefix of the stderr line on which a traced CLI process hands back its spans.
MARKER = "@@perfbench-spans@@ "


def _apply_meta(default_cutoff):
    """Meta of an apply_transfer call: (M, N, effective i_max).  The
    package's own default_branch_cutoff, unwrapped, fills in a missing i_max."""
    def meta(args, kwargs):
        f, params = args[0], args[1]
        i_max = args[2] if len(args) > 2 else kwargs.get("i_max")
        if i_max is None:
            i_max = default_cutoff(params)
        return (f.values.size - 1, params.n_param, i_max)

    return meta


def _method_meta(args, kwargs):
    return kwargs.get("method", args[4] if len(args) > 4 else "operator")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.stack: list = []      # indices of the open spans
        self.open_ids: list = []   # their name ids, innermost last
        self.task = None
        self.counts = Counter()
        self.setup_end = 0         # spans before this index belong to set-up
        self._ids: dict = {}
        self._patches: list = []
        self._meta: dict = {}      # span name -> meta(args, kwargs)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        nid = self.name_id(name)
        meta = self._meta.get(name)
        spans, stack, open_ids = self.spans, self.stack, self.open_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_ids.append(nid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                open_ids.pop()
                spans[idx] = (nid, t0, t1, parent, self.task,
                              meta(args, kwargs) if meta else None)

        return wrapper

    def _count_contraction_words(self, make_system):
        """Give continued-fraction systems a transition that counts the word
        prefixes enumerated inside contraction_coefficients (two transition
        evaluations, one per state of the pair, per prefix)."""
        target = self.name_id("rscc.contraction_coefficients")

        @functools.wraps(make_system)
        def make(*args, **kwargs):
            sys_ = make_system(*args, **kwargs)
            inner = sys_.transition

            def transition(w, i):
                if self.open_ids and self.open_ids[-1] == target:
                    self.counts["rscc.contraction.transitions"] += 1
                return inner(w, i)

            return dataclasses.replace(sys_, transition=transition)

        return make

    def install(self) -> None:
        import ncf
        self._meta = {
            "transfer.apply_transfer": _apply_meta(ncf.transfer.default_branch_cutoff),
            "gausskuzmin.distribution_at": _method_meta,
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "ncf" or name.startswith("ncf.")]
        originals = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"ncf.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[obj] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        make = ncf.rscc.make_ncf_rscc
        wrappers[make] = self._wrap(self._count_contraction_words(make), originals[make])
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        dens = ncf.measure.DensityFunction
        self._patch(dens, "__post_init__", self._wrap(dens.__post_init__, "measure.DensityFunction"))

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    @contextmanager
    def span(self, name: str, meta=None):
        """A span recorded by the harness itself (a task, a CLI process)."""
        nid = self.name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        self.open_ids.append(nid)
        t0 = perf_counter_ns()
        try:
            yield idx
        finally:
            t1 = perf_counter_ns()
            self.stack.pop()
            self.open_ids.pop()
            self.spans[idx] = (nid, t0, t1, parent, self.task, meta)

    def adopt(self, foreign: dict, parent: int) -> None:
        """Merge spans recorded in another process (same monotonic clock)
        under the span `parent` of this one."""
        base = len(self.spans)
        ids = [self.name_id(n) for n in foreign["names"]]
        for nid, t0, t1, par, _task, meta in foreign["spans"]:
            self.spans.append((ids[nid], t0, t1, parent if par < 0 else base + par,
                               self.task, meta))
        self.counts.update(foreign.get("counts", {}))

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def summarise(names: list, spans: list, start: int, end: int) -> dict:
    """Self time per layer and per span name, calls and durations per name,
    for spans[start:end] (one traced pass).  A span's self time is its
    duration minus the durations of its direct children."""
    child_ns = defaultdict(int)
    for nid, t0, t1, parent, _task, _meta in spans[start:end]:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    layer_self = Counter()
    by_name_self = Counter()
    by_name_calls = Counter()
    by_name_dur = defaultdict(list)
    for idx in range(start, end):
        nid, t0, t1, parent, _task, _meta = spans[idx]
        name = names[nid]
        own = (t1 - t0) - child_ns[idx]
        layer_self[layer_of(name)] += own
        by_name_self[name] += own
        by_name_calls[name] += 1
        by_name_dur[name].append(t1 - t0)
    return {"layer_self_ns": layer_self, "self_ns": by_name_self,
            "calls": by_name_calls, "durations_ns": by_name_dur}


def ancestors_named(names: list, spans: list, idx: int, wanted: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if names[spans[parent][0]] == wanted:
            return True
        parent = spans[parent][3]
    return False
