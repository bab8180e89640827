"""In-memory span tracing of spinlab's public functions, from outside the package.

`Tracer.install()` wraps every public function of each traced spinlab module,
plus a few named methods, and rebinds the wrapper wherever a spinlab module
holds the same object (``block_dyn`` imports ``sw_chain`` by name, ``cli``
imports ``parallel_map``). Spans are aggregated in memory by (name, parent);
a span's self time is its duration minus the time covered by its children.
Names the benchmark expects but cannot find are reported as missing, never
raised, so the tracer keeps working when a later version renames or deletes
a function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time

PACKAGE = "spinlab"

# Modules whose public functions are wrapped; each is a layer.
LAYERS = ("graphs", "measures", "ising", "curie_weiss", "clue", "block_dyn", "dac",
          "rng", "cli")

# Methods wrapped in addition to module-level functions: (module, class, method).
METHODS = (
    ("ising", "ConditionalGibbsSampler", "resample_free"),
    ("measures", "ProbabilityTable", "conditional_mean"),
    ("graphs", "Graph", "neighbor_lists"),
)

# Spans the per-layer metrics are built from; absent ones are reported missing.
EXPECTED = (
    "ising.glauber_sweep", "ising.swendsen_wang_step", "ising.resample_free",
    "graphs.component_labels", "graphs.neighbor_lists", "graphs.subset_support",
    "graphs.sample_subset", "clue.clue_mc", "clue.expected_clue", "clue.clue_exact",
    "dac.fk_magnetization_bound", "block_dyn.path_coupling_rate",
    "block_dyn.block_transition_matrix", "block_dyn.spectrum",
    "block_dyn.dirichlet_form", "block_dyn.sweep_cut_bottleneck",
    "measures.conditional_mean", "measures.exact_table", "rng.parallel_map",
)


def _arg_getter(fn, name: str):
    """Fast accessor for argument `name` of calls to `fn`, or None when `fn`
    has no such parameter. Binding the full signature per call is too slow
    for functions called a million times."""
    params = list(inspect.signature(fn).parameters.values())
    for pos, p in enumerate(params):
        if p.name == name:
            default = None if p.default is inspect.Parameter.empty else p.default
            return lambda args, kwargs: (
                args[pos] if len(args) > pos else kwargs.get(name, default))
    return None


def _site_updates(fn):
    """Counter for glauber_sweep: sweeps x free vertices."""
    graph, frozen, sweeps = (_arg_getter(fn, a) for a in ("graph", "frozen", "sweeps"))
    if None in (graph, frozen, sweeps):
        return None

    def count(args, kwargs):
        n = graph(args, kwargs).n_vertices
        mask = frozen(args, kwargs)
        if mask is not None:
            n -= int(mask.sum())
        return sweeps(args, kwargs) * n

    return count


def _matrix_bytes(fn):
    """Counter for block_transition_matrix: a dense float64 2^n x 2^n build."""
    table = _arg_getter(fn, "table")
    if table is None:
        return None
    return lambda args, kwargs: 8 * 4 ** table(args, kwargs).n


# span name -> (counter name, factory of the per-call count from the original function)
COUNTERS = {
    "ising.glauber_sweep": ("ising.site_updates", _site_updates),
    "block_dyn.block_transition_matrix": ("block_dyn.matrix_bytes", _matrix_bytes),
}


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # frames: [name, child_ns]
        self.active: dict[str, int] = {}  # name -> open frames, for recursion
        self.agg: dict[tuple, list] = {}  # (name, parent) -> [calls, incl_ns, self_ns]
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple] = []
        self._counter_names: set[str] = set()
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def _enter(self, name: str):
        st = self._state()
        parent = st.stack[-1][0] if st.stack else None
        frame = [name, 0]
        st.stack.append(frame)
        st.active[name] = st.active.get(name, 0) + 1
        return st, parent, frame, time.perf_counter_ns()

    @staticmethod
    def _exit(st, parent, frame, start):
        dur = time.perf_counter_ns() - start
        name = frame[0]
        st.stack.pop()
        if st.stack:
            st.stack[-1][1] += dur
        depth = st.active[name] = st.active[name] - 1
        rec = st.agg.get((name, parent))
        if rec is None:
            rec = st.agg[(name, parent)] = [0, 0, 0]
        rec[0] += 1
        if depth == 0:  # inclusive time only for the outermost frame of a name
            rec[1] += dur
        rec[2] += dur - frame[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one recipe."""
        token = self._enter(name)
        try:
            yield
        finally:
            self._exit(*token)

    def wrap(self, name: str, fn, counter=None):
        enter, leave = self._enter, self._exit
        counter_name, count = counter if counter else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(*token)
            if count is not None:
                counts = token[0].counts
                counts[counter_name] = counts.get(counter_name, 0) + count(args, kwargs)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap and rebind; returns the expected names that were not found."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.missing.append(layer)
        bindings = self._bindings()
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._replace(f"{layer}.{attr}", obj, bindings)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            fn = inspect.getattr_static(cls, meth, None) if cls is not None else None
            if not inspect.isfunction(fn):
                continue
            wrapper = self._wrapper_for(f"{layer}.{meth}", fn)
            setattr(cls, meth, wrapper)
            self._undo.append((cls, meth, fn))
        self.missing += [n for n in EXPECTED if n not in self.wrapped]
        for span_name, (counter_name, _) in COUNTERS.items():
            if span_name in self.wrapped and counter_name not in self._counter_names:
                self.missing.append(counter_name)
        return self.missing

    @staticmethod
    def _bindings() -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrapper_for(self, name: str, fn):
        counter = None
        if name in COUNTERS:
            counter_name, factory = COUNTERS[name]
            count = factory(fn)
            if count is not None:
                counter = (counter_name, count)
                self._counter_names.add(counter_name)
        self.wrapped.append(name)
        return self.wrap(name, fn, counter)

    def _replace(self, name: str, fn, modules):
        wrapper = self._wrapper_for(name, fn)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> list[dict]:
        """Aggregated spans over all threads, one row per (name, parent)."""
        merged: dict[tuple, list] = {}
        for st in self._states:
            for key, (calls, incl, self_ns) in st.agg.items():
                row = merged.setdefault(key, [0, 0, 0])
                row[0] += calls
                row[1] += incl
                row[2] += self_ns
        return [
            {"name": name, "parent": parent, "calls": c, "s": incl / 1e9, "self_s": s / 1e9}
            for (name, parent), (c, incl, s) in sorted(merged.items(), key=str)
        ]

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for st in self._states:
            for k, v in st.counts.items():
                total[k] = total.get(k, 0) + v
        return total


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-function `<name>.{calls,s,self_s}`, per-module `<module>.{calls,self_s}`
    and the work counters, summed over parents."""
    out: dict[str, float] = {}
    for row in spans:
        name = row["name"]
        module = name.split(".", 1)[0]
        for stat in ("calls", "s", "self_s"):
            out[f"{name}.{stat}"] = out.get(f"{name}.{stat}", 0) + row[stat]
        for stat in ("calls", "self_s"):
            out[f"{module}.{stat}"] = out.get(f"{module}.{stat}", 0) + row[stat]
    out.update(counts)
    return out
