"""In-memory span tracer that wraps isoshift's public functions from outside.

``Tracer.install`` replaces, in every isoshift module namespace, each public
function of the six layers, the ``quad`` that ``eop`` imports, and the
``Function1D`` class (whose instances then wrap their ``f``/``df``/``d2f``
and attribute them to the module that defined each callable).
``Tracer.uninstall`` puts every original back.  Spans are kept in flat arrays
with parent links and an op id; self times are computed after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("polyengine", "deform", "catalog", "eop", "spectral", "cli")
ROOT = "bench.op"
_EVAL = {"laguerre_eval", "jacobi_eval"}
_MARK = "__perfbench_wrapped__"


class Tracer:
    """Spans and work counters of one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.seed_keys = set()
        self.exc_layer = {}  # op id -> layer of the innermost span an exception left
        self._seen = {}
        self._stack = [-1]
        self._op = -1
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id):
        self._op = op_id
        return self._open(self._id(ROOT))

    def end_op(self, idx):
        self._close(idx)
        self._op = -1

    def _note(self, exc, idx):
        # the first wrapper an exception leaves is the innermost span
        if id(exc) not in self._seen:
            self._seen[id(exc)] = exc  # held, so the id is not reused
            self.exc_layer[self._op] = self.names[self.name[idx]].split(".")[0]

    def wrap(self, name, fn, count=None):
        """fn inside a span named `name`; count(args, kwargs) updates counters."""
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._note(exc, idx)
                raise
            finally:
                self._close(idx)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- counters ----------------------------------------------------------

    def _points(self, key, pos, scalar_key=None):
        counts = self.counts

        def count(args, kwargs):
            if len(args) <= pos:
                return
            x = args[pos]
            counts[key] += np.size(x)
            if scalar_key is not None and np.ndim(x) == 0:
                counts[scalar_key] += 1

        return count

    def _counter_for(self, layer, name):
        if layer == "polyengine" and name in _EVAL:
            return self._points("polyengine.eval.points", 1, "polyengine.eval.scalar_calls")
        if layer == "spectral" and name == "solve_bound_states":
            def count(args, kwargs):
                grid = args[1] if len(args) > 1 else kwargs["grid"]
                # the coarse grid and its 2n+1 Richardson refinement
                self.counts["spectral.fd_points"] += 3 * grid.n_points + 1
            return count
        if layer == "deform" and name == "seed_polynomial":
            def count(args, kwargs):
                family, branch, m = (list(args) + [kwargs.get("branch"), kwargs.get("m")])[:3]
                k = getattr(branch, "k", branch)
                self.seed_keys.add((self._op, family, k, m))
            return count
        return None

    def _quad(self, quad):
        counts = self.counts

        def counted_quad(func, *args, **kwargs):
            def integrand(*a):
                counts["eop.quad.integrand_evals"] += 1
                return func(*a)
            return quad(integrand, *args, **kwargs)

        return self.wrap("eop.quad", functools.wraps(quad)(counted_quad))

    def _function1d(self, base):
        tracer = self

        class TracedFunction1D(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                for field in ("f", "df", "d2f"):
                    fn = getattr(self, field)
                    if fn is not None and not getattr(fn, _MARK, False):
                        layer = str(getattr(fn, "__module__", "")).rpartition(".")[2]
                        object.__setattr__(self, field, tracer.wrap(
                            f"{layer}.fn", fn, tracer._points(f"{layer}.fn.points", 0)))

        TracedFunction1D.__name__ = TracedFunction1D.__qualname__ = base.__name__
        setattr(TracedFunction1D, _MARK, True)
        return TracedFunction1D

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every isoshift namespace; returns self for use in `with`."""
        pkg = importlib.import_module("isoshift")
        mods = {layer: importlib.import_module(f"isoshift.{layer}") for layer in LAYERS}
        replacement = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    replacement[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn,
                                                         self._counter_for(layer, name)))
        quad = mods["eop"].quad
        replacement[id(quad)] = (quad, self._quad(quad))
        f1d = mods["catalog"].Function1D
        replacement[id(f1d)] = (f1d, self._function1d(f1d))
        for mod in [pkg, *mods.values()]:
            for name, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, hit[1])
        return self

    def uninstall(self):
        while self._patches:
            mod, name, value = self._patches.pop()
            setattr(mod, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, op id, start, end."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def in_layer_times(parent, name, layer, own, n_names):
    """Per span name: its spans' self time plus that of same-layer descendants.

    This is the layer's own work done on the function's behalf: calls it
    makes into other layers are excluded, calls within its layer included.
    """
    parent = np.asarray(parent)
    name = np.asarray(name)
    layer = np.asarray(layer)
    up = (parent >= 0) & (layer[np.maximum(parent, 0)] == layer)
    total = np.zeros(n_names)
    cur = np.arange(parent.size)
    alive = np.ones(parent.size, dtype=bool)
    while alive.any():
        np.add.at(total, name[cur[alive]], own[alive])
        alive &= up[cur]
        cur = np.where(alive, parent[cur], cur)
    return total
