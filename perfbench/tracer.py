"""Outside-in tracer for fellbund: spans and counters from wrappers.

Nothing inside fellbund is edited.  While installed, every public function
of a layer module, the private functions in ``PRIVATE`` and the methods in
``METHODS`` are replaced by a wrapper in every ``fellbund`` namespace (and
module-level dict) that holds them; functions imported by name into other
modules, such as ``block_decomposition`` in ``ideals`` and ``spectrum``,
are therefore traced at every call site.  A span records its name, start, end, parent span
and the benchmark op that caused it.  Spans stay in memory until the run
ends.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# the repo's modules; a span is named "<layer>.<function>", with the
# leading underscore of a private module dropped ("_kernels" -> "kernels")
LAYERS = ["workspace", "cli", "report", "groupoid", "bundle", "_kernels", "sections",
          "envelope", "spectrum", "ideals", "actions", "reps", "trafo", "_linalg"]

# (module, class, attribute) -> span name
METHODS = {
    ("bundle", "FellBundle", "fiber_norm"): "bundle.fiber_norm",
    ("_kernels", "ConvolutionPlan", "convolve"): "kernels.convolve",
    ("envelope", "RegularRepAt", "__init__"): "envelope.RegularRepAt.build",
    ("envelope", "RegularRepAt", "matrix"): "envelope.RegularRepAt.matrix",
    ("workspace", "Workspace", "load"): "workspace.load",
    ("workspace", "Workspace", "bundle"): "workspace.bundle",
    ("bundle", "MatrixModelBundle", "to_fell_bundle"): "bundle.to_fell_bundle",
}

# private functions that get a span of their own: the irreducible-frame
# search makes its own cluster_eigenvalues calls, which would otherwise be
# counted as block_decomposition attempts
PRIVATE = {("envelope", "_irrep_frame"): "envelope.irrep_frame"}

# one-line delegates to a traced method; wrapping them too would count the
# same call twice under one name
SKIP = {("bundle", "fiber_norm")}

COMPLEX_BYTES = 16


def layer_name(module: str) -> str:
    return module.lstrip("_")


def plan_cost(plan) -> tuple[int, int]:
    """Flops and bytes of one ConvolutionPlan.convolve, computed from the
    plan's dimension tables: per composable pair, a (do x dh*dk) complex
    contraction (8 real flops per multiply-add) that reads the tensor and
    both operand blocks and reads and writes the output block."""
    dh = plan.h_dim.astype(np.int64)
    dk = plan.k_dim.astype(np.int64)
    do = plan.o_dim.astype(np.int64)
    live = (dh > 0) & (dk > 0) & (do > 0)
    flops = int(np.sum(8 * do * dh * dk * live))
    words = int(np.sum((do * dh * dk + dh + dk + 2 * do) * live))
    return flops, COMPLEX_BYTES * words


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # per plan object: an id() could be reused by a later plan
        self._plan_cost: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, hook=None):
        tracer, nid = self, self._id(name)
        stack, names, parents, ops = self._stack, self.name, self.parent, self.op
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_plan(self, args, result) -> None:
        plan = args[0]
        cost = self._plan_cost.get(plan)
        if cost is None:
            cost = self._plan_cost[plan] = plan_cost(plan)
        self.counters["kernels.convolve.flops_computed"] += cost[0]
        self.counters["kernels.convolve.bytes_computed"] += cost[1]

    def _count_found(self, args, result) -> None:
        self.counters["ideals.found"] += len(result)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap fellbund's public functions and the METHODS everywhere."""
        if self._patches:
            return
        hooks = {"ideals.enumerate_fell_ideals": self._count_found}
        wrapped: dict[int, object] = {}
        for mod in LAYERS:
            module = sys.modules[f"fellbund.{mod}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or (mod, attr) in SKIP):
                    continue
                name = f"{layer_name(mod)}.{attr}"
                wrapped[id(fn)] = self._wrap(fn, name, hooks.get(name))
        for (mod, attr), name in PRIVATE.items():
            fn = getattr(sys.modules[f"fellbund.{mod}"], attr)
            wrapped[id(fn)] = self._wrap(fn, name)
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"fellbund.{mod}"], cls_name)
            raw = cls.__dict__[attr]
            hook = self._count_plan if name == "kernels.convolve" else None
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, hook))
            else:
                new = self._wrap(raw, name, hook)
            self._patch(cls, attr, new)
        for modname, module in list(sys.modules.items()):
            if modname != "fellbund" and not modname.startswith("fellbund."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._patch(value, key, wrapped[id(item)])

    def _patch(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Span index and counter snapshot to measure a window from."""
        return len(self.start), Counter(self.counters)

    def _column(self, col: array, dtype, first: int = 0) -> np.ndarray:
        # a copy, so that no buffer export keeps the array from growing
        return np.frombuffer(col, dtype=dtype)[first:].copy()

    def window(self, since: tuple[int, Counter]) -> dict:
        """Per-name calls and self time, plus counters, for spans recorded
        after ``since``."""
        first, before = since
        n = len(self.start) - first
        name = self._column(self.name, np.int32, first)
        parent = self._column(self.parent, np.int64, first) - first
        dur = self._column(self.end, np.float64, first) - self._column(self.start, np.float64, first)
        inside = parent >= 0
        covered = np.bincount(parent[inside], weights=dur[inside], minlength=n)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        out = {"calls": {}, "self_s": {}, "counters": {}}
        for i, nm in enumerate(self.names):
            if calls[i]:
                out["calls"][nm] = int(calls[i])
                out["self_s"][nm] = float(selfs[i])

        def children_of(parent_name: str, child_name: str) -> int:
            if parent_name not in self._ids or child_name not in self._ids:
                return 0
            pid, cid = self._ids[parent_name], self._ids[child_name]
            sel = inside & (name == cid)
            return int(np.sum(name[parent[sel]] == pid))

        counters = Counter(self.counters)
        counters.subtract(before)
        out["counters"] = {key: int(v) for key, v in counters.items()}
        out["counters"]["ideals.candidates"] = children_of(
            "ideals.enumerate_fell_ideals", "ideals.validate_invariant_family")
        out["counters"]["envelope.block_decomposition.attempts"] = children_of(
            "envelope.block_decomposition", "linalg.cluster_eigenvalues")
        return out

    def save(self, path: str) -> None:
        """Write every span as columns of an .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=self._column(self.name, np.int32),
            parent=self._column(self.parent, np.int64), op=self._column(self.op, np.int64),
            start=self._column(self.start, np.float64), end=self._column(self.end, np.float64))
