"""Span tracer that times calls into opframe's modules from outside.

Every public function of each opframe module, every public method of the
classes those modules define, the scenario registries (checks,
constructions, operators) and the dense factorizations of numpy.linalg and
scipy.linalg are replaced by timing wrappers.  A function is rebound at
every import site: ``relframes.pencil_lower_bound`` and
``weakframes.pencil_lower_bound`` are separate bindings of the ``_linalg``
function, and a binding left unwrapped would make its time vanish into the
caller's self time.  ``uninstall`` restores every binding.

Spans (name, start, end, parent) stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

OPFRAME_MODULES = (
    "cli",
    "scenarios",
    "constructions",
    "opmodel",
    "seqops",
    "relframes",
    "weakframes",
    "hilbert",
    "serialize",
    "_linalg",
)
KERNEL = "kernel"


def layer_name(module):
    """Layer name of an opframe module; metric names start with a letter."""
    return module.lstrip("_")


LAYERS = tuple(layer_name(m) for m in OPFRAME_MODULES) + (KERNEL,)
KERNELS = ("svd", "eigh", "eigvalsh", "pinv", "solve", "qr")
BENCH = "bench"
#: span around the benchmark's correctness check of one operation
CHECK = f"{BENCH}.check"

#: the rank cut the bound solvers apply to singular values (1e-12 * sigma_0)
RANK_CUT = 1e-12


# -- operation counts of the dense kernels -------------------------------
#
# Standard LAPACK operation counts for real arithmetic (Golub & Van Loan),
# times 4 for complex input.  They are computed from array shapes, not
# counted by hardware.


def _dims(a):
    a = np.asarray(a)
    if a.ndim < 2:
        return 1, 1, 1.0
    m, n = a.shape[-2], a.shape[-1]
    batch = float(np.prod(a.shape[:-2])) if a.ndim > 2 else 1.0
    return m, n, batch * (4.0 if np.iscomplexobj(a) else 1.0)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _flops_svd(args, kwargs):
    m, n, c = _dims(args[0])
    big, small = max(m, n), min(m, n)
    if not _arg(args, kwargs, 2, "compute_uv", True):
        return c * (4.0 * big * small**2 - 4.0 * small**3 / 3.0)
    return c * (14.0 * big * small**2 + 8.0 * small**3)


def _flops_eigh(args, kwargs):
    _, n, c = _dims(args[0])
    values_only = kwargs.get("eigvals_only", False)
    flops = (4.0 / 3.0 if values_only else 9.0) * n**3
    if _arg(args, kwargs, 1, "b") is not None:
        flops += 7.0 / 3.0 * n**3  # Cholesky of b and reduction to standard form
    return c * flops


def _flops_eigvalsh(args, kwargs):
    _, n, c = _dims(args[0])
    return c * 4.0 / 3.0 * n**3


def _flops_pinv(args, kwargs):
    m, n, c = _dims(args[0])
    big, small = max(m, n), min(m, n)
    return c * (14.0 * big * small**2 + 8.0 * small**3 + 2.0 * m * n * small)


def _flops_solve(args, kwargs):
    _, n, c = _dims(args[0])
    b = np.asarray(_arg(args, kwargs, 1, "b"))
    nrhs = b.shape[-1] if b.ndim > 1 else 1
    pos = kwargs.get("assume_a") == "pos"
    return c * ((1.0 / 3.0 if pos else 2.0 / 3.0) * n**3 + 2.0 * n**2 * nrhs)


def _flops_qr(args, kwargs):
    m, n, c = _dims(args[0])
    k = min(m, n)
    # Householder factorization plus forming the thin Q
    return c * 2.0 * (2.0 * m * n * k - 2.0 * k**3 / 3.0)


_FLOPS = {
    "svd": _flops_svd,
    "eigh": _flops_eigh,
    "eigvalsh": _flops_eigvalsh,
    "pinv": _flops_pinv,
    "solve": _flops_solve,
    "qr": _flops_qr,
}


def _kernel_sites():
    """(module, kernel) for each patched dense factorization."""
    import numpy.linalg
    import scipy.linalg

    return [(mod, kernel) for mod in (numpy.linalg, scipy.linalg)
            for kernel in KERNELS if hasattr(mod, kernel)]


class Tracer:
    """Records nested spans; wraps functions so that each call is a span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.failed = set()
        self.counters = {}
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx, failed=False):
        self.ends[idx] = self.clock()
        self._stack.pop()
        if failed:
            self.failed.add(idx)

    def span(self, name):
        return _Span(self, name)

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx, failed=True)
                raise
            tracer.end(idx)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, extra_sites=()):
        """Wrap opframe's public functions and the dense kernels.

        extra_sites are further modules (such as the benchmark's own
        workload module) whose bindings of wrapped functions are replaced
        too.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        replacements = {}  # id(original) -> (original, wrapper)
        recorders = {"linalg.whiten_matrix": self._bytes_recorder("linalg.whiten_matrix")}

        def add(name, fn, on_result=None):
            on_result = on_result or recorders.get(name)
            if id(fn) not in replacements:
                replacements[id(fn)] = (fn, self.wrap(name, fn, on_result))
            return replacements[id(fn)][1]

        for short in OPFRAME_MODULES:
            mod = importlib.import_module(f"opframe.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    add(f"{layer_name(short)}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer_name(short), obj)

        scen = importlib.import_module("opframe.scenarios")
        for key, (direction, fn) in list(scen.CHECKS.items()):
            self._set_item(scen.CHECKS, key, (direction, add(f"scenarios.check.{key}", fn)))
        for key, fn in list(scen.CONSTRUCTIONS.items()):
            self._set_item(
                scen.CONSTRUCTIONS, key, add(f"scenarios.construction.{key}", fn)
            )
        for key, fn in list(scen.OPERATORS.items()):
            self._set_item(scen.OPERATORS, key, add(f"scenarios.operator.{key}", fn))

        for mod, kernel in _kernel_sites():
            add(f"{KERNEL}.{kernel}", getattr(mod, kernel), self._kernel_recorder(kernel))

        sites = [m for n, m in list(sys.modules.items())
                 if n == "opframe" or n.startswith("opframe.")]
        sites += [m for m, _ in _kernel_sites()]
        sites += list(extra_sites)
        seen = set()
        for mod in sites:
            if mod is None or id(mod) in seen:
                continue
            seen.add(id(mod))
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set_attr(mod, attr, hit[1])
        return self

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(name, raw)
            else:
                continue
            self._set_attr(cls, attr, wrapped)

    def _set_attr(self, owner, attr, value):
        self._restore.append(("attr", owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._restore.append(("item", mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._restore:
            kind, owner, key, old = self._restore.pop()
            if kind == "attr":
                setattr(owner, key, old)
            else:
                owner[key] = old

    def _kernel_recorder(self, kernel):
        flops = _FLOPS[kernel]

        def record(args, kwargs, out):
            self.count(f"kernel.{kernel}.flops", flops(args, kwargs))
            if kernel == "svd":
                s = out if isinstance(out, np.ndarray) else out[1]
                s = np.asarray(s)
                if s.ndim == 1 and s.size:
                    self.count("kernel.svd.computed", s.size)
                    self.count("kernel.svd.useful", int(np.sum(s > RANK_CUT * s[0])))

        return record

    def _bytes_recorder(self, name):
        """Count the bytes a function returns, from its output array size."""

        def record(args, kwargs, out):
            self.count(f"{name}.bytes", np.asarray(out).nbytes)

        return record


def maybe_span(tracer, name):
    """A span of `tracer`, or nothing when the run is not traced."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.end(self.idx, failed=exc_type is not None)
        return False


# -- arithmetic over recorded spans ---------------------------------------


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        kids = [(max(starts[k], lo), min(ends[k], hi)) for k in children.get(i, ())]
        covered = _union_length([(a, b) for a, b in kids if b > a])
        out.append((hi - lo) - covered)
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(tracer, window):
    """Per-layer metrics from the recorded spans; window = (t0, t1)."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    selfs = self_times(starts, ends, parents)
    metrics = {}

    def put(name, value, unit, n=None):
        metrics[name] = {"value": value, "unit": unit}
        if n is not None:
            metrics[name]["n"] = n

    # the benchmark's own correctness checks are not the program's work
    in_check = []
    for i, name in enumerate(names):
        in_check.append(name == CHECK or (parents[i] >= 0 and in_check[parents[i]]))
    by_layer, by_name = {}, {}
    for i, name in enumerate(names):
        if in_check[i]:
            continue
        by_layer.setdefault(layer_of(name), []).append(i)
        by_name.setdefault(name, []).append(i)

    for layer in LAYERS:
        idx = by_layer.get(layer, [])
        put(f"{layer}.calls", len(idx), "count")
        put(f"{layer}.busy_s", _union_length([(starts[i], ends[i]) for i in idx]), "s")
        put(f"{layer}.self_s", sum(selfs[i] for i in idx), "s")
        put(f"{layer}.errors", sum(1 for i in idx if i in tracer.failed), "count")

    def busy(name):
        idx = by_name.get(name, [])
        return _union_length([(starts[i], ends[i]) for i in idx]), len(idx)

    for name in sorted(by_name):
        if name.startswith("scenarios.check.") or name.startswith("scenarios.construction."):
            value, n = busy(name)
            put(f"{name}.s", value, "s", n)
    value, n = busy("scenarios.validate_scenario")
    put("scenarios.validate_s", value, "s", n)
    for name in ("linalg.pencil_lower_bound", "linalg.pinv_weighted",
                 "linalg.whiten_matrix", "weakframes.verify_weak_duality"):
        value, n = busy(name)
        put(f"{name}.s", value, "s", n)
    put("linalg.whiten_matrix.bytes", tracer.counters.get("linalg.whiten_matrix.bytes", 0.0),
        "bytes_computed")
    for kernel in KERNELS:
        value, n = busy(f"kernel.{kernel}")
        put(f"kernel.{kernel}.calls", n, "count")
        put(f"kernel.{kernel}.s", value, "s")
        put(f"kernel.{kernel}.flops", tracer.counters.get(f"kernel.{kernel}.flops", 0.0),
            "flops_computed")
    computed = tracer.counters.get("kernel.svd.computed", 0)
    put("kernel.svd.useful_ratio",
        tracer.counters.get("kernel.svd.useful", 0) / computed if computed else 0.0,
        "ratio", int(computed))

    for name in sorted(by_name):
        if name.startswith(f"{BENCH}.scenario."):
            ms = [1e3 * (ends[i] - starts[i]) for i in by_name[name]]
            label = name.removeprefix(f"{BENCH}.scenario.")
            put(f"scenario.{label}.ms", statistics.median(ms), "ms", len(ms))

    # library spans called directly from benchmark code
    top = [(starts[i], ends[i]) for i, p in enumerate(parents)
           if not in_check[i] and layer_of(names[i]) != BENCH
           and (p < 0 or layer_of(names[p]) == BENCH)]
    t0, t1 = window
    put("trace.toplevel_share", _union_length(top) / (t1 - t0) if t1 > t0 else 0.0, "ratio")
    return metrics


def write_spans(tracer, path):
    table = sorted(set(tracer.names))
    code = {n: i for i, n in enumerate(table)}
    t0 = tracer.starts[0] if tracer.starts else 0.0
    payload = {
        "names": table,
        "spans": [
            [code[n], round(s - t0, 9), round(e - t0, 9), p, int(i in tracer.failed)]
            for i, (n, s, e, p) in enumerate(
                zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)
            )
        ],
        "fields": ["name", "start_s", "end_s", "parent", "failed"],
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))
