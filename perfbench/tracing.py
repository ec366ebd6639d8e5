"""Span tracing around bdalg's public functions, from outside the program.

``Tracer.install()`` wraps every public function and every public method (plus
the arithmetic, equality and constructor dunders) of the library modules, and
rebinds each module-level name that refers to a wrapped function, so calls
between modules go through the wrappers too.  ``numpy.linalg`` calls made by
``bd_algebra`` get their own spans through a proxy for its ``np`` global.

Spans are recorded only while ``Tracer.on`` is true, that is inside a timed
op.  Each span is a row of five parallel arrays (name, start, end, parent,
op); self times are computed at the end as a span's duration minus the sum of
its direct children's durations.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("supernatural", "profinite", "cyclotomic", "odometer_fn",
          "bd_algebra", "derivations", "k_invariants", "homalg")
DUNDERS = {"__init__", "__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
           "__rsub__", "__neg__", "__eq__", "__truediv__", "__abs__"}
LINALG = ("svd", "eigvals")
# LaurentPoly arithmetic runs l^2 times per symbol product: spans there would
# multiply the traced time and hold millions of rows, and its time belongs to
# the symbol build anyway.  Only its multiplications are counted.
COUNT_ONLY = {"LaurentPoly": ("__mul__", "__rmul__")}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.on = False
        self.op_id = -1
        self.counts: dict = {}
        self.linalg_bytes = 0
        self.poly_cache = None

    def count(self, name: str, fn):
        """A wrapper that only counts calls made while tracing is on."""
        self.counts[name] = 0
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_a, parent_a, op_a = self.name, self.parent, self.op
        start_a, end_a, stack = self.start, self.end, self.stack
        pc = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            op_a.append(tracer.op_id)
            end_a.append(0.0)
            stack.append(i)
            start_a.append(pc())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[i] = pc()
                stack.pop()
        return span

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the library in place."""
        wrapped: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bdalg.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        cyc = sys.modules["bdalg.cyclotomic"]
        self.poly_cache = cyc.cyclotomic_polynomial
        for name, mod in list(sys.modules.items()):
            if name == "bdalg" or name.startswith("bdalg."):
                for attr, obj in list(vars(mod).items()):
                    if callable(obj) and not inspect.isclass(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        bd = sys.modules["bdalg.bd_algebra"]
        bd.np = _NumpyProxy(self, bd.np)

    def _wrap_class(self, layer: str, cls):
        counted = COUNT_ONLY.get(cls.__name__)
        for attr, val in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if counted is not None:
                if attr in counted:
                    setattr(cls, attr, self.count(name, val))
                continue
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, val.__func__)))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, val.__func__)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self.wrap(name, val))

    # -- results ------------------------------------------------------------------

    def spans(self):
        import numpy as np
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self) -> dict:
        """Per span name: {"calls", "self_s"}, plus the number of reduced()
        calls whose direct parent is Cyclo.__eq__."""
        import numpy as np
        name, parent, _, start, end = self.spans()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=selft, minlength=k)
        out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i])}
               for i, n in enumerate(self.names) if calls[i]}
        for n, c in self.counts.items():
            if c:
                out[n] = {"calls": c, "self_s": 0.0}
        ids = {n: i for i, n in enumerate(self.names)}
        red, eq = ids.get("cyclotomic.Cyclo.reduced"), ids.get("cyclotomic.Cyclo.__eq__")
        under_eq = 0
        if red is not None and eq is not None and len(name):
            par_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
            under_eq = int(np.sum((name == red) & (par_name == eq)))
        return {"spans": out, "reduced_under_eq": under_eq,
                "linalg_bytes": self.linalg_bytes, "span_count": int(len(dur))}

    def export(self) -> dict:
        return {"names": list(self.names), "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end}


def save(path, parts: list):
    """Write exported span tables, concatenated, as one .npz file."""
    import numpy as np
    names: dict = {}
    cols = {k: [] for k in ("name", "parent", "op", "start", "end")}
    offset = 0
    for p in parts:
        remap = np.array([names.setdefault(n, len(names)) for n in p["names"]] or [0])
        parent = np.asarray(p["parent"], dtype=np.int32)
        cols["name"].append(remap[np.asarray(p["name"], dtype=np.int32)])
        cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
        cols["op"].append(np.asarray(p["op"], dtype=np.int32))
        cols["start"].append(np.asarray(p["start"], dtype=np.float64))
        cols["end"].append(np.asarray(p["end"], dtype=np.float64))
        offset += len(p["start"])
    np.savez(path, names=np.array(list(names)),
             **{k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()})


class _LinalgProxy:
    def __init__(self, tracer: Tracer, linalg):
        self._linalg = linalg
        for fname in LINALG:
            fn = getattr(linalg, fname)
            setattr(self, fname, tracer.wrap(f"bd_algebra.linalg.{fname}",
                                             _count_bytes(tracer, fn)))

    def __getattr__(self, attr):
        return getattr(self._linalg, attr)


class _NumpyProxy:
    def __init__(self, tracer: Tracer, np):
        self._np = np
        self.linalg = _LinalgProxy(tracer, np.linalg)

    def __getattr__(self, attr):
        return getattr(self._np, attr)


def _count_bytes(tracer: Tracer, fn):
    """Adds grid * l * l * 16 (complex128 operand bytes, computed) per call."""
    @functools.wraps(fn)
    def call(a, *args, **kwargs):
        if tracer.on:
            grid, l, _ = a.shape
            tracer.linalg_bytes += grid * l * l * 16
        return fn(a, *args, **kwargs)
    return call


# ---------------------------------------------------------------------------
# per-layer metrics from span summaries

def _self(spans: dict, pred) -> float:
    return sum(v["self_s"] for n, v in spans.items() if pred(n))


def _calls(spans: dict, pred) -> int:
    return sum(v["calls"] for n, v in spans.items() if pred(n))


def _is(*names):
    return lambda n: n in names


def _prefix(p):
    return lambda n: n.startswith(p)


def _symbol(n: str) -> bool:
    return (n == "bd_algebra.BDElement.matrix_symbol"
            or ((n.startswith("bd_algebra.MatrixSymbol.") or n.startswith("bd_algebra.LaurentPoly."))
                and not n.endswith((".eval_grid", ".eval_complex"))))


EVAL = _is("bd_algebra.MatrixSymbol.eval_grid", "bd_algebra.MatrixSymbol.eval_complex",
           "bd_algebra.LaurentPoly.eval_complex")

# name -> (unit, function of (span summary, extra) -> value)
LAYER_METRICS = {
    "bd_algebra.symbol.self_s": ("s", lambda s, x: _self(s, _symbol)),
    "bd_algebra.laurent_mul.calls": ("count", lambda s, x: _calls(
        s, _is("bd_algebra.LaurentPoly.__mul__", "bd_algebra.LaurentPoly.__rmul__"))),
    "bd_algebra.eval.self_s": ("s", lambda s, x: _self(s, EVAL)),
    "bd_algebra.linalg.self_s": ("s", lambda s, x: _self(s, _prefix("bd_algebra.linalg."))),
    "bd_algebra.linalg.bytes": ("bytes_computed", lambda s, x: x["linalg_bytes"]),
    "bd_algebra.self_s": ("s", lambda s, x: _self(s, _prefix("bd_algebra."))),
    "bd_algebra.construct.calls": ("count", lambda s, x: _calls(s, _is("bd_algebra.BDElement.__init__"))),
    "bd_algebra.mul.self_s": ("s", lambda s, x: _self(s, _is("bd_algebra.BDElement.__mul__"))),
    "cyclotomic.self_s": ("s", lambda s, x: _self(s, _prefix("cyclotomic."))),
    "cyclotomic.mul.calls": ("count", lambda s, x: _calls(
        s, _is("cyclotomic.Cyclo.__mul__", "cyclotomic.Cyclo.__rmul__"))),
    "cyclotomic.add.calls": ("count", lambda s, x: _calls(
        s, _is("cyclotomic.Cyclo.__add__", "cyclotomic.Cyclo.__radd__"))),
    "cyclotomic.eq.calls": ("count", lambda s, x: _calls(s, _is("cyclotomic.Cyclo.__eq__"))),
    "cyclotomic.reduced.calls": ("count", lambda s, x: _calls(s, _is("cyclotomic.Cyclo.reduced"))),
    "cyclotomic.reduced.self_s": ("s", lambda s, x: _self(s, _is("cyclotomic.Cyclo.reduced"))),
    "cyclotomic.eq.reduce_ratio": ("ratio", lambda s, x: x["reduced_under_eq"] / max(
        1, _calls(s, _is("cyclotomic.Cyclo.__eq__")))),
    "cyclotomic.poly_cache.misses": ("count", lambda s, x: x["poly_cache_misses"]),
    "odometer_fn.self_s": ("s", lambda s, x: _self(s, _prefix("odometer_fn."))),
    "odometer_fn.construct.calls": ("count", lambda s, x: _calls(s, _is("odometer_fn.LocConstFn.__init__"))),
    "odometer_fn.pullback.calls": ("count", lambda s, x: _calls(s, _is("odometer_fn.LocConstFn.pullback"))),
    "odometer_fn.char_coefficients.self_s": ("s", lambda s, x: _self(
        s, _is("odometer_fn.LocConstFn.char_coefficients"))),
    "derivations.self_s": ("s", lambda s, x: _self(s, _prefix("derivations."))),
    "derivations.solve_cocycle.self_s": ("s", lambda s, x: _self(s, _is("derivations.solve_cocycle"))),
    "derivations.recover_covariant.self_s": ("s", lambda s, x: _self(
        s, _is("derivations.recover_covariant"))),
    "derivations.pick_character.self_s": ("s", lambda s, x: _self(s, _is("derivations.pick_character"))),
    "supernatural.self_s": ("s", lambda s, x: _self(s, _prefix("supernatural."))),
    "supernatural.calls": ("count", lambda s, x: _calls(s, _prefix("supernatural."))),
    "supernatural.factorize.calls": ("count", lambda s, x: _calls(s, _is("supernatural.factorize"))),
    "profinite.self_s": ("s", lambda s, x: _self(s, _prefix("profinite."))),
    "profinite.calls": ("count", lambda s, x: _calls(s, _prefix("profinite."))),
    "k_invariants.self_s": ("s", lambda s, x: _self(s, _prefix("k_invariants."))),
    "k_invariants.r_sum.calls": ("count", lambda s, x: _calls(s, _is("k_invariants.PhiFn.r_sum"))),
    "homalg.self_s": ("s", lambda s, x: _self(s, _prefix("homalg."))),
    "homalg.snf.self_s": ("s", lambda s, x: _self(s, _is("homalg.smith_normal_form"))),
    "cli.import_s": ("s", lambda s, x: x["cli_import_s"]),
    "cli.main.self_s": ("s", lambda s, x: _self(s, _is("cli.main"))),
    "cli.process_s": ("s", lambda s, x: x["cli_process_s"]),
}


def merge(summaries: list) -> dict:
    """Sum span summaries (one per traced process) into one."""
    spans: dict = {}
    out = {"spans": spans, "reduced_under_eq": 0, "linalg_bytes": 0, "span_count": 0}
    for s in summaries:
        for n, v in s["spans"].items():
            acc = spans.setdefault(n, {"calls": 0, "self_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        for k in ("reduced_under_eq", "linalg_bytes", "span_count"):
            out[k] += s[k]
    return out


def layer_metrics(summary: dict, extra: dict) -> dict:
    x = dict(summary, **extra)
    return {name: {"value": fn(summary["spans"], x), "unit": unit}
            for name, (unit, fn) in LAYER_METRICS.items()}
