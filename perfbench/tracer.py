"""Outside-in tracer: wraps logff's public functions without editing logff.

Each traced layer is a function or method.  A function is replaced in every
`logff.*` namespace that holds it, because `cli`, `transport` and the
package itself import by name; modules are reached through `sys.modules`,
because the package attribute `logff.transport` is the function `transport`,
not the module.  A method is replaced on its class.

A spanned layer records its call count and self time (its span minus the
spans of traced layers it called).  A counted layer records only its call
count, which keeps the cost of tracing `RingElem` arithmetic low.  Spans are
aggregated in memory per layer; the raw spans are not kept.

Two layers also record how useful their calls were:
  - `ffmodule.falling_connection_op`: the share of calls whose result vector
    is nonzero, and the share that exactly repeat an earlier call of the same
    request (same connection matrices, input vector and index);
  - `logring.DividedCoeffs.coeff`: the share of calls whose coefficient is
    nonzero.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Layer:
    name: str                   # metric prefix, <module>.<function>
    module: str                 # where the original lives, as in sys.modules
    attr: str                   # function name, or Class.method
    spanned: bool = True
    stats: tuple = ("calls", "self_ms")   # what the benchmark reports for it
    workloads: tuple = ()       # where it must record calls (coverage check)


ALL = ("verify-mix", "glue-d3", "taylor-highn")

LAYERS = (
    Layer("cli.main", "logff.cli", "main", workloads=("verify-mix", "glue-d3")),
    Layer("modfile.parse_module_file", "logff.modfile", "parse_module_file",
          stats=("self_ms",), workloads=("verify-mix",)),
    Layer("modfile.parse_map_file", "logff.modfile", "parse_map_file",
          stats=("self_ms",), workloads=("verify-mix",)),
    Layer("modfile.module_to_dict", "logff.modfile", "module_to_dict",
          stats=("self_ms",), workloads=("verify-mix",)),
    Layer("exprparse.parse_expr", "logff.exprparse", "parse_expr", workloads=("verify-mix",)),
    Layer("ffmodule.run_all_checks", "logff.ffmodule", "run_all_checks",
          stats=("self_ms",), workloads=("verify-mix",)),
    Layer("ffmodule.divided_connection", "logff.ffmodule", "divided_connection",
          stats=("self_ms",), workloads=("verify-mix",)),
    Layer("ffmodule.falling_connection_op", "logff.ffmodule", "falling_connection_op",
          stats=("calls", "self_ms", "nonzero_share", "repeat_share"),
          workloads=("verify-mix", "glue-d3")),
    Layer("transport.glue_map", "logff.transport", "glue_map", workloads=("glue-d3",)),
    Layer("transport.check_glue_linearity", "logff.transport", "check_glue_linearity",
          stats=("self_ms",), workloads=("glue-d3",)),
    Layer("transport.pullback_ff", "logff.transport", "pullback_ff",
          stats=("self_ms",), workloads=("verify-mix",)),
    Layer("logring.taylor_residual", "logff.logring", "taylor_residual",
          stats=("self_ms",), workloads=("taylor-highn",)),
    Layer("logring.RingMap.apply", "logff.logring", "RingMap.apply",
          workloads=("verify-mix", "taylor-highn")),
    Layer("logring.RingMap.then", "logff.logring", "RingMap.then",
          stats=("calls",), workloads=("verify-mix",)),
    Layer("logring.DividedCoeffs.init", "logff.logring", "DividedCoeffs.__init__",
          workloads=("glue-d3", "taylor-highn")),
    Layer("logring.DividedCoeffs.coeff", "logff.logring", "DividedCoeffs.coeff",
          stats=("calls", "self_ms", "nonzero_share"), workloads=("glue-d3", "taylor-highn")),
    Layer("exactnum.reduce_mod", "logff.exactnum", "reduce_mod",
          workloads=("glue-d3", "taylor-highn")),
    Layer("matrices.Matrix.mul", "logff.matrices", "Matrix.__mul__",
          stats=("self_ms",), workloads=("verify-mix",)),
    Layer("matrices.Matrix.mul_vec", "logff.matrices", "Matrix.mul_vec", spanned=False,
          stats=("calls",), workloads=("glue-d3",)),
    Layer("logring.RingElem.mul", "logff.logring", "RingElem.__mul__", spanned=False,
          stats=("calls",), workloads=ALL),
    Layer("logring.RingElem.add", "logff.logring", "RingElem.__add__", spanned=False,
          stats=("calls",), workloads=ALL),
)

# layers whose calls must be zero on a workload (module prefix -> workloads)
NO_CALLS = {"ffmodule.": ("taylor-highn",), "transport.": ("taylor-highn",)}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    units = {"calls": "count", "self_ms": "ms", "nonzero_share": "ratio",
             "repeat_share": "ratio"}
    return [(f"{layer.name}.{stat}", units[stat]) for layer in LAYERS for stat in layer.stats]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    nonzero: int = 0
    repeats: int = 0


@dataclass
class Tracer:
    """Wraps logff's layers while installed (a context manager); recording is
    gated by `active`, which the benchmark sets for the span of one request."""

    stats: dict = field(default_factory=lambda: {layer.name: Stat() for layer in LAYERS})
    active: bool = False
    _stack: list = field(default_factory=list)     # one [child seconds] cell per open span
    _seen: set = field(default_factory=set)        # operator calls of the current request
    _undo: list = field(default_factory=list)

    def begin_request(self):
        self._seen.clear()
        self.active = True

    def end_request(self):
        self.active = False

    # -- wrappers ------------------------------------------------------------

    def _hook_for(self, name: str):
        if name == "ffmodule.falling_connection_op":
            return self._operator_hook
        if name == "logring.DividedCoeffs.coeff":
            return self._coeff_hook
        return None

    def _operator_hook(self, stat: Stat, args, result):
        if any(not x.is_zero() for x in result):
            stat.nonzero += 1
        connection, vec, index = args
        key = (tuple(m.rows for m in connection), tuple(vec), tuple(index))
        if key in self._seen:
            stat.repeats += 1
        else:
            self._seen.add(key)

    def _coeff_hook(self, stat: Stat, args, result):
        if not result.is_zero():
            stat.nonzero += 1

    def _wrap(self, layer: Layer, fn):
        stat = self.stats[layer.name]
        if not layer.spanned:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        hook = self._hook_for(layer.name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.self_s += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                # the hook's own time is tracing cost: keep it out of the parent's self time
                hook_start = clock()
                hook(stat, args[1:] if "." in layer.attr else args, result)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return result
        return spanned

    def install(self):
        for layer in LAYERS:
            module = sys.modules[layer.module]
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._set(cls, meth, self._wrap(layer, original))
                continue
            original = getattr(module, layer.attr)
            wrapper = self._wrap(layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "logff" or mod_name.startswith("logff.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.end_request()
        self.uninstall()

    # -- reading ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {name: Stat(s.calls, s.self_s, s.nonzero, s.repeats)
                for name, s in self.stats.items()}


def layer_metrics(counts: dict, timing: dict, requests: int) -> dict:
    """Per-layer metrics: counts and shares from `counts` (the traced digest
    prefix, so they repeat exactly for one seed), self time in ms per request
    from `timing` over `requests` traced requests."""
    out = {}
    for layer in LAYERS:
        c, t = counts[layer.name], timing[layer.name]
        values = {
            "calls": c.calls,
            "self_ms": 1000 * t.self_s / requests,
            "nonzero_share": c.nonzero / c.calls if c.calls else 0.0,
            "repeat_share": c.repeats / c.calls if c.calls else 0.0,
        }
        for stat in layer.stats:
            out[f"{layer.name}.{stat}"] = values[stat]
    return out
