"""Span tracing of the library's layer boundaries, installed from outside.

The library's own ``repro.obs`` spans cover only a few coarse phases, so
the benchmark times the calls into each layer's public functions itself:
:meth:`Tracer.install` replaces every module global and class attribute
in ``repro.*`` that binds one of the functions in :data:`TARGETS` with a
timing wrapper.  Patching only the defining module would miss the many
callers that bound the function with ``from ... import f`` at import
time, so every binding is found by identity and replaced.

Each wrapped call appends one span (layer id, parent span id, start,
end) to flat arrays that stay in memory until the run ends; a layer's
self time is then its spans' durations minus the time their child spans
cover.  The benchmark opens a root ``query`` span around each query, so
the spans of one query share that root.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from array import array
from typing import Any, Callable

#: Layer of each wrapped function: ``(module, qualified name) -> layer``.
#: A qualified name with a dot is a method, patched on its class.
TARGETS: dict[tuple[str, str], str] = {
    ("repro.core.parser", "parse"): "core.parse",
    ("repro.core.canonical", "canonical_state"): "core.canonical",
    ("repro.core.canonical", "canonical_state_collapsed"): "core.canonical",
    ("repro.core.substitution", "apply_subst"): "core.substitution",
    ("repro.core.substitution", "canonical_alpha"): "core.substitution",
    ("repro.core.substitution", "rename_bound_apart"): "core.substitution",
    ("repro.calculi.backend", "BpiBackend.step_transitions"): "calculi.step",
    ("repro.calculi.backend", "StructuralBackend.step_transitions"):
        "calculi.step",
    ("repro.calculi.backend", "BpiBackend.input_continuations"):
        "calculi.input",
    ("repro.calculi.backend", "StructuralBackend.input_continuations"):
        "calculi.input",
    ("repro.calculi.backend", "BpiBackend.discards"): "calculi.discards",
    ("repro.calculi.lossy", "LossyBackend.discards"): "calculi.discards",
    ("repro.calculi.wireless", "WirelessBackend.discards"):
        "calculi.discards",
    ("repro.lts.graph", "build_step_lts"): "lts.build",
    ("repro.lts.weak", "LazyReach.reach"): "lts.weak",
    ("repro.lts.partition", "coarsest_partition"): "lts.partition",
    ("repro.lts.partition", "coarsest_partition_labelled"): "lts.partition",
    ("repro.equiv.onthefly", "explore_product"): "equiv.product",
    ("repro.equiv.game", "solve_game"): "equiv.game",
    ("repro.equiv.onthefly", "RewriteClosure.apply"):
        "equiv.closure.rewrite",
    ("repro.equiv.onthefly", "SymmetryClosure.apply"):
        "equiv.closure.symmetry",
    ("repro.equiv.onthefly", "RenamingClosure.apply"):
        "equiv.closure.renaming",
    ("repro.equiv.onthefly", "ReflexivityClosure.apply"):
        "equiv.closure.reflexivity",
    ("repro.equiv.onthefly", "ParallelContextClosure.apply"):
        "equiv.closure.parallel_context",
    ("repro.flow.presolve", "flow_refutes_barb"): "flow.presolve",
    ("repro.store.codec", "pair_key"): "store.codec",
    ("repro.store.codec", "encode"): "store.codec",
    ("repro.store.codec", "decode"): "store.codec",
    ("repro.store.db", "VerdictStore.lookup"): "store.db.lookup",
    ("repro.store.db", "VerdictStore.record"): "store.db.record",
}

#: Every span layer, in report order; id 0 is the benchmark's query span.
LAYERS: tuple[str, ...] = ("query",) + tuple(dict.fromkeys(TARGETS.values()))

CLOSURES = ("rewrite", "symmetry", "renaming", "reflexivity",
            "parallel_context")

#: Attributes an ``lru_cache`` (or a hand-attached cache hook) carries
#: that callers such as ``repro.core.cache.clear_caches`` still use.
_FORWARDED = ("cache_clear", "cache_info", "cache_parameters")


def import_all_repro() -> None:
    """Import every ``repro`` submodule, so that no module imported later
    binds an unwrapped original."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries (meter charges, closure outcomes, pre-solver outcomes)."""

    def __init__(self) -> None:
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        #: Open spans per layer id, so a counter can ask "inside a product
        #: search?" without walking the stack.
        self._open: list[int] = [0] * len(LAYERS)
        self._layer_id = {name: i for i, name in enumerate(LAYERS)}
        self._restore: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (called as a traced run starts)."""
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]
        self._stack[:] = [-1]
        self._open[:] = [0] * len(LAYERS)
        self.charges = 0
        self.product_charges = 0
        self.closure_useful = dict.fromkeys(CLOSURES, 0)
        self.renaming_args: set[Any] = set()
        self.presolve_refuted = 0
        self.lts_states = 0
        self.lts_edges = 0

    # -- spans -------------------------------------------------------------
    def span(self, layer: str) -> "_Span":
        """A context manager recording one span of *layer*."""
        return _Span(self, self._layer_id[layer])

    def _wrap(self, layer: str, fn: Callable[..., Any],
              observe: Callable[[tuple, Any], None] | None
              ) -> Callable[..., Any]:
        layer_id = self._layer_id[layer]
        layers, parents, starts, ends = (self.layer, self.parent,
                                         self.start, self.end)
        stack, open_spans = self._stack, self._open
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            open_spans[layer_id] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                open_spans[layer_id] -= 1
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        for attr in _FORWARDED:
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- observers (counters measured where the work happens) -------------
    def _observer(self, layer: str) -> Callable[[tuple, Any], None] | None:
        if layer.startswith("equiv.closure."):
            name = layer.rsplit(".", 1)[1]

            def closure(args: tuple, result: Any) -> None:
                pair = args[1]
                if result is None or result != pair:
                    self.closure_useful[name] += 1
                if name == "renaming":
                    self.renaming_args.add(pair)
            return closure
        if layer == "flow.presolve":
            def presolve(args: tuple, result: Any) -> None:
                if result is not None:
                    self.presolve_refuted += 1
            return presolve
        if layer == "lts.build":
            def build(args: tuple, result: Any) -> None:
                lts, _root = result
                self.lts_states += lts.n_states
                self.lts_edges += lts.n_edges
            return build
        return None

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every binding of every target function in ``repro.*``."""
        import_all_repro()
        wrapped: dict[int, Callable[..., Any]] = {}
        for (module_name, qualname), layer in TARGETS.items():
            owner: Any = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, self._observer(layer))
            wrapped[id(original)] = wrapper
            self._patch(owner, attr, wrapper)
        # Module globals that re-bind a function under any alias.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, attr, wrapper)
        self._wrap_meter()

    def _wrap_meter(self) -> None:
        from repro.engine.budget import Meter
        original = Meter.charge
        open_spans = self._open
        product = self._layer_id["equiv.product"]
        tracer = self

        def charge(meter: Any, n: int = 1) -> None:
            tracer.charges += n
            if open_spans[product]:
                tracer.product_charges += n
            original(meter, n)
        self._patch(Meter, "charge", charge)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------
    def layer_times(self) -> tuple[dict[str, float], dict[str, float],
                                   dict[str, int]]:
        """Per layer: self seconds, inclusive seconds of outermost spans
        of that layer, and span counts."""
        n = len(self.start)
        child = [0.0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        selfs = [0.0] * len(LAYERS)
        inclusive = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        layers = self.layer
        for i in range(n):
            lid = layers[i]
            dur = ends[i] - starts[i]
            selfs[lid] += dur - child[i]
            calls[lid] += 1
            p = parents[i]
            if p < 0 or layers[p] != lid:
                inclusive[lid] += dur
        return (dict(zip(LAYERS, selfs)), dict(zip(LAYERS, inclusive)),
                dict(zip(LAYERS, calls)))


class _Span:
    __slots__ = ("tracer", "layer_id", "sid")

    def __init__(self, tracer: Tracer, layer_id: int):
        self.tracer = tracer
        self.layer_id = layer_id

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.sid = len(t.start)
        t.layer.append(self.layer_id)
        t.parent.append(t._stack[-1])
        t.start.append(time.perf_counter())
        t.end.append(0.0)
        t._stack.append(self.sid)
        return self

    def __exit__(self, *exc: Any) -> None:
        t = self.tracer
        t.end[self.sid] = time.perf_counter()
        t._stack.pop()
