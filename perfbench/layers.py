"""Per-layer metrics of a traced run, and the layer table printed with it.

Layers are named after the ``src/repro`` packages; see ``README.md`` for
which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from tracer import CLOSURES, LAYERS, Tracer

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
TIMED = tuple(layer for layer in LAYERS if layer != "query")

#: Every per-layer metric, in report order: (name, unit).
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{layer}.{kind}", unit) for layer in TIMED
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("core.intern.nodes", "count"),
    ("core.intern.hit_ratio", "ratio"),
    ("lts.states", "count"),
    ("lts.edges", "count"),
    ("lts.states_per_s", "1/s"),
    ("equiv.pairs", "count"),
    *((f"equiv.closure.{name}.useful_ratio", "ratio") for name in CLOSURES),
    ("equiv.closure.renaming.distinct_ratio", "ratio"),
    ("flow.presolve.useful_ratio", "ratio"),
    ("store.db.hit_ratio", "ratio"),
    ("store.db.bytes", "bytes"),
    ("engine.charges", "count"),
    ("engine.unknown", "count"),
    ("unattributed.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Layer (or prefix of a group of layers) each workload is expected to
#: spend the most self time in.
EXPECTED_TOP = {
    "statespace": ("core.canonical",),
    "equiv": ("core.substitution", "equiv.closure."),
    "service": ("store.db.",),
}

#: Base of each ratio, printed beside it in the layer table.
BASES = {
    **{f"equiv.closure.{name}.useful_ratio":
       f"apply changed or discharged its pair / equiv.closure.{name}.calls"
       for name in CLOSURES},
    "equiv.closure.renaming.distinct_ratio":
        "distinct argument pairs / equiv.closure.renaming.calls",
    "flow.presolve.useful_ratio": "refuted / flow.presolve.calls",
    "core.intern.hit_ratio": "intern hits / intern lookups, all rounds",
    "store.db.hit_ratio": "store hits / store lookups, all rounds",
    "lts.states_per_s": "lts.states / inclusive lts.build seconds",
    "trace.overhead_ratio": "traced wall / untraced wall, same rounds",
}


class RunObserver:
    """Kernel and store state read before each cache clear (after every
    query, or every service round) and at the end of each store session;
    ``store_bytes`` is filled in by the runner."""

    def __init__(self) -> None:
        self.intern_hits = 0
        self.intern_misses = 0
        self.intern_nodes = 0
        self.store_lookups = 0
        self.store_hits = 0
        self.store_bytes = 0

    def before_clear(self) -> None:
        from repro.core.syntax import intern_stats
        stats = intern_stats()
        self.intern_hits += int(stats["hits"])
        self.intern_misses += int(stats["misses"])
        self.intern_nodes = max(self.intern_nodes, int(stats["interned"]))

    def store_round(self, stats: dict[str, Any]) -> None:
        self.store_lookups += stats["lookups"]
        self.store_hits += stats["hits"]


@dataclass
class LayerReport:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    wall: float = 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, observed: RunObserver, traced: Any,
              untraced: Any) -> LayerReport:
    """Every metric of :data:`PER_LAYER` for one traced run.

    Layers the workload does not exercise read 0 calls and 0 seconds.
    """
    selfs, inclusive, calls = tracer.layer_times()
    units = dict(PER_LAYER)
    values: dict[str, float] = {}
    for layer in TIMED:
        values[f"{layer}.calls"] = calls[layer]
        values[f"{layer}.self_s"] = selfs[layer]
    values["core.intern.nodes"] = observed.intern_nodes
    values["core.intern.hit_ratio"] = _ratio(
        observed.intern_hits, observed.intern_hits + observed.intern_misses)
    values["lts.states"] = tracer.lts_states
    values["lts.edges"] = tracer.lts_edges
    values["lts.states_per_s"] = _ratio(tracer.lts_states,
                                        inclusive["lts.build"])
    values["equiv.pairs"] = tracer.product_charges
    for name in CLOSURES:
        values[f"equiv.closure.{name}.useful_ratio"] = _ratio(
            tracer.closure_useful[name], calls[f"equiv.closure.{name}"])
    values["equiv.closure.renaming.distinct_ratio"] = _ratio(
        len(tracer.renaming_args), calls["equiv.closure.renaming"])
    values["flow.presolve.useful_ratio"] = _ratio(
        tracer.presolve_refuted, calls["flow.presolve"])
    values["store.db.hit_ratio"] = _ratio(observed.store_hits,
                                          observed.store_lookups)
    values["store.db.bytes"] = observed.store_bytes
    values["engine.charges"] = tracer.charges
    values["engine.unknown"] = traced.unknown
    values["unattributed.self_s"] = traced.wall - sum(
        selfs[layer] for layer in TIMED)
    values["trace.overhead_ratio"] = _ratio(traced.wall, untraced.wall)
    return LayerReport({name: (values[name], units[name])
                        for name, _unit in PER_LAYER}, traced.wall)


def _top(report: LayerReport, expected: tuple[str, ...]) -> tuple[str, bool]:
    """The layer (or expected group) with the most self time, and whether
    it is the expected one."""
    m = report.metrics
    group = sum(m[f"{layer}.self_s"][0] for layer in TIMED
                if layer.startswith(expected))
    others = {layer: m[f"{layer}.self_s"][0] for layer in TIMED
              if not layer.startswith(expected)}
    top_other = max(others, key=lambda layer: others[layer])
    if group >= others[top_other]:
        return " + ".join(f"{e}*" if e.endswith(".") else e
                          for e in expected), True
    return top_other, False


def layer_table(report: LayerReport, workload: str) -> list[str]:
    """Self time, share of traced wall and counts per layer, the
    unattributed remainder, the ratios with their bases, and the check of
    which layer leads."""
    expected = EXPECTED_TOP[workload]
    m = report.metrics
    wall = report.wall
    out = [f"{'layer':34} {'calls':>9} {'self s':>9} {'share':>7}"]
    for layer in TIMED:
        n, s = m[f"{layer}.calls"][0], m[f"{layer}.self_s"][0]
        note = "" if n else "  (not exercised)"
        out.append(f"{layer:34} {int(n):9d} {s:9.3f} "
                   f"{_ratio(s, wall):7.1%}{note}")
    rest = m["unattributed.self_s"][0]
    out.append(f"{'unattributed':34} {'':9} {rest:9.3f} "
               f"{_ratio(rest, wall):7.1%}")
    out.append(f"{'traced wall':34} {'':9} {wall:9.3f} {1:7.1%}")
    out.append("counts and ratios:")
    skip = {f"{layer}.{kind}" for layer in TIMED
            for kind in ("calls", "self_s")} | {"unattributed.self_s"}
    for name, (value, unit) in m.items():
        if name in skip:
            continue
        base = f"  [{BASES[name]}]" if name in BASES else ""
        out.append(f"  {name:42} {value:14.4f} {unit}{base}")
    top, ok = _top(report, expected)
    want = " + ".join(expected)
    out.append(f"top layer by self time: {top} "
               f"({'as expected' if ok else 'expected ' + want})")
    return out
