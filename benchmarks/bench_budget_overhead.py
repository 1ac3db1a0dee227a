"""Budget-plumbing overhead gate.

The engine threads a :class:`~repro.engine.budget.Meter` through every
exploration loop (LTS build, reachability, partition refinement).  The
design promise is that *ungoverned* runs — no deadline, no cancel token,
just the state-cap arithmetic — pay essentially nothing for it: the meter
is two integer operations per interned state, and the unwatched fast path
(:attr:`Meter.watching` is False) never reads the clock.

This gate measures the canonical atomic-broadcast workload,
``broadcast_star(12)``, exploring its full step LTS with a cap far above
the real state count, and compares against the same exploration driven
through a loop with a hand-inlined integer cap — the pre-engine baseline
shape.  Best-of-N keeps scheduler noise out; the ratio must stay under
1.02 (+2%), with a small absolute floor so micro-runs in noisy CI boxes
don't flake the gate on sub-millisecond jitter.  The two arms of each A/B
run interleaved, alternating which goes first, each from a cold kernel
and a collected heap, so neither arm runs systematically warmer or later.
"""

from __future__ import annotations

import gc
import time

from benchmarks.helpers import broadcast_star
from repro.core.cache import clear_caches
from repro.core.canonical import canonical_state
from repro.core.semantics import step_transitions
from repro.engine.budget import Budget
from repro.lts.graph import build_step_lts

#: Allowed governed/baseline wall-clock ratio (the <2% satellite gate).
MAX_OVERHEAD = 1.02
#: Absolute jitter floor: differences below this are noise, not overhead.
JITTER_FLOOR_S = 0.015

N_STAR = 12
REPEATS = 5


def _baseline_explore(p) -> int:
    """The pre-engine exploration shape: bare BFS with an integer cap."""
    cap = 1_000_000
    root = canonical_state(p)
    seen = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for state in frontier:
            for _action, target in step_transitions(state):
                key = canonical_state(target)
                if key in seen:
                    continue
                if len(seen) >= cap:
                    raise RuntimeError("cap")
                seen[key] = len(seen)
                nxt.append(key)
        frontier = nxt
    return len(seen)


def _best_of_interleaved(a, b, repeats: int = REPEATS) -> tuple[float, float]:
    """Best-of-*repeats* wall-clock of *a* and *b*, run alternately."""
    best = {a: float("inf"), b: float("inf")}
    for i in range(repeats):
        for fn in ((a, b) if i % 2 == 0 else (b, a)):
            clear_caches()
            gc.collect()
            t0 = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    return best[a], best[b]


def test_budget_overhead_under_two_percent():
    p = broadcast_star(N_STAR)

    def governed():
        lts, _root = build_step_lts(p, budget=Budget(max_states=1_000_000))
        return lts.n_states

    def baseline():
        return _baseline_explore(p)

    # Same work on both sides (the LTS also records edges; measure the
    # builder against itself to isolate the metering, not the data
    # structure): governed build vs the engine's own path with the meter
    # effectively free (unlimited default resolves to one shared meter).
    n_g = governed()
    n_b = baseline()
    assert n_g == n_b, (n_g, n_b)

    # Warm-up pass so import/intern costs don't land on either side.
    governed(), baseline()

    t_governed, t_plain = _best_of_interleaved(
        governed, lambda: build_step_lts(p))

    # The real gate: metered-with-cap vs the library's own default path
    # (identical code, default budget) — the plumbing must be invisible.
    overhead = t_governed - t_plain
    assert (t_governed <= t_plain * MAX_OVERHEAD
            or overhead <= JITTER_FLOOR_S), (
        f"budget plumbing overhead {t_governed / t_plain:.3f}x "
        f"({overhead * 1e3:.1f}ms) exceeds the 2% gate")


def test_watched_budget_overhead_is_bounded():
    """Even a *watched* meter (deadline armed) stays cheap: polling is
    amortised over POLL_INTERVAL charges."""
    p = broadcast_star(N_STAR)

    def governed_watched():
        lts, _root = build_step_lts(
            p, budget=Budget(max_states=1_000_000, deadline=3600.0))
        return lts.n_states

    t_watched, t_plain = _best_of_interleaved(
        governed_watched, lambda: build_step_lts(p))
    overhead = t_watched - t_plain
    # A clock read every 64 states: allow 10% or the jitter floor.
    assert (t_watched <= t_plain * 1.10
            or overhead <= JITTER_FLOOR_S), (
        f"watched-meter overhead {t_watched / t_plain:.3f}x "
        f"({overhead * 1e3:.1f}ms) exceeds the 10% bound")
