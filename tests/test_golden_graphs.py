"""Golden graphs for every registered broadcast semantics.

Each corpus term is explored under each backend spec, and the resulting
graph is reduced to a digest of its states and labelled edges, in
exploration order.  The digests in ``tests/golden/backend_graphs.json``
were recorded once and must never change: a refactor of the step rules or
of a backend's delivery judgement is correct only if it reproduces every
graph bit for bit.  Two graphs are pinned per term and spec:

* ``step`` -- :func:`build_step_lts`, the autonomous moves (Table 3's
  outputs and taus, with each backend's delivery on the passive side);
* ``full`` -- :func:`build_full_lts`, which adds the inputs a term can
  perform, so each backend's top-level delivery judgement (the lossy
  backend's loss move, the wireless backend's reach through adjacent
  cells) is pinned as well.  Open terms that keep receiving have large
  full graphs, so this one is cut at :data:`FULL_BUDGET` states and the
  partial graph the budget trip leaves is pinned instead.

Regenerate (only when a semantics change is intended) with
``PYTHONPATH=src python -m tests.test_golden_graphs``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.parser import parse
from repro.engine.budget import Budget, BudgetExceeded
from repro.lts.graph import build_full_lts, build_step_lts
from tests.test_backends import ORACLE_TERMS

GOLDEN = Path(__file__).resolve().parent / "golden" / "backend_graphs.json"

SPECS = ("bpi", "lossy", "wireless", "wireless:a-b", "wireless:a-b,b-c")

FULL_BUDGET = 200


def _star(n: int) -> str:
    """``broadcast_star(n)``: one sender on ``a``, n replying receivers."""
    return " | ".join(
        ["a<v>"] + [f"a(x{i}).r{i}<x{i}>" for i in range(n)])


def _relay(n: int) -> str:
    """``relay_star(n)``: the star behind ``nu a``, each reply after tau."""
    receivers = " | ".join(f"a(x{i}).tau.r{i}<x{i}>" for i in range(n))
    return f"nu a (a<v> | {receivers})"


def _ring(n: int) -> str:
    """``token_ring(n)``: a private token passed around n hops."""
    hops = " | ".join(f"c{i}(t).c{(i + 1) % n}<t>" for i in range(n))
    return f"nu tok c0<tok> | {hops}"


#: name -> source.  Beyond the backend oracle's terms and small stars and
#: rings, the corpus covers the restriction rules and their alpha-hygiene:
#: scope extrusion to several receivers, an extruded binder clashing with
#: a receiver's free name, shadowed restrictions, a received value that
#: clashes with a restricted name, a restricted branch of a sum spelled
#: like the broadcast channel, and ``nu a`` over a listener on the cell
#: adjacent to ``a`` (reachable only under a topology with an ``a-b``
#: edge).
CORPUS: dict[str, str] = {
    **{f"oracle{i}": src for i, src in enumerate(ORACLE_TERMS)},
    "star2": _star(2),
    "star3": _star(3),
    "relay2": _relay(2),
    "relay3": _relay(3),
    "ring3": _ring(3),
    "ring4": _ring(4),
    "extrude_many": "nu x (a<x>.x<x>) | a(y).y(z).z! | a(w).w?",
    "extrude_clash": "nu x (a<x>.x!) | a(y).(y? | x!)",
    "shadowed": "nu x (a<x> | nu x (a<x>.x!)) | a(y).y?",
    "shadowed_extrude": "nu x nu x (a<x>.x!) | a(y).y? | x?",
    "value_clash": "nu v (a(x).(v! | x!)) | a<v>",
    "sum_branch_restricted": "a<v> | (a(x).x! + nu a a(y).y!)",
    "match_listener": "[a=a]{a(x).x!}{0} | [a=b]{0}{b(y).y!} | a<v> | b<w>",
    "adjacent_listener": "nu a (b(x).x!) | a<v>",
    "adjacent_value_clash": "nu v (b(x).(v! | x!)) | a<v>",
    "adjacent_shadow": "nu b (a(x).x!) | b<v>",
    "adjacent_sum": "a<v> | (b(x).x! + nu a b(y).y!)",
    "chain_cells": "a<v> | b(x).x! | c(y).y! | nu b c(z).z!",
    "rec_listener": "rec X(x := a). x(y).y!.X<x> | a<v>",
}


def _digest(lts) -> str:
    h = hashlib.sha256()
    for sid, state in enumerate(lts.states):
        h.update(f"S{sid} {state!r}\n".encode())
        for action, tid in lts.edges[sid]:
            h.update(f"E{sid} {action!r} {tid}\n".encode())
    return h.hexdigest()


def graphs(spec: str, source: str) -> dict[str, dict[str, object]]:
    p = parse(source)
    lts, _root = build_step_lts(p, calculus=spec)
    out = {"step": {"states": lts.n_states, "edges": lts.n_edges,
                    "digest": _digest(lts)}}
    try:
        lts, _root = build_full_lts(p, calculus=spec,
                                    budget=Budget(max_states=FULL_BUDGET))
        tripped = False
    except BudgetExceeded as exc:
        lts, _root = exc.partial
        tripped = True
    out["full"] = {"states": lts.n_states, "edges": lts.n_edges,
                   "digest": _digest(lts), "tripped": tripped}
    return out


@functools.cache
def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_graph_matches_golden(spec, name):
    assert graphs(spec, CORPUS[name]) == _load()[spec][name]


def test_golden_covers_the_corpus():
    golden = _load()
    assert sorted(golden) == sorted(SPECS)
    for spec in SPECS:
        assert sorted(golden[spec]) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_wireless_without_edges_is_bpi(name):
    # A topology with no edges lets a listener hear its own cell only,
    # which is the paper's semantics.
    assert graphs("wireless", CORPUS[name]) == graphs("bpi", CORPUS[name])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {spec: {name: graphs(spec, src) for name, src in sorted(CORPUS.items())}
         for spec in SPECS}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
