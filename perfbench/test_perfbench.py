"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts src/ on sys.path
import layers
import workloads
from tracer import Tracer
from workloads import (
    PAPER_PAIRS,
    Query,
    broadcast_star,
    make_round,
    relay_star,
    token_ring,
)

import repro

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BUDGET = 50_000


def _tagged_names(src: str) -> set[str]:
    """Channel names that carry a per-query tag (``a_<tag>``)."""
    return set(re.findall(r"[a-z][a-z0-9]*_[a-z0-9]+", src))


def _dump(queries: list[Query]) -> bytes:
    return json.dumps([(q.shape, q.op, q.args, q.expected, q.kwargs)
                       for q in queries]).encode()


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    for index in (0, 3):
        assert (_dump(make_round(workload, 7, index))
                == _dump(make_round(workload, 7, index)))
    assert _dump(make_round(workload, 7, 0)) != _dump(
        make_round(workload, 8, 0))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_runs_share_shapes_but_no_names(workload):
    untraced, traced = make_round(workload, 7, 2, "u"), make_round(
        workload, 7, 2, "t")
    assert [q.shape for q in untraced] == [q.shape for q in traced]
    if workload != "service":
        assert not _tagged_names(untraced[0].args[0]) & _tagged_names(
            traced[0].args[0])


@pytest.mark.parametrize("workload", ("statespace", "equiv"))
def test_channel_names_are_fresh_per_query(workload):
    seen: set[str] = set()
    for query in make_round(workload, 3, 0):
        names = _tagged_names(query.args[0])
        assert names and not names & seen, query.shape
        seen |= names


def test_service_repeats_follow_their_first_occurrence():
    queries = make_round("service", 5, 0)
    seen: set[tuple] = set()
    repeats = 0
    for query in queries:
        rec = json.loads(query.args[0])
        key = (rec["p"], rec["q"], rec["relation"], rec["weak"])
        if query.shape.startswith("repeat"):
            repeats += 1
            assert key in seen
        else:
            seen.add(key)
    assert repeats == workloads.REPEATS


# -- known answers at small sizes --------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_state_counts_match_construction(n):
    def states(src, calculus=None):
        ex = repro.explore(src, budget=repro.Budget(max_states=BUDGET),
                           calculus=calculus)
        assert ex.complete
        return ex.n_states
    assert states(broadcast_star(n, "k")) == 2 ** n + 1
    assert states(broadcast_star(n, "k"), "lossy") == 3 ** n + 1
    assert states(relay_star(n, "k")) == 3 ** n + 1
    assert states(token_ring(n + 1, "k")) == n + 3


def test_reach_answers_match_construction():
    t = "k"
    assert repro.reach(broadcast_star(3, t), f"r2_{t}").is_true
    assert repro.reach(relay_star(3, t), f"r0_{t}").is_true
    assert repro.reach(token_ring(4, t), f"c3_{t}").is_true
    assert repro.reach(broadcast_star(3, t), f"absent_{t}").is_false
    src = f"{broadcast_star(3, t)} | {workloads.forwarder(t)}"
    assert repro.reach(src, f"sig_{t}").is_false
    assert repro.reach(src, f"sig_{t}", calculus="lossy").is_false


@pytest.mark.parametrize("relation", ["labelled", "barbed", "step"])
@pytest.mark.parametrize("weak", [False, True])
def test_pair_answers_match_construction(relation, weak):
    import random
    rng = random.Random(1)

    def check(p, q):
        return repro.check(p, q, relation=relation, weak=weak,
                           budget=repro.Budget(max_states=BUDGET))

    for n in (2, 3):
        assert check(*workloads._wrong_pair(n, "k", rng,
                                            hide=True)).is_false
        assert check(*workloads._wrong_pair(n, "k", rng,
                                            relay=True)).is_false
        assert check(*workloads._idle_pair(n, "k")).is_true
        tau = check(*workloads._tau_pair(n, "k"))
        assert tau.is_true if weak else tau.is_false


def test_service_answers_match_construction():
    """One service round: the paper's answers and the generated laws."""
    tally = run.Tally()
    run.run_service_round(make_round("service", 4, 0), tally, None, None)
    assert tally.failures == []
    assert tally.decided == tally.attempted
    assert len(PAPER_PAIRS) + workloads.GENERATED_PAIRS + \
        workloads.REPEATS == tally.attempted


# -- the answer check ---------------------------------------------------------

def test_wrong_known_answer_is_caught():
    good = Query("explore broadcast_star(2)", "explore",
                 (broadcast_star(2, "k"),), 5)
    bad = Query("explore broadcast_star(2)", "explore",
                (broadcast_star(2, "w"),), 6)
    raises = Query("check unparsable", "check", ("a! |", "a!"), True,
                   {"relation": "labelled", "weak": False})
    tally = run.Tally()
    run.run_api_round([good, bad, raises], "statespace", tally, None, None)
    assert tally.decided == 2 and len(tally.failures) == 2
    assert "known answer 6" in tally.failures[0]
    line = json.loads(run.result_line(tally.attempted, tally.failures, {}))
    assert line["correct"] is False and line["failed"] == 2


def test_wrong_service_answer_is_caught():
    queries = make_round("service", 4, 0)
    flipped = [Query(q.shape, q.op, q.args, not q.expected)
               if i == 5 else q for i, q in enumerate(queries)]
    tally = run.Tally()
    run.run_service_round(flipped, tally, None, None)
    assert len(tally.failures) == 1


# -- the tracer ---------------------------------------------------------------

def test_tracer_wraps_every_alias_and_self_times_add_up():
    from repro.core import canonical
    from repro.lts import graph
    original = canonical.canonical_state
    assert graph.canonical_state is original
    tracer = Tracer()
    tracer.install()
    try:
        assert canonical.canonical_state is not original
        assert graph.canonical_state is canonical.canonical_state
        tally = run.Tally()
        run.run_api_round(make_round("statespace", 1, 0)[:6], "statespace",
                          tally, lambda: tracer.span("query"), None)
    finally:
        tracer.uninstall()
    assert canonical.canonical_state is original
    selfs, _inclusive, calls = tracer.layer_times()
    assert calls["query"] == 6 and calls["core.canonical"] > 0
    assert sum(selfs.values()) == pytest.approx(
        sum(tracer.end[i] - tracer.start[i]
            for i in range(len(tracer.start)) if tracer.parent[i] < 0))


# -- the printed result -------------------------------------------------------

def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    for trace, spec in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", "service", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert out.returncode == 0, out.stderr
        result = _last_json(out.stdout)
        assert sorted(result) == ["attempted", "correct", "failed",
                                  "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        printed = [(name, v["unit"]) for name, v in
                   result["metrics"].items()]
        assert printed == [(m["name"], m["unit"]) for m in BENCHMARK[spec]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "statespace",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "{" not in out.stdout
