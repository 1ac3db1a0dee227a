"""Hash-consing invariants of the term kernel and the equivalence of the
worklist partition refinement with the naive global fixpoint.

The interning soundness story: nodes are deduplicated purely by structural
equality, which is finer than any behavioural relation, so sharing nodes
can never identify terms the semantics distinguishes; the node-level caches
hold pure functions of structure, so sharing them is equally harmless.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import processes0, processes1

import repro
from repro.core.cache import cache_stats, clear_caches
from repro.core.canonical import canonical_state
from repro.core.freenames import free_names
from repro.core.parser import parse
from repro.core.pretty import pretty
from repro.core.semantics import step_transitions
from repro.core.syntax import NIL, Output, Par, Sum, Tau, intern_stats
from repro.lts.partition import (
    coarsest_partition,
    coarsest_partition_labelled,
    partition_relates,
)


class TestHashConsing:
    @given(processes0)
    def test_reconstruction_is_identical(self, p):
        """Rebuilding a term from its fields yields the same object."""
        rebuilt = parse(pretty(p))
        assert rebuilt == p
        assert rebuilt is p  # interned: structural equality IS identity

    @given(processes1)
    def test_eq_hash_pretty_stable(self, p):
        q = parse(pretty(p))
        assert q is p
        assert hash(q) == hash(p)
        assert pretty(q) == pretty(p)

    @given(processes0)
    def test_interning_preserves_transitions(self, p):
        """The transition set only depends on structure, never on sharing."""
        moves = step_transitions(p)
        again = step_transitions(parse(pretty(p)))
        assert moves == again

    def test_distinct_terms_stay_distinct(self):
        assert Tau(NIL) is not Output("a", (), NIL)
        assert Sum(Tau(NIL), NIL) is not Par(Tau(NIL), NIL)
        assert Output("a", (), NIL) is not Output("b", (), NIL)

    def test_intern_stats_track_hits(self):
        clear_caches()
        Tau(NIL)
        before = intern_stats()["hits"]
        Tau(NIL)
        assert intern_stats()["hits"] > before


    def test_hash_stable_across_interpreters(self):
        """Term and action hashes depend on structure only, not on where
        the interpreter happened to place the node classes in memory."""
        script = (
            "from repro.core.parser import parse\n"
            "from repro.core.semantics import step_transitions\n"
            "for src in ('0', 'a! | b(x).x!', 'nu c (c<x> | c(y).y!)',\n"
            "            'rec X(). tau.(a! | X)'):\n"
            "    p = parse(src)\n"
            "    print(hash(p), sorted(hash(a) for a, _ in"
            " step_transitions(p)))\n")
        env = dict(os.environ, PYTHONHASHSEED="0",
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        outputs = [subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout
                   for _ in range(2)]
        assert outputs[0] and outputs[0] == outputs[1]


class TestClearCaches:
    @given(processes0)
    @settings(max_examples=30)
    def test_clear_preserves_semantics(self, p):
        """A cold kernel recomputes exactly what the warm kernel knew."""
        warm_steps = step_transitions(p)
        warm_fn = free_names(p)
        warm_canon = canonical_state(p)
        clear_caches()
        q = parse(pretty(p))
        assert step_transitions(q) == warm_steps
        assert free_names(q) == warm_fn
        assert canonical_state(q) == warm_canon

    def test_clear_resets_stats(self):
        parse("a!.b? | nu x x<a>")
        clear_caches()
        stats = cache_stats()
        assert stats["interned"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_old_nodes_remain_usable(self):
        p = parse("a! | a?.c!")
        clear_caches()
        q = parse("a! | a?.c!")
        assert p == q  # equality survives re-interning
        assert step_transitions(p) == step_transitions(q)


def _reference_coarsest_partition(successors, initial_keys):
    """The seed's naive global-fixpoint refinement, kept as the oracle."""
    n = len(successors)
    key_ids = {}
    block = [key_ids.setdefault(k, len(key_ids)) for k in initial_keys]
    while True:
        signatures = {}
        new_block = [0] * n
        for i in range(n):
            sig = (block[i], frozenset(block[j] for j in successors[i]))
            new_block[i] = signatures.setdefault(sig, len(signatures))
        if new_block == block:
            return block
        block = new_block


def _same_partition(a, b):
    """Equality of partitions up to renaming of block ids."""
    mapping = {}
    for x, y in zip(a, b):
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(a)) == len(set(b))


def _random_lts(rng, n, max_out, n_keys):
    succ = [frozenset(rng.randrange(n) for _ in range(rng.randrange(max_out + 1)))
            for _ in range(n)]
    keys = [rng.randrange(n_keys) for _ in range(n)]
    return succ, keys


class TestWorklistRefinement:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_fixpoint(self, seed, n):
        rng = random.Random(seed)
        succ, keys = _random_lts(rng, n, max_out=3, n_keys=3)
        assert _same_partition(coarsest_partition(succ, keys),
                               _reference_coarsest_partition(succ, keys))

    def test_matches_reference_on_structured_graphs(self):
        # chains, cycles and dags hit the worklist's requeue logic hardest
        cases = [
            ([frozenset({i + 1}) for i in range(49)] + [frozenset()], [0] * 50),
            ([frozenset({(i + 1) % 30}) for i in range(30)], [i % 2 for i in range(30)]),
            ([frozenset({i + 1, (i + 2) % 20}) for i in range(18)]
             + [frozenset({19}), frozenset()], [0] * 20),
        ]
        for succ, keys in cases:
            assert _same_partition(coarsest_partition(succ, keys),
                                   _reference_coarsest_partition(succ, keys))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_partition_relates_agrees(self, seed):
        rng = random.Random(seed)
        succ, keys = _random_lts(rng, n=15, max_out=3, n_keys=2)
        ref = _reference_coarsest_partition(succ, keys)
        for a in range(0, 15, 4):
            for b in range(1, 15, 5):
                assert partition_relates(succ, keys, a, b) == (ref[a] == ref[b])

    def test_labelled_refinement_distinguishes_labels(self):
        # 0 -x-> 2, 1 -y-> 2: same unlabelled future, different labels
        per_label = [
            [frozenset({2}), frozenset(), frozenset()],   # label x
            [frozenset(), frozenset({2}), frozenset()],   # label y
        ]
        keys = [0, 0, 1]
        block = coarsest_partition_labelled(per_label, keys)
        assert block[0] != block[1]
        unlabelled = coarsest_partition(
            [frozenset({2}), frozenset({2}), frozenset()], keys)
        assert unlabelled[0] == unlabelled[1]

    def test_empty_lts(self):
        assert coarsest_partition([], []) == []
        assert coarsest_partition_labelled([], []) == []
