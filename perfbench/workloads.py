"""Seeded known-answer inputs for the benchmark's three workloads.

Every input is bpi-calculus source text (or, on ``service``, one
JSON-lines request) built here from the seed, and every query carries the
answer fixed by how its input was built -- never one computed by a
checker of the library under test:

* ``broadcast_star(n)`` (one sender, n receivers) has 2^n + 1 states:
  before the broadcast, and one state per subset of replies already sent.
  Under lossy delivery each receiver either got the value or lost it, so
  it has 3^n + 1 states.
* ``relay_star(n)`` (the star behind ``nu``, each receiver relaying over
  a ``tau``) has 3^n + 1 states: each receiver waits, relays, or is done.
* ``token_ring(n)`` has n + 2 states: the token sits at one of n hops,
  plus the start and the state where the last hop re-sends it.
* A receiver's reply barb ``r_i`` is reachable; a channel that occurs
  nowhere is not, and neither is ``sig`` behind ``done(x).sig<x>`` when
  nothing ever sends on ``done``.
* Replacing one receiver's reply channel by a fresh ``wrong`` channel is
  observable after the broadcast, so the pair is FALSE under every
  relation; ``tau.tau`` in place of ``tau`` is invisible to the weak
  relations only; ``nu b b(x).c<x>`` can never act, so adding it is TRUE.
* A term rewritten by a structural or Table 6/7 law (commuting ``|`` or
  ``+``, ``p + p``, ``p | 0``, alpha-renaming a binder) is TRUE; adding a
  parallel ``z!`` on a fresh ``z`` adds a barb, FALSE under every relation.

Each round is a fixed multiset of query *shapes* (what is run, at which
size); the seed picks the order, the fresh channel names, which receiver
is wrong or probed, and the random terms of ``service``.  Keeping the
shapes fixed keeps the cost of a round, and so the figures, steady from
seed to seed; the names are fresh per query so that no query can be
answered from the memo another query left behind.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("statespace", "equiv", "service")

#: Per-query ``max_states`` budget of each workload (service requests
#: carry their own, see :data:`SERVICE_BUDGET`).  Every known answer is
#: reached well inside it, so a query ending UNKNOWN means the program
#: charged more than it used to.
MAX_STATES = {"statespace": 50_000, "equiv": 50_000}

#: ``max_states`` of a service request's first occurrence, and the
#: budgets a repeat may carry.  Every pair charges well under the
#: smallest, so a repeat is a budget-aware reuse hit.
SERVICE_BUDGET = 2_000
SERVICE_REPEAT_BUDGETS = (1_000, 2_000, 4_000)


@dataclass
class Query:
    """One query: an API call (or a request line) and its known answer.

    ``shape`` names what is run without the names, so latencies can be
    grouped by it; ``expected`` is a state count (``explore``) or a truth
    value (``reach``, ``check``, ``serve``).
    """

    shape: str
    op: str
    args: tuple[Any, ...]
    expected: int | bool
    kwargs: dict[str, Any] = field(default_factory=dict)


# -- terms --------------------------------------------------------------------

def broadcast_star(n: int, t: str, *, wrong: int | None = None,
                   hide: bool = False) -> str:
    """``a<v> | a(x0).r0<x0> | ...``; receiver *wrong* replies on
    ``wrong``; *hide* restricts ``a`` so the broadcast is internal."""
    receivers = " | ".join(
        f"a_{t}(x{i}).{reply(i, t, wrong)}<x{i}>" for i in range(n))
    body = f"a_{t}<v_{t}> | {receivers}"
    return f"nu a_{t} ({body})" if hide else body


def relay_star(n: int, t: str, *, wrong: int | None = None,
               taus: int = 1) -> str:
    """``nu a (a<v> | a(x0).tau.r0<x0> | ...)`` with *taus* relay steps."""
    relay = "tau." * taus
    receivers = " | ".join(
        f"a_{t}(x{i}).{relay}{reply(i, t, wrong)}<x{i}>" for i in range(n))
    return f"nu a_{t} (a_{t}<v_{t}> | {receivers})"


def token_ring(n: int, t: str) -> str:
    """n hops passing a private token around the ring ``c0 .. c(n-1)``."""
    hops = " | ".join(f"c{i}_{t}(x).c{(i + 1) % n}_{t}<x>" for i in range(n))
    return f"(nu k c0_{t}<k>) | {hops}"


def idle_listener(t: str) -> str:
    """A listener on a private channel nobody can send on: inert."""
    return f"nu b_{t} b_{t}(x).c_{t}<x>"


def forwarder(t: str) -> str:
    """A forwarder whose trigger ``done`` is never sent."""
    return f"done_{t}(x).sig_{t}<x>"


def reply(i: int, t: str, wrong: int | None) -> str:
    return f"wrong_{t}" if i == wrong else f"r{i}_{t}"


# -- statespace ---------------------------------------------------------------
#
# Exploration with no equivalence checker and no store: build_step_lts,
# the Table 3 backends and the canonical form carry the cost, and the
# reach probes add the flow pre-solver (refutations) and early-exit
# search.  Three queries in twenty-five run under the lossy backend.
#
# The host the benchmark was tuned on slows by a third in bursts, so the
# shape counts hold each percentile in the upper part of a block of one
# shape whose neighbours cost clearly more or less (see README.md): of 25
# queries, 8 are reach probes (< 20 ms), then come six explores of
# token_ring(24) (the median is the fifth), five star explores, five
# explores of broadcast_star(10) (the 90th percentile lies between the
# third and the fourth) and one of broadcast_star(11).

def _explore(shape: str, src: str, states: int,
             calculus: str | None = None) -> Query:
    kwargs = {"calculus": calculus} if calculus else {}
    return Query(shape, "explore", (src,), states, kwargs)


def _reach(shape: str, src: str, chan: str, answer: bool,
           calculus: str | None = None) -> Query:
    kwargs = {"calculus": calculus} if calculus else {}
    return Query(shape, "reach", (src, chan), answer, kwargs)


def statespace_round(rng: random.Random, tag: Callable[[], str]
                     ) -> list[Query]:
    qs: list[Query] = []
    for n in (9, 11):
        t = tag()
        qs.append(_reach(f"reach reply broadcast_star({n})",
                         broadcast_star(n, t), f"r{rng.randrange(n)}_{t}",
                         True))
    t = tag()
    qs.append(_reach("reach lossy reply broadcast_star(6)",
                     broadcast_star(6, t), f"r{rng.randrange(6)}_{t}", True,
                     "lossy"))
    t = tag()
    qs.append(_reach("reach reply relay_star(6)", relay_star(6, t),
                     f"r{rng.randrange(6)}_{t}", True))
    t = tag()
    qs.append(_reach("reach hop token_ring(16)", token_ring(16, t),
                     f"c{rng.randrange(16)}_{t}", True))
    t = tag()
    qs.append(_reach("reach absent broadcast_star(10)",
                     broadcast_star(10, t), f"absent_{t}", False))
    t = tag()
    qs.append(_reach("reach forwarder broadcast_star(10)",
                     f"{broadcast_star(10, t)} | {forwarder(t)}",
                     f"sig_{t}", False))
    t = tag()
    qs.append(_reach("reach lossy forwarder relay_star(5)",
                     f"{relay_star(5, t)} | {forwarder(t)}",
                     f"sig_{t}", False, "lossy"))
    for _ in range(6):
        qs.append(_explore("explore token_ring(24)", token_ring(24, tag()),
                           24 + 2))
    for n in (8, 9, 10, 10, 10, 10, 10, 11):
        qs.append(_explore(f"explore broadcast_star({n})",
                           broadcast_star(n, tag()), 2 ** n + 1))
    for n in (5, 6):
        qs.append(_explore(f"explore relay_star({n})",
                           relay_star(n, tag()), 3 ** n + 1))
    qs.append(_explore("explore lossy broadcast_star(6)",
                       broadcast_star(6, tag()), 3 ** 6 + 1, "lossy"))
    rng.shuffle(qs)
    return qs


# -- equiv --------------------------------------------------------------------
#
# The on-the-fly product search and its up-to closures (rewrite,
# symmetry, renaming, reflexivity) carry the cost; no LTS is built except
# by the two global-strategy pairs in twenty-one, which are sized so the
# game finishes well inside the budget.  Weak relay stars exercise
# LazyReach; two pairs are on the barbed and step relations.
#
# As on statespace, blocks of one shape hold the percentiles: of 21
# pairs, 6 cost under 70 ms, then come six broadcast_star(4)-vs-idle
# pairs, eight broadcast_star(5)-vs-idle pairs and one weak relay_star(4)
# pair.  The median is the fifth of the first block and the 90th
# percentile the seventh of the second: the host slows in bursts, and a
# percentile in the upper part of a block reads the block's slowed
# latency in every run, where one in its middle flips between the slowed
# and the unslowed latency with the share of the run the host was slow.
# Neither block depends on which receiver the seed makes wrong.

def _check(shape: str, p: str, q: str, answer: bool, *,
           relation: str = "labelled", weak: bool = False,
           strategy: str | None = None) -> Query:
    kwargs: dict[str, Any] = {"relation": relation, "weak": weak}
    if strategy:
        kwargs["strategy"] = strategy
    return Query(shape, "check", (p, q), answer, kwargs)


def _wrong_pair(n: int, t: str, rng: random.Random, *,
                relay: bool = False, hide: bool = False
                ) -> tuple[str, str]:
    k = rng.randrange(n)
    if relay:
        return relay_star(n, t), relay_star(n, t, wrong=k)
    return (broadcast_star(n, t, hide=hide),
            broadcast_star(n, t, hide=hide, wrong=k))


def _idle_pair(n: int, t: str) -> tuple[str, str]:
    return broadcast_star(n, t), f"{broadcast_star(n, t)} | {idle_listener(t)}"


def _tau_pair(n: int, t: str) -> tuple[str, str]:
    return relay_star(n, t), relay_star(n, t, taus=2)


def equiv_round(rng: random.Random, tag: Callable[[], str]) -> list[Query]:
    qs: list[Query] = []
    qs.append(_check("labelled broadcast_star(8) vs wrong",
                     *_wrong_pair(8, tag(), rng), False))
    for n in (4,) * 6 + (5,) * 8:
        qs.append(_check(f"labelled broadcast_star({n}) vs idle",
                         *_idle_pair(n, tag()), True))
    qs.append(_check("weak labelled relay_star(4) vs wrong",
                     *_wrong_pair(4, tag(), rng, relay=True), False,
                     weak=True))
    qs.append(_check("weak labelled relay_star(3) vs tau.tau",
                     *_tau_pair(3, tag()), True, weak=True))
    qs.append(_check("barbed hidden broadcast_star(8) vs wrong",
                     *_wrong_pair(8, tag(), rng, hide=True), False,
                     relation="barbed"))
    qs.append(_check("weak step relay_star(4) vs wrong",
                     *_wrong_pair(4, tag(), rng, relay=True), False,
                     relation="step", weak=True))
    qs.append(_check("global labelled broadcast_star(4) vs wrong",
                     *_wrong_pair(4, tag(), rng), False, strategy="global"))
    qs.append(_check("global weak labelled relay_star(2) vs tau.tau",
                     *_tau_pair(2, tag()), True, weak=True,
                     strategy="global"))
    rng.shuffle(qs)
    return qs


# -- service ------------------------------------------------------------------
#
# JSON-lines requests through repro.store.batch.serve with a fresh store
# per round: each request is a millisecond or two of checking, so the
# store's lookup (pair_key canonicalisation, sqlite read) and record
# (sqlite commit) are a large share of it.  About two requests in five
# repeat an earlier pair -- some at a smaller or larger max_states -- so
# reuse hits run beside misses that compute and record.

#: The paper's pairs (rows R1-R4, TH1, S6c) with the answers the paper
#: states: (p, q, relation, weak, answer).
PAPER_PAIRS: tuple[tuple[str, str, str, bool, bool], ...] = (
    ("a<b>", "a<b>.c<d>", "barbed", False, True),
    ("nu a a<b>", "nu a a<b>.c<d>", "barbed", False, False),
    ("b! + tau.c!", "b! + b!.c!", "step", False, True),
    ("(b! + tau.c!) | b?.a!", "(b! + b!.c!) | b?.a!", "step", False, False),
    ("b<a>.a!", "b<c>.a!", "step", False, True),
    ("nu a b<a>.a!", "nu a b<c>.a!", "step", False, False),
    ("b! + tau.c!", "b! + b!.c!", "barbed", False, False),
    ("nu a b<a>.a!", "nu a b<c>.a!", "barbed", False, True),
    ("a?", "b?", "labelled", False, True),
    ("a? + c!", "b? + c!", "labelled", False, False),
    ("x!.y?.c! + y?.(x! | c!)", "x! | y?.c!", "labelled", False, True),
    ("x!.x?.c! + x?.(x! | c!)", "x! | x?.c!", "labelled", False, False),
    ("a?", "b?", "noisy", False, False),
    ("x!.y?.c! + y?.(x! | c!)", "x! | y?.c!", "noisy", False, True),
    ("x!.y?.c! + y?.(x! | c!)", "x! | y?.c!", "congruence", False, False),
    ("a?", "0", "labelled", False, True),
    ("a! | b?", "a!.b? + b?.(a! | 0)", "barbed", False, True),
    ("a! | b?", "a!.b? + b?.(a! | 0)", "step", False, True),
    ("a!", "b!", "step", False, False),
    ("a! + b!", "a!.b!", "labelled", False, False),
    ("a!.(b! + c!)", "a!.b! + a!.c!", "labelled", True, False),
)

#: Relations (and strength) a generated pair is checked under.
SERVICE_RELATIONS = (("labelled", False), ("labelled", True),
                     ("barbed", False), ("barbed", True),
                     ("step", False), ("step", True))

GENERATED_PAIRS = 24
REPEATS = 30


class _Term:
    """A small random finite term over ``a`` (arity 1, carrying arity-0
    names) and ``b``, ``c`` (arity 0), rendered to source text.

    Binders get names unique within the term, so alpha-renaming one is a
    plain rename of that name.
    """

    def __init__(self, rng: random.Random, t: str):
        self.rng = rng
        self.t = t
        self.binders = 0

    def fresh(self, stem: str) -> str:
        self.binders += 1
        return f"{stem}{self.binders}_{self.t}"

    def build(self, size: int, scope: tuple[str, ...]) -> str:
        rng, t = self.rng, self.t
        if size <= 0:
            return "0"
        chans = (f"b_{t}", f"c_{t}") + scope
        kind = rng.randrange(7)
        rest = size - 1
        if kind == 0:
            return f"tau.{self.build(rest, scope)}"
        if kind == 1:
            return f"{rng.choice(chans)}!.{self.build(rest, scope)}"
        if kind == 2:
            return f"a_{t}<{rng.choice(chans)}>.{self.build(rest, scope)}"
        if kind == 3:
            return f"{rng.choice(chans)}?.{self.build(rest, scope)}"
        if kind == 4:
            x = self.fresh("x")
            return f"a_{t}({x}).{self.build(rest, scope + (x,))}"
        if kind == 5:
            d = self.fresh("d")
            return f"nu {d} ({self.build(rest, scope + (d,))})"
        left = rest // 2
        op = rng.choice(("+", "|"))
        return (f"({self.build(left, scope)} {op} "
                f"{self.build(rest - left, scope)})")


def _law_pair(rng: random.Random, t: str) -> tuple[str, str, str]:
    """(p, q, law) with q = p rewritten by a congruence law: TRUE."""
    gen = _Term(rng, t)
    x = gen.fresh("x")
    left = f"a_{t}({x}).{gen.build(2, (x,))}"
    right = gen.build(2, ())
    op = rng.choice(("+", "|"))
    p = f"({left} {op} {right})"
    law = rng.choice(("commute", "idempotent", "unit", "alpha"))
    if law == "commute":
        q = f"({right} {op} {left})"
    elif law == "idempotent":
        q = f"({p} + {p})"
    elif law == "unit":
        q = f"({p} | 0)"
    else:
        q = p.replace(x, f"y_{t}")
    return p, q, law


def _fresh_barb_pair(rng: random.Random, t: str) -> tuple[str, str]:
    """(p, p | z!) with z fresh: FALSE under every relation."""
    gen = _Term(rng, t)
    p = gen.build(4, ())
    return p, f"({p} | z_{t}!)"


def service_round(rng: random.Random, tag: Callable[[], str]
                  ) -> list[Query]:
    firsts: list[tuple[dict[str, Any], bool, str]] = []
    for p, q, relation, weak, answer in PAPER_PAIRS:
        firsts.append(({"p": p, "q": q, "relation": relation, "weak": weak},
                       answer, f"paper {relation}{' weak' * weak}"))
    for i in range(GENERATED_PAIRS):
        t = tag()
        relation, weak = rng.choice(SERVICE_RELATIONS)
        if i % 2 == 0:
            p, q, law = _law_pair(rng, t)
            answer, kind = True, f"law {law}"
        else:
            p, q = _fresh_barb_pair(rng, t)
            answer, kind = False, "fresh barb"
        firsts.append(({"p": p, "q": q, "relation": relation, "weak": weak},
                       answer, f"generated {kind}"))
    rng.shuffle(firsts)
    # Repeats go after their first occurrence: insert each at a random
    # later position of the growing stream.
    stream: list[tuple[dict[str, Any], bool, str, int]] = [
        (rec, answer, shape, SERVICE_BUDGET)
        for rec, answer, shape in firsts]
    for _ in range(REPEATS):
        i = rng.randrange(len(firsts))
        rec, answer, shape = firsts[i]
        first_at = next(j for j, item in enumerate(stream) if item[0] is rec)
        at = rng.randrange(first_at + 1, len(stream) + 1)
        stream.insert(at, (rec, answer, f"repeat {shape}",
                           rng.choice(SERVICE_REPEAT_BUDGETS)))
    qs = []
    for n, (rec, answer, shape, budget) in enumerate(stream):
        line = json.dumps(dict(rec, id=str(n), max_states=budget),
                          sort_keys=True)
        qs.append(Query(shape, "serve", (line,), answer))
    return qs


# -- rounds -------------------------------------------------------------------

_ROUNDS = {"statespace": statespace_round, "equiv": equiv_round,
           "service": service_round}


def make_round(workload: str, seed: int, index: int,
               run: str = "m") -> list[Query]:
    """Round *index* of *workload* for *seed*, in query order.

    *run* separates the name spaces of the runs made in one process (the
    untraced and traced halves of a trace run): the same (workload, seed,
    index) yields the same shapes and choices under every *run*, with
    channel names that share nothing across runs or queries.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    stamp = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    counter = iter(range(1 << 30))

    def tag() -> str:
        return f"{stamp}{run}{index}n{next(counter)}"

    return _ROUNDS[workload](rng, tag)
