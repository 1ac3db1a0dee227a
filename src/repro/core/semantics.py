"""Early operational semantics of the bpi-calculus (Table 3 of the paper).

The LTS is factored into two judgements, mirroring how the rules use them:

* :func:`step_transitions` enumerates the *autonomous* moves ``p -phi-> p'``
  where ``phi`` is an output or ``tau`` — these never need environment
  participation and are finitely branching.

* :func:`input_continuations` computes the continuations of the early input
  ``p -a(v~)-> p'`` for one *concrete* received vector ``v~``.  The early
  rule (3) branches over all name vectors, so enumeration is delegated to
  the exploration layer, which instantiates over a finite
  :class:`~repro.core.names.NameUniverse`.

Broadcast is what makes the parallel rules (12)-(14) unusual:

* an output is matched against **every** parallel component: a component
  listening on the subject *must* receive (rule 13), one not listening is
  left unchanged (rule 14) — so a single send can have many receivers;
* outputs stay observable under composition; they become ``tau`` only when
  the subject channel is restricted (rule 6), which also re-establishes the
  scope of names extruded by the broadcast;
* restriction implements pi-style scope extrusion (rule 5), except that a
  bound output may export the fresh name to arbitrarily many receivers at
  once.

Each rule has exactly one body here, shared by every calculus backend.
:func:`table3_steps` and :func:`table3_inputs` take the judgements they
recurse into as arguments (*hooks*): the paper's semantics passes the
slot- and ``lru``-memoised functions of this module, and the lossy and
wireless backends in :mod:`repro.calculi` pass their own memo tables,
discard relation, reach test and parallel delivery rule — which is where,
and only where, they depart from the paper.
"""

from __future__ import annotations

from functools import lru_cache
from operator import eq
from typing import Callable

from .actions import TAU, Action, InputAction, OutputAction, TauAction
from .binders import freshen_action_binders
from .discard import discards, input_capabilities
from .freenames import free_names
from .names import Name, fresh_name
from .substitution import apply_subst, unfold_rec
from .syntax import (
    Ident,
    Input,
    Match,
    Nil,
    Output,
    Par,
    Process,
    Rec,
    Restrict,
    Sum,
    Tau,
    purge_node_caches,
)

#: A transition: (action, target process).
Transition = tuple[Action, Process]

#: The judgements a backend hands to the rule bodies below (its hooks).
_Steps = Callable[[Process], tuple[Transition, ...]]
_Discards = Callable[[Process, Name], bool]
_Deliver = Callable[[Process, Name, tuple[Name, ...]], tuple[Process, ...]]

__all__ = [
    "Transition",
    "check_sorts",
    "freshen_action_binders",
    "input_capabilities",
    "input_continuations",
    "step_transitions",
    "transitions",
]

_NO_NAMES: frozenset[Name] = frozenset()


def step_transitions(p: Process) -> tuple[Transition, ...]:
    """All ``p -phi-> p'`` with ``phi`` an output or ``tau``.

    These are the "steps" of Section 3.2 — the real reduction relation of a
    broadcast calculus, since a sender never waits for receivers.  Memoized
    on the interned node: parallel compositions share subterms heavily, so
    the recursion bottoms out in slot reads.
    """
    try:
        return p._steps
    except AttributeError:
        pass
    result = table3_steps(p, step_transitions, discards, input_continuations)
    p._steps = result
    return result


def table3_steps(p: Process, steps: _Steps, discards: _Discards,
                 deliver: _Deliver, avoid: frozenset[Name] = _NO_NAMES
                 ) -> tuple[Transition, ...]:
    """Rules (2), (4)-(11), (13) and (14): the steps of *p*, one level deep.

    *steps* is the (memoised) step judgement applied to sub-terms,
    *discards* the discard relation and *deliver* the delivery judgement
    that the passive side of a broadcast goes through; *avoid* holds the
    names freshly generated binders must avoid besides the side
    conditions' own.
    """
    if isinstance(p, (Nil, Input)):
        return ()
    if isinstance(p, Tau):
        return ((TAU, p.cont),)  # rule (2)
    if isinstance(p, Output):
        return ((OutputAction(p.chan, p.args, ()), p.cont),)  # rule (4)
    if isinstance(p, Sum):  # rule (8)
        return steps(p.left) + steps(p.right)
    if isinstance(p, Match):  # rules (9), (10)
        return steps(p.then if p.left == p.right else p.orelse)
    if isinstance(p, Rec):  # rule (11)
        return steps(unfold_rec(p))
    if isinstance(p, Restrict):
        return tuple(_restrict_steps(p, steps(p.body), avoid))
    if isinstance(p, Par):
        return tuple(_par_steps(p, steps, discards, deliver, avoid))
    if isinstance(p, Ident):
        raise ValueError(
            f"cannot take transitions of open process (free identifier {p.ident!r})")
    raise TypeError(f"unknown process node {type(p).__name__}")


def _restrict_steps(p: Restrict, body_steps: tuple[Transition, ...],
                    avoid: frozenset[Name]) -> list[Transition]:
    x = p.name
    out: list[Transition] = []
    for action, target in body_steps:
        if isinstance(action, TauAction):  # rule (7)
            out.append((TAU, Restrict(x, target)))
            continue
        assert isinstance(action, OutputAction)
        if action.chan == x:
            # Rule (6): a broadcast on the restricted channel is internal;
            # the scope of any names it extruded is re-established.
            q = target
            for b in reversed(action.binders):
                q = Restrict(b, q)
            out.append((TAU, Restrict(x, q)))
            continue
        if x in action.binders:
            # Shadowing: an inner restriction happened to extrude a name
            # spelled like x; rename that binder so rules (5)/(7) apply.
            action, target = freshen_action_binders(
                action, target, frozenset((x,)) | avoid)
        if x in action.objects:
            # Rule (5): scope extrusion — x joins the binders and the
            # restriction disappears (its scope now spans all receivers).
            out.append((OutputAction(action.chan, action.objects,
                                     action.binders + (x,)), target))
        else:
            # Rule (7): x not involved, keep the restriction.
            out.append((action, Restrict(x, target)))
    return out


def _par_steps(p: Par, steps: _Steps, discards: _Discards, deliver: _Deliver,
               avoid: frozenset[Name]) -> list[Transition]:
    out: list[Transition] = []
    for active, passive, rebuild in (
        (p.left, p.right, lambda a, b: Par(a, b)),
        (p.right, p.left, lambda a, b: Par(b, a)),
    ):
        for action, target in steps(active):
            if isinstance(action, TauAction):
                # Rule (14) with alpha = tau (every process "discards" tau).
                out.append((TAU, rebuild(target, passive)))
                continue
            assert isinstance(action, OutputAction)
            if action.binders:
                # Side condition of rules (13)/(14): extruded names fresh
                # for the passive side.
                action, target = freshen_action_binders(
                    action, target, free_names(passive) | avoid)
            if discards(passive, action.chan):
                # Rule (14): the passive side is not listening; unchanged.
                out.append((action, rebuild(target, passive)))
            else:
                # Rule (13): the passive side *must* receive the broadcast
                # (through the backend's delivery judgement).
                for received in deliver(passive, action.chan, action.objects):
                    out.append((action, rebuild(target, received)))
    return out


@lru_cache(maxsize=65536)
def input_continuations(p: Process, chan: Name,
                        values: tuple[Name, ...]) -> tuple[Process, ...]:
    """All ``p'`` with ``p -chan(values)-> p'`` (early input, rule (3)).

    Returns the empty tuple when *p* discards *chan* (or listens at a
    different arity — the calculus is implicitly well-sorted; see
    :func:`check_sorts`).
    """
    return table3_inputs(p, chan, values, input_continuations, eq,
                         _par_inputs)


def _par_inputs(p: Par, chan: Name,
                values: tuple[Name, ...]) -> tuple[Process, ...]:
    return reliable_par_inputs(p, chan, values, discards,
                               input_continuations)


def table3_inputs(p: Process, chan: Name, values: tuple[Name, ...],
                  deliver: _Deliver, hears: Callable[[Name, Name], bool],
                  par: Callable[[Par, Name, tuple[Name, ...]],
                                tuple[Process, ...]],
                  avoid: frozenset[Name] = _NO_NAMES) -> tuple[Process, ...]:
    """Rule (3) through input, sum, match, recursion and restriction.

    *deliver* is the delivery judgement applied to sub-terms, ``hears(a,
    b)`` says whether a listener on *b* receives a broadcast on *a*, and
    *par* is the delivery rule for a parallel composition; *avoid* holds
    names a renamed restriction must avoid.
    """
    if isinstance(p, (Nil, Tau, Output)):
        return ()
    if isinstance(p, Input):
        if len(p.params) != len(values) or not hears(chan, p.chan):
            return ()
        return (apply_subst(p.cont, dict(zip(p.params, values))),)
    if isinstance(p, Sum):  # rule (8)
        return deliver(p.left, chan, values) + deliver(p.right, chan, values)
    if isinstance(p, Match):  # rules (9), (10)
        return deliver(p.then if p.left == p.right else p.orelse,
                       chan, values)
    if isinstance(p, Rec):  # rule (11)
        return deliver(unfold_rec(p), chan, values)
    if isinstance(p, Restrict):
        x, body = p.name, p.body
        if x in values or hears(chan, x):
            # The bound name is a private channel: it must neither capture
            # a received name nor hear the outer broadcast; alpha-rename
            # the restriction first (rule (1) + (7)).  Under the paper's
            # reach this leaves no listener when x == chan; under a
            # topology, one on a cell adjacent to chan still hears.
            nx = fresh_name(free_names(body) | set(values) | avoid
                            | {chan, x}, hint=x)
            body = apply_subst(body, {x: nx})
            x = nx
        return tuple(Restrict(x, q) for q in deliver(body, chan, values))
    if isinstance(p, Par):  # rules (12)-(14), as the backend delivers
        return par(p, chan, values)
    if isinstance(p, Ident):
        raise ValueError(
            f"cannot take transitions of open process (free identifier {p.ident!r})")
    raise TypeError(f"unknown process node {type(p).__name__}")


def reliable_par_inputs(p: Par, chan: Name, values: tuple[Name, ...],
                        discards: _Discards,
                        deliver: _Deliver) -> tuple[Process, ...]:
    """Rules (12) and (14): every component listening on *chan* receives,
    every component not listening stays put.  If either side listens only
    at a different arity, the broadcast cannot be assembled."""
    left_discards = discards(p.left, chan)
    right_discards = discards(p.right, chan)
    if left_discards and right_discards:
        return ()
    if left_discards:
        return tuple(Par(p.left, r) for r in deliver(p.right, chan, values))
    if right_discards:
        return tuple(Par(l, p.right) for l in deliver(p.left, chan, values))
    lefts = deliver(p.left, chan, values)
    rights = deliver(p.right, chan, values)
    return tuple(Par(l, r) for l in lefts for r in rights)


step_transitions.cache_clear = lambda: purge_node_caches(("_steps",))  # type: ignore[attr-defined]


def transitions(p: Process, universe) -> list[Transition]:
    """The full (finitized) transition set of *p*.

    Outputs and tau come from :func:`step_transitions`; inputs are
    instantiated over all vectors of the given
    :class:`~repro.core.names.NameUniverse`.
    """
    return table3_transitions(p, universe, step_transitions,
                              input_capabilities, input_continuations)


def table3_transitions(p: Process, universe, steps: _Steps,
                       capabilities: Callable[
                           [Process], frozenset[tuple[Name, int]]],
                       deliver: _Deliver) -> list[Transition]:
    """:func:`transitions` over a backend's step, capability and delivery
    judgements."""
    result: list[Transition] = list(steps(p))
    for chan, arity in sorted(capabilities(p)):
        for values in universe.vectors(arity):
            for target in deliver(p, chan, values):
                result.append((InputAction(chan, values), target))
    return result


def check_sorts(p: Process) -> dict[Name, int]:
    """Verify that every channel is used at one arity only.

    The paper works with an implicitly well-sorted polyadic calculus; mixing
    arities on one channel would break the input/discard dichotomy.  Returns
    the inferred sort (arity per free channel).  Raises ``ValueError`` on an
    inconsistency.
    """
    sorts: dict[Name, int] = {}

    def note(chan: Name, arity: int, where: str) -> None:
        old = sorts.setdefault(chan, arity)
        if old != arity:
            raise ValueError(
                f"channel {chan!r} used at arities {old} and {arity} ({where})")

    def walk(q: Process) -> None:
        if isinstance(q, Input):
            note(q.chan, len(q.params), "input")
        elif isinstance(q, Output):
            note(q.chan, len(q.args), "output")
        for c in q.children():
            walk(c)

    walk(p)
    return sorts
