"""The discard relation ``p -a/->`` of Table 2.

``discards(p, a)`` holds when *p* ignores every broadcast made on channel
*a* — intuitively, when *p* is not listening on *a*.  The rules:

    (1)  nil -a/->
    (2)  tau.p -a/->
    (3)  b<y~>.p -a/->                       (outputs never listen)
    (4)  b(x~).p -a/->           if a != b
    (5)  nu x p -a/->            if x = a or p -a/->
    (6)  p1 + p2 -a/->           if p1 -a/-> and p2 -a/->
    (7)  [x=x] p1, p2 -a/->      if p1 -a/->
    (8)  [x=y] p1, p2 -a/->      if p2 -a/->   (x != y)
    (9)  p1 || p2 -a/->          if p1 -a/-> and p2 -a/->
    (10) (rec X(x~).p)<y~> -a/-> if the unfolding discards a

A key invariant of the calculus (property-tested in the suite) is the
*input/discard dichotomy*: for every process *p* and channel *a*, exactly
one of "p has an a-input transition" and "p discards a" holds.  A process
listening on *a* cannot refuse a broadcast on it; one not listening cannot
observe it.
"""

from __future__ import annotations

from functools import lru_cache

from .names import Name
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


@lru_cache(maxsize=65536)
def discards(p: Process, a: Name) -> bool:
    """Return True iff ``p -a/->`` (p discards all outputs made on *a*)."""
    if isinstance(p, (Nil, Tau, Output)):
        return True
    if isinstance(p, Input):
        return p.chan != a
    if isinstance(p, Restrict):
        # If the restricted name coincides with *a*, the body can only be
        # listening on the *local* a, which is a different channel from the
        # external one — so the restriction discards the external a.
        return p.name == a or discards(p.body, a)
    if isinstance(p, Sum):
        return discards(p.left, a) and discards(p.right, a)
    if isinstance(p, Match):
        if p.left == p.right:
            return discards(p.then, a)
        return discards(p.orelse, a)
    if isinstance(p, Par):
        return discards(p.left, a) and discards(p.right, a)
    if isinstance(p, Rec):
        from .substitution import unfold_rec
        return discards(unfold_rec(p), a)
    if isinstance(p, Ident):
        raise ValueError(
            f"discard relation undefined on open process (free identifier {p.ident!r})")
    raise TypeError(f"unknown process node {type(p).__name__}")


def input_capabilities(p: Process) -> frozenset[tuple[Name, int]]:
    """The (channel, arity) pairs at which *p* can currently receive.

    The channels here are exactly ``In(p)`` (when *p* is well-sorted); the
    arity accompanies them so exploration knows which vectors to offer.
    """
    try:
        return p._caps
    except AttributeError:
        pass
    result = _input_capabilities(p)
    p._caps = result
    return result


def _input_capabilities(p: Process) -> frozenset[tuple[Name, int]]:
    if isinstance(p, (Nil, Tau, Output)):
        return frozenset()
    if isinstance(p, Input):
        return frozenset(((p.chan, len(p.params)),))
    if isinstance(p, (Sum, Par)):
        return input_capabilities(p.left) | input_capabilities(p.right)
    if isinstance(p, Match):
        branch = p.then if p.left == p.right else p.orelse
        return input_capabilities(branch)
    if isinstance(p, Rec):
        from .substitution import unfold_rec
        return input_capabilities(unfold_rec(p))
    if isinstance(p, Restrict):
        return frozenset((c, k) for (c, k) in input_capabilities(p.body)
                         if c != p.name)
    if isinstance(p, Ident):
        raise ValueError(
            f"cannot inspect open process (free identifier {p.ident!r})")
    raise TypeError(f"unknown process node {type(p).__name__}")


def listening_channels(p: Process) -> frozenset[Name]:
    """The set ``In(p)`` of channels *p* is currently listening on.

    ``a in listening_channels(p)`` iff *p* does **not** discard *a*; by the
    dichotomy this is exactly the set of subjects of the input transitions
    available to *p*.  Only free names can be listened on from outside, so
    the result is a subset of ``fn(p)``.  It is the channel projection of
    :func:`input_capabilities`, memoized on the node.
    """
    try:
        return p._listen
    except AttributeError:
        pass
    result = frozenset(c for c, _k in input_capabilities(p))
    p._listen = result
    return result


input_capabilities.cache_clear = (  # type: ignore[attr-defined]
    lambda: purge_node_caches(("_caps",)))
listening_channels.cache_clear = (  # type: ignore[attr-defined]
    lambda: purge_node_caches(("_listen",)))
