"""Lossy broadcast: per-listener delivery failure (Cao, arXiv:0801.3117).

In the pi-calculus with noisy channels, a broadcast still happens
atomically, but delivery to **each** listener may independently fail.
Syntactically nothing changes — same terms, same discard relation (Table
2), same barbs.  Semantically, the delivery judgement grows one residual
per listener: the listener itself, unchanged, modelling "the message was
lost on the way to this receiver".

Concretely, where the reliable rule (13) forces the passive side of a
parallel composition to receive, the lossy rule lets every *subset* of
the reachable receivers miss the message: for ``a!.0 | (a?.P | a?.Q)``
the broadcast on ``a`` has four residuals — both receive, only the left,
only the right, neither.  A top-level input transition likewise includes
the pure-loss move ``p -a(v)-> p``.

Only the delivery rule for a parallel composition (every subset of the
listeners, at least one receiving) and the top-level loss move are
lossy's own; the step rules and the rest of the delivery recursion are
the paper's, from ``core.semantics``.

The input/discard dichotomy survives: a listener now has *more* input
transitions (including the loss move), a non-listener still discards.

The induced bisimilarity is **incomparable** with the reliable one — the
hierarchy is strict in both directions (checked in the suite):

* lossy equates, reliable separates: ``a(x).c! ~ a(x).c! + a(x).a(x).c!``
  — the extra "needs two messages" branch is indistinguishable when any
  message may be lost, but reliable bisimilarity sees the second input
  commit to a state with no ``c`` barb.
* reliable equates, lossy separates: ``a?.c! | a?.d! ~ a?.(c! | d!)`` —
  reliable broadcast is atomic, so both reach ``c! | d!`` in one input;
  lossy delivery can reach the partial ``c! | a?.d!``, which the
  right-hand process can never exhibit.
"""

from __future__ import annotations

from ..core.discard import discards as _bpi_discards
from ..core.names import Name
from ..core.semantics import input_capabilities as _bpi_caps
from ..core.semantics import table3_inputs
from ..core.syntax import Par, Process
from .backend import StructuralBackend


class LossyBackend(StructuralBackend):
    """The paper's calculus with per-listener message loss."""

    name = "lossy"

    def discards(self, p: Process, a: Name) -> bool:
        # Loss does not change who is listening — Table 2 verbatim.
        return _bpi_discards(p, a)

    def input_capabilities(self, p: Process) -> frozenset[tuple[Name, int]]:
        return _bpi_caps(p)

    def _deliver(self, p: Process, chan: Name,
                 values: tuple[Name, ...]) -> tuple[Process, ...]:
        if self.discards(p, chan):
            return ()
        # A listener's delivery options: every genuine (at least one
        # component received) residual, plus total loss — p unchanged.
        return self._genuine(p, chan, values) + (p,)

    def _genuine(self, p: Process, chan: Name,
                 values: tuple[Name, ...]) -> tuple[Process, ...]:
        """Residuals where the message reached at least one receiver.

        A reception inside a branch of a sum commits the sum; losing the
        message leaves the whole sum intact, which is the caller's
        total-loss residual, not a per-branch one.
        """
        return table3_inputs(p, chan, values, self._genuine, self._hears,
                             self._deliver_par)

    def _deliver_par(self, p: Par, chan: Name,
                     values: tuple[Name, ...]) -> tuple[Process, ...]:
        # Each side independently receives or loses; at least one side
        # must genuinely receive for the residual to be genuine.
        def options(side: Process) -> tuple[tuple[Process, bool], ...]:
            if self.discards(side, chan):
                return ((side, False),)
            return (tuple((g, True) for g in self._genuine(side, chan, values))
                    + ((side, False),))

        return tuple(Par(lres, rres)
                     for lres, lgot in options(p.left)
                     for rres, rgot in options(p.right)
                     if lgot or rgot)
