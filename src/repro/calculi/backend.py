"""The calculus-backend protocol: pluggable broadcast semantics.

The paper fixes one semantics — the Table 3 transition rules, the Table 2
discard relation, and output barbs.  The direct extensions named in
PAPERS.md (Cao's noisy channels, graph-based wireless broadcast) keep the
syntax and every rule but one: they change only who receives a broadcast.
:class:`CalculusBackend` names the shape of the judgements:

* :meth:`step_transitions` — autonomous moves ``p -phi-> p'`` (outputs and
  ``tau``), finitely branching;
* :meth:`input_continuations` — residuals of delivering one concrete
  broadcast ``chan(values)`` to *p*;
* :meth:`discards` — the backend's discard relation ``p -a/->``;
* :meth:`barbs` — the observables of *p*;
* :meth:`check_sorts` — the backend's well-sortedness rules.

Every backend must preserve the **input/discard dichotomy**: for all *p*
and *a*, exactly one of "``input_continuations(p, a, v)`` is non-empty for
well-sorted *v*" and "``discards(p, a)``" holds.  The property suite
checks this per registered backend.

Engine layers (``lts/``, ``equiv/``, ``runtime/``, the facade and CLI)
resolve a backend through :mod:`repro.calculi.registry` and call these
methods; they never import ``core.semantics`` / ``core.discard`` directly
(contract Rule E).  The default :class:`BpiBackend` delegates to exactly
those memoized core functions, so the default path is bit-identical to
calling them directly.

There is one Table 3: the step rules and the delivery recursion have a
single body each in ``core.semantics``, which takes the judgements it
recurses into as hooks.  :class:`StructuralBackend` runs those bodies
over per-instance memo tables and the backend's own discard relation,
reach test and parallel delivery rule; the lossy and wireless backends
override only those hooks.
"""

from __future__ import annotations

import abc
from operator import eq
from typing import Iterable

from ..core.actions import OutputAction
from ..core.discard import discards as _bpi_discards
from ..core.discard import listening_channels as _bpi_listening
from ..core.freenames import free_names
from ..core.names import Name
from ..core.reduction import barbs as _bpi_barbs
from ..core.semantics import (
    Transition,
    reliable_par_inputs,
    table3_inputs,
    table3_steps,
    table3_transitions,
)
from ..core.semantics import check_sorts as _bpi_check_sorts
from ..core.semantics import input_capabilities as _bpi_caps
from ..core.semantics import input_continuations as _bpi_inputs
from ..core.semantics import step_transitions as _bpi_steps
from ..core.syntax import Par, Process


class CalculusBackend(abc.ABC):
    """One broadcast semantics: steps, delivery, discard, barbs, sorts.

    Instances are immutable apart from memo tables; the registry caches
    one instance per canonical spec so per-instance memo tables persist
    for the lifetime of a session.
    """

    #: Registry name of the backend family ("bpi", "lossy", "wireless").
    name: str = "backend"

    def __init__(self) -> None:
        self._scratch: dict[str, dict] = {}

    def memo(self, table: str) -> dict:
        """A named per-backend memo table (cleared by :meth:`clear_caches`).

        Engine layers that memoize per-state results (e.g. the reduction
        graph's ``phi_successors``) key them here for non-default
        backends, instead of on slots of the interned nodes — slot caches
        are reserved for the ``bpi`` functions they were written for.
        """
        return self._scratch.setdefault(table, {})

    @property
    def spec(self) -> str:
        """Round-trippable registry spec (``resolve(b.spec)`` ≡ *b*).

        Parameterised backends override this to include their parameters;
        the spec string is what travels to worker processes.
        """
        return self.name

    def key(self) -> str:
        """Stable identity for store keys and ledgers.

        Distinct semantics must have distinct keys — the verdict store
        mixes this into ``pair_key`` so verdicts computed under different
        backends can never answer each other.  Parameterised backends
        append a digest of their parameters.
        """
        return self.name

    # ---------------------------------------------------------------- core
    @abc.abstractmethod
    def step_transitions(self, p: Process) -> tuple[Transition, ...]:
        """All autonomous moves ``p -phi-> p'`` (outputs and tau)."""

    @abc.abstractmethod
    def input_continuations(self, p: Process, chan: Name,
                            values: tuple[Name, ...]) -> tuple[Process, ...]:
        """All residuals of delivering ``chan(values)`` to *p*."""

    @abc.abstractmethod
    def discards(self, p: Process, a: Name) -> bool:
        """True iff *p* ignores every broadcast made on *a*."""

    # ------------------------------------------------------------- derived
    @abc.abstractmethod
    def input_capabilities(self, p: Process) -> frozenset[tuple[Name, int]]:
        """The (channel, arity) pairs at which *p* can currently receive."""

    def listening_channels(self, p: Process) -> frozenset[Name]:
        """``In(p)``: channels whose broadcasts *p* does not discard."""
        return frozenset(c for (c, _k) in self.input_capabilities(p))

    def barbs(self, p: Process) -> frozenset[Name]:
        """The observables of *p* (output subjects, in every backend)."""
        return frozenset(
            action.chan for action, _t in self.step_transitions(p)
            if isinstance(action, OutputAction))

    def check_sorts(self, p: Process) -> dict[Name, int]:
        """Backend sort rules; raises ``ValueError`` on a violation."""
        return _bpi_check_sorts(p)

    def transitions(self, p: Process, universe) -> list[Transition]:
        """Steps plus inputs instantiated over a finite name universe."""
        return table3_transitions(p, universe, self.step_transitions,
                                  self.input_capabilities,
                                  self.input_continuations)

    def clear_caches(self) -> None:
        """Drop per-instance memo tables (hook for ``core.cache``)."""
        self._scratch.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec!r}>"


class BpiBackend(CalculusBackend):
    """The paper's semantics, verbatim.

    Every method forwards to the memoized free functions in
    ``core.semantics`` / ``core.discard`` / ``core.reduction`` — same
    caches, same tuples, same ordering — so routing through the registry
    is observationally identical to the pre-protocol code.
    """

    name = "bpi"

    def step_transitions(self, p: Process) -> tuple[Transition, ...]:
        return _bpi_steps(p)

    def input_continuations(self, p: Process, chan: Name,
                            values: tuple[Name, ...]) -> tuple[Process, ...]:
        return _bpi_inputs(p, chan, values)

    def discards(self, p: Process, a: Name) -> bool:
        return _bpi_discards(p, a)

    def input_capabilities(self, p: Process) -> frozenset[tuple[Name, int]]:
        return _bpi_caps(p)

    def listening_channels(self, p: Process) -> frozenset[Name]:
        return _bpi_listening(p)

    def barbs(self, p: Process) -> frozenset[Name]:
        return _bpi_barbs(p)


class StructuralBackend(CalculusBackend):
    """The paper's Table 3 over this backend's own judgements.

    The step rules and the delivery recursion are the single bodies in
    :mod:`repro.core.semantics` (``table3_steps``, ``table3_inputs``);
    this class runs them over per-instance memo tables (keyed on the
    interned nodes, like the slot caches of the default semantics), its
    :meth:`discards` and the hooks below, so a subclass states only where
    its semantics departs from the paper: :attr:`_hears` (who hears
    whom), :meth:`_deliver_par` (delivery to a parallel composition,
    rules (12)/(14) by default), :meth:`_deliver` (delivery to any term)
    and :attr:`_avoid`.
    """

    #: ``_hears(a, b)``: does a listener on *b* hear a broadcast on *a*?
    _hears = staticmethod(eq)
    #: Extra names that freshly generated binders must avoid.
    _avoid: frozenset[Name] = frozenset()

    # ----------------------------------------------------------- steps
    def step_transitions(self, p: Process) -> tuple[Transition, ...]:
        memo = self.memo("steps")
        try:
            return memo[p]
        except KeyError:
            pass
        result = table3_steps(p, self.step_transitions, self.discards,
                              self.input_continuations, self._avoid)
        memo[p] = result
        return result

    # -------------------------------------------------------- delivery
    def input_continuations(self, p: Process, chan: Name,
                            values: tuple[Name, ...]) -> tuple[Process, ...]:
        memo = self.memo("inputs")
        key = (p, chan, values)
        try:
            return memo[key]
        except KeyError:
            pass
        result = self._deliver(p, chan, values)
        memo[key] = result
        return result

    def _deliver(self, p: Process, chan: Name,
                 values: tuple[Name, ...]) -> tuple[Process, ...]:
        """Uncached delivery judgement; see :meth:`input_continuations`."""
        return table3_inputs(p, chan, values, self.input_continuations,
                             self._hears, self._deliver_par, self._avoid)

    def _deliver_par(self, p: Par, chan: Name,
                     values: tuple[Name, ...]) -> tuple[Process, ...]:
        """Delivery to ``p.left | p.right``: rules (12) and (14)."""
        return reliable_par_inputs(p, chan, values, self.discards,
                                   self.input_continuations)


def dichotomy_channels(p: Process,
                       extra: Iterable[Name] = ()) -> frozenset[Name]:
    """Channels worth probing when property-testing the dichotomy."""
    return frozenset(free_names(p)) | frozenset(extra)
