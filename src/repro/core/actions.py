"""Transition actions (Definition 1 of the paper).

An action is one of::

    a(x1..xk)          reception of names on channel a   (InputAction)
    nu y~ a<z1..zk>    (possibly bound) output on a      (OutputAction)
    tau                internal transition               (TAU)

For an input or output, ``a`` is the *subject* and the transmitted vector
the *object*.  In a bound output ``nu y~ a<z~>`` the names ``y~ <= z~`` are
private names being extruded to every listener in a single broadcast —
the paper notes extrusion is richer than in the pi-calculus because many
processes may learn a fresh name in one communication.

The paper additionally uses the *discard* pseudo-action ``a:`` in its
meta-notation ``a(b)?`` ("input or discard"); we model discard through the
relation in :mod:`repro.core.discard` and represent the combined move with
:class:`InputOrDiscard` only at the bisimulation layer.
"""

from __future__ import annotations

from typing import Any

from .names import Name


class Action:
    """Base class of transition labels."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple[Any, ...]:
        return (self.__class__,) + tuple(getattr(self, f) for f in self._fields)

    def _init_hash(self) -> None:
        # The class enters the hash by name: a class object hashes by its
        # address, which would make hashes differ between interpreters.
        self._hash = hash((self.__class__.__name__,)
                          + tuple(getattr(self, f) for f in self._fields))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if self.__class__ is not other.__class__:
            return NotImplemented if not isinstance(other, Action) else False
        assert isinstance(other, Action)
        return self._hash == other._hash and self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        args = ", ".join(repr(getattr(self, f)) for f in self._fields)
        return f"{self.__class__.__name__}({args})"

    # --- Definition 1 metadata ------------------------------------------
    @property
    def subject(self) -> Name | None:
        """The channel carrying the action (``None`` for tau)."""
        return None

    def free_names(self) -> frozenset[Name]:
        """``fn(alpha)``."""
        return frozenset()

    def bound_names(self) -> frozenset[Name]:
        """``bn(alpha)``."""
        return frozenset()

    def names(self) -> frozenset[Name]:
        """``n(alpha) = fn(alpha) | bn(alpha)``."""
        return self.free_names() | self.bound_names()

    @property
    def is_output(self) -> bool:
        return False

    @property
    def is_input(self) -> bool:
        return False

    @property
    def is_tau(self) -> bool:
        return False

    @property
    def is_step(self) -> bool:
        """True for the *steps* ``-phi->`` (outputs and tau) that constitute
        the calculus' autonomous reduction relation (Section 3.2)."""
        return self.is_output or self.is_tau


class TauAction(Action):
    """The silent action ``tau``."""

    __slots__ = ()
    _fields = ()

    _instance: "TauAction | None" = None

    def __new__(cls) -> "TauAction":
        if cls._instance is None:
            obj = super().__new__(cls)
            obj._hash = hash((cls.__name__,))
            cls._instance = obj
        return cls._instance

    @property
    def is_tau(self) -> bool:
        return True

    def __str__(self) -> str:
        return "tau"


#: The interned silent action.
TAU = TauAction()


class InputAction(Action):
    """Early-style reception ``a(x1..xk)`` of concrete names.

    ``fn(a(x~)) = {a} | x~`` and ``bn = {}`` — under the early semantics the
    received names are already instantiated, so nothing is bound.
    """

    __slots__ = ("chan", "objects")
    _fields = ("chan", "objects")

    def __init__(self, chan: Name, objects: tuple[Name, ...] = ()):
        self.chan = chan
        self.objects = tuple(objects)
        self._init_hash()

    @property
    def subject(self) -> Name:
        return self.chan

    def free_names(self) -> frozenset[Name]:
        return frozenset((self.chan,)) | frozenset(self.objects)

    @property
    def is_input(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.chan}({', '.join(self.objects)})"


class OutputAction(Action):
    """(Possibly bound) broadcast output ``nu y~ a<z1..zk>``.

    ``binders`` is the sub-tuple of ``objects`` being extruded (in order of
    first occurrence); an output with no binders is a free output ``a<z~>``.
    """

    __slots__ = ("chan", "objects", "binders")
    _fields = ("chan", "objects", "binders")

    def __init__(self, chan: Name, objects: tuple[Name, ...] = (),
                 binders: tuple[Name, ...] = ()):
        self.chan = chan
        self.objects = tuple(objects)
        self.binders = tuple(binders)
        binder_set = set(self.binders)
        if len(binder_set) != len(self.binders):
            raise ValueError(f"duplicate binders in output action: {binders}")
        if not binder_set.issubset(self.objects):
            raise ValueError(
                f"output binders {binders} must occur among objects {objects}")
        if chan in binder_set:
            raise ValueError("the subject of a bound output cannot be extruded")
        self._init_hash()

    @property
    def subject(self) -> Name:
        return self.chan

    def free_names(self) -> frozenset[Name]:
        return (frozenset((self.chan,)) | frozenset(self.objects)) - frozenset(self.binders)

    def bound_names(self) -> frozenset[Name]:
        return frozenset(self.binders)

    @property
    def is_output(self) -> bool:
        return True

    @property
    def is_bound(self) -> bool:
        return bool(self.binders)

    def __str__(self) -> str:
        payload = f"{self.chan}<{', '.join(self.objects)}>"
        if self.binders:
            return f"nu {' '.join(self.binders)} {payload}"
        return payload


def rename_action(action: Action, mapping: dict[Name, Name]) -> Action:
    """Apply an (injective on the relevant names) renaming to an action.

    Used when canonicalizing labels across alpha-variants of states.
    Binders of bound outputs are renamed too — callers must ensure the
    mapping keeps them distinct from the free part.
    """
    if isinstance(action, TauAction):
        return action
    if isinstance(action, InputAction):
        return InputAction(mapping.get(action.chan, action.chan),
                           tuple(mapping.get(o, o) for o in action.objects))
    if isinstance(action, OutputAction):
        return OutputAction(mapping.get(action.chan, action.chan),
                            tuple(mapping.get(o, o) for o in action.objects),
                            tuple(mapping.get(b, b) for b in action.binders))
    raise TypeError(f"unknown action {type(action).__name__}")
