"""Alpha-renaming of bound-output binders, shared across semantics.

The binders of a bound output ``nu y~ a<z~>`` are free in the residual, so
renaming a binder renames it in the residual too.  Rule (13)'s side
condition ``y~ /\\ fn(p2) = {}`` and the restriction rules (5)/(7) both
need this, in the one body of the step rules that ``core.semantics``
runs for every calculus backend.  The equivalence checkers need it too,
to line up the bound outputs of two processes.  It lives in its own
module so layers outside ``core/`` can import it without reaching into
``core.semantics`` (see contract Rule E in ``tools/check_contracts.py``).
"""

from __future__ import annotations

from .actions import OutputAction
from .freenames import free_names
from .names import Name, fresh_name
from .substitution import apply_subst
from .syntax import Process


def freshen_action_binders(action: OutputAction, residual: Process,
                           avoid: frozenset[Name]) -> tuple[OutputAction, Process]:
    """Alpha-rename the binders of a bound output away from *avoid*.

    The binders of ``nu y~ a<z~>`` are free in the residual, so renaming a
    binder renames it in the residual too.  Needed by rule (13)'s side
    condition ``y~ /\\ fn(p2) = {}`` and by rule (5)/(7) clashes at
    restrictions.
    """
    clashing = [b for b in action.binders if b in avoid]
    if not clashing:
        return action, residual
    taken = (set(avoid) | set(action.objects) | {action.chan}
             | set(free_names(residual)))
    mapping: dict[Name, Name] = {}
    for b in clashing:
        nb = fresh_name(taken, hint=b)
        taken.add(nb)
        mapping[b] = nb
    new_action = OutputAction(
        action.chan,
        tuple(mapping.get(o, o) for o in action.objects),
        tuple(mapping.get(b, b) for b in action.binders),
    )
    return new_action, apply_subst(residual, mapping)
