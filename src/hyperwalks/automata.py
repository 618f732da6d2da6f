"""Word-level recognizers.

Two deterministic pushdown machines decide the unconstrained families: one
accepts exactly the walks whose tracked coordinate sums to zero, the other
additionally rejects any walk whose tracked prefix sum dips below zero.  The
pattern families are their intersections with a one-step-memory regular check,
so membership for all six languages reduces to machine simulation plus an
adjacent-pair scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    ConsistencyError,
    DimensionMismatch,
    LanguageSpec,
    PatternKind,
    StepVector,
    Word,
)

# Machine states: the start state is the unique accepting state.
ACCEPT = "accept"
WORK = "work"

# Stack symbols.
Z0 = "Z0"
U = "U"
D = "D"

# Transition tables keyed by (state, tracked sign, stack top).  Values are
# (new state, stack action) with actions "push:X" or "pop".
_HYPERPLANE_RULES = {
    (ACCEPT, 1, Z0): (WORK, "push:" + U),
    (ACCEPT, -1, Z0): (WORK, "push:" + D),
    (WORK, 1, U): (WORK, "push:" + U),
    (WORK, 1, D): (WORK, "pop"),
    (WORK, -1, U): (WORK, "pop"),
    (WORK, -1, D): (WORK, "push:" + D),
}

_HALFSPACE_RULES = {
    (ACCEPT, 1, Z0): (WORK, "push:" + U),
    (WORK, 1, U): (WORK, "push:" + U),
    (WORK, -1, U): (WORK, "pop"),
}


def _simulate(rules: dict, r: int, w: Word) -> bool:
    """Run one machine over a word; accept iff it ends accepting on bare Z0.

    Every push repeats the current top symbol, so the stack is Z0 under a
    homogeneous body and is kept exactly as its top symbol plus the depth of
    the body: (Z0, 0) is the bare bottom marker.  Each step is one table
    lookup and O(1) work, and the stack invariants are checked on the way.

    The epsilon return to the accepting state is applied eagerly whenever the
    working state sees a bare Z0, so no configuration ever faces a choice
    between consuming and epsilon moves.
    """
    if w.dimension is not None and w.dimension != r + 1:
        raise DimensionMismatch(
            f"word has dimension {w.dimension}, machine expects {r + 1}"
        )
    state, top, depth = ACCEPT, Z0, 0
    for step in w:
        # Determinism: the epsilon move fires only in the working state on a
        # bare Z0, where no consuming rule is defined; eager application below
        # makes that configuration unreachable here.
        if state == WORK and depth == 0:
            raise ConsistencyError("the working state faces a bare Z0")
        rule = rules.get((state, step.tracked, top))
        if rule is None:
            return False
        state, action = rule
        if action == "pop":
            if depth == 0:
                raise ConsistencyError("pop below the bottom marker Z0")
            depth -= 1
            if depth == 0:
                top = Z0
        else:
            symbol = action[len("push:"):]
            if symbol == Z0 or (depth and symbol != top):
                raise ConsistencyError(
                    f"push of {symbol} onto {top} breaks the homogeneous stack body"
                )
            top = symbol
            depth += 1
        if state == WORK and depth == 0:
            state = ACCEPT
    return state == ACCEPT and depth == 0


def accepts_hyperplane(r: int, w: Word) -> bool:
    """Membership in the hyperplane family: tracked coordinate sums to zero."""
    return _simulate(_HYPERPLANE_RULES, r, w)


def accepts_halfspace(r: int, w: Word) -> bool:
    """Membership in the half-space family: sums to zero, never dips below."""
    return _simulate(_HALFSPACE_RULES, r, w)


@dataclass
class PatternMemory:
    """One-step memory realizing the regular pattern-avoidance languages."""

    previous: Optional[StepVector] = None

    def feed(self, kind: PatternKind, step: StepVector) -> bool:
        """Consume one step; return False iff the forbidden pair just occurred."""
        prev = self.previous
        self.previous = step
        if prev is None:
            return True
        if kind is PatternKind.BACKTRACK:
            return step != prev.negate()
        return step != prev


def avoids_pattern(kind: PatternKind, w: Word) -> bool:
    """True iff no adjacent pair matches the forbidden pattern."""
    memory = PatternMemory()
    return all(memory.feed(kind, step) for step in w)


def recognize(spec: LanguageSpec, w: Word) -> bool:
    """Membership test for any of the six languages via the intersections."""
    if w.dimension is not None and w.dimension != spec.r + 1:
        raise DimensionMismatch(
            f"word has dimension {w.dimension}, language {spec} expects {spec.r + 1}"
        )
    base = accepts_halfspace(spec.r, w) if spec.halfspace else accepts_hyperplane(spec.r, w)
    if not base:
        return False
    pattern = spec.pattern
    return pattern is None or avoids_pattern(pattern, w)
