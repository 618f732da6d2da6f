"""Word-level recognizers.

Two deterministic pushdown machines decide the unconstrained families: one
accepts exactly the walks whose tracked coordinate sums to zero; the other,
the first without its below-zero stack symbol D, also rejects any walk whose
tracked prefix sum dips below zero.  The pattern families are their
intersections with a one-step-memory check of `PatternKind.flip`'s pairs, so
membership reduces to machine simulation plus an adjacent-pair scan.
"""

from __future__ import annotations

from .core import (
    ConsistencyError,
    DimensionMismatch,
    LanguageSpec,
    PatternKind,
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
# (new state, pushed symbol), where POP pushes nothing and pops the top.  The
# pushed symbol is stored decoded, so a step reads it without parsing.
POP = None

_HYPERPLANE_RULES = {
    (ACCEPT, 1, Z0): (WORK, U),
    (ACCEPT, -1, Z0): (WORK, D),
    (WORK, 1, U): (WORK, U),
    (WORK, 1, D): (WORK, POP),
    (WORK, -1, U): (WORK, POP),
    (WORK, -1, D): (WORK, D),
}

# The hyperplane machine without D: a walk that goes below zero finds no rule.
_HALFSPACE_RULES = {k: v for k, v in _HYPERPLANE_RULES.items() if D not in (k[2], v[1])}


def _simulate(rules: dict, r: int, w: Word) -> bool:
    """Run one machine over a word; accept iff it ends accepting on bare Z0.

    Every push repeats the current top symbol, so the stack is Z0 under a
    homogeneous body and is kept exactly as its top symbol plus the depth of
    the body: (Z0, 0) is the bare bottom marker.  The table is read when the
    machine starts and again whenever the state or the top symbol changes,
    which fetches the two rules (tracked sign +1 and -1) of the new
    configuration; a step picks one of them by its sign and does O(1) work,
    and the stack invariants are checked on every step.

    The epsilon return to the accepting state is applied eagerly whenever the
    working state sees a bare Z0, so no configuration ever faces a choice
    between consuming and epsilon moves.
    """
    if w.r != r:
        raise DimensionMismatch(f"word has r={w.r}, machine expects r={r}")
    rule_of = rules.get
    tracked = 1 << r
    state, top, depth = ACCEPT, Z0, 0
    up, down = rule_of((state, 1, top)), rule_of((state, -1, top))
    for step in w:
        # Determinism: the epsilon move fires only in the working state on a
        # bare Z0, where no consuming rule is defined; eager application below
        # makes that configuration unreachable here.
        if depth == 0 and state == WORK:
            raise ConsistencyError("the working state faces a bare Z0")
        rule = down if step & tracked else up
        if rule is None:
            return False
        new_state, symbol = rule
        new_top = top
        if symbol is POP:
            if depth == 0:
                raise ConsistencyError("pop below the bottom marker Z0")
            depth -= 1
            if depth == 0:
                new_top = Z0
                if new_state == WORK:
                    new_state = ACCEPT
        else:
            if symbol == Z0 or (depth and symbol != top):
                raise ConsistencyError(
                    f"push of {symbol} onto {top} breaks the homogeneous stack body"
                )
            new_top = symbol
            depth += 1
        if new_state != state or new_top != top:
            state, top = new_state, new_top
            up, down = rule_of((state, 1, top)), rule_of((state, -1, top))
    return state == ACCEPT and depth == 0


def accepts_hyperplane(r: int, w: Word) -> bool:
    """Membership in the hyperplane family: tracked coordinate sums to zero."""
    return _simulate(_HYPERPLANE_RULES, r, w)


def accepts_halfspace(r: int, w: Word) -> bool:
    """Membership in the half-space family: sums to zero, never dips below."""
    return _simulate(_HALFSPACE_RULES, r, w)


def avoids_pattern(kind: PatternKind, w: Word) -> bool:
    """True iff no adjacent pair matches the forbidden pattern.

    A one-step memory: the regular check that the pattern families intersect
    with the pushdown machines.  A step clashes with previous ^ kind.flip(r),
    its negation for backtracking and itself for repeats.
    """
    flip = kind.flip(w.r)
    previous = -1  # -1 ^ flip is negative, so the first step clashes with nothing
    for step in w:
        if step == previous ^ flip:
            return False
        previous = step
    return True


def recognize(spec: LanguageSpec, w: Word) -> bool:
    """Membership test for any of the six languages via the intersections."""
    base = accepts_halfspace(spec.r, w) if spec.halfspace else accepts_hyperplane(spec.r, w)
    if not base:
        return False
    pattern = spec.pattern
    return pattern is None or avoids_pattern(pattern, w)
