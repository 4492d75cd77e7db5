"""Attribute-level dependency inference with proof trees.

`attr_closure` is the usual least fixpoint; `derive` turns a closure run
into a `Derivation` certificate built from five rules (Reflexivity, Axiom,
Consequence, Composition, Additivity, with Projectivity accepted on replay).
Every produced tree re-validates node by node.  The trading rule between
antecedent and consequent, `fd_trade`, is a typing rule of relations and
lives in `relfd.typed`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import ResourceLimitError
from .fd import AttrFd, parse_fd
from .rel import Frozen

# Unused here; kept because the benchmark's tracer test binds them by these
# names (relfd.infer.satisfies_oracle, relfd.infer.satisfies_typed,
# relfd.infer.enumerate_tables).
from .fd import satisfies_oracle, satisfies_typed  # noqa: F401
from .tables import enumerate_tables  # noqa: F401

REFLEXIVITY = "Reflexivity"
COMPOSITION = "Composition"
CONSEQUENCE = "Consequence"
ADDITIVITY = "Additivity"
PROJECTIVITY = "Projectivity"
AXIOM = "Axiom"

# Most fds one derivation may fire; see `derive`.
FIRING_LIMIT = 200


class Derivation(Frozen):
    """A proof tree; each node's conclusion follows from its premises."""

    __slots__ = _fields = ("conclusion", "rule", "premises")

    def __init__(self, conclusion: AttrFd, rule: str,
                 premises: tuple[Derivation, ...] = ()):
        super().__init__(conclusion, rule, premises)


def mentioned_attrs(fds: Iterable[AttrFd], attrs: Iterable[str]) -> frozenset:
    """`attrs` and every attribute the dependencies mention."""
    out = set(attrs)
    for fd in fds:
        out |= fd.antecedent | fd.consequent
    return frozenset(out)


def attr_closure(fds: Sequence[AttrFd], attrs: Iterable[str]) -> frozenset:
    """Least attribute set containing `attrs` and closed under `fds`."""
    closure = set(attrs)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.antecedent <= closure and not fd.consequent <= closure:
                closure |= fd.consequent
                changed = True
    return frozenset(closure)


def derive(fds: Sequence[AttrFd], goal: AttrFd) -> Optional[Derivation]:
    """A proof of `goal` from `fds`, or None when it is not derivable.

    The tree mirrors a closure run that stops once the goal's consequent is
    covered: fds fire in list order, and each firing of X -> Y on the
    attributes C covered so far proves C -> C | Y as
    Additivity(Reflexivity C -> C, Composition(C -> X, Axiom X -> Y)), with
    C -> X by Consequence from that Reflexivity unless X == C.  The first
    firing's step is the tree; each later one joins the tree by one
    Composition, so a proof has at most 7 nodes per firing (counting a
    shared leaf at each use) and is as deep as its firings.  A final
    Consequence narrows the tree to the goal.  The result is a certificate,
    not a minimal proof.  A derivable goal whose run fires more than
    `FIRING_LIMIT` fds raises `ResourceLimitError`: a deeper tree would
    outgrow the recursion limit of the walkers that print and replay it.
    """
    base = covered = goal.antecedent
    fired = []  # (covered before the firing, fd)
    while not goal.consequent <= covered:
        before = len(fired)
        for fd in fds:
            if fd.antecedent <= covered and not fd.consequent <= covered:
                fired.append((covered, fd))
                covered = covered | fd.consequent
                if goal.consequent <= covered:
                    break
        if len(fired) == before:
            return None
    if len(fired) > FIRING_LIMIT:
        raise ResourceLimitError(
            f"derivation of {goal} fires {len(fired)} fds, "
            f"over the {FIRING_LIMIT}-firing bound")
    tree = None
    for c, fd in fired:
        refl = Derivation(AttrFd(c, c), REFLEXIVITY)
        if fd.antecedent == c:
            ante = refl
        else:
            ante = Derivation(AttrFd(c, fd.antecedent), CONSEQUENCE, (refl,))
        step = Derivation(AttrFd(c, fd.consequent), COMPOSITION,
                          (ante, Derivation(fd, AXIOM)))
        ext = Derivation(AttrFd(c, c | fd.consequent), ADDITIVITY,
                         (refl, step))
        tree = ext if tree is None else Derivation(
            AttrFd(base, ext.conclusion.consequent), COMPOSITION, (tree, ext))
    if tree is None:
        tree = Derivation(AttrFd(base, base), REFLEXIVITY)
    if tree.conclusion != goal:
        tree = Derivation(goal, CONSEQUENCE, (tree,))
    return tree


def validate_derivation(d: Derivation, axioms: Sequence[AttrFd]) -> bool:
    """Replay the tree and confirm every node follows by its rule."""
    c = d.conclusion
    ps = d.premises
    if d.rule == AXIOM:
        return not ps and c in list(axioms)
    if d.rule == REFLEXIVITY:
        return not ps and c.antecedent == c.consequent
    if d.rule == CONSEQUENCE:
        if len(ps) != 1:
            return False
        p = ps[0].conclusion
        ok = p.antecedent <= c.antecedent and c.consequent <= p.consequent
    elif d.rule == PROJECTIVITY:
        if len(ps) != 1:
            return False
        p = ps[0].conclusion
        ok = p.antecedent == c.antecedent and c.consequent <= p.consequent
    elif d.rule == COMPOSITION:
        if len(ps) != 2:
            return False
        p1, p2 = ps[0].conclusion, ps[1].conclusion
        ok = (p1.antecedent == c.antecedent
              and p1.consequent == p2.antecedent
              and p2.consequent == c.consequent)
    elif d.rule == ADDITIVITY:
        if len(ps) != 2:
            return False
        p1, p2 = ps[0].conclusion, ps[1].conclusion
        ok = (p1.antecedent == c.antecedent == p2.antecedent
              and c.consequent == p1.consequent | p2.consequent)
    else:
        return False
    return ok and all(validate_derivation(p, axioms) for p in ps)


def derivation_to_dict(d: Derivation) -> dict:
    """JSON form with stable field order: conclusion, rule, premises."""
    return {
        "conclusion": str(d.conclusion),
        "rule": d.rule,
        "premises": [derivation_to_dict(p) for p in d.premises],
    }


def derivation_from_dict(obj: dict) -> Derivation:
    return Derivation(
        parse_fd(obj["conclusion"]),
        obj["rule"],
        tuple(derivation_from_dict(p) for p in obj.get("premises", ())),
    )

