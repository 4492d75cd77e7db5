"""FDs as types of relations, and the typing rules of database operations.

A relation r has the type f -> g, for functions f and g observing its source
and target, when ``g <= f . r~`` under the injectivity preorder (``~`` is
converse): the judgement `fd.satisfies_typed`.  Of the CLI commands only
`laws` loads this module.

* `satisfies_general_quantified` is the judgement's literal reading, and
  `fd_violation` a pair of pairs breaking it.
* `satisfies_algebraic(t, fd)`, a test oracle of `relfd check`, checks
  ``pid(t) . x~ . x . pid(t)~  included-in  y~ . y`` with x, y the projection
  functions of the two attribute sets.  Each ``pid(t)`` relates stored rows
  only, so the left side never leaves the stored rows S and ``ker y`` is
  only read on pairs of them: with ``pid`` the identity of S and x, y
  restricted to S the verdict is the same, from relations as large as the
  table instead of the domain product.  They relate the row tuples
  themselves, not the codes `fd.satisfies_shunted` reads.
* `union_verdicts` states the merge rule, `join_verdicts` the join rule and
  `fd_trade` the trading rule.  `typecheck_union`, `typecheck_join` and the
  law registry's pointwise `holds` read them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import rel
from .errors import InternalCheckError
from .fd import (AttrFd, _check_observers, _key, fd_positions,
                 satisfies_typed, stored_order)
from .rel import Carrier, Frozen, Rel, Value
from .tables import Table


def satisfies_algebraic(t: Table, fd: AttrFd) -> bool:
    """Quantifier-free oracle: the inclusion above, over the stored rows."""
    p, x, y = stored_fd_projections(t, fd)
    lhs = rel.compose(p, rel.compose(rel.converse(x),
                                     rel.compose(x, rel.converse(p))))
    return rel.includes(rel.kernel(y), lhs)


def stored_fd_projections(t: Table, fd: AttrFd) -> tuple[Rel, Rel, Rel]:
    """The identity of the carrier S of the stored rows, in `stored_order`,
    and the antecedent and consequent projections restricted to S."""
    s = Carrier("stored", tuple(stored_order(t.rows)))
    xs, ys = fd_positions(t.scheme, fd)
    return rel.identity(s), _stored_proj(s, xs), _stored_proj(s, ys)


def _stored_proj(stored: Carrier, positions: Sequence[int]) -> Rel:
    """`proj_fn` onto the attributes at `positions`, restricted to the rows
    of `stored`, onto its image in order of first occurrence."""
    # `_key`, but a 1-tuple at a single position, as `proj_fn` gives
    sub_row = (_key(positions) if len(positions) != 1
               else lambda row, i=positions[0]: (row[i],))
    pairs = dict(zip(stored.elements, map(sub_row, stored.elements)))
    image = Carrier("image", tuple(dict.fromkeys(pairs.values())))
    return Rel(stored, image, frozenset(pairs.items()))


def satisfies_general_quantified(r: Rel, f: Rel, g: Rel) -> bool:
    """Literal nested-quantifier reading; the oracle for satisfies_typed.

    Inputs indistinguishable by f may lead through r only to outputs
    indistinguishable by g: no two pairs of r are an `fd_violation`.
    """
    _check_observers(r, f, g)
    return fd_violation(r, r, f, g) is None


def mutual_dependency(r: Rel, s: Rel, f: Rel, g: Rel) -> bool:
    """Cross-relation form: r . ker f . s~ is included in ker g."""
    rel._require_same(r.source, s.source, "mutual dependency")
    rel._require_same(r.target, s.target, "mutual dependency")
    _check_observers(r, f, g)
    lhs = rel.compose(r, rel.compose(rel.kernel(f), rel.converse(s)))
    return rel.includes(rel.kernel(g), lhs)


def fd_violation(r: Rel, s: Rel, f: Rel, g: Rel
                 ) -> Optional[tuple[tuple[Value, Value],
                                     tuple[Value, Value]]]:
    """A pair of pairs, one from r and one from s, whose inputs agree under
    f while the outputs disagree under g; None when no such pair exists."""
    fmap = dict(f.pairs)
    gmap = dict(g.pairs)
    s_sorted = stored_order(s.pairs)
    for a, b in stored_order(r.pairs):
        for a2, c in s_sorted:
            if fmap[a] == fmap[a2] and gmap[b] != gmap[c]:
                return ((a, b), (a2, c))
    return None


def union_verdicts(r: Rel, s: Rel, f: Rel, g: Rel
                   ) -> tuple[bool, bool, bool, bool]:
    """The merge rule's judgements: f -> g on ``r U s``, on r, on s, and
    mutually across r and s.  The rule says the first is the conjunction
    of the other three."""
    return (satisfies_typed(rel.union(r, s), f, g), satisfies_typed(r, f, g),
            satisfies_typed(s, f, g), mutual_dependency(r, s, f, g))


def join_verdicts(r: Rel, s: Rel, f: Rel, g: Rel, h: Rel
                  ) -> tuple[bool, bool, bool]:
    """The join rule's judgements: f -> g on r, f -> h on s, and
    f -> g x h on their fork.  The rule says the first two give the third."""
    return (satisfies_typed(r, f, g), satisfies_typed(s, f, h),
            satisfies_typed(rel.fork(r, s), f, rel.product(g, h)))


class UnionTypeReport(Frozen):
    """Decomposition of an FD check on a merged relation."""

    __slots__ = _fields = ("union_holds", "left_holds", "right_holds",
                           "mutual_holds", "witness")

    def __init__(self, union_holds: bool, left_holds: bool,
                 right_holds: bool, mutual_holds: bool,
                 witness: Optional[tuple] = None):
        super().__init__(union_holds, left_holds, right_holds, mutual_holds,
                         witness)

    @property
    def failed(self) -> tuple[str, ...]:
        out = []
        if not self.left_holds:
            out.append("left")
        if not self.right_holds:
            out.append("right")
        if not self.mutual_holds:
            out.append("mutual")
        return tuple(out)

    def __bool__(self) -> bool:
        return self.union_holds


def typecheck_union(r: Rel, s: Rel, f: Rel, g: Rel) -> UnionTypeReport:
    """Check the FD on the merge of r and s and report the decomposition;
    the report is truthy exactly when the FD holds on the merge.  A verdict
    that breaks the merge rule means a bug and raises."""
    overall, left, right, mutual = union_verdicts(r, s, f, g)
    if overall != (left and right and mutual):
        raise InternalCheckError(
            "merge FD verdict disagrees with its decomposition")
    witness = None
    if not left:
        witness = fd_violation(r, r, f, g)
    elif not right:
        witness = fd_violation(s, s, f, g)
    elif not mutual:
        witness = fd_violation(r, s, f, g)
    return UnionTypeReport(overall, left, right, mutual, witness)


def typecheck_join(r: Rel, s: Rel, f: Rel, g: Rel, h: Rel) -> bool:
    """Whether the fork of r and s satisfies ``f -> g x h``; premises that
    hold with a conclusion that fails break the join rule and raise."""
    rel._require_same(r.source, s.source, "join typecheck")
    premise_l, premise_r, conclusion = join_verdicts(r, s, f, g, h)
    if premise_l and premise_r and not conclusion:
        raise InternalCheckError("join rule premises hold but conclusion fails")
    return conclusion


def fd_trade(x: Rel, z: Rel, r: Rel, k: Rel, y: Rel) -> bool:
    """Both sides of the trading equivalence agree on these relations.

    Left: x -> y on the composite z . r . k~; right: x.k -> y.z on r.
    Returns True exactly when the two checks coincide (they always must).
    """
    middle = rel.compose(z, rel.compose(r, rel.converse(k)))
    left = satisfies_typed(middle, x, y)
    right = satisfies_typed(r, rel.compose(x, k), rel.compose(y, z))
    return left == right
