"""Functional-dependency satisfaction, in three interchangeable forms.

`satisfies_oracle` is the ground truth: a literal double loop over stored
rows ("rows agreeing on the antecedent agree on the consequent").  The other
two routes are quantifier-free renderings over the relation algebra:

* `satisfies_algebraic(t, fd)` checks
  ``pid(t) . x~ . x . pid(t)~  included-in  y~ . y`` with x, y the projection
  functions of the two attribute sets (``~`` is converse);
* `satisfies_typed(r, f, g)` is the general form for an arbitrary relation
  observed by functions: ``g <= f . r~`` under the injectivity preorder.

On a table both algebraic routes run over the stored rows S alone, not over
the row universe.  The ``pid(t)`` on each side of the inclusion relates
stored rows only, so its left side never leaves S and ``ker y`` is only ever
read on pairs of stored rows.  Taking ``pid`` as the identity of S and x, y
as the projections restricted to S therefore gives the same verdict, with
relations as large as the table instead of the domain product.

The three must agree on tables; the CLI treats any disagreement as an
internal bug.  `mutual_dependency`, `typecheck_union` and `typecheck_join`
implement the merge/join typing rules on top of the same machinery.

FD text grammar: one ``attrs -> attrs`` per line, attribute names matching
``[A-Za-z_][A-Za-z0-9_]*`` separated by commas or whitespace, ``#`` starts a
comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import rel
from .errors import InternalCheckError, ParseError, SchemeError
from .rel import Rel, Tup, Value, render_value
from .tables import pid  # noqa: F401  (callers bind relfd.fd.pid)
from .tables import Table, proj_fn, stored_carrier, stored_proj_fn

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class AttrFd:
    """An attribute-level dependency: antecedent determines consequent."""

    antecedent: frozenset
    consequent: frozenset

    def __post_init__(self):
        object.__setattr__(self, "antecedent", frozenset(self.antecedent))
        object.__setattr__(self, "consequent", frozenset(self.consequent))

    def __str__(self) -> str:
        return (" ".join(sorted(self.antecedent)) + " -> "
                + " ".join(sorted(self.consequent))).strip()


def parse_attr_list(text: str, line: int | None = None) -> frozenset:
    names = [n for n in re.split(r"[,\s]+", text.strip()) if n]
    if not names:
        raise ParseError("empty attribute list", line=line)
    for n in names:
        if not _NAME.match(n):
            raise ParseError(f"bad attribute name {n!r}", line=line)
    return frozenset(names)


def parse_fd(text: str, line: int | None = None) -> AttrFd:
    parts = text.split("->")
    if len(parts) != 2:
        raise ParseError(f"expected exactly one '->' in {text.strip()!r}",
                         line=line)
    return AttrFd(parse_attr_list(parts[0], line),
                  parse_attr_list(parts[1], line))


def parse_fd_lines(text: str) -> list[AttrFd]:
    """Parse a dependency file: one FD per line, '#' comments allowed."""
    fds = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fds.append(parse_fd(stripped, line=lineno))
    return fds


# ---------------------------------------------------------------------------
# Satisfaction on tables


def oracle_violation(t: Table, fd: AttrFd) -> Optional[tuple[Tup, Tup]]:
    """First row pair (sorted order) agreeing on x but not on y, if any."""
    xs = [t.scheme.names.index(n) for n in t.scheme.select(fd.antecedent)]
    ys = [t.scheme.names.index(n) for n in t.scheme.select(fd.consequent)]
    rows = sorted(t.rows, key=render_value)
    for r1 in rows:
        for r2 in rows:
            if all(r1.items[i] == r2.items[i] for i in xs):
                if not all(r1.items[i] == r2.items[i] for i in ys):
                    return (r1, r2)
    return None


def satisfies_oracle(t: Table, fd: AttrFd) -> bool:
    """Ground truth: literal two-row quantification over the stored rows."""
    return oracle_violation(t, fd) is None


def satisfies_algebraic(t: Table, fd: AttrFd) -> bool:
    """Quantifier-free route: one inclusion between composite relations.

    ``pid . x~ . x . pid~  included-in  ker y`` over the stored-row carrier
    S: ``pid`` is the identity of S and x, y are the projections restricted
    to S.  The verdict is that of the same inclusion over the row universe,
    whose left side relates stored rows only.
    """
    p, x, y = stored_fd_projections(t, fd)
    lhs = rel.compose(p, rel.compose(rel.converse(x),
                                     rel.compose(x, rel.converse(p))))
    return rel.includes(rel.kernel(y), lhs)


# ---------------------------------------------------------------------------
# Satisfaction on arbitrary relations


def _check_observers(r: Rel, f: Rel, g: Rel) -> None:
    if not rel.is_function(f) or not rel.is_function(g):
        raise SchemeError("observers must be functions")
    rel._require_same(f.source, r.source, "input observer")
    rel._require_same(g.source, r.target, "output observer")


def satisfies_typed(r: Rel, f: Rel, g: Rel) -> bool:
    """g is at most as injective as f seen through r: g <= f . r~."""
    _check_observers(r, f, g)
    return rel.leq(g, rel.compose(f, rel.converse(r)))


def satisfies_general_quantified(r: Rel, f: Rel, g: Rel) -> bool:
    """Literal nested-quantifier reading; the oracle for satisfies_typed.

    Inputs indistinguishable by f may lead through r only to outputs
    indistinguishable by g.
    """
    _check_observers(r, f, g)
    fmap = dict(f.pairs)
    gmap = dict(g.pairs)
    outputs: dict = {}
    for a, b in r.pairs:
        outputs.setdefault(a, []).append(b)
    for a in r.source.elements:
        for a2 in r.source.elements:
            if fmap[a] != fmap[a2]:
                continue
            for b in outputs.get(a, ()):
                for b2 in outputs.get(a2, ()):
                    if gmap[b] != gmap[b2]:
                        return False
    return True


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
    r_sorted = sorted(r.pairs, key=lambda p: (render_value(p[0]),
                                              render_value(p[1])))
    s_sorted = sorted(s.pairs, key=lambda p: (render_value(p[0]),
                                              render_value(p[1])))
    for a, b in r_sorted:
        for a2, c in s_sorted:
            if fmap[a] == fmap[a2] and gmap[b] != gmap[c]:
                return ((a, b), (a2, c))
    return None


@dataclass(frozen=True)
class UnionTypeReport:
    """Decomposition of an FD check on a merged relation."""

    union_holds: bool
    left_holds: bool
    right_holds: bool
    mutual_holds: bool
    witness: Optional[tuple] = None

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
    the report is truthy exactly when the FD holds on the merge.

    The overall verdict always equals the conjunction of the FD on each
    operand plus their mutual dependency; a mismatch means a bug and raises.
    """
    overall = satisfies_typed(rel.union(r, s), f, g)
    left = satisfies_typed(r, f, g)
    right = satisfies_typed(s, f, g)
    mutual = mutual_dependency(r, s, f, g)
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
    """Conclusion check for the join typing rule.

    Returns whether the joined relation satisfies the paired dependency
    ``f -> g x h``.  When both premises ``f -> g`` on r and ``f -> h`` on s
    hold the conclusion must hold as well; a violation of that implication
    raises instead of being reported as a result.
    """
    rel._require_same(r.source, s.source, "join typecheck")
    premise_l = satisfies_typed(r, f, g)
    premise_r = satisfies_typed(s, f, h)
    conclusion = satisfies_typed(rel.fork(r, s), f, rel.product(g, h))
    if premise_l and premise_r and not conclusion:
        raise InternalCheckError("join rule premises hold but conclusion fails")
    return conclusion


def fd_projections(t: Table, fd: AttrFd) -> tuple[Rel, Rel]:
    """The antecedent and consequent projection functions of a table."""
    return (proj_fn(t.scheme, fd.antecedent),
            proj_fn(t.scheme, fd.consequent))


def stored_fd_projections(t: Table, fd: AttrFd) -> tuple[Rel, Rel, Rel]:
    """The identity of the stored-row carrier S and the antecedent and
    consequent projections restricted to S."""
    s = stored_carrier(t)
    return (rel.identity(s), stored_proj_fn(t.scheme, fd.antecedent, s),
            stored_proj_fn(t.scheme, fd.consequent, s))
