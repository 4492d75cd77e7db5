"""Functional-dependency satisfaction, three ways at runtime and three as
test oracles.

`relfd check` runs three routes over the stored rows, each linear in them
once the rows are sorted, and each written apart from the others:

* `scan_violation(rows, xs, ys)`, the witness scan: one pass over the rows
  sorted by `render_value`, grouping them into antecedent blocks, returns
  the first violating pair, the one `oracle_violation` returns;
* `satisfies_shunted(stored, xs, ys)`, the algebraic route: with x, y the
  projections restricted to the carrier S of the stored rows, the inclusion
  ``ker x <= ker y`` shunts through the function y (the registry's
  `shunt_function_left/right` laws) into "``y . x~`` is simple", a relation
  with one pair per distinct (x, y) value pair, built by `rel.compose`;
* `satisfies_refinement(rows, xs, ys)`, the typed route: ``x <= y`` under
  the injectivity preorder says the partition of the rows by x refines the
  one by y, that is ``|pi_X| = |pi_XY|`` (the FD test of TANE, Huhtala et
  al., The Computer Journal 42(2), 1999); it uses no relation operation.

The quadratic routes stay as the test oracles those three are compared
against:

* `satisfies_oracle` is the ground truth, a literal double loop over stored
  rows ("rows agreeing on the antecedent agree on the consequent"), and
  `oracle_violation` its first violating pair in sorted order;
* `satisfies_algebraic(t, fd)` checks
  ``pid(t) . x~ . x . pid(t)~  included-in  y~ . y`` with x, y the projection
  functions of the two attribute sets (``~`` is converse);
* `satisfies_typed(r, f, g)` is the general form for an arbitrary relation
  observed by functions: ``g <= f . r~`` under the injectivity preorder.

On a table both algebraic forms run over the stored rows S alone, not over
the row universe.  The ``pid(t)`` on each side of the inclusion relates
stored rows only, so its left side never leaves S and ``ker y`` is only ever
read on pairs of stored rows.  Taking ``pid`` as the identity of S and x, y
as the projections restricted to S therefore gives the same verdict, with
relations as large as the table instead of the domain product.

All routes must agree on tables; the CLI treats any disagreement as an
internal bug.  `mutual_dependency`, `typecheck_union` and `typecheck_join`
implement the merge/join typing rules on top of the same machinery.

FD text grammar: one ``attrs -> attrs`` per line, attribute names matching
``[A-Za-z_][A-Za-z0-9_]*`` separated by commas or whitespace, ``#`` starts a
comment.

`parse_fd_lines` reads a plain file in one pass.  A plain file holds only
ASCII letters, digits, underscores, spaces, tabs, commas, ``-``, ``>`` and
line feeds (one `str.translate` checks that), and each of its lines is
blank or ``attrs -> attrs`` with both sides non-empty and every name
passing `str.isidentifier`, which on ASCII text is exactly the name
pattern.  Any other text goes whole to the per-line parser
`parse_fd_lines_per_line`: a comment, a carriage return, a form feed or
other control character, anything outside ASCII, a second arrow, a stray
``-`` or ``>``, an empty side.  That parser raises every `ParseError` with
its line number, and on a plain file it returns the same FDs, so it is
also the fast path's test oracle.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Optional, Sequence

from . import rel
from .errors import InternalCheckError, ParseError, SchemeError
from .rel import Carrier, Frozen, Rel, Value, render_value
from .tables import pid  # noqa: F401  (callers bind relfd.fd.pid)
from .tables import Scheme, Table, proj_fn

# An attribute name; compiled on first use by `re`'s own cache, since only
# the per-line parser reads it.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*\Z"


class AttrFd(Frozen):
    """An attribute-level dependency: antecedent determines consequent."""

    __slots__ = _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: frozenset, consequent: frozenset):
        object.__setattr__(self, "antecedent", frozenset(antecedent))
        object.__setattr__(self, "consequent", frozenset(consequent))

    def _key(self) -> tuple:
        return (self.antecedent, self.consequent)

    def __str__(self) -> str:
        return (" ".join(sorted(self.antecedent)) + " -> "
                + " ".join(sorted(self.consequent))).strip()


def parse_attr_list(text: str, line: int | None = None) -> frozenset:
    names = [n for n in re.split(r"[,\s]+", text.strip()) if n]
    if not names:
        raise ParseError("empty attribute list", line=line)
    for n in names:
        if not re.match(_NAME, n):
            raise ParseError(f"bad attribute name {n!r}", line=line)
    return frozenset(names)


def parse_fd(text: str, line: int | None = None) -> AttrFd:
    parts = text.split("->")
    if len(parts) != 2:
        raise ParseError(f"expected exactly one '->' in {text.strip()!r}",
                         line=line)
    return AttrFd(parse_attr_list(parts[0], line),
                  parse_attr_list(parts[1], line))


# The characters of a plain FD file, as a `str.translate` table deleting
# them: a text is made of them alone when nothing is left.
_PLAIN = dict.fromkeys(map(ord, "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                "abcdefghijklmnopqrstuvwxyz"
                                "0123456789_ \t,\n->"))


def parse_fd_lines(text: str) -> list[AttrFd]:
    """Parse a dependency file: one FD per line, '#' comments allowed.

    A plain file (see the module docstring) is read in one pass; any other
    text, and so every malformed one, by `parse_fd_lines_per_line`.
    """
    if text.translate(_PLAIN):
        return parse_fd_lines_per_line(text)
    fds = []
    for line in text.split("\n"):
        left, arrow, right = line.partition("->")
        if not arrow:
            if line.strip(" \t"):
                return parse_fd_lines_per_line(text)
            continue
        ante = left.replace(",", " ").split()
        cons = right.replace(",", " ").split()
        if not (ante and cons and all(map(str.isidentifier, ante + cons))):
            return parse_fd_lines_per_line(text)
        fds.append(AttrFd(frozenset(ante), frozenset(cons)))
    return fds


def parse_fd_lines_per_line(text: str) -> list[AttrFd]:
    """`parse_fd_lines` line by line, through `parse_fd`: its error path
    and its test oracle."""
    fds = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fds.append(parse_fd(stripped, line=lineno))
    return fds


# ---------------------------------------------------------------------------
# Satisfaction on tables


def fd_positions(scheme: Scheme, fd: AttrFd) -> tuple[list[int], list[int]]:
    """Row positions of the FD's antecedent and consequent attributes, in
    scheme order; an unknown name raises `Scheme.select`'s error."""
    at = scheme.positions
    if not (at.keys() >= fd.antecedent and at.keys() >= fd.consequent):
        scheme.select(fd.antecedent)
        scheme.select(fd.consequent)
    return (sorted([at[n] for n in fd.antecedent]),
            sorted([at[n] for n in fd.consequent]))


def violating_pair(rows, xs: Sequence[int], ys: Sequence[int]
                   ) -> Optional[tuple[tuple, tuple]]:
    """First pair of `rows`, in their order, agreeing on the positions `xs`
    but not on `ys`.

    Each unordered pair is compared once, r2 running over the rows after
    r1.  That is the first pair of the full ordered double loop too: the
    relation is symmetric and never holds for (r, r), so the first r1 with
    a violating partner has no partner before it.
    """
    for r1, r2 in itertools.combinations(rows, 2):
        if all(r1[p] == r2[p] for p in xs):
            if not all(r1[p] == r2[p] for p in ys):
                return (r1, r2)
    return None


def oracle_violation(t: Table, fd: AttrFd) -> Optional[tuple[tuple, tuple]]:
    """First row pair (sorted order) agreeing on x but not on y, if any."""
    return violating_pair(sorted(t.rows, key=render_value),
                          *fd_positions(t.scheme, fd))


def satisfies_oracle(t: Table, fd: AttrFd) -> bool:
    """Ground truth: literal two-row quantification over the stored rows."""
    return violating_pair(t.rows, *fd_positions(t.scheme, fd)) is None


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


def _key(positions: Sequence[int]):
    """The function from a row to its values at `positions`."""
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def scan_violation(rows: Sequence[tuple], xs: Sequence[int],
                   ys: Sequence[int]) -> Optional[tuple[tuple, tuple]]:
    """`violating_pair` of `rows` in one pass, for rows sorted by
    `render_value`: `oracle_violation`'s pair.

    The first row of a block of rows agreeing on `xs` has a later partner
    in the block whenever the block holds two values at `ys`, so the pair
    is the first row r1 of the earliest such block and the first later row
    of that block disagreeing with r1 on `ys`.  Blocks keep the order of
    their first rows.
    """
    kx, ky = _key(xs), _key(ys)
    blocks: dict = {}  # x value -> [r1, y value of r1, r2 or None]
    for row in rows:
        x = kx(row)
        block = blocks.get(x)
        if block is None:
            blocks[x] = [row, ky(row), None]
        elif block[2] is None and ky(row) != block[1]:
            block[2] = row
    for r1, _, r2 in blocks.values():
        if r2 is not None:
            return (r1, r2)
    return None


def _stored_proj(stored: Carrier, positions: Sequence[int]) -> Rel:
    """`proj_fn` onto the attributes at `positions`, restricted to the rows
    of `stored`, onto its image in order of first occurrence."""
    # `_key`, but a 1-tuple at a single position, as `proj_fn` gives
    sub_row = (_key(positions) if len(positions) != 1
               else lambda row, i=positions[0]: (row[i],))
    pairs = dict(zip(stored.elements, map(sub_row, stored.elements)))
    image = Carrier("image", tuple(dict.fromkeys(pairs.values())))
    return Rel(stored, image, frozenset(pairs.items()))


def satisfies_shunted(stored: Carrier, xs: Sequence[int],
                      ys: Sequence[int]) -> bool:
    """Linear algebraic route: ``y . x~`` is simple over the stored rows.

    With x, y the projections onto the positions `xs`, `ys` restricted to
    the carrier S of the stored rows, `stored`, the quantifier-free
    inclusion ``x~ . x  included-in  y~ . y`` shunts through the function y
    on the left and on the right into ``(y . x~) . (y . x~)~  included-in
    id``.  ``y . x~`` has a pair per distinct (x, y) value pair, never more
    pairs than S has rows.  S depends on the table alone, so a caller
    checking several FDs builds it once.
    """
    x, y = _stored_proj(stored, xs), _stored_proj(stored, ys)
    return rel.is_simple(rel.compose(y, rel.converse(x)))


def satisfies_refinement(rows, xs: Sequence[int], ys: Sequence[int]
                         ) -> bool:
    """Typed route as partition refinement: the partition of `rows` by
    their values at `xs` refines the one by `ys` exactly when adding `ys`
    splits no block, ``|pi_X| = |pi_XY|``."""
    kx, kxy = _key(xs), _key(sorted(set(xs) | set(ys)))
    return len({kx(r) for r in rows}) == len({kxy(r) for r in rows})


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
    """The identity of the carrier S of the stored rows, in `render_value`
    order, and the antecedent and consequent projections restricted to S."""
    s = Carrier("stored", tuple(sorted(t.rows, key=render_value)))
    xs, ys = fd_positions(t.scheme, fd)
    return rel.identity(s), _stored_proj(s, xs), _stored_proj(s, ys)
