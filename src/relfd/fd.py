"""Functional-dependency satisfaction, three ways at runtime, and the test
oracles they are compared against.

`relfd check` runs three routes over the stored rows, each linear in them
once the rows are sorted, and each written apart from the others:

* `scan_violation(rows, xs, ys)`, the witness scan: one pass over the rows
  in `stored_order`, grouping them into antecedent blocks, returns
  the first violating pair, the one `oracles.oracle_violation` returns;
* `satisfies_shunted(stored, columns, xs, ys)`, the algebraic route over
  the row indices S of the columns `encode_columns` codes: ``ker x <= ker
  y`` shunts through the function y (the registry's
  `shunt_function_left/right` laws) into "``y . x~`` is simple", a relation
  with one pair per distinct (x, y) code pair, built by `rel.compose`;
* `satisfies_refinement(rows, xs, ys)`, the typed route: ``x <= y`` under
  the injectivity preorder says the partition of the rows by x refines the
  one by y, that is ``|pi_X| = |pi_XY|`` (the FD test of TANE, Huhtala et
  al., The Computer Journal 42(2), 1999); it uses no relation operation.

The ground truth is `satisfies_oracle`, a literal double loop over stored
rows ("rows agreeing on the antecedent agree on the consequent"), and
`relfd.oracles.oracle_violation` its first violating pair in sorted order.  All routes
must agree on tables; the CLI treats any disagreement as an internal bug.
`satisfies_typed(r, f, g)` is the FD as a type of an arbitrary relation
observed by functions, ``g <= f . r~`` under the injectivity preorder; its
other forms, the algebraic oracle among them, are in `relfd.typed`.

FD text grammar: one ``attrs -> attrs`` per line, attribute names matching
``[A-Za-z_][A-Za-z0-9_]*`` separated by commas or whitespace, ``#`` starts a
comment.

`parse_fd_lines` reads a plain file in one pass.  A plain file holds only
ASCII letters, digits, underscores, spaces, tabs, commas, ``-``, ``>`` and
line feeds (one `str.translate` checks that), and each of its lines is
blank or ``attrs -> attrs`` with both sides non-empty and every name
passing `str.isidentifier`, which on ASCII text is exactly the name
pattern.  It replaces the commas once over the whole text, makes one loop
over the lines that only cuts each at its arrow, splits and freezes the
sides with `map`, and checks each distinct name once, over their union.
Any other text goes whole to the per-line parser
`parse_fd_lines_per_line`: a comment, a carriage return, a form feed or
other control character, anything outside ASCII, a second arrow, a stray
``-`` or ``>``, an empty side.  That parser raises every `ParseError` with
its line number, and on a plain file it returns the same FDs, so it is
also the fast path's test oracle.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional, Sequence

from . import rel
from .errors import ParseError, SchemeError
from .rel import Carrier, Frozen, Rel, render_value
from .tables import Scheme, Table
from .tables import pid, proj_fn  # noqa: F401  (bound as fd.pid, fd.proj_fn)

class AttrFd(Frozen):
    """An attribute-level dependency: antecedent determines consequent."""

    __slots__ = _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: frozenset, consequent: frozenset):
        _set_antecedent(self, frozenset(antecedent))
        _set_consequent(self, frozenset(consequent))

    def _key(self) -> tuple:
        return (self.antecedent, self.consequent)

    def __str__(self) -> str:
        return (" ".join(sorted(self.antecedent)) + " -> "
                + " ".join(sorted(self.consequent))).strip()


# The slots' own setters, which `Frozen.__setattr__` does not stand in front
# of: cheaper than `object.__setattr__` by name.
_set_antecedent = AttrFd.antecedent.__set__
_set_consequent = AttrFd.consequent.__set__


def parse_attr_list(text: str, line: int | None = None) -> frozenset:
    names = text.replace(",", " ").split()
    if not names:
        raise ParseError("empty attribute list", line=line)
    for n in names:
        if not (n.isascii() and n.isidentifier()):  # the name pattern
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

# What a comma becomes in the one-pass parser: a character `str.split()`
# splits at, as it does at blanks, but that `str.strip(" \t")` keeps, so a
# line of commas alone is not blank; a plain file holds none of it.
_COMMA = "\x1f"


def parse_fd_lines(text: str) -> list[AttrFd]:
    """Parse a dependency file: one FD per line, '#' comments allowed.

    A plain file (see the module docstring) is read in one pass; any other
    text, and so every malformed one, by `parse_fd_lines_per_line`.
    """
    if text.translate(_PLAIN):
        return parse_fd_lines_per_line(text)
    lefts, rights = [], []
    for line in text.replace(",", _COMMA).split("\n"):
        left, arrow, right = line.partition("->")
        if arrow:
            lefts.append(left)
            rights.append(right)
        elif line.strip(" \t"):
            return parse_fd_lines_per_line(text)
    antes = list(map(frozenset, map(str.split, lefts)))
    conss = list(map(frozenset, map(str.split, rights)))
    if not (all(antes) and all(conss) and all(map(
            str.isidentifier, frozenset().union(*antes, *conss)))):
        return parse_fd_lines_per_line(text)
    return list(map(AttrFd, antes, conss))


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


def stored_order(rows) -> list:
    """`rows` sorted by `render_value`, and where two render alike, such as
    ("x,y", "z") and ("x", "y,z"), by `repr` too, not by a set's hash order
    (pairs have no order of their own)."""
    keyed = dict(zip(map(render_value, rows), rows))
    if len(keyed) == len(rows):
        return list(map(keyed.__getitem__, sorted(keyed)))
    return sorted(rows, key=lambda row: (render_value(row), repr(row)))


def satisfies_oracle(t: Table, fd: AttrFd) -> bool:
    """Ground truth: literal two-row quantification over the stored rows."""
    return violating_pair(t.rows, *fd_positions(t.scheme, fd)) is None


def _key(positions: Sequence[int]):
    """The function from a row to its values at `positions`."""
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def scan_violation(rows: Sequence[tuple], xs: Sequence[int],
                   ys: Sequence[int]) -> Optional[tuple[tuple, tuple]]:
    """`violating_pair` of `rows` in one pass, for rows in `stored_order`:
    `oracles.oracle_violation`'s pair.

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


def encode_columns(rows: Sequence[tuple], arity: int) -> tuple[Carrier, list]:
    """S, the indices of `rows`, and their `arity` columns: a column's
    values coded by first occurrence, and its radix, its count of values."""
    columns = []
    for values in zip(*rows) if rows else [()] * arity:
        index = dict(zip(dict.fromkeys(values), itertools.count()))
        columns.append((list(map(index.__getitem__, values)), len(index)))
    return Carrier("stored", tuple(range(len(rows)))), columns


def _codes(columns: list, positions: Sequence[int], n: int) -> list[int]:
    """Each of the n rows' mixed-radix code at `positions`: ``code * k + c``
    folded over them, c a value's code and k its column's radix; 0 at none.
    Two rows share a code exactly when they agree at `positions`."""
    codes = columns[positions[0]][0] if positions else [0] * n
    for p in positions[1:]:
        column, radix = columns[p]
        codes = [code * radix + c for code, c in zip(codes, column)]
    return codes


def satisfies_shunted(stored: Carrier, columns: list, xs: Sequence[int],
                      ys: Sequence[int]) -> bool:
    """Linear algebraic route: ``y . x~`` is simple over the stored rows.

    S, the carrier `stored`, holds the row indices 0..n-1 of `columns`, both
    from `encode_columns`, once per table; x and y map an index to the
    `_codes` of its row at `xs` and `ys`, onto the codes that occur.
    ``x~ . x  included-in  y~ . y`` shunts through the function y on the
    left and on the right into ``(y . x~) . (y . x~)~  included-in  id``;
    ``y . x~`` has a pair per distinct (x, y) code pair, at most n.
    """
    x, y = (Rel(stored, Carrier("image", tuple(dict.fromkeys(codes))),
                frozenset(zip(stored.elements, codes)))
            for codes in [_codes(columns, xs, len(stored)),
                          _codes(columns, ys, len(stored))])
    return rel.is_simple(rel.compose(y, rel.converse(x)))


def satisfies_refinement(rows, xs: Sequence[int], ys: Sequence[int]
                         ) -> bool:
    """Typed route as partition refinement: the partition of `rows` by
    their values at `xs` refines the one by `ys` exactly when adding `ys`
    splits no block, ``|pi_X| = |pi_XY|``."""
    kx, kxy = _key(xs), _key(sorted(set(xs) | set(ys)))
    return len(set(map(kx, rows))) == len(set(map(kxy, rows)))


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
