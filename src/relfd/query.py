"""Relational query IR: type checking, evaluation and self-join elimination.

Expressions are trees over composition, converse, kernel, union, fork,
projection functions, partial identities of named tables, and references to
named relations.  Every node has an `args` tuple holding its operands in
wire order; the leaves `Proj`, `Pid` and `RelRef` have none.  A composition
chain is one n-ary `Compose` node: building a `Compose` splices in any
`Compose` among its factors.  `eval_query` evaluates bottom-up against an
environment of tables and relations; `rewrite_selfjoin` removes the
classical "scan the same file twice through a kernel" shape whenever a
supplied dependency set proves it redundant, in one pass that also
normalizes the partial identities.

`type_check` types an expression by the carriers that evaluation reads.
A row universe and a fork's pair carrier are products of their domains
(`rel.Carrier`): typing sizes and compares them without enumerating
them, so it builds no element and raises no size bound.  Only
evaluation enumerates a product, and one over `rel.CARRIER_LIMIT`
elements raises there, naming the carrier.

`verify_rewrite` confirms a rewrite on a table in three steps, each
written once.  `_type_pair` types both sides with `type_check`.  Each
fired window is enabled by an FD, ``f -> g`` or ``f -> h``; when one
holds on the stored rows (`discharged`, one linear pass per FD), the
window equals its rewrite there, and so does the whole query.  Only when
typing cannot settle it does `_compare` evaluate both sides, and report
a counterexample, the first differing pair.  `verify_equiv` is
`_type_pair` plus `_compare`.

A composition chain, and a lone kernel or projection as a chain of one
factor, is evaluated as one step.  Each kernel factor ``ker e`` is
unfolded into the two factors ``e~ . e`` (the definition of
`rel.kernel`), so the kernel over a whole row universe is never built:
on the query nodes when e is a projection or its converse, on e's
relation, evaluated once, otherwise.  Then `_cancel` drops each adjacent
``p . p~`` of one projection p (one table, one attribute set), nested
pairs such as ``p . q . q~ . p~`` too, and so ``ker p~``: p is onto its
sub-row carrier whenever the row universe is non-empty, so ``p . p~`` is
the identity there, and a chain that cancels whole is that identity.
Over an empty universe ``p . p~`` is empty and stays, as does
``p~ . p``, p's kernel.

A table enters a chain as its partial identity, and a projection beside
it is that projection restricted to the stored rows S: ``p . pid = p|S``
and ``pid . p~ = (p|S)~``.  `_absorb` builds every projection the
evaluator uses, as the pairs ``(r, p(r))``: over the |S| stored rows
when a pid is directly right of it, and over the whole row universe
otherwise, as in ``g~ . g``, ``g . (h . pid)~`` or a lone projection.
It builds the converse of a projection directly right of a pid as the
pairs ``(p(r), r)``, and drops a pid with either neighbour: the window
``g . pid . ker f . pid . h~`` is evaluated at the scale of the stored
rows.  Every other factor is evaluated on its own, so the converse of a
projection whose left neighbour is not a pid is the converse of that
projection over the universe.  The factors are associated by a
matrix-chain dynamic program over estimated pair counts:
composing ``l`` with ``r`` through a middle carrier ``m`` is estimated
at ``|l| * |r| / |m|`` pairs, capped at ``|source| * |target|``.
Composition is associative, so the result does not depend on the order.

What `_compare` pays around its relations is paid once per scheme
object: `_proj_map` keeps on the scheme, by attribute set, a
projection's row universe, its sub-row carrier and its map from a row to
its sub-row.  The two carriers are products, and neither is enumerated
until evaluation reads its elements; nothing kept holds a relation, and
all of it goes with the table's scheme.  `_plan` finds the association
on flat lists.

JSON wire form (one object per node):

    {"op": "compose", "args": [e1, e2, ...]}     # >= 2 args
    {"op": "converse", "arg": e}
    {"op": "kernel", "arg": e}
    {"op": "union", "args": [e1, e2, ...]}       # >= 2 args
    {"op": "fork", "args": [e1, e2, ...]}        # >= 2 args
    {"op": "proj", "scheme": "movies", "attrs": ["Title"]}
    {"op": "pid", "table": "movies"}
    {"op": "rel", "name": "R"}

A node of n args means the left fold of its binary operation, and
`to_json` writes it in that left-nested binary form, as this wire form
always has.  `from_json` rejects a query nested deeper than
`MAX_QUERY_DEPTH` levels of that form, where a node of n args puts its
first operand n - 1 levels down.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Optional, Sequence, Union

from . import rel, tables
from .errors import (CarrierMismatchError, ParseError, QueryTypeError,
                     RelfdError)
from .fd import AttrFd, fd_positions, satisfies_refinement
from .infer import attr_closure, mentioned_attrs
# Unused here; kept because the benchmark's tracer test binds it by this
# name (relfd.query.derive).
from .infer import derive  # noqa: F401
from .rel import Carrier, Frozen, Rel, Value, render_value
from .tables import Table

# Nesting bound of `from_json`, well below the interpreter's recursion limit.
MAX_QUERY_DEPTH = 100
TOO_DEEP = f"query nests deeper than {MAX_QUERY_DEPTH} levels"


class RelRef(Frozen):
    __slots__ = _fields = ("name",)
    args = ()


class Proj(Frozen):  # `scheme` names the table whose scheme is projected
    __slots__ = _fields = ("scheme", "attrs")
    args = ()

    def __init__(self, scheme: str, attrs: frozenset):
        super().__init__(scheme, frozenset(attrs))


class Pid(Frozen):
    __slots__ = _fields = ("table",)
    args = ()


class _Inner(Frozen):
    """An inner node: `op` names it on the wire, and `key` is the wire
    field of its operands, ``"arg"`` for one or ``"args"`` for a list."""

    __slots__ = _fields = ("args",)
    key = "args"

    def __init__(self, *args: "QueryExpr"):
        object.__setattr__(self, "args", args)

    def __reduce__(self):  # the operands are passed one by one
        return self.__class__, self.args


class Converse(_Inner):
    op, key = "converse", "arg"


class Kernel(_Inner):
    op, key = "kernel", "arg"


class UnionOp(_Inner):
    op = "union"


class Fork(_Inner):
    op = "fork"


class Compose(_Inner):
    """The chain ``args[0] . args[1] . ...``; the last factor applies
    first.  Nested chains among the factors are spliced in."""

    op = "compose"

    def __init__(self, *factors: "QueryExpr"):
        super().__init__(*(x for f in factors
                           for x in (f.args if isinstance(f, Compose)
                                     else (f,))))


QueryExpr = Union[RelRef, Compose, Converse, Kernel, Proj, Pid, UnionOp, Fork]
_INNER_TYPES = (Compose, Converse, Kernel, UnionOp, Fork)


class Env(Frozen):
    __slots__ = _fields = ("tables", "rels")
    __hash__ = None  # its dicts are not hashable

    def __init__(self, tables: dict | None = None, rels: dict | None = None):
        super().__init__({} if tables is None else tables,
                         {} if rels is None else rels)


# ---------------------------------------------------------------------------
# JSON wire form


def _where(path) -> str:
    """A node path, e.g. ``query.compose.args[1]``.  `from_json` and
    `type_check` pass an operand's path down unrendered, as (parent's path,
    parent, operand index), and render it only to raise."""
    if isinstance(path, str):
        return path
    parent, e, i = path
    if e.key == "arg":
        return f"{_where(parent)}.{e.op}.arg"
    return f"{_where(parent)}.{e.op}.args[{i}]"


def to_json(e: QueryExpr) -> dict:
    if isinstance(e, RelRef):
        return {"op": "rel", "name": e.name}
    if isinstance(e, Proj):
        return {"op": "proj", "scheme": e.scheme, "attrs": sorted(e.attrs)}
    if isinstance(e, Pid):
        return {"op": "pid", "table": e.table}
    kids = [to_json(a) for a in e.args]
    if e.key == "arg":
        return {"op": e.op, "arg": kids[0]}
    return functools.reduce(lambda l, r: {"op": e.op, "args": [l, r]}, kids)


def _field(op: str, obj: dict, key: str, path):
    if key not in obj:
        raise ParseError(f"{op!r} node lacks its {key!r} field",
                         path=_where(path))
    return obj[key]


def from_json(obj: dict, path="query", depth: int = 0) -> QueryExpr:
    """The expression a JSON node encodes; a malformed node raises a
    `ParseError` located by its path, `_where(path)`.  `depth` is the
    node's level in the left-nested wire form."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ParseError("query node must be an object with an 'op' field",
                         path=_where(path))
    op = obj["op"]
    if op == "rel":
        return RelRef(str(_field(op, obj, "name", path)))
    if op == "proj":
        attrs = obj.get("attrs")
        if not isinstance(attrs, list) or not attrs:
            raise ParseError("'proj' needs a non-empty attrs list",
                             path=_where(path))
        if not all(isinstance(a, str) for a in attrs):
            raise ParseError("'proj' attrs must all be strings",
                             path=_where(path))
        return Proj(str(_field(op, obj, "scheme", path)), frozenset(attrs))
    if op == "pid":
        return Pid(str(_field(op, obj, "table", path)))
    node = next((c for c in _INNER_TYPES if c.op == op), None)
    if node is None:
        raise ParseError(f"unknown query op {op!r}", path=_where(path))
    if node.key == "arg":
        args = [_field(op, obj, "arg", path)]
    else:
        args = obj.get("args")
        if not isinstance(args, list) or len(args) < 2:
            raise ParseError(f"{op!r} needs an args list of at least 2",
                             path=_where(path))
    depth += max(len(args) - 1, 1)
    if depth > MAX_QUERY_DEPTH:
        raise ParseError(TOO_DEEP, path=_where(path))
    return node(*[from_json(a, (path, node, i), depth)
                  for i, a in enumerate(args)])


# ---------------------------------------------------------------------------
# Type checking and evaluation


def type_check(e: QueryExpr, env: Env, path="query"
               ) -> tuple[Carrier, Carrier]:
    """Source and target carriers of the expression, or an error located
    by `_where(path)`.  A pid and a projection take theirs from what
    evaluation reads (`tables.row_carrier`, `_proj_map`), and a fork its
    target from `rel.pair_carrier`: products, so typing enumerates no row
    universe or pair carrier."""
    if isinstance(e, RelRef):
        if e.name not in env.rels:
            raise QueryTypeError(f"unbound relation {e.name!r}",
                                 _where(path))
        r = env.rels[e.name]
        return r.source, r.target
    if isinstance(e, (Pid, Proj)):
        is_pid = isinstance(e, Pid)
        name = e.table if is_pid else e.scheme
        if name not in env.tables:
            raise QueryTypeError(f"unbound table {name!r}", _where(path))
        scheme = env.tables[name].scheme
        if is_pid:
            return (tables.row_carrier(scheme),) * 2
        try:  # an unknown attribute, located here
            return _proj_map(scheme, e.attrs)[:2]
        except RelfdError as err:
            raise QueryTypeError(str(err), _where(path)) from None
    s, t = type_check(e.args[0], env, (path, e, 0))
    if isinstance(e, Converse):
        return t, s
    if isinstance(e, Kernel):
        return s, s
    for i, a in enumerate(e.args[1:], start=1):
        rs, rt = type_check(a, env, (path, e, i))
        if isinstance(e, Compose):
            if rt != s:
                raise QueryTypeError(
                    f"compose needs matching middle carrier, got {rt.name!r} "
                    f"then {s.name!r}", _where(path))
            s = rs
        elif isinstance(e, UnionOp):
            if (s, t) != (rs, rt):
                raise QueryTypeError(
                    "union operands over different carriers", _where(path))
        else:
            if s != rs:
                raise QueryTypeError("fork operands over different sources",
                                     _where(path))
            t = rel.pair_carrier(t, rt)
    return s, t


def eval_query(e: QueryExpr, env: Env) -> Rel:
    """Bottom-up evaluation; the expression must type-check first."""
    type_check(e, env)
    return _eval(e, env)


def _proj_map(scheme: tables.Scheme, attrs: frozenset) -> tuple:
    """The row universe of the scheme, the sub-row carrier of `attrs` and
    the map from a row to its sub-row, kept on the scheme by `attrs`."""
    maps = scheme.proj_maps
    if attrs not in maps:
        names = scheme.select(attrs)
        at = [scheme.positions[n] for n in names]
        apply = (itemgetter(*at) if len(at) > 1  # a slice keeps a 1-tuple
                 else itemgetter(slice(at[0], at[0] + 1) if at else slice(0)))
        maps[attrs] = scheme.universe, (
            scheme.universe if names == scheme.names
            else tables.row_product(scheme, names)), apply
    return maps[attrs]


def _is_converse_proj(x) -> bool:
    return isinstance(x, Converse) and isinstance(x.args[0], Proj)


def _eval(e: QueryExpr, env: Env) -> Rel:
    """The relation the typed expression denotes.  A chain's kernels are
    unfolded, its ``p . p~`` dropped by `_cancel`, its factors built by
    `_absorb` and composed by `_eval_chain`; a chain that cancels whole
    is the identity on its first projection's target.  A lone kernel or
    projection is a chain of one factor."""
    if isinstance(e, RelRef):
        return env.rels[e.name]
    if isinstance(e, Pid):
        return tables.pid(env.tables[e.table])
    if isinstance(e, Converse):
        return rel.converse(_eval(e.args[0], env))
    if isinstance(e, (Compose, Kernel, Proj)):  # alone, a 1-factor chain
        items: list = []
        for item in e.args if isinstance(e, Compose) else (e,):
            if not isinstance(item, Kernel):
                items.append(item)
                continue
            a = item.args[0]
            if isinstance(a, Proj):
                items += [Converse(a), a]
            elif _is_converse_proj(a):
                items += [a.args[0], a]
            else:  # any other argument is evaluated once
                r = _eval(a, env)
                items += [rel.converse(r), r]
        kept = _cancel(items, env)
        if kept:
            return _eval_chain(_absorb(kept, env))
        p = items[0]
        return rel.identity(_proj_map(env.tables[p.scheme].scheme,
                                      p.attrs)[1])
    op = rel.union if isinstance(e, UnionOp) else rel.fork
    return functools.reduce(op, [_eval(a, env) for a in e.args])


def _cancel(items: Sequence, env: Env) -> list:
    """The chain items, query nodes or relations, without each adjacent
    ``p . p~`` of one projection p over a non-empty row universe, where
    it is the identity: a stack walk, so nested pairs go too."""
    kept: list = []
    for x in items:
        top = kept[-1] if kept else None
        if (isinstance(top, Proj) and isinstance(x, Converse)
                and x.args[0] == top
                and len(tables.row_carrier(env.tables[top.scheme]))):
            kept.pop()
        else:
            kept.append(x)
    return kept


def _absorb(items: Sequence, env: Env) -> list[Rel]:
    """The chain items as relations.  A projection p is built as the
    pairs ``(r, p(r))``: over the stored rows S of a pid directly right
    of it, ``p . pid = p|S``, and over every row of the universe
    otherwise; a converse projection directly right of a pid is
    ``pid . p~ = (p|S)~``, built as the pairs ``(p(r), r)``; a pid with
    either neighbour is dropped.  Any other item is evaluated on its
    own."""
    factors = []
    for left, x, right in zip([None, *items], items, [*items[1:], None]):
        if isinstance(x, Pid):
            if not (isinstance(left, Proj) or _is_converse_proj(right)):
                factors.append(tables.pid(env.tables[x.table]))
        elif isinstance(x, Proj):
            universe, sub, apply = _proj_map(env.tables[x.scheme].scheme,
                                             x.attrs)
            rows = (env.tables[right.table].rows if isinstance(right, Pid)
                    else universe.elements)
            factors.append(Rel(universe, sub,
                               frozenset(zip(rows, map(apply, rows)))))
        elif isinstance(left, Pid) and _is_converse_proj(x):
            p = x.args[0]
            universe, sub, apply = _proj_map(env.tables[p.scheme].scheme,
                                             p.attrs)
            rows = env.tables[left.table].rows
            factors.append(Rel(sub, universe,
                               frozenset(zip(map(apply, rows), rows))))
        else:
            factors.append(x if isinstance(x, Rel) else _eval(x, env))
    return factors


def _eval_chain(factors: Sequence[Rel]) -> Rel:
    """``factors[0] . factors[1] . ...`` composed in the association that
    `_plan` picks from their sizes."""
    split = _plan([(len(x.source), len(x.target), len(x.pairs))
                   for x in factors])
    return _compose_split(factors, split, 0, len(factors) - 1)


def _plan(ends: Sequence[tuple[int, int, int]]) -> list[int]:
    """The split table of a chain of factors with these source and target
    sizes and pair counts: the product of factors i to j splits after
    factor ``split[i * n + j]``, in the association whose estimated
    intermediate pair counts sum least; ties go to the leftmost split.
    Each span's estimated size and least cost sit at the same place of
    two more flat lists."""
    n = len(ends)
    size = [0.0] * (n * n)
    cost = [0.0] * (n * n)
    split = [0] * (n * n)
    for i, x in enumerate(ends):
        size[i * n + i] = float(x[2])
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            row, cap, best = i * n, ends[j][0] * ends[i][1], float("inf")
            for k in range(i, j):
                mid, right = ends[k][0], (k + 1) * n + j
                est = size[row + k] * size[right] / mid if mid else 0.0
                if est > cap:
                    est = cap
                total = cost[row + k] + cost[right] + est
                if total < best:
                    best, at, at_size = total, k, est
            cost[row + j], split[row + j], size[row + j] = best, at, at_size
    return split


def _compose_split(factors: Sequence[Rel], split: list, i: int, j: int) -> Rel:
    """The product of ``factors[i:j+1]`` in the association of `split`."""
    if i == j:
        return factors[i]
    k = split[i * len(factors) + j]
    return rel.compose(_compose_split(factors, split, i, k),
                       _compose_split(factors, split, k + 1, j))


# ---------------------------------------------------------------------------
# Self-join elimination


def _match_window(chain: Sequence[QueryExpr], i: int,
                  fds: Sequence[AttrFd], fired: list
                  ) -> Optional[list[QueryExpr]]:
    """Replacement for chain[i:i+5] when it is an eliminable self-join; a
    fired window is appended to `fired` as ``(table, f, g, h)``, the
    attribute sets of its projections."""
    if i + 5 > len(chain):
        return None
    g, p1, kf, p2, hc = chain[i:i + 5]
    if not (isinstance(g, Proj) and isinstance(p1, Pid)
            and isinstance(kf, Kernel) and isinstance(kf.args[0], Proj)
            and isinstance(p2, Pid) and isinstance(hc, Converse)
            and isinstance(hc.args[0], Proj)):
        return None
    f, h = kf.args[0], hc.args[0]
    name = p1.table
    if (p2.table != name or g.scheme != name or f.scheme != name
            or h.scheme != name):
        return None
    closed = attr_closure(fds, f.attrs)
    if not (g.attrs <= closed or h.attrs <= closed):
        return None
    fired.append((name, f.attrs, g.attrs, h.attrs))
    return [g, p1, hc]


def _rewrite_once(e: QueryExpr, fds: Sequence[AttrFd], fired: list
                  ) -> QueryExpr:
    """One leftmost-innermost pass that normalizes each node on its
    rewritten operands, then matches its windows; appends what fired."""
    if not e.args:
        return e
    args = [_rewrite_once(a, fds, fired) for a in e.args]
    if isinstance(e, Converse) and isinstance(args[0], Pid):
        return args[0]
    if isinstance(e, Compose):
        args = [a for i, a in enumerate(args)
                if not (i and isinstance(a, Pid) and args[i - 1] == a)]
        if len(args) == 1:
            return args[0]
        i = 0
        while i < len(args):
            replacement = _match_window(args, i, fds, fired)
            if replacement is not None:
                args[i:i + 5] = replacement
            else:
                i += 1
    return type(e)(*args)


def rewrite_selfjoin(e: QueryExpr, fds: Sequence[AttrFd],
                     fired: Optional[list] = None) -> QueryExpr:
    """Eliminate dependency-redundant self-joins; unchanged when none match.

    A composition window ``g . pid(M) . kernel(f) . pid(M) . h~`` over one
    table, with f, g, h projections of that table's scheme, collapses to
    ``g . pid(M) . h~`` whenever ``f -> g`` or ``f -> h`` is derivable from
    `fds`.  Matching runs modulo the partial-identity normalizations (a
    converse of a pid is the pid, adjacent equal pids merge, a one-factor
    chain is its factor), in one leftmost-innermost pass that applies them
    to each node on its rewritten operands before matching its windows.
    Each window that fires is appended to `fired`, when given, as
    ``(table, f, g, h)``: the table's name and the attribute sets of the
    three projections.

    One pass is the fixpoint.  A collapsed window starts, as before, with
    the bare projection g, and a window starting 1-4 places earlier would
    need a pid, kernel, pid or converse in g's place; the scan resumes at
    g, and operands are rewritten before their parent.  A collapse turns
    no node into a pid and leaves the factors ``g . pid(M) . h~`` in its
    chain, so it makes no converse of a pid, no adjacent equal pids and
    no one-factor chain: a node normalized on its rewritten operands stays
    normal, and a second pass would change nothing.
    """
    fired = [] if fired is None else fired
    start = len(fired)
    out = _rewrite_once(e, fds, fired)
    return out if len(fired) > start else e


def count_pid_nodes(e: QueryExpr) -> int:
    return isinstance(e, Pid) + sum(count_pid_nodes(a) for a in e.args)


def table_refs(e: QueryExpr) -> set:
    """Names of the tables the expression's pids and projections read."""
    if isinstance(e, Pid):
        return {e.table}
    if isinstance(e, Proj):
        return {e.scheme}
    return set().union(*map(table_refs, e.args))


def proj_attrs(e: QueryExpr) -> set:
    """The attributes the expression's projections name."""
    if isinstance(e, Proj):
        return set(e.attrs)
    return set().union(*map(proj_attrs, e.args))


# ---------------------------------------------------------------------------
# Rewrite verification


class EquivResult(Frozen):
    __slots__ = _fields = ("equal", "witness")

    def __init__(self, equal: bool,
                 witness: Optional[tuple[Value, Value]] = None):
        super().__init__(equal, witness)

    def __bool__(self) -> bool:
        return self.equal


def _type_pair(e1: QueryExpr, e2: QueryExpr, env: Env) -> tuple:
    c1 = type_check(e1, env)
    c2 = type_check(e2, env)
    if c1 != c2:
        raise CarrierMismatchError(
            f"expressions type to different carriers: "
            f"({c1[0].name} -> {c1[1].name}) vs ({c2[0].name} -> {c2[1].name})")
    return c1


def discharged(fired: Sequence[tuple], env: Env) -> bool:
    """Whether every fired window's rewrite holds on its table by typing:
    ``f -> g`` or ``f -> h`` holds on the stored rows.

    The window ``g . pid . ker f . pid . h~`` relates ``h(r2)`` to
    ``g(r1)`` for stored rows r1, r2 with ``f(r1) = f(r2)``.  Either FD
    makes each such pair come from one row, so the window equals
    ``g . pid . h~`` on that table; every operator maps equal arguments to
    equal results, so the whole query equals its rewrite.  The query must
    type first, so each window names only attributes of its table.
    """
    for name, f, g, h in fired:
        table = env.tables[name]
        if not any(satisfies_refinement(
                table.rows, *fd_positions(table.scheme, AttrFd(f, y)))
                for y in (g, h)):
            return False
    return True


def _compare(e1: QueryExpr, e2: QueryExpr, env: Env) -> EquivResult:
    """Evaluate two expressions of one type; report the first differing
    pair if any."""
    r1 = _eval(e1, env)
    r2 = _eval(e2, env)
    if r1.pairs == r2.pairs:
        return EquivResult(True)
    diff = r1.pairs ^ r2.pairs
    witness = min(diff, key=lambda p: (render_value(p[1]), render_value(p[0])))
    return EquivResult(False, witness)


def verify_equiv(e1: QueryExpr, e2: QueryExpr, env: Env) -> EquivResult:
    """Type both expressions, then evaluate and compare them."""
    _type_pair(e1, e2, env)
    return _compare(e1, e2, env)


def verify_rewrite(e: QueryExpr, rewritten: QueryExpr, fired: Sequence[tuple],
                   table: Table) -> EquivResult:
    """Whether `rewritten`, which fired `fired`, equals `e` on `table`,
    bound to the one table name `e` reads (a rewrite only removes leaves).
    `type_check` types each side once; then `discharged` settles it, or
    `_compare` evaluates both sides."""
    names = table_refs(e)
    if len(names) != 1:
        raise RelfdError(f"--table binds exactly one referenced table, "
                         f"query uses {sorted(names)}")
    env = Env(tables={names.pop(): table})
    _type_pair(e, rewritten, env)
    if discharged(fired, env):
        return EquivResult(True)
    return _compare(e, rewritten, env)


def type_header(e: QueryExpr, fds: Sequence[AttrFd]) -> None:
    """Type `e` as `verify_rewrite` would on a CSV holding only the header
    of the attributes that its projections and `fds` name, in name order,
    bound to every table name it reads."""
    names = sorted(mentioned_attrs(fds, proj_attrs(e)))
    header = Table(tables.Scheme(tuple((name, Carrier(name, ()))
                                       for name in names)), frozenset())
    type_check(e, Env(dict.fromkeys(table_refs(e), header)))
