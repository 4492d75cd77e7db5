"""Relational query IR: type checking, evaluation and self-join elimination.

Expressions are trees over composition, converse, kernel, union, fork,
projection functions, partial identities of named tables, and references to
named relations.  Every node has an `args` tuple holding its operands in
wire order; the leaves `Proj`, `Pid` and `RelRef` have none.  A composition
chain is one n-ary `Compose` node: building a `Compose` splices in any
`Compose` among its factors.  `eval_query` evaluates bottom-up against an
environment of tables and relations; `rewrite_selfjoin` removes the
classical "scan the same file twice through a kernel" shape whenever a
supplied dependency set proves it redundant, in one pass.

`verify_rewrite` confirms a rewrite on a table by typing first.  Each
fired window is enabled by an FD, ``f -> g`` or ``f -> h``; when one holds
on the stored rows (`discharged`, one linear pass per FD), the window
equals its rewrite there, and so does the whole query.  Only when typing
cannot settle it does `verify_equiv` evaluate both sides; it alone reports
a counterexample, the first differing pair.

A composition chain is evaluated as one step.  Each kernel factor
``ker e`` is unfolded into the two factors ``e~ . e`` (the definition of
`rel.kernel`), so the kernel over a whole row universe is never built, and
the chain is associated by a matrix-chain dynamic program over estimated
pair counts: composing ``l`` with ``r`` through a middle carrier ``m`` is
estimated at ``|l| * |r| / |m|`` pairs, capped at ``|source| * |target|``.
Composition is associative, so the result does not depend on the order.

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
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from . import rel, tables
from .errors import (CarrierMismatchError, ParseError, QueryTypeError,
                     RelfdError)
from .fd import AttrFd, fd_positions, satisfies_refinement
from .infer import derive
from .rel import Carrier, Rel, Value, render_value
from .tables import Table

# Nesting bound of `from_json`, well below the interpreter's recursion limit.
MAX_QUERY_DEPTH = 100
TOO_DEEP = f"query nests deeper than {MAX_QUERY_DEPTH} levels"


@dataclass(frozen=True)
class RelRef:
    name: str
    args = ()


@dataclass(frozen=True)
class Proj:
    scheme: str  # name of the table whose scheme is projected
    attrs: frozenset
    args = ()

    def __post_init__(self):
        object.__setattr__(self, "attrs", frozenset(self.attrs))


@dataclass(frozen=True)
class Pid:
    table: str
    args = ()


@dataclass(frozen=True, init=False)
class _Inner:
    """An inner node: `op` names it on the wire, and `key` is the wire
    field of its operands, ``"arg"`` for one or ``"args"`` for a list."""

    args: tuple
    key = "args"

    def __init__(self, *args: "QueryExpr"):
        object.__setattr__(self, "args", args)


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


@dataclass
class Env:
    tables: dict = field(default_factory=dict)
    rels: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# JSON wire form


def _arg_path(e, path: str, i: int) -> str:
    if e.key == "arg":
        return f"{path}.{e.op}.arg"
    return f"{path}.{e.op}.args[{i}]"


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


def _field(op: str, obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"{op!r} node lacks its {key!r} field", path=path)
    return obj[key]


def from_json(obj: dict, path: str = "query", depth: int = 0) -> QueryExpr:
    """The expression a JSON node encodes; a malformed node raises a
    `ParseError` located by its path, e.g. ``query.compose.args[1]``.
    `depth` is the node's level in the left-nested wire form."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ParseError("query node must be an object with an 'op' field",
                         path=path)
    op = obj["op"]
    if op == "rel":
        return RelRef(str(_field(op, obj, "name", path)))
    if op == "proj":
        attrs = obj.get("attrs")
        if not isinstance(attrs, list) or not attrs:
            raise ParseError("'proj' needs a non-empty attrs list", path=path)
        if not all(isinstance(a, str) for a in attrs):
            raise ParseError("'proj' attrs must all be strings", path=path)
        return Proj(str(_field(op, obj, "scheme", path)), frozenset(attrs))
    if op == "pid":
        return Pid(str(_field(op, obj, "table", path)))
    node = next((c for c in _INNER_TYPES if c.op == op), None)
    if node is None:
        raise ParseError(f"unknown query op {op!r}", path=path)
    if node.key == "arg":
        args = [_field(op, obj, "arg", path)]
    else:
        args = obj.get("args")
        if not isinstance(args, list) or len(args) < 2:
            raise ParseError(f"{op!r} needs an args list of at least 2",
                             path=path)
    depth += max(len(args) - 1, 1)
    if depth > MAX_QUERY_DEPTH:
        raise ParseError(TOO_DEEP, path=path)
    return node(*[from_json(a, _arg_path(node, path, i), depth)
                  for i, a in enumerate(args)])


# ---------------------------------------------------------------------------
# Type checking and evaluation


def _table(env: Env, name: str, path: str) -> Table:
    if name not in env.tables:
        raise QueryTypeError(f"unbound table {name!r}", path)
    return env.tables[name]


def _unbound(e: RelRef, path: str) -> QueryTypeError:
    return QueryTypeError(f"unbound relation {e.name!r}", path)


def reject_relations(e: QueryExpr, path: str = "query") -> None:
    """Raise the error `type_check` gives the first `rel` node, in its
    order, in an environment that binds no relation."""
    if isinstance(e, RelRef):
        raise _unbound(e, path)
    for i, a in enumerate(e.args):
        reject_relations(a, _arg_path(e, path, i))


def type_check(e: QueryExpr, env: Env, path: str = "query"
               ) -> tuple[Carrier, Carrier]:
    """Source and target carriers of the expression, or a located error."""
    if isinstance(e, RelRef):
        if e.name not in env.rels:
            raise _unbound(e, path)
        r = env.rels[e.name]
        return r.source, r.target
    if isinstance(e, (Pid, Proj)):
        t = _table(env, e.table if isinstance(e, Pid) else e.scheme, path)
        try:
            c = tables.row_carrier(t)
            if isinstance(e, Pid):
                return c, c
            return c, tables.sub_row_carrier(t.scheme, e.attrs)
        except RelfdError as err:
            raise QueryTypeError(str(err), path) from None
    s, t = type_check(e.args[0], env, _arg_path(e, path, 0))
    if isinstance(e, Converse):
        return t, s
    if isinstance(e, Kernel):
        return s, s
    for i, a in enumerate(e.args[1:], start=1):
        rs, rt = type_check(a, env, _arg_path(e, path, i))
        if isinstance(e, Compose):
            if rt != s:
                raise QueryTypeError(
                    f"compose needs matching middle carrier, got {rt.name!r} "
                    f"then {s.name!r}", path)
            s = rs
        elif isinstance(e, UnionOp):
            if (s, t) != (rs, rt):
                raise QueryTypeError(
                    "union operands over different carriers", path)
        else:
            if s != rs:
                raise QueryTypeError("fork operands over different sources",
                                     path)
            t = rel.pair_carrier(t, rt)
    return s, t


def eval_query(e: QueryExpr, env: Env) -> Rel:
    """Bottom-up evaluation; the expression must type-check first."""
    type_check(e, env)
    return _eval(e, env)


def _eval(e: QueryExpr, env: Env) -> Rel:
    if isinstance(e, RelRef):
        return env.rels[e.name]
    if isinstance(e, Pid):
        return tables.pid(env.tables[e.table])
    if isinstance(e, Proj):
        return tables.proj_fn(env.tables[e.scheme].scheme, e.attrs)
    if isinstance(e, Converse):
        return rel.converse(_eval(e.args[0], env))
    if isinstance(e, Kernel):
        return rel.kernel(_eval(e.args[0], env))
    if isinstance(e, Compose):
        factors: list[Rel] = []
        for item in e.args:
            if isinstance(item, Kernel):
                r = _eval(item.args[0], env)
                factors += [rel.converse(r), r]
            else:
                factors.append(_eval(item, env))
        return _eval_chain(factors)
    op = rel.union if isinstance(e, UnionOp) else rel.fork
    return functools.reduce(op, [_eval(a, env) for a in e.args])


def _eval_chain(factors: Sequence[Rel]) -> Rel:
    """``factors[0] . factors[1] . ...`` composed in the association whose
    estimated intermediate pair counts sum least; ties go to the leftmost
    split.  The estimates read only pair counts and carrier sizes."""
    n = len(factors)
    size = {(i, i): float(len(r.pairs)) for i, r in enumerate(factors)}
    cost = {(i, i): 0.0 for i in range(n)}
    split: dict = {}
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            cap = len(factors[j].source) * len(factors[i].target)
            options = []
            for k in range(i, j):
                mid = len(factors[k].source)
                est = (min(size[i, k] * size[k + 1, j] / mid, cap)
                       if mid else 0.0)
                options.append((cost[i, k] + cost[k + 1, j] + est, k, est))
            cost[i, j], split[i, j], size[i, j] = min(options)
    return _compose_split(factors, split, 0, n - 1)


def _compose_split(factors: Sequence[Rel], split: dict, i: int, j: int
                   ) -> Rel:
    if i == j:
        return factors[i]
    k = split[i, j]
    return rel.compose(_compose_split(factors, split, i, k),
                       _compose_split(factors, split, k + 1, j))


# ---------------------------------------------------------------------------
# Self-join elimination


def _normalize(e: QueryExpr) -> QueryExpr:
    """Partial-identity identities: drop converses of pids and merge
    adjacent equal pids inside composition chains."""
    if not e.args:
        return e
    args = [_normalize(a) for a in e.args]
    if isinstance(e, Converse) and isinstance(args[0], Pid):
        return args[0]
    if isinstance(e, Compose):
        args = [a for i, a in enumerate(args)
                if not (i and isinstance(a, Pid) and args[i - 1] == a)]
        if len(args) == 1:
            return args[0]
    return type(e)(*args)


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
    enabled = (derive(list(fds), AttrFd(f.attrs, g.attrs)) is not None
               or derive(list(fds), AttrFd(f.attrs, h.attrs)) is not None)
    if not enabled:
        return None
    fired.append((name, f.attrs, g.attrs, h.attrs))
    return [g, p1, hc]


def _rewrite_once(e: QueryExpr, fds: Sequence[AttrFd], fired: list
                  ) -> QueryExpr:
    """One leftmost-innermost pass; appends what fired to `fired`."""
    if not e.args:
        return e
    args = [_rewrite_once(a, fds, fired) for a in e.args]
    if isinstance(e, Compose):
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
    `fds`.  Matching runs modulo the partial-identity normalizations, in
    one leftmost-innermost pass.  Each window that fires is appended to
    `fired`, when given, as ``(table, f, g, h)``: the table's name and the
    attribute sets of the three projections.

    One pass is the fixpoint.  A collapsed window starts, as before, with
    the bare projection g, and a window starting 1-4 places earlier would
    need a pid, kernel, pid or converse in g's place; the scan resumes at
    g, and operands are rewritten before their parent.  A collapse makes
    no adjacent equal pids, no converse of a pid and no one-factor chain,
    so normalizing again would change nothing either.
    """
    fired = [] if fired is None else fired
    start = len(fired)
    out = _rewrite_once(_normalize(e), fds, fired)
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


# ---------------------------------------------------------------------------
# Rewrite verification


@dataclass(frozen=True)
class EquivResult:
    equal: bool
    witness: Optional[tuple[Value, Value]] = None

    def __bool__(self) -> bool:
        return self.equal


def type_check_pair(e1: QueryExpr, e2: QueryExpr, env: Env
                    ) -> tuple[Carrier, Carrier]:
    """The carriers both expressions type to; a `QueryTypeError` locates
    an ill-typed one, and a `CarrierMismatchError` reports two types."""
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
    equal results, so the whole query equals its rewrite.  False means
    only that typing cannot settle it, as for a window naming an attribute
    outside the table's scheme: `type_check` locates that error.
    """
    for name, f, g, h in fired:
        table = env.tables[name]
        if not (f | g | h).issubset(table.scheme.names):
            return False
        if not any(satisfies_refinement(
                table.rows, *fd_positions(table.scheme, AttrFd(f, y)))
                for y in (g, h)):
            return False
    return True


def verify_equiv(e1: QueryExpr, e2: QueryExpr, env: Env) -> EquivResult:
    """Evaluate both expressions; report the first differing pair if any."""
    type_check_pair(e1, e2, env)
    r1 = _eval(e1, env)
    r2 = _eval(e2, env)
    if r1.pairs == r2.pairs:
        return EquivResult(True)
    diff = r1.pairs ^ r2.pairs
    witness = min(diff, key=lambda p: (render_value(p[1]), render_value(p[0])))
    return EquivResult(False, witness)


def verify_rewrite(e: QueryExpr, rewritten: QueryExpr, fired: Sequence[tuple],
                   table: Table) -> EquivResult:
    """Whether `rewritten`, which fired `fired`, equals `e` on `table`,
    bound to the one table name `e` reads (a rewrite only removes leaves).
    Typing settles it when `discharged` holds, else `verify_equiv`
    evaluates both sides; either way each side is type-checked once."""
    names = table_refs(e)
    if len(names) != 1:
        raise RelfdError(f"--table binds exactly one referenced table, "
                         f"query uses {sorted(names)}")
    env = Env(tables={names.pop(): table})
    if discharged(fired, env):
        type_check_pair(e, rewritten, env)
        return EquivResult(True)
    return verify_equiv(e, rewritten, env)
