"""Relational query IR: type checking, evaluation and self-join elimination.

Expressions are trees over composition, converse, kernel, union, fork,
projection functions, partial identities of named tables, and references to
named relations.  `eval_query` evaluates bottom-up against an environment of
tables and relations; `rewrite_selfjoin` removes the classical
"scan the same file twice through a kernel" shape whenever a supplied
dependency set proves it redundant, and `verify_equiv` confirms a rewrite by
evaluating both sides.

A composition chain is evaluated as one step.  Each kernel factor
``ker e`` is unfolded into the two factors ``e~ . e`` (the definition of
`rel.kernel`), so the kernel over a whole row universe is never built, and
the chain is associated by a matrix-chain dynamic program over estimated
pair counts: composing ``l`` with ``r`` through a middle carrier ``m`` is
estimated at ``|l| * |r| / |m|`` pairs, capped at ``|source| * |target|``.
Composition is associative, so the result does not depend on the order.

JSON wire form (one object per node):

    {"op": "compose", "args": [e1, e2, ...]}     # >= 2 args, folded left
    {"op": "converse", "arg": e}
    {"op": "kernel", "arg": e}
    {"op": "union", "args": [e1, e2]}
    {"op": "fork", "args": [e1, e2]}
    {"op": "proj", "scheme": "movies", "attrs": ["Title"]}
    {"op": "pid", "table": "movies"}
    {"op": "rel", "name": "R"}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from . import rel, tables
from .errors import CarrierMismatchError, ParseError, QueryTypeError
from .fd import AttrFd
from .infer import derive
from .rel import Carrier, Rel, Value, render_value
from .tables import Table


@dataclass(frozen=True)
class RelRef:
    name: str


@dataclass(frozen=True)
class Compose:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class Converse:
    child: "QueryExpr"


@dataclass(frozen=True)
class Kernel:
    child: "QueryExpr"


@dataclass(frozen=True)
class Proj:
    scheme: str  # name of the table whose scheme is projected
    attrs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "attrs", frozenset(self.attrs))


@dataclass(frozen=True)
class Pid:
    table: str


@dataclass(frozen=True)
class UnionOp:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class Fork:
    left: "QueryExpr"
    right: "QueryExpr"


QueryExpr = Union[RelRef, Compose, Converse, Kernel, Proj, Pid, UnionOp, Fork]


@dataclass
class Env:
    tables: dict = field(default_factory=dict)
    rels: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# JSON wire form


def to_json(e: QueryExpr) -> dict:
    if isinstance(e, RelRef):
        return {"op": "rel", "name": e.name}
    if isinstance(e, Compose):
        return {"op": "compose", "args": [to_json(e.left), to_json(e.right)]}
    if isinstance(e, Converse):
        return {"op": "converse", "arg": to_json(e.child)}
    if isinstance(e, Kernel):
        return {"op": "kernel", "arg": to_json(e.child)}
    if isinstance(e, UnionOp):
        return {"op": "union", "args": [to_json(e.left), to_json(e.right)]}
    if isinstance(e, Fork):
        return {"op": "fork", "args": [to_json(e.left), to_json(e.right)]}
    if isinstance(e, Proj):
        return {"op": "proj", "scheme": e.scheme, "attrs": sorted(e.attrs)}
    if isinstance(e, Pid):
        return {"op": "pid", "table": e.table}
    raise TypeError(f"not a query node: {e!r}")


def _fold_args(op: str, obj: dict, node, path: str) -> QueryExpr:
    args = obj.get("args")
    if not isinstance(args, list) or len(args) < 2:
        raise ParseError(f"{op!r} needs an args list of at least 2",
                         path=path)
    out = from_json(args[0], f"{path}.{op}.args[0]")
    for i, a in enumerate(args[1:], start=1):
        out = node(out, from_json(a, f"{path}.{op}.args[{i}]"))
    return out


def _field(op: str, obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"{op!r} node lacks its {key!r} field", path=path)
    return obj[key]


def from_json(obj: dict, path: str = "query") -> QueryExpr:
    """The expression a JSON node encodes; a malformed node raises a
    `ParseError` located by its path, e.g. ``query.compose.args[1]``."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ParseError("query node must be an object with an 'op' field",
                         path=path)
    op = obj["op"]
    if op == "rel":
        return RelRef(str(_field(op, obj, "name", path)))
    if op == "compose":
        return _fold_args(op, obj, Compose, path)
    if op == "union":
        return _fold_args(op, obj, UnionOp, path)
    if op == "fork":
        return _fold_args(op, obj, Fork, path)
    if op == "converse":
        return Converse(from_json(_field(op, obj, "arg", path),
                                  f"{path}.converse.arg"))
    if op == "kernel":
        return Kernel(from_json(_field(op, obj, "arg", path),
                                f"{path}.kernel.arg"))
    if op == "proj":
        attrs = obj.get("attrs")
        if not isinstance(attrs, list) or not attrs:
            raise ParseError("'proj' needs a non-empty attrs list", path=path)
        if not all(isinstance(a, str) for a in attrs):
            raise ParseError("'proj' attrs must all be strings", path=path)
        return Proj(str(_field(op, obj, "scheme", path)), frozenset(attrs))
    if op == "pid":
        return Pid(str(_field(op, obj, "table", path)))
    raise ParseError(f"unknown query op {op!r}", path=path)


# ---------------------------------------------------------------------------
# Type checking and evaluation


def _table(env: Env, name: str, path: str) -> Table:
    if name not in env.tables:
        raise QueryTypeError(f"unbound table {name!r}", path)
    return env.tables[name]


def type_check(e: QueryExpr, env: Env, path: str = "query"
               ) -> tuple[Carrier, Carrier]:
    """Source and target carriers of the expression, or a located error."""
    if isinstance(e, RelRef):
        if e.name not in env.rels:
            raise QueryTypeError(f"unbound relation {e.name!r}", path)
        r = env.rels[e.name]
        return r.source, r.target
    if isinstance(e, Pid):
        c = tables.row_carrier(_table(env, e.table, path))
        return c, c
    if isinstance(e, Proj):
        t = _table(env, e.scheme, path)
        try:
            return (tables.row_carrier(t),
                    tables.sub_row_carrier(t.scheme, e.attrs))
        except Exception as err:
            raise QueryTypeError(str(err), path) from None
    if isinstance(e, Converse):
        s, t = type_check(e.child, env, path + ".converse.arg")
        return t, s
    if isinstance(e, Kernel):
        s, _ = type_check(e.child, env, path + ".kernel.arg")
        return s, s
    if isinstance(e, Compose):
        ls, lt = type_check(e.left, env, path + ".compose.args[0]")
        rs, rt = type_check(e.right, env, path + ".compose.args[1]")
        if rt != ls:
            raise QueryTypeError(
                f"compose needs matching middle carrier, got {rt.name!r} "
                f"then {ls.name!r}", path)
        return rs, lt
    if isinstance(e, UnionOp):
        ls, lt = type_check(e.left, env, path + ".union.args[0]")
        rs, rt = type_check(e.right, env, path + ".union.args[1]")
        if (ls, lt) != (rs, rt):
            raise QueryTypeError("union operands over different carriers",
                                 path)
        return ls, lt
    if isinstance(e, Fork):
        ls, lt = type_check(e.left, env, path + ".fork.args[0]")
        rs, rt = type_check(e.right, env, path + ".fork.args[1]")
        if ls != rs:
            raise QueryTypeError("fork operands over different sources", path)
        return ls, rel.pair_carrier(lt, rt)
    raise QueryTypeError(f"not a query node: {e!r}", path)


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
        return rel.converse(_eval(e.child, env))
    if isinstance(e, Kernel):
        return rel.kernel(_eval(e.child, env))
    if isinstance(e, Compose):
        factors: list[Rel] = []
        for item in _flatten(e):
            if isinstance(item, Kernel):
                r = _eval(item.child, env)
                factors += [rel.converse(r), r]
            else:
                factors.append(_eval(item, env))
        return _eval_chain(factors)
    if isinstance(e, UnionOp):
        return rel.union(_eval(e.left, env), _eval(e.right, env))
    if isinstance(e, Fork):
        return rel.fork(_eval(e.left, env), _eval(e.right, env))
    raise TypeError(f"not a query node: {e!r}")


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


def _flatten(e: QueryExpr) -> list[QueryExpr]:
    if isinstance(e, Compose):
        return _flatten(e.left) + _flatten(e.right)
    return [e]


def _rebuild(chain: Sequence[QueryExpr]) -> QueryExpr:
    out = chain[0]
    for item in chain[1:]:
        out = Compose(out, item)
    return out


def _normalize(e: QueryExpr) -> QueryExpr:
    """Partial-identity identities: drop converses of pids and merge
    adjacent equal pids inside composition chains."""
    if isinstance(e, Converse):
        child = _normalize(e.child)
        if isinstance(child, Pid):
            return child
        return Converse(child)
    if isinstance(e, Kernel):
        return Kernel(_normalize(e.child))
    if isinstance(e, UnionOp):
        return UnionOp(_normalize(e.left), _normalize(e.right))
    if isinstance(e, Fork):
        return Fork(_normalize(e.left), _normalize(e.right))
    if isinstance(e, Compose):
        chain = [_normalize(item) for item in _flatten(e)]
        merged: list[QueryExpr] = []
        for item in chain:
            if (merged and isinstance(item, Pid)
                    and merged[-1] == item):
                continue
            merged.append(item)
        return _rebuild(merged)
    return e


def _match_window(chain: Sequence[QueryExpr], i: int,
                  fds: Sequence[AttrFd]) -> Optional[list[QueryExpr]]:
    """Replacement for chain[i:i+5] when it is an eliminable self-join."""
    if i + 5 > len(chain):
        return None
    g, p1, kf, p2, hc = chain[i:i + 5]
    if not (isinstance(g, Proj) and isinstance(p1, Pid)
            and isinstance(kf, Kernel) and isinstance(kf.child, Proj)
            and isinstance(p2, Pid) and isinstance(hc, Converse)
            and isinstance(hc.child, Proj)):
        return None
    f = kf.child
    h = hc.child
    name = p1.table
    if (p2.table != name or g.scheme != name or f.scheme != name
            or h.scheme != name):
        return None
    enabled = (derive(list(fds), AttrFd(f.attrs, g.attrs)) is not None
               or derive(list(fds), AttrFd(f.attrs, h.attrs)) is not None)
    if not enabled:
        return None
    return [g, p1, hc]


def _rewrite_once(e: QueryExpr, fds: Sequence[AttrFd]
                  ) -> tuple[QueryExpr, bool]:
    """One leftmost-innermost pass; reports whether anything fired."""
    if isinstance(e, Converse):
        child, fired = _rewrite_once(e.child, fds)
        return Converse(child), fired
    if isinstance(e, Kernel):
        child, fired = _rewrite_once(e.child, fds)
        return Kernel(child), fired
    if isinstance(e, UnionOp):
        left, f1 = _rewrite_once(e.left, fds)
        right, f2 = _rewrite_once(e.right, fds)
        return UnionOp(left, right), f1 or f2
    if isinstance(e, Fork):
        left, f1 = _rewrite_once(e.left, fds)
        right, f2 = _rewrite_once(e.right, fds)
        return Fork(left, right), f1 or f2
    if isinstance(e, Compose):
        chain = []
        fired = False
        for item in _flatten(e):
            sub, f = _rewrite_once(item, fds)
            fired = fired or f
            chain.append(sub)
        i = 0
        while i < len(chain):
            replacement = _match_window(chain, i, fds)
            if replacement is not None:
                chain[i:i + 5] = replacement
                fired = True
            else:
                i += 1
        return _rebuild(chain), fired
    return e, False


REWRITE_STEP_CAP = 100


def rewrite_selfjoin(e: QueryExpr, fds: Sequence[AttrFd]) -> QueryExpr:
    """Eliminate dependency-redundant self-joins; unchanged when none match.

    A composition window ``g . pid(M) . kernel(f) . pid(M) . h~`` over one
    table, with f, g, h projections of that table's scheme, collapses to
    ``g . pid(M) . h~`` whenever ``f -> g`` or ``f -> h`` is derivable from
    `fds`.  Matching runs modulo the partial-identity normalizations, to a
    fixpoint, leftmost-innermost.
    """
    current = _normalize(e)
    fired_ever = False
    for _ in range(REWRITE_STEP_CAP):
        current = _normalize(current)
        current, fired = _rewrite_once(current, fds)
        fired_ever = fired_ever or fired
        if not fired:
            break
    return current if fired_ever else e


def count_pid_nodes(e: QueryExpr) -> int:
    if isinstance(e, Pid):
        return 1
    if isinstance(e, (Converse, Kernel)):
        return count_pid_nodes(e.child)
    if isinstance(e, (Compose, UnionOp, Fork)):
        return count_pid_nodes(e.left) + count_pid_nodes(e.right)
    return 0


# ---------------------------------------------------------------------------
# Rewrite verification


@dataclass(frozen=True)
class EquivResult:
    equal: bool
    witness: Optional[tuple[Value, Value]] = None

    def __bool__(self) -> bool:
        return self.equal


def verify_equiv(e1: QueryExpr, e2: QueryExpr, env: Env) -> EquivResult:
    """Evaluate both expressions; report the first differing pair if any."""
    c1 = type_check(e1, env)
    c2 = type_check(e2, env)
    if c1 != c2:
        raise CarrierMismatchError(
            f"expressions type to different carriers: "
            f"({c1[0].name} -> {c1[1].name}) vs ({c2[0].name} -> {c2[1].name})")
    r1 = _eval(e1, env)
    r2 = _eval(e2, env)
    if r1.pairs == r2.pairs:
        return EquivResult(True)
    diff = r1.pairs ^ r2.pairs
    witness = min(diff, key=lambda p: (render_value(p[1]), render_value(p[0])))
    return EquivResult(False, witness)
