import copy
import functools
import gc
import itertools
import json
import operator
import pickle
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from relfd import query, rel, tables
from relfd.errors import (CarrierMismatchError, ParseError, QueryTypeError,
                          RelfdError)
from relfd.fd import AttrFd, parse_fd
from relfd.infer import FIRING_LIMIT
from relfd.query import (MAX_QUERY_DEPTH, Compose, Converse, Env, Fork,
                         Kernel, Pid, Proj, RelRef, UnionOp, _rewrite_once,
                         _type_pair, count_pid_nodes, discharged, eval_query,
                         from_json, rewrite_selfjoin, to_json, type_check,
                         verify_equiv, verify_rewrite)
from relfd.rel import Atom, Carrier, Tup, identity
from relfd.tables import (Scheme, Table, parse_table_csv, pid, proj_fn,
                          row_carrier)

from conftest import FIXTURES, carrier, forbid_product_enumeration

TITLE_DIRECTOR = [parse_fd("Title -> Director")]


def movies_env(path="movies.csv"):
    table = parse_table_csv((FIXTURES / path).read_text())
    return Env(tables={"movies": table})


def movies_query():
    return from_json(json.loads((FIXTURES / "movies_query.json").read_text()))


def optimized_query():
    return Compose(Compose(Proj("movies", frozenset({"Director"})),
                           Pid("movies")),
                   Converse(Proj("movies", frozenset({"Actor"}))))


def sub(*names):
    return Tup(tuple(Atom(n) for n in names))


# ---------------------------------------------------------------------------
# wire form


def test_json_round_trip():
    e = movies_query()
    assert from_json(to_json(e)) == e
    e2 = UnionOp(Fork(RelRef("r"), RelRef("s")), Fork(RelRef("r"),
                                                      RelRef("s")))
    assert from_json(to_json(e2)) == e2


def test_json_nary_compose_folds_left():
    obj = {"op": "compose", "args": [{"op": "rel", "name": "a"},
                                     {"op": "rel", "name": "b"},
                                     {"op": "rel", "name": "c"}]}
    assert from_json(obj) == Compose(Compose(RelRef("a"), RelRef("b")),
                                     RelRef("c"))


def test_compose_splices_nested_chains_and_writes_them_left_nested():
    a, b, c, d = (RelRef(n) for n in "abcd")
    chain = Compose(a, b, c, d)
    assert chain.args == (a, b, c, d)
    assert Compose(Compose(a, b), Compose(c, d)) == chain
    assert Compose(a, Compose(b, Compose(c, d))) == chain
    assert to_json(chain) == to_json(Compose(Compose(Compose(a, b), c), d))
    assert Kernel(a) != Converse(a)
    assert UnionOp(a, b) != Fork(a, b)


def test_union_and_fork_keep_their_args_and_write_them_left_nested():
    leaves = [{"op": "rel", "name": n} for n in "abc"]
    for op, node in (("union", UnionOp), ("fork", Fork)):
        e = from_json({"op": op, "args": leaves})
        assert e == node(RelRef("a"), RelRef("b"), RelRef("c"))
        assert to_json(e) == {"op": op, "args": [
            {"op": op, "args": leaves[:2]}, leaves[2]]}


def test_json_depth_bound_accepts_the_bound_and_rejects_one_past():
    leaf = {"op": "pid", "table": "m"}

    def nest(n):
        obj = leaf
        for _ in range(n):
            obj = {"op": "converse", "arg": obj}
        return obj

    assert count_pid_nodes(from_json(nest(MAX_QUERY_DEPTH))) == 1
    with pytest.raises(ParseError) as err:
        from_json(nest(MAX_QUERY_DEPTH + 1))
    path = "query" + ".converse.arg" * MAX_QUERY_DEPTH
    assert err.value.path == path
    assert str(err.value) == (f"at {path}: query nests deeper than "
                              f"{MAX_QUERY_DEPTH} levels")
    # a chain of n factors is n - 1 levels deep as `to_json` writes it
    longest = [leaf] * (MAX_QUERY_DEPTH + 1)
    chain = from_json({"op": "compose", "args": longest})
    assert count_pid_nodes(chain) == MAX_QUERY_DEPTH + 1
    with pytest.raises(ParseError) as err:
        from_json({"op": "compose", "args": [leaf] * (MAX_QUERY_DEPTH + 2)})
    assert err.value.path == "query"


def test_json_rejects_malformed_nodes():
    with pytest.raises(ParseError):
        from_json({"op": "compose", "args": [{"op": "rel", "name": "a"}]})
    with pytest.raises(ParseError):
        from_json({"op": "proj", "scheme": "m", "attrs": []})
    with pytest.raises(ParseError):
        from_json({"op": "launch"})
    with pytest.raises(ParseError):
        from_json(["not", "a", "node"])


def test_json_errors_name_the_node_path():
    leaf = {"op": "pid", "table": "m"}
    cases = [
        ({"op": "launch"}, "query"),
        ({"op": "compose", "args": [leaf, leaf, {"op": "rel"}]},
         "query.compose.args[2]"),
        ({"op": "fork", "args": [leaf, {"op": "kernel", "arg": ["x"]}]},
         "query.fork.args[1].kernel.arg"),
        ({"op": "converse", "arg": {"op": "union", "args": [
            leaf, {"op": "proj", "scheme": "m", "attrs": []}]}},
         "query.converse.arg.union.args[1]"),
    ]
    for obj, path in cases:
        with pytest.raises(ParseError) as err:
            from_json(obj)
        assert err.value.path == path
        assert str(err.value).startswith(f"at {path}: ")


# ---------------------------------------------------------------------------
# type checking


def test_type_check_assigns_carriers():
    env = movies_env()
    src, tgt = type_check(movies_query(), env)
    rc = row_carrier(env.tables["movies"])
    assert src.name.startswith("rows(") and len(src) == 2  # Actor sub-rows
    assert len(tgt) == 2  # Director sub-rows
    assert type_check(Pid("movies"), env) == (rc, rc)


def test_type_check_reports_unbound_name_with_path():
    with pytest.raises(QueryTypeError) as err:
        type_check(Compose(RelRef("nope"), Pid("movies")), Env())
    assert "compose.args[0]" in str(err.value)
    assert "nope" in str(err.value)


def test_type_check_paths_inside_long_nodes_match_the_json():
    env = movies_env()
    pid, bad = {"op": "pid", "table": "movies"}, {"op": "rel", "name": "nope"}
    cases = [
        ({"op": "compose", "args": [pid, pid, bad]}, "query.compose.args[2]"),
        ({"op": "compose", "args": [bad, pid, pid]}, "query.compose.args[0]"),
        ({"op": "union", "args": [pid, pid, pid, bad]}, "query.union.args[3]"),
        ({"op": "fork", "args": [pid, pid, {"op": "converse", "arg": bad}]},
         "query.fork.args[2].converse.arg"),
    ]
    for obj, path in cases:
        with pytest.raises(QueryTypeError) as err:
            type_check(from_json(obj), env)
        assert err.value.path == path
        assert str(err.value) == f"at {path}: unbound relation 'nope'"


def test_type_check_lets_a_fault_in_the_table_bridge_through(monkeypatch):
    # only the bridge's input errors (an unknown attribute, a universe past
    # its bound) are type errors of the query
    def broken(*args, **kwargs):
        raise RuntimeError("broken bridge")

    monkeypatch.setattr(tables, "row_product", broken)
    with pytest.raises(RuntimeError, match="broken bridge"):
        type_check(Proj("movies", frozenset({"Title"})), movies_env())


def test_type_check_reports_carrier_mismatch_with_path():
    a, b = carrier("A", 2), carrier("B", 2)
    env = Env(rels={"r": rel.top(a, b), "s": rel.top(a, b)})
    with pytest.raises(QueryTypeError) as err:
        eval_query(Compose(RelRef("r"), RelRef("s")), env)
    assert "query" in err.value.path


# ---------------------------------------------------------------------------
# evaluation


def test_eval_movies_query_expected_pairs():
    env = movies_env()
    out = eval_query(movies_query(), env)
    assert out.pairs == frozenset({
        (sub("a1"), sub("d1")),
        (sub("a2"), sub("d1")),
        (sub("a1"), sub("d2")),
    })


def test_eval_compose_with_bound_identity():
    a, b = carrier("A", 2), carrier("B", 2)
    r = rel.top(a, b)
    env = Env(rels={"R": r, "I": identity(a)})
    assert eval_query(Compose(RelRef("R"), RelRef("I")), env) == r


def test_eval_empty_table_gives_empty_relation():
    table = parse_table_csv("Title,Director,Actor\n",
                            {"Title": ("t1",), "Director": ("d1",),
                             "Actor": ("a1",)})
    env = Env(tables={"movies": table})
    assert eval_query(movies_query(), env).pairs == frozenset()


def _comprehension_oracle(table):
    # the self-join as a set comprehension over raw rows
    out = set()
    for t1 in table.rows:
        for t2 in table.rows:
            if t1[0] == t2[0]:
                out.add((sub(t2[2]), sub(t1[1])))
    return out


def test_eval_agrees_with_comprehension_oracle_exhaustively():
    dom = {"Title": ("0", "1"), "Director": ("0", "1"), "Actor": ("0", "1")}
    base = parse_table_csv("Title,Director,Actor\n", dom)
    universe = row_carrier(base).elements
    q = movies_query()
    for k in range(0, 4):
        for combo in itertools.combinations(universe, k):
            table = Table(base.scheme, frozenset(combo))
            env = Env(tables={"movies": table})
            assert eval_query(q, env).pairs == frozenset(
                _comprehension_oracle(table))


def _chain(e):
    if isinstance(e, Compose):
        return [x for a in e.args for x in _chain(a)]
    return [e]


def _left_fold(e, env):
    """Reference evaluator: each composition chain folded from the left,
    each kernel built whole by `rel.kernel`."""
    if isinstance(e, Pid):
        return pid(env.tables[e.table])
    if isinstance(e, Proj):
        return proj_fn(env.tables[e.scheme].scheme, e.attrs)
    if isinstance(e, Converse):
        return rel.converse(_left_fold(e.args[0], env))
    if isinstance(e, Kernel):
        return rel.kernel(_left_fold(e.args[0], env))
    if isinstance(e, Compose):
        return functools.reduce(rel.compose,
                                [_left_fold(x, env) for x in _chain(e)])
    op = {UnionOp: rel.union, Fork: rel.fork}[type(e)]
    return functools.reduce(op, [_left_fold(a, env) for a in e.args])


MOVIE_ATTRS = ("Title", "Director", "Actor", "Studio")


def _random_movies_table(rnd):
    names = MOVIE_ATTRS[:rnd.choice((3, 4))]
    dom = {a: tuple(f"{a[0].lower()}{v}" for v in range(rnd.randint(1, 3)))
           for a in names}
    universe = list(itertools.product(*(dom[a] for a in names)))
    rows = rnd.sample(universe, rnd.randint(0, len(universe)))
    csv_text = ",".join(names) + "\n" + "".join(",".join(r) + "\n"
                                                 for r in rows)
    return parse_table_csv(csv_text, dom)


def _random_factor(rnd, src, attrs, depth):
    """(expression, target) of a random factor whose source is `src`: the
    string "U" for the row universe of table "m", a frozenset of attributes
    for a sub-row carrier, or ("fork", a, b) for a pair carrier."""
    def proj():
        return Proj("m", frozenset(rnd.sample(attrs, rnd.randint(1, 2))))

    if isinstance(src, tuple):
        return Converse(Fork(Proj("m", src[1]), Proj("m", src[2]))), "U"
    if src != "U":
        if rnd.random() < 0.5:
            return Kernel(Converse(Proj("m", src))), src
        return Converse(Proj("m", src)), "U"
    kind = rnd.choice(("pid", "proj", "kernel", "kernel", "union", "fork",
                       "kernel_fork", "chain"))
    if kind == "pid":
        return Pid("m"), "U"
    if kind == "kernel":
        return Kernel(proj()), "U"
    if kind == "fork":
        left, right = proj(), proj()
        return Fork(left, right), ("fork", left.attrs, right.attrs)
    if kind == "kernel_fork":
        return Kernel(Fork(proj(), proj())), "U"
    if kind in ("union", "chain") and depth < 2:
        inner, tgt = _random_chain(rnd, "U", attrs, depth + 1)
        if kind == "chain":
            return inner, tgt
        for _ in range(10):
            other, other_tgt = _random_chain(rnd, "U", attrs, depth + 1)
            if other_tgt == tgt:
                return UnionOp(inner, other), tgt
        return UnionOp(inner, Compose(inner, Pid("m"))), tgt
    p = proj()
    return p, p.attrs


def _random_chain(rnd, src, attrs, depth=0):
    """A chain of 2-8 factors applied from `src` on, and its target; the
    tree nests to the left, as `from_json` builds it."""
    factors, at = [], src
    for _ in range(rnd.randint(2, 8)):
        item, at = _random_factor(rnd, at, attrs, depth)
        factors.append(item)
    return functools.reduce(Compose, reversed(factors)), at


def test_chain_evaluation_agrees_with_the_left_fold():
    rnd = random.Random(5)
    g, f, h = ({"op": "proj", "scheme": "m", "attrs": [a]}
               for a in ("Director", "Title", "Actor"))
    p = {"op": "pid", "table": "m"}
    bench_chain = from_json({"op": "compose", "args": [  # its `chain` shape
        g, {"op": "converse", "arg": g}, g, p, {"op": "kernel", "arg": f}, p,
        {"op": "converse", "arg": h}, h, p]})
    empty_tables = kernels = 0
    for _ in range(40):
        table = _random_movies_table(rnd)
        env = Env(tables={"m": table})
        attrs = list(table.scheme.names)
        exprs = [bench_chain] + [_random_chain(rnd, "U", attrs)[0]
                                 for _ in range(8)]
        empty_tables += not table.rows
        for e in exprs:
            kernels += "Kernel(" in repr(e)
            got, want = eval_query(e, env), _left_fold(e, env)
            assert (got.source, got.target) == (want.source, want.target)
            assert got.pairs == want.pairs, e
    assert empty_tables >= 2 and kernels >= 200


# ---------------------------------------------------------------------------
# rewriting


def test_rewrite_eliminates_enabled_self_join():
    out = rewrite_selfjoin(movies_query(), TITLE_DIRECTOR)
    assert out == optimized_query()
    assert count_pid_nodes(out) == 1


def test_rewrite_without_enabling_fd_is_identity():
    q = movies_query()
    assert rewrite_selfjoin(q, []) is q
    assert rewrite_selfjoin(q, [parse_fd("Director -> Actor")]) is q


def test_rewrite_symmetric_enablement():
    out = rewrite_selfjoin(movies_query(), [parse_fd("Title -> Actor")])
    assert out == optimized_query()
    table = parse_table_csv(
        "Title,Director,Actor\nt1,d1,a1\nt2,d2,a1\nt2,d2,a2\n")
    env = Env(tables={"movies": table})
    assert verify_equiv(movies_query(), out, env)


def test_rewrite_enabled_through_a_chain_past_the_firing_bound():
    # enabling asks derivability only, so no proof's firing bound applies
    n = FIRING_LIMIT + 5
    fds = ([parse_fd("Title -> X0")]
           + [parse_fd(f"X{i} -> X{i + 1}") for i in range(n)]
           + [parse_fd(f"X{n} -> Director")])
    assert rewrite_selfjoin(movies_query(), fds) == optimized_query()
    assert rewrite_selfjoin(movies_query(), fds[1:]) == movies_query()


def test_rewrite_is_idempotent_and_never_adds_pids():
    q = movies_query()
    once = rewrite_selfjoin(q, TITLE_DIRECTOR)
    assert rewrite_selfjoin(once, TITLE_DIRECTOR) == once
    assert count_pid_nodes(once) <= count_pid_nodes(q)


def test_rewrite_handles_nested_chains():
    inner = movies_query()
    env = movies_env()
    merged = UnionOp(inner, optimized_query())
    out = rewrite_selfjoin(merged, TITLE_DIRECTOR)
    assert out == UnionOp(optimized_query(), optimized_query())
    assert verify_equiv(merged, out, env)
    wrapped = Kernel(Converse(inner))
    out2 = rewrite_selfjoin(wrapped, TITLE_DIRECTOR)
    assert count_pid_nodes(out2) == 1
    assert verify_equiv(wrapped, out2, env)


def test_rewrite_normalizes_pid_identities():
    doubled = Compose(Converse(Pid("movies")), Pid("movies"))
    q = Compose(Compose(Compose(Proj("movies", frozenset({"Director"})),
                                doubled),
                        Kernel(Proj("movies", frozenset({"Title"})))),
                Compose(Pid("movies"),
                        Converse(Proj("movies", frozenset({"Actor"})))))
    out = rewrite_selfjoin(q, TITLE_DIRECTOR)
    assert out == optimized_query()
    assert verify_equiv(q, out, movies_env())


def test_rewrite_requires_matching_table_names():
    q = movies_query()
    chain = Compose(q, Converse(Pid("other")))
    out = rewrite_selfjoin(chain, TITLE_DIRECTOR)
    assert count_pid_nodes(out) == 2  # inner window still fires


def _normalize(e):
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


def _rewrite_to_fixpoint(e, fds, fired):
    """The rewriter as a loop: normalize and rewrite until a pass fires
    nothing, at most 100 passes.  The oracle of the one-pass rewriter."""
    start = len(fired)
    current = e
    for _ in range(100):
        before = len(fired)
        current = _rewrite_once(_normalize(current), fds, fired)
        if len(fired) == before:
            break
    return current if len(fired) > start else e


def _random_ir(rnd, depth=0):
    """A random query tree over tables "m" and "n", not necessarily well
    typed: chains rich in self-join windows, their pids written as
    ``pid``, ``pid~``, ``pid . pid`` or ``pid~ . pid``, nested under union,
    fork, kernel and converse nodes."""
    t = rnd.choice("mmn")

    def proj(table=t):
        return Proj(table, frozenset(rnd.sample("ABC", rnd.randint(1, 2))))

    def pid():
        p = Pid(t if rnd.random() < 0.9 else "mn"[t == "m"])
        return rnd.choice((p, p, Converse(p), Compose(p, p),
                           Compose(Converse(p), p)))

    if depth < 3 and rnd.random() < 0.3:
        node = rnd.choice((UnionOp, Fork, Kernel, Converse))
        n = 1 if node in (Kernel, Converse) else rnd.randint(2, 3)
        return node(*(_random_ir(rnd, depth + 1) for _ in range(n)))
    factors = []
    for _ in range(rnd.randint(1, 4)):
        r = rnd.random()
        if r < 0.45:
            factors += [proj(), pid(), Kernel(proj()), pid(),
                        Converse(proj())]
        elif r < 0.6:
            factors.append(pid())
        elif r < 0.75:
            factors.append(proj(rnd.choice("mn")))
        elif r < 0.85 or depth == 3:
            factors.append(Converse(proj()))
        else:
            factors.append(_random_ir(rnd, depth + 1))
    return Compose(*factors) if len(factors) > 1 else factors[0]


FIXPOINT_FDS = {  # beyond reflexivity, a window fires through ...
    "f -> g": [parse_fd("A -> B")],
    "f -> h": [parse_fd("A -> C")],
    "derived": [parse_fd("A -> X"), parse_fd("X -> B C")],
    "nothing": [parse_fd("D -> A")],
}


def test_one_rewrite_pass_is_the_fixpoint():
    rnd = random.Random(17)
    by_fd = dict.fromkeys(FIXPOINT_FDS, 0)  # windows fired, not reflexively
    normalized = 0
    for _ in range(3000):
        e = _random_ir(rnd)
        kind = rnd.choice(list(FIXPOINT_FDS))
        fds = FIXPOINT_FDS[kind]
        fired, want_fired = [], []
        out = rewrite_selfjoin(e, fds, fired)
        assert out == _rewrite_to_fixpoint(e, fds, want_fired)
        assert fired == want_fired
        again = []
        assert rewrite_selfjoin(out, fds, again) is out and again == []
        if fired:
            by_fd[kind] += sum(not (g <= f or h <= f) for _, f, g, h in fired)
            normalized += _normalize(e) != e
        else:
            assert out is e
    assert by_fd["nothing"] == 0
    assert min(by_fd[k] for k in ("f -> g", "f -> h", "derived")) >= 100
    assert normalized >= 100, (by_fd, normalized)


# ---------------------------------------------------------------------------
# verification


def test_verify_equal_expressions():
    env = movies_env()
    q = movies_query()
    assert verify_equiv(q, q, env)


def test_verify_returns_pinned_witness_on_violation():
    env = movies_env("movies_violating.csv")
    out = rewrite_selfjoin(movies_query(), TITLE_DIRECTOR)
    result = verify_equiv(movies_query(), out, env)
    assert not result
    assert result.witness == (sub("a2"), sub("d1"))


def test_verify_rejects_differently_typed_expressions():
    env = movies_env()
    with pytest.raises(CarrierMismatchError):
        verify_equiv(Pid("movies"),
                     Proj("movies", frozenset({"Title"})), env)


def test_verify_equiv_types_named_relations_by_carriers():
    # a named relation has carriers, not sorts: `verify_equiv` types by
    # `type_check`, as a relation out of the row universe needs
    table = parse_table_csv("A,B\na,1\nb,2\n")
    rows = row_carrier(table)
    out = carrier("X", 2)
    env = Env(tables={"t": table}, rels={"R": rel.top(rows, out)})
    stored = Compose(RelRef("R"), Pid("t"))
    assert verify_equiv(stored, Compose(stored, Pid("t")), env)
    result = verify_equiv(stored, RelRef("R"), env)
    assert not result
    # the least pair of R outside the stored rows, by target, then source
    assert result.witness == (("a", "2"), "x0")
    with pytest.raises(CarrierMismatchError):
        verify_equiv(stored, Pid("t"), env)


def test_type_check_predicts_eval_carriers_on_random_expressions():
    rnd = random.Random(13)
    env = movies_env()
    table = env.tables["movies"]
    names = table.scheme.names
    pool = [Pid("movies")]
    pool += [Proj("movies", frozenset(c))
             for k in (1, 2) for c in itertools.combinations(names, k)]
    typed = [(e, type_check(e, env)) for e in pool]
    for _ in range(250):
        op = rnd.choice(["converse", "kernel", "compose", "union", "fork"])
        e1, (s1, t1) = rnd.choice(typed)
        if op == "converse":
            candidate = Converse(e1)
        elif op == "kernel":
            candidate = Kernel(e1)
        else:
            e2, (s2, t2) = rnd.choice(typed)
            if op == "compose" and t2 == s1:
                candidate = Compose(e1, e2)
            elif op == "union" and (s1, t1) == (s2, t2):
                candidate = UnionOp(e1, e2)
            elif op == "fork" and s1 == s2:
                candidate = Fork(e1, e2)
            else:
                continue
        typed.append((candidate, type_check(candidate, env)))
    assert len(typed) > 100
    for e, (src, tgt) in typed:
        out = eval_query(e, env)
        assert (out.source, out.target) == (src, tgt)


def test_rewrite_soundness_randomized_1000():
    rnd = random.Random(0)
    titles = ["t1", "t2", "t3"]
    directors = ["d1", "d2", "d3"]
    actors = ["a1", "a2", "a3"]
    q = movies_query()
    for _ in range(1000):
        # build a table satisfying Title -> Director by construction
        director_of = {t: rnd.choice(directors) for t in titles}
        n = rnd.randint(0, 20)
        rows = {(t := rnd.choice(titles), director_of[t], rnd.choice(actors))
                for _ in range(n)}
        csv_text = "Title,Director,Actor\n" + "".join(
            ",".join(r) + "\n" for r in rows)
        table = parse_table_csv(csv_text)
        env = Env(tables={"movies": table})
        out = rewrite_selfjoin(q, TITLE_DIRECTOR)
        assert verify_equiv(q, out, env)


# ---------------------------------------------------------------------------
# discharge by typing


def test_rewrite_records_each_fired_window():
    q = movies_query()
    fired = []
    out = rewrite_selfjoin(q, TITLE_DIRECTOR, fired)
    assert out == rewrite_selfjoin(q, TITLE_DIRECTOR) == optimized_query()
    window = ("movies", frozenset({"Title"}), frozenset({"Director"}),
              frozenset({"Actor"}))
    assert fired == [window]
    fired = []
    assert rewrite_selfjoin(UnionOp(q, q), TITLE_DIRECTOR, fired) == UnionOp(
        optimized_query(), optimized_query())
    assert fired == [window, window]
    fired = []
    assert rewrite_selfjoin(q, [], fired) is q and fired == []


def test_discharge_needs_a_window_fd_on_the_stored_rows():
    q = movies_query()
    fired = []
    rewrite_selfjoin(q, TITLE_DIRECTOR, fired)
    assert discharged(fired, movies_env())
    assert not discharged(fired, movies_env("movies_violating.csv"))
    assert discharged([], movies_env("movies_violating.csv"))
    # enabled through `f -> h`: Title -> Actor holds on these rows
    one_actor = parse_table_csv("Title,Director,Actor\nt1,d1,a1\nt1,d2,a1\n")
    assert discharged(fired, Env(tables={"movies": one_actor}))


def _template(kind, f, g, h, k):
    """The bench's query shapes around the window `g . pid . ker f . pid .
    h~` over table "m"."""
    w = Compose(Proj("m", g), Pid("m"), Kernel(Proj("m", f)), Pid("m"),
                Converse(Proj("m", h)))
    if kind == "alone":
        return w
    if kind == "chain":
        return Compose(Proj("m", g), Converse(Proj("m", g)), w,
                       Proj("m", h), Pid("m"))
    if kind == "union":
        return UnionOp(w, Compose(Proj("m", g), Pid("m"),
                                  Converse(Proj("m", h))))
    if kind == "fork":
        return Fork(w, Compose(Proj("m", k), Pid("m"),
                               Converse(Proj("m", h))))
    return Converse(w)


TEMPLATES = ("alone", "chain", "union", "fork", "converse")


def _movies_table(rnd, kind):
    """(table, g, k) of a movies-shaped table "m": Title -> g holds
    ("holds"), is broken so that the bare window differs from its rewrite
    ("differs"), or is broken while, per title, the rows are every
    combination of its g values and its actors, so the window equals its
    rewrite although neither Title -> g nor Title -> Actor holds
    ("equal")."""
    names = MOVIE_ATTRS[:rnd.choice((3, 4))]
    dom = {a: tuple(f"{a[0].lower()}{v}" for v in range(3)) for a in names}
    g = ("Director", "Studio")[:rnd.choice((1, 2)) if len(names) == 4 else 1]
    free = [a for a in names if a not in g + ("Title", "Actor")]
    rows = set()
    for t in dom["Title"][:rnd.randint(1, 3)]:
        n_g, n_a = {"holds": (1, rnd.randint(1, 3)), "differs": (1, 2),
                    "equal": (rnd.randint(1, 2), rnd.randint(1, 3))}[kind]
        if kind == "equal" and t == "t0":
            n_g, n_a = 2, 2  # breaks both FDs
        gs = rnd.sample(list(itertools.product(*(dom[a] for a in g))), n_g)
        actors = rnd.sample(dom["Actor"], n_a)
        for gv in gs:
            for a in actors:
                vals = {"Title": t, "Actor": a, **dict(zip(g, gv))}
                vals.update((b, rnd.choice(dom[b])) for b in free)
                rows.add(tuple(vals[b] for b in names))
    if kind == "differs":
        # a second g value for one of t0's two actors, on no other row: the
        # window pairs it with t0's other actor, the rewrite does not
        row = dict(zip(names, sorted(r for r in rows if r[0] == "t0")[0]))
        row[g[0]] = "only"
        dom[g[0]] += ("only",)
        rows.add(tuple(row[b] for b in names))
    csv_text = ",".join(names) + "\n" + "".join(",".join(r) + "\n"
                                                 for r in sorted(rows))
    k = ("Studio",) if "Studio" in names else ("Director",)
    return parse_table_csv(csv_text, dom), frozenset(g), frozenset(k)


def test_discharge_implies_equal_evaluation():
    # the typed verdict against `verify_equiv`, the evaluating oracle, on
    # the bench's query shapes and on random chains after the window
    rnd = random.Random(16)
    f, h = frozenset({"Title"}), frozenset({"Actor"})
    seen = dict.fromkeys(("holds", "differs", "equal"), 0)
    random_discharged = 0
    for i in range(48):
        kind = ("holds", "differs", "equal")[i % 3]
        table, g, k = _movies_table(rnd, kind)
        env = Env(tables={"m": table})
        attrs = list(table.scheme.names)
        queries = [_template(t, f, g, h, k) for t in TEMPLATES]
        queries += [_random_chain(rnd, "U", attrs)[0],
                    Compose(_random_chain(rnd, g, attrs)[0],
                            _template("alone", f, g, h, k))]
        for fds in ([AttrFd(f, g)], [AttrFd(f, h)]):
            for q in queries:
                fired = []
                out = rewrite_selfjoin(q, fds, fired)
                assert (_type_pair(q, out, env)
                        == type_check(q, env))
                typed = discharged(fired, env)
                if not fired:
                    assert typed and out is q
                    continue
                equal = verify_equiv(q, out, env).equal
                if typed:
                    assert equal, (kind, q)
                    random_discharged += q not in queries[:5]
                if q in queries[:5]:
                    seen[kind] += 1
                    # typing settles the holding tables only; evaluation
                    # tells the broken ones apart
                    assert typed == (kind == "holds"), q
                    assert equal == (kind != "differs"), q
    assert min(seen.values()) >= 100, seen
    assert random_discharged >= 10, random_discharged


# ---------------------------------------------------------------------------
# projections applied as functions


def _cancel_shapes(names):
    """Chains around ``p . p~``, which `query._cancel` drops when the row
    universe is not empty, and around the pairs it keeps, and chains
    around the pids that `query._absorb` absorbs into a projection beside
    them and the pids it keeps: p and q project onto the first and the
    second of `names`, `every` onto all of them, so its target is the row
    universe, and `none` onto no attribute."""
    p, q = (Proj("m", frozenset({a})) for a in names[:2])
    every, none = Proj("m", frozenset(names)), Proj("m", frozenset())
    return [Compose(p, Converse(p)),
            Compose(p, every, Converse(every), Converse(p)),
            Kernel(Converse(p)),
            Compose(p, Converse(p), p, Pid("m")),
            Compose(every, Converse(every), Pid("m")),
            Compose(Converse(p), p),
            Compose(p, Converse(q)),
            Compose(none, Converse(none)),
            Compose(p, Pid("m"), Converse(q)),
            Compose(Converse(q), q, Pid("m")),
            Compose(Pid("m"), Converse(p), p),
            Compose(p, Pid("m"), Pid("m"), Converse(q)),
            Compose(Converse(every), Pid("m"), every),
            Compose(p, Converse(Compose(q, Pid("m"))))]


def _empty_universe_case():
    """(table "m", queries): `_cancel_shapes` over a declared empty Actor
    domain: the row universe is empty, so each ``p . p~`` is empty."""
    dom = {"Title": ("t0", "t1"), "Director": ("d0",), "Actor": ()}
    table = Table(Scheme(tuple((a, Carrier(a, v)) for a, v in dom.items())),
                  frozenset())
    return table, _cancel_shapes(list(dom))


def _colliding_targets_case():
    """(table "m", queries): projections p and q onto different attribute
    sets whose sub-row carriers are equal, since each carrier's name joins
    its attribute names by commas, so ``p . q~`` is not ``p . p~``."""
    names = ("A", "A,B", "B,C", "C")
    table = Table(Scheme(tuple((a, Carrier("v", ("v0", "v1")))
                               for a in names)), frozenset())
    p, q = (Proj("m", frozenset(names[i::2])) for i in (1, 0))
    assert (query._proj_map(table.scheme, p.attrs)[1]
            == query._proj_map(table.scheme, q.attrs)[1])
    return table, [Compose(p, Converse(q)), Compose(p, Converse(p))]


@st.composite
def _eval_cases(draw):
    """(table "m", queries): two to four movie attributes, whose domains of
    0-3 values may be empty, holding a random set of rows, maybe none; the
    bench's query shapes (`chain` is the bench's chain) over projections
    onto one or two of the table's attributes, random chains, a chain of
    projections onto no attribute, and `_cancel_shapes`."""
    names = draw(st.permutations(MOVIE_ATTRS))[:draw(st.integers(2, 4))]
    dom = {a: tuple(f"{a[0].lower()}{v}"
                    for v in range(draw(st.integers(0, 3))))
           for a in names}
    universe = list(itertools.product(*(dom[a] for a in names)))
    rows = draw(st.lists(st.sampled_from(universe), max_size=8)
                if universe else st.just([]))
    table = Table.make(Scheme(tuple((a, Carrier(a, dom[a])) for a in names)),
                       rows)
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    f, g, h, k = (frozenset(rnd.sample(names, rnd.randint(1, 2)))
                  for _ in range(4))
    none = Proj("m", frozenset())
    queries = [_template(t, f, g, h, k) for t in TEMPLATES]
    queries += [_random_chain(rnd, "U", list(names))[0] for _ in range(3)]
    queries.append(Compose(Converse(none), none, Pid("m"), Converse(none)))
    return table, queries + _cancel_shapes(names)


@settings(max_examples=150, deadline=None, database=None)
@given(case=_eval_cases())
@example(case=_empty_universe_case())
@example(case=_colliding_targets_case())
def test_evaluation_agrees_with_building_every_factor(case):
    # `eval_query` drops each ``p . p~`` of a chain over a non-empty
    # universe and builds a projection beside a pid restricted to the
    # stored rows, absorbing the pid; the left fold builds each projection
    # by `proj_fn`, each pid by `pid`, and composes them by `rel.compose`
    table, queries = case
    env = Env(tables={"m": table})
    for e in queries:
        got, want = eval_query(e, env), _left_fold(e, env)
        assert (got.source, got.target, got.pairs) == (
            want.source, want.target, want.pairs), e


def test_absorbing_a_pid_restricts_the_projection_beside_it():
    # ``p . pid = p|S`` and ``pid . p~ = (p|S)~``: `_absorb` builds each
    # side as one relation equal to the composition of the built
    # projection and pid, over random tables, some empty, and an empty
    # universe, for every attribute set.  `every` targets the row
    # universe, so ``pid . every`` and ``every~ . pid`` type too; their
    # pid must be kept
    rnd = random.Random(40)
    cases = [_random_movies_table(rnd) for _ in range(30)]
    cases.append(_empty_universe_case()[0])
    empty_tables = 0
    for table in cases:
        env = Env(tables={"m": table})
        names = table.scheme.names
        t = pid(table)
        empty_tables += not table.rows
        for n in range(len(names) + 1):
            for attrs in itertools.combinations(names, n):
                p = proj_fn(table.scheme, attrs)
                node = Proj("m", frozenset(attrs))
                assert query._absorb([node, Pid("m")], env) == [
                    rel.compose(p, t)]
                assert query._absorb([Pid("m"), Converse(node)], env) == [
                    rel.compose(t, rel.converse(p))]
        every = Proj("m", frozenset(names))
        p = proj_fn(table.scheme, names)
        for items, want in (([Pid("m"), every], rel.compose(t, p)),
                            ([Converse(every), Pid("m")],
                             rel.compose(rel.converse(p), t))):
            factors = query._absorb(items, env)
            assert functools.reduce(rel.compose, factors) == want
    assert empty_tables >= 2


def test_a_kernel_of_a_fork_is_evaluated_once(monkeypatch):
    # ``ker e`` unfolds to ``e~ . e`` on e's relation, built once, when e
    # is not a projection
    table = parse_table_csv((FIXTURES / "movies_violating.csv").read_text())
    env = Env(tables={"m": table})
    p, q = (Proj("m", frozenset({a})) for a in ("Title", "Actor"))
    e = Compose(Pid("m"), Kernel(Fork(p, q)), Pid("m"))
    forks = []
    fork = rel.fork

    def counted(r, s):
        forks.append((r, s))
        return fork(r, s)

    want = _left_fold(e, env)
    monkeypatch.setattr(rel, "fork", counted)
    assert eval_query(e, env) == want
    assert len(forks) == 1


def _maps_the_universe(r, universe):
    """Whether `r` has the row universe as its source and every universe
    row as an input: a projection, or its kernel, built over the universe."""
    return (r.source == universe
            and len({a for a, _ in r.pairs}) == len(universe))


def test_window_templates_evaluate_no_projection_over_the_universe(
        monkeypatch):
    # on a table breaking `Title -> Director`, the rewrite of each template
    # is evaluated, and no relation built meanwhile maps every row of the
    # universe: every projection of the window sits beside a pid, which
    # `query._absorb` absorbs into it, and the `chain` template's leading
    # ``g . g~`` cancels, since the table's row universe is not empty
    table = parse_table_csv((FIXTURES / "movies_violating.csv").read_text())
    universe = row_carrier(table)
    env = Env(tables={"m": table})
    f, g, h = (frozenset({a}) for a in ("Title", "Director", "Actor"))
    compared = []
    compare = query._compare

    def counted(*args):
        compared.append(args)
        return compare(*args)

    built = []
    init = rel.Rel.__init__

    def recorded(self, source, target, pairs):
        init(self, source, target, pairs)
        built.append(self)

    monkeypatch.setattr(query, "_compare", counted)
    assert len(universe) > len(table.rows)
    for kind in TEMPLATES:
        q = _template(kind, f, g, h, g)
        fired = []
        out = rewrite_selfjoin(q, [AttrFd(f, g)], fired)
        r1, r2 = _left_fold(q, env), _left_fold(out, env)
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(rel.Rel, "__init__", recorded)
            got = verify_rewrite(q, out, fired, table)
        assert built and not [r for r in built
                              if _maps_the_universe(r, universe)], kind
        assert got.equal == (r1.pairs == r2.pairs)
        assert got.equal or got.witness in r1.pairs ^ r2.pairs
    assert len(compared) == len(TEMPLATES)


def test_window_templates_build_no_relation_at_the_universe_scale(
        monkeypatch):
    # on 4-attribute tables of 960 rows' universe holding 24 rows each,
    # breaking `Title -> Director`, every relation built while a template's
    # rewrite is verified holds fewer pairs than half the universe
    names = {"Title": 8, "Director": 6, "Actor": 5, "Studio": 4}
    scheme = Scheme(tuple((a, Carrier(a, tuple(f"{a[0]}{v}"
                                               for v in range(n))))
                          for a, n in names.items()))
    universe = row_carrier(scheme).elements
    f, g, h, k = (frozenset({a}) for a in names)
    sizes = []
    init = rel.Rel.__init__

    def recorded(self, source, target, pairs):
        sizes.append(len(pairs))
        init(self, source, target, pairs)

    for seed in range(5):
        table = Table(scheme, frozenset(random.Random(seed).sample(universe,
                                                                   24)))
        for kind in TEMPLATES:
            q = _template(kind, f, g, h, k)
            fired = []
            out = rewrite_selfjoin(q, [AttrFd(f, g)], fired)
            assert not discharged(fired, Env(tables={"m": table}))
            with monkeypatch.context() as m:
                m.setattr(rel.Rel, "__init__", recorded)
                verify_rewrite(q, out, fired, table)
    assert len(universe) == 960 and sizes
    assert max(sizes) < len(universe) / 2


# ---------------------------------------------------------------------------
# the chain planner and the evaluation's caches


def _plan_oracle(ends):
    """The split of each span ``(i, j)`` of two or more factors, by the
    dictionary-and-`min` dynamic program that `query._plan` replaced."""
    n = len(ends)
    size = {(i, i): float(x[2]) for i, x in enumerate(ends)}
    cost = {(i, i): 0.0 for i in range(n)}
    split = {}
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            cap = ends[j][0] * ends[i][1]
            options = []
            for k in range(i, j):
                mid = ends[k][0]
                est = (min(size[i, k] * size[k + 1, j] / mid, cap)
                       if mid else 0.0)
                options.append((cost[i, k] + cost[k + 1, j] + est, k, est))
            cost[i, j], split[i, j], size[i, j] = min(options)
    return split


@st.composite
def _chain_ends(draw):
    """The sizes that `query._plan` reads, (source, target, pairs), of a
    chain of 1-10 factors, factor i from carrier i + 1 to carrier i, with
    carriers and pair counts of 0-60.  Drawn from {0, 1, 4} or all of one
    size they force cost ties, and a middle carrier of size 0 estimates
    its step at no pairs."""
    n = draw(st.integers(1, 10))
    value = draw(st.sampled_from((st.integers(0, 60),
                                  st.sampled_from((0, 1, 4)),
                                  st.just(draw(st.integers(0, 60))))))
    carriers = draw(st.lists(value, min_size=n + 1, max_size=n + 1))
    pairs = draw(st.lists(value, min_size=n, max_size=n))
    return [(carriers[i + 1], carriers[i], pairs[i]) for i in range(n)]


@settings(max_examples=300, deadline=None, database=None)
@given(ends=_chain_ends())
@example(ends=[(2, 2, 2)] * 6)  # every split of a span costs the same
@example(ends=[(3, 5, 9), (0, 3, 0), (4, 0, 0), (6, 4, 24), (0, 6, 0)])
def test_planner_splits_every_span_as_the_dictionary_planner(ends):
    n = len(ends)
    split = query._plan(ends)
    assert {(i, j): split[i * n + j] for i in range(n)
            for j in range(i + 1, n)} == _plan_oracle(ends)


def _counted(calls, build):
    """`build`, appending the arguments of each call to `calls`."""
    return lambda *args: calls.append(args) or build(*args)


def _count_maps(monkeypatch) -> list:
    """The list to which each projection map that `query._proj_map` builds
    from now on appends the arguments of its row map's `itemgetter`."""
    maps = []
    monkeypatch.setattr(query, "itemgetter",
                        _counted(maps, operator.itemgetter))
    return maps


def test_projection_maps_are_built_once_per_scheme_and_attribute_set(
        monkeypatch):
    # the bench's query shapes and `_cancel_shapes` on four tables in turn,
    # then on two more twice: each scheme object builds one map per
    # attribute set and keeps it, so a table over an equal scheme builds
    # its own, and one whose scheme has the same names but a domain in
    # another order or with another value is never served another's;
    # every result is the left fold's
    dom = {"Title": ("t0", "t1"), "Director": ("d0", "d1"),
           "Actor": ("a0", "a1", "a2")}

    def table(domains, rows):
        return Table.make(Scheme(tuple((a, Carrier(a, v))
                                       for a, v in domains.items())), rows)

    first = table(dom, [("t0", "d0", "a0"), ("t0", "d1", "a1"),
                        ("t1", "d0", "a2")])
    equal = table(dom, [("t1", "d1", "a0"), ("t0", "d1", "a1")])
    reordered = table({**dom, "Actor": ("a2", "a0", "a1")}, first.rows)
    revalued = table({**dom, "Actor": ("a0", "a1", "a3")},
                     [("t0", "d0", "a3"), ("t1", "d1", "a0")])
    assert first.scheme == equal.scheme and first.scheme is not equal.scheme
    assert first.scheme != reordered.scheme != revalued.scheme
    f, g, h = (frozenset({a}) for a in dom)
    queries = ([_template(t, f, g, h, g) for t in TEMPLATES]
               + _cancel_shapes(list(dom)))
    # {Title}, {Director}, {Actor}, none and `every`: `type_check` takes
    # each projection's carriers from `_proj_map`, so every attribute set
    # a query projects onto is mapped, `every`'s too, although no query
    # absorbs a pid into `every` and each ``every . every~`` cancels
    keys = 5
    cases = [(t, queries) for t in (first, equal, reordered, revalued)]
    cases += [_colliding_targets_case(), _empty_universe_case()] * 2
    maps = _count_maps(monkeypatch)
    built = []
    for t, qs in cases:
        env = Env(tables={"m": t})
        start = len(maps)
        for e in qs:
            got, want = eval_query(e, env), _left_fold(e, env)
            assert (got.source, got.target, got.pairs) == (
                want.source, want.target, want.pairs), e
        built.append(len(maps) - start)
    assert built[:4] == [keys] * 4 and built[6:] == [0, 0]


def test_schemes_of_the_same_names_keep_their_own_projection_maps():
    # two tables over the attribute names Title and Actor, whose Actor
    # domains differ: a lone projection of each maps its own universe
    for actors in (("a0", "a1"), ("a1", "a2")):
        table = parse_table_csv("Title,Actor\n",
                                {"Title": ("t0",), "Actor": actors})
        e = Proj("m", frozenset({"Actor"}))
        got = eval_query(e, Env(tables={"m": table}))
        assert got == proj_fn(table.scheme, e.attrs)


def test_one_evaluation_builds_each_universe_and_projection_map_once(
        monkeypatch):
    # a window and a chain over the same three projections, in a union:
    # typing and evaluation read one row universe of the table's scheme,
    # and one map, with its sub-row carrier, per attribute set
    table = parse_table_csv((FIXTURES / "movies_violating.csv").read_text())
    env = Env(tables={"m": table})
    f, g, h = (Proj("m", frozenset({a}))
               for a in ("Title", "Director", "Actor"))
    e = UnionOp(Compose(g, Pid("m"), Kernel(f), Pid("m"), Converse(h)),
                Compose(g, Kernel(f), Converse(h)))
    carriers = []
    monkeypatch.setattr(tables, "Carrier", _counted(carriers, Carrier))
    maps = _count_maps(monkeypatch)
    got = eval_query(e, env)
    assert sorted(name for name, *_ in carriers) == [
        "rows(Actor)", "rows(Director)", "rows(Title)",
        "rows(Title,Director,Actor)"]
    assert sorted(maps) == [(slice(0, 1),), (slice(1, 2),), (slice(2, 3),)]
    assert got == _left_fold(e, env)


def test_refuted_rewrites_build_each_projection_map_once(monkeypatch):
    # on a table breaking `Title -> Director`, which refutes the rewrite of
    # each template, verifying them all builds one projection map per
    # attribute set: every template and both sides of each rewrite are
    # served the maps that the table's scheme keeps
    table = parse_table_csv((FIXTURES / "movies_violating.csv").read_text())
    f, g, h = (frozenset({a}) for a in ("Title", "Director", "Actor"))
    requests = []
    for kind in TEMPLATES:
        q = _template(kind, f, g, h, g)
        fired = []
        requests.append((q, rewrite_selfjoin(q, [AttrFd(f, g)], fired),
                         fired))
    maps = _count_maps(monkeypatch)
    assert not any(verify_rewrite(*r, table) for r in requests)
    assert sorted(maps) == [(slice(0, 1),), (slice(1, 2),), (slice(2, 3),)]


def test_type_check_takes_every_carrier_from_what_evaluation_reads():
    # every carrier `type_check` returns is the object `_eval` puts at its
    # relation's source or target, but a fork's target: each builds a pair
    # carrier of its own, over the same two objects
    table = parse_table_csv((FIXTURES / "movies.csv").read_text())
    env = Env(tables={"m": table})
    title, director = (Proj("m", frozenset({a}))
                       for a in ("Title", "Director"))
    forks = [Fork(title, director), Fork(Pid("m"), Pid("m"))]
    f, g, h = (frozenset({a}) for a in table.scheme.names)
    queries = ([_template(t, f, g, h, g) for t in TEMPLATES]
               + _cancel_shapes(list(table.scheme.names)) + forks)
    for e in queries:
        source, target = type_check(e, env)
        got = query._eval(e, env)
        assert source is got.source, e
        if isinstance(e, Fork):
            assert target == got.target
            assert all(map(operator.is_, target.components,
                           got.target.components)), e
        else:
            assert target is got.target, e


def test_evaluation_keeps_no_relation_over_the_row_universe():
    # no cache holds a relation: once its result is dropped, a query that
    # builds a projection over the whole row universe, alone, in a kernel
    # or in a chain, leaves no relation from every row of that universe
    dom = {a: tuple(f"u{a}{v}" for v in range(4)) for a in "ABC"}
    table = parse_table_csv("A,B,C\nuA0,uB0,uC0\n", dom)
    universe = row_carrier(table)
    env = Env(tables={"t": table})
    p = Proj("t", frozenset("AB"))
    for e in (p, Kernel(p), Compose(Converse(p), p)):
        got = eval_query(e, env)
        assert got == _left_fold(e, env)
        del got
        gc.collect()
        kept = [r for r in gc.get_objects()
                if isinstance(r, rel.Rel) and _maps_the_universe(r, universe)]
        assert not kept, (e, kept)


def test_a_dropped_table_keeps_no_row_universe():
    # a projection onto A B and the kernel of the projection onto A B C
    # enumerate the row universe of 3 attributes of 40 values (64,000
    # rows); once the table and the results are dropped, under 0.5 MiB of
    # what they built is kept.  (The kernel onto A B would build 2.56M
    # pairs, past 700 MB at peak under tracing, for no more coverage)
    dom = {a: tuple(f"{a.lower()}{v}" for v in range(40)) for a in "ABC"}
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        env = Env(tables={"t": parse_table_csv("A,B,C\na0,b0,c0\n", dom)})
        for e in (Proj("t", frozenset("AB")),
                  Kernel(Proj("t", frozenset("ABC")))):
            assert len(eval_query(e, env).pairs) == 40 ** 3
        del env
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 0.5 * 2 ** 20, kept


# ---------------------------------------------------------------------------
# typing on product carriers


def _typed(e, env):
    """`type_check`'s types of `e`, or the class, message and path of its
    error.  Each table is typed over a new scheme object, since a scheme
    keeps the universe and projection maps it was typed with, maybe
    enumerated twins."""
    fresh = {n: Table(Scheme(t.scheme.attributes), t.rows)
             for n, t in env.tables.items()}
    try:
        return type_check(e, Env(fresh, env.rels))
    except RelfdError as err:
        return type(err), str(err), getattr(err, "path", None)


def _twin(c):
    """The carrier `c` enumerated: a plain carrier of its name and
    elements."""
    return Carrier(c.name, tuple(c.elements))


def _typed_on_twins(e, env):
    """`_typed` with every row universe, sub-row carrier and fork target
    replaced by its enumerated twin: typing by elements, as it was before
    row carriers and pair carriers were products."""
    row_product, pair_carrier = tables.row_product, rel.pair_carrier
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tables, "row_product", lambda s, n: _twin(row_product(s, n)))
        m.setattr(rel, "pair_carrier", lambda a, b: _twin(pair_carrier(a, b)))
        return _typed(e, env)


@st.composite
def _typing_cases(draw):
    """(table "m", queries, bound): two to four movie attributes, whose
    domains of 0-3 values may be empty and hold a random set of rows, or
    are all empty, as the header-only table of `optimize` without
    `--table`; the bench's shapes, random chains, and queries that are
    ill-typed or name an unknown attribute, table or relation; and a
    carrier bound, mostly low."""
    names = draw(st.permutations(MOVIE_ATTRS))[:draw(st.integers(2, 4))]
    header = draw(st.booleans())
    dom = {a: tuple(f"{a[0].lower()}{v}"
                    for v in range(0 if header else draw(st.integers(0, 3))))
           for a in names}
    universe = list(itertools.product(*(dom[a] for a in names)))
    rows = draw(st.lists(st.sampled_from(universe), max_size=6)
                if universe else st.just([]))
    table = Table.make(Scheme(tuple((a, Carrier(a, dom[a])) for a in names)),
                       rows)
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    attrs = list(draw(st.sampled_from((names, names, MOVIE_ATTRS))))
    f, g, h = (frozenset({a}) for a in ("Title", "Director", "Actor"))
    k = frozenset({rnd.choice(attrs)})
    queries = [_template(t, f, g, h, k) for t in TEMPLATES]
    chains = [_random_chain(rnd, "U", attrs)[0] for _ in range(3)]
    queries += chains + [Compose(*chains[:2]), UnionOp(*chains[1:]),
                         Fork(chains[0], chains[2]),
                         Compose(Proj("m", g), Proj("m", g)),
                         Fork(Proj("m", g), Converse(Proj("m", g))),
                         Compose(Pid("m"), Pid("other")),
                         UnionOp(Pid("m"), RelRef("r"))]
    bound = draw(st.sampled_from((rel.CARRIER_LIMIT, -1, 0, 1, 8, 30, 200)))
    return table, queries, bound


@settings(max_examples=200, deadline=None, database=None)
@given(case=_typing_cases())
def test_product_carriers_type_as_their_enumerated_twins(case):
    # every carrier `type_check` returns equals, and hashes as, its
    # enumerated twin, and every two of them compare as their twins do;
    # typing on the twins raises the same error class, message and path.
    # Typing enumerates no product, so a carrier bound below the
    # universe's size changes none of it
    table, queries, bound = case
    env = Env(tables={"m": table})
    typed = []
    for e in queries:
        want = _typed_on_twins(e, env)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rel, "CARRIER_LIMIT", bound)
            got = _typed(e, env)
        if isinstance(got[0], Carrier):
            typed += got
            got = tuple(map(_twin, got))
        assert got == want, e
    for c in typed:
        assert c == _twin(c) and hash(c) == hash(_twin(c))
    for a, b in itertools.product(typed, repeat=2):
        assert (a == b) == (_twin(a) == _twin(b))


def _types_as_its_carriers(domains, types):
    """Whether a chain through a carrier rows(A,B,C) types: "A,B" with "C",
    and "A" with "B,C", both name one, so its elements decide.  `domains`
    gives the four domains ("-" for an empty one), and `types` whether
    the chain types."""
    e = Compose(Converse(Proj("m", {"A", "B,C"})), Proj("m", {"A,B", "C"}))
    scheme = Scheme(tuple((a, Carrier(a, tuple(v.strip("-"))))
                          for a, v in zip(("A,B", "C", "A", "B,C"),
                                          domains.split())))
    got = _typed(e, Env(tables={"m": Table(scheme, frozenset())}))
    if types:
        assert got == (row_carrier(scheme),) * 2
    else:
        assert got == (QueryTypeError, "at query: compose needs matching "
                       "middle carrier, got 'rows(A,B,C)' then "
                       "'rows(A,B,C)'", "query")


# equal one-row carriers, different one-row carriers, two empty carriers
SPLIT_NAME_CASES = (("x y x y", True), ("x y x z", False), ("- y x -", True))


def test_attribute_types_compare_as_their_carriers():
    for domains, types in SPLIT_NAME_CASES:
        _types_as_its_carriers(domains, types)


def test_a_window_over_a_huge_universe_enumerates_no_product(monkeypatch):
    # the window `g . pid . ker f . pid . h~`, alone and under a fork, on
    # a table of 6 attributes of 10 values each and 10 stored rows: typing,
    # evaluation and verification read the stored rows, and no row
    # universe of 10^6 rows or pair carrier is enumerated.  Rows 2j and
    # 2j + 1 agree on A alone
    names = "ABCDEF"
    dom = {a: tuple(f"{a.lower()}{v}" for v in range(10)) for a in names}
    rows = [(dom["A"][i // 2],) + tuple(dom[a][i * k % 10] for k, a in
                                        enumerate(names[1:], start=1))
            for i in range(10)]
    scheme = Scheme(tuple((a, Carrier(a, dom[a])) for a in names))
    env = Env(tables={"m": Table.make(scheme, rows)})
    f, g, h = frozenset("A"), frozenset("B"), frozenset("C")
    want = {((r2[2],), (r1[1],)) for r1 in rows for r2 in rows
            if r1[0] == r2[0]}
    forbid_product_enumeration(monkeypatch)
    for kind in ("alone", "fork"):
        window = _template(kind, f, g, h, frozenset("D"))
        got = eval_query(window, env)
        assert verify_equiv(window, window, env)
        if kind == "alone":
            assert got.pairs == want and len(want) == 20
    universe = row_carrier(scheme)
    assert len(universe) == 10 ** 6
    # a copy or pickle of a product is a product, equal and hashing the same
    for c in (universe, rel.pair_carrier(universe, universe)):
        for twin in (copy.copy(c), copy.deepcopy(c),
                     pickle.loads(pickle.dumps(c))):
            assert twin is not c and twin == c and hash(twin) == hash(c)
