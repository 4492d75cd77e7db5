import functools
import itertools
import json
import random

import pytest

from relfd import rel, tables
from relfd.errors import CarrierMismatchError, ParseError, QueryTypeError
from relfd.fd import AttrFd, parse_fd
from relfd.infer import FIRING_LIMIT
from relfd.query import (MAX_QUERY_DEPTH, Compose, Converse, Env, Fork,
                         Kernel, Pid, Proj, RelRef, UnionOp, _normalize,
                         _rewrite_once, count_pid_nodes, discharged,
                         eval_query, from_json, rewrite_selfjoin, to_json,
                         type_check, type_check_pair, verify_equiv)
from relfd.rel import Atom, Tup, identity
from relfd.tables import Table, parse_table_csv, pid, proj_fn, row_carrier

from conftest import FIXTURES, carrier

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

    monkeypatch.setattr(tables, "sub_row_carrier", broken)
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
                assert type_check_pair(q, out, env) == type_check(q, env)
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
