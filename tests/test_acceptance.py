"""Acceptance suite: one checked criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings as they complete.
"""

import json
import random
import time
from contextlib import contextmanager

from relfd.fd import AttrFd, parse_fd, satisfies_oracle, satisfies_typed
from relfd.infer import derive
from relfd.query import Env, count_pid_nodes, eval_query, from_json, \
    rewrite_selfjoin, verify_equiv
from relfd.rel import Atom, Pair, Tup
from relfd.search import Scope, search_law, two_tuple_witness
from relfd.oracles import encode_pairs
from relfd.tables import (Scheme, Table, load_table, pid,
                          proj_fn, row_carrier)
from relfd.typed import satisfies_algebraic
from relfd.rel import Carrier

from conftest import FIXTURES


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    note = f" ({elapsed:.2f}s)" if budget is None else (
        f" ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert budget is None or elapsed < budget, (
        f"criterion {number} overran its {budget}s budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} {label}: PASS{note}")


def numeric_scheme(names, domain_sizes):
    """The names, each over the numeric atoms 0 .. domain_sizes - 1."""
    values = tuple(str(i) for i in range(domain_sizes))
    return Scheme(tuple((name, Carrier(name, values)) for name in names))


def test_criterion_1_definition_equivalence():
    with criterion(1, "three dependency checkers agree on all 256 tables "
                      "x 49 FDs", budget=10.0):
        scheme = numeric_scheme(["A", "B", "C"], 2)
        universe = row_carrier(scheme).elements
        names = scheme.names
        subsets = [frozenset(n for i, n in enumerate(names) if bits >> i & 1)
                   for bits in range(1, 8)]
        fds = [AttrFd(x, y) for x in subsets for y in subsets]
        assert len(fds) == 49
        projections = {attrs: proj_fn(scheme, attrs) for attrs in subsets}
        checked = 0
        for bits in range(256):
            table = Table(scheme, frozenset(
                r for i, r in enumerate(universe) if bits >> i & 1))
            p = pid(table)
            for fd in fds:
                o = satisfies_oracle(table, fd)
                a = satisfies_algebraic(table, fd)
                t = satisfies_typed(p, projections[fd.antecedent],
                                    projections[fd.consequent])
                assert o == a == t, (bits, str(fd), o, a, t)
                checked += 1
        assert checked == 256 * 49


def test_criterion_2_movies_optimization():
    with criterion(2, "self-join elimination verified on the fixtures",
                   budget=1.0):
        expr = from_json(json.loads(
            (FIXTURES / "movies_query.json").read_text()))
        fds = [parse_fd("Title -> Director")]
        rewritten = rewrite_selfjoin(expr, fds)
        assert count_pid_nodes(rewritten) == 1

        good = load_table(str(FIXTURES / "movies.csv"))
        env = Env(tables={"movies": good})
        assert eval_query(expr, env) == eval_query(rewritten, env)
        assert verify_equiv(expr, rewritten, env)

        bad = load_table(str(FIXTURES / "movies_violating.csv"))
        env_bad = Env(tables={"movies": bad})
        result = verify_equiv(expr, rewritten, env_bad)
        assert not result
        assert result.witness == (Tup((Atom("a2"),)), Tup((Atom("d1"),)))


def test_criterion_3_algebraic_law_suite():
    with criterion(3, "law sweeps clean at carrier size 3, corrupted "
                      "variant refuted", budget=60.0):
        scope = Scope(max_carrier=3)
        sound = ("converse_of_compose", "converse_involution",
                 "shunt_function_left", "shunt_function_right",
                 "injectivity_galois", "fd_trading", "union_injectivity",
                 "fork_least_upper_bound", "fd_consequent_pairing")
        for law_id in sound:
            assert search_law(law_id, scope) is None, law_id
        assert search_law("galois_corrupted", scope) is not None


def test_criterion_4_inference_soundness_randomized():
    with criterion(4, "1000 random tables: every derived FD holds"):
        rnd = random.Random(0)
        names_pool = ["A", "B", "C", "D", "E"]
        goals_checked = 0
        derived_checked = 0
        for _ in range(1000):
            n_attrs = rnd.randint(2, 5)
            names = names_pool[:n_attrs]
            scheme = numeric_scheme(names, 2)
            universe = row_carrier(scheme).elements
            rows = rnd.sample(universe,
                              rnd.randint(0, min(20, len(universe))))
            table = Table(scheme, frozenset(rows))
            def attr_set(limit):
                k = rnd.randint(1, min(limit, len(names)))
                return frozenset(rnd.sample(names, k))

            candidates = [AttrFd(attr_set(3), attr_set(2))
                          for _ in range(rnd.randint(2, 5))]
            axioms = [fd for fd in candidates
                      if satisfies_oracle(table, fd)]
            for _ in range(3):
                goal = AttrFd(attr_set(3), attr_set(2))
                goals_checked += 1
                if derive(axioms, goal) is not None:
                    derived_checked += 1
                    assert satisfies_oracle(table, goal), (
                        table, [str(a) for a in axioms], str(goal))
        assert goals_checked == 3000
        assert derived_checked >= 300  # the check is far from vacuous


def test_criterion_5_completeness_cross_check():
    with criterion(5, "derive fails exactly when a two-row witness exists "
                      "(200 random pairs)"):
        rnd = random.Random(1)
        names = ["A", "B", "C", "D"]
        disagreements = 0
        witnesses = 0
        for _ in range(200):
            axioms = [
                AttrFd(frozenset(rnd.sample(names, rnd.randint(1, 2))),
                       frozenset(rnd.sample(names, rnd.randint(1, 2))))
                for _ in range(rnd.randint(0, 4))]
            goal = AttrFd(frozenset(rnd.sample(names, rnd.randint(1, 2))),
                          frozenset(rnd.sample(names, rnd.randint(1, 2))))
            tree = derive(axioms, goal)
            witness = two_tuple_witness(axioms, goal)
            if (tree is None) != (witness is not None):
                disagreements += 1
            if witness is not None:
                witnesses += 1
                assert all(satisfies_oracle(witness, fd) for fd in axioms)
                assert not satisfies_oracle(witness, goal)
        assert disagreements == 0
        assert witnesses >= 20  # both outcomes are exercised


def test_criterion_6_union_and_join_type_rules():
    with criterion(6, "merge/join typing rules exhaustive at carrier "
                      "size 3"):
        scope = Scope(max_carrier=3)
        # merge rule: the verdict on R|S equals its 3-conjunct decomposition
        # on every assignment in scope
        assert search_law("union_fd_typing", scope) is None
        # join rule: no assignment has true premises and a false conclusion
        assert search_law("join_fd_typing", scope) is None


def test_criterion_7_pair_encoding_golden():
    with criterion(7, "nested-pair encoding of the two-row ternary table"):
        def dom(name, *vals):
            return (name, Carrier(name, tuple(Atom(v) for v in vals)))
        scheme = Scheme((dom("First", "a", "d"), dom("Second", "b", "e"),
                         dom("Third", "c", "f")))
        table = Table.make(scheme, {
            Tup((Atom("a"), Atom("b"), Atom("c"))),
            Tup((Atom("d"), Atom("e"), Atom("f")))})
        encoded = encode_pairs(table)
        assert encoded.pairs == frozenset({
            (Atom("a"), Pair(Atom("b"), Atom("c"))),
            (Atom("d"), Pair(Atom("e"), Atom("f")))})
        assert encoded.render() == "(b,c) <- a\n(e,f) <- d"
