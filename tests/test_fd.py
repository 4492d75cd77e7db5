import itertools
import random

import pytest

from relfd import rel
from relfd.errors import ParseError, SchemeError
from relfd.fd import (AttrFd, fd_projections, fd_violation, mutual_dependency,
                      oracle_violation, parse_fd, parse_fd_lines,
                      satisfies_algebraic, satisfies_general_quantified,
                      satisfies_oracle, satisfies_typed, stored_fd_projections,
                      typecheck_join, typecheck_union)
from relfd.rel import Atom, Carrier, Rel, Tup, bang, identity, kernel, top
from relfd.tables import (Scheme, Table, parse_table_csv, pid, proj_fn,
                          row_carrier)

from conftest import (all_functions, all_rels, carrier,
                      kernel_representatives)


def pilot_scheme():
    def dom(name, *vals):
        return (name, Carrier(name, tuple(Atom(v) for v in vals)))
    return Scheme((dom("Pilot", "p1", "p2"), dom("Flight", "f1", "f2"),
                   dom("Date", "d1", "d2"), dom("Departs", "t1", "t2")))


def prow(*vals):
    return Tup(tuple(Atom(v) for v in vals))


FLIGHT_DATE_PILOT = parse_fd("Flight Date -> Pilot")


# ---------------------------------------------------------------------------
# grammar


def test_parse_fd_grammar():
    fd = parse_fd("Flight, Date -> Pilot")
    assert fd.antecedent == {"Flight", "Date"}
    assert fd.consequent == {"Pilot"}
    assert parse_fd("Flight Date->Pilot") == fd
    assert str(fd) == "Date Flight -> Pilot"


def test_parse_fd_lines_with_comments_and_errors():
    fds = parse_fd_lines("# header\n\nA -> B\nB, C -> A  # trailing\n")
    assert fds == [parse_fd("A -> B"), parse_fd("B C -> A")]
    with pytest.raises(ParseError) as err:
        parse_fd_lines("A -> B\nA -> \n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_fd("A -> B -> C")
    with pytest.raises(ParseError):
        parse_fd("9A -> B")


# ---------------------------------------------------------------------------
# oracle checker


def test_oracle_pilot_examples():
    s = pilot_scheme()
    good = Table.make(s, {prow("p1", "f1", "d1", "t1"),
                          prow("p1", "f1", "d1", "t2")})
    assert satisfies_oracle(good, FLIGHT_DATE_PILOT)
    bad = Table.make(s, {prow("p1", "f1", "d1", "t1"),
                         prow("p2", "f1", "d1", "t1")})
    assert not satisfies_oracle(bad, FLIGHT_DATE_PILOT)
    witness = oracle_violation(bad, FLIGHT_DATE_PILOT)
    assert witness is not None and witness[0] != witness[1]


def test_oracle_vacuous_on_empty_table():
    s = pilot_scheme()
    t = Table.make(s, set())
    for fd in (FLIGHT_DATE_PILOT, parse_fd("Pilot -> Departs")):
        assert satisfies_oracle(t, fd)


# ---------------------------------------------------------------------------
# algebraic checker


def test_algebraic_agrees_on_pilot_examples():
    s = pilot_scheme()
    for rows in ({prow("p1", "f1", "d1", "t1"), prow("p1", "f1", "d1", "t2")},
                 {prow("p1", "f1", "d1", "t1"), prow("p2", "f1", "d1", "t1")}):
        t = Table.make(s, rows)
        assert (satisfies_algebraic(t, FLIGHT_DATE_PILOT)
                == satisfies_oracle(t, FLIGHT_DATE_PILOT))


def test_algebraic_empty_antecedent_on_full_table():
    s = Scheme((("X", Carrier("X", (Atom("0"), Atom("1")))),
                ("Y", Carrier("Y", (Atom("0"), Atom("1"))))))
    full = Table.make(s, set(row_carrier(s).elements))
    fd = AttrFd(frozenset(), frozenset({"Y"}))
    assert not satisfies_algebraic(full, fd)
    assert not satisfies_oracle(full, fd)


def test_empty_consequent_always_holds():
    s = pilot_scheme()
    t = Table.make(s, {prow("p1", "f1", "d1", "t1"),
                       prow("p2", "f2", "d2", "t2")})
    fd = AttrFd(frozenset({"Pilot"}), frozenset())
    assert satisfies_algebraic(t, fd)
    assert satisfies_oracle(t, fd)


# ---------------------------------------------------------------------------
# typed checker


def test_typed_identity_reflexivity():
    a = carrier("A", 3)
    for f in all_functions(a, carrier("B", 2)):
        assert satisfies_typed(identity(a), f, f)


def test_typed_reflexivity_on_partial_identities():
    s = pilot_scheme()
    rnd = random.Random(0)
    universe = row_carrier(s).elements
    for _ in range(20):
        t = Table(s, frozenset(rnd.sample(universe, rnd.randint(0, 6))))
        for attrs in ({"Pilot"}, {"Flight", "Date"}, set()):
            f = proj_fn(s, attrs)
            assert satisfies_typed(pid(t), f, f)


def test_typed_with_blind_input_observer():
    # with the constant observer on inputs, a total surjective relation
    # satisfies the dependency exactly when g cannot distinguish anything
    a, b = carrier("A", 3), carrier("B", 3)
    for r in all_rels(a, b):
        if not (rel.is_entire(r)
                and {y for _, y in r.pairs} == set(b.elements)):
            continue
        for g in kernel_representatives(b):
            assert (satisfies_typed(r, bang(a), g)
                    == (kernel(g) == top(b, b)))


def test_typed_requires_functions_and_carriers():
    a, b = carrier("A", 2), carrier("B", 2)
    r = rel.top(a, b)
    with pytest.raises(SchemeError):
        satisfies_typed(r, rel.top(a, a), identity(b))
    with pytest.raises(Exception):
        satisfies_typed(r, identity(b), identity(b))


# ---------------------------------------------------------------------------
# quantified oracle vs typed form


def test_quantified_equals_typed_exhaustive_small():
    for sa, sb in itertools.product((1, 2), repeat=2):
        a, b = carrier("A", sa), carrier("B", sb)
        for r in all_rels(a, b):
            for f in all_functions(a, carrier("F", 2)):
                for g in all_functions(b, carrier("G", 2)):
                    assert (satisfies_general_quantified(r, f, g)
                            == satisfies_typed(r, f, g))


def test_quantified_equals_typed_exhaustive_size3():
    # observers only act through their kernels, so one function per
    # partition of each side covers every observer behaviour
    for sa, sb in itertools.product((1, 2, 3), repeat=2):
        a, b = carrier("A", sa), carrier("B", sb)
        fs = kernel_representatives(a)
        gs = kernel_representatives(b)
        for r in all_rels(a, b):
            for f in fs:
                for g in gs:
                    assert (satisfies_general_quantified(r, f, g)
                            == satisfies_typed(r, f, g))


def test_quantified_examples():
    a, b = carrier("A", 2), carrier("B", 2)
    r = Rel(a, b, frozenset({(a.elements[0], b.elements[0]),
                             (a.elements[0], b.elements[1])}))
    assert not satisfies_general_quantified(r, identity(a), identity(b))
    assert satisfies_general_quantified(rel.empty(a, b), identity(a),
                                        identity(b))


# ---------------------------------------------------------------------------
# mutual dependency


def test_mutual_self_collapses_to_plain_dependency():
    a, b = carrier("A", 2), carrier("B", 2)
    for r in all_rels(a, b):
        for f in kernel_representatives(a):
            for g in kernel_representatives(b):
                assert (mutual_dependency(r, r, f, g)
                        == satisfies_typed(r, f, g))


def test_mutual_two_single_row_tables():
    s = pilot_scheme()
    t1 = Table.make(s, {prow("p1", "f1", "d1", "t1")})
    t2 = Table.make(s, {prow("p2", "f1", "d1", "t1")})
    f = proj_fn(s, {"Flight", "Date"})
    g = proj_fn(s, {"Pilot"})
    assert not mutual_dependency(pid(t1), pid(t2), f, g)
    assert mutual_dependency(pid(t1), rel.empty(*(pid(t1).source,) * 2), f, g)


# ---------------------------------------------------------------------------
# union type checking


def test_union_report_pinpoints_mutual_failure():
    s = pilot_scheme()
    t1 = Table.make(s, {prow("p1", "f1", "d1", "t1")})
    t2 = Table.make(s, {prow("p2", "f1", "d1", "t1")})
    f = proj_fn(s, {"Flight", "Date"})
    g = proj_fn(s, {"Pilot"})
    report = typecheck_union(pid(t1), pid(t2), f, g)
    assert not report
    assert report.failed == ("mutual",)
    assert report.witness is not None
    (a1, b1), (a2, b2) = report.witness
    assert a1 != a2  # one tuple from each side


def test_union_report_pinpoints_failing_operand():
    s = pilot_scheme()
    bad = Table.make(s, {prow("p1", "f1", "d1", "t1"),
                         prow("p2", "f1", "d1", "t1")})
    good = Table.make(s, {prow("p1", "f2", "d2", "t1")})
    f = proj_fn(s, {"Flight", "Date"})
    g = proj_fn(s, {"Pilot"})
    report = typecheck_union(pid(bad), pid(good), f, g)
    assert not report
    assert "left" in report.failed
    (a1, b1), (a2, b2) = report.witness
    assert a1 in {r for r, _ in pid(bad).pairs}
    assert a2 in {r for r, _ in pid(bad).pairs}


def test_union_with_itself_reduces_to_single_conjunct():
    s = pilot_scheme()
    t = Table.make(s, {prow("p1", "f1", "d1", "t1"),
                       prow("p2", "f2", "d1", "t1")})
    f = proj_fn(s, {"Flight", "Date"})
    g = proj_fn(s, {"Pilot"})
    report = typecheck_union(pid(t), pid(t), f, g)
    assert (bool(report) == report.left_holds == report.right_holds
            == report.mutual_holds)


def test_union_boolean_equals_decomposition_exhaustive_size2():
    a, b = carrier("A", 2), carrier("B", 2)
    for r in all_rels(a, b):
        for s in all_rels(a, b):
            for f in kernel_representatives(a):
                for g in kernel_representatives(b):
                    report = typecheck_union(r, s, f, g)
                    assert bool(report) == (report.left_holds
                                            and report.right_holds
                                            and report.mutual_holds)


def test_fd_violation_is_none_when_fd_holds():
    a, b = carrier("A", 2), carrier("B", 2)
    for r in all_rels(a, b):
        for f in kernel_representatives(a):
            for g in kernel_representatives(b):
                violation = fd_violation(r, r, f, g)
                assert (violation is None) == satisfies_typed(r, f, g)


# ---------------------------------------------------------------------------
# join type checking


def test_join_rule_randomized_soundness():
    rnd = random.Random(7)
    trials = 0
    premise_pairs = 0
    while trials < 1000:
        trials += 1
        na, nb, nc = (rnd.randint(1, 4) for _ in range(3))
        a, b, c = carrier("A", na), carrier("B", nb), carrier("C", nc)
        r = Rel(a, b, frozenset(
            p for p in itertools.product(a.elements, b.elements)
            if rnd.random() < 0.4))
        s = Rel(a, c, frozenset(
            p for p in itertools.product(a.elements, c.elements)
            if rnd.random() < 0.4))
        f = Rel(a, a, frozenset((x, rnd.choice(a.elements))
                                for x in a.elements))
        g = Rel(b, b, frozenset((x, rnd.choice(b.elements))
                                for x in b.elements))
        h = Rel(c, c, frozenset((x, rnd.choice(c.elements))
                                for x in c.elements))
        if satisfies_typed(r, f, g) and satisfies_typed(s, f, h):
            premise_pairs += 1
            # the embedded tripwire raises if this were ever False
            assert typecheck_join(r, s, f, g, h)
    assert premise_pairs >= 100


def test_join_collapses_to_consequent_pairing():
    a, b = carrier("A", 2), carrier("B", 2)
    for r in all_rels(a, b):
        for f in kernel_representatives(a):
            for g in kernel_representatives(b):
                assert (typecheck_join(r, r, f, g, g)
                        == satisfies_typed(r, f, g))


def test_join_with_identity_observer():
    a, b, c = carrier("A", 2), carrier("B", 2), carrier("C", 2)
    f = identity(a)
    for g in itertools.islice(all_functions(b, b), 2):
        for h in itertools.islice(all_functions(c, c), 2):
            r = Rel(a, b, frozenset(zip(a.elements, b.elements)))
            s = Rel(a, c, frozenset(zip(a.elements, c.elements)))
            assert satisfies_typed(r, f, g)
            assert satisfies_typed(s, f, h)
            assert typecheck_join(r, s, f, g, h)


# ---------------------------------------------------------------------------
# cross-checker agreement and downward closure


def test_three_checkers_agree_on_random_tables():
    s = pilot_scheme()
    rnd = random.Random(3)
    universe = row_carrier(s).elements
    names = s.names
    for _ in range(60):
        t = Table(s, frozenset(rnd.sample(universe, rnd.randint(0, 8))))
        ante = frozenset(rnd.sample(names, rnd.randint(1, 3)))
        cons = frozenset(rnd.sample(names, rnd.randint(1, 2)))
        fd = AttrFd(ante, cons)
        o = satisfies_oracle(t, fd)
        assert satisfies_algebraic(t, fd) == o
        f, g = fd_projections(t, fd)
        assert satisfies_typed(pid(t), f, g) == o


def test_stored_row_routes_agree_with_oracle_on_random_tables():
    # sidecar domains declare values the rows never use, so the stored rows
    # are a small part of the universe; rows draw from few values, so both
    # verdicts are common
    rnd = random.Random(2)
    names = ["A", "B", "C", "D", "E"]
    verdicts = {True: 0, False: 0}
    for _ in range(120):
        used = {n: rnd.randint(1, 3) for n in names}
        declared = {n: [str(v) for v in range(used[n] + rnd.randint(0, 4))]
                    for n in names}
        product = list(itertools.product(
            *(map(str, range(used[n])) for n in names)))
        rows = rnd.sample(product, min(len(product), rnd.randint(0, 60)))
        csv = "\n".join([",".join(names)] + [",".join(r) for r in rows])
        t = parse_table_csv(csv + "\n", declared)
        assert len(t.rows) == len(rows)
        for _ in range(4):
            fd = AttrFd(frozenset(rnd.sample(names, rnd.randint(1, 3))),
                        frozenset(rnd.sample(names, rnd.randint(1, 3))))
            o = satisfies_oracle(t, fd)
            assert satisfies_algebraic(t, fd) == o
            p, f, g = stored_fd_projections(t, fd)
            assert len(p.source) == len(t.rows)
            assert satisfies_typed(p, f, g) == o
            verdicts[o] += 1
    assert min(verdicts.values()) >= 100


def test_downward_closure_on_subtables():
    s = pilot_scheme()
    rnd = random.Random(11)
    universe = row_carrier(s).elements
    f = proj_fn(s, {"Flight", "Date"})
    g = proj_fn(s, {"Pilot"})
    checked = 0
    for _ in range(200):
        rows = rnd.sample(universe, rnd.randint(0, 8))
        t = Table(s, frozenset(rows))
        if not satisfies_typed(pid(t), f, g):
            continue
        sub = Table(s, frozenset(rnd.sample(rows, rnd.randint(0, len(rows)))))
        assert satisfies_typed(pid(sub), f, g)
        checked += 1
    assert checked >= 40
