import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from relfd import fd as fd_module, rel
from relfd.errors import ParseError, SchemeError
from relfd.fd import (AttrFd, fd_positions, fd_projections, fd_violation,
                      mutual_dependency, oracle_violation, parse_fd,
                      parse_fd_lines, parse_fd_lines_per_line,
                      satisfies_algebraic,
                      satisfies_general_quantified, satisfies_oracle,
                      satisfies_refinement, satisfies_shunted,
                      satisfies_typed, scan_violation, stored_fd_projections,
                      typecheck_join, typecheck_union, violating_pair)
from relfd.rel import (Atom, Carrier, Rel, Tup, bang, identity, kernel,
                       render_value, top)
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


# Every fragment the two parsers could read differently: names good and
# bad, the separators, arrows whole and split, every line break
# `str.splitlines` knows and `str.split` does not, Unicode blanks, comments.
FD_TOKENS = st.sampled_from(["A", "_x1", "9A", "\u00e9", " ", "\t", ",", "->",
                             "-", ">", "\n", "\r\n", "\r", "\x0b", "\x0c",
                             "\x1c", "\x1f", "\u00a0", "\u2028", "#"])
PLAIN_NAMES = st.lists(st.sampled_from(["A", "_x1", "Flight", "b2"]),
                       min_size=1, max_size=3)
PLAIN_SEP = st.sampled_from([" ", ",", "\t", ", ", "  "])
PLAIN_LINE = st.one_of(
    st.builds(lambda lhs, rhs, sep, pad: pad + sep.join(lhs) + pad + "->"
              + pad + sep.join(rhs) + pad,
              PLAIN_NAMES, PLAIN_NAMES, PLAIN_SEP, st.sampled_from(["", " "])),
    st.sampled_from(["", " ", "\t"]))
PLAIN_TEXT = st.lists(PLAIN_LINE, max_size=5).map("\n".join)


def _splice(text, at, token):
    at %= len(text) + 1
    return text[:at] + token + text[at:]


# plain files, plain files with one token spliced in, and token soups
FD_TEXT = st.one_of(
    PLAIN_TEXT,
    st.builds(_splice, PLAIN_TEXT, st.integers(0, 200), FD_TOKENS),
    st.lists(FD_TOKENS, max_size=24).map("".join))


def _parse_or_error(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return f"ParseError: {err}"


@seed(18)
@settings(max_examples=1500, deadline=None, database=None)
@given(text=FD_TEXT)
def test_parse_fd_lines_equals_the_per_line_parser(text):
    # the same list of FDs, or the same error message with its line number
    assert _parse_or_error(parse_fd_lines, text) == \
        _parse_or_error(parse_fd_lines_per_line, text)


def test_plain_fd_files_take_the_one_pass_path(monkeypatch):
    # shaped like the benchmark's 500-attribute sets, with the separators
    # and blank lines a plain file may also hold
    rnd = random.Random(18)
    want, lines = [], []
    for i in range(800):
        lhs = rnd.sample([f"A{n}" for n in range(500)], rnd.randint(1, 3))
        rhs = [f"A{rnd.randrange(500)}"]
        want.append(AttrFd(lhs, rhs))
        sep = (" ", ",", ", ", "\t")[i % 4]
        lines.append(sep.join(lhs) + " -> " + " ".join(rhs))
        if i % 100 == 0:
            lines.append(" \t")
    text = "\n".join(lines) + "\n"
    assert parse_fd_lines_per_line(text) == want

    def per_line(*args, **kwargs):
        raise AssertionError("the per-line parser ran on a plain file")

    monkeypatch.setattr(fd_module, "parse_fd", per_line)
    assert parse_fd_lines(text) == want


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


def test_satisfies_oracle_agrees_with_oracle_violation():
    # satisfies_oracle scans the rows unsorted, oracle_violation sorted
    s = pilot_scheme()
    rnd = random.Random(4)
    universe = row_carrier(s).elements
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        t = Table(s, frozenset(rnd.sample(universe, rnd.randint(0, 8))))
        fd = AttrFd(frozenset(rnd.sample(s.names, rnd.randint(1, 3))),
                    frozenset(rnd.sample(s.names, rnd.randint(1, 2))))
        o = satisfies_oracle(t, fd)
        assert o == (oracle_violation(t, fd) is None)
        verdicts[o] += 1
    assert min(verdicts.values()) >= 60


def ordered_violation(rows, xs, ys):
    """The full ordered double loop, (r, r) and both orders included."""
    for r1 in rows:
        for r2 in rows:
            if (all(r1[p] == r2[p] for p in xs)
                    and not all(r1[p] == r2[p] for p in ys)):
                return (r1, r2)
    return None


def test_violating_pair_is_the_first_pair_of_the_ordered_double_loop():
    s = pilot_scheme()
    rnd = random.Random(8)
    universe = row_carrier(s).elements
    hits = 0
    for _ in range(400):
        rows = rnd.sample(universe, rnd.randint(0, 12))
        fd = AttrFd(frozenset(rnd.sample(s.names, rnd.randint(1, 3))),
                    frozenset(rnd.sample(s.names, rnd.randint(1, 2))))
        at = fd_positions(s, fd)
        for order in (rows, sorted(rows, key=render_value), frozenset(rows)):
            pair = violating_pair(order, *at)
            assert pair == ordered_violation(list(order), *at)
            hits += pair is not None
    assert 400 <= hits <= 800


def _fd_positions_by_select(scheme, fd):
    """`fd_positions` as it was, through `Scheme.select` and `names.index`:
    the oracle of the position-map route."""
    return ([scheme.names.index(n) for n in scheme.select(fd.antecedent)],
            [scheme.names.index(n) for n in scheme.select(fd.consequent)])


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from("ABCDEFG"), unique=True, max_size=6),
       st.sets(st.sampled_from("ABCDEFGH"), max_size=4),
       st.sets(st.sampled_from("ABCDEFGH"), max_size=4))
def test_fd_positions_equal_the_select_route(names, ante, cons):
    # "H" is in no scheme, and a scheme lacks the letters it did not draw
    c = Carrier("D", (Atom("d"),))
    scheme = Scheme(tuple((n, c) for n in names))
    fd = AttrFd(frozenset(ante), frozenset(cons))
    try:
        expected = _fd_positions_by_select(scheme, fd)
    except Exception as err:  # the same error, message and all
        with pytest.raises(type(err)) as got:
            fd_positions(scheme, fd)
        assert str(got.value) == str(err)
    else:
        assert fd_positions(scheme, fd) == expected


def test_stored_projections_are_proj_fn_restricted_to_the_stored_rows():
    # domains listed out of value order
    s = Scheme(tuple((n, Carrier(n, (Atom("1"), Atom("0"), Atom("2"))))
                     for n in ("X", "Y", "Z")))
    universe = row_carrier(s).elements
    t = Table.make(s, set(universe[3::4]))
    # the sides {Z, X}, {Y} and an empty antecedent
    for fd in (AttrFd({"Z", "X"}, {"Y"}), AttrFd(set(), {"Z", "X"})):
        p, x, y = stored_fd_projections(t, fd)
        stored = p.source
        assert p == identity(stored)
        assert len(stored) == len(t.rows) and set(stored.elements) == t.rows
        for f, attrs in ((x, fd.antecedent), (y, fd.consequent)):
            assert f.source == stored and rel.is_function(f)
            assert f.pairs == {(a, b) for a, b in proj_fn(s, attrs).pairs
                               if a in t.rows}
            assert set(f.target.elements) == {b for _, b in f.pairs}


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


def _random_fd(rnd, names):
    """An FD of one of four shapes: trivial (consequent inside the
    antecedent, maybe empty), overlapping sides, disjoint sides, or an
    empty antecedent."""
    shape = rnd.choice(["trivial", "overlap", "disjoint", "empty"])
    ante = set(rnd.sample(names, rnd.randint(1, len(names))))
    if shape == "trivial":
        cons = set(rnd.sample(sorted(ante), rnd.randint(0, len(ante))))
    elif shape == "overlap":
        cons = {rnd.choice(sorted(ante))} | set(
            rnd.sample(names, rnd.randint(1, len(names))))
    elif shape == "disjoint":
        rest = [n for n in names if n not in ante] or names
        cons = set(rnd.sample(rest, rnd.randint(1, len(rest))))
        ante -= cons
    else:
        ante, cons = set(), set(rnd.sample(names, rnd.randint(1, 2)))
    return AttrFd(ante, cons)


def test_linear_routes_equal_the_oracles_on_random_tables():
    # tables of 0-200 CSV rows, a third of them with repeated rows, from
    # few enough values per attribute that both verdicts are common; half
    # the tables declare domains with values the rows never use
    rnd = random.Random(10)
    shuffle = random.Random(0)
    seen = dict.fromkeys(["holds", "refuted", "trivial", "overlap",
                          "empty antecedent", "duplicate rows",
                          "unused domain values"], 0)
    for _ in range(150):
        names = ["A", "B", "C", "D", "E"][:rnd.randint(2, 5)]
        used = {n: rnd.randint(1, 8) for n in names}
        declared = None
        if rnd.random() < 0.5:
            declared = {n: [str(v) for v in range(used[n] + rnd.randint(1, 3))]
                        for n in names}
            seen["unused domain values"] += 1
        rows = [[str(rnd.randrange(used[n])) for n in names]
                for _ in range(rnd.randint(0, 200))]
        if rnd.random() < 0.3:
            rows = rnd.sample(rows, len(rows) // 2) * 2
        csv = "\n".join(",".join(r) for r in [names] + rows) + "\n"
        t = parse_table_csv(csv, declared)
        seen["duplicate rows"] += len(t.rows) < len(rows)
        ordered = sorted(t.rows, key=render_value)
        shuffled = shuffle.sample(ordered, len(ordered))
        for _ in range(3):
            fd = _random_fd(rnd, names)
            at = fd_positions(t.scheme, fd)
            witness = scan_violation(ordered, *at)
            assert witness == oracle_violation(t, fd)
            holds = satisfies_oracle(t, fd)
            assert (witness is None) == holds
            assert satisfies_shunted(Carrier("stored", tuple(ordered)),
                                     *at) == \
                satisfies_shunted(Carrier("stored", tuple(shuffled)),
                                  *at) == \
                satisfies_algebraic(t, fd) == holds
            assert satisfies_refinement(ordered, *at) == \
                satisfies_typed(*stored_fd_projections(t, fd)) == holds
            seen["holds" if holds else "refuted"] += 1
            seen["trivial"] += fd.consequent <= fd.antecedent
            seen["overlap"] += bool(fd.antecedent & fd.consequent
                                    and fd.consequent - fd.antecedent)
            seen["empty antecedent"] += not fd.antecedent
    assert min(seen.values()) >= 40, seen


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
