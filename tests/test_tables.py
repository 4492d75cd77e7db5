import pytest

from relfd import rel
from relfd.errors import (ParseError, ResourceLimitError, SchemeError,
                          UnknownAttributeError)
from relfd.rel import Atom, Carrier, Pair, Tup, identity, kernel, top
from relfd.oracles import encode_pairs
from relfd.tables import (Scheme, Table, enumerate_tables, load_schema_json,
                          parse_table_csv, pid, proj_fn, row_carrier,
                          table_to_csv)

from conftest import FIXTURES


def binary(name):
    return Carrier(name, (Atom("0"), Atom("1")))


def scheme(*names):
    return Scheme(tuple((n, binary(n)) for n in names))


def row(*values):
    return Tup(tuple(Atom(v) for v in values))


# ---------------------------------------------------------------------------
# row carriers


def test_row_carrier_lex_order_two_binary():
    rc = row_carrier(scheme("X", "Y"))
    assert list(rc.elements) == [
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


def test_row_carrier_empty_scheme():
    rc = row_carrier(Scheme(()))
    assert rc.elements == (Tup(()),)


def test_row_carrier_three_binary():
    assert len(row_carrier(scheme("X", "Y", "Z"))) == 8


def test_row_carrier_respects_limit():
    # a universe past the carrier bound is built and sized; only reading
    # its rows raises
    big = Scheme(tuple(
        (f"A{i}", Carrier(f"A{i}", tuple(Atom(str(v)) for v in range(10))))
        for i in range(7)))
    universe = row_carrier(big)
    assert len(universe) == 10 ** 7 > rel.CARRIER_LIMIT
    with pytest.raises(ResourceLimitError,
                       match=r"^carrier rows\(A0,A1,A2,A3,A4,A5,A6\) has "
                             r"10000000 elements, over the 1000000 bound$"):
        universe.elements


# ---------------------------------------------------------------------------
# partial identities


def test_pid_empty_and_full():
    s = scheme("X", "Y")
    rc = row_carrier(s)
    assert pid(Table.make(s, set())).pairs == frozenset()
    assert pid(Table.make(s, set(rc.elements))) == identity(rc)


def test_pid_is_symmetric_subidentity():
    s = scheme("X", "Y", "Z")
    rc = row_carrier(s)
    t = Table.make(s, set(rc.elements[:5:2]))
    p = pid(t)
    assert rel.converse(p) == p
    assert rel.includes(identity(rc), p)


def test_pid_intersection_composition_exhaustive():
    # over every pair of tables on an 8-row universe
    s = scheme("X", "Y", "Z")
    universe = row_carrier(s).elements
    tables = [Table(s, frozenset(
        r for i, r in enumerate(universe) if bits >> i & 1))
        for bits in range(256)]
    pids = [pid(t) for t in tables]
    for i, t1 in enumerate(tables):
        p1 = pids[i]
        for j, t2 in enumerate(tables):
            p2 = pids[j]
            both = pid(Table(s, t1.rows & t2.rows))
            meet = rel.intersect(p1, p2)
            assert both == meet
            assert rel.compose(p1, p2) == meet


# ---------------------------------------------------------------------------
# projection functions


def test_proj_full_set_is_injective():
    s = scheme("X", "Y", "Z")
    full = proj_fn(s, {"X", "Y", "Z"})
    assert rel.is_function(full)
    assert rel.is_injective(full)


def test_proj_empty_set_has_top_kernel():
    s = scheme("X", "Y")
    p = proj_fn(s, set())
    rc = row_carrier(s)
    assert rel.is_function(p)
    assert kernel(p) == top(rc, rc)


def test_proj_kernel_of_union_is_kernel_of_fork():
    s = scheme("X", "Y", "Z")
    names = ["X", "Y", "Z"]
    for xa in range(8):
        for ya in range(8):
            x = {n for i, n in enumerate(names) if xa >> i & 1}
            y = {n for i, n in enumerate(names) if ya >> i & 1}
            joint = proj_fn(s, x | y)
            forked = rel.fork(proj_fn(s, x), proj_fn(s, y))
            assert kernel(joint) == kernel(forked)


def test_proj_total_and_monotone():
    s = scheme("X", "Y", "Z")
    names = ["X", "Y", "Z"]
    subsets = [{n for i, n in enumerate(names) if bits >> i & 1}
               for bits in range(8)]
    for x in subsets:
        assert rel.is_function(proj_fn(s, x))
        for y in subsets:
            assert rel.leq(proj_fn(s, x), proj_fn(s, x | y))


def test_proj_is_order_insensitive():
    s = scheme("X", "Y", "Z")
    assert proj_fn(s, ("Z", "X")) == proj_fn(s, ("X", "Z"))
    assert s.select(("Z", "X")) == s.select(("X", "Z")) == ("X", "Z")


def test_proj_unknown_attribute():
    with pytest.raises(UnknownAttributeError):
        proj_fn(scheme("X"), {"Nope"})


# ---------------------------------------------------------------------------
# pair encoding


def test_encode_pairs_ternary():
    doms = tuple((n, Carrier(n, (Atom(v1), Atom(v2))))
                 for n, v1, v2 in (("P", "a", "d"), ("Q", "b", "e"),
                                   ("R", "c", "f")))
    s = Scheme(doms)
    t = Table.make(s, {row("a", "b", "c"), row("d", "e", "f")})
    enc = encode_pairs(t)
    assert enc.pairs == frozenset({
        (Atom("a"), Pair(Atom("b"), Atom("c"))),
        (Atom("d"), Pair(Atom("e"), Atom("f"))),
    })


def test_encode_pairs_binary_is_plain_relation():
    s = scheme("X", "Y")
    t = Table.make(s, {row("0", "1"), row("1", "0")})
    enc = encode_pairs(t)
    assert enc.pairs == frozenset({(Atom("0"), Atom("1")),
                                   (Atom("1"), Atom("0"))})


def test_encode_pairs_arity4_right_fold():
    s = scheme("W", "X", "Y", "Z")
    t = Table.make(s, {row("0", "1", "0", "1")})
    enc = encode_pairs(t)
    assert enc.pairs == frozenset({
        (Atom("0"), Pair(Atom("1"), Pair(Atom("0"), Atom("1"))))})


def test_encode_pairs_preserves_row_count():
    s = scheme("X", "Y", "Z")
    universe = row_carrier(s).elements
    for bits in range(0, 256, 17):
        t = Table(s, frozenset(
            r for i, r in enumerate(universe) if bits >> i & 1))
        assert len(encode_pairs(t).pairs) == len(t.rows)


def test_encode_pairs_needs_arity_two():
    with pytest.raises(SchemeError):
        encode_pairs(Table.make(scheme("X"), {row("0")}))


# ---------------------------------------------------------------------------
# table enumeration


def test_enumerate_tables_order_and_count():
    s = scheme("X")
    tables = list(enumerate_tables(s, 2))
    assert len(row_carrier(s)) == 2 and len(tables) == 4
    assert [len(t.rows) for t in tables] == [0, 1, 1, 2]


# ---------------------------------------------------------------------------
# CSV / schema ingestion


def test_csv_load_and_active_domains():
    t = parse_table_csv("B,A\nx,1\ny,2\nx,2\n")
    assert t.scheme.names == ("B", "A")
    domains = dict(t.scheme.attributes)
    assert list(domains["A"].elements) == ["1", "2"]
    assert list(domains["B"].elements) == ["x", "y"]
    assert len(t.rows) == 3


def test_csv_duplicate_rows_warn_and_dedup(capsys):
    t = parse_table_csv("A\n1\n1\n2\n1\n")
    assert len(t.rows) == 2
    assert capsys.readouterr() == ("", "dropped 2 duplicate row(s) at load\n")
    parse_table_csv("A\n1\n2\n")
    assert capsys.readouterr() == ("", "")


def test_csv_ragged_row_is_an_error_with_line():
    with pytest.raises(ParseError) as err:
        parse_table_csv("A,B\n1\n")
    assert err.value.line == 2


def test_csv_declared_domain_checked():
    declared = load_schema_json('{"A": ["0", "1"]}')
    with pytest.raises(ParseError) as err:
        parse_table_csv("A\n7\n", declared)
    assert err.value.line == 2
    t = parse_table_csv("A\n0\n", declared)
    assert list(dict(t.scheme.attributes)["A"].elements) == ["0", "1"]


def test_csv_quoting_dialect():
    t = parse_table_csv('A,B\n"x,1","say ""hi"""\n')
    r = next(iter(t.rows))
    assert list(r) == ["x,1", 'say "hi"']


def test_schema_json_validation():
    with pytest.raises(ParseError):
        load_schema_json("[1,2]")
    with pytest.raises(ParseError):
        load_schema_json('{"A": ["0", "0"]}')
    with pytest.raises(ParseError):
        parse_table_csv("A\n0\n", load_schema_json('{"Z": ["0"]}'))


def test_table_to_csv_round_trip():
    t = parse_table_csv((FIXTURES / "pilots.csv").read_text())
    again = parse_table_csv(table_to_csv(t))
    assert again == t


def test_table_make_validates_rows():
    s = scheme("X")
    with pytest.raises(SchemeError):
        Table.make(s, {row("0", "1")})
    with pytest.raises(SchemeError):
        Table.make(s, {row("7")})


def test_table_json_round_trip_is_lossless():
    from relfd.oracles import table_from_json
    from relfd.tables import table_to_json
    declared = load_schema_json(
        '{"A": ["0", "1", "2"], "B": ["x", "y"]}')
    t = parse_table_csv("A,B\n0,x\n2,y\n", declared)
    assert table_from_json(table_to_json(t)) == t


def test_table_from_json_rejects_a_value_outside_its_domain():
    from relfd.oracles import table_from_json
    obj = {"attributes": [{"name": "A", "domain": ["0", "1"]},
                          {"name": "B", "domain": ["x"]}],
           "rows": [["0", "x"], ["2", "x"]]}
    with pytest.raises(SchemeError, match="value 2 outside domain of 'A'"):
        table_from_json(obj)
