import itertools
import random

import pytest
from hypothesis import given, strategies as st

from relfd import rel
from relfd.errors import CarrierMismatchError, ResourceLimitError, SchemeError
from relfd.oracles import carrier_from_json
from relfd.rel import (Atom, Carrier, Pair, Rel, Tup, bang, compose, converse,
                       empty, fork, identity, includes, intersect, is_entire,
                       is_function, is_injective, kernel, leq, pair_carrier,
                       product, proj1, proj2, top, union)

from conftest import (all_functions, all_rels, carrier,
                      forbid_product_enumeration)


def rel_of(src, tgt, *pairs):
    return Rel.make(src, tgt, pairs)


def apply_fn(f, v):
    """The one output of the function f at the source element v."""
    (out,) = [b for a, b in f.pairs if a == v]
    return out


# ---------------------------------------------------------------------------
# Hypothesis strategies


@st.composite
def sized_rel(draw, max_size=3, src=None, tgt=None):
    if src is None:
        src = carrier("A", draw(st.integers(1, max_size)))
    if tgt is None:
        tgt = carrier("B", draw(st.integers(1, max_size)))
    universe = list(itertools.product(src.elements, tgt.elements))
    pairs = draw(st.sets(st.sampled_from(universe))) if universe else set()
    return Rel(src, tgt, frozenset(pairs))


# ---------------------------------------------------------------------------
# compose / converse


def test_compose_identity_is_unit():
    a, b = carrier("A", 3), carrier("B", 2)
    for r in itertools.islice(all_rels(a, b), 0, 64, 7):
        assert compose(r, identity(a)) == r
        assert compose(identity(b), r) == r


def test_compose_single_existential():
    a = Carrier("A", (Atom("a1"), Atom("a2")))
    b = Carrier("B", (Atom("b"),))
    c = Carrier("C", (Atom("c"),))
    r = rel_of(a, b, (Atom("a1"), Atom("b")), (Atom("a2"), Atom("b")))
    s = rel_of(c, a, (Atom("c"), Atom("a1")))
    assert compose(r, s) == rel_of(c, b, (Atom("c"), Atom("b")))


def _compose_oracle(r, s):
    # definitional triple loop: b (r.s) c iff some a has b r a and a s c
    pairs = set()
    for c in s.source.elements:
        for b in r.target.elements:
            for a in r.source.elements:
                if (a, b) in r.pairs and (c, a) in s.pairs:
                    pairs.add((c, b))
                    break
    return Rel(s.source, r.target, frozenset(pairs))


def test_compose_matches_triple_loop_exhaustively():
    for sa, sb, sc in itertools.product((1, 2, 3), repeat=3):
        a, b, c = carrier("A", sa), carrier("B", sb), carrier("C", sc)
        for r in all_rels(b, c):
            for s in all_rels(a, b):
                assert compose(r, s) == _compose_oracle(r, s)


def test_compose_matches_triple_loop_random_size4():
    rnd = random.Random(4)
    a, b, c = carrier("A", 4), carrier("B", 4), carrier("C", 4)
    uni_r = list(itertools.product(b.elements, c.elements))
    uni_s = list(itertools.product(a.elements, b.elements))
    for _ in range(300):
        r = Rel(b, c, frozenset(rnd.sample(uni_r, rnd.randint(0, 16))))
        s = Rel(a, b, frozenset(rnd.sample(uni_s, rnd.randint(0, 16))))
        assert compose(r, s) == _compose_oracle(r, s)


def test_compose_carrier_mismatch_names_both():
    a, b = carrier("A", 2), carrier("B", 2)
    with pytest.raises(CarrierMismatchError) as err:
        compose(empty(a, b), empty(a, b))
    assert "'A'" in str(err.value) and "'B'" in str(err.value)


@given(sized_rel())
def test_converse_involution(r):
    assert converse(converse(r)) == r


def test_converse_of_identity():
    a = carrier("A", 3)
    assert converse(identity(a)) == identity(a)


@given(st.data())
def test_converse_antidistributes_over_compose(data):
    a, b, c = carrier("A", 2), carrier("B", 3), carrier("C", 2)
    r = data.draw(sized_rel(src=b, tgt=c))
    s = data.draw(sized_rel(src=a, tgt=b))
    assert converse(compose(r, s)) == compose(converse(s), converse(r))


def _random_rel(rnd, src, tgt):
    density = rnd.random()
    return Rel(src, tgt, frozenset((a, b) for a in src.elements
                                   for b in tgt.elements
                                   if rnd.random() < density))


def test_cached_index_and_converse_match_set_comprehensions():
    # each r is the left operand of many compositions, so all but the first
    # read its cached index; its converse and kernel are also asked twice
    rnd = random.Random(1302)
    for _ in range(40):
        a, b, c = (carrier(n, rnd.randint(1, 6)) for n in "ABC")
        r = _random_rel(rnd, b, c)
        for _ in range(2):
            assert converse(r).pairs == {(y, x) for x, y in r.pairs}
            assert kernel(r).pairs == {(x, z) for x, y in r.pairs
                                       for z, w in r.pairs if y == w}
        assert converse(r) is converse(r)
        for _ in range(12):
            s = _random_rel(rnd, a, b)
            assert compose(r, s).pairs == {(x, z) for x, y in s.pairs
                                           for w, z in r.pairs if y == w}
        assert "_by_input" in vars(r)


def test_cached_index_and_converse_stay_outside_equality_and_hash():
    rnd = random.Random(7)
    r = _random_rel(rnd, carrier("A", 5), carrier("B", 4))
    twin = Rel(r.source, r.target, frozenset(r.pairs))
    compose(r, identity(r.source))
    again = converse(converse(r))
    assert {"_by_input", "_converse"} <= vars(r).keys()
    assert not {"_by_input", "_converse"} & vars(twin).keys()
    assert r == twin and hash(r) == hash(twin) and repr(r) == repr(twin)
    # the converse of a converse is built afresh, not handed back
    assert again == r and again is not r and again.pairs is not r.pairs


# ---------------------------------------------------------------------------
# union / intersect / includes


def test_union_idempotent_and_empty_unit():
    a, b = carrier("A", 2), carrier("B", 2)
    for r in all_rels(a, b):
        assert union(r, r) == r
        assert union(empty(a, b), r) == r


def test_includes_reflexive_and_top():
    a, b = carrier("A", 2), carrier("B", 3)
    t = top(a, b)
    for r in all_rels(a, b):
        assert includes(r, r)
        assert includes(t, r)


def test_entire_iff_identity_below_kernel():
    a, b = carrier("A", 3), carrier("B", 3)
    ida = identity(a)
    for r in all_rels(a, b):
        assert includes(kernel(r), ida) == is_entire(r)


# ---------------------------------------------------------------------------
# kernel / leq


def test_kernel_of_identity_and_bang():
    a = carrier("A", 3)
    assert kernel(identity(a)) == identity(a)
    assert kernel(bang(a)) == top(a, a)


def test_kernel_groups_inputs_by_output():
    x = Carrier("X", (Atom("x1"), Atom("x2"), Atom("x3")))
    y = Carrier("Y", (Atom("p"), Atom("q")))
    f = rel_of(x, y, (Atom("x1"), Atom("p")), (Atom("x2"), Atom("p")),
               (Atom("x3"), Atom("q")))
    expected = {(Atom("x1"), Atom("x1")), (Atom("x1"), Atom("x2")),
                (Atom("x2"), Atom("x1")), (Atom("x2"), Atom("x2")),
                (Atom("x3"), Atom("x3"))}
    assert kernel(f).pairs == frozenset(expected)


def test_leq_bounds_for_entire_relations():
    a = carrier("A", 3)
    for r in all_rels(a, carrier("B", 2)):
        if is_entire(r):
            assert leq(bang(a), r)
            assert leq(r, identity(a))


def test_leq_identity_iff_injective():
    a, b = carrier("A", 3), carrier("B", 3)
    for f in all_functions(a, b):
        assert leq(identity(a), f) == is_injective(f)


def test_leq_rejects_different_sources():
    a, b = carrier("A", 2), carrier("B", 2)
    with pytest.raises(CarrierMismatchError):
        leq(identity(a), identity(b))


def _lists_fixture():
    # all lists of length <= 2 over {1, 2}, with element-set and bag views
    lists = ["", "1", "2", "11", "12", "21", "22"]
    src = Carrier("L", tuple(Atom(x) for x in lists))
    elems_of = {"": "{}", "1": "{1}", "2": "{2}", "11": "{1}",
                "12": "{12}", "21": "{12}", "22": "{2}"}
    bag_of = {"": "[]", "1": "[1]", "2": "[2]", "11": "[11]",
              "12": "[12]", "21": "[12]", "22": "[22]"}
    sets_c = Carrier("S", tuple(Atom(v) for v in ["{}", "{1}", "{2}", "{12}"]))
    bags_c = Carrier("M", tuple(
        Atom(v) for v in ["[]", "[1]", "[2]", "[11]", "[12]", "[22]"]))
    elems = Rel(src, sets_c,
                frozenset((Atom(k), Atom(v)) for k, v in elems_of.items()))
    bagify = Rel(src, bags_c,
                 frozenset((Atom(k), Atom(v)) for k, v in bag_of.items()))
    return elems, bagify


def test_element_set_view_less_injective_than_bag_view():
    elems, bagify = _lists_fixture()
    assert leq(elems, bagify)
    assert not leq(bagify, elems)


def test_leq_is_preorder_not_antisymmetric():
    a, b = carrier("A", 2), carrier("B", 2)
    rels = list(all_rels(a, b))
    for r in rels:
        assert leq(r, r)
    rnd = random.Random(1)
    for _ in range(300):
        r, s, t = rnd.choice(rels), rnd.choice(rels), rnd.choice(rels)
        if leq(r, s) and leq(s, t):
            assert leq(r, t)
    # distinct relations with equal kernels
    r1 = rel_of(a, b, (a.elements[0], b.elements[0]))
    r2 = rel_of(a, b, (a.elements[0], b.elements[1]))
    assert r1 != r2 and kernel(r1) == kernel(r2)
    assert leq(r1, r2) and leq(r2, r1)


# ---------------------------------------------------------------------------
# shunting and the injectivity adjunction


def test_shunting_rules_exhaustive_size2():
    a, b, c = carrier("A", 2), carrier("B", 2), carrier("C", 2)
    for f in all_functions(b, c):
        for r in all_rels(a, b):
            for s in all_rels(a, c):
                assert (includes(s, compose(f, r))
                        == includes(compose(converse(f), s), r))
    for f in all_functions(a, b):
        for r in all_rels(a, c):
            for s in all_rels(b, c):
                assert (includes(s, compose(r, converse(f)))
                        == includes(compose(s, f), r))


def test_injectivity_galois_randomized_size6():
    rnd = random.Random(6)
    a, b = carrier("A", 6), carrier("B", 6)
    c, d = carrier("C", 6), carrier("D", 6)
    uni_r = list(itertools.product(b.elements, c.elements))
    uni_s = list(itertools.product(a.elements, d.elements))
    for _ in range(200):
        f = Rel(a, b, frozenset(
            (x, rnd.choice(b.elements)) for x in a.elements))
        r = Rel(b, c, frozenset(rnd.sample(uni_r, rnd.randint(0, 12))))
        s = Rel(a, d, frozenset(rnd.sample(uni_s, rnd.randint(0, 12))))
        assert leq(compose(r, f), s) == leq(r, compose(s, converse(f)))


def test_union_injectivity_decomposition_exhaustive_size2():
    a, b = carrier("A", 2), carrier("B", 2)
    rels = list(all_rels(a, b))
    for x in rels:
        for r in rels:
            for s in rels:
                lhs = leq(x, union(r, s))
                rhs = (leq(x, r) and leq(x, s)
                       and includes(kernel(x), compose(converse(r), s)))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# fork / product / projections


def test_fork_pairs_function_outputs():
    a, b, c = carrier("A", 3), carrier("B", 2), carrier("C", 2)
    for f in itertools.islice(all_functions(a, b), 3):
        for g in itertools.islice(all_functions(a, c), 3):
            fg = fork(f, g)
            assert is_function(fg)
            for x in a.elements:
                assert apply_fn(fg, x) == Pair(apply_fn(f, x), apply_fn(g, x))


def test_fork_is_least_upper_bound_small():
    c, a, b, d = (carrier("C", 2), carrier("A", 2), carrier("B", 2),
                  carrier("D", 2))
    for r in all_rels(c, a):
        for s in all_rels(c, b):
            forked = fork(r, s)
            for t in all_rels(c, d):
                assert leq(forked, t) == (leq(r, t) and leq(s, t))


def test_fork_of_projections_recovers_pairs():
    p = pair_carrier(carrier("A", 2), carrier("B", 2))
    recovered = fork(proj1(p), proj2(p))
    assert kernel(recovered) == identity(p)
    for e in p.elements:
        assert apply_fn(recovered, e) == e


def test_product_of_identities_is_identity():
    a, b = carrier("A", 2), carrier("B", 2)
    p = pair_carrier(a, b)
    assert product(identity(a), identity(b)) == identity(p)


def test_product_acts_componentwise():
    a, b = carrier("A", 2), carrier("B", 2)
    c, d = carrier("C", 2), carrier("D", 2)
    for f in all_functions(a, c):
        for g in all_functions(b, d):
            fg = product(f, g)
            for x in a.elements:
                for y in b.elements:
                    assert apply_fn(fg, Pair(x, y)) == Pair(
                        apply_fn(f, x), apply_fn(g, y))


def test_product_kernel_is_componentwise_agreement():
    a, b = carrier("A", 2), carrier("B", 2)
    for f in all_functions(a, a):
        for g in all_functions(b, b):
            k = kernel(product(f, g))
            kf, kg = kernel(f), kernel(g)
            for x, y in itertools.product(pair_carrier(a, b).elements,
                                          repeat=2):
                expect = ((x.left, y.left) in kf.pairs
                          and (x.right, y.right) in kg.pairs)
                assert ((x, y) in k.pairs) == expect


def test_projection_examples():
    a, b = carrier("A", 2), carrier("B", 2)
    p = pair_carrier(a, b)
    for e in p.elements:
        assert apply_fn(proj1(p), e) == e.left
        assert apply_fn(proj2(p), e) == e.right
    with pytest.raises(SchemeError):
        proj1(a)


def test_pair_carrier_projections_reach_its_own_components():
    # A is empty, so both pair carriers below are the same empty carrier
    a = Carrier("A", ())
    b1, b2 = Carrier("B", (Atom("x"),)), Carrier("B", (Atom("y"),))
    pair_carrier(a, b1)
    p = pair_carrier(a, b2)
    assert proj2(p).target == b2 and proj1(p).target == a
    # a pair carrier built another way projects onto the values it holds
    q = carrier_from_json(rel.carrier_to_json(pair_carrier(b1, b2)))
    assert proj2(q).target == Carrier("right((B*B))", (Atom("y"),))


# ---------------------------------------------------------------------------
# constants and predicates


def test_identity_top_empty_bang():
    a, b = carrier("A", 3), carrier("B", 2)
    assert identity(a).pairs == frozenset((x, x) for x in a.elements)
    assert len(top(a, b).pairs) == 6
    assert empty(a, b).pairs == frozenset()
    assert is_function(bang(a))
    assert kernel(bang(a)) == top(a, a)


def test_function_predicates():
    a, b = carrier("A", 2), carrier("B", 2)
    assert is_function(identity(a))
    assert not is_injective(bang(a))
    assert is_injective(bang(carrier("Single", 1)))
    assert not is_entire(empty(a, b))


def test_intersect_is_pairwise_set_intersection():
    # the partial-identity interplay is exercised in the tables tests
    a, b = carrier("A", 2), carrier("B", 2)
    rels = list(all_rels(a, b))
    for r in rels[:8]:
        for s in rels[:8]:
            assert intersect(r, s).pairs == r.pairs & s.pairs


def test_render_golden():
    a = Carrier("A", (Atom("a1"), Atom("a2")))
    b = Carrier("B", (Atom("b1"), Atom("b2")))
    r = rel_of(a, b, (Atom("a1"), Atom("b2")), (Atom("a2"), Atom("b1")))
    assert r.render() == "b1 <- a2\nb2 <- a1"


def test_rel_equality_is_carrier_name_sensitive():
    a1 = Carrier("A", (Atom("x"),))
    a2 = Carrier("Other", (Atom("x"),))
    assert identity(a1) != Rel(a2, a2, identity(a1).pairs)


def test_make_validates_membership():
    a, b = carrier("A", 2), carrier("B", 2)
    with pytest.raises(SchemeError):
        Rel.make(a, b, [(Atom("nope"), b.elements[0])])


def test_equal_carriers_hash_equally_and_large_membership_works():
    big = carrier("Big", 100_000)
    twin = Carrier("Big", tuple(big.elements))
    assert twin is not big and twin == big and hash(twin) == hash(big)
    assert hash(big) == hash((big.name, len(big)))
    assert {big: 1}[twin] == 1
    assert Carrier("Other", big.elements) != big
    assert all(v in big for v in big.elements[::997])
    assert Atom("big100000") not in big and Atom("b0") not in big


def test_carriers_of_different_sizes_differ_without_enumerating(monkeypatch):
    # a plain carrier of a product's name is told apart by its size, in
    # either order: comparing never builds the 4M pairs of U * U
    p = pair_carrier(carrier("U", 2000), carrier("U", 2000))
    forbid_product_enumeration(monkeypatch)
    plain = Carrier(p.name, ())
    assert plain != p and p != plain


def _enumerates(c):
    """Whether reading the carrier's elements stays within the bound; past
    it, the error names the carrier, its size and the bound."""
    try:
        return len(c.elements) == len(c)
    except ResourceLimitError as err:
        assert str(err) == (f"carrier {c.name} has {len(c)} elements, over "
                            f"the {rel.CARRIER_LIMIT} bound")
        return False


def test_a_product_enumerates_up_to_the_bound(monkeypatch):
    monkeypatch.setattr(rel, "CARRIER_LIMIT", 6)
    at = pair_carrier(carrier("A", 2), carrier("B", 3))
    past = pair_carrier(carrier("A", 7), carrier("B", 1))
    assert _enumerates(at) and not _enumerates(past)
    # membership reads the element set, which is built from the elements
    assert Pair(Atom("a1"), Atom("b2")) in at
    with pytest.raises(ResourceLimitError):
        Pair(Atom("a0"), Atom("b0")) in past
    # a carrier built from its elements holds them, whatever their number
    assert _enumerates(carrier("C", 7))


def test_an_empty_product_reads_no_component(monkeypatch):
    # a product of the 7-attribute, 10-value universe, past the bound, and
    # an empty carrier has no elements, in either order: neither component
    # is enumerated, nor walked
    universe = Carrier("rows(A0,A1,A2,A3,A4,A5,A6)", None,
                       tuple(carrier(f"A{i}", 10) for i in range(7)), tuple)
    empty_carrier = Carrier("E", ())

    def unwalked(c):
        raise AssertionError(f"carrier {c.name!r} was walked")

    monkeypatch.setattr(Carrier, "_walk", unwalked)
    for p in (pair_carrier(universe, empty_carrier),
              pair_carrier(empty_carrier, universe)):
        assert len(p) == 0 and p.elements == ()
        assert Pair(universe.components[0].elements[0], Atom("e")) not in p
    with pytest.raises(ResourceLimitError):
        universe.elements


def test_a_plain_carrier_and_a_product_of_one_name_compare_by_walking(
        monkeypatch):
    # with the bound patched to 5, a plain carrier of a product's name and
    # size equals the product when it holds the same elements in the same
    # order, in either order of comparison; the product, a pair carrier of
    # products too, is walked, not enumerated, and nothing raises
    a, b = carrier("A", 3), carrier("B", 2)
    ab = Carrier("rows(A,B)", None, (a, b), tuple)
    products = [lambda: pair_carrier(a, a), lambda: pair_carrier(ab, ab)]
    cases = []
    for make in products:
        elements = make().elements
        wrong = elements[:-1] + (Pair(Atom("x"), Atom("y")),)
        cases += [(make, elements, True), (make, elements[::-1], False),
                  (make, wrong, False)]
    monkeypatch.setattr(rel, "CARRIER_LIMIT", 5)
    forbid_product_enumeration(monkeypatch)
    for make, elements, equal in cases:
        p = make()
        plain = Carrier(p.name, elements)
        assert len(p) > 5 and hash(plain) == hash(p)
        assert (plain == p, p == plain) == (equal, equal)


def test_equal_tups_built_apart_hash_equally():
    items = (Atom("t1"), Pair(Atom("d1"), Tup((Atom("a1"),))))
    row = Tup(items)
    twin = Tup(tuple(list(items)))
    assert twin is not row and twin == row and hash(twin) == hash(row)
    assert {row: 1}[twin] == 1
    assert Tup(()) == Tup(())
    assert Tup((Atom("t2"),) + items[1:]) != row
