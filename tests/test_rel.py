import itertools
import random

import pytest
from hypothesis import given, strategies as st

from relfd import rel
from relfd.errors import CarrierMismatchError, SchemeError
from relfd.rel import (Atom, Carrier, Pair, Rel, bang, compose, converse,
                       empty, fork, identity, includes, intersect, is_entire,
                       is_function, is_injective, kernel, leq, pair_carrier,
                       product, proj1, proj2, top, union)

from conftest import all_functions, all_rels, carrier


def rel_of(src, tgt, *pairs):
    return Rel.make(src, tgt, pairs)


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
                assert rel.apply_fn(fg, x) == Pair(rel.apply_fn(f, x),
                                                   rel.apply_fn(g, x))


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
        assert rel.apply_fn(recovered, e) == e


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
                    assert rel.apply_fn(fg, Pair(x, y)) == Pair(
                        rel.apply_fn(f, x), rel.apply_fn(g, y))


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
        assert rel.apply_fn(proj1(p), e) == e.left
        assert rel.apply_fn(proj2(p), e) == e.right
    with pytest.raises(SchemeError):
        proj1(a)


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
    assert hash(big) == hash((big.name, big.elements))
    assert {big: 1}[twin] == 1
    assert Carrier("Other", big.elements) != big
    assert all(v in big for v in big.elements[::997])
    assert Atom("big100000") not in big and Atom("b0") not in big
