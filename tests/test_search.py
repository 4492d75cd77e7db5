import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from relfd import bitrel, rel, search, tables
from relfd.errors import (InternalCheckError, ResourceLimitError,
                          UnknownLawError)
from relfd.fd import (AttrFd, fd_positions, parse_fd, satisfies_oracle,
                      violating_pair)
from relfd.infer import attr_closure, derive, mentioned_attrs
from relfd.laws import (LAW_REGISTRY, LAW_SUITE, _distinct, _first_bit,
                        _first_false, _firsts, _join_violation, _ker_through,
                        search_law_bruteforce)
from relfd.rel import Atom, Tup
from relfd.search import Scope, search_law, search_tables, two_tuple_witness
from relfd.tables import Table, enumerate_tables, row_carrier, table_to_csv

CORRUPTED = ("galois_corrupted", "fork_lub_corrupted",
             "union_typing_corrupted", "join_converse_corrupted")


def fds(*texts):
    return [parse_fd(t) for t in texts]


def rel_to_mask(r):
    """The bitmask of `bitrel.mask_to_rel`: bit ``i * |target| + j`` is set
    when r holds the i-th source and the j-th target element."""
    n = len(r.target)
    src_index = {v: i for i, v in enumerate(r.source.elements)}
    tgt_index = {v: j for j, v in enumerate(r.target.elements)}
    return sum(1 << (src_index[a] * n + tgt_index[b]) for a, b in r.pairs)


# ---------------------------------------------------------------------------
# two-tuple witnesses


def test_two_tuple_witness_shape():
    w = two_tuple_witness(fds("A -> B"), parse_fd("B -> A"))
    assert w is not None
    assert w.scheme.names == ("A", "B")
    assert table_to_csv(w) == "A,B\n0,0\n1,0\n"
    assert satisfies_oracle(w, parse_fd("A -> B"))
    assert not satisfies_oracle(w, parse_fd("B -> A"))


def test_two_tuple_none_when_derivable():
    assert two_tuple_witness(fds("A -> B", "B -> C"),
                             parse_fd("A -> C")) is None


def test_two_tuple_with_empty_antecedent_goal():
    goal = AttrFd(frozenset(), frozenset({"A"}))
    w = two_tuple_witness([], goal)
    assert w is not None and len(w.rows) == 2
    assert not satisfies_oracle(w, goal)


def test_two_tuple_agrees_on_values_inside_closure():
    axioms = fds("A -> B", "C -> D")
    goal = parse_fd("A -> D")
    w = two_tuple_witness(axioms, goal)
    closure = attr_closure(axioms, goal.antecedent)
    idx = {n: i for i, n in enumerate(w.scheme.names)}
    r1, r2 = sorted(w.rows)
    for name in w.scheme.names:
        agrees = r1[idx[name]] == r2[idx[name]]
        assert agrees == (name in closure)


# ---------------------------------------------------------------------------
# table search


def test_search_tables_minimal_witness_first():
    w = search_tables(fds("A -> B"), parse_fd("B -> A"), Scope(max_rows=3))
    assert w is not None and len(w.rows) == 2
    # canonical order pins the witness exactly
    zero, one = Atom("0"), Atom("1")
    assert w.rows == frozenset({Tup((zero, zero)), Tup((one, zero))})


def test_search_tables_single_row_scope_finds_nothing():
    assert search_tables(fds(), parse_fd("A -> B"),
                         Scope(max_rows=1)) is None


def test_search_tables_without_two_distinct_rows_takes_no_closure(
        monkeypatch):
    # one row, or one value per attribute (two rows of it are equal), is
    # too little for a witness: the answer is None before any closure
    def no_closure(fds, attrs):
        raise AssertionError("the search took a closure")

    monkeypatch.setattr(search, "attr_closure", no_closure)
    for scope in (*(Scope(max_rows=k, domain_sizes=1) for k in (2, 3, 5)),
                  Scope(max_rows=1), Scope(max_rows=1, domain_sizes=3)):
        assert search_tables(fds("A -> B"), parse_fd("B -> A"),
                             scope) is None, scope


def test_search_tables_derivable_goal_has_no_model():
    assert search_tables(fds("A -> B", "B -> C"), parse_fd("A -> C"),
                         Scope(max_rows=3)) is None


def test_search_tables_deterministic():
    scope = Scope(max_rows=2, domain_sizes=3)
    first = search_tables(fds("A -> B"), parse_fd("B -> A"), scope)
    second = search_tables(fds("A -> B"), parse_fd("B -> A"), scope)
    assert first == second


def test_search_tables_answers_every_domain_size_alike(monkeypatch):
    # the witness lists "0" and "1", the values its rows use, so a scope of
    # two or more values answers as `Scope()` does, and a huge one in no
    # more time; one row answers None before any closure whatever its domain
    def no_closure(fds, attrs):
        raise AssertionError("the search took a closure")

    axioms = fds("A B -> C D")
    want = search_tables(axioms, parse_fd("C -> A"), Scope())
    assert want.scheme.names == tuple("ABCD")
    start = time.perf_counter()
    for scope in (Scope(domain_sizes=333_333),
                  Scope(max_rows=10 ** 20, domain_sizes=10 ** 20)):
        assert search_tables(axioms, parse_fd("A B -> C"), scope) is None
        found = search_tables(axioms, parse_fd("C -> A"), scope)
        assert found == want
        assert all(dom.elements == ("0", "1")
                   for _, dom in found.scheme.attributes)
    assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(search, "attr_closure", no_closure)
    assert search_tables(axioms, parse_fd("C -> A"),
                         Scope(max_rows=1, domain_sizes=10 ** 20)) is None


def test_search_tables_matches_two_tuple_existence_on_random_pairs():
    rnd = random.Random(42)
    names = ["A", "B", "C", "D"]
    scope = Scope(max_rows=2)
    for _ in range(200):
        axioms = [AttrFd(frozenset(rnd.sample(names, rnd.randint(1, 2))),
                         frozenset(rnd.sample(names, rnd.randint(1, 2))))
                  for _ in range(rnd.randint(0, 3))]
        goal = AttrFd(frozenset(rnd.sample(names, rnd.randint(1, 2))),
                      frozenset(rnd.sample(names, rnd.randint(1, 2))))
        by_search = search_tables(axioms, goal, scope)
        by_two_tuple = two_tuple_witness(axioms, goal)
        assert (by_search is None) == (by_two_tuple is None)
        assert (by_search is None) == (derive(axioms, goal) is not None)
        if by_search is not None:
            assert all(satisfies_oracle(by_search, fd) for fd in axioms)
            assert not satisfies_oracle(by_search, goal)


def full_scheme(attrs, scope):
    """The sorted attributes, each over the scope's whole domain, the
    numeric atoms 0 .. domain_sizes - 1: what the oracles here enumerate."""
    values = tuple(str(i) for i in range(scope.domain_sizes))
    return tables.Scheme(tuple((name, rel.Carrier(name, values))
                               for name in sorted(attrs)))


def same_witness(found, first):
    """`search_tables`' answer against an oracle's first witness over the
    full domains: both None, or the same attribute names and rows, with
    the found witness listing only "0" and "1"."""
    if found is None or first is None:
        return found is first
    return (found.scheme.names == first.scheme.names
            and found.rows == first.rows
            and all(dom.elements == ("0", "1")
                    for _, dom in found.scheme.attributes))


def literal_search(axioms, goal, scope):
    """Every table in scope, all sizes, canonical order: the first model."""
    attrs = set(goal.antecedent | goal.consequent)
    for fd in axioms:
        attrs |= fd.antecedent | fd.consequent
    scheme = full_scheme(attrs, scope)
    for table in enumerate_tables(scheme, scope.max_rows):
        if (all(satisfies_oracle(table, fd) for fd in axioms)
                and not satisfies_oracle(table, goal)):
            return table
    return None


DOM_SIZES = (1, 2, 2, 3, 3)


def test_search_tables_matches_the_literal_all_sizes_search():
    # universes of at most 16 rows at max_rows 4 (36 at 3) keep the literal
    # search cheap; the domain size is 1 in a fifth of the draws
    rnd = random.Random(6)
    names = ["A", "B", "C", "D"]
    seen = {"refuted": 0, "derivable": 0, "dom1": 0}
    witness_rows = set()

    def side(pool):
        return frozenset(rnd.sample(pool, rnd.randint(1, 2)))

    for case in range(300):
        pool = rnd.sample(names, rnd.randint(2, 4))
        axioms = [AttrFd(side(pool), side(pool))
                  for _ in range(rnd.randint(0, 2))]
        goal = AttrFd(side(pool), side(pool))
        n_attrs = len(set(goal.antecedent | goal.consequent).union(
            *(fd.antecedent | fd.consequent for fd in axioms)))
        max_rows = case % 4 + 1
        limit = {1: 81, 2: 81, 3: 36, 4: 16}[max_rows]
        while True:
            dom = rnd.choice(DOM_SIZES)
            if dom ** n_attrs <= limit:
                break
        scope = Scope(max_rows=max_rows, domain_sizes=dom)
        found = search_tables(axioms, goal, scope)
        assert same_witness(found, literal_search(axioms, goal, scope))
        derivable = derive(axioms, goal) is not None
        if derivable:
            assert found is None
        else:
            assert found is None or len(found.rows) == 2
        seen["derivable"] += derivable
        if found is not None:
            seen["refuted"] += 1
            witness_rows.add(max_rows)
        seen["dom1"] += dom == 1
    assert witness_rows == {2, 3, 4}
    assert min(seen.values()) >= 20, seen


def test_search_tables_builds_only_the_witness(monkeypatch):
    built = []
    init = Table.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Table, "__init__", counted)
    for axioms, goal, scope in (
            (fds("A -> B"), "B -> A", Scope(max_rows=4, domain_sizes=3)),
            (fds("A -> B", "B -> C"), "A -> C", Scope(max_rows=3,
                                                      domain_sizes=3)),
            (fds("C -> A"), "A -> C", Scope(max_rows=2, domain_sizes=4)),
            (fds(), "A -> B", Scope(max_rows=1))):
        built.clear()
        found = search_tables(axioms, parse_fd(goal), scope)
        assert len(built) == (found is not None), goal
        if found is not None:
            assert built[0][0] is found.scheme


def count_tables(universe, max_rows):
    """Number of tables with at most `max_rows` rows over `universe` rows:
    what the enumerating oracles here walk."""
    return sum(math.comb(universe, k)
               for k in range(min(max_rows, universe) + 1))


WALK_LIMIT = 10 ** 7


def table_walk_search(axioms, goal, scope):
    """The table walk the pair walk replaced: every table of at most two
    rows, by row count then row content, each judged by `violating_pair`
    on its rows.  Its inputs keep it under `WALK_LIMIT` tables."""
    attrs = sorted(mentioned_attrs(axioms, goal.antecedent | goal.consequent))
    walked = count_tables(scope.domain_sizes ** len(attrs), 2)
    assert walked <= WALK_LIMIT, f"{walked} tables are too many to walk"
    if scope.max_rows < 2:
        return None
    scheme = full_scheme(attrs, scope)
    axioms_at = [fd_positions(scheme, fd) for fd in axioms]
    goal_at = fd_positions(scheme, goal)
    for table in enumerate_tables(scheme, 2):
        if (all(violating_pair(table.rows, *at) is None for at in axioms_at)
                and violating_pair(table.rows, *goal_at) is not None):
            return table
    return None


def test_search_tables_matches_the_table_walk_on_large_universes():
    # bench-shaped FD sets: a chain a -> b (-> c) and a group of the other
    # attributes determining one chain member; the goal is the chain read
    # forwards (derivable) or backwards (refutable).  Universes of 243-729
    # rows: 4 attributes of 4 or 5 values, or 5 or 6 of 3; a derivable goal
    # walks every pair, so its universe stays at 256 or under.
    rnd = random.Random(2210)
    shapes = {True: [(4, 4), (5, 3)], False: [(4, 4), (4, 5), (5, 3), (6, 3)]}
    seen = {"witness": 0, "none_walked": 0, "one_row": 0}
    for case in range(32):
        derivable = case % 2 == 0
        n_attrs, dom = rnd.choice(shapes[derivable])
        names = sorted(rnd.sample("ABCDEF", n_attrs))
        chain = rnd.sample(names, rnd.randint(2, 3))
        rest = [n for n in names if n not in chain]
        axioms = [AttrFd(frozenset([x]), frozenset([y]))
                  for x, y in zip(chain, chain[1:])]
        if rest:
            axioms.append(AttrFd(frozenset(rest),
                                 frozenset([rnd.choice(chain)])))
        a, z = (chain[0], chain[-1]) if derivable else (chain[-1], chain[0])
        goal = AttrFd(frozenset([a]), frozenset([z]))
        assert (derive(axioms, goal) is not None) == derivable
        max_rows = case // 2 % 4 + 1
        scope = Scope(max_rows=max_rows, domain_sizes=dom)
        found = search_tables(axioms, goal, scope)
        assert same_witness(found, table_walk_search(axioms, goal, scope))
        if max_rows == 1:
            seen["one_row"] += 1
        elif found is None:
            seen["none_walked"] += 1
        else:
            assert not derivable and len(found.rows) == 2
            seen["witness"] += 1
    assert min(seen.values()) >= 3, seen


SIDES = st.sets(st.sampled_from("ABCD"), max_size=2)
DOMAIN = st.sampled_from([2, 3, 1])
SCOPES = st.tuples(st.sampled_from([2, 3, 4, 1]), DOMAIN)  # rows, values


@seed(24)
@settings(max_examples=250, deadline=None, database=None)
@given(axioms=st.lists(st.tuples(SIDES, SIDES), max_size=3),
       goal=st.tuples(SIDES, st.sets(st.sampled_from("ABCD"), min_size=1,
                                     max_size=2)),
       scope=SCOPES)
def test_closure_search_matches_the_literal_searches(axioms, goal, scope):
    # the first witness or None, as the pair walk judged by `violating_pair`
    # gives them, and as the all-sizes literal search does where it is
    # cheap; sides may be empty, domains of size 1
    axioms = [AttrFd(x, y) for x, y in axioms]
    goal = AttrFd(*goal)
    max_rows, dom = scope
    n_attrs = len(mentioned_attrs(axioms, goal.antecedent | goal.consequent))
    scope = Scope(max_rows=max_rows, domain_sizes=dom)
    found = search_tables(axioms, goal, scope)
    assert same_witness(found, table_walk_search(axioms, goal, scope))
    if count_tables(dom ** n_attrs, max_rows) < 3000:
        assert same_witness(found, literal_search(axioms, goal, scope))


@seed(25)
@settings(max_examples=250, deadline=None, database=None)
@given(axioms=st.lists(st.tuples(SIDES, SIDES), max_size=3),
       goal=st.tuples(SIDES, st.sets(st.sampled_from("ABCD"), min_size=1,
                                     max_size=2)),
       scope=SCOPES)
def test_first_witness_is_row_0_and_a_0_1_row(axioms, goal, scope):
    # the fact `search_tables` rests on, checked on the table walk: the
    # first witness holds row 0, and the other row takes each domain's
    # second value where it differs from row 0
    axioms = [AttrFd(x, y) for x, y in axioms]
    goal = AttrFd(*goal)
    scope = Scope(*scope)
    found = table_walk_search(axioms, goal, scope)
    if found is None:
        return
    row0 = row_carrier(found.scheme).elements[0]
    assert row0 in found.rows
    (other,) = found.rows - {row0}
    doms = [dom.elements for _, dom in found.scheme.attributes]
    assert other == tuple(dom[v != v0]
                          for v, v0, dom in zip(other, row0, doms))


SIDES7 = st.sets(st.sampled_from("ABCDEFG"), max_size=3)
DOMAIN12 = st.sampled_from([2, 1])


@seed(26)
@settings(max_examples=120, deadline=None, database=None)
@given(axioms=st.lists(st.tuples(SIDES7, SIDES7), min_size=1, max_size=4),
       goal=st.tuples(SIDES7, st.sets(st.sampled_from("ABCDEFG"), min_size=1,
                                      max_size=3)),
       scope=st.tuples(st.sampled_from([2, 3, 4, 1]), DOMAIN12))
def test_closure_search_matches_the_table_walk_on_five_to_seven_attributes(
        axioms, goal, scope):
    # five to seven attributes of one or two values (at most 128 rows): the
    # greedy choice of each position in name order, over more positions
    # than "ABCD", against the table walk
    axioms = [AttrFd(x, y) for x, y in axioms]
    goal = AttrFd(*goal)
    n_attrs = len(mentioned_attrs(axioms, goal.antecedent | goal.consequent))
    assume(n_attrs >= 5)
    scope = Scope(*scope)
    assert same_witness(search_tables(axioms, goal, scope),
                        table_walk_search(axioms, goal, scope))


@pytest.mark.parametrize("m", [30, 60])
def test_search_tables_answers_long_chains_by_closures(monkeypatch, m):
    # a chain of m two-valued attributes, over 2 ** m rows: the search
    # takes at most m + 1 closures and builds no row universe
    names = [f"A{i:02d}" for i in range(m)]
    axioms = [AttrFd(frozenset([x]), frozenset([y]))
              for x, y in zip(names, names[1:])]
    scope = Scope(max_rows=2, domain_sizes=2)
    calls = []

    def counted(fds, attrs):
        calls.append(attrs)
        return attr_closure(fds, attrs)

    def no_universe(scheme):
        raise AssertionError("the search built a row universe")

    monkeypatch.setattr(search, "attr_closure", counted)
    monkeypatch.setattr(tables.Scheme, "universe", property(no_universe))
    start = time.perf_counter()
    derivable = AttrFd(frozenset([names[0]]), frozenset([names[-1]]))
    assert search_tables(axioms, derivable, scope) is None
    assert len(calls) == 1
    calls.clear()
    found = search_tables(axioms, AttrFd(frozenset([names[-1]]),
                                         frozenset([names[0]])), scope)
    assert time.perf_counter() - start < 0.5
    # backwards, the least qualifying disagreement set is {A00}
    assert found.rows == {("0",) * m, ("1",) + ("0",) * (m - 1)}
    assert len(calls) <= m + 1


def test_closure_search_witness_is_rechecked(monkeypatch):
    monkeypatch.setattr(search, "satisfies_oracle", lambda t, fd: True)
    with pytest.raises(InternalCheckError, match="does not separate"):
        search_tables(fds("A -> B"), parse_fd("B -> A"), Scope())
    assert search_tables(fds("A -> B"), parse_fd("A -> B"), Scope()) is None


def test_scope_validation():
    with pytest.raises(ValueError):
        Scope(max_rows=0)
    with pytest.raises(ValueError):
        Scope(domain_sizes=0)
    with pytest.raises(ValueError):
        Scope(max_carrier=0)
    # one domain size serves every attribute; a tuple is no size
    with pytest.raises(TypeError):
        Scope(domain_sizes=(2, 2))


# ---------------------------------------------------------------------------
# law search engine


def test_unknown_law_rejected():
    with pytest.raises(UnknownLawError):
        search_law("no_such_law", Scope())


def test_law_scope_is_capped():
    with pytest.raises(ResourceLimitError):
        search_law("converse_involution", Scope(max_carrier=4))


def test_bitmask_tables_match_plain_algebra():
    rnd = random.Random(0)
    for _ in range(300):
        m, n, k = (rnd.randint(1, 3) for _ in range(3))
        rmask = rnd.randrange(1 << (n * k))
        smask = rnd.randrange(1 << (m * n))
        r = bitrel.mask_to_rel(rmask, n, k)
        s = bitrel.mask_to_rel(smask, m, n)
        assert (bitrel.compose_table(m, n, k)[rmask, smask]
                == rel_to_mask(rel.compose(r, s)))
        assert (bitrel.converse_table(m, n)[smask]
                == rel_to_mask(rel.converse(s)))
        assert (bitrel.kernel_table(m, n)[smask]
                == rel_to_mask(rel.kernel(s)))
        dom = frozenset((a, a) for a, _ in s.pairs)
        assert (bitrel.domain_table(m, n)[smask]
                == rel_to_mask(rel.Rel(s.source, s.source, dom)))


def test_ker_through_matches_plain_algebra():
    """`laws._ker_through`, the ker(f.R~) table of the FD-typing sweeps,
    entry by entry against `rel.kernel(rel.compose(f, rel.converse(R)))`
    over every f: a -> n and R: a -> b, sizes 1-2 and all three at 3."""
    sizes = [*itertools.product((1, 2), repeat=3), (3, 3, 3)]
    for a, b, n in sizes:
        funcs = bitrel.function_masks(a, n)
        table = _ker_through(funcs, a, b, n)
        assert table.shape == (len(funcs), 1 << (a * b))
        for i, fmask in enumerate(funcs):
            f = bitrel.mask_to_rel(int(fmask), a, n)
            for rmask in range(1 << (a * b)):
                r = bitrel.mask_to_rel(rmask, a, b)
                assert table[i, rmask] == rel_to_mask(
                    rel.kernel(rel.compose(f, rel.converse(r)))), \
                    (a, b, n, int(fmask), rmask)


def test_fork_kernel_table_is_honest():
    rnd = random.Random(1)
    for _ in range(200):
        c, a, b = (rnd.randint(1, 3) for _ in range(3))
        rmask = rnd.randrange(1 << (c * a))
        smask = rnd.randrange(1 << (c * b))
        r = bitrel.mask_to_rel(rmask, c, a)
        s = bitrel.mask_to_rel(smask, c, b)
        assert (bitrel.fork_kernel_table(c, a, b)[rmask, smask]
                == rel_to_mask(rel.kernel(rel.fork(r, s))))


def test_function_masks_enumerate_exactly_the_functions():
    for m, n in itertools.product((1, 2, 3), repeat=2):
        masks = bitrel.function_masks(m, n)
        assert len(masks) == n ** m
        assert len(set(int(x) for x in masks)) == len(masks)
        for mask in masks:
            assert rel.is_function(bitrel.mask_to_rel(int(mask), m, n))


def test_fit_table_matches_elementwise_subset():
    rnd = random.Random(12)
    for n in (1, 2, 3):
        masks = bitrel.all_masks(n, n)
        kernel_sets = [bitrel.kernel_table(n, k)[bitrel.function_masks(n, k)]
                       for k in (1, 2, 3)]
        kernel_sets.append(np.array(rnd.sample(range(1 << (n * n)),
                                               min(31, 1 << (n * n)))))
        for kernels in kernel_sets:
            fits = bitrel.fit_table(n, kernels)
            for j, k in enumerate(kernels):
                assert np.array_equal((fits >> j) & 1 == 1,
                                      bitrel.subset(masks, k))
            assert not (fits >> len(kernels)).any()
    with pytest.raises(ResourceLimitError, match="31"):
        bitrel.fit_table(3, np.arange(32))


def test_distinct_kernels_fit_one_int32_bitset():
    # `union_injectivity` passes every distinct kernel of R: A -> B to one
    # `fit_table` call, which takes at most 31
    counts = {(m, n): len(_distinct(bitrel.kernel_table(m, n)))
              for m, n in itertools.product(
                  range(1, bitrel.MAX_SIZE + 1), repeat=2)}
    assert max(counts.values()) <= 31, counts
    assert [counts[n, n] for n in (1, 2, 3)] == [2, 5, 18]


def test_sweeps_agree_with_bruteforce_at_size_2():
    scope = Scope(max_carrier=2)
    for law_id, law in LAW_REGISTRY.items():
        fast = search_law(law_id, scope)
        slow = search_law_bruteforce(law, 2)
        assert (fast is None) == (slow is None), law_id
        if law_id in CORRUPTED:
            assert fast is not None, law_id


def test_corrupted_variants_refuted_and_reverified():
    scope = Scope(max_carrier=3)
    for law_id in CORRUPTED:
        law = LAW_REGISTRY[law_id]
        witness = search_law(law_id, scope)
        assert witness is not None
        assert not law.holds(witness)


# The first witness each corrupted law's search returns, per variable as
# (|source|, |target|, bitrel.rel_to_mask).  Pinned so that a rewrite of the
# sweeps keeps their nesting order, not only their verdicts.
CORRUPTED_WITNESSES = {
    ("galois_corrupted", 1): None,
    ("galois_corrupted", 2): {"f": (2, 2, 5), "R": (2, 2, 0),
                              "S": (2, 2, 4)},
    ("galois_corrupted", 3): {"f": (2, 2, 5), "R": (2, 3, 0),
                              "S": (2, 3, 8)},
    ("fork_lub_corrupted", 1): {"R": (1, 1, 1), "S": (1, 1, 0),
                                "T": (1, 1, 1)},
    ("fork_lub_corrupted", 2): {"R": (2, 2, 1), "S": (2, 2, 0),
                                "T": (2, 2, 1)},
    ("fork_lub_corrupted", 3): {"R": (3, 3, 1), "S": (3, 3, 0),
                                "T": (3, 3, 1)},
    ("union_typing_corrupted", 1): None,
    ("union_typing_corrupted", 2): {"f": (1, 2, 1), "g": (2, 2, 9),
                                    "R": (1, 2, 1), "S": (1, 2, 2)},
    ("union_typing_corrupted", 3): {"f": (1, 3, 1), "g": (2, 3, 17),
                                    "R": (1, 2, 1), "S": (1, 2, 2)},
    ("join_converse_corrupted", 1): None,
    ("join_converse_corrupted", 2): {"f": (1, 2, 1), "g": (1, 2, 1),
                                     "h": (2, 2, 9), "R": (1, 1, 0),
                                     "S": (1, 2, 3)},
    ("join_converse_corrupted", 3): {"f": (1, 3, 1), "g": (1, 3, 1),
                                     "h": (2, 3, 17), "R": (1, 1, 0),
                                     "S": (1, 2, 3)},
}


@pytest.mark.parametrize(("law_id", "carrier"), list(CORRUPTED_WITNESSES))
def test_corrupted_law_witness_is_pinned(law_id, carrier):
    witness = search_law(law_id, Scope(max_carrier=carrier))
    got = witness and {name: (len(r.source), len(r.target),
                              rel_to_mask(r))
                       for name, r in witness.items()}
    assert got == CORRUPTED_WITNESSES[(law_id, carrier)]


# fork_lub_corrupted is left out: its brute force sweeps 262k assignments
# before its first witness.
@pytest.mark.parametrize("law_id", ["converse_involution", "galois_corrupted",
                                    "union_typing_corrupted",
                                    "join_converse_corrupted"])
def test_sweeps_equal_bruteforce_at_size_3(law_id):
    assert (search_law(law_id, Scope(max_carrier=3))
            == search_law_bruteforce(LAW_REGISTRY[law_id], 3))


def test_law_search_deterministic():
    scope = Scope(max_carrier=3)
    w1 = search_law("galois_corrupted", scope)
    w2 = search_law("galois_corrupted", scope)
    assert w1 == w2


def test_sound_suite_clean_at_size_2():
    scope = Scope(max_carrier=2)
    for law_id in LAW_SUITE:
        assert search_law(law_id, scope) is None, law_id


def test_law_holds_on_random_assignments():
    rnd = random.Random(5)
    for law_id in LAW_SUITE:
        law = LAW_REGISTRY[law_id]
        sizes = {s: 3 for s in law.slots()}
        for _ in range(60):
            masks = {}
            for v in law.variables:
                m, n = sizes[v.source], sizes[v.target]
                if v.function:
                    masks[v.name] = int(rnd.choice(
                        bitrel.function_masks(m, n)))
                else:
                    masks[v.name] = rnd.randrange(1 << (m * n))
            assert law.holds(law.assignment_from_masks(sizes, masks)), law_id


def test_join_conclusion_factoring_matches_direct_form():
    # the sweep computes the join conclusion through domain-restricted
    # composites; confirm that route against the direct evaluation
    rnd = random.Random(8)
    law = LAW_REGISTRY["join_fd_typing"]
    for _ in range(300):
        a, b, c = (rnd.randint(1, 3) for _ in range(3))
        r = bitrel.mask_to_rel(rnd.randrange(1 << (a * b)), a, b)
        s = bitrel.mask_to_rel(rnd.randrange(1 << (a * c)), a, c)
        f = bitrel.mask_to_rel(
            int(rnd.choice(bitrel.function_masks(a, 3))), a, 3)
        g = bitrel.mask_to_rel(
            int(rnd.choice(bitrel.function_masks(b, 3))), b, 3)
        h = bitrel.mask_to_rel(
            int(rnd.choice(bitrel.function_masks(c, 3))), c, 3)
        from relfd.fd import satisfies_typed
        direct = satisfies_typed(rel.fork(r, s), f, rel.product(g, h))
        dom_s = rel.Rel(s.source, s.source,
                        frozenset((x, x) for x, _ in s.pairs))
        dom_r = rel.Rel(r.source, r.source,
                        frozenset((x, x) for x, _ in r.pairs))
        kf = rel.kernel(f)
        mid1 = rel.compose(rel.compose(dom_s, kf), dom_s)
        lhs1 = rel.compose(rel.compose(r, mid1), rel.converse(r))
        mid2 = rel.compose(rel.compose(dom_r, kf), dom_r)
        lhs2 = rel.compose(rel.compose(s, mid2), rel.converse(s))
        factored = (rel.includes(rel.kernel(g), lhs1)
                    and rel.includes(rel.kernel(h), lhs2))
        assert direct == factored


def test_join_violation_prefers_the_first_witness_branch():
    # one (R, S): g1 meets prem1 but breaks conc1, h0 breaks conc2, so the
    # two branches name different (g, h)
    def one(bits):
        return np.array([[[bits]]], dtype=np.int64)

    # one f, one R and one S, each alone in its class
    in_s, at_r = np.ones((1, 1), dtype=bool), np.zeros(1, dtype=np.intp)
    assert _join_violation(one(0b11), one(0b11), one(0b01), one(0b10),
                           in_s, at_r) == (0, 0, 0, 1, 0)
    # no g breaks conc1: the second branch names h0
    assert _join_violation(one(0b11), one(0b11), one(0b11), one(0b10),
                           in_s, at_r) == (0, 0, 0, 0, 0)
    assert _join_violation(one(0b11), one(0b11), one(0b11), one(0b11),
                           in_s, at_r) is None


def test_trade_violation_hits_a_difference_on_either_side():
    # `fd_trading` reads its witness as the first (x, y, R) at which the
    # y-bitsets of its two sides differ: `_first_bit` of their XOR
    # (x, R) arrays of y-bitsets; the sides agree except at x=1, R=2, y=4
    same = np.array([[0b001, 0b011, 0b101], [0b000, 0b110, 0b010]],
                    dtype=np.int64)
    more = same.copy()
    more[1, 2] |= 1 << 4
    assert _first_bit(same ^ more, lead=1) == (1, 4, 2)  # only rb has y=4
    assert _first_bit(more ^ same, lead=1) == (1, 4, 2)  # only lb has y=4
    assert _first_bit(same ^ same.copy(), lead=1) is None
    # a y in rb alone before a y in lb alone: the first (x, y, R) wins
    lb, rb = same.copy(), same.copy()
    lb[1, 0] |= 1 << 3
    rb[0, 2] |= 1 << 5
    assert _first_bit(lb ^ rb, lead=1) == (0, 5, 2)
    assert _first_bit(rb ^ lb, lead=1) == (0, 5, 2)


def _unpack(bits, lead, nbits):
    """The boolean array with each bitset of `bits` spread over a new axis
    after the first `lead` axes."""
    spread = (bits[..., None] >> np.arange(nbits)) & 1 == 1
    return np.moveaxis(spread, -1, lead)


def test_first_bit_matches_first_false_on_the_unpacked_array():
    rnd = np.random.default_rng(13)
    last_bit_hits = 0
    for trial in range(400):
        lead = trial % 3
        shape = tuple(int(x) for x in rnd.integers(1, 5, size=lead + 1))
        nbits = int(rnd.integers(1, 63))
        # sparse bits, so that many inputs have no hit or a late one
        bits = np.zeros(shape, dtype=np.int64)
        for _ in range(int(rnd.integers(0, 3))):
            at = tuple(int(rnd.integers(0, d)) for d in shape)
            bits[at] |= 1 << int(rnd.choice([nbits - 1,
                                             rnd.integers(0, nbits)]))
        expected = _first_false(~_unpack(bits, lead, nbits))
        assert _first_bit(bits, lead) == expected
        last_bit_hits += expected is not None and expected[lead] == nbits - 1
    assert last_bit_hits >= 50


def test_distinct_rows_are_the_first_occurrence_of_each_key():
    rnd = random.Random(14)
    for _ in range(200):
        keys = np.array([rnd.randrange(6) for _ in range(rnd.randint(1, 30))])
        plain = [i for i, k in enumerate(keys) if k not in keys[:i]]
        assert list(_distinct(keys)) == plain
        assert list(_firsts(keys)) == [list(keys).index(k) for k in keys]
        # a tuple of rows: an int32 matrix and an int64 vector, few values
        # so that rows repeat
        n = rnd.randint(1, 30)
        rows = np.array([[rnd.randrange(2) for _ in range(3)]
                         for _ in range(n)], dtype=np.int32)
        cols = np.array([rnd.randrange(2) for _ in range(n)], dtype=np.int64)
        pairs = [(tuple(r), c) for r, c in zip(rows.tolist(), cols.tolist())]
        plain = [i for i, p in enumerate(pairs) if p not in pairs[:i]]
        assert list(_distinct(rows, cols)) == plain
        assert list(_firsts(rows, cols)) == [pairs.index(p) for p in pairs]


def test_law_witness_json_round_trip():
    from relfd.oracles import rel_from_json
    from relfd.rel import rel_to_json
    witness = search_law("galois_corrupted", Scope(max_carrier=3))
    for name, r in witness.items():
        assert rel_from_json(rel_to_json(r)) == r
