import itertools
import math
import random

import numpy as np
import pytest

from relfd import bitrel, rel
from relfd.errors import ResourceLimitError, UnknownLawError
from relfd.fd import (AttrFd, fd_positions, parse_fd, satisfies_oracle,
                      violating_pair)
from relfd.infer import attr_closure, derive, mentioned_attrs
from relfd.laws import (LAW_REGISTRY, LAW_SUITE, _distinct, _first_bit,
                        _first_false, _join_violation, _trade_violation,
                        search_law_bruteforce)
from relfd.rel import Atom, Tup
from relfd.search import Scope, search_law, search_tables, two_tuple_witness
from relfd.tables import Table, count_tables, enumerate_tables, table_to_csv

CORRUPTED = ("galois_corrupted", "fork_lub_corrupted",
             "union_typing_corrupted", "join_converse_corrupted")


def fds(*texts):
    return [parse_fd(t) for t in texts]


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


def test_search_tables_derivable_goal_has_no_model():
    assert search_tables(fds("A -> B", "B -> C"), parse_fd("A -> C"),
                         Scope(max_rows=3)) is None


def test_search_tables_deterministic():
    scope = Scope(max_rows=2, domain_sizes=3)
    first = search_tables(fds("A -> B"), parse_fd("B -> A"), scope)
    second = search_tables(fds("A -> B"), parse_fd("B -> A"), scope)
    assert first == second


def test_search_tables_respects_candidate_cap():
    with pytest.raises(ResourceLimitError):
        search_tables(fds("A B C -> D"), parse_fd("D -> A"),
                      Scope(max_rows=6, domain_sizes=4, candidate_cap=1000))


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


def literal_search(axioms, goal, scope):
    """Every table in scope, all sizes, canonical order: the first model."""
    attrs = set(goal.antecedent | goal.consequent)
    for fd in axioms:
        attrs |= fd.antecedent | fd.consequent
    scheme = scope.scheme_for(sorted(attrs))
    for table in enumerate_tables(scheme, scope.max_rows):
        if (all(satisfies_oracle(table, fd) for fd in axioms)
                and not satisfies_oracle(table, goal)):
            return table
    return None


DOM_SIZES = (1, 2, 2, 3, 3)


def test_search_tables_matches_the_literal_all_sizes_search():
    # universes of at most 16 rows at max_rows 4 (36 at 3) keep the literal
    # search cheap; domain sizes are one int or a tuple, 1 in a fifth
    rnd = random.Random(6)
    names = ["A", "B", "C", "D"]
    seen = {"refuted": 0, "derivable": 0, "dom1": 0, "tuple": 0}
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
        as_tuple = rnd.random() < 0.5
        while True:
            sizes = (tuple(rnd.choice(DOM_SIZES) for _ in range(n_attrs))
                     if as_tuple else (rnd.choice(DOM_SIZES),) * n_attrs)
            if math.prod(sizes) <= limit:
                break
        scope = Scope(max_rows=max_rows,
                      domain_sizes=sizes if as_tuple else sizes[0])
        found = search_tables(axioms, goal, scope)
        assert found == literal_search(axioms, goal, scope)
        derivable = derive(axioms, goal) is not None
        if derivable:
            assert found is None
        else:
            assert found is None or len(found.rows) == 2
        seen["derivable"] += derivable
        if found is not None:
            seen["refuted"] += 1
            witness_rows.add(max_rows)
        seen["dom1"] += 1 in sizes
        seen["tuple"] += as_tuple
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


def table_walk_search(axioms, goal, scope):
    """The table walk the pair walk replaced: every table of at most two
    rows, by row count then row content, each judged by `violating_pair`
    on its rows."""
    attrs = sorted(mentioned_attrs(axioms, goal.antecedent | goal.consequent))
    candidates = count_tables(math.prod(scope.sizes_for(attrs)),
                              scope.max_rows, scope.candidate_cap)
    if candidates > scope.candidate_cap:
        raise ResourceLimitError(
            f"{candidates} candidate tables exceed the cap of "
            f"{scope.candidate_cap}")
    if scope.max_rows < 2:
        return None
    scheme = scope.scheme_for(attrs)
    axioms_at = [fd_positions(scheme, fd) for fd in axioms]
    goal_at = fd_positions(scheme, goal)
    for table in enumerate_tables(scheme, 2):
        if (all(violating_pair(table.rows, *at) is None for at in axioms_at)
                and violating_pair(table.rows, *goal_at) is not None):
            return table
    return None


def _outcome(search, axioms, goal, scope):
    try:
        return search(axioms, goal, scope)
    except ResourceLimitError as e:
        return str(e)


def test_search_tables_matches_the_table_walk_on_large_universes():
    # bench-shaped FD sets: a chain a -> b (-> c) and a group of the other
    # attributes determining one chain member; the goal is the chain read
    # forwards (derivable) or backwards (refutable).  Universes of 100-1,000
    # rows; a derivable goal walks every pair, so its universe stays under
    # 200.  Half the scopes lift the candidate cap, so that three- and
    # four-row bounds reach the walk.
    rnd = random.Random(2210)
    seen = {"witness": 0, "none_walked": 0, "capped": 0, "one_row": 0}
    for case in range(32):
        names = sorted(rnd.sample("ABCDEF", rnd.randint(4, 6)))
        chain = rnd.sample(names, rnd.randint(2, 3))
        rest = [n for n in names if n not in chain]
        axioms = [AttrFd(frozenset([x]), frozenset([y]))
                  for x, y in zip(chain, chain[1:])]
        if rest:
            axioms.append(AttrFd(frozenset(rest),
                                 frozenset([rnd.choice(chain)])))
        derivable = case % 2 == 0
        a, z = (chain[0], chain[-1]) if derivable else (chain[-1], chain[0])
        goal = AttrFd(frozenset([a]), frozenset([z]))
        assert (derive(axioms, goal) is not None) == derivable
        top = 200 if derivable else 1000
        while True:
            sizes = tuple(rnd.randint(2, 6) for _ in names)
            if 100 <= math.prod(sizes) <= top:
                break
        max_rows = case // 2 % 4 + 1
        scope = Scope(max_rows=max_rows, domain_sizes=sizes,
                      candidate_cap=10 ** 7 if case % 16 < 8 else 10 ** 15)
        found = _outcome(search_tables, axioms, goal, scope)
        assert found == _outcome(table_walk_search, axioms, goal, scope)
        if isinstance(found, str):
            seen["capped"] += 1
        elif max_rows == 1:
            seen["one_row"] += 1
        elif found is None:
            seen["none_walked"] += 1
        else:
            assert not derivable and len(found.rows) == 2
            seen["witness"] += 1
    assert min(seen.values()) >= 3, seen


def test_scope_validation():
    with pytest.raises(ValueError):
        Scope(max_rows=0)
    with pytest.raises(ValueError):
        Scope(domain_sizes=(2, 0))
    with pytest.raises(ValueError):
        Scope(domain_sizes=(2, 2)).scheme_for(["A"])


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
                == bitrel.rel_to_mask(rel.compose(r, s)))
        assert (bitrel.converse_table(m, n)[smask]
                == bitrel.rel_to_mask(rel.converse(s)))
        assert (bitrel.kernel_table(m, n)[smask]
                == bitrel.rel_to_mask(rel.kernel(s)))
        dom = frozenset((a, a) for a, _ in s.pairs)
        assert (bitrel.domain_table(m, n)[smask]
                == bitrel.rel_to_mask(rel.Rel(s.source, s.source, dom)))


def test_fork_kernel_table_is_honest():
    rnd = random.Random(1)
    for _ in range(200):
        c, a, b = (rnd.randint(1, 3) for _ in range(3))
        rmask = rnd.randrange(1 << (c * a))
        smask = rnd.randrange(1 << (c * b))
        r = bitrel.mask_to_rel(rmask, c, a)
        s = bitrel.mask_to_rel(smask, c, b)
        assert (bitrel.fork_kernel_table(c, a, b)[rmask, smask]
                == bitrel.rel_to_mask(rel.kernel(rel.fork(r, s))))


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
                                               min(62, 1 << (n * n)))))
        for kernels in kernel_sets:
            fits = bitrel.fit_table(n, kernels)
            for j, k in enumerate(kernels):
                assert np.array_equal((fits >> j) & 1 == 1,
                                      bitrel.subset(masks, k))
            assert not (fits >> len(kernels)).any()
    with pytest.raises(ResourceLimitError, match="62"):
        bitrel.fit_table(3, np.arange(63))


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
                              bitrel.rel_to_mask(r))
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
        return np.array([[bits]], dtype=np.int64)

    # one R and one S, each alone in its class
    in_s, at_r = np.ones((1, 1), dtype=bool), np.zeros(1, dtype=np.intp)
    assert _join_violation(one(0b11), one(0b11), one(0b01), one(0b10),
                           in_s, at_r) == (0, 0, 1, 0)
    # no g breaks conc1: the second branch names h0
    assert _join_violation(one(0b11), one(0b11), one(0b11), one(0b10),
                           in_s, at_r) == (0, 0, 0, 0)
    assert _join_violation(one(0b11), one(0b11), one(0b11), one(0b11),
                           in_s, at_r) is None


def test_trade_violation_hits_a_difference_on_either_side():
    # (x, R) arrays of y-bitsets; the sides agree except at x=1, R=2, y=4
    same = np.array([[0b001, 0b011, 0b101], [0b000, 0b110, 0b010]],
                    dtype=np.int64)
    more = same.copy()
    more[1, 2] |= 1 << 4
    assert _trade_violation(same, more) == (1, 4, 2)  # only rb has y=4
    assert _trade_violation(more, same) == (1, 4, 2)  # only lb has y=4
    assert _trade_violation(same, same.copy()) is None
    # a y in rb alone before a y in lb alone: the first (x, y, R) wins
    lb, rb = same.copy(), same.copy()
    lb[1, 0] |= 1 << 3
    rb[0, 2] |= 1 << 5
    assert _trade_violation(lb, rb) == (0, 5, 2)
    assert _trade_violation(rb, lb) == (0, 5, 2)


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
        # a tuple of rows: an int32 matrix and an int64 vector, few values
        # so that rows repeat
        n = rnd.randint(1, 30)
        rows = np.array([[rnd.randrange(2) for _ in range(3)]
                         for _ in range(n)], dtype=np.int32)
        cols = np.array([rnd.randrange(2) for _ in range(n)], dtype=np.int64)
        pairs = [(tuple(r), c) for r, c in zip(rows.tolist(), cols.tolist())]
        plain = [i for i, p in enumerate(pairs) if p not in pairs[:i]]
        assert list(_distinct(rows, cols)) == plain


def test_law_witness_json_round_trip():
    from relfd.rel import rel_from_json, rel_to_json
    witness = search_law("galois_corrupted", Scope(max_carrier=3))
    for name, r in witness.items():
        assert rel_from_json(rel_to_json(r)) == r
