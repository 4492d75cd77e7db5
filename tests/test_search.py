import itertools
import random

import pytest

from relfd import bitrel, rel
from relfd.errors import ResourceLimitError, UnknownLawError
from relfd.fd import AttrFd, parse_fd, satisfies_oracle
from relfd.infer import attr_closure, derive
from relfd.laws import LAW_REGISTRY, LAW_SUITE, search_law_bruteforce
from relfd.rel import Atom, Tup
from relfd.search import Scope, search_law, search_tables, two_tuple_witness
from relfd.tables import table_to_csv

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
    r1, r2 = sorted(w.rows, key=lambda r: tuple(v.name for v in r.items))
    for name in w.scheme.names:
        agrees = r1.items[idx[name]] == r2.items[idx[name]]
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
    ("galois_corrupted", 2): {"f": (2, 2, 5), "R": (2, 2, 0),
                              "S": (2, 2, 4)},
    ("galois_corrupted", 3): {"f": (2, 2, 5), "R": (2, 3, 0),
                              "S": (2, 3, 8)},
    ("fork_lub_corrupted", 2): {"R": (2, 2, 1), "S": (2, 2, 0),
                                "T": (2, 2, 1)},
    ("fork_lub_corrupted", 3): {"R": (3, 3, 1), "S": (3, 3, 0),
                                "T": (3, 3, 1)},
    ("union_typing_corrupted", 2): {"f": (1, 2, 1), "g": (2, 2, 9),
                                    "R": (1, 2, 1), "S": (1, 2, 2)},
    ("union_typing_corrupted", 3): {"f": (1, 3, 1), "g": (2, 3, 17),
                                    "R": (1, 2, 1), "S": (1, 2, 2)},
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
    got = {name: (len(r.source), len(r.target), bitrel.rel_to_mask(r))
           for name, r in witness.items()}
    assert got == CORRUPTED_WITNESSES[(law_id, carrier)]


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


def test_law_witness_json_round_trip():
    from relfd.rel import rel_from_json, rel_to_json
    witness = search_law("galois_corrupted", Scope(max_carrier=3))
    for name, r in witness.items():
        assert rel_from_json(rel_to_json(r)) == r
