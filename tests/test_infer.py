import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from relfd import rel
from relfd.errors import UnknownAttributeError
from relfd.fd import AttrFd, parse_fd, satisfies_oracle
from relfd.infer import (AXIOM, COMPOSITION, CONSEQUENCE, Derivation,
                         attr_closure, derivation_from_dict,
                         derivation_to_dict, derive, fd_trade,
                         validate_derivation)
from relfd.rel import Rel
from relfd.search import RuleInstance, check_rule_soundness

from conftest import all_functions, all_rels, carrier


def fds(*texts):
    return [parse_fd(t) for t in texts]


# ---------------------------------------------------------------------------
# closure


def test_closure_pilot_example():
    out = attr_closure(fds("Flight Date -> Pilot"), {"Flight", "Date"})
    assert out == {"Flight", "Date", "Pilot"}


def test_closure_of_full_scheme_is_itself():
    all_attrs = {"Flight", "Date", "Pilot", "Departs"}
    assert attr_closure(fds("Flight Date -> Pilot"), all_attrs) == all_attrs


def test_closure_transitive_chain():
    assert attr_closure(fds("A -> B", "B -> C"), {"A"}) == {"A", "B", "C"}


def test_closure_unknown_attribute_with_universe():
    with pytest.raises(UnknownAttributeError):
        attr_closure(fds("A -> B"), {"A"}, universe={"A"})


@given(st.data())
def test_closure_monotone_and_idempotent(data):
    names = ["A", "B", "C", "D"]
    def attr_set():
        return st.sets(st.sampled_from(names), min_size=1)
    fd_list = data.draw(st.lists(
        st.builds(AttrFd, attr_set(), attr_set()), max_size=5))
    x = data.draw(st.sets(st.sampled_from(names)))
    y = data.draw(st.sets(st.sampled_from(names)))
    cx = attr_closure(fd_list, x)
    assert x <= cx
    assert attr_closure(fd_list, cx) == cx
    if x <= y:
        assert cx <= attr_closure(fd_list, y)


# ---------------------------------------------------------------------------
# derive


def test_derive_transitivity_uses_composition():
    axioms = fds("x -> z", "z -> y")
    tree = derive(axioms, parse_fd("x -> y"))
    assert tree is not None
    assert validate_derivation(tree, axioms)

    def rules(d):
        yield d.rule
        for p in d.premises:
            yield from rules(p)

    assert COMPOSITION in set(rules(tree))
    assert AXIOM in set(rules(tree))


def test_derive_projection_via_reflexivity_and_consequence():
    tree = derive([], parse_fd("x y -> x"))
    assert tree.rule == CONSEQUENCE
    assert [p.rule for p in tree.premises] == ["Reflexivity"]
    assert validate_derivation(tree, [])


def test_derive_not_derivable():
    assert derive(fds("A -> B"), parse_fd("B -> A")) is None


def test_derive_augmentation_example():
    axioms = fds("Flight Date -> Pilot")
    tree = derive(axioms, parse_fd("Flight Date Departs -> Pilot"))
    assert tree is not None
    assert validate_derivation(tree, axioms)


def test_derive_matches_closure_membership():
    rnd = random.Random(5)
    names = ["A", "B", "C", "D", "E"]
    for _ in range(300):
        axioms = [AttrFd(frozenset(rnd.sample(names, rnd.randint(1, 2))),
                         frozenset(rnd.sample(names, rnd.randint(1, 2))))
                  for _ in range(rnd.randint(0, 4))]
        goal = AttrFd(frozenset(rnd.sample(names, rnd.randint(1, 2))),
                      frozenset(rnd.sample(names, rnd.randint(1, 2))))
        tree = derive(axioms, goal)
        derivable = goal.consequent <= attr_closure(axioms, goal.antecedent)
        assert (tree is not None) == derivable
        if tree is not None:
            assert tree.conclusion == goal
            assert validate_derivation(tree, axioms)


def test_validate_rejects_bogus_trees():
    bogus = Derivation(parse_fd("B -> A"), AXIOM)
    assert not validate_derivation(bogus, fds("A -> B"))
    bad_consequence = Derivation(
        parse_fd("A -> C"), CONSEQUENCE,
        (Derivation(parse_fd("A -> B"), AXIOM),))
    assert not validate_derivation(bad_consequence, fds("A -> B"))
    assert not validate_derivation(
        Derivation(parse_fd("A -> B"), "NoSuchRule"), fds("A -> B"))


def test_derivation_json_round_trip_and_field_order():
    axioms = fds("A -> B", "B -> C")
    tree = derive(axioms, parse_fd("A -> C"))
    obj = derivation_to_dict(tree)
    assert list(obj.keys()) == ["conclusion", "rule", "premises"]
    assert derivation_from_dict(json.loads(json.dumps(obj))) == tree


# ---------------------------------------------------------------------------
# rule soundness sweeps


def test_composition_instance_sound_at_desk_scope():
    inst = RuleInstance(
        premises=(parse_fd("x -> z"), parse_fd("z -> y")),
        conclusion=parse_fd("x -> y"))
    assert check_rule_soundness(inst, max_rows=4)


def test_consequence_instance_sound_at_desk_scope():
    inst = RuleInstance(
        premises=(parse_fd("x -> y z"),),
        conclusion=parse_fd("x w -> y"))
    assert check_rule_soundness(inst, max_rows=4)


def test_wrong_rule_refuted_with_witness():
    inst = RuleInstance(premises=(parse_fd("x -> y"),),
                        conclusion=parse_fd("y -> x"))
    result = check_rule_soundness(inst, max_rows=4)
    assert not result
    assert result.witness is not None
    assert len(result.witness.rows) == 2
    assert satisfies_oracle(result.witness, inst.premises[0])
    assert not satisfies_oracle(result.witness, inst.conclusion)


# ---------------------------------------------------------------------------
# trading


def test_trade_collapses_with_identities():
    a, b = carrier("A", 2), carrier("B", 2)
    for r in all_rels(a, b):
        for x in all_functions(a, a):
            for y in all_functions(b, b):
                assert fd_trade(x, rel.identity(b), r, rel.identity(a), y)


def test_trade_exhaustive_tiny():
    a, b = carrier("A", 2), carrier("B", 2)
    k_t, z_t = carrier("K", 2), carrier("Z", 2)
    for r in all_rels(a, b):
        for k in all_functions(a, k_t):
            for z in all_functions(b, z_t):
                for x in all_functions(k_t, k_t):
                    for y in all_functions(z_t, z_t):
                        assert fd_trade(x, z, r, k, y)


def test_trade_randomized_size5():
    rnd = random.Random(9)
    sizes = [rnd.randint(1, 5) for _ in range(6)]
    a, b = carrier("A", sizes[0]), carrier("B", sizes[1])
    kt, zt = carrier("K", sizes[2]), carrier("Z", sizes[3])
    cx, cy = carrier("CX", sizes[4]), carrier("CY", sizes[5])
    universe = list(itertools.product(a.elements, b.elements))

    def fn(src, tgt):
        return Rel(src, tgt, frozenset(
            (v, rnd.choice(tgt.elements)) for v in src.elements))

    for _ in range(1000):
        r = Rel(a, b, frozenset(
            p for p in universe if rnd.random() < 0.4))
        assert fd_trade(fn(kt, cx), fn(b, zt), r, fn(a, kt), fn(zt, cy))
