import itertools
import json
import random
import time

import pytest
from hypothesis import given, strategies as st

from relfd import rel
from relfd.cli import main
from relfd.errors import ResourceLimitError, UnknownAttributeError
from relfd.fd import AttrFd, parse_fd, satisfies_oracle
from relfd.infer import (AXIOM, COMPOSITION, CONSEQUENCE, FIRING_LIMIT,
                         Derivation, attr_closure, derivation_from_dict,
                         derivation_to_dict, derive, fd_trade,
                         mentioned_attrs, validate_derivation)
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


def replay(tree: dict, axioms, goal) -> bool:
    """The JSON form of a proof, replayed node by node with an explicit
    stack: every node follows from its premises' conclusions by its rule."""
    axioms = {(fd.antecedent, fd.consequent) for fd in axioms}
    arity = {"Axiom": 0, "Reflexivity": 0, "Consequence": 1,
             "Projectivity": 1, "Composition": 2, "Additivity": 2}
    if parse_fd(tree["conclusion"]) != goal:
        return False
    stack = [tree]
    while stack:
        node = stack.pop()
        c = parse_fd(node["conclusion"])
        x, y = c.antecedent, c.consequent
        rule, prem = node["rule"], node["premises"]
        if arity.get(rule) != len(prem):
            return False
        ps = [parse_fd(p["conclusion"]) for p in prem]
        ps = [(p.antecedent, p.consequent) for p in ps]
        ok = {
            "Axiom": lambda: (x, y) in axioms,
            "Reflexivity": lambda: x == y,
            "Consequence": lambda: ps[0][0] <= x and y <= ps[0][1],
            "Projectivity": lambda: ps[0][0] == x and y <= ps[0][1],
            "Composition": lambda: (ps[0][0] == x and ps[0][1] == ps[1][0]
                                    and ps[1][1] == y),
            "Additivity": lambda: (ps[0][0] == x == ps[1][0]
                                   and y == ps[0][1] | ps[1][1]),
        }[rule]()
        if not ok:
            return False
        stack.extend(prem)
    return True


def chain(n: int) -> list[AttrFd]:
    return [parse_fd(f"A{i} -> A{i + 1}") for i in range(n)]


def count_rule(tree: dict, rule: str) -> int:
    stack, seen = [tree], 0
    while stack:
        node = stack.pop()
        seen += node["rule"] == rule
        stack.extend(node["premises"])
    return seen


def test_derive_differential_with_long_chains():
    # shuffled chains fire one fd per closure pass, so the order the fds
    # fire in differs from the order they are listed in
    rnd = random.Random(2301)
    names = [f"A{i}" for i in range(40)]
    derivable = 0
    for trial in range(120):
        if trial % 4 == 0:
            axioms = chain(rnd.randint(30, 39))
            rnd.shuffle(axioms)
        else:
            axioms = [AttrFd(frozenset(rnd.sample(names, rnd.randint(1, 2))),
                             frozenset(rnd.sample(names, rnd.randint(1, 3))))
                      for _ in range(rnd.randint(0, 60))]
        base = frozenset(rnd.sample(names[:8], rnd.randint(1, 2)))
        closure = attr_closure(axioms, base)
        # every other goal is drawn from the closure, so derivable
        pool = sorted(closure) if trial % 2 else names
        goal = AttrFd(base, frozenset(
            rnd.sample(pool, min(len(pool), rnd.randint(1, 2)))))
        if trial % 4 == 0:
            goal = AttrFd({"A0"}, {f"A{len(axioms)}"})
            closure = attr_closure(axioms, goal.antecedent)
        tree = derive(axioms, goal)
        assert (tree is not None) == (goal.consequent <= closure)
        if tree is None:
            continue
        derivable += 1
        assert tree.conclusion == goal
        assert validate_derivation(tree, axioms)
        assert replay(derivation_to_dict(tree), axioms, goal)
    assert derivable >= 60


def test_derive_json_is_linear_in_firings_times_attributes(tmp_path,
                                                           capsys):
    # at most 7 nodes a firing, each naming at most twice the attributes,
    # at an indent of at most 4 spaces a firing; with these short names the
    # ratio is 394 at one firing and falls towards 100, while the doubling
    # tree this replaced printed 221 MB, 800,000 a firing and attribute, for
    # a 16-fd chain
    rnd = random.Random(2302)
    sets = [chain(n) for n in (1, 2, 5, 18, 60)]
    names = [f"B{i}" for i in range(30)]
    sets += [[AttrFd(frozenset(rnd.sample(names, rnd.randint(1, 3))),
                     frozenset(rnd.sample(names, rnd.randint(1, 4))))
              for _ in range(40)] for _ in range(6)]
    checked = 0
    for axioms in sets:
        fds_file = tmp_path / "f.fds"
        fds_file.write_text("".join(f"{fd}\n" for fd in axioms))
        base = min(axioms[0].antecedent)
        goal = AttrFd({base}, attr_closure(axioms, {base}))
        start = time.perf_counter()
        code = main(["derive", "--fds", str(fds_file), "--goal", str(goal),
                     "--json"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0 and elapsed < 1.0
        tree = json.loads(out)["derivation"]
        assert replay(tree, axioms, goal)
        firings = count_rule(tree, AXIOM)
        attrs = len(mentioned_attrs(axioms, ()))
        assert len(out.encode()) <= 400 * max(firings, 1) * attrs
        checked += firings > 1
    assert checked >= 6


def test_one_and_two_firing_proofs_pinned():
    one = derive(fds("A -> B"), parse_fd("A C -> B"))
    refl = {"conclusion": "A C -> A C", "rule": "Reflexivity",
            "premises": []}
    assert derivation_to_dict(one) == {
        "conclusion": "A C -> B", "rule": "Consequence", "premises": [
            {"conclusion": "A C -> A B C", "rule": "Additivity", "premises": [
                refl,
                {"conclusion": "A C -> B", "rule": "Composition",
                 "premises": [
                     {"conclusion": "A C -> A", "rule": "Consequence",
                      "premises": [refl]},
                     {"conclusion": "A -> B", "rule": "Axiom",
                      "premises": []}]}]}]}
    two = derive(fds("A -> B", "B -> C"), parse_fd("A -> C"))
    refl_a = {"conclusion": "A -> A", "rule": "Reflexivity", "premises": []}
    refl_ab = {"conclusion": "A B -> A B", "rule": "Reflexivity",
               "premises": []}
    assert derivation_to_dict(two) == {
        "conclusion": "A -> C", "rule": "Consequence", "premises": [
            {"conclusion": "A -> A B C", "rule": "Composition", "premises": [
                {"conclusion": "A -> A B", "rule": "Additivity", "premises": [
                    refl_a,
                    {"conclusion": "A -> B", "rule": "Composition",
                     "premises": [
                         refl_a,
                         {"conclusion": "A -> B", "rule": "Axiom",
                          "premises": []}]}]},
                {"conclusion": "A B -> A B C", "rule": "Additivity",
                 "premises": [
                     refl_ab,
                     {"conclusion": "A B -> C", "rule": "Composition",
                      "premises": [
                          {"conclusion": "A B -> B", "rule": "Consequence",
                           "premises": [refl_ab]},
                          {"conclusion": "B -> C", "rule": "Axiom",
                           "premises": []}]}]}]}]}


def test_derive_at_and_past_the_firing_bound(tmp_path, capsys):
    at_file, past_file = tmp_path / "at.fds", tmp_path / "past.fds"
    at_file.write_text("".join(f"{fd}\n" for fd in chain(FIRING_LIMIT)))
    past_file.write_text("".join(f"{fd}\n"
                                 for fd in chain(FIRING_LIMIT + 1)))
    at = ["derive", "--fds", str(at_file), "--goal", f"A0 -> A{FIRING_LIMIT}"]
    assert main(at) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("{")
    assert main([*at, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["derivable"]
    # the whole closure run fires, whatever the goal
    past = ["derive", "--fds", str(past_file), "--goal", "A0 -> A1"]
    for argv in (past, [*past, "--json"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == (f"error: derivation of A0 -> A1 fires "
                       f"{FIRING_LIMIT + 1} fds, over the "
                       f"{FIRING_LIMIT}-firing bound\n")
    # a goal the run does not reach stays not derivable past the bound
    assert main(["derive", "--fds", str(past_file), "--goal", "A0 -> B"]) == 1
    with pytest.raises(ResourceLimitError, match=f"{FIRING_LIMIT}-firing"):
        derive(chain(FIRING_LIMIT + 1), parse_fd("A0 -> A1"))


def test_walkers_run_at_the_firing_bound():
    axioms = chain(FIRING_LIMIT)
    goal = parse_fd(f"A0 -> A{FIRING_LIMIT}")
    tree = derive(axioms, goal)
    assert validate_derivation(tree, axioms)
    obj = derivation_to_dict(tree)
    again = derivation_from_dict(json.loads(json.dumps(obj, indent=2)))
    start = time.perf_counter()
    assert again == tree and hash(again) == hash(tree)
    assert time.perf_counter() - start < 0.1
    assert count_rule(obj, AXIOM) == FIRING_LIMIT


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
