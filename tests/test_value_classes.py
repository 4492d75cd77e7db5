"""The value classes of `rel`, `tables`, `fd` and `infer` against their
dataclass forms.

`Pair`, `Unit`, `Carrier`, `Rel`, `Scheme`, `Table`, `AttrFd`,
`UnionTypeReport` and `Derivation` are plain classes on `rel.Frozen`, so
that start-up, `closure` and `derive` load no `dataclasses`.  Each was a
``@dataclass(frozen=True)``; that form is kept
below as its twin, under the same name.  On generated values each class must
show, compare and hash as its twin does, stay immutable, and keep its
excluded fields (`Carrier.components`, `Scheme.names`) out of equality.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional
from unittest.mock import ANY

import pytest
from hypothesis import given, settings, strategies as st

from relfd import fd, infer, rel, tables
from relfd.errors import SchemeError


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Carrier:
    name: str
    elements: tuple
    components: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        element_set = frozenset(self.elements)
        if len(element_set) != len(self.elements):
            raise SchemeError(f"carrier {self.name!r} has duplicate elements")
        object.__setattr__(self, "_element_set", element_set)
        object.__setattr__(self, "_hash", hash((self.name, self.elements)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Carrier({self.name!r}, {len(self.elements)} elements)"


@dataclass(frozen=True)
class Rel:
    source: Carrier
    target: Carrier
    pairs: frozenset

    def __repr__(self) -> str:
        return (f"Rel({self.source.name} -> {self.target.name}, "
                f"{len(self.pairs)} pairs)")


@dataclass(frozen=True)
class Scheme:
    attributes: tuple
    names: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(n for n, _ in self.attributes)
        if len(set(names)) != len(names):
            raise SchemeError("duplicate attribute names in scheme")
        object.__setattr__(self, "names", names)


@dataclass(frozen=True)
class Table:
    scheme: Scheme
    rows: frozenset

    def __repr__(self) -> str:
        return f"Table({','.join(self.scheme.names)}; {len(self.rows)} rows)"


@dataclass(frozen=True)
class AttrFd:
    antecedent: frozenset
    consequent: frozenset

    def __post_init__(self):
        object.__setattr__(self, "antecedent", frozenset(self.antecedent))
        object.__setattr__(self, "consequent", frozenset(self.consequent))


@dataclass(frozen=True)
class UnionTypeReport:
    union_holds: bool
    left_holds: bool
    right_holds: bool
    mutual_holds: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class Derivation:
    conclusion: AttrFd
    rule: str
    premises: tuple = ()


OLD = SimpleNamespace(**{c.__name__: c for c in (
    Pair, Unit, Carrier, Rel, Scheme, Table, AttrFd, UnionTypeReport,
    Derivation)})
NEW = SimpleNamespace(
    Pair=rel.Pair, Unit=rel.Unit, Carrier=rel.Carrier, Rel=rel.Rel,
    Scheme=tables.Scheme, Table=tables.Table, AttrFd=fd.AttrFd,
    UnionTypeReport=fd.UnionTypeReport, Derivation=infer.Derivation)


# Plain descriptions of values, built into either family by `build`: an atom
# is a str, ("U",) the unit, ("P", l, r) a pair, ("T", items) a row.
VALUES = st.recursive(
    st.sampled_from(["a", "b", "c"]) | st.just(("U",)),
    lambda kids: (st.tuples(st.just("P"), kids, kids)
                  | st.tuples(st.just("T"), st.lists(kids, max_size=3)
                              .map(tuple))),
    max_leaves=6)
CARRIERS = st.tuples(st.sampled_from(["A", "B", "rows(A,B)"]),
                     st.lists(VALUES, unique=True, max_size=4).map(tuple))
NAMES = st.sets(st.sampled_from(["A", "B", "C", "D"]))


def build(plain, ns):
    if isinstance(plain, str):
        return plain
    if plain[0] == "U":
        return ns.Unit()
    if plain[0] == "P":
        return ns.Pair(build(plain[1], ns), build(plain[2], ns))
    return tuple(build(x, ns) for x in plain[1])


def carrier(plain, ns):
    name, elements = plain
    return ns.Carrier(name, tuple(build(v, ns) for v in elements))


def relation(plain, ns):
    src, tgt, mask = plain
    a, b = carrier(src, ns), carrier(tgt, ns)
    pairs = [(x, y) for x in a.elements for y in b.elements]
    return ns.Rel(a, b, frozenset(p for i, p in enumerate(pairs)
                                  if mask >> i & 1))


def scheme(plain, ns):
    return ns.Scheme(tuple((n, carrier(c, ns)) for n, c in plain))


def table(plain, ns):
    attrs, picks = plain
    s = scheme(attrs, ns)
    doms = [dom.elements for _, dom in s.attributes]
    rows = {tuple(d[i % len(d)] for d, i in zip(doms, pick))
            for pick in picks if all(doms)}
    return ns.Table(s, frozenset(rows))


def derivation(plain, ns):
    """A leaf leaves `premises` to its default; a node passes them by name."""
    (ante, cons), rule, premises = plain
    conclusion = ns.AttrFd(sorted(ante), tuple(cons))
    if not premises:
        return ns.Derivation(conclusion, rule)
    return ns.Derivation(conclusion, rule, premises=tuple(
        derivation(p, ns) for p in premises))


DERIVATIONS = st.recursive(
    st.tuples(st.tuples(NAMES, NAMES), st.sampled_from(["Axiom"]),
              st.just(())),
    lambda kids: st.tuples(st.tuples(NAMES, NAMES),
                           st.sampled_from(["Composition", "Consequence"]),
                           st.lists(kids, min_size=1, max_size=2)),
    max_leaves=4)
SCHEMES = st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), CARRIERS),
                   max_size=3, unique_by=lambda a: a[0])
KINDS = {
    "Pair": (st.tuples(VALUES, VALUES),
             lambda p, ns: ns.Pair(build(p[0], ns), build(p[1], ns))),
    "Unit": (st.just(None), lambda p, ns: ns.Unit()),
    "Carrier": (CARRIERS, carrier),
    "Rel": (st.tuples(CARRIERS, CARRIERS, st.integers(0, 1 << 16)),
            relation),
    "Scheme": (SCHEMES, scheme),
    "Table": (st.tuples(SCHEMES, st.lists(st.lists(st.integers(0, 3),
                                                   min_size=3, max_size=3),
                                          max_size=4)),
              table),
    "AttrFd": (st.tuples(NAMES, NAMES),
               lambda p, ns: ns.AttrFd(sorted(p[0]), tuple(p[1]))),
    "UnionTypeReport": (
        st.tuples(st.lists(st.booleans(), min_size=4, max_size=4),
                  st.none() | st.tuples(VALUES, VALUES)),
        lambda p, ns: ns.UnionTypeReport(
            *p[0], *([] if p[1] is None
                     else [tuple(build(v, ns) for v in p[1])]))),
    "Derivation": (DERIVATIONS, derivation),
}


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_each_value_class_behaves_as_its_dataclass_twin(kind, data):
    plains, make = KINDS[kind]
    drawn = data.draw(st.lists(plains, min_size=2, max_size=4))
    drawn += drawn[:2]  # equal values built apart
    new = [make(p, NEW) for p in drawn]
    old = [make(p, OLD) for p in drawn]
    for n, o, p in zip(new, old, drawn):
        assert type(n).__name__ == type(o).__name__ == kind
        assert repr(n) == repr(o)
        assert hash(n) == hash(o)
        assert n == make(p, NEW) and not n != make(p, NEW)
        assert n != o and not n == o
        # other operands get NotImplemented, so theirs decides
        assert n == ANY and o == ANY
        assert copy.deepcopy(n) == n == pickle.loads(pickle.dumps(n))
    for i, (n1, o1) in enumerate(zip(new, old)):
        for n2, o2 in zip(new[i:], old[i:]):
            assert (n1 == n2) == (o1 == o2)
            assert (n1 != n2) == (o1 != o2)
    # same hashes and equalities, so sets iterate in the same order
    assert [repr(v) for v in set(new)] == [repr(v) for v in set(old)]


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_value_classes_are_immutable(kind, data):
    plains, make = KINDS[kind]
    value = make(data.draw(plains), NEW)
    names = [f.name for f in dataclasses.fields(getattr(OLD, kind))]
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


@given(left=VALUES, right=VALUES)
@settings(max_examples=100, deadline=None, database=None)
def test_a_pair_never_equals_a_tuple(left, right):
    a, b = build(left, NEW), build(right, NEW)
    assert rel.Pair(a, b) != (a, b) and not rel.Pair(a, b) == (a, b)
    assert (a, b) != rel.Pair(a, b)


@given(a=CARRIERS, b=CARRIERS)
@settings(max_examples=100, deadline=None, database=None)
def test_carrier_components_take_no_part_in_equality(a, b):
    for ns in (NEW, OLD):
        left, right = carrier(a, ns), carrier(b, ns)
        plain = ns.Carrier("p", (ns.Unit(),))
        paired = ns.Carrier("p", (ns.Unit(),), (left, right))
        assert paired == plain and hash(paired) == hash(plain)
        assert repr(paired) == repr(plain)
    kept = copy.copy(rel.pair_carrier(carrier(a, NEW), carrier(b, NEW)))
    assert kept.components == (carrier(a, NEW), carrier(b, NEW))


def test_construction_work_is_kept():
    with pytest.raises(SchemeError, match="duplicate elements"):
        rel.Carrier("X", ("a", "a"))
    with pytest.raises(SchemeError, match="duplicate attribute names"):
        tables.Scheme((("A", rel.Carrier("A", ())),) * 2)
    c = rel.Carrier("X", ("a", rel.Unit()))
    assert rel.Unit() in c and "b" not in c and len(c) == 2
    assert tables.Scheme((("B", c), ("A", c))).names == ("B", "A")
    f = fd.AttrFd(["A", "B"], ("C",))
    assert f.antecedent == {"A", "B"} and type(f.antecedent) is frozenset
    assert type(f.consequent) is frozenset and str(f) == "A B -> C"
