"""Every relfd value class but `laws.Law` against its dataclass form.

The value classes of `rel`, `tables`, `fd`, `typed`, `infer`, `query`,
`search` and `laws` (`LawVariable`) are plain classes on `rel.Frozen`, so
that no command but `laws` loads `dataclasses`.  The hot ones (`Pair`, `Carrier`,
`Rel`, `Scheme`, `AttrFd`) write their `__init__` out; the rest call the
base's.  Each was a dataclass; that form is kept below as its
twin, under the same name.  On generated values each class must show,
compare and hash as its twin does, survive copy and pickle, stay immutable,
and keep its excluded fields (`Carrier.components`, `Scheme.names`) out of
equality; an `AttrFd` is built by its constructor or by the one-pass path
of `fd.parse_fd_lines`.  `query.Env` was the one mutable dataclass: it
keeps equality, repr, its unhashability and a fresh dict per default, and
is now frozen.
`laws.Law` stays a dataclass, since the bench tracer rebuilds registry
entries with `dataclasses.replace`; a test pins that no other module
imports `dataclasses`.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional
from unittest.mock import ANY

import pytest
from hypothesis import given, settings, strategies as st

from relfd import fd, infer, laws, query, rel, search, tables, typed
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
        object.__setattr__(self, "_hash", hash((self.name,
                                                len(self.elements))))

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


@dataclass(frozen=True)
class RelRef:
    name: str
    args = ()


@dataclass(frozen=True)
class Proj:
    scheme: str
    attrs: frozenset
    args = ()

    def __post_init__(self):
        object.__setattr__(self, "attrs", frozenset(self.attrs))


@dataclass(frozen=True)
class Pid:
    table: str
    args = ()


@dataclass(frozen=True, init=False)
class _Inner:
    args: tuple

    def __init__(self, *args):
        object.__setattr__(self, "args", args)


class Converse(_Inner):
    pass


class Kernel(_Inner):
    pass


class UnionOp(_Inner):
    pass


class Fork(_Inner):
    pass


class Compose(_Inner):
    def __init__(self, *factors):
        super().__init__(*(x for f in factors
                           for x in (f.args if isinstance(f, Compose)
                                     else (f,))))


@dataclass
class Env:
    tables: dict = field(default_factory=dict)
    rels: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EquivResult:
    equal: bool
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.equal


@dataclass(frozen=True)
class Scope:
    max_rows: int = 2
    domain_sizes: int = 2
    max_carrier: int = 3

    def __post_init__(self):
        if min(self.max_rows, self.domain_sizes, self.max_carrier) < 1:
            raise ValueError("scope bounds must all be positive")


@dataclass(frozen=True)
class RuleInstance:
    premises: tuple
    conclusion: AttrFd


@dataclass(frozen=True)
class SoundnessResult:
    ok: bool
    witness: Optional[Table] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class LawVariable:
    name: str
    source: str
    target: str
    function: bool = False


OPS = (Converse, Kernel, UnionOp, Fork, Compose)
OLD = SimpleNamespace(**{c.__name__: c for c in (
    Pair, Unit, Carrier, Rel, Scheme, Table, AttrFd, UnionTypeReport,
    Derivation, RelRef, Proj, Pid, *OPS, Env, EquivResult, Scope,
    RuleInstance, SoundnessResult, LawVariable)})
NEW = SimpleNamespace(
    Pair=rel.Pair, Unit=rel.Unit, Carrier=rel.Carrier, Rel=rel.Rel,
    Scheme=tables.Scheme, Table=tables.Table, AttrFd=fd.AttrFd,
    UnionTypeReport=typed.UnionTypeReport, Derivation=infer.Derivation,
    **{c.__name__: getattr(query, c.__name__)
       for c in (RelRef, Proj, Pid, *OPS, Env, EquivResult)},
    Scope=search.Scope, RuleInstance=search.RuleInstance,
    SoundnessResult=search.SoundnessResult, LawVariable=laws.LawVariable)


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


def query_node(plain, ns):
    """A leaf is (class name, its fields); an inner node is (class name,
    operand list), built with its operands one by one."""
    kind, *rest = plain
    if kind in ("RelRef", "Pid"):
        return getattr(ns, kind)(*rest)
    if kind == "Proj":  # a list of names, made a frozenset
        return ns.Proj(rest[0], list(rest[1]))
    return getattr(ns, kind)(*(query_node(k, ns) for k in rest[0]))


def rule_instance(plain, ns):
    premises, conclusion, by_name = plain
    args = (tuple(ns.AttrFd(sorted(a), sorted(c)) for a, c in premises),
            ns.AttrFd(sorted(conclusion[0]), sorted(conclusion[1])))
    if by_name:
        return ns.RuleInstance(conclusion=args[1], premises=args[0])
    return ns.RuleInstance(*args)


def with_default(kind, plain, ns, name, make):
    """`kind` built from the required fields, and from its defaulted last
    field `name`, made by `make`, by name unless that is None."""
    *required, last = plain
    if last is None:
        return getattr(ns, kind)(*required)
    return getattr(ns, kind)(*required, **{name: make(last, ns)})


SCHEME_NAMES = st.sampled_from(["m", "n"])
PROJS = st.tuples(st.just("Proj"), SCHEME_NAMES,
                  st.lists(st.sampled_from("ABC")).map(tuple))
LEAVES = (st.tuples(st.just("RelRef"), st.sampled_from(["r", "s"]))
          | st.tuples(st.just("Pid"), SCHEME_NAMES) | PROJS)


def inner(kind, kids):
    arity = (1, 1) if kind in ("Converse", "Kernel") else (1, 3)
    return st.tuples(st.just(kind),
                     st.lists(kids, min_size=arity[0], max_size=arity[1]))


QUERIES = st.recursive(
    LEAVES, lambda kids: st.one_of([inner(c.__name__, kids) for c in OPS]),
    max_leaves=4)
DERIVATIONS = st.recursive(
    st.tuples(st.tuples(NAMES, NAMES), st.sampled_from(["Axiom"]),
              st.just(())),
    lambda kids: st.tuples(st.tuples(NAMES, NAMES),
                           st.sampled_from(["Composition", "Consequence"]),
                           st.lists(kids, min_size=1, max_size=2)),
    max_leaves=4)
SCHEMES = st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), CARRIERS),
                   max_size=3, unique_by=lambda a: a[0])
TABLES = st.tuples(SCHEMES, st.lists(st.lists(st.integers(0, 3),
                                              min_size=3, max_size=3),
                                     max_size=4))


def attr_fd(plain, ns):
    ante, cons, parsed = sorted(plain[0]), tuple(plain[1]), plain[2]
    if parsed and ns is NEW and ante and cons:
        # through the one-pass parser, names in the same order
        return fd.parse_fd_lines(" ".join(ante) + " -> " + ",".join(cons))[0]
    return ns.AttrFd(ante, cons)


KINDS = {
    "Pair": (st.tuples(VALUES, VALUES),
             lambda p, ns: ns.Pair(build(p[0], ns), build(p[1], ns))),
    "Unit": (st.just(None), lambda p, ns: ns.Unit()),
    "Carrier": (CARRIERS, carrier),
    "Rel": (st.tuples(CARRIERS, CARRIERS, st.integers(0, 1 << 16)),
            relation),
    "Scheme": (SCHEMES, scheme),
    "Table": (TABLES, table),
    "AttrFd": (st.tuples(NAMES, NAMES, st.booleans()), attr_fd),
    "UnionTypeReport": (
        st.tuples(st.lists(st.booleans(), min_size=4, max_size=4),
                  st.none() | st.tuples(VALUES, VALUES)),
        lambda p, ns: ns.UnionTypeReport(
            *p[0], *([] if p[1] is None
                     else [tuple(build(v, ns) for v in p[1])]))),
    "Derivation": (DERIVATIONS, derivation),
    **{kind: (st.tuples(st.just(kind), st.sampled_from(["r", "s"])),
              query_node) for kind in ("RelRef", "Pid")},
    "Proj": (PROJS, query_node),
    **{c.__name__: (inner(c.__name__, QUERIES), query_node) for c in OPS},
    "EquivResult": (
        st.tuples(st.booleans(), st.none() | st.tuples(VALUES, VALUES)),
        lambda p, ns: with_default(
            "EquivResult", p, ns, "witness",
            lambda w, ns: tuple(build(v, ns) for v in w))),
    "Scope": (st.fixed_dictionaries({}, optional={
        "max_rows": st.integers(1, 4),
        "domain_sizes": st.integers(1, 3),
        "max_carrier": st.integers(1, 4)}),
        lambda p, ns: ns.Scope(**p)),
    "RuleInstance": (st.tuples(st.lists(st.tuples(NAMES, NAMES), max_size=2),
                               st.tuples(NAMES, NAMES), st.booleans()),
                     rule_instance),
    "SoundnessResult": (
        st.tuples(st.booleans(), st.none() | TABLES),
        lambda p, ns: with_default("SoundnessResult", p, ns, "witness",
                                   table)),
    "LawVariable": (
        st.tuples(st.sampled_from(["f", "R"]), st.sampled_from(["A", "B"]),
                  st.sampled_from(["A", "C"]), st.none() | st.booleans()),
        lambda p, ns: with_default("LawVariable", p, ns, "function",
                                   lambda f, ns: f)),
}


# The classes moved onto `rel.Frozen` last build through its `__init__`
# and keep every other method of the base, so fewer examples do.
MOVED = ["RelRef", "Proj", "Pid", *(c.__name__ for c in OPS), "EquivResult",
         "Scope", "RuleInstance", "SoundnessResult", "LawVariable"]


@pytest.mark.parametrize("kind", [k for k in KINDS if k not in MOVED])
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_each_value_class_behaves_as_its_dataclass_twin(kind, data):
    behaves_as_its_twin(kind, data)


@pytest.mark.parametrize("kind", MOVED)
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_each_moved_value_class_behaves_as_its_dataclass_twin(kind, data):
    behaves_as_its_twin(kind, data)


def behaves_as_its_twin(kind, data):
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
        assert copy.copy(n) == n
        if hasattr(type(o), "__bool__"):
            assert bool(n) is bool(o)
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


ENV_DICTS = st.dictionaries(st.sampled_from(["m", "r", "s"]), st.integers(),
                            max_size=2)


@given(tables=ENV_DICTS, rels=ENV_DICTS)
@settings(max_examples=50, deadline=None, database=None)
def test_env_keeps_what_its_mutable_twin_showed(tables, rels):
    """`Env` was the one plain ``@dataclass``: it keeps its keywords,
    equality, repr and unhashability, and is frozen now."""
    new = query.Env(tables=dict(tables), rels=dict(rels))
    old = Env(tables=dict(tables), rels=dict(rels))
    assert repr(new) == repr(old)
    assert new == query.Env(dict(tables), dict(rels)) and new != old
    assert (new == query.Env(tables, {"x": 0})) == (
        old == Env(tables, {"x": 0}))
    for value in (new, old):
        with pytest.raises(TypeError, match="unhashable type: 'Env'"):
            hash(value)
    assert copy.deepcopy(new) == new == pickle.loads(pickle.dumps(new))
    for name in ("tables", "rels", "extra"):
        with pytest.raises(AttributeError):
            setattr(new, name, {})
        with pytest.raises(AttributeError):
            delattr(new, name)


def test_env_defaults_are_fresh_empty_dicts():
    a, b = query.Env(), query.Env(rels={"r": 1})
    assert a.tables == a.rels == b.tables == {} and repr(a) == repr(Env())
    assert a.tables is not a.rels and a.tables is not b.tables


def test_nested_nodes_and_keyword_scopes_survive_copy_and_pickle():
    ref, pid = query.RelRef("r"), query.Pid("m")
    node = query.Compose(query.Converse(query.Compose(ref, pid)),
                         query.Compose(query.Kernel(ref), pid))
    assert node.args == (query.Converse(query.Compose(ref, pid)),
                         query.Kernel(ref), pid)
    scope = search.Scope(max_carrier=2, domain_sizes=3)
    for value in (node, node.args[0], scope):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
            assert repr(twin) == repr(value) and hash(twin) == hash(value)
    assert scope == search.Scope(2, 3, 2)


@pytest.mark.parametrize("ns", [NEW, OLD], ids=["new", "old"])
def test_constructors_take_their_fields_exactly_once(ns):
    conclusion = ns.AttrFd({"A"}, {"B"})
    for call in (lambda: ns.RuleInstance(()),
                 lambda: ns.RuleInstance((), conclusion, None),
                 lambda: ns.RuleInstance((), premises=()),
                 lambda: ns.RuleInstance((), conclusion, extra=1),
                 lambda: ns.RuleInstance(conclusion=conclusion),
                 lambda: ns.RelRef(), lambda: ns.Pid("m", "n"),
                 lambda: ns.Proj("m"), lambda: ns.EquivResult(),
                 lambda: ns.LawVariable("f", "A")):
        with pytest.raises(TypeError):
            call()
    for bad in ({"max_rows": 0}, {"domain_sizes": 0},
                {"max_carrier": -1}):
        with pytest.raises(ValueError, match="must all be positive"):
            ns.Scope(**bad)
    with pytest.raises(TypeError):
        ns.Scope(domain_sizes=(2, 2))


SRC = Path(__file__).resolve().parents[1] / "src" / "relfd"


def test_only_the_law_registry_imports_dataclasses():
    """`laws.Law` stays a dataclass because the bench tracer rebuilds
    registry entries with `dataclasses.replace`; every other value class
    of the package is on `rel.Frozen`, so no other module imports it."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.add(path.name)
    assert importers <= {"laws.py"}
    assert dataclasses.is_dataclass(laws.Law)
