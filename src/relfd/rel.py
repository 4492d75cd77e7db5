"""Finite binary relation algebra.

Everything is a `Rel`: data, functions and partial identities are all finite
relations between explicit, named `Carrier`s.  A pair is stored as
``(input, output)``, i.e. ``r`` relates output ``b`` to input ``a`` exactly
when ``(a, b) in r.pairs``; the debug rendering writes each pair the other
way round, as ``b <- a``.

All values are immutable and every operation is pure, so results can be
shared freely.  Carriers are checked at every operation: combining relations
over mismatched carriers raises instead of silently reinterpreting elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .errors import CarrierMismatchError, SchemeError


@dataclass(frozen=True)
class Atom:
    """An uninterpreted named value."""

    name: str


@dataclass(frozen=True)
class Pair:
    left: "Value"
    right: "Value"


@dataclass(frozen=True)
class Unit:
    """The single inhabitant of the one-element carrier."""


@dataclass(frozen=True)
class Tup:
    """An n-ary row value; rows of tables live in carriers as these."""

    items: tuple["Value", ...]


Value = Union[Atom, Pair, Unit, Tup]


def render_value(v: Value) -> str:
    if isinstance(v, Atom):
        return v.name
    if isinstance(v, Pair):
        return f"({render_value(v.left)},{render_value(v.right)})"
    if isinstance(v, Tup):
        return "(" + ",".join(render_value(x) for x in v.items) + ")"
    return "()"


@dataclass(frozen=True)
class Carrier:
    """A named finite ordered set of values; the order is canonical.

    The element set and the hash are computed once, at construction: both
    would otherwise walk every element on each membership test or hash.
    """

    name: str
    elements: tuple[Value, ...]

    def __post_init__(self):
        element_set = frozenset(self.elements)
        if len(element_set) != len(self.elements):
            raise SchemeError(f"carrier {self.name!r} has duplicate elements")
        object.__setattr__(self, "_element_set", element_set)
        object.__setattr__(self, "_hash", hash((self.name, self.elements)))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, v: Value) -> bool:
        return v in self._element_set

    def __repr__(self) -> str:
        return f"Carrier({self.name!r}, {len(self.elements)} elements)"


UNIT_CARRIER = Carrier("1", (Unit(),))


def pair_carrier(a: Carrier, b: Carrier) -> Carrier:
    """Carrier of pairs, in left-major order of the component carriers."""
    return _pair_carrier(a, b)


_PAIR_COMPONENTS: dict = {}


@lru_cache(maxsize=None)
def _pair_carrier(a: Carrier, b: Carrier) -> Carrier:
    elems = tuple(Pair(x, y) for x in a.elements for y in b.elements)
    c = Carrier(f"({a.name}*{b.name})", elems)
    # first registration wins; equal carriers have equal components except
    # in degenerate empty cases
    _PAIR_COMPONENTS.setdefault(c, (a, b))
    return c


@dataclass(frozen=True)
class Rel:
    """A finite binary relation from `source` to `target`.

    Algebra operations construct results directly; use `Rel.make` at input
    boundaries to get membership validation.
    """

    source: Carrier
    target: Carrier
    pairs: frozenset  # of (input, output) Value pairs

    @classmethod
    def make(cls, source: Carrier, target: Carrier,
             pairs: Iterable[tuple[Value, Value]]) -> "Rel":
        ps = frozenset(pairs)
        for a, b in ps:
            if a not in source:
                raise SchemeError(
                    f"input {render_value(a)} not in carrier {source.name!r}")
            if b not in target:
                raise SchemeError(
                    f"output {render_value(b)} not in carrier {target.name!r}")
        return cls(source, target, ps)

    def render(self) -> str:
        """Debug form, one sorted ``output <- input`` line per pair."""
        lines = sorted(f"{render_value(b)} <- {render_value(a)}"
                       for a, b in self.pairs)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Rel({self.source.name} -> {self.target.name}, "
                f"{len(self.pairs)} pairs)")


def _require_same(c1: Carrier, c2: Carrier, what: str) -> None:
    if c1 != c2:
        raise CarrierMismatchError(
            f"{what}: carriers {c1.name!r} and {c2.name!r} differ")


def compose(r: Rel, s: Rel) -> Rel:
    """r . s — apply `s` first, then `r`; needs s.target = r.source."""
    _require_same(s.target, r.source, "compose")
    by_input: dict = {}
    for a, b in r.pairs:
        by_input.setdefault(a, []).append(b)
    out = set()
    for c, a in s.pairs:
        for b in by_input.get(a, ()):
            out.add((c, b))
    return Rel(s.source, r.target, frozenset(out))


def converse(r: Rel) -> Rel:
    return Rel(r.target, r.source, frozenset((b, a) for a, b in r.pairs))


def union(r: Rel, s: Rel) -> Rel:
    _require_same(r.source, s.source, "union")
    _require_same(r.target, s.target, "union")
    return Rel(r.source, r.target, r.pairs | s.pairs)


def intersect(r: Rel, s: Rel) -> Rel:
    _require_same(r.source, s.source, "intersect")
    _require_same(r.target, s.target, "intersect")
    return Rel(r.source, r.target, r.pairs & s.pairs)


def includes(r: Rel, s: Rel) -> bool:
    """True iff r is a superset of s (s is included in r)."""
    _require_same(r.source, s.source, "includes")
    _require_same(r.target, s.target, "includes")
    return s.pairs <= r.pairs


@lru_cache(maxsize=8192)
def kernel(r: Rel) -> Rel:
    """converse(r) composed with r: relates inputs sharing some output."""
    return compose(converse(r), r)


def leq(r: Rel, s: Rel) -> bool:
    """Injectivity preorder: r <= s iff kernel(s) is included in kernel(r)."""
    _require_same(r.source, s.source, "leq")
    return includes(kernel(r), kernel(s))


def identity(a: Carrier) -> Rel:
    return Rel(a, a, frozenset((x, x) for x in a.elements))


def top(a: Carrier, b: Carrier) -> Rel:
    return Rel(a, b, frozenset(itertools.product(a.elements, b.elements)))


def empty(a: Carrier, b: Carrier) -> Rel:
    return Rel(a, b, frozenset())


def bang(a: Carrier) -> Rel:
    """The constant function collapsing every element to the unit value."""
    u = UNIT_CARRIER.elements[0]
    return Rel(a, UNIT_CARRIER, frozenset((x, u) for x in a.elements))


def _require_pairs(p: Carrier) -> None:
    if not all(isinstance(e, Pair) for e in p.elements):
        raise SchemeError(f"carrier {p.name!r} is not a pair carrier")


def _dedup(values: Iterable[Value]) -> tuple:
    seen: dict = {}
    for v in values:
        seen.setdefault(v, None)
    return tuple(seen)


def proj1(p: Carrier) -> Rel:
    """First-component projection out of a pair carrier."""
    _require_pairs(p)
    if p in _PAIR_COMPONENTS:
        tgt = _PAIR_COMPONENTS[p][0]
    else:
        tgt = Carrier(f"left({p.name})", _dedup(e.left for e in p.elements))
    return Rel(p, tgt, frozenset((e, e.left) for e in p.elements))


def proj2(p: Carrier) -> Rel:
    """Second-component projection out of a pair carrier."""
    _require_pairs(p)
    if p in _PAIR_COMPONENTS:
        tgt = _PAIR_COMPONENTS[p][1]
    else:
        tgt = Carrier(f"right({p.name})", _dedup(e.right for e in p.elements))
    return Rel(p, tgt, frozenset((e, e.right) for e in p.elements))


def fork(r: Rel, s: Rel) -> Rel:
    """Pair the outputs of r and s over their shared source."""
    _require_same(r.source, s.source, "fork")
    tgt = pair_carrier(r.target, s.target)
    s_by_input: dict = {}
    for c, b in s.pairs:
        s_by_input.setdefault(c, []).append(b)
    out = set()
    for c, a in r.pairs:
        for b in s_by_input.get(c, ()):
            out.add((c, Pair(a, b)))
    return Rel(r.source, tgt, frozenset(out))


def product(f: Rel, g: Rel) -> Rel:
    """Componentwise action on the pair carrier of the two sources."""
    p = pair_carrier(f.source, g.source)
    return fork(compose(f, proj1(p)), compose(g, proj2(p)))


def is_entire(r: Rel) -> bool:
    """Every source element has at least one output."""
    return len({a for a, _ in r.pairs}) == len(r.source)


def is_function(r: Rel) -> bool:
    """Entire and simple: exactly one output per input."""
    inputs = {a for a, _ in r.pairs}
    return len(inputs) == len(r.pairs) and len(inputs) == len(r.source)


def is_injective(r: Rel) -> bool:
    """kernel(r) is included in the identity."""
    return includes(identity(r.source), kernel(r))


def apply_fn(f: Rel, v: Value) -> Value:
    """Apply a relation that is a function to one source element."""
    outs = [b for a, b in f.pairs if a == v]
    if len(outs) != 1:
        raise SchemeError(
            f"relation is not a function at {render_value(v)}")
    return outs[0]


# ---------------------------------------------------------------------------
# JSON forms; parse(emit(x)) returns a value equal to x


def value_to_json(v: Value):
    if isinstance(v, Atom):
        return v.name
    if isinstance(v, Pair):
        return {"pair": [value_to_json(v.left), value_to_json(v.right)]}
    if isinstance(v, Tup):
        return {"row": [value_to_json(x) for x in v.items]}
    return {"unit": True}


def value_from_json(obj) -> Value:
    if isinstance(obj, str):
        return Atom(obj)
    if isinstance(obj, dict):
        if "pair" in obj:
            left, right = obj["pair"]
            return Pair(value_from_json(left), value_from_json(right))
        if "row" in obj:
            return Tup(tuple(value_from_json(x) for x in obj["row"]))
        if obj.get("unit"):
            return Unit()
    raise SchemeError(f"not a value encoding: {obj!r}")


def carrier_to_json(c: Carrier) -> dict:
    return {"name": c.name, "elements": [value_to_json(v) for v in c.elements]}


def carrier_from_json(obj: dict) -> Carrier:
    return Carrier(obj["name"],
                   tuple(value_from_json(v) for v in obj["elements"]))


def rel_to_json(r: Rel) -> dict:
    pairs = sorted(([value_to_json(a), value_to_json(b)] for a, b in r.pairs),
                   key=str)
    return {"source": carrier_to_json(r.source),
            "target": carrier_to_json(r.target),
            "pairs": pairs}


def rel_from_json(obj: dict) -> Rel:
    return Rel.make(carrier_from_json(obj["source"]),
                    carrier_from_json(obj["target"]),
                    ((value_from_json(a), value_from_json(b))
                     for a, b in obj["pairs"]))
