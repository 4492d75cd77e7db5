"""Finite binary relation algebra.

Everything is a `Rel`: data, functions and partial identities are all finite
relations between explicit, named `Carrier`s.  A pair is stored as
``(input, output)``, i.e. ``r`` relates output ``b`` to input ``a`` exactly
when ``(a, b) in r.pairs``; the debug rendering writes each pair the other
way round, as ``b <- a``.

Values are plain Python values: an atom is a `str` and an n-ary row is a
`tuple` of values.  `Pair` and `Unit` are classes, so a pair never equals a
two-value row.  `Atom` and `Tup` are aliases of `str` and `tuple`.

All values are immutable and every operation is pure, so results can be
shared freely.  For the same reason a `Rel` computes its input index (the
outputs of each input) and its converse at most once and keeps them: a
relation reused as the left operand of many compositions, such as a cached
projection, pays for neither again.  Neither takes part in equality, hash or
repr.  Carriers are checked at every operation: combining relations over
mismatched carriers raises instead of silently reinterpreting elements.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Union

from .errors import CarrierMismatchError, SchemeError


class Frozen:
    """Base of every relfd value class but `laws.Law`.

    Each behaves as ``@dataclass(frozen=True)`` would, without importing
    `dataclasses` (and the `inspect` it loads).  A subclass lists in
    `_fields` the attributes that take part in equality, hash and repr; the
    base `__init__` takes them in that order, by position or by name, and a
    subclass with a default or a coercion calls it from its own signature.
    A hot class (`Pair`, `Carrier`, `Rel`, `Scheme`, `AttrFd`) writes its
    `__init__` out, and its `_key` or equality and hash where they are hot.
    An instance equals only an instance of its own class, hashes as the
    tuple of its fields and shows as ``Name(field=value, ...)``; assigning
    or deleting an attribute raises `AttributeError`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):]
                            if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"({', '.join(fields)})")
        for f, v in zip(fields, values):
            object.__setattr__(self, f, v)

    def _key(self) -> tuple:  # the fields, as one tuple
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle call the class again
        return self.__class__, self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Pair(Frozen):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Value, right: Value):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class Unit(Frozen):
    """The single inhabitant of the one-element carrier."""

    __slots__ = ()


Value = Union[str, Pair, Unit, tuple]
Atom = str    # an uninterpreted named value
Tup = tuple   # an n-ary row value; rows of tables live in carriers as these


def render_value(v: Value) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, Pair):
        return f"({render_value(v.left)},{render_value(v.right)})"
    if isinstance(v, tuple):
        return "(" + ",".join(render_value(x) for x in v) + ")"
    return "()"


class Carrier(Frozen):
    """A named finite ordered set of values; the order is canonical.

    The element set and the hash are computed once, at construction: both
    would otherwise walk every element on each membership test or hash.
    A carrier built by `pair_carrier` keeps its two component carriers in
    `components`, which takes no part in equality.
    """

    __slots__ = ("name", "elements", "components", "_element_set", "_hash")

    def __init__(self, name: str, elements: tuple[Value, ...],
                 components: tuple[Carrier, Carrier] | None = None):
        element_set = frozenset(elements)
        if len(element_set) != len(elements):
            raise SchemeError(f"carrier {name!r} has duplicate elements")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_element_set", element_set)
        object.__setattr__(self, "_hash", hash((name, elements)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.elements) == (other.name, other.elements)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Carrier, (self.name, self.elements, self.components)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, v: Value) -> bool:
        return v in self._element_set

    def __repr__(self) -> str:
        return f"Carrier({self.name!r}, {len(self.elements)} elements)"


UNIT_CARRIER = Carrier("1", (Unit(),))


def pair_carrier(a: Carrier, b: Carrier) -> Carrier:
    """Carrier of pairs, in left-major order of the component carriers."""
    return Carrier(f"({a.name}*{b.name})",
                   tuple(Pair(x, y) for x in a.elements for y in b.elements),
                   (a, b))


class Rel(Frozen):
    """A finite binary relation from `source` to `target`.

    Algebra operations construct results directly; use `Rel.make` at input
    boundaries to get membership validation.  The instance `__dict__` holds
    the two cached properties only.
    """

    __slots__ = ("source", "target", "pairs", "__dict__")
    _fields = ("source", "target", "pairs")

    def __init__(self, source: Carrier, target: Carrier, pairs: frozenset):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "pairs", pairs)  # of (input, output) pairs

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

    @cached_property
    def _by_input(self) -> dict:
        # the outputs of each input; shared by every call, so never mutated
        index: dict = {}
        for a, b in self.pairs:
            index.setdefault(a, []).append(b)
        return index

    @cached_property
    def _converse(self) -> "Rel":
        # a fresh relation: its own converse is built again, not `self`
        return Rel(self.target, self.source,
                   frozenset((b, a) for a, b in self.pairs))

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
    by_input = r._by_input
    out = set()
    for c, a in s.pairs:
        for b in by_input.get(a, ()):
            out.add((c, b))
    return Rel(s.source, r.target, frozenset(out))


def converse(r: Rel) -> Rel:
    return r._converse


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


def proj1(p: Carrier) -> Rel:
    """First-component projection out of a pair carrier."""
    _require_pairs(p)
    if p.components is not None:
        tgt = p.components[0]
    else:
        tgt = Carrier(f"left({p.name})", tuple(dict.fromkeys(
            e.left for e in p.elements)))
    return Rel(p, tgt, frozenset((e, e.left) for e in p.elements))


def proj2(p: Carrier) -> Rel:
    """Second-component projection out of a pair carrier."""
    _require_pairs(p)
    if p.components is not None:
        tgt = p.components[1]
    else:
        tgt = Carrier(f"right({p.name})", tuple(dict.fromkeys(
            e.right for e in p.elements)))
    return Rel(p, tgt, frozenset((e, e.right) for e in p.elements))


def fork(r: Rel, s: Rel) -> Rel:
    """Pair the outputs of r and s over their shared source."""
    _require_same(r.source, s.source, "fork")
    tgt = pair_carrier(r.target, s.target)
    s_by_input = s._by_input
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


def is_simple(r: Rel) -> bool:
    """At most one output per input."""
    return len({a for a, _ in r.pairs}) == len(r.pairs)


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
    if isinstance(v, str):
        return v
    if isinstance(v, Pair):
        return {"pair": [value_to_json(v.left), value_to_json(v.right)]}
    if isinstance(v, tuple):
        return {"row": [value_to_json(x) for x in v]}
    return {"unit": True}


def value_from_json(obj) -> Value:
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        if "pair" in obj:
            left, right = obj["pair"]
            return Pair(value_from_json(left), value_from_json(right))
        if "row" in obj:
            return tuple(value_from_json(x) for x in obj["row"])
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
