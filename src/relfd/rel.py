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
relation reused as the left operand of many compositions pays for neither
again.  Neither takes part in equality, hash or repr.  Carriers are checked
at every operation: combining relations over mismatched carriers raises
instead of silently reinterpreting elements.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Iterable, Iterator, Union

from .errors import CarrierMismatchError, ResourceLimitError, SchemeError


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
        return "(" + ",".join(map(render_value, v)) + ")"
    return "()"


class Carrier(Frozen):
    """A named finite ordered set of values; the order is canonical.

    Built with elements None, a carrier is the product of `components`
    (a row universe, whose `make` is `tuple`, or a pair carrier, `Pair`),
    sized by theirs; its `elements`, made by `make` in left-major order,
    and their set are built on first use, or raise past `CARRIER_LIMIT`
    (an empty product reads no component).  Carriers compare by name and
    size, then two products by their components' elements and others by
    elements, a product's walked one by one (two empty ones are equal):
    neither hashing (as name and size) nor comparing enumerates a product.
    """

    __slots__ = ("name", "components", "_make", "_len", "_hash", "__dict__")

    def __init__(self, name: str, elements: tuple[Value, ...] | None,
                 components: tuple[Carrier, ...] | None = None, make=None):
        if elements is None:
            size = math.prod(map(len, components))
        else:
            element_set, size = frozenset(elements), len(elements)
            if len(element_set) != size:
                raise SchemeError(f"carrier {name!r} has duplicate elements")
            object.__setattr__(self, "elements", elements)  # not a product
            object.__setattr__(self, "_element_set", element_set)
        set_field = object.__setattr__
        set_field(self, "name", name)
        set_field(self, "components", components)
        set_field(self, "_make", make)
        set_field(self, "_len", size)
        set_field(self, "_hash", hash((name, size)))

    @cached_property
    def elements(self) -> tuple[Value, ...]:  # a product's, on first use
        if (n := self._len) > CARRIER_LIMIT:
            raise ResourceLimitError(f"carrier {self.name} has {n} elements, "
                                     f"over the {CARRIER_LIMIT} bound")
        return tuple(self._walk()) if n else ()

    def _walk(self) -> Iterator[Value]:
        """The elements in order, a product's made one by one, unbounded."""
        if "elements" in self.__dict__:
            return iter(self.elements)
        values = itertools.product(*map(Carrier._walk, self.components))
        return (values if self._make is tuple
                else itertools.starmap(self._make, values))

    @cached_property
    def _element_set(self) -> frozenset:
        return frozenset(self.elements)

    def _same_elements(self, other: Carrier) -> bool:
        if self is other or self._len != other._len or not self._len:
            return self._len == other._len
        if self._make is other._make is None:
            return self.elements == other.elements
        if self._make is None or other._make is None:
            return all(map(operator.eq, self._walk(), other._walk()))
        return ((self._make, len(self.components))
                == (other._make, len(other.components))
                and all(map(Carrier._same_elements, self.components,
                            other.components)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or (self.name == other.name
                                 and self._same_elements(other))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # a product stays unbuilt
        return Carrier, (self.name, None if self._make else self.elements,
                         self.components, self._make)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, v: Value) -> bool:
        return v in self._element_set

    def __repr__(self) -> str:
        return f"Carrier({self.name!r}, {self._len} elements)"


UNIT_CARRIER = Carrier("1", (Unit(),))
CARRIER_LIMIT = 10 ** 6  # elements a product carrier may enumerate


def pair_carrier(a: Carrier, b: Carrier) -> Carrier:
    """Carrier of pairs, in left-major order of the component carriers."""
    return Carrier(f"({a.name}*{b.name})", None, (a, b), Pair)


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
    return Rel(s.source, r.target, frozenset(
        {(c, b) for c, a in s.pairs for b in by_input.get(a, ())}))


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


def proj1(p: Carrier) -> Rel:
    """First-component projection out of a pair carrier."""
    return _proj(p, 0)


def proj2(p: Carrier) -> Rel:
    """Second-component projection out of a pair carrier."""
    return _proj(p, 1)


def _proj(p: Carrier, i: int) -> Rel:
    if not all(isinstance(e, Pair) for e in p.elements):
        raise SchemeError(f"carrier {p.name!r} is not a pair carrier")
    side = ("left", "right")[i]
    pairs = [(e, getattr(e, side)) for e in p.elements]
    tgt = (p.components[i] if p._make is Pair else Carrier(
        f"{side}({p.name})", tuple(dict.fromkeys(v for _, v in pairs))))
    return Rel(p, tgt, frozenset(pairs))


def fork(r: Rel, s: Rel) -> Rel:
    """Pair the outputs of r and s over their shared source."""
    _require_same(r.source, s.source, "fork")
    by_input = s._by_input
    return Rel(r.source, pair_carrier(r.target, s.target), frozenset(
        {(c, Pair(a, b)) for c, a in r.pairs for b in by_input.get(c, ())}))


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
    return is_entire(r) and is_simple(r)


def is_injective(r: Rel) -> bool:
    """kernel(r) is included in the identity."""
    return includes(identity(r.source), kernel(r))


# ---------------------------------------------------------------------------
# JSON forms; `relfd.oracles` parses each back to a value equal to x


def value_to_json(v: Value):
    if isinstance(v, str):
        return v
    if isinstance(v, Pair):
        return {"pair": [value_to_json(v.left), value_to_json(v.right)]}
    if isinstance(v, tuple):
        return {"row": [value_to_json(x) for x in v]}
    return {"unit": True}


def carrier_to_json(c: Carrier) -> dict:
    return {"name": c.name, "elements": [value_to_json(v) for v in c.elements]}


def rel_to_json(r: Rel) -> dict:
    pairs = sorted(([value_to_json(a), value_to_json(b)] for a, b in r.pairs),
                   key=str)
    return {"source": carrier_to_json(r.source),
            "target": carrier_to_json(r.target),
            "pairs": pairs}
