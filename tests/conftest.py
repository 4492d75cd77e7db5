import itertools
from pathlib import Path

import pytest

from relfd.rel import Atom, Carrier, Rel

FIXTURES = Path(__file__).parent / "fixtures"


def carrier(name: str, n: int) -> Carrier:
    return Carrier(name, tuple(Atom(f"{name.lower()}{i}") for i in range(n)))


class _Unbuilt:
    """`Carrier.elements` that fails when read.  A carrier built from its
    elements keeps them in its own `__dict__`, which wins over this
    non-data descriptor, so only a product's enumeration reads it."""

    def __get__(self, c, owner=None):
        if c is None:
            return self
        raise AssertionError(f"product carrier {c.name!r} was enumerated")


def forbid_product_enumeration(monkeypatch):
    """Make enumerating a product carrier fail.  A product enumerated
    before keeps its elements, and a scheme keeps its row universe, so a
    test that calls this reads tables loaded after it, or loaded fresh
    for it, never a module-level one."""
    monkeypatch.setattr(Carrier, "elements", _Unbuilt())


def all_rels(src: Carrier, tgt: Carrier):
    """Every relation src -> tgt, in canonical bitmask order."""
    pairs = list(itertools.product(src.elements, tgt.elements))
    for bits in range(1 << len(pairs)):
        yield Rel(src, tgt,
                  frozenset(p for i, p in enumerate(pairs) if bits >> i & 1))


def all_functions(src: Carrier, tgt: Carrier):
    for outs in itertools.product(tgt.elements, repeat=len(src)):
        yield Rel(src, tgt, frozenset(zip(src.elements, outs)))


def kernel_representatives(src: Carrier):
    """One function per partition of the source, onto src itself.

    Dependency checks see observer functions only through their kernels, so
    these cover all observer behaviours exhaustively.
    """
    n = len(src)
    reps = []
    for blocks in _partitions(list(range(n))):
        index = {}
        for bi, block in enumerate(blocks):
            for e in block:
                index[e] = bi
        reps.append(Rel(src, src,
                        frozenset((src.elements[i], src.elements[index[i]])
                                  for i in range(n))))
    return reps


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


@pytest.fixture
def abc():
    return carrier("A", 3), carrier("B", 3), carrier("C", 3)
