"""Reference code that no command runs, off the start path.

* `oracle_violation(t, fd)` — the first violating row pair of the literal
  two-row loop in `fd.stored_order`, the pair `fd.scan_violation` must
  return;
* `encode_pairs(table)` — the classical rendering of an n-ary table as a
  binary relation from the first attribute to right-nested pairs of the
  rest;
* the readers of the JSON forms that `relfd.rel` and `relfd.tables`
  write: ``value_from_json(value_to_json(v)) == v``, and so on for
  carriers, relations and tables.
"""

from __future__ import annotations

from typing import Optional

from .errors import SchemeError
from .fd import AttrFd, fd_positions, stored_order, violating_pair
from .rel import Carrier, Pair, Rel, Unit, Value, pair_carrier
from .tables import Scheme, Table


def oracle_violation(t: Table, fd: AttrFd) -> Optional[tuple[tuple, tuple]]:
    """First row pair (`stored_order`) agreeing on x but not on y, if any."""
    return violating_pair(stored_order(t.rows), *fd_positions(t.scheme, fd))


def encode_pairs(table: Table) -> Rel:
    """Relate each row's first value to the right-nested pair of the rest."""
    if len(table.scheme.names) < 2:
        raise SchemeError("encoding needs at least two attributes")
    doms = [dom for _, dom in table.scheme.attributes]
    tgt = doms[-1]
    for dom in reversed(doms[1:-1]):
        tgt = pair_carrier(dom, tgt)

    def nest(values: tuple[Value, ...]) -> Value:
        if len(values) == 1:
            return values[0]
        return Pair(values[0], nest(values[1:]))

    pairs = frozenset((row[0], nest(row[1:])) for row in table.rows)
    return Rel(doms[0], tgt, pairs)


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


def carrier_from_json(obj: dict) -> Carrier:
    return Carrier(obj["name"],
                   tuple(value_from_json(v) for v in obj["elements"]))


def rel_from_json(obj: dict) -> Rel:
    return Rel.make(carrier_from_json(obj["source"]),
                    carrier_from_json(obj["target"]),
                    ((value_from_json(a), value_from_json(b))
                     for a, b in obj["pairs"]))


def table_from_json(obj: dict) -> Table:
    scheme = Scheme(tuple(
        (a["name"], Carrier(a["name"], tuple(value_from_json(v)
                                             for v in a["domain"])))
        for a in obj["attributes"]))
    rows = {tuple(value_from_json(v) for v in row) for row in obj["rows"]}
    return Table.make(scheme, rows)
