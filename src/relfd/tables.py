"""n-ary tables with named schemes, and their bridge to binary relations.

A `Table` is a duplicate-free set of rows over a `Scheme`.  The bridge to the
relation algebra goes through three constructions over the scheme's full row
universe (the Cartesian product of the attribute domains, in lexicographic
order):

* `pid(table)` — the partial identity holding exactly the stored rows;
* `proj_fn(scheme, attrs)` — the projection function onto sub-rows;
* `encode_pairs(table)` — the classical rendering of an n-ary table as a
  binary relation from the first attribute to right-nested pairs of the rest.

Row carriers and projection functions are cached by scheme, in LRU caches of
`CACHE_SIZE` entries each: the queries on one table reuse them, and the bound
keeps a long-lived process from pinning the row universe of every scheme it
has seen, with the index and converse each cached `Rel` keeps.

Values are those of `relfd.rel`: an atom is a `str` and a row is a `tuple`
of values, in scheme order.  CSV ingestion reads every value as an atom, so
a CSV row is the tuple of its fields; an optional JSON sidecar declares
per-attribute domains, otherwise the active domain (sorted values occurring
in the column) is used.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from functools import lru_cache
from typing import Iterable, Iterator, Union

from .errors import (ParseError, ResourceLimitError, SchemeError,
                     UnknownAttributeError)
from .rel import (Carrier, Frozen, Pair, Rel, Value, pair_carrier,
                  render_value, value_from_json, value_to_json)

ROW_CARRIER_LIMIT = 10 ** 6
CACHE_SIZE = 8


class Scheme(Frozen):
    """Ordered attribute declarations: (name, domain carrier) pairs.

    `names`, the attribute names in order, and `positions`, each name's
    index in them, take no part in eq, hash or repr.
    """

    __slots__ = ("attributes", "names", "positions")
    _fields = ("attributes",)

    def __init__(self, attributes: tuple[tuple[str, Carrier], ...]):
        names = tuple(n for n, _ in attributes)
        positions = {n: i for i, n in enumerate(names)}
        if len(positions) != len(names):
            raise SchemeError("duplicate attribute names in scheme")
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "positions", positions)

    def _key(self) -> tuple:  # schemes key the bridge's caches
        return (self.attributes,)

    def domain(self, name: str) -> Carrier:
        for n, dom in self.attributes:
            if n == name:
                return dom
        raise UnknownAttributeError(f"unknown attribute {name!r}")

    def select(self, attrs: Iterable[str]) -> tuple[str, ...]:
        """The requested attributes in scheme order; an unknown one raises,
        the least by name first."""
        wanted = set(attrs)
        picked = tuple(n for n in self.names if n in wanted)
        if len(picked) != len(wanted):
            unknown = min(wanted.difference(self.names))
            raise UnknownAttributeError(f"unknown attribute {unknown!r}")
        return picked

    def arity(self) -> int:
        return len(self.attributes)


class Table(Frozen):
    __slots__ = _fields = ("scheme", "rows")  # Scheme, frozenset of rows

    @classmethod
    def make(cls, scheme: Scheme, rows: Iterable[tuple]) -> "Table":
        rs = frozenset(rows)
        for row in rs:
            if not isinstance(row, tuple) or len(row) != scheme.arity():
                raise SchemeError(f"row {row!r} does not match scheme arity")
            for v, (name, dom) in zip(row, scheme.attributes):
                if v not in dom:
                    raise SchemeError(
                        f"value {render_value(v)} outside domain of {name!r}")
        return cls(scheme, rs)

    def __repr__(self) -> str:
        return f"Table({','.join(self.scheme.names)}; {len(self.rows)} rows)"


def row_carrier(obj: Union[Table, Scheme]) -> Carrier:
    """Carrier of all rows of the full domain product, in lex order."""
    scheme = obj.scheme if isinstance(obj, Table) else obj
    return _row_carrier(scheme)


@lru_cache(maxsize=CACHE_SIZE)
def _row_carrier(scheme: Scheme) -> Carrier:
    size = math.prod(len(dom) for _, dom in scheme.attributes)
    if size > ROW_CARRIER_LIMIT:
        raise ResourceLimitError(f"row universe has {size} rows, "
                                 f"over the {ROW_CARRIER_LIMIT} bound")
    elements = tuple(itertools.product(*(dom.elements
                                         for _, dom in scheme.attributes)))
    return Carrier("rows(" + ",".join(scheme.names) + ")", elements)


def _sub_scheme(scheme: Scheme, attrs: Iterable[str]) -> Scheme:
    return Scheme(tuple((n, scheme.domain(n)) for n in scheme.select(attrs)))


def sub_row_carrier(scheme: Scheme, attrs: Iterable[str]) -> Carrier:
    """Row carrier of the sub-scheme given by `attrs`, in scheme order."""
    return _row_carrier(_sub_scheme(scheme, attrs))


def pid(table: Table) -> Rel:
    """Partial identity over the row universe holding exactly the rows."""
    c = row_carrier(table)
    return Rel(c, c, frozenset((r, r) for r in table.rows))


def proj_fn(scheme: Scheme, attrs: Iterable[str]) -> Rel:
    """Total function from full rows to their restriction to `attrs`."""
    return _proj_fn(scheme, frozenset(attrs))


@lru_cache(maxsize=CACHE_SIZE)
def _proj_fn(scheme: Scheme, attrs: frozenset) -> Rel:
    src = row_carrier(scheme)
    sub = _sub_scheme(scheme, attrs)
    positions = [scheme.positions[n] for n in sub.names]
    return Rel(src, _row_carrier(sub),
               frozenset((row, tuple(row[i] for i in positions))
                         for row in src.elements))


def encode_pairs(table: Table) -> Rel:
    """Relate each row's first value to the right-nested pair of the rest."""
    if table.scheme.arity() < 2:
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


def count_tables(universe: int, max_rows: int,
                 cap: int | None = None) -> int:
    """Number of tables with at most `max_rows` rows over `universe` rows.

    With a `cap` the sum stops at the first row count that takes it past
    the cap, so a huge scope is sized at once; the partial sum returned
    then already exceeds the cap.
    """
    total = 0
    for k in range(0, min(max_rows, universe) + 1):
        total += math.comb(universe, k)
        if cap is not None and total > cap:
            break
    return total


def enumerate_tables(scheme: Scheme, max_rows: int) -> Iterator[Table]:
    """All tables with at most `max_rows` rows, by row count then row lex:
    the literal enumeration the table search is tested against."""
    universe = row_carrier(scheme).elements
    for k in range(0, min(max_rows, len(universe)) + 1):
        for combo in itertools.combinations(universe, k):
            yield Table(scheme, frozenset(combo))


# ---------------------------------------------------------------------------
# CSV / JSON ingestion


def load_schema_json(text: str) -> dict[str, tuple[str, ...]]:
    """Parse a sidecar declaring per-attribute domains as value lists."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"bad schema JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ParseError("schema JSON must be an object of value lists")
    out = {}
    for name, values in obj.items():
        if (not isinstance(values, list)
                or not all(isinstance(v, str) for v in values)):
            raise ParseError(f"domain of {name!r} must be a list of strings")
        if len(set(values)) != len(values):
            raise ParseError(f"domain of {name!r} has duplicate values")
        out[name] = tuple(values)
    return out


def _records(reader):
    """The reader's records; a CSV syntax error, such as a field past the
    `csv` module's size limit, becomes a `ParseError` at its line."""
    try:
        yield from reader
    except csv.Error as e:
        raise ParseError(f"bad CSV: {e}", line=reader.line_num) from None


def parse_table_csv(text: str,
                    declared: dict[str, tuple[str, ...]] | None = None
                    ) -> Table:
    """Build a table from CSV text; first line holds the attribute names."""
    reader = _records(csv.reader(io.StringIO(text)))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty table file", line=1) from None
    names = [h.strip() for h in header]
    if any(not n for n in names):
        raise ParseError("blank attribute name in header", line=1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate attribute name in header", line=1)

    declared = declared or {}
    for name in declared:
        if name not in names:
            raise ParseError(f"schema declares unknown attribute {name!r}")
    allowed = {name: frozenset(values) for name, values in declared.items()}

    raw_rows: list[tuple[str, ...]] = []
    for lineno, record in enumerate(reader, start=2):
        if not record or (len(record) == 1 and record[0].strip() == ""):
            continue
        if len(record) != len(names):
            raise ParseError(
                f"expected {len(names)} values, found {len(record)}",
                line=lineno)
        for name, value in zip(names, record):
            if name in allowed and value not in allowed[name]:
                raise ParseError(
                    f"value {value!r} outside declared domain of {name!r}",
                    line=lineno)
        raw_rows.append(tuple(record))

    attributes = []
    for i, name in enumerate(names):
        if name in declared:
            values = declared[name]
        else:
            values = sorted({row[i] for row in raw_rows})
        attributes.append((name, Carrier(name, tuple(values))))
    scheme = Scheme(tuple(attributes))

    rows = set(raw_rows)
    dropped = len(raw_rows) - len(rows)
    if dropped:
        import logging  # about 6 ms of start-up that no other path needs
        logging.getLogger(__name__).warning(
            "dropped %d duplicate row(s) at load", dropped)
    # every row was checked above against the arity and the declared
    # domains, and an undeclared domain is built from its column
    return Table(scheme, frozenset(rows))


def load_table(path: str, schema_path: str | None = None) -> Table:
    declared = None
    if schema_path is not None:
        with open(schema_path, encoding="utf-8") as fh:
            declared = load_schema_json(fh.read())
    with open(path, encoding="utf-8") as fh:
        return parse_table_csv(fh.read(), declared)


def table_to_json(table: Table) -> dict:
    """Lossless JSON form carrying the domains alongside the rows."""
    return {
        "attributes": [{"name": n, "domain": [value_to_json(v)
                                              for v in dom.elements]}
                       for n, dom in table.scheme.attributes],
        "rows": sorted(([value_to_json(v) for v in row]
                        for row in table.rows), key=str),
    }


def table_from_json(obj: dict) -> Table:
    scheme = Scheme(tuple(
        (a["name"], Carrier(a["name"], tuple(value_from_json(v)
                                             for v in a["domain"])))
        for a in obj["attributes"]))
    rows = {tuple(value_from_json(v) for v in row) for row in obj["rows"]}
    return Table.make(scheme, rows)


def table_to_csv(table: Table) -> str:
    """Render a table as CSV with rows in a deterministic sorted order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.scheme.names)
    rendered = sorted([render_value(v) for v in row] for row in table.rows)
    writer.writerows(rendered)
    return buf.getvalue()
