"""n-ary tables with named schemes, and their bridge to binary relations.

A `Table` is a duplicate-free set of rows over a `Scheme`.  The bridge to the
relation algebra goes through two constructions over the scheme's full row
universe (the Cartesian product of the attribute domains, in lexicographic
order):

* `pid(table)` — the partial identity holding exactly the stored rows;
* `proj_fn(scheme, attrs)` — the projection function onto sub-rows.

The classical rendering of a table as one binary relation, `encode_pairs`,
is in `relfd.oracles`.

A row carrier is the product of the domains (`rel.Carrier`), built once
per `Scheme` object and kept on it, as are the projection maps of
`relfd.query`.  One table's queries reuse them, and they go with the
scheme, so a long-lived process keeps no row universe of a table it has
dropped.  A universe of any size is enumerated only when evaluation reads
its rows, past `rel.CARRIER_LIMIT` of them by raising.

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
import sys
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Union

from .errors import ParseError, SchemeError, UnknownAttributeError
from .rel import Carrier, Frozen, Rel, render_value, value_to_json


class Scheme(Frozen):
    """Ordered attribute declarations: (name, domain carrier) pairs.

    `names`, the attribute names in order, and `positions`, each name's
    index in them, take no part in eq, hash or repr, nor do the two kept
    in the instance `__dict__`, each built on first use: the `universe`
    and `proj_maps`, the projection maps by attribute set.
    """

    __slots__ = ("attributes", "names", "positions", "__dict__")
    _fields = ("attributes",)

    def __init__(self, attributes: tuple[tuple[str, Carrier], ...]):
        names = tuple(n for n, _ in attributes)
        positions = {n: i for i, n in enumerate(names)}
        if len(positions) != len(names):
            raise SchemeError("duplicate attribute names in scheme")
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "positions", positions)

    @cached_property
    def universe(self) -> Carrier:
        return row_product(self, self.names)

    @cached_property
    def proj_maps(self) -> dict:
        return {}  # filled by `relfd.query._proj_map`

    def select(self, attrs: Iterable[str]) -> tuple[str, ...]:
        """The requested attributes in scheme order; an unknown one raises,
        the least by name first."""
        wanted = set(attrs)
        picked = tuple(n for n in self.names if n in wanted)
        if len(picked) != len(wanted):
            unknown = min(wanted.difference(self.names))
            raise UnknownAttributeError(f"unknown attribute {unknown!r}")
        return picked


class Table(Frozen):
    __slots__ = _fields = ("scheme", "rows")  # Scheme, frozenset of rows

    @classmethod
    def make(cls, scheme: Scheme, rows: Iterable[tuple]) -> "Table":
        rs = frozenset(rows)
        for row in rs:
            if not isinstance(row, tuple) or len(row) != len(scheme.names):
                raise SchemeError(f"row {row!r} does not match scheme arity")
            for v, (name, dom) in zip(row, scheme.attributes):
                if v not in dom:
                    raise SchemeError(
                        f"value {render_value(v)} outside domain of {name!r}")
        return cls(scheme, rs)

    def __repr__(self) -> str:
        return f"Table({','.join(self.scheme.names)}; {len(self.rows)} rows)"


def row_carrier(obj: Union[Table, Scheme]) -> Carrier:
    """Carrier of all rows of the full domain product, in lex order: the
    scheme's `universe`, or its table's."""
    return (obj.scheme if isinstance(obj, Table) else obj).universe


def row_product(scheme: Scheme, names: tuple[str, ...]) -> Carrier:
    """Carrier of the sub-rows over `names`, attributes of the scheme in
    its order, in lex order: the product of their domains, unbuilt."""
    return Carrier("rows(" + ",".join(names) + ")", None, tuple(
        [scheme.attributes[scheme.positions[n]][1] for n in names]), tuple)


def pid(table: Table) -> Rel:
    """Partial identity over the row universe holding exactly the rows."""
    c = row_carrier(table)
    return Rel(c, c, frozenset(zip(table.rows, table.rows)))


def proj_fn(scheme: Scheme, attrs: Iterable[str]) -> Rel:
    """Total function from full rows to their restriction to `attrs`."""
    src = row_carrier(scheme)
    names = scheme.select(attrs)
    rows = src.elements
    images = (zip(*[map(itemgetter(scheme.positions[n]), rows)
                    for n in names])
              if names else [()] * len(rows))
    return Rel(src, row_product(scheme, names), frozenset(zip(rows, images)))


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
    header = next(reader, None)
    if header is None:
        raise ParseError("empty table file", line=1)
    names = [h.strip() for h in header]
    if any(not n for n in names):
        raise ParseError("blank attribute name in header", line=1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate attribute name in header", line=1)

    declared = declared or {}
    for name in declared:
        if name not in names:
            raise ParseError(f"schema declares unknown attribute {name!r}")
    checks = [(name, i, frozenset(declared[name]))
              for i, name in enumerate(names) if name in declared]

    raw_rows: list[tuple[str, ...]] = []
    for lineno, record in enumerate(reader, start=2):
        if not record or (len(record) == 1 and record[0].strip() == ""):
            continue
        if len(record) != len(names):
            raise ParseError(
                f"expected {len(names)} values, found {len(record)}",
                line=lineno)
        for name, i, domain in checks:
            if record[i] not in domain:
                raise ParseError(f"value {record[i]!r} outside declared "
                                 f"domain of {name!r}", line=lineno)
        raw_rows.append(tuple(record))

    # every row fits: checked above, or its domain is built from its column
    scheme = Scheme(tuple(
        (name, Carrier(name, tuple(declared[name] if name in declared
                                   else sorted({r[i] for r in raw_rows}))))
        for i, name in enumerate(names)))
    rows = frozenset(raw_rows)
    if len(rows) < len(raw_rows):
        print(f"dropped {len(raw_rows) - len(rows)} duplicate row(s) at "
              "load", file=sys.stderr)
    return Table(scheme, rows)


def read_text(path: str) -> str:
    """The file's text, read as UTF-8, without a leading byte-order mark."""
    with open(path, encoding="utf-8") as fh:
        return fh.read().removeprefix("\ufeff")


def load_table(path: str, schema_path: str | None = None) -> Table:
    declared = (None if schema_path is None
                else load_schema_json(read_text(schema_path)))
    return parse_table_csv(read_text(path), declared)


def table_to_json(table: Table) -> dict:
    """Lossless JSON form carrying the domains alongside the rows."""
    return {
        "attributes": [{"name": n, "domain": [value_to_json(v)
                                              for v in dom.elements]}
                       for n, dom in table.scheme.attributes],
        "rows": sorted(([value_to_json(v) for v in row]
                        for row in table.rows), key=str),
    }


def table_to_csv(table: Table) -> str:
    """Render a table as CSV with rows in a deterministic sorted order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.scheme.names)
    rendered = sorted([render_value(v) for v in row] for row in table.rows)
    writer.writerows(rendered)
    return buf.getvalue()
