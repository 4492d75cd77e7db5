"""Batch command-line front end.

Subcommands: `check`, `closure`, `derive`, `cex`, `optimize`, `laws`.
Exit codes: 0 success / property holds, 1 dependency or law refuted (a
witness is printed), 2 input error, 3 internal-consistency failure (two
checking routes disagreed, which signals a bug rather than bad input).
Each command imports the modules it runs, so start-up loads only `fd`,
`tables` and the modules under them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fd, tables
from .errors import InternalCheckError, ParseError, RelfdError
from .rel import Carrier, rel_to_json, render_value

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json_output:
        print(json.dumps(payload, indent=2))
    elif text:
        print(text)


def _load_fds(args: argparse.Namespace) -> list[fd.AttrFd]:
    with open(args.fds, encoding="utf-8") as fh:
        return fd.parse_fd_lines(fh.read())


def _row_text(row: tuple) -> str:
    """`render_value` of a row, each atom holding ``,()"`` as a JSON string."""
    return "(" + ",".join(json.dumps(v) if any(c in v for c in ',()"')
                          else v for v in row) + ")"


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args: argparse.Namespace) -> int:
    table = tables.load_table(args.table, args.schema)
    fds = _load_fds(args)
    rows = fd.stored_order(table.rows)
    stored = Carrier("stored", tuple(rows))  # S, for the shunted route
    lines = []
    payload = []
    any_violation = False
    for item in fds:
        at = fd.fd_positions(table.scheme, item)
        witness = fd.scan_violation(rows, *at)
        scan = witness is None
        algebraic = fd.satisfies_shunted(stored, *at)
        typed = fd.satisfies_refinement(rows, *at)
        if not (scan == algebraic == typed):
            raise InternalCheckError(
                f"checkers disagree on {item}: scan={scan} "
                f"algebraic={algebraic} typed={typed}")
        if scan:
            lines.append(f"{item}: holds")
            payload.append({"fd": str(item), "holds": True, "witness": None})
        else:
            any_violation = True
            r1, r2 = witness
            lines.append(f"{item}: violated by rows "
                         f"{_row_text(r1)} / {_row_text(r2)}")
            payload.append({
                "fd": str(item), "holds": False,
                "witness": [[render_value(v) for v in r1],
                            [render_value(v) for v in r2]],
            })
    _emit(args, {"results": payload}, "\n".join(lines))
    return EXIT_REFUTED if any_violation else EXIT_OK


def cmd_closure(args: argparse.Namespace) -> int:
    from . import infer
    fds = _load_fds(args)
    attrs = fd.parse_attr_list(args.attrs)
    closure = sorted(infer.attr_closure(fds, attrs))
    _emit(args, {"closure": closure}, " ".join(closure))
    return EXIT_OK


def cmd_derive(args: argparse.Namespace) -> int:
    from . import infer
    fds = _load_fds(args)
    goal = fd.parse_fd(args.goal)
    tree = infer.derive(fds, goal)
    if tree is None:
        _emit(args, {"derivable": False, "derivation": None},
              "not derivable")
        return EXIT_REFUTED
    obj = infer.derivation_to_dict(tree)
    # the JSON form prints the payload alone
    text = "" if args.json_output else json.dumps(obj, indent=2)
    _emit(args, {"derivable": True, "derivation": obj}, text)
    return EXIT_OK


def cmd_cex(args: argparse.Namespace) -> int:
    from . import search
    fds = _load_fds(args)
    goal = fd.parse_fd(args.goal)
    scope = search.Scope(max_rows=args.scope_rows,
                         domain_sizes=args.scope_dom)
    witness = search.search_tables(fds, goal, scope)
    if witness is None:
        _emit(args, {"witness": None}, "none")
        return EXIT_OK
    payload = {"witness": tables.table_to_json(witness)}
    _emit(args, payload, tables.table_to_csv(witness).rstrip("\n"))
    return EXIT_REFUTED


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.schema is not None and args.table is None:
        raise RelfdError("--schema declares the domains of --table; "
                         "give --table with it")
    from . import query
    with open(args.query, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ParseError(query.TOO_DEEP, path="query") from None
    expr = query.from_json(obj)
    fds = _load_fds(args)
    fired: list = []
    rewritten = query.rewrite_selfjoin(expr, fds, fired)
    out = query.to_json(rewritten)

    verification = None
    verdict_line = ""
    code = EXIT_OK
    if args.table is None:
        # type it as --table would a CSV holding only the header of the
        # attributes the projections and the FDs name, in name order
        names = sorted(query.proj_attrs(expr).union(
            *(item.antecedent | item.consequent for item in fds)))
        header = tables.Table(tables.Scheme(tuple(
            (name, Carrier(name, ())) for name in names)), frozenset())
        query.type_check(expr, query.Env(
            dict.fromkeys(query.table_refs(expr), header)))
    else:
        table = tables.load_table(args.table, args.schema)
        result = query.verify_rewrite(expr, rewritten, fired, table)
        if result:
            verification = {"status": "verified", "witness": None}
            verdict_line = "verified"
        else:
            a, b = result.witness
            verification = {
                "status": "counterexample",
                "witness": [render_value(a), render_value(b)],
            }
            verdict_line = (f"counterexample: {render_value(b)} <- "
                            f"{render_value(a)}")
            code = EXIT_REFUTED

    payload = {"query": out, "verification": verification}
    text = ""
    if not args.json_output:  # the JSON form prints `payload` alone
        text = json.dumps(out, indent=2)
        if verdict_line:
            text += "\n" + verdict_line
    _emit(args, payload, text)
    return code


def cmd_laws(args: argparse.Namespace) -> int:
    from . import search
    from .laws import LAW_SUITE  # loads numpy; no other command needs it
    scope = search.Scope(max_carrier=args.scope_carrier)
    lines = []
    payload = []
    refuted = False
    for law_id in LAW_SUITE:
        witness = search.search_law(law_id, scope)
        if witness is None:
            lines.append(f"{law_id}: no counterexample "
                         f"(carriers up to {scope.max_carrier})")
            payload.append({"law": law_id, "refuted": False,
                            "witness": None})
        else:
            refuted = True
            rendered = {name: rel_to_json(r) for name, r in witness.items()}
            lines.append(f"{law_id}: REFUTED {json.dumps(rendered)}")
            payload.append({"law": law_id, "refuted": True,
                            "witness": rendered})
    _emit(args, {"laws": payload}, "\n".join(lines))
    return EXIT_REFUTED if refuted else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfd",
        description="Finite relation algebra toolkit for functional "
                    "dependencies: check tables, infer and refute "
                    "dependencies, and optimize queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, table=None, fds=False, attrs=False, goal=False,
               query_file=False, scope=False, carrier=False):
        # `table` is None for no --table, else whether it is required
        if table is not None:
            p.add_argument("--table", required=table,
                           help="CSV table (header row of names)")
            p.add_argument("--schema",
                           help="JSON sidecar declaring attribute domains")
        if fds:
            p.add_argument("--fds", required=True,
                           help="dependency file, one FD per line")
        if attrs:
            p.add_argument("--attrs", required=True,
                           help="attribute list, e.g. 'Flight,Date'")
        if goal:
            p.add_argument("--goal", required=True,
                           help="dependency to test, e.g. 'Flight Date -> Pilot'")
        if query_file:
            p.add_argument("--query", required=True, help="query JSON file")
        if scope:
            p.add_argument("--scope-rows", type=int, default=2,
                           help="max rows in counterexample tables")
            p.add_argument("--scope-dom", type=int, default=2,
                           help="attribute domain size for the search")
        if carrier:
            p.add_argument("--scope-carrier", type=int, default=3,
                           help="max carrier size for law sweeps")
        p.add_argument("--json", action="store_true", dest="json_output",
                       help="machine-readable output")

    p = sub.add_parser("check", help="check FDs against a table "
                                     "through all three checkers")
    common(p, table=True, fds=True)

    p = sub.add_parser("closure", help="attribute closure under FDs")
    common(p, fds=True, attrs=True)

    p = sub.add_parser("derive", help="derivation tree for a goal FD")
    common(p, fds=True, goal=True)

    p = sub.add_parser("cex", help="search for a counterexample table")
    common(p, fds=True, goal=True, scope=True)

    p = sub.add_parser("optimize", help="rewrite a query under FDs")
    common(p, table=False, fds=True, query_file=True)

    p = sub.add_parser("laws", help="sweep the registered law suite")
    common(p, carrier=True)

    return parser


_HANDLERS = {
    "check": cmd_check,
    "closure": cmd_closure,
    "derive": cmd_derive,
    "cex": cmd_cex,
    "optimize": cmd_optimize,
    "laws": cmd_laws,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused by the next:
    `parse_args` leaves it unchanged and returns a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_:  # a usage error (2) or --help (0)
        return exit_.code
    try:
        return _HANDLERS[args.command](args)
    except InternalCheckError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RelfdError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
