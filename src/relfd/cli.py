"""Batch command-line front end.

Subcommands: `check`, `closure`, `derive`, `cex`, `optimize`, `laws`.
Exit codes: 0 success / property holds, 1 dependency or law refuted (a
witness is printed), 2 input error, 3 internal-consistency failure (two
checking routes disagreed, which signals a bug rather than bad input).
Each command imports the modules it runs, so start-up loads only `fd`,
`tables` and the modules under them.  A plain argv is read from the flag
table `COMMANDS` without argparse; any other argv goes to argparse
(`relfd.usage`), which reads it or prints its own usage, help or error.
Each command builds one payload, its answer, and hands `_emit` the function
that renders its text form; `_emit` alone reads `--json`, and calls that
function only for a text-mode request.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import fd, tables
from .errors import InternalCheckError, ParseError, RelfdError
from .rel import rel_to_json, render_value

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _emit(args: SimpleNamespace, payload: dict, render) -> None:
    text = _json_text(payload) if args.json_output else render(payload)
    if text:
        print(text)


_ENCODE = json.encoder.encode_basestring_ascii
_END = object()


def _json_text(obj) -> str:
    """`json.dumps(obj, indent=2)` for a tree of str-keyed dicts, lists,
    tuples and scalars.  Each string goes through the C encoder, each other
    scalar through `json.dumps`, and the containers are walked with a
    stack, so no depth raises `RecursionError`."""
    out: list[str] = []
    stack: list = []  # per open container: its items, is a dict, indent
    value = obj
    while True:
        opened = False
        if isinstance(value, str):
            out.append(_ENCODE(value))
        elif isinstance(value, (dict, list, tuple)) and value:
            is_dict = isinstance(value, dict)
            out.append("{" if is_dict else "[")
            stack.append((iter(value.items() if is_dict else value), is_dict,
                          "\n" + "  " * (len(stack) + 1)))
            opened = True
        else:  # a number, bool, None, {} or []
            out.append(json.dumps(value))
        while stack:
            items, is_dict, indent = stack[-1]
            item = next(items, _END)
            if item is not _END:
                break
            stack.pop()
            out.append(indent[:-2] + ("}" if is_dict else "]"))
        else:
            return "".join(out)
        out.append(indent if opened else "," + indent)
        if is_dict:
            out.append(_ENCODE(item[0]) + ": ")
            value = item[1]
        else:
            value = item


def _load_fds(args: SimpleNamespace) -> list[fd.AttrFd]:
    return fd.parse_fd_lines(tables.read_text(args.fds))


def _row_text(row: list) -> str:
    """A rendered row, each atom holding ``,()"`` as a JSON string."""
    return "(" + ",".join(json.dumps(v) if any(c in v for c in ',()"')
                          else v for v in row) + ")"


def _check_line(r: dict) -> str:
    if r["holds"]:
        return f"{r['fd']}: holds"
    r1, r2 = r["witness"]
    return f"{r['fd']}: violated by rows {_row_text(r1)} / {_row_text(r2)}"


def _optimize_text(payload: dict) -> str:
    text = _json_text(payload["query"])
    verdict = payload["verification"]
    if verdict is None:
        return text
    if verdict["witness"] is None:
        return text + "\nverified"
    a, b = verdict["witness"]
    return f"{text}\ncounterexample: {b} <- {a}"


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args: SimpleNamespace) -> int:
    table = tables.load_table(args.table, args.schema)
    fds = _load_fds(args)
    rows = fd.stored_order(table.rows)
    stored, columns = fd.encode_columns(rows, len(table.scheme.names))
    results = []
    for item in fds:
        at = fd.fd_positions(table.scheme, item)
        witness = fd.scan_violation(rows, *at)
        scan = witness is None
        algebraic = fd.satisfies_shunted(stored, columns, *at)
        typed = fd.satisfies_refinement(rows, *at)
        if not (scan == algebraic == typed):
            raise InternalCheckError(
                f"checkers disagree on {item}: scan={scan} "
                f"algebraic={algebraic} typed={typed}")
        if witness is not None:
            if fd.violating_pair(witness, *at) is None:  # the literal re-check
                raise InternalCheckError(f"witness rows do not violate {item}")
            witness = [list(map(render_value, row)) for row in witness]
        results.append({"fd": str(item), "holds": scan, "witness": witness})
    _emit(args, {"results": results},
          lambda p: "\n".join(map(_check_line, p["results"])))
    return EXIT_OK if all(r["holds"] for r in results) else EXIT_REFUTED


def cmd_closure(args: SimpleNamespace) -> int:
    from . import infer
    fds = _load_fds(args)
    attrs = fd.parse_attr_list(args.attrs)
    closure = sorted(infer.attr_closure(fds, attrs))
    _emit(args, {"closure": closure}, lambda p: " ".join(p["closure"]))
    return EXIT_OK


def cmd_derive(args: SimpleNamespace) -> int:
    from . import infer
    fds = _load_fds(args)
    goal = fd.parse_fd(args.goal)
    tree = infer.derive(fds, goal)
    obj = None if tree is None else infer.derivation_to_dict(tree)
    _emit(args, {"derivable": obj is not None, "derivation": obj},
          lambda _: "not derivable" if obj is None else _json_text(obj))
    return EXIT_REFUTED if obj is None else EXIT_OK


def cmd_cex(args: SimpleNamespace) -> int:
    from . import search
    fds = _load_fds(args)
    goal = fd.parse_fd(args.goal)
    scope = search.Scope(max_rows=args.scope_rows,
                         domain_sizes=args.scope_dom)
    witness = search.search_tables(fds, goal, scope)
    found = witness is not None
    payload = {"witness": tables.table_to_json(witness) if found else None}
    _emit(args, payload, lambda _: (tables.table_to_csv(witness).rstrip("\n")
                                    if found else "none"))
    return EXIT_REFUTED if found else EXIT_OK


def cmd_optimize(args: SimpleNamespace) -> int:
    if args.schema is not None and args.table is None:
        raise RelfdError("--schema declares the domains of --table; "
                         "give --table with it")
    from . import query
    try:
        obj = json.loads(tables.read_text(args.query))
    except RecursionError:
        raise ParseError(query.TOO_DEEP, path="query") from None
    expr = query.from_json(obj)
    fds = _load_fds(args)
    fired: list = []
    rewritten = query.rewrite_selfjoin(expr, fds, fired)
    verdict = None
    if args.table is None:
        query.type_header(expr, fds)
    else:
        table = tables.load_table(args.table, args.schema)
        result = query.verify_rewrite(expr, rewritten, fired, table)
        if result:
            verdict = {"status": "verified", "witness": None}
        else:
            verdict = {"status": "counterexample",
                       "witness": list(map(render_value, result.witness))}
    _emit(args, {"query": query.to_json(rewritten), "verification": verdict},
          _optimize_text)
    return EXIT_REFUTED if verdict and verdict["witness"] else EXIT_OK


def cmd_laws(args: SimpleNamespace) -> int:
    from . import search
    from .laws import LAW_SUITE  # loads numpy; no other command needs it
    scope = search.Scope(max_carrier=args.scope_carrier)
    results = []
    for law_id in LAW_SUITE:
        witness = search.search_law(law_id, scope)
        if witness is not None:
            witness = {name: rel_to_json(r) for name, r in witness.items()}
        results.append({"law": law_id, "refuted": witness is not None,
                        "witness": witness})

    def line(r: dict) -> str:
        if r["refuted"]:
            return f"{r['law']}: REFUTED {json.dumps(r['witness'])}"
        return (f"{r['law']}: no counterexample "
                f"(carriers up to {scope.max_carrier})")
    _emit(args, {"laws": results}, lambda p: "\n".join(map(line, p["laws"])))
    return EXIT_REFUTED if any(r["refuted"] for r in results) else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


# Each flag once: its type and its help text.
FLAGS = {
    "--table": (str, "CSV table (header row of names)"),
    "--schema": (str, "JSON sidecar declaring attribute domains"),
    "--fds": (str, "dependency file, one FD per line"),
    "--attrs": (str, "attribute list, e.g. 'Flight,Date'"),
    "--goal": (str, "dependency to test, e.g. 'Flight Date -> Pilot'"),
    "--query": (str, "query JSON file"),
    "--scope-rows": (int, "max rows in a counterexample; only 1 vs 2+ counts"),
    "--scope-dom": (int, "values per attribute; only 1 vs 2+ counts"),
    "--scope-carrier": (int, "max carrier size for law sweeps"),
}
REQUIRED = object()  # the default of a flag that must be given
# Each command: its handler, its help text and its flags in usage order,
# each with its default or REQUIRED.  Every command also takes `--json`.
COMMANDS = {
    "check": (cmd_check, "check FDs against a table through all three "
                         "checkers",
              {"--table": REQUIRED, "--schema": None, "--fds": REQUIRED}),
    "closure": (cmd_closure, "attribute closure under FDs",
                {"--fds": REQUIRED, "--attrs": REQUIRED}),
    "derive": (cmd_derive, "derivation tree for a goal FD",
               {"--fds": REQUIRED, "--goal": REQUIRED}),
    "cex": (cmd_cex, "search for a counterexample table",
            {"--fds": REQUIRED, "--goal": REQUIRED, "--scope-rows": 2,
             "--scope-dom": 2}),
    "optimize": (cmd_optimize, "rewrite a query under FDs",
                 {"--table": None, "--schema": None, "--fds": REQUIRED,
                  "--query": REQUIRED}),
    "laws": (cmd_laws, "sweep the registered law suite",
             {"--scope-carrier": 3}),
}


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What argparse's `parse_args(argv)` returns, without argparse, for a
    plain argv: a command, then each of its flags at most once, each but
    `--json` followed by a value not starting with ``-`` (for an int flag,
    decimal digits that `int` reads), and every required flag among them.
    None for any other argv, which argparse then reads or reports."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = COMMANDS[argv[0]][2]
    given: dict = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag in given:
            return None
        if flag == "--json":
            given[flag] = True
            continue
        if flag not in flags:
            return None
        value = next(tokens, "-")  # a missing value declines as "-" does
        if value.startswith("-"):
            return None
        if FLAGS[flag][0] is int:
            if not value.isdecimal():
                return None
            try:
                value = int(value)
            except ValueError:  # past `int`'s digit limit
                return None
        given[flag] = value
    args = {"command": argv[0], "json_output": given.pop("--json", False)}
    for flag, default in flags.items():
        value = given.get(flag, default)
        if value is REQUIRED:
            return None
        args[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        from .usage import build_parser
        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        except SystemExit as exit_:  # a usage error (2) or --help (0)
            return exit_.code
    try:
        return COMMANDS[args.command][0](args)
    except InternalCheckError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RelfdError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
