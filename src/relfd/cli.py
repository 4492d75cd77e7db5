"""Batch command-line front end.

Subcommands: `check`, `closure`, `derive`, `cex`, `optimize`, `laws`.
Exit codes: 0 success / property holds, 1 dependency or law refuted (a
witness is printed), 2 input error, 3 internal-consistency failure (two
checking routes disagreed, which signals a bug rather than bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import fd, infer, query, search, tables
from .errors import InternalCheckError, RelfdError
from .laws import LAW_SUITE
from .rel import Atom, Value, rel_to_json, render_value

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    table: str | None = None
    schema: str | None = None
    fds: str | None = None
    attrs: str | None = None
    goal: str | None = None
    query: str | None = None
    scope_rows: int = 2
    scope_dom: int = 2
    scope_carrier: int = 3
    json_output: bool = False


def _emit(config: RunConfig, payload: dict, text: str) -> None:
    if config.json_output:
        print(json.dumps(payload, indent=2))
    elif text:
        print(text)


def _load_fds(config: RunConfig) -> list[fd.AttrFd]:
    if config.fds is None:
        return []
    with open(config.fds, encoding="utf-8") as fh:
        return fd.parse_fd_lines(fh.read())


def _value_json(v: Value):
    if isinstance(v, Atom):
        return v.name
    return render_value(v)


# ---------------------------------------------------------------------------
# Commands


def cmd_check(config: RunConfig) -> int:
    table = tables.load_table(config.table, config.schema)
    fds = _load_fds(config)
    results = []
    any_violation = False
    for item in fds:
        witness = fd.oracle_violation(table, item)
        oracle = witness is None
        algebraic = fd.satisfies_algebraic(table, item)
        typed = fd.satisfies_typed(*fd.stored_fd_projections(table, item))
        if not (oracle == algebraic == typed):
            raise InternalCheckError(
                f"checkers disagree on {item}: oracle={oracle} "
                f"algebraic={algebraic} typed={typed}")
        any_violation = any_violation or not oracle
        results.append((item, oracle, witness))

    lines = []
    payload = []
    for item, holds, witness in results:
        if holds:
            lines.append(f"{item}: holds")
            payload.append({"fd": str(item), "holds": True, "witness": None})
        else:
            r1, r2 = witness
            lines.append(f"{item}: violated by rows "
                         f"{render_value(r1)} / {render_value(r2)}")
            payload.append({
                "fd": str(item), "holds": False,
                "witness": [[_value_json(v) for v in r1.items],
                            [_value_json(v) for v in r2.items]],
            })
    _emit(config, {"results": payload}, "\n".join(lines))
    return EXIT_REFUTED if any_violation else EXIT_OK


def cmd_closure(config: RunConfig) -> int:
    fds = _load_fds(config)
    attrs = fd.parse_attr_list(config.attrs)
    closure = sorted(infer.attr_closure(fds, attrs))
    _emit(config, {"closure": closure}, " ".join(closure))
    return EXIT_OK


def cmd_derive(config: RunConfig) -> int:
    fds = _load_fds(config)
    goal = fd.parse_fd(config.goal)
    tree = infer.derive(fds, goal)
    if tree is None:
        _emit(config, {"derivable": False, "derivation": None},
              "not derivable")
        return EXIT_REFUTED
    obj = infer.derivation_to_dict(tree)
    _emit(config, {"derivable": True, "derivation": obj},
          json.dumps(obj, indent=2))
    return EXIT_OK


def cmd_cex(config: RunConfig) -> int:
    fds = _load_fds(config)
    goal = fd.parse_fd(config.goal)
    scope = search.Scope(max_rows=config.scope_rows,
                         domain_sizes=config.scope_dom)
    witness = search.search_tables(fds, goal, scope)
    if witness is None:
        _emit(config, {"witness": None}, "none")
        return EXIT_OK
    payload = {"witness": tables.table_to_json(witness)}
    _emit(config, payload, tables.table_to_csv(witness).rstrip("\n"))
    return EXIT_REFUTED


def cmd_optimize(config: RunConfig) -> int:
    with open(config.query, encoding="utf-8") as fh:
        expr = query.from_json(json.load(fh))
    fds = _load_fds(config)
    rewritten = query.rewrite_selfjoin(expr, fds)
    out = query.to_json(rewritten)

    verification = None
    verdict_line = ""
    code = EXIT_OK
    if config.table is not None:
        table = tables.load_table(config.table, config.schema)
        names = _table_refs(rewritten) | _table_refs(expr)
        if len(names) != 1:
            raise RelfdError(
                f"--table binds exactly one referenced table, query uses "
                f"{sorted(names)}")
        env = query.Env(tables={names.pop(): table})
        result = query.verify_equiv(expr, rewritten, env)
        if result:
            verification = {"status": "verified", "witness": None}
            verdict_line = "verified"
        else:
            a, b = result.witness
            verification = {
                "status": "counterexample",
                "witness": [_value_json(a), _value_json(b)],
            }
            verdict_line = (f"counterexample: {render_value(b)} <- "
                            f"{render_value(a)}")
            code = EXIT_REFUTED

    payload = {"query": out, "verification": verification}
    text = json.dumps(out, indent=2)
    if verdict_line:
        text += "\n" + verdict_line
    _emit(config, payload, text)
    return code


def _table_refs(e) -> set:
    if isinstance(e, query.Pid):
        return {e.table}
    if isinstance(e, query.Proj):
        return {e.scheme}
    if isinstance(e, (query.Converse, query.Kernel)):
        return _table_refs(e.child)
    if isinstance(e, (query.Compose, query.UnionOp, query.Fork)):
        return _table_refs(e.left) | _table_refs(e.right)
    return set()


def cmd_laws(config: RunConfig) -> int:
    scope = search.Scope(max_carrier=config.scope_carrier)
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
    _emit(config, {"laws": payload}, "\n".join(lines))
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

    def common(p, *, table=False, fds=False, attrs=False, goal=False,
               query_file=False, scope=False, carrier=False):
        if table:
            p.add_argument("--table", help="CSV table (header row of names)")
            p.add_argument("--schema",
                           help="JSON sidecar declaring attribute domains")
        if fds:
            p.add_argument("--fds", help="dependency file, one FD per line")
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
    common(p, table=True, fds=True, query_file=True)

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

_REQUIRED = {
    "check": ("table", "fds"),
    "closure": ("fds",),
    "derive": ("fds",),
    "cex": ("fds",),
    "optimize": ("query", "fds"),
    "laws": (),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    values = vars(args)
    config = RunConfig(**{k: v for k, v in values.items()
                          if k in RunConfig.__dataclass_fields__})
    for field_name in _REQUIRED[config.command]:
        if getattr(config, field_name) is None:
            print(f"error: --{field_name} is required for "
                  f"{config.command}", file=sys.stderr)
            return EXIT_INPUT
    try:
        return _HANDLERS[config.command](config)
    except InternalCheckError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RelfdError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
