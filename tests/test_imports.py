"""Start-up: each command loads only the modules it runs.

`import relfd.cli` loads `cli`, `errors`, `fd`, `rel` and `tables`.  The
inference engine, the query IR and the counterexample search load when a
command runs them; numpy, the law registry (`relfd.laws`), its bitset
tables (`relfd.bitrel`) and the typing rules (`relfd.typed`) only for
`laws`; argparse, with `relfd.usage`, only for an argv that the CLI's
plain reader declines; `logging` never, not even to warn of duplicate rows.
Every value class but `laws.Law` is a plain class on `rel.Frozen`, so
`dataclasses`, with the `inspect` it imports, loads only with the law
registry: every command but `laws` runs without it.  Each call runs in a
fresh interpreter, since this test process has loaded them all already.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relfd
from relfd import search
from relfd.errors import UnknownLawError

from test_golden import CALLS

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = """
import contextlib, io, json, sys
from relfd import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("relfd.")
                        or m in ("numpy", "logging", "dataclasses",
                                 "inspect", "argparse"))))
"""

START = {"relfd.cli", "relfd.errors", "relfd.fd", "relfd.rel", "relfd.tables"}
# `laws.Law` is the one dataclass, so only `laws` loads these
DATACLASSES = {"dataclasses", "inspect"}
LAZY = {"numpy", "relfd.laws", "relfd.bitrel"}

# The names `relfd` has exported since 0.1.0, each from its own module.
PUBLIC = """
CarrierMismatchError InternalCheckError ParseError QueryTypeError RelfdError
ResourceLimitError SchemeError UnknownAttributeError UnknownLawError
AttrFd mutual_dependency parse_fd parse_fd_lines satisfies_algebraic
satisfies_general_quantified satisfies_oracle satisfies_typed typecheck_join
typecheck_union
Derivation attr_closure derivation_from_dict derivation_to_dict derive
fd_trade validate_derivation
Env eval_query from_json rewrite_selfjoin to_json type_check verify_equiv
Atom Carrier Pair Rel Tup Unit Value bang compose converse empty fork
identity includes intersect is_entire is_function is_injective kernel leq
pair_carrier product proj1 proj2 top union
RuleInstance Scope check_rule_soundness search_law search_tables
two_tuple_witness
Scheme Table encode_pairs load_table pid proj_fn row_carrier
LAW_REGISTRY LAW_SUITE
""".split()


def loaded_after(*argvs: list[str]) -> set[str]:
    """The `relfd.*` modules, numpy, logging, dataclasses, inspect and
    argparse loaded by a fresh interpreter after `import relfd.cli` and
    `cli.main(argv)` for each non-empty argv in turn."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE,
                           json.dumps([argv for argv in argvs if argv])],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return set(json.loads(done.stdout))


# The modules each command loads, numpy (the `LAZY` set) left out of all;
# none of them loads dataclasses or argparse either.
LOADS = {
    None: START,
    "check_pilots": START,
    "closure_pilots": START | {"relfd.infer"},
    "derive_pilots": START | {"relfd.infer"},
    "cex_pilots": START | {"relfd.infer", "relfd.search"},
    "optimize_movies": START | {"relfd.infer", "relfd.query"},
}


@pytest.mark.parametrize("call", list(LOADS))
def test_commands_but_laws_start_without_numpy(call):
    assert loaded_after(CALLS[call] if call else []) == LOADS[call]


def test_laws_command_loads_the_law_sweeps():
    assert (loaded_after(["laws", "--scope-carrier", "1"])
            == START | {"relfd.infer", "relfd.search", "relfd.typed"}
            | DATACLASSES | LAZY)


# The lines a fresh `import relfd.cli` compiles when no bytecode is cached.
# The design aim "Quality of design" (same answers from fewer lines) holds
# this at or under its count: 1,579 before the typing layer left the start
# path for `relfd.typed`, 1,438 before the CLI's parser wrappers went,
# 1,427 before the test-only `rel.apply_fn` moved into the tests, 1,418
# before `rel.proj1` and `rel.proj2` shared one helper, 1,411 before
# `tables.count_tables` went with the table search's candidate cap, 1,395
# before each CLI command built its answer once, as one payload, 1,389
# before `rel` lost the two composition rules of unbuilt projections,
# 1,373 before `type_check` took its carriers from the evaluator's caches,
# 1,368 before `tables.proj_fn` lost its cache, 1,363 before
# `fd.encode_columns` built the stored carrier it codes the rows over,
# 1,362 before row universes and pair carriers became products that
# `rel.Carrier` sizes and compares without enumerating them, which
# `tables` pays for in part by losing `row_universe`, 1,384 before the
# size bound moved from `tables` to where `rel.Carrier` enumerates a
# product, 1,383 before row universes and projection maps moved from
# process-wide LRU caches onto their schemes.
START_LINES = 1378


def test_start_path_stays_within_its_line_count():
    files = [SRC / "relfd" / "__init__.py"] + [
        SRC / (name.replace(".", "/") + ".py") for name in loaded_after([])]
    lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                for f in files)
    assert lines <= START_LINES, lines


def test_readme_states_the_start_path_line_count():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"hold ([\d,]+) lines, and `tests/test_imports\.py`",
                        " ".join(readme.split()))
    assert [int(n.replace(",", "")) for n in stated] == [START_LINES]


def test_argparse_loads_only_for_an_argv_the_plain_reader_declines():
    assert (loaded_after(["closure", "--attrs", "A"])
            == START | {"argparse", "relfd.usage"})


def test_no_command_loads_logging(tmp_path):
    # duplicate rows warn on stderr without it
    table = tmp_path / "dup.csv"
    table.write_text("A,B\na,1\na,1\n", encoding="utf-8")
    fds = tmp_path / "dup.fds"
    fds.write_text("A -> B\n", encoding="utf-8")
    argv = ["check", "--table", str(table), "--fds", str(fds)]
    assert loaded_after(argv) == START
    # modules stay loaded, so none of these loads it either
    calls = [argv for name, argv in CALLS.items() if name != "laws_3"]
    assert "logging" not in loaded_after(*calls, ["closure", "--attrs", "A"])


def test_public_names_resolve_to_their_module_objects():
    assert sorted(relfd.__all__) == sorted(PUBLIC)
    star: dict = {}
    exec("from relfd import *", star)
    for name, module in relfd._NAMES.items():
        obj = getattr(importlib.import_module(f"relfd.{module}"), name)
        assert star[name] is obj and getattr(relfd, name) is obj, name


def test_public_law_names_resolve_on_access():
    from relfd import LAW_REGISTRY, LAW_SUITE, Scope, search_tables
    import relfd.laws
    assert relfd.LAW_REGISTRY is relfd.laws.LAW_REGISTRY is LAW_REGISTRY
    assert LAW_SUITE is relfd.laws.LAW_SUITE
    assert search_tables is search.search_tables and Scope is search.Scope
    with pytest.raises(AttributeError, match="no_such_name"):
        relfd.no_such_name


def test_unknown_law_lists_every_known_law():
    with pytest.raises(UnknownLawError) as err:
        search.get_law("nope")
    assert str(err.value) == ("unknown law 'nope'; known: "
                              + ", ".join(sorted(relfd.LAW_REGISTRY)))


# Module-level names that no `src/` line outside their own definition uses,
# and that `relfd.__all__` does not export, each with the reason it stays.
UNUSED_ALLOWED = {
    "oracles": "the whole module is reference code the tests compare against",
    "laws.search_law_bruteforce": "the reference the tests hold the sweeps to",
    "query.count_pid_nodes": "the benchmark's tracer counts fired windows "
                             "with it",
}


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _used(stmt) -> set[str]:
    """The names a statement reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_only_emit_reads_the_json_flag():
    tree = ast.parse((SRC / "relfd" / "cli.py").read_text(encoding="utf-8"))
    emit = next(stmt for stmt in tree.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "_emit")
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "json_output"]
    assert reads and all(any(node is inner for inner in ast.walk(emit))
                         for node in reads)


def test_src_defines_no_name_that_nothing_uses():
    stmts = [(path.stem, stmt, _used(stmt))
             for path in sorted((SRC / "relfd").glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    unused = {f"{module}.{name}" for module, stmt, _ in stmts
              for name in _defined(stmt)
              if not name.startswith("__") and name not in relfd.__all__
              and not any(name in names for _, other, names in stmts
                          if other is not stmt)}
    assert {name for name in unused if name not in UNUSED_ALLOWED
            and name.split(".")[0] not in UNUSED_ALLOWED} == set()
