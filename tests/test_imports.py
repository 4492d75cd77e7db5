"""Start-up: each command loads only the modules it runs.

`import relfd.cli` loads `cli`, `errors`, `fd`, `rel` and `tables`.  The
inference engine, the query IR and the counterexample search load when a
command runs them; numpy, the law registry (`relfd.laws`) and its bitset
tables (`relfd.bitrel`) only for `laws`; `logging` only to warn about
duplicate rows.  Every value class but `laws.Law` is a plain class on
`rel.Frozen`, so `dataclasses`, with the `inspect` it imports, loads only
with the law registry: every command but `laws` runs without it.  Each
call runs in a fresh interpreter, since this test process has loaded them
all already.
"""

import importlib
import json
import os
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
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("relfd.")
                        or m in ("numpy", "logging", "dataclasses",
                                 "inspect"))))
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


def loaded_after(argv: list[str]) -> set[str]:
    """The `relfd.*` modules, numpy, logging, dataclasses and inspect
    loaded by a fresh interpreter after `import relfd.cli` and, for a
    non-empty argv, `cli.main(argv)`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return set(json.loads(done.stdout))


# The modules each command loads, numpy (the `LAZY` set) left out of all;
# none of them loads dataclasses either.
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
            == START | {"relfd.infer", "relfd.search"} | DATACLASSES | LAZY)


def test_logging_loads_only_to_warn_about_duplicate_rows(tmp_path):
    table = tmp_path / "dup.csv"
    table.write_text("A,B\na,1\na,1\n", encoding="utf-8")
    fds = tmp_path / "dup.fds"
    fds.write_text("A -> B\n", encoding="utf-8")
    argv = ["check", "--table", str(table), "--fds", str(fds)]
    assert loaded_after(argv) == START | {"logging"}


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
