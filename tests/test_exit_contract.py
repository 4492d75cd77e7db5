"""Fuzz the CLI exit contract of `closure`, `derive`, `cex`, `check` and
`optimize`, and sweep it for `laws`.

Every input ends in exit code 0, 1 or 2 with no traceback: malformed FD
files, attribute lists and goals, scopes up to 10**20, argv that argparse
reads rather than the plain reader, junk and oversized CSV and schema
files, and malformed, ill-typed and deeply nested query trees.
Generated scopes stay cheap however large, since a witness lists only the
two values its rows use; generated tables have at most three attributes of
at most four values.  `laws` takes a single scope, so every listed value
of it is run; carrier 3, the costliest, is left out.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from relfd.cli import main
from relfd.query import MAX_QUERY_DEPTH

NAMES = st.sampled_from(["A", "B", "C", "Flight", "_x1"])
JUNK = st.text(alphabet="AB ,->#\t\n-x1\u00e9\x00", max_size=10)
VALID_ATTRS = st.lists(NAMES, min_size=1, max_size=3).map(" ".join)
ATTRS = st.one_of(VALID_ATTRS, VALID_ATTRS.map(lambda a: a.replace(" ", ",")),
                  JUNK)
VALID_FD = st.builds("{} -> {}".format, VALID_ATTRS, VALID_ATTRS)
FD_LINE = st.one_of(VALID_FD, st.builds("{} -> {}".format, ATTRS, ATTRS),
                    JUNK)
GOAL = st.one_of(VALID_FD, VALID_FD, FD_LINE)
FD_FILE = st.one_of(st.lists(VALID_FD, max_size=3),
                    st.lists(VALID_FD, max_size=3),
                    st.lists(FD_LINE, max_size=3)
                    ).map("\n".join).map(str.encode) | st.binary(max_size=12)
# small domains, and huge ones: the search builds nothing sized by the
# scope, so these answer as `--scope-dom 2` does, as fast
SMALL = st.integers(1, 3).map(str)
SCOPE = st.one_of(SMALL, SMALL, SMALL, st.sampled_from(["0", "-1"]),
                  st.integers(10 ** 7, 10 ** 20).map(str),
                  st.sampled_from([str(10 ** 20), "", "x", "2.5", " 3"]))
PLAIN = st.one_of(
    st.tuples(st.just("closure"), st.just("--attrs"), ATTRS),
    st.tuples(st.just("derive"), st.just("--goal"), GOAL),
    st.tuples(st.just("cex"), st.just("--goal"), GOAL,
              st.just("--scope-rows"), SCOPE, st.just("--scope-dom"), SCOPE))
# argv shapes the plain reader declines, left to argparse: repeated flags
# (`--fds` comes last), `--flag=value`, abbreviations and stray tokens
DECLINED = st.sampled_from([
    ("--fds", "x"), ("--json",), ("--attrs=A",), ("--goal=A -> B",),
    ("--scope-rows=2",), ("--att", "A"), ("--go", "A -> B"),
    ("--scope-r", "2"), ("--fd", "x"), ("stray",), ("--",), ("-h",)])
COMMAND = st.one_of(
    PLAIN, PLAIN, PLAIN,
    st.builds(lambda argv: argv + argv[1:], PLAIN),
    st.builds(lambda argv, extra: argv + extra, PLAIN, DECLINED))


@pytest.fixture(scope="module")
def fd_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.fds"


def run_cli(argv):
    """Run one CLI call and assert the exit contract: 0, 1 or 2, no
    traceback, and `error:`/`usage:` on stderr exactly when the code is 2,
    with nothing on stdout then.  A table with duplicate rows adds its one
    warning line before anything else on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse usage errors
            code = exit_.code
    errors = re.sub(r"\Adropped [1-9][0-9]* duplicate row\(s\) at load\n",
                    "", err.getvalue())
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in errors
    if code == 2:
        assert errors.startswith(("error: ", "usage: "))
        assert out.getvalue() == ""
    else:
        assert errors == ""
    return code, out.getvalue(), errors


@seed(6)
@settings(max_examples=300, deadline=None, database=None)
@given(command=COMMAND, fd_bytes=FD_FILE, as_json=st.booleans(),
       missing_file=st.sampled_from([False] * 9 + [True]))
def test_closure_derive_cex_keep_the_exit_contract(fd_path, command,
                                                   fd_bytes, as_json,
                                                   missing_file):
    fd_path.write_bytes(fd_bytes)
    argv = [*command, "--fds",
            str(fd_path) + (".missing" if missing_file else "")]
    if as_json:
        argv.append("--json")
    run_cli(argv)


# Each example has at most one faulty file, so that most reach the checks;
# any faulty file may also be random bytes, often not UTF-8 (BINARY).
# Tables over A, B, C with values 0, 1, x; junk ones, or past the csv
# module's field limit.
VALID_CSV = st.lists(st.lists(st.sampled_from(["0", "1", "x"]), min_size=3,
                              max_size=3), max_size=6).map(
    lambda rows: "A,B,C\n" + "".join(",".join(r) + "\n" for r in rows))
JUNK_CSV = st.one_of(
    st.builds("{}\n{}\n".format,
              st.sampled_from(["A,B", "A,A", "A,,B", "", "A,B,C"]),
              st.sampled_from(["0,1", "0,1,2,3", '"a,b",1,0', "", "\x00"])),
    st.text(alphabet='AB,"\n\r\x00x', max_size=20),
    st.sampled_from(["A,B,C\n" + "x" * 131073 + ",1,0\n",
                     'A,B,C\n"open,1,0\n', 'A,B,C\n"a"b,1,0\n']))
VALID_SCHEMA = st.none() | st.dictionaries(
    st.sampled_from(["A", "B", "C"]),
    st.sampled_from([["0", "1", "x"], ["x", "1", "0", "y"]]),
    max_size=3).map(json.dumps)
JUNK_SCHEMA = st.sampled_from([
    "[]", '{"D": []}', '{"A": "01x"}', '{"A": [1]}', '{"A": ["0", "0"]}',
    '{"A": ["0"]}', "{", "[" * 5000, "null"]) | st.text(max_size=8)
TABLE_ATTRS = st.lists(st.sampled_from(["A", "B", "C"]), min_size=1,
                       max_size=2).map(" ".join)
VALID_FDS = st.lists(st.builds("{} -> {}".format, TABLE_ATTRS, TABLE_ATTRS),
                     max_size=3).map("\n".join)
JUNK_FDS = st.lists(FD_LINE, min_size=1, max_size=3).map("\n".join)


# query trees over table "m": well-typed trees from rows to rows, and trees
# mixing ill-typed and malformed nodes
def node(op, *args):
    return ({"op": op, "arg": args[0]} if op in ("converse", "kernel")
            else {"op": op, "args": list(args)})


def proj(attrs):
    return {"op": "proj", "scheme": "m", "attrs": attrs}


def nest(tree, levels):
    """The tree's JSON text wrapped in that many converse nodes."""
    return ('{"op": "converse", "arg": ' * levels + json.dumps(tree)
            + "}" * levels)


PID = {"op": "pid", "table": "m"}
ATTRS = st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=2,
                 unique=True)
WINDOW = st.builds(
    lambda g, f, h: node("compose", node("converse", proj(g)), proj(g), PID,
                         node("kernel", proj(f)), PID,
                         node("converse", proj(h)), proj(h)),
    ATTRS, ATTRS, ATTRS)
TYPED = st.recursive(
    st.one_of(st.just(PID), ATTRS.map(proj).map(lambda p: node("kernel", p)),
              WINDOW),
    lambda kids: st.one_of(
        st.builds(node, st.sampled_from(["converse", "kernel"]), kids),
        st.builds(lambda op, args: node(op, *args),
                  st.sampled_from(["compose", "union"]),
                  st.lists(kids, min_size=2, max_size=3)),
        st.builds(lambda a, b: node("kernel", node("fork", a, b)), kids,
                  kids)),
    max_leaves=5)
LEAF = st.one_of(ATTRS.map(proj), st.just(PID), st.sampled_from([
    proj(["Z"]), {"op": "pid", "table": "other"}, {"op": "rel", "name": "R"},
    {"op": "compose"}, {"op": "converse"}, {"op": "kernel", "args": []},
    {"op": "launch"}, {"op": ["compose"]}, {"args": []},
    {"op": "union", "args": {"a": 1}}, {"op": "fork", "args": "ab"},
    proj([]), proj([1]), {"op": "proj"}, {"op": "rel"}, {"op": "pid"},
    3, "pid", None, []]))
UNTYPED = st.recursive(
    LEAF | TYPED,
    lambda kids: st.one_of(
        st.builds(node, st.sampled_from(["converse", "kernel"]), kids),
        st.builds(lambda op, args: {"op": op, "args": args},
                  st.sampled_from(["compose", "union", "fork"]),
                  st.lists(kids, min_size=1, max_size=4))),
    max_leaves=8)
VALID_QUERY = TYPED.map(json.dumps)
# also nested up to the depth bound, past it, or past the JSON decoder's own
# recursion limit
JUNK_QUERY = st.one_of(
    UNTYPED.map(json.dumps),
    st.builds(nest, TYPED | UNTYPED,
              st.sampled_from([MAX_QUERY_DEPTH - 3, MAX_QUERY_DEPTH + 1,
                               5000])),
    st.just("[" * 5000))


BINARY = st.binary(max_size=12)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz_files")
    return {k: base / f"input.{k}"
            for k in ("csv", "schema", "fds", "query")}


@seed(7)
@settings(max_examples=250, deadline=None, database=None)
@given(command=st.sampled_from(["check", "optimize", "optimize_table"]),
       fault=st.sampled_from([None] * 4 + ["csv", "schema", "fds", "query"]),
       csv=st.tuples(VALID_CSV, JUNK_CSV | BINARY),
       schema=st.tuples(VALID_SCHEMA, JUNK_SCHEMA | BINARY),
       fds=st.tuples(VALID_FDS, JUNK_FDS | BINARY),
       query=st.tuples(VALID_QUERY, JUNK_QUERY | BINARY),
       as_json=st.booleans())
def test_check_optimize_keep_the_exit_contract(files, command, fault, csv,
                                               schema, fds, query, as_json):
    chosen = {k: pair[k == fault] for k, pair in (
        ("csv", csv), ("schema", schema), ("fds", fds), ("query", query))}
    for k, text in chosen.items():
        if text is not None:
            files[k].write_bytes(text if isinstance(text, bytes)
                                 else text.encode())
    table = ["--table", str(files["csv"])]
    if chosen["schema"] is not None:
        table += ["--schema", str(files["schema"])]
    if command == "check":
        argv = ["check", *table]
    else:
        argv = ["optimize", "--query", str(files["query"])]
        if command == "optimize_table":
            argv += table
    argv += ["--fds", str(files["fds"])]
    if as_json:
        argv.append("--json")
    run_cli(argv)


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("carrier", ["1", "2", "0", "-1", "4", str(10 ** 20),
                                     "", "x", "2.5"])
def test_laws_keeps_the_exit_contract(carrier, as_json):
    run_cli(["laws", "--scope-carrier", carrier] + ["--json"] * as_json)


def test_optimize_keeps_the_exit_contract_on_a_wide_schema(tmp_path):
    # 7 attributes of 10 declared values: a row universe of 10^7 rows, over
    # the carrier bound, and 10 stored rows, where A0 -> A1 holds and
    # A0 -> A2 fails.  The window is typed and discharged without reading
    # the universe; beside a lone kernel, which reads it, a window whose FD
    # fails on the table is evaluated, and the bound names the universe
    names = [f"A{i}" for i in range(7)]
    schema = tmp_path / "wide.schema.json"
    schema.write_text(json.dumps({n: [str(v) for v in range(10)]
                                  for n in names}))
    table = tmp_path / "wide.csv"
    table.write_text("\n".join([",".join(names)] + [
        ",".join([str(i % 5)] + [str(i * j % 10) for j in range(2, 8)])
        for i in range(10)]) + "\n")
    query, fds = tmp_path / "query.json", tmp_path / "wide.fds"

    def window(g, f, h):
        return node("compose", proj([g]), PID, node("kernel", proj([f])),
                    PID, node("converse", proj([h])))

    def optimize(tree, fd_line):
        query.write_text(json.dumps(tree))
        fds.write_text(fd_line + "\n")
        return run_cli(["optimize", "--query", str(query), "--fds", str(fds),
                        "--table", str(table), "--schema", str(schema)])

    code, out, _ = optimize(window("A1", "A0", "A2"), "A0 -> A1")
    assert code == 0 and out.endswith("\nverified\n")
    lone = node("compose", proj(["A2"]), node("kernel", proj(["A0"])),
                node("converse", proj(["A4"])))
    assert optimize(node("union", window("A2", "A0", "A4"), lone),
                    "A0 -> A2") == (
        2, "", "error: carrier rows(A0,A1,A2,A3,A4,A5,A6) has 10000000 "
               "elements, over the 1000000 bound\n")
