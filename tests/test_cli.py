import gc
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from relfd import cli, fd, oracles, query, rel, tables, usage
from relfd.cli import main
from relfd.errors import ResourceLimitError
from relfd.query import MAX_QUERY_DEPTH
from relfd.rel import Carrier

from conftest import FIXTURES, forbid_product_enumeration

# one argparse parser for this module: `parse_args` leaves it as it was
PARSER = usage.build_parser()


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# check


def test_check_consistent_roster_passes(capsys):
    code, out, _ = run(capsys, "check", "--table", FIXTURES / "pilots.csv",
                       "--fds", FIXTURES / "pilots.fds")
    assert code == 0
    assert "holds" in out


def test_check_double_booked_roster_fails_with_witness(capsys):
    code, payload, _ = run_json(
        capsys, "check", "--table", FIXTURES / "pilots_double_booked.csv",
        "--fds", FIXTURES / "pilots.fds")
    assert code == 1
    result = payload["results"][0]
    assert result["holds"] is False
    r1, r2 = result["witness"]
    assert r1 != r2
    # the witness rows agree on Flight and Date but not on Pilot
    names = ["Pilot", "Flight", "Date", "Departs"]
    at = {n: i for i, n in enumerate(names)}
    assert r1[at["Flight"]] == r2[at["Flight"]]
    assert r1[at["Date"]] == r2[at["Date"]]
    assert r1[at["Pilot"]] != r2[at["Pilot"]]


def test_check_empty_fd_file_is_success(tmp_path, capsys):
    empty = tmp_path / "none.fds"
    empty.write_text("# nothing here\n")
    code, out, _ = run(capsys, "check", "--table", FIXTURES / "pilots.csv",
                       "--fds", empty)
    assert code == 0
    assert out.strip() == ""


def test_check_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.fds"
    bad.write_text("Pilot ->\n")
    code, _, err = run(capsys, "check", "--table", FIXTURES / "pilots.csv",
                       "--fds", bad)
    assert code == 2
    assert "line 1" in err


def test_check_value_outside_declared_domain_exits_2_at_its_line(tmp_path,
                                                                 capsys):
    table = tmp_path / "t.csv"
    table.write_text("A,B\n0,x\n1,x\n2,y\n")
    schema = tmp_path / "t.schema.json"
    schema.write_text('{"A": ["0", "1"]}')
    fds = tmp_path / "t.fds"
    fds.write_text("A -> B\n")
    code, out, err = run(capsys, "check", "--table", table, "--schema",
                         schema, "--fds", fds)
    assert (code, out) == (2, "")
    assert err == "error: line 4: value '2' outside declared domain of 'A'\n"


def test_check_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "--table", "/nonexistent.csv",
                       "--fds", FIXTURES / "pilots.fds")
    assert code == 2


def test_a_byte_order_mark_leading_an_input_file_is_dropped(tmp_path,
                                                            capsys):
    # as a spreadsheet writes a UTF-8 CSV: a BOM in a table header named
    # the attribute '\ufeffTitle', and in an FD file it was a bad name
    calls = [
        ["check", "--table", "movies_violating.csv",
         "--schema", "movies.schema.json", "--fds", "movies.fds"],
        ["closure", "--fds", "pilots.fds", "--attrs", "Flight,Date"],
        ["optimize", "--query", "movies_query.json", "--fds", "movies.fds",
         "--table", "movies.csv", "--schema", "movies.schema.json"]]
    for argv in calls:
        files = [a for a in argv if (FIXTURES / a).is_file()]
        want = run(capsys, *[FIXTURES / a if a in files else a
                             for a in argv])
        assert want[0] in (0, 1) and want[2] == ""
        for marked in [{f} for f in files] + [set(files)]:
            for f in files:
                (tmp_path / f).write_bytes(b"\xef\xbb\xbf" * (f in marked)
                                           + (FIXTURES / f).read_bytes())
            got = run(capsys, *[tmp_path / a if a in files else a
                                for a in argv])
            assert got == want, (argv, marked)


def test_unknown_attribute_message_does_not_depend_on_the_hash_seed(
        tmp_path):
    """The least unknown name is reported, whatever order a set has."""
    fds = tmp_path / "unknown.fds"
    fds.write_text("Zc Xb Wd -> Pilot\n", encoding="utf-8")
    q = tmp_path / "unknown.json"
    q.write_text(json.dumps({"op": "proj", "scheme": "movies",
                             "attrs": ["Zq", "Xq", "Yq"]}), encoding="utf-8")
    calls = {
        "error: unknown attribute 'Wd'\n": [
            "check", "--table", FIXTURES / "pilots.csv", "--fds", fds],
        "error: at query: unknown attribute 'Xq'\n": [
            "optimize", "--query", q, "--fds", FIXTURES / "movies.fds",
            "--table", FIXTURES / "movies.csv"]}
    for want, argv in calls.items():
        for hash_seed in range(6):
            done = _run_with_hash_seed(argv, hash_seed)
            assert (done.returncode, done.stderr) == (2, want), hash_seed


def _run_with_hash_seed(argv, hash_seed):
    """`relfd` with `argv` in a fresh interpreter under PYTHONHASHSEED."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "relfd.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=60)


def test_check_witness_does_not_depend_on_the_hash_seed(tmp_path):
    """Both rows render (x,y,z,1): their repr orders them."""
    table = tmp_path / "tie.csv"
    table.write_text('A,B,C\n"x,y",z,1\nx,"y,z",1\n')
    fds_file = tmp_path / "tie.fds"
    fds_file.write_text("C -> A\n")
    want = [["x", "y,z", "1"], ["x,y", "z", "1"]]
    for hash_seed in range(8):
        done = _run_with_hash_seed(["check", "--table", table, "--fds",
                                    fds_file, "--json"], hash_seed)
        assert done.returncode == 1, done.stderr
        assert json.loads(done.stdout)["results"][0]["witness"] == want


def test_check_text_witness_quotes_atoms_that_would_print_alike(tmp_path,
                                                                capsys):
    """Rows that render alike as (x,y,z,1) print apart: an atom holding
    ``,()"`` prints as a JSON string, any other atom as it is."""
    table = tmp_path / "tie.csv"
    table.write_text('A,B,C\n"x,y",z,1\nx,"y,z",1\n')
    fds_file = tmp_path / "tie.fds"
    fds_file.write_text("C -> A\n")
    code, out, _ = run(capsys, "check", "--table", table, "--fds", fds_file)
    assert (code, out) == (
        1, 'C -> A: violated by rows (x,"y,z",1) / ("x,y",z,1)\n')
    table.write_text('A,B\n"a(b",1\n"c""d",1\n')
    fds_file.write_text("B -> A\n")
    code, out, _ = run(capsys, "check", "--table", table, "--fds", fds_file)
    assert (code, out) == (
        1, 'B -> A: violated by rows ("a(b",1) / ("c\\"d",1)\n')


def _wide_table(tmp_path):
    """A table of 50 stored rows whose 4 attributes declare 40 values each:
    a row universe of 2.56M, over CARRIER_LIMIT."""
    names = ["A", "B", "C", "D"]
    values = [f"v{i}" for i in range(40)]
    assert len(values) ** len(names) > rel.CARRIER_LIMIT
    schema = tmp_path / "wide.schema.json"
    schema.write_text(json.dumps({n: values for n in names}))
    rows = [(f"v{i}", f"v{i % 7}", f"v{i % 5}", f"v{i % 3}")
            for i in range(40)]
    rows += [(f"v{i}", f"v{i % 7}", f"v{i % 5}", f"v{(i + 1) % 3}")
             for i in range(10)]  # A is no longer a key, A -> B still holds
    table = tmp_path / "wide.csv"
    table.write_text("\n".join(",".join(r) for r in [names] + rows) + "\n")
    return table, schema


def test_check_runs_over_stored_rows_past_the_universe_bound(tmp_path,
                                                              capsys):
    table, schema = _wide_table(tmp_path)
    fds_file = tmp_path / "wide.fds"
    fds_file.write_text("A -> B\nA -> D\n")
    code, payload, err = run_json(capsys, "check", "--table", table,
                                  "--schema", schema, "--fds", fds_file)
    assert code == 1, err
    holds, refuted = payload["results"]
    assert holds == {"fd": "A -> B", "holds": True, "witness": None}
    assert refuted["holds"] is False
    loaded = tables.load_table(str(table), str(schema))
    assert len(loaded.rows) == 50
    r1, r2 = oracles.oracle_violation(loaded, fd.parse_fd("A -> D"))
    assert refuted["witness"] == [list(r1), list(r2)]


def test_check_warns_of_duplicate_rows_on_stderr_alone(tmp_path, capsys):
    table = tmp_path / "dup.csv"
    table.write_text("A,B\na,1\nb,2\na,1\n", encoding="utf-8")
    fds = tmp_path / "dup.fds"
    fds.write_text("A -> B\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "--table", table, "--fds", fds)
    assert (code, out) == (0, "A -> B: holds\n")
    assert err == "dropped 1 duplicate row(s) at load\n"


@pytest.mark.parametrize("table", ["pilots.csv", "pilots_double_booked.csv"])
@pytest.mark.parametrize("route", ["scan_violation", "satisfies_shunted",
                                   "satisfies_refinement"])
def test_checker_disagreement_is_internal_error(route, table, monkeypatch,
                                                capsys):
    real = getattr(fd, route)
    if route == "scan_violation":
        def flipped(*args):
            return None if real(*args) else (("x",), ("y",))
    else:
        def flipped(*args):
            return not real(*args)
    monkeypatch.setattr(cli.fd, route, flipped)
    code, _, err = run(capsys, "check", "--table", FIXTURES / table,
                       "--fds", FIXTURES / "pilots.fds")
    assert code == 3
    assert "disagree" in err


def test_check_rechecks_its_witness_rows_literally(monkeypatch, capsys):
    # a scan that keeps its verdict but returns rows agreeing on the
    # consequent: the three routes agree, and only the re-check of the
    # witness rows against the FD catches it
    real = fd.scan_violation

    def agreeing(rows, xs, ys):
        r1, r2 = real(rows, xs, ys)
        return r1, tuple(r1[i] if i in ys else v for i, v in enumerate(r2))

    monkeypatch.setattr(cli.fd, "scan_violation", agreeing)
    code, out, err = run(capsys, "check", "--table",
                         FIXTURES / "pilots_double_booked.csv",
                         "--fds", FIXTURES / "pilots.fds")
    assert (code, out) == (3, "")
    assert err == ("internal consistency failure: witness rows do not "
                   "violate Date Flight -> Pilot\n")


def test_check_builds_the_stored_carrier_once_per_table(tmp_path, capsys,
                                                        monkeypatch):
    built = []
    real = Carrier.__init__

    def counted(self, name, *args):
        built.append(name)
        real(self, name, *args)

    monkeypatch.setattr(Carrier, "__init__", counted)
    fds_file = tmp_path / "three.fds"
    fds_file.write_text("Flight Date -> Pilot\nPilot -> Departs\n"
                        "Flight -> Date\n")
    code, out, err = run(capsys, "check", "--table",
                         FIXTURES / "pilots_double_booked.csv",
                         "--fds", fds_file)
    assert code == 1, err
    assert out.count("\n") == 3
    assert built.count("stored") == 1


def _write_check(tmp_path, tag, rows, fds):
    table = tmp_path / f"{tag}.csv"
    table.write_text("\n".join(",".join(r) for r in [list("ABCDE")] + rows)
                     + "\n")
    fds_file = tmp_path / f"{tag}.fds"
    fds_file.write_text(fds)
    return table, fds_file


def test_check_is_linear_at_20000_rows(tmp_path, capsys):
    # B -> D holds (D is built from B); B -> C fails first on the B block
    # of the first sorted row, a00000, at a00100
    rows = [(f"a{i:05d}", f"b{i % 100:02d}", f"c{i % 7}", f"d{i % 10}",
             f"e{i // 1000:02d}") for i in range(20000)]
    table, fds_file = _write_check(tmp_path, "big", rows, "B -> D\nB -> C\n")
    # a sidecar declaring every used value and one unused value per column
    schema = tmp_path / "big.schema.json"
    schema.write_text(json.dumps({
        name: sorted({r[i] for r in rows}) + [f"{name.lower()}_unused"]
        for i, name in enumerate("ABCDE")}))
    start = time.perf_counter()
    code, payload, err = run_json(capsys, "check", "--table", table,
                                  "--schema", schema, "--fds", fds_file)
    elapsed = time.perf_counter() - start
    assert code == 1, err
    assert payload["results"] == [
        {"fd": "B -> D", "holds": True, "witness": None},
        {"fd": "B -> C", "holds": False,
         "witness": [list(rows[0]), list(rows[100])]}]
    assert elapsed < 10.0, f"check took {elapsed:.1f} s at 20,000 rows"


def test_check_retains_no_memory_across_tables(tmp_path, capsys):
    # 100 distinct 300-row tables in one process; nothing built for one
    # table, such as a relation or a carrier of its rows, may outlive it
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(1, 101):
            rows = [(f"a{k}_{i}", f"b{k}_{i % 10}", f"c{k}_{i % 10 * 2 % 7}",
                     f"d{k}_{i % 3}", f"e{k}_{i % 11}") for i in range(300)]
            table, fds_file = _write_check(tmp_path, f"t{k}", rows,
                                           "B -> C\nD -> E\n")
            code, _, err = run(capsys, "check", "--table", table,
                               "--fds", fds_file)
            assert code == 1, err
            if k in (10, 100):
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0]
                if k == 10:
                    at_10 = retained
    finally:
        tracemalloc.stop()
    growth_mb = (retained - at_10) / 2 ** 20
    assert growth_mb < 3, f"retained memory grew {growth_mb:.1f} MB"


def test_optimize_retains_no_memory_across_tables(tmp_path, capsys):
    # 100 distinct tables of universe 420 in one process; the scheme-keyed
    # caches are bounded, so what one table builds does not outlive the
    # next few: its row universe, projections, their indexes and converses
    query = tmp_path / "q.json"
    query.write_text(json.dumps({"op": "compose", "args": [
        {"op": "proj", "scheme": "t", "attrs": ["D"]},
        {"op": "pid", "table": "t"},
        {"op": "kernel", "arg": {"op": "proj", "scheme": "t",
                                 "attrs": ["T"]}},
        {"op": "pid", "table": "t"},
        {"op": "converse", "arg": {"op": "proj", "scheme": "t",
                                   "attrs": ["A"]}}]}))
    fds = tmp_path / "t.fds"
    fds.write_text("T -> D\n")
    table = tmp_path / "t.csv"
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(1, 101):
            rows = [(f"t{k}_{i % 7}", f"d{k}_{i % 7 % 6}", f"a{k}_{i % 10}")
                    for i in range(70)]
            table.write_text("\n".join(",".join(r) for r in [("T", "D", "A")]
                                       + rows) + "\n")
            code, out, err = run(capsys, "optimize", "--query", query,
                                 "--fds", fds, "--table", table, "--json")
            assert code == 0, err
            assert json.loads(out)["verification"]["status"] == "verified"
            if k in (10, 100):
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0]
                if k == 10:
                    at_10 = retained
    finally:
        tracemalloc.stop()
    growth_mb = (retained - at_10) / 2 ** 20
    assert growth_mb < 3, f"retained memory grew {growth_mb:.1f} MB"


def test_parser_is_reused_with_fresh_namespaces(capsys):
    code, payload, _ = run_json(capsys, "closure",
                                "--fds", FIXTURES / "pilots.fds",
                                "--attrs", "Flight,Date")
    assert code == 0 and payload["closure"] == ["Date", "Flight", "Pilot"]
    code, out, _ = run(capsys, "check", "--table", FIXTURES / "pilots.csv",
                       "--fds", FIXTURES / "pilots.fds")
    assert code == 0
    assert out == "Date Flight -> Pilot: holds\n"
    PARSER.parse_args(["closure", "--fds", "f", "--attrs", "A"])
    args = PARSER.parse_args(["laws"])
    assert not args.json_output and not hasattr(args, "attrs")


# ---------------------------------------------------------------------------
# closure / derive


def test_closure_output(capsys):
    code, payload, _ = run_json(capsys, "closure",
                                "--fds", FIXTURES / "pilots.fds",
                                "--attrs", "Flight,Date")
    assert code == 0
    assert payload["closure"] == ["Date", "Flight", "Pilot"]


def test_derive_round_trips_and_uses_consequence(capsys):
    code, payload, _ = run_json(
        capsys, "derive", "--fds", FIXTURES / "pilots.fds",
        "--goal", "Flight Date Departs -> Pilot")
    assert code == 0
    from relfd.infer import derivation_from_dict, validate_derivation
    tree = derivation_from_dict(payload["derivation"])
    assert validate_derivation(tree, [fd.parse_fd("Flight Date -> Pilot")])
    assert payload["derivation"]["rule"] == "Consequence"


def test_derive_not_derivable_exit_code(capsys):
    code, out, _ = run(capsys, "derive", "--fds", FIXTURES / "pilots.fds",
                       "--goal", "Pilot -> Flight")
    assert code == 1
    assert "not derivable" in out


# ---------------------------------------------------------------------------
# cex


def test_cex_produces_two_row_csv(capsys):
    code, out, _ = run(capsys, "cex", "--fds", FIXTURES / "pilots.fds",
                       "--goal", "Pilot -> Flight", "--scope-rows", "2")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two rows
    assert lines[0].split(",") == ["Date", "Flight", "Pilot"]


def test_cex_two_row_witness_for_reversed_fd(tmp_path, capsys):
    fds_file = tmp_path / "ab.fds"
    fds_file.write_text("A -> B\n")
    code, out, _ = run(capsys, "cex", "--fds", fds_file, "--goal", "B -> A",
                       "--scope-rows", "2")
    assert code == 1
    assert out.strip().splitlines() == ["A,B", "0,0", "1,0"]


def test_cex_none_for_derivable_goal(capsys):
    code, payload, _ = run_json(capsys, "cex",
                                "--fds", FIXTURES / "pilots.fds",
                                "--goal", "Flight Date -> Pilot")
    assert code == 0
    assert payload["witness"] is None


@pytest.mark.parametrize("scope", [
    ("--scope-dom", str(10 ** 20)),
    ("--scope-rows", str(10 ** 20), "--scope-dom", str(10 ** 6)),
])
def test_cex_huge_scope_answers_as_scope_dom_2(capsys, scope):
    # the witness lists the two values its rows use, so a scope of any
    # size above one row and one value prints the default scope's answer
    goal = ("cex", "--fds", FIXTURES / "pilots.fds",
            "--goal", "Pilot -> Flight")
    start = time.perf_counter()
    code, out, err = run(capsys, *goal, *scope)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (1, "")
    assert out == run(capsys, *goal, "--scope-dom", "2")[1]


def test_cex_json_over_a_huge_domain_is_sized_by_its_witness(tmp_path,
                                                             capsys):
    # over 3 attributes of 333,333 values the two-row answer is the
    # `--scope-dom 2` one, byte for byte, and is built in a few KiB
    fds_file = tmp_path / "ab.fds"
    fds_file.write_text("A -> B\n")
    goal = ("cex", "--json", "--fds", fds_file, "--goal", "B -> A C")
    want = run(capsys, *goal, "--scope-dom", "2")
    gc.collect()
    tracemalloc.start()
    try:
        got = run(capsys, *goal, "--scope-dom", "333333")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert want[0] == 1 and got == want
    assert peak < 32 * 2 ** 10, f"traced peak {peak} bytes"


def test_cex_answers_eight_attributes_at_four_rows(tmp_path, capsys):
    # 256 rows, whose tables of up to 4 rows number over 10**8: the search
    # builds only the two-row witness
    fds_file = tmp_path / "chain.fds"
    fds_file.write_text("A -> B\nB -> C D\nC D -> E F G H\n")
    code, payload, _ = run_json(capsys, "cex", "--fds", fds_file,
                                "--goal", "H -> A", "--scope-rows", "4")
    assert code == 1
    witness = oracles.table_from_json(payload["witness"])
    assert witness.scheme.names == tuple("ABCDEFGH")
    assert len(witness.rows) == 2
    assert all(fd.satisfies_oracle(witness, fd.parse_fd(line))
               for line in fds_file.read_text().splitlines())
    assert not fd.satisfies_oracle(witness, fd.parse_fd("H -> A"))


def test_cex_one_row_scope_is_none_without_the_row_universe(tmp_path,
                                                            capsys):
    # no table of 0 or 1 rows violates an FD; the 10**6-row universe of
    # this scope is never built
    fds_file = tmp_path / "ab.fds"
    fds_file.write_text("A -> B\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "cex", "--fds", fds_file, "--goal", "B -> A",
                         "--scope-rows", "1", "--scope-dom", "1000")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "none\n", "")


def test_cex_witness_round_trips_via_json(capsys):
    code, payload, _ = run_json(capsys, "cex",
                                "--fds", FIXTURES / "pilots.fds",
                                "--goal", "Pilot -> Flight")
    assert code == 1
    w = payload["witness"]
    assert {a["name"] for a in w["attributes"]} == {"Pilot", "Flight", "Date"}
    assert len(w["rows"]) == 2
    # the JSON form reconstructs the witness table exactly
    from relfd.oracles import table_from_json
    from relfd.tables import table_to_json
    table = table_from_json(json.loads(json.dumps(w)))
    assert table_to_json(table) == w


# ---------------------------------------------------------------------------
# optimize


def test_optimize_rewrites_and_verifies(capsys):
    code, payload, _ = run_json(
        capsys, "optimize", "--query", FIXTURES / "movies_query.json",
        "--fds", FIXTURES / "movies.fds",
        "--table", FIXTURES / "movies.csv",
        "--schema", FIXTURES / "movies.schema.json")
    assert code == 0
    assert payload["verification"]["status"] == "verified"
    from relfd import query
    rewritten = query.from_json(payload["query"])
    assert query.count_pid_nodes(rewritten) == 1
    assert query.to_json(rewritten) == payload["query"]


def test_optimize_flags_violating_table(capsys, monkeypatch):
    calls = []
    compare = query._compare

    def counted(*args):
        calls.append(args)
        return compare(*args)

    monkeypatch.setattr(query, "_compare", counted)
    code, payload, _ = run_json(
        capsys, "optimize", "--query", FIXTURES / "movies_query.json",
        "--fds", FIXTURES / "movies.fds",
        "--table", FIXTURES / "movies_violating.csv")
    assert code == 1
    assert payload["verification"]["status"] == "counterexample"
    assert payload["verification"]["witness"] == ["(a2)", "(d1)"]
    assert len(calls) == 1  # the witness comes from evaluation


def test_optimize_table_flag_needs_single_reference(tmp_path, capsys):
    query = {"op": "compose", "args": [{"op": "pid", "table": "one"},
                                       {"op": "pid", "table": "one"}]}
    other = {"op": "compose", "args": [query["args"][0],
                                       {"op": "pid", "table": "two"}]}
    qfile = tmp_path / "two_tables.json"
    qfile.write_text(json.dumps(other))
    fds_file = tmp_path / "none.fds"
    fds_file.write_text("")
    code, _, err = run(capsys, "optimize", "--query", qfile,
                       "--fds", fds_file, "--table", FIXTURES / "movies.csv")
    assert code == 2
    assert "one" in err and "two" in err


@pytest.mark.parametrize("node, named", [
    ({"op": "rel"}, "name"),
    ({"op": "converse"}, "arg"),
    ({"op": "kernel"}, "arg"),
    ({"op": "proj", "attrs": ["Title"]}, "scheme"),
    ({"op": "pid"}, "table"),
    ({"op": "proj", "scheme": "movies", "attrs": ["Title", 3]}, "attrs"),
])
def test_optimize_malformed_query_node_is_input_error(tmp_path, capsys, node,
                                                      named):
    qfile = tmp_path / "bad.json"
    qfile.write_text(json.dumps({"op": "compose", "args": [
        {"op": "pid", "table": "movies"}, node]}))
    code, out, err = run(capsys, "optimize", "--query", qfile,
                         "--fds", FIXTURES / "movies.fds",
                         "--table", FIXTURES / "movies.csv")
    assert code == 2
    assert out == ""
    assert repr(node["op"]) in err and named in err


PID = {"op": "pid", "table": "movies"}


@pytest.mark.parametrize("query, path", [
    ({"op": "compose", "args": [PID, PID, {"op": "kernel"}]},
     "query.compose.args[2]"),
    ({"op": "union", "args": [PID, {"op": "converse", "arg": {
        "op": "proj", "attrs": ["Title"]}}]},
     "query.union.args[1].converse.arg"),
    ({"op": "kernel", "arg": {"op": "fork", "args": [PID]}},
     "query.kernel.arg"),
    ({"op": "launch"}, "query"),
])
def test_optimize_malformed_query_names_the_node_path(tmp_path, capsys,
                                                      query, path):
    qfile = tmp_path / "bad.json"
    qfile.write_text(json.dumps(query))
    code, out, err = run(capsys, "optimize", "--query", qfile,
                         "--fds", FIXTURES / "movies.fds",
                         "--table", FIXTURES / "movies.csv")
    assert code == 2
    assert out == ""
    assert f"error: at {path}: " in err


def test_optimize_verifies_a_pid_universe_past_the_bound(tmp_path, capsys,
                                                         monkeypatch):
    # typing sizes the 2.56M-row universe without enumerating it, and no
    # window fires, so nothing is evaluated
    table, schema = _wide_table(tmp_path)
    pid = {"op": "pid", "table": "wide"}
    qfile = tmp_path / "pids.json"
    qfile.write_text(json.dumps({"op": "compose", "args": [pid, pid]}))
    fds_file = tmp_path / "wide.fds"
    fds_file.write_text("A -> B\n")
    forbid_product_enumeration(monkeypatch)
    code, out, err = run(capsys, "optimize", "--query", qfile,
                         "--fds", fds_file, "--table", table,
                         "--schema", schema)
    assert (code, err) == (0, "")
    assert out.endswith("\nverified\n")


def test_optimize_verifies_a_fork_target_past_the_bound(tmp_path, capsys):
    # 5 binary attributes: a 32-row universe, so the outer fork's target
    # holds 1024 * 1024 pairs, typed as a product and never enumerated
    table = tmp_path / "t.csv"
    table.write_text("A,B,C,D,E\n0,0,0,0,0\n1,1,1,1,1\n")
    pid = {"op": "pid", "table": "t"}
    inner = {"op": "fork", "args": [pid, pid]}
    qfile = tmp_path / "forks.json"
    qfile.write_text(json.dumps({"op": "fork", "args": [inner, inner]}))
    fds_file = tmp_path / "none.fds"
    fds_file.write_text("")
    start = time.perf_counter()
    code, out, err = run(capsys, "optimize", "--query", qfile,
                         "--fds", fds_file, "--table", table)
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    assert out.endswith("\nverified\n")


@pytest.mark.parametrize("levels, code", [
    (MAX_QUERY_DEPTH, 0),
    (MAX_QUERY_DEPTH + 1, 2),
    (5000, 2),  # past the JSON decoder's own recursion limit
])
def test_optimize_deep_query_keeps_the_exit_contract(tmp_path, capsys,
                                                     levels, code):
    qfile = tmp_path / "deep.json"
    leaf = json.dumps({"op": "proj", "scheme": "movies", "attrs": ["Title"]})
    qfile.write_text('{"op": "converse", "arg": ' * levels + leaf
                     + "}" * levels)
    got, out, err = run(capsys, "optimize", "--query", qfile,
                        "--fds", FIXTURES / "movies.fds",
                        "--table", FIXTURES / "movies.csv")
    assert got == code
    if code == 0:
        assert out.endswith("verified\n") and err == ""
    else:
        assert out == ""
        assert err.startswith("error: at query")
        assert err.endswith(
            f": query nests deeper than {MAX_QUERY_DEPTH} levels\n")


@pytest.mark.parametrize("command", ["check", "optimize"])
def test_oversized_csv_field_is_input_error(tmp_path, capsys, command):
    table = tmp_path / "big.csv"
    table.write_text("Title,Director,Actor\n" + "t" * 131073 + ",d,a\n")
    if command == "check":
        argv = ["check", "--table", table]
    else:
        argv = ["optimize", "--query", FIXTURES / "movies_query.json",
                "--table", table]
    code, out, err = run(capsys, *argv, "--fds", FIXTURES / "movies.fds")
    assert code == 2
    assert out == ""
    assert err == ("error: line 2: bad CSV: field larger than field limit "
                   "(131072)\n")


def test_deeply_nested_schema_is_input_error(tmp_path, capsys):
    schema = tmp_path / "deep.schema.json"
    schema.write_text("[" * 5000)
    code, out, err = run(capsys, "check", "--table", FIXTURES / "movies.csv",
                         "--schema", schema, "--fds", FIXTURES / "movies.fds")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad schema JSON: maximum recursion depth")


def test_optimize_verifies_by_typing_without_evaluating(tmp_path, capsys,
                                                         monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("_compare called")

    monkeypatch.setattr(query, "_compare", no_evaluation)
    no_window = tmp_path / "none.fds"
    no_window.write_text("Director -> Actor\n")
    for fds in (FIXTURES / "movies.fds", no_window):
        code, out, err = run(capsys, "optimize",
                             "--query", FIXTURES / "movies_query.json",
                             "--fds", fds, "--table", FIXTURES / "movies.csv")
        assert (code, err) == (0, "")
        assert out.endswith("\nverified\n")


def test_optimize_fd_through_an_outside_attribute(tmp_path, capsys,
                                                  monkeypatch):
    # Title -> Director is derived through X, which the table lacks; the
    # window's own FD is tested on the rows, never the file's
    fds = tmp_path / "outside.fds"
    fds.write_text("Title -> X\nX -> Director\n")
    for csv_name, want in (("movies.csv", 0), ("movies_violating.csv", 1)):
        argv = ["optimize", "--query", FIXTURES / "movies_query.json",
                "--fds", fds, "--table", FIXTURES / csv_name]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (want, "")
        assert out.count('"Director"') == 1  # the window fired
        with monkeypatch.context() as m:
            m.setattr(query, "discharged", lambda *a: False)
            assert run(capsys, *argv) == (code, out, err)


def _generated_requests(tmp_path):
    """Movies-shaped tables, each queried with the bench's five shapes under
    FD files that enable the rewrite through f -> g, through f -> h, through
    an attribute outside the table, or not at all."""
    rnd = random.Random(1601)
    names = ["Title", "Director", "Actor"]
    f, g, h = ({"op": "proj", "scheme": "m", "attrs": [a]} for a in names)
    p = {"op": "pid", "table": "m"}
    window = [g, p, {"op": "kernel", "arg": f}, p, {"op": "converse", "arg": h}]
    short = {"op": "compose", "args": [g, p, {"op": "converse", "arg": h}]}
    alone = {"op": "compose", "args": window}
    shapes = [alone,
              {"op": "compose", "args": [g, {"op": "converse", "arg": g},
                                         *window, h, p]},
              {"op": "union", "args": [alone, short]},
              {"op": "fork", "args": [alone, short]},
              {"op": "converse", "arg": alone}]
    fd_texts = ["Title -> Director\n", "Title -> Actor\n",
                "Title -> X\nX -> Director\n", "Director -> Title\n"]
    for i in range(12):
        table = tmp_path / f"t{i}.csv"
        director = {t: rnd.choice("xy") for t in "abc"}
        rows = {(t, director[t] if i % 3 else rnd.choice("xy"),
                 rnd.choice("pqr")) for t in rnd.choices("abc", k=6)}
        table.write_text("Title,Director,Actor\n" + "".join(
            ",".join(r) + "\n" for r in sorted(rows)))
        for j, shape in enumerate(shapes):
            qfile = tmp_path / f"q{i}_{j}.json"
            qfile.write_text(json.dumps(shape))
            fds = tmp_path / f"f{i}_{j}.fds"
            fds.write_text(fd_texts[(i + j) % len(fd_texts)])
            yield (["optimize", "--query", qfile, "--fds", fds,
                    "--table", table] + ["--json"] * (j % 2))


def test_optimize_typed_path_prints_what_evaluation_prints(tmp_path, capsys,
                                                           monkeypatch):
    codes, verdicts = set(), set()
    discharge = query.discharged

    def recorded(fired, env):
        verdicts.add((bool(fired), discharge(fired, env)))
        return discharge(fired, env)

    for argv in _generated_requests(tmp_path):
        with monkeypatch.context() as m:
            m.setattr(query, "discharged", recorded)
            typed = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(query, "discharged", lambda *a: False)
            assert run(capsys, *argv) == typed, argv
        codes.add(typed[0])
    assert codes == {0, 1}
    # no window fired; a window discharged; one left to evaluation
    assert verdicts == {(False, True), (True, True), (True, False)}


@pytest.mark.parametrize("node, path", [
    ({"op": "compose", "args": [PID, {"op": "rel", "name": "R"}]},
     "query.compose.args[1]"),
    ({"op": "union", "args": [PID, {"op": "converse", "arg": {
        "op": "rel", "name": "S"}}, {"op": "rel", "name": "R"}]},
     "query.union.args[1].converse.arg"),
])
def test_optimize_rejects_rel_nodes_with_or_without_a_table(tmp_path, capsys,
                                                            node, path):
    # the CLI binds no relation, so a `rel` node is an input error either
    # way, with the message and path `type_check` gives it
    qfile = tmp_path / "rel.json"
    qfile.write_text(json.dumps(node))
    argv = ["optimize", "--query", qfile, "--fds", FIXTURES / "movies.fds"]
    bare = run(capsys, *argv)
    assert bare == run(capsys, *argv, "--table", FIXTURES / "movies.csv")
    assert bare[:2] == (2, "")
    assert bare[2].startswith(f"error: at {path}: unbound relation ")


def test_optimize_types_an_ill_typed_query_with_or_without_a_table(
        tmp_path, capsys):
    # proj Title . proj Title: the left factor's source is the row carrier,
    # not rows(Title); without --table the table holds the attributes the
    # projections and the FD file name, in name order
    title = {"op": "proj", "scheme": "movies", "attrs": ["Title"]}
    qfile = tmp_path / "titles.json"
    qfile.write_text(json.dumps({"op": "compose", "args": [title, title]}))
    argv = ["optimize", "--query", qfile, "--fds", FIXTURES / "movies.fds"]
    for extra, rows in (([], "Director,Title"),
                        (["--table", FIXTURES / "movies.csv"],
                         "Title,Director,Actor")):
        assert run(capsys, *argv, *extra) == (
            2, "", "error: at query: compose needs matching middle carrier, "
                   f"got 'rows(Title)' then 'rows({rows})'\n")


def _named(node) -> set:
    """The attributes a JSON query's projections name."""
    if isinstance(node, dict):
        return set(node.get("attrs", ())).union(*map(_named, node.values()))
    if isinstance(node, list):
        return set().union(*map(_named, node))
    return set()


def test_optimize_without_a_table_types_on_the_header_only_table(tmp_path,
                                                                 capsys):
    # the generated requests, and three ill-typed shapes over their table,
    # exit and fail without --table as with a CSV holding only the header
    # of the names the query and the FD file mention, sorted
    g, h = ({"op": "proj", "scheme": "m", "attrs": [a]}
            for a in ("Director", "Actor"))
    p = {"op": "pid", "table": "m"}
    backwards = {"op": "compose", "args": [h, p, {"op": "converse", "arg": g}]}
    forwards = {"op": "compose", "args": [g, p, {"op": "converse", "arg": h}]}
    ill_typed = [{"op": "compose", "args": [g, g]},
                 {"op": "union", "args": [forwards, backwards]},
                 {"op": "fork", "args": [forwards,
                                         {"op": "converse", "arg": g}]}]
    requests = list(_generated_requests(tmp_path))
    for i, shape in enumerate(ill_typed):
        qfile = tmp_path / f"ill{i}.json"
        qfile.write_text(json.dumps(shape))
        requests.append(["optimize", "--query", qfile,
                         "--fds", FIXTURES / "movies.fds",
                         "--table", FIXTURES / "movies.csv"])
    codes = set()
    for argv in requests:
        at = argv.index("--table")
        bare = argv[:at] + argv[at + 2:]
        names = _named(json.loads(Path(argv[2]).read_text())).union(*(
            item.antecedent | item.consequent
            for item in fd.parse_fd_lines(Path(argv[4]).read_text())))
        header = tmp_path / "header.csv"
        header.write_text(",".join(sorted(names)) + "\n")
        code, _, err = run(capsys, *bare)
        assert (code, err) == run(capsys, *bare, "--table", header)[::2], argv
        codes.add(code)
    assert codes == {0, 2}


def _random_query(rnd, depth):
    if depth == 0 or rnd.random() < 0.3:
        if rnd.random() < 0.3:
            return {"op": "pid", "table": "m"}
        return {"op": "proj", "scheme": "m",
                "attrs": rnd.sample("ABC", rnd.randint(1, 3))}
    op = rnd.choice(["converse", "kernel", "compose", "compose", "union",
                     "fork"])
    if op in ("converse", "kernel"):
        return {"op": op, "arg": _random_query(rnd, depth - 1)}
    return {"op": op, "args": [_random_query(rnd, depth - 1)
                               for _ in range(rnd.randint(2, 3))]}


def test_optimize_without_a_table_types_what_a_wider_table_types(tmp_path,
                                                                 capsys):
    # a query typing on a table whose header holds every name the query and
    # the FD file mention, and more, in another order, types without --table;
    # one row keeps the carriers of nested forks small
    rnd = random.Random(2207)
    wide = tables.parse_table_csv("E,C,A,D,B\n1,2,3,4,5\n")
    typed = 0
    for _ in range(600):
        obj = _random_query(rnd, 3)
        expr = query.from_json(obj)
        try:
            query.type_check(expr, query.Env({"m": wide}))
        except query.QueryTypeError:
            continue
        typed += 1
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(obj))
        fds = tmp_path / "f.fds"
        fds.write_text(rnd.choice(["", "A -> B\n", "B C -> D\n"]))
        code, _, err = run(capsys, "optimize", "--query", qfile,
                           "--fds", fds)
        assert (code, err) == (0, ""), obj
    assert typed >= 50


def test_optimize_types_each_side_once(tmp_path, capsys, monkeypatch):
    # top-level `type_check` calls (path "query"): one per side, whether
    # typing settles the rewrite or evaluation does
    type_check, compare = query.type_check, query._compare
    calls = []

    def counted(e, env, path="query"):
        calls.append(path)
        return type_check(e, env, path)

    def evaluated(*args):
        calls.append("_compare")
        return compare(*args)

    monkeypatch.setattr(query, "type_check", counted)
    monkeypatch.setattr(query, "_compare", evaluated)
    no_window = tmp_path / "none.fds"
    no_window.write_text("Director -> Actor\n")
    for fds, csv_name, want, evaluations in (
            (FIXTURES / "movies.fds", "movies.csv", 0, 0),
            (no_window, "movies.csv", 0, 0),
            (FIXTURES / "movies.fds", "movies_violating.csv", 1, 1)):
        calls.clear()
        code, _, err = run(capsys, "optimize",
                           "--query", FIXTURES / "movies_query.json",
                           "--fds", fds, "--table", FIXTURES / csv_name)
        assert (code, err) == (want, "")
        assert calls.count("query") == 2
        assert calls.count("_compare") == evaluations


def test_discharged_optimize_builds_no_row_universe_or_pair_carrier(
        tmp_path, capsys, monkeypatch):
    # typing sizes the row universe and the pair carrier of the fork's
    # target without enumerating them, and only evaluation, which does not
    # run on a discharged rewrite, would enumerate one
    alone = json.loads((FIXTURES / "movies_query.json").read_text())
    short = {"op": "compose", "args": [alone["args"][0], alone["args"][1],
                                       alone["args"][4]]}
    for i, shape in enumerate((alone, {"op": "fork",
                                       "args": [alone, short]})):
        qfile = tmp_path / f"q{i}.json"
        qfile.write_text(json.dumps(shape))
        argv = ["optimize", "--query", qfile, "--fds", FIXTURES / "movies.fds",
                "--table", FIXTURES / "movies.csv"]
        want = run(capsys, *argv)
        assert want[0] == 0 and want[1].endswith("\nverified\n"), want
        with monkeypatch.context() as m:
            forbid_product_enumeration(m)
            assert run(capsys, *argv) == want


def test_optimize_bounds_hold_on_attribute_types(tmp_path, capsys,
                                                 monkeypatch):
    # with the carrier bound patched low, typing raises no size bound: an
    # over-bound row universe and an over-bound fork target type and exit
    # 0, with --table (an 8-row universe) and without it (the header-only
    # table's empty universe, over only a negative bound).  Evaluating the
    # universe shape enumerates the universe, so it raises past the bound,
    # naming the carrier
    table = tmp_path / "bound.csv"
    table.write_text("Title,Director,Actor\nbt1,bd1,ba1\nbt2,bd2,ba2\n")
    header = tables.Table(tables.Scheme(tuple(
        (name, Carrier(name, ())) for name in ("Director", "Title"))),
        frozenset())
    pid = {"op": "pid", "table": "movies"}
    shapes = {"universe": {"op": "compose", "args": [pid, {
                  "op": "kernel", "arg": {"op": "proj", "scheme": "movies",
                                          "attrs": ["Title"]}}]},
              "fork": {"op": "fork", "args": [pid, pid]}}
    cases = [(7, True, "carrier rows(Title,Director,Actor) has 8 elements, "
                       "over the 7 bound"),
             (8, True, None),
             (-1, False, "carrier rows(Director,Title) has 0 elements, over "
                         "the -1 bound")]
    for bound, with_table, message in cases:
        env = query.Env({"movies": tables.load_table(str(table))
                         if with_table else header})
        extra = ["--table", table] if with_table else []
        monkeypatch.setattr(rel, "CARRIER_LIMIT", bound)
        for shape, obj in shapes.items():
            qfile = tmp_path / f"{shape}.json"
            qfile.write_text(json.dumps(obj))
            expr = query.from_json(obj)
            universe = tables.row_carrier(env.tables["movies"])
            want = universe if shape == "universe" else rel.pair_carrier(
                universe, universe)
            assert query.type_check(expr, env) == (universe, want)
            code, out, err = run(capsys, "optimize", "--query", qfile,
                                 "--fds", FIXTURES / "movies.fds", *extra)
            assert (code, err) == (0, ""), (bound, shape)
            if shape == "universe" and message is not None:
                with pytest.raises(ResourceLimitError) as raised:
                    query.eval_query(expr, env)
                assert str(raised.value) == message
            else:
                query.eval_query(expr, env)


def test_optimize_window_outside_the_scheme_is_a_located_error(tmp_path,
                                                               capsys):
    # the window fires through `Title -> Bogus`; typing, not the discharge,
    # reports the attribute, located at its node
    qfile = tmp_path / "bogus.json"
    obj = json.loads((FIXTURES / "movies_query.json").read_text())
    obj["args"][0]["attrs"] = ["Bogus"]
    qfile.write_text(json.dumps(obj))
    fds = tmp_path / "bogus.fds"
    fds.write_text("Title -> Bogus\n")
    assert run(capsys, "optimize", "--query", qfile, "--fds", fds,
               "--table", FIXTURES / "movies.csv") == (
        2, "", "error: at query.compose.args[0]: unknown attribute 'Bogus'\n")


def test_optimize_table_binds_exactly_one_table(tmp_path, capsys):
    qfile = tmp_path / "two.json"
    qfile.write_text(json.dumps({"op": "compose", "args": [
        PID, {"op": "pid", "table": "other"}]}))
    assert run(capsys, "optimize", "--query", qfile,
               "--fds", FIXTURES / "movies.fds",
               "--table", FIXTURES / "movies.csv") == (
        2, "", "error: --table binds exactly one referenced table, query "
               "uses ['movies', 'other']\n")


def test_optimize_schema_without_table_is_input_error(capsys):
    code, out, err = run(capsys, "optimize",
                         "--query", FIXTURES / "movies_query.json",
                         "--fds", FIXTURES / "movies.fds",
                         "--schema", FIXTURES / "movies.schema.json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--schema" in err and "--table" in err


def test_optimize_without_table_just_rewrites(capsys):
    code, payload, _ = run_json(
        capsys, "optimize", "--query", FIXTURES / "movies_query.json",
        "--fds", FIXTURES / "movies.fds")
    assert code == 0
    assert payload["verification"] is None


# ---------------------------------------------------------------------------
# laws


def test_laws_suite_passes_at_size_2(capsys):
    code, payload, _ = run_json(capsys, "laws", "--scope-carrier", "2")
    assert code == 0
    assert all(entry["refuted"] is False for entry in payload["laws"])
    assert len(payload["laws"]) == len(set(e["law"] for e in payload["laws"]))


def test_missing_required_flag_is_input_error(capsys):
    code = main(["closure", "--attrs", "A"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--fds" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["check", "--fds", FIXTURES / "pilots.fds"], "--table"),
    (["check", "--table", FIXTURES / "pilots.csv"], "--fds"),
    (["optimize", "--query", FIXTURES / "movies_query.json"], "--fds"),
])
def test_missing_table_or_fds_is_a_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: relfd ")
    assert err.endswith(f"error: the following arguments are required: "
                        f"{flag}\n")


# ---------------------------------------------------------------------------
# the plain argv reader and the indented-JSON writer


# values for any flag: decimal and other digits, ints past `int`'s
# 4,300-digit limit, negative numbers and other text
ARG_VALUE = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.sampled_from(["pilots.fds", "A -> B", "Flight,Date", "", " 3", "+3",
                     "007", "٣", "٣٠", "²", "1_0", "-1",
                     "-", "--", "--json", "x=y", "1" * 4300, "9" * 4301]),
    st.text(max_size=4))
# tokens the plain reader declines: help, `--`, `--flag=value`,
# abbreviations, unknown flags and stray words
JUNK_TOKEN = st.sampled_from([
    "-h", "--help", "--", "--fds=x", "--scope-rows=2", "--json=1", "--sco",
    "--scope-r", "--fd", "--tab", "--at", "-x", "stray", "check"])


@st.composite
def argvs(draw):
    """A command, or junk in its place; its flags with values, each
    required one mostly, each other one at random; maybe `--json`; maybe
    repeats and junk; shuffled."""
    command = draw(st.sampled_from(list(cli.COMMANDS))
                   | st.sampled_from(["", "nope", "Check", "-h", "--json"]))
    flags = cli.COMMANDS[command][2] if command in cli.COMMANDS else {}
    parts = [(flag, draw(ARG_VALUE)) for flag, default in flags.items()
             if draw(st.integers(0, 9)) < (9 if default is cli.REQUIRED
                                           else 5)]
    parts += [("--json",)] * draw(st.sampled_from([0, 0, 1, 1, 2]))
    parts += draw(st.lists(
        st.tuples(st.sampled_from(sorted(cli.FLAGS)), ARG_VALUE)
        | st.tuples(st.sampled_from(sorted(cli.FLAGS)))
        | st.tuples(JUNK_TOKEN), max_size=2))
    return [command,
            *itertools.chain.from_iterable(draw(st.permutations(parts)))]


@settings(max_examples=500, deadline=None, database=None)
@given(argv=argvs())
@example(argv=["laws", "--scope-carrier", "٣", "--json"])
@example(argv=["cex", "--fds", "f", "--goal", "A -> B", "--scope-dom", "7"])
def test_plain_args_read_what_argparse_reads(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(PARSER.parse_args(argv))


def test_plain_args_read_every_golden_call():
    from test_golden import CALLS
    for argv in CALLS.values():
        assert (vars(cli._plain_args(argv))
                == vars(PARSER.parse_args(argv))), argv


def test_plain_args_decline_what_int_refuses(capsys):
    assert cli._plain_args(["laws", "--scope-carrier", "٣"]
                           ).scope_carrier == 3
    for value in ("²", "9" * 5000, "-1", " 3"):
        assert cli._plain_args(["laws", "--scope-carrier", value]) is None
    # argparse reports an int past the digit limit as a usage error
    code, out, err = run(capsys, "laws", "--scope-carrier", "9" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith("usage: relfd laws ")
    assert "error: argument --scope-carrier: invalid int value: '999" in err


JSON_STR = st.text() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u00e9", "\U0001f600",
     "\ud800", "a\"b\\c\nd\te"])
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(10 ** 30, 10 ** 400) | st.integers(-10 ** 400, -10 ** 30),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -0.0]),
    JSON_STR)
JSON_TREE = st.recursive(
    JSON_LEAF,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(JSON_STR, kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=500, deadline=None, database=None)
@given(obj=JSON_TREE)
@example(obj={"a": [], "b": {}, "c": (), "d": [[{}], {"e": [None]}]})
def test_json_text_is_json_dumps_indented(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


def test_json_text_writes_10000_levels_without_recursion():
    depth = 10_000
    deep: list = []
    for _ in range(depth):
        deep = [deep]
    text = cli._json_text(deep)
    # one line opening each level, the innermost [], one line closing each
    lines = itertools.chain(("  " * k + "[" for k in range(depth)),
                            ["  " * depth + "[]"],
                            ("  " * k + "]" for k in reversed(range(depth))))
    at = 0
    for line in lines:
        assert text.startswith(line, at), at
        at += len(line)
        assert text.startswith("\n", at) or at == len(text), at
        at += 1
    assert at == len(text) + 1


# ---------------------------------------------------------------------------
# one payload per answer: a JSON request renders no text form


@pytest.mark.parametrize("call, module, renderer", [
    ("cex_pilots_json", tables, "table_to_csv"),
    ("check_pilots_double_booked_json", cli, "_row_text"),
    ("optimize_movies_violating_json", cli, "_optimize_text"),
])
def test_json_answers_without_the_text_renderer(call, module, renderer,
                                                monkeypatch, capsys):
    from test_golden import CALLS, GOLDEN

    def refuse(*_):
        raise AssertionError(f"{renderer} ran for a --json request")
    monkeypatch.setattr(module, renderer, refuse)
    code, out, err = run(capsys, *CALLS[call])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert (code, err) == (codes[call], "")
    assert out == (GOLDEN / f"{call}.stdout").read_text()
