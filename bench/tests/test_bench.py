"""The benchmark's own tests; run with `python3 -m pytest bench/tests`.

They check that the generator is deterministic, that every reference check
rejects a tampered witness or a wrong verdict, that the traced run sees
every layer, and that a run at the smallest size prints every metric.
"""

from __future__ import annotations

import copy
import filecmp
import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("check", "optimize", "refute")
# the layer each workload is there to load
HEAVY = {"check": ("cli", "tables", "fd", "rel"),
         "optimize": ("cli", "tables", "rel", "query"),
         "refute": ("cli", "infer", "search", "laws", "bitrel")}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


# ---------------------------------------------------------------------------
# Generator


GENERATE = ("import json, sys; sys.path.insert(0, {bench!r}); "
            "import workloads; reqs, _ = workloads.generate({name!r}, "
            "{seed}, 3, {out!r}, {root!r}); "
            "print(json.dumps(reqs).replace({out!r}, '<dir>'))")


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    """Same seed, same files and requests, whatever the interpreter's
    hash seed; another seed, other inputs."""
    runs = []
    for sub, seed, hashseed in (("a", 7, "1"), ("b", 7, "2"), ("c", 8, "1")):
        out = str(tmp_path / sub)
        code = GENERATE.format(bench=BENCH, name=name, seed=seed, out=out,
                               root=ROOT)
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONHASHSEED=hashseed))
        runs.append((out, done.stdout))
    (da, ta), (db, tb), (_, tc) = runs
    assert ta == tb and ta != tc
    assert sorted(os.listdir(da)) == sorted(os.listdir(db))
    _, mismatch, errors = filecmp.cmpfiles(da, db, os.listdir(da),
                                           shallow=False)
    assert not mismatch and not errors


def test_generator_records_shares_and_bounds_rows(tmp_path):
    for name in WORKLOADS:
        _, info = workloads.generate(name, 1, 3, str(tmp_path / name), ROOT)
        assert info["requests"] >= workloads.request_count(name, 3)
        assert 0 < info["expected_refuted_share"] < 1
        assert 0 <= info["scheme_seen_share"] <= 1
    planted = workloads._Planted(random.Random(0), "X", 200, 4, extra=False)
    assert len(set(planted.rows(1.0))) == planted.row_bound


# ---------------------------------------------------------------------------
# Reference checks reject tampered answers


def first(name, pred, tmp_path, seconds=4):
    reqs, _ = workloads.generate(name, 2, seconds, str(tmp_path / name), ROOT)
    return next(r for r in reqs if pred(r))


def answer(req):
    """Run one request through relfd in-process, as the worker does."""
    import contextlib
    import io

    from relfd import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(req["argv"])
    return {"raised": None, "exit": code, "stdout": out.getvalue()}


def judged(req, rec, payload=None):
    if payload is not None:
        rec = dict(rec, stdout=json.dumps(payload))
    return run.judge(req, rec)


def test_check_reference_rejects_wrong_verdict_and_witness(tmp_path):
    req = first("check", lambda r: r["op"] == "check" and not r.get(
        "malformed") and r["expect"]["exit"] == 1, tmp_path)
    rec = answer(req)
    assert run.judge(req, rec) is None
    payload = json.loads(rec["stdout"])
    bad = next(i for i, r in enumerate(payload["results"]) if not r["holds"])

    flipped = copy.deepcopy(payload)
    flipped["results"][bad]["holds"] = True
    assert judged(req, rec, flipped)[0] == "wrong"

    header, rows = ref.read_csv(req["expect"]["table"])
    fd = req["expect"]["fds"][bad]
    tampered = copy.deepcopy(payload)
    w = tampered["results"][bad]["witness"]
    w[1] = list(w[0])  # two equal rows agree on the consequent
    assert judged(req, rec, tampered)[0] == "wrong"
    w[1] = ["nope"] * len(header)  # not a stored row
    assert judged(req, rec, tampered)[0] == "wrong"
    assert ref.check_fd_witness(header, rows, fd["lhs"], fd["rhs"],
                                payload["results"][bad]["witness"]) is None
    assert judged(req, dict(rec, exit=0))[0] == "wrong"


def test_optimize_reference_rejects_wrong_rewrite_and_witness(tmp_path):
    req = first("optimize", lambda r: r["op"] == "optimize" and r["expect"]
                .get("equal") is False, tmp_path, seconds=15)
    rec = answer(req)
    assert run.judge(req, rec) is None
    payload = json.loads(rec["stdout"])

    verified = copy.deepcopy(payload)
    verified["verification"] = {"status": "verified", "witness": None}
    assert judged(req, rec, verified)[0] == "wrong"

    swapped = copy.deepcopy(payload)
    swapped["verification"]["witness"].reverse()
    assert judged(req, rec, swapped)[0] == "wrong"

    unrewritten = copy.deepcopy(payload)
    unrewritten["query"] = json.load(open(req["argv"][3]))
    assert judged(req, rec, unrewritten)[0] == "wrong"


def test_derive_and_closure_references_reject_tampering(tmp_path):
    req = first("refute", lambda r: r["op"] == "derive"
                and r["expect"]["derivable"], tmp_path)
    rec = answer(req)
    assert run.judge(req, rec) is None
    payload = json.loads(rec["stdout"])

    wrong = dict(payload, derivable=False)
    assert judged(req, rec, wrong)[0] == "wrong"
    tree = copy.deepcopy(payload)
    node = tree["derivation"]
    while node["premises"]:
        node = node["premises"][-1]
    node["rule"] = "Axiom"
    node["conclusion"] = "A0 -> A1 A2 A3 A4"
    assert judged(req, rec, tree)[0] == "wrong"

    req = first("refute", lambda r: r["op"] == "closure", tmp_path)
    rec = answer(req)
    assert run.judge(req, rec) is None
    payload = json.loads(rec["stdout"])
    payload["closure"] = payload["closure"][:-1]
    assert judged(req, rec, payload)[0] == "wrong"


def test_counterexample_references_reject_tampered_tables(tmp_path):
    req = first("refute", lambda r: r["op"] == "cex"
                and not r["expect"]["derivable"], tmp_path)
    rec = answer(req)
    assert run.judge(req, rec) is None
    payload = json.loads(rec["stdout"])
    table = payload["witness"]
    one_row = copy.deepcopy(payload)
    one_row["witness"]["rows"] = table["rows"][:1]  # satisfies every FD
    assert judged(req, rec, one_row)[0] == "wrong"
    assert judged(req, rec, {"witness": None})[0] == "wrong"

    req = first("refute", lambda r: r["op"] == "two_tuple_witness"
                and not r["expect"]["derivable"], tmp_path)
    rec = {"raised": None, "result": copy.deepcopy(table)}
    rec["result"]["rows"] = table["rows"][:1]
    assert run.judge(req, rec)[0] == "wrong"


def test_law_references_reject_tampered_witnesses():
    from relfd import rel, search
    for law in workloads.CORRUPTED_LAWS:
        req = {"op": "search_law", "expect": {"law": law}, "call": {}}
        witness = search.search_law(law, search.Scope(max_carrier=3))
        found = {k: rel.rel_to_json(r) for k, r in witness.items()}
        assert run.judge(req, {"raised": None, "result": found}) is None
        emptied = copy.deepcopy(found)
        for name, obj in emptied.items():
            if name not in ref.FUNCTION_VARIABLES:
                obj["pairs"] = []
        assert run.judge(req, {"raised": None, "result": emptied})[0] \
            == "wrong"
        assert run.judge(req, {"raised": None, "result": None})[0] == "wrong"
    laws = {"op": "laws", "argv": ["laws"], "expect": {"exit": 0}}
    payload = {"laws": [{"law": law, "refuted": False, "witness": None}
                        for law in workloads.SOUND_LAWS]}
    assert judged(laws, {"raised": None, "exit": 0}, payload) is None
    payload["laws"][3]["refuted"] = True
    assert judged(laws, {"raised": None, "exit": 0}, payload)[0] == "wrong"


def test_end_to_end_scales_each_requests_faster_pass():
    def plain(times, rss):
        return {"records": [{"id": i, "s": s} for i, s in enumerate(times)],
                "setup_samples_s": [0.2], "speed_samples_s": [0.5],
                "peak_rss_mb": rss}

    passes = [plain([1.0, 2.5, 3.0], 50.0), plain([1.5, 2.0, 3.5], 60.0)]
    failure = {"id": 2, "op": "check", "input": "valid", "kind": "raised",
               "cause": "raised KeyError"}
    graded = run.combine([{"attempted": 3, "failures": [failure]},
                          {"attempted": 3, "failures": [failure]}])
    assert run.speed_factor(passes) == pytest.approx(run.SPEED_REF_S / 0.5)
    m = {k: v["value"] for k, v in
         run.end_to_end(passes, graded, 0.5).items()}
    assert m["verdict_p50_s"] == pytest.approx(1.0)  # symmetric weights
    assert m["setup_s"] == pytest.approx(0.1)
    assert m["verdicts_per_s"] == pytest.approx(2 / 3.0)  # 2 failed once
    assert m["error_rate"] == (2 + 1) / (6 + 1)
    assert m["peak_rss_mb"] == 60.0


def test_quantile_is_the_harrell_davis_estimate():
    values = [0.3, 1.0, 0.2, 5.0, 0.7, 2.0, 0.1, 0.4]
    # the same estimate from the Beta CDF in closed form, as the incomplete
    # beta function of integer parameters: p = 1/3 and n = 8 give a = 3,
    # b = 6, and I_x(3, 6) = P(Binomial(8, x) >= 3)
    def cdf(x):
        return sum(math.comb(8, k) * x ** k * (1 - x) ** (8 - k)
                   for k in range(3, 9))
    want = sum((cdf((i + 1) / 8) - cdf(i / 8)) * v
               for i, v in enumerate(sorted(values)))
    assert run.quantile(values, 1 / 3) == pytest.approx(want, rel=1e-6)
    assert run.quantile([0.5] * 20, 0.9) == pytest.approx(0.5)


def test_a_raise_is_a_failure_not_a_wrong_answer():
    req = {"op": "optimize", "argv": ["optimize"], "expect": {"exit": 2}}
    rec = {"raised": "KeyError: 'arg'", "exit": None, "stdout": ""}
    assert run.judge(req, rec) == ("raised", "raised KeyError")


# ---------------------------------------------------------------------------
# Tracing and whole runs


def test_tracer_wraps_every_binding_site():
    from relfd import fd, infer, laws, query, search, tables
    t = tracer.Tracer()
    t.install()
    try:
        copies = [(fd, "pid"), (fd, "proj_fn"), (infer, "satisfies_oracle"),
                  (infer, "satisfies_typed"), (infer, "enumerate_tables"),
                  (search, "satisfies_oracle"), (search, "attr_closure"),
                  (search, "enumerate_tables"), (query, "derive"),
                  (laws, "satisfies_typed"), (laws, "mutual_dependency"),
                  (tables, "load_table")]
        for mod, name in copies:
            assert hasattr(getattr(mod, name), "__wrapped__"), name
        assert fd.pid is tables.pid
        assert hasattr(laws.LAW_REGISTRY["fd_trading"].sweep, "__wrapped__")
        assert laws.LAW_REGISTRY["fd_trading"].sweep is not None
    finally:
        t.uninstall()
    assert not hasattr(fd.pid, "__wrapped__")
    assert not hasattr(laws.LAW_REGISTRY["fd_trading"].sweep, "__wrapped__")


def test_self_time_subtracts_children():
    t = tracer.Tracer()

    def leaf():
        return sum(range(20000))

    traced_leaf = t.wrap(leaf, "rel.leaf")
    outer = t.wrap(lambda: traced_leaf() + traced_leaf(), "cli.outer")
    outer()
    meta = {"names": t.names, "columns": [t.span_name, t.span_start,
                                          t.span_end, t.span_parent,
                                          t.span_request]}
    own = tracer.self_times(meta)
    total = t.span_end[0] - t.span_start[0]
    assert 0 < own["cli.outer"] < total
    assert abs(own["cli.outer"] + own["rel.leaf"] - total) < 1e-9
    assert list(t.span_parent) == [-1, 0, 0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_runs_print_every_metric(name):
    s = spec()
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        done = bench("--workload", name, "--seed", "1", "--seconds", "2",
                     "--trace", trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in s[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted
        info = json.loads(lines[-2])["run"]
        assert info["environment"]["blas_threads"] == 1
        if trace == "1":
            for layer in HEAVY[name]:
                assert result["metrics"][f"{layer}.self_s"]["value"] > 0, \
                    layer
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "check", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
