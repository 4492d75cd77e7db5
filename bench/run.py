"""relfd benchmark: one command per workload run.

    python3 bench/run.py --workload check|optimize|refute --seed N \
        --seconds S --trace 0|1

Generates the workload's inputs from the seed, runs them through relfd as a
closed loop with one client, PASSES times, each pass in a fresh process,
checks every answer against a known answer relfd did not compute, and prints
the metrics.  A request's time is its fastest pass, scaled to a reference
machine speed by the run's speed probes.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 one plain
pass and one traced pass run the same inputs and the metrics are the
per-layer ones.
The line before it describes the run: environment, input sizes, the reason
the workload exists, and every failed request with its cause.

Must run from a checkout that holds src/relfd, tests/fixtures and
BENCHMARK.json (whose `per_layer` list names the traced metrics); exits 2
without a result otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_TIMEOUT_S = 170  # all workers of a run together
# Plain passes per run.  The passes run one after the other, each in a fresh
# process so that every pass starts from the same empty caches, and a
# request's time is the fastest of its passes: a request slowed by another
# tenant of a shared machine in one pass reads its own time in another.
PASSES = 2
# Near the speed probe's time (bench/probe.py) on a quiet 2-vCPU machine.  A
# run's times are multiplied by SPEED_REF_S over the median of its probes, so
# they read as on that machine: a shared host whose speed drifts by a third
# from one minute to the next moves the probe with relfd and cancels out,
# while a change to relfd moves relfd only.
SPEED_REF_S = 0.25


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workdir: str, mode: str, out: str, deadline: float) -> dict:
    """Run one worker pass; a pass still running at `deadline` is killed
    and the run ends without a result."""
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workdir,
                    mode, out], env=child_env(), check=True,
                   stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(os.path.join(workdir, out), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Answer checks


def _fds(expect):
    return [(frozenset(a), frozenset(b)) for a, b in expect["fds"]]


def judge(req: dict, rec: dict) -> tuple[str, str] | None:
    """(kind, cause) of a failed request, or None when it is answered right.

    kind is "raised" when relfd raised instead of answering and "wrong"
    when it answered with a wrong exit code, verdict or witness."""
    if rec["raised"] is not None:
        return "raised", "raised " + rec["raised"].split(":")[0]
    expect = req["expect"]
    if "argv" in req:
        if rec["exit"] != expect["exit"]:
            return "wrong", f"exit {rec['exit']}, expected {expect['exit']}"
        if expect["exit"] == 2:
            return None
        payload = json.loads(rec["stdout"])
    else:
        payload = rec["result"]
    op = req["op"]
    reason = None
    if op == "check":
        header, rows = ref.read_csv(expect["table"])
        reason = ref.check_table_verdicts(header, rows, expect["fds"], payload)
    elif op == "optimize":
        header, rows = ref.read_csv(expect["table"])
        reason = ref.check_optimize(expect, header, rows, payload)
    elif op == "closure":
        if sorted(payload["closure"]) != expect["closure"]:
            reason = "wrong closure"
    elif op == "derive":
        goal = ref.parse_fd(expect["goal"])
        if payload["derivable"] is not expect["derivable"]:
            reason = "wrong derivability"
        elif expect["derivable"]:
            reason = ref.check_derivation(payload["derivation"],
                                          _fds(expect), goal)
    elif op in ("cex", "two_tuple_witness"):
        table = payload["witness"] if op == "cex" else payload
        goal = ref.parse_fd(expect["goal"])
        if expect["derivable"]:
            reason = None if table is None else "witness for a derivable goal"
        else:
            reason = ref.check_counter_table(table, _fds(expect), goal)
    elif op == "laws":
        got = {r["law"]: r["refuted"] for r in payload["laws"]}
        if not set(workloads.SOUND_LAWS) <= set(got):
            reason = "a sound law is missing from the suite"
        elif any(got.values()):
            reason = "a sound law was refuted"
    elif op == "search_law":
        reason = ref.check_law_witness(expect["law"], payload)
    return ("wrong", reason) if reason else None


def grade(requests: list[dict], run: dict) -> dict:
    by_id = {r["id"]: r for r in requests}
    failures = []
    for rec in run["records"]:
        req = by_id[rec["id"]]
        try:
            verdict = judge(req, rec)
        except (ValueError, KeyError, TypeError) as err:  # unparseable output
            verdict = ("wrong", f"malformed output: {type(err).__name__}")
        if verdict:
            failures.append({"id": rec["id"], "op": req["op"],
                             "input": req.get("malformed", "valid"),
                             "kind": verdict[0], "cause": verdict[1]})
    attempted = len(run["records"])
    return {"attempted": attempted, "failures": failures,
            "correct_answers": attempted - len(failures),
            "exit_mismatch": sum(1 for f in failures
                                 if f["cause"].startswith(("exit", "raised"))
                                 and "argv" in by_id[f["id"]])}


def failure_summary(failures: list[dict]) -> list[dict]:
    groups: dict = {}
    for f in failures:
        key = (f["op"], f["input"], f["kind"], f["cause"])
        groups.setdefault(key, []).append(f["id"])
    return [{"op": k[0], "input": k[1], "kind": k[2], "cause": k[3],
             "count": len(ids), "ids": ids[:10]}
            for k, ids in sorted(groups.items())]


# ---------------------------------------------------------------------------
# Metrics


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 requests beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n))) if n else 50


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, each weighted by the mass a Beta(p(n+1), (1-p)(n+1))
    density puts on its slot ((i-1)/n, i/n).  Unlike a single order
    statistic it does not jump when one request near the quantile crosses
    its neighbour, so it repeats far better from run to run."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16  # Simpson's rule on each slot; the weights are normalised
    xs = [k / (n * steps) for k in range(1, n * steps)]
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in xs]
    top = max(logs)
    density = [0.0] + [math.exp(v - top) for v in logs] + [0.0]
    weights = [sum(density[i * steps + k] * (1 if k in (0, steps)
                                             else 4 if k % 2 else 2)
                   for k in range(steps + 1)) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def combine(gradeds: list[dict]) -> dict:
    """One grade for several passes over the same requests: every request
    sent counts as attempted, every failed one as failed."""
    return {"attempted": sum(g["attempted"] for g in gradeds),
            "failures": [f for g in gradeds for f in g["failures"]]}


def speed_factor(runs: list[dict]) -> float:
    """SPEED_REF_S over the median time of the run's speed probes."""
    return SPEED_REF_S / statistics.median(
        s for run in runs for s in run["speed_samples_s"])


def end_to_end(runs: list[dict], graded: dict, factor: float) -> dict:
    """Metrics of the plain passes; a request's time is its fastest pass,
    and every time is multiplied by `factor`."""
    times = [factor * min(r["s"] for r in recs)
             for recs in zip(*(run["records"] for run in runs))]
    right = len(times) - len({f["id"] for f in graded["failures"]})
    setup = [factor * s for run in runs for s in run["setup_samples_s"]]
    n = graded["attempted"]
    failed = len(graded["failures"])
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_p50_s": (quantile(times, 0.5), "s"),
        "verdict_tail_s": (quantile(times,
                                    tail_percentile(len(times)) / 100), "s"),
        # requests answered right in every pass, over their summed times
        "verdicts_per_s": (right / sum(times), "1/s"),
        # add-one estimate of the failure probability: never 0, and one
        # more failure always moves it
        "error_rate": ((failed + 1) / (n + 1), "ratio"),
        "peak_rss_mb": (max(run["peak_rss_mb"] for run in runs), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "clients": 1, "loop": "closed", "passes": PASSES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (os.path.join("src", "relfd", "cli.py"), workloads.FIXTURES,
                 "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from a relfd "
                  f"checkout", file=sys.stderr)
            return 2
    os.environ.update({v: str(BLAS_THREADS) for v in THREAD_VARS})

    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        requests, inputs = workloads.generate(args.workload, args.seed,
                                              args.seconds / PASSES, workdir,
                                              ROOT)
        raw_rows = inputs.pop("raw_rows")
        with open(os.path.join(workdir, "requests.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"requests": requests, "raw_rows": raw_rows}, fh)
        plains = [run_worker(workdir, "plain", f"plain{k}.json", deadline)
                  for k in range(1 if args.trace else PASSES)]
        per_pass = [grade(requests, plain) for plain in plains]
        graded = combine(per_pass)
        wrong = any(f["kind"] == "wrong" for f in graded["failures"])
        info = {"workload": args.workload, "seed": args.seed,
                **workloads.WORKLOADS[args.workload], "inputs": inputs,
                "tail_percentile": tail_percentile(len(requests)),
                "environment": environment()}
        if args.trace:
            traced = run_worker(workdir, "trace", "trace.json", deadline)
            traced_graded = grade(requests, traced)
            wrong = wrong or any(f["kind"] == "wrong"
                                 for f in traced_graded["failures"])
            overhead = ((per_pass[0]["correct_answers"] / plains[0]["loop_s"])
                        / (traced_graded["correct_answers"] / traced["loop_s"])
                        - 1)
            with open(os.path.join(ROOT, "BENCHMARK.json"),
                      encoding="utf-8") as fh:
                wanted = json.load(fh)["per_layer"]
            metrics = tracer.layer_metrics(tracer.load(workdir),
                                           traced_graded["exit_mismatch"],
                                           overhead, wanted)
            graded = traced_graded
        else:
            factor = speed_factor(plains)
            metrics = end_to_end(plains, graded, factor)
            info["wall_clock"] = {k: v["value"] for k, v in
                                  end_to_end(plains, graded, 1.0).items()}
            info["speed_factor"] = factor
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # others may still be running
            os.rmdir(os.path.dirname(workdir))

    failures = graded["failures"]
    info["failures"] = failure_summary(failures)
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": graded["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
