"""One closed-loop pass over a run's requests, in a fresh process.

    python3 bench/worker.py WORKDIR plain|trace OUT

Reads WORKDIR/requests.json, times `import relfd.cli`, then sends every
request one at a time: the next starts only after the previous returned.
CLI requests go through `relfd.cli.main(argv)` with stdout and stderr
captured; the two direct calls go to `relfd.search`.  Writes the outputs and
timings to WORKDIR/OUT, and with `trace` the spans to WORKDIR as well.

In `plain` mode the worker also runs `probe.py` in IMPORT_SAMPLES - 1
fresh interpreters, one every few requests and outside the timed calls, so
that the set-up and machine-speed samples spread over the whole pass rather
than falling into one phase of a machine whose speed drifts.

Between requests, outside the timed calls, the worker collects garbage and
freezes what survives (`gc.freeze`), so a collection inside a request scans
only that request's objects, as in one CLI invocation.  Without it, a full
collection over every earlier request's cached relations lands on whichever
request happens to trigger it, and adds up to a second to it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter

IMPORT_SAMPLES = 8  # the worker's own import and 7 fresh interpreters
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


def probe() -> tuple[float, float]:
    """`import relfd.cli` and the machine-speed probe in a fresh
    interpreter, each timed inside it."""
    done = subprocess.run([sys.executable, PROBE], check=True,
                          capture_output=True, text=True, timeout=60)
    import_s, speed_s = map(float, done.stdout.split())
    return import_s, speed_s


def main() -> int:
    workdir, mode, out_name = sys.argv[1:4]
    start = time.perf_counter()
    import relfd.cli as cli
    setup = [time.perf_counter() - start]
    speed = []
    from relfd import fd, rel, search, tables

    with open(os.path.join(workdir, "requests.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    requests = spec["requests"]

    def call(req):
        if "argv" in req:
            argv = req["argv"]
            return lambda: cli.main(argv)
        args = req["call"]
        if req["op"] == "search_law":
            return lambda: search.search_law(
                args["law"], search.Scope(max_carrier=args["carrier"]))
        with open(args["fds"], encoding="utf-8") as fh:
            fds = fd.parse_fd_lines(fh.read())
        goal = fd.parse_fd(args["goal"])
        return lambda: search.two_tuple_witness(fds, goal)

    calls = [call(r) for r in requests]
    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer(spec["raw_rows"])
        tracer.install()

    n = len(requests)
    sample_at = Counter() if mode == "trace" else Counter(
        i * n // (IMPORT_SAMPLES - 1) for i in range(IMPORT_SAMPLES - 1))
    records = []
    values = []
    loop_s = 0.0
    for i, (req, fn) in enumerate(zip(requests, calls)):
        for _ in range(sample_at[i]):
            import_s, speed_s = probe()
            setup.append(import_s)
            speed.append(speed_s)
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.request = req["id"]
        out, err = io.StringIO(), io.StringIO()
        code = value = exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                value = fn()
            except SystemExit as e:
                value = e.code
            except Exception as e:  # a raise is a failed request, recorded
                exc = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
        if "argv" in req and exc is None:
            code = value
        records.append({"id": req["id"], "s": dt, "exit": code, "raised": exc,
                        "stdout": out.getvalue()})
        values.append(value)
        loop_s += dt
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(workdir)
    for req, rec, value in zip(requests, records, values):
        if "call" in req and rec["raised"] is None:
            rec["result"] = (None if value is None
                             else tables.table_to_json(value)
                             if req["op"] == "two_tuple_witness"
                             else {k: rel.rel_to_json(r)
                                   for k, r in value.items()})

    with open(os.path.join(workdir, out_name), "w", encoding="utf-8") as fh:
        json.dump({"setup_samples_s": setup, "speed_samples_s": speed,
                   "loop_s": loop_s,
                   "peak_rss_mb": peak_rss_mb, "records": records}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
