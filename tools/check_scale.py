"""Scale probe of `relfd check`: wall time per stage and peak RSS.

    python3 tools/check_scale.py --rows 100000 [--check-only]

Writes a table of 6 attributes (A-F), drawn with the fixed seed `SEED`,
and a file of 4 FDs, two that hold and, from a few thousand rows on, two
that the table refutes.
Then it times the stages of `relfd check` one by one: `load_table`,
`stored_order`, the column encoding, and each of the three routes summed
over the FDs.  Last it times `relfd check` itself through `cli.main`, in
the same process, and prints its exit code and the SHA-256 of its stdout,
so two versions of relfd can be compared on the same table.  Each line is
a stage, its seconds and the peak resident set size (`VmHWM`) so far; the
table is written before the first stage, so every RSS figure includes
that.  `--check-only` times `check` alone, which every version of the CLI
runs.  Peak RSS was 155 MB at 10^5 rows and grows with the rows, so
check the host's free memory before a run at 10^6.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from relfd import cli, fd, tables  # noqa: E402

SEED = 0
NAMES = "ABCDEF"
# A -> B and B C -> D hold by construction; C -> E and E F -> A fail once
# rows repeat C, or E and F, since A, E and F are drawn independently
FDS = "A -> B\nB C -> D\nC -> E\nE F -> A\n"


def write_table(path: str, rows: int) -> None:
    """`rows` CSV rows over A-F, B a function of A and D one of B and C."""
    rnd = random.Random(SEED)
    b_of = [rnd.randrange(50) for _ in range(rows // 10 + 1)]
    lines = [",".join(NAMES)]
    for _ in range(rows):
        a, c = rnd.randrange(len(b_of)), rnd.randrange(20)
        b = b_of[a]
        lines.append(f"a{a},b{b},c{c},d{(7 * b + c) % 97},"
                     f"e{rnd.randrange(1000)},f{rnd.randrange(100)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def peak_rss_mb() -> float:
    """The process's `VmHWM`, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return float("nan")


def run_check(table: str, fds: str) -> tuple[int, str]:
    """`relfd check`'s exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--table", table, "--fds", fds])
    return code, out.getvalue()


def stages(table: str, fds: str):
    """Yield (stage, seconds) for each stage before `check`; the verdicts
    of the three routes, one list per route, come last as ("verdicts",
    {route: [verdict per FD]})."""
    clock = time.perf_counter
    t0 = clock()
    t = tables.load_table(table)
    yield "load_table", clock() - t0
    t0 = clock()
    rows = fd.stored_order(t.rows)
    yield "stored_order", clock() - t0
    t0 = clock()
    stored, columns = fd.encode_columns(rows, len(t.scheme.names))
    yield "encode_columns", clock() - t0
    at = [fd.fd_positions(t.scheme, item)
          for item in fd.parse_fd_lines(tables.read_text(fds))]
    verdicts = {}
    for route, call in (
            ("scan_violation",
             lambda xs, ys: fd.scan_violation(rows, xs, ys) is None),
            ("satisfies_shunted",
             lambda xs, ys: fd.satisfies_shunted(stored, columns, xs, ys)),
            ("satisfies_refinement",
             lambda xs, ys: fd.satisfies_refinement(rows, xs, ys))):
        t0 = clock()
        verdicts[route] = [call(*p) for p in at]
        yield route, clock() - t0
    yield "verdicts", verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--check-only", action="store_true")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        table, fds = os.path.join(tmp, "t.csv"), os.path.join(tmp, "t.fds")
        write_table(table, args.rows)
        with open(fds, "w", encoding="utf-8") as fh:
            fh.write(FDS)
        print(f"rows {args.rows} seed {SEED}")
        if not args.check_only:
            for stage, value in stages(table, fds):
                if stage == "verdicts":
                    for route, verdict in value.items():
                        print(f"  {route} verdicts {verdict}")
                else:
                    print(f"{stage:22s} {value:8.3f} s  "
                          f"{peak_rss_mb():7.1f} MB")
        t0 = time.perf_counter()
        code, out = run_check(table, fds)
        dt = time.perf_counter() - t0
        print(f"{'check':22s} {dt:8.3f} s  {peak_rss_mb():7.1f} MB  exit "
              f"{code} stdout {hashlib.sha256(out.encode()).hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
