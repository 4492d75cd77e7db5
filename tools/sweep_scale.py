"""Scale probe of the law layer: op-table builds and law sweeps, timed and
traced at one carrier bound.

    python3 tools/sweep_scale.py --carrier 3 [--repeat 5]

First it builds each op table of `relfd.bitrel` at every carrier size at
the bound, uncached, and prints the warm best-of-`--repeat` seconds of the
build and its traced peak (`tracemalloc`; the table the build returns is
part of it).  Then it runs `search_law` for each registered law, sound and
corrupted, over every carrier size up to the bound, with the tables already
built, and prints the same two figures, the best time of the law's sweep at
its all-bound size combination alone (every carrier at the bound, with a
memo of its own), and whether the law was refuted.  The search's other
combinations take the rest of its time, which is where the memo of
computed terms that one search shares pays.
Last it runs `relfd laws --json --scope-carrier N` through `cli.main`, in
the same process, and prints its seconds, exit code and the SHA-256 of its
stdout, so two versions of relfd can be compared on the same bound.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from relfd import bitrel as B  # noqa: E402
from relfd import cli  # noqa: E402
from relfd.laws import LAW_REGISTRY  # noqa: E402
from relfd.search import Scope, search_law  # noqa: E402

# (builder, number of carrier sizes it takes)
BUILDS = (("compose_table", 3), ("fork_kernel_table", 3),
          ("converse_table", 2), ("kernel_table", 2), ("domain_table", 2),
          ("subset_table", 2), ("function_masks", 2))


def best_time(call, repeat: int) -> float:
    """call()'s best time over `repeat` runs, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def best_and_peak(call, repeat: int):
    """call()'s best time over `repeat` runs, in seconds, its traced peak
    in MiB on one more run, and that run's result."""
    best = best_time(call, repeat)
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak / 2 ** 20, result


def builds(n: int, repeat: int):
    """Yield (name, seconds, MiB) for each op table at sizes all n, built
    through the uncached function behind its cache."""
    for name, arity in BUILDS:
        sizes = (n,) * arity
        build = getattr(B, name).__wrapped__
        seconds, peak, _ = best_and_peak(lambda: build(*sizes), repeat)
        yield f"{name}{sizes}", seconds, peak


def sweeps(n: int, repeat: int):
    """Yield (law, seconds, all-bound seconds, MiB, refuted) for each
    registered law searched over every carrier size up to n; the first run
    builds its tables."""
    scope = Scope(max_carrier=n)
    for law_id, law in LAW_REGISTRY.items():
        search_law(law_id, scope)
        seconds, peak, witness = best_and_peak(
            lambda: search_law(law_id, scope), repeat)
        top = dict.fromkeys(law.slots(), n)
        yield (law_id, seconds, best_time(lambda: law.sweep(top), repeat),
               peak, witness is not None)


def run_laws(n: int) -> tuple[int, str]:
    """`relfd laws --json --scope-carrier n`'s exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["laws", "--json", "--scope-carrier", str(n)])
    return code, out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--carrier", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    B.check_size(args.carrier)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"carrier {args.carrier} repeat {args.repeat}")
    for name, seconds, peak in builds(args.carrier, args.repeat):
        print(f"build {name:32s} {seconds:9.5f} s  {peak:6.2f} MiB")
    for law_id, seconds, top, peak, refuted in sweeps(args.carrier,
                                                      args.repeat):
        print(f"law   {law_id:32s} {seconds:9.5f} s  all-bound {top:9.5f} s"
              f"  {peak:6.2f} MiB  {'refuted' if refuted else 'holds'}")
    t0 = time.perf_counter()
    code, out = run_laws(args.carrier)
    dt = time.perf_counter() - t0
    print(f"{'laws --json':38s} {dt:9.5f} s  exit {code} stdout "
          f"{hashlib.sha256(out.encode()).hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
