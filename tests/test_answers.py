"""Every answer of the benchmark's requests, pinned.

Seeds 4242, 7 and 91 of the three workloads (`bench/workloads.generate`,
30 s passes) are generated into a temporary directory, and each request is
run in this process as `bench/worker.py` runs it: a CLI request through
`relfd.cli.main` and a direct call through `relfd.search`.  What it
answers (its exit code, or the JSON form of its result, or the error it
raised), its stdout and its stderr are hashed to a short digest, and
`fixtures/golden/answers.json` holds the digest of every request, keyed
``workload/seed/id``.  No answer names the temporary directory, so the
digests hold wherever it is.  A change that alters any answer is a deliberate
edit, to be logged with the change.  Regenerate the digests with

    PYTHONPATH=src python tests/test_answers.py --regenerate
"""

import contextlib
import gc
import hashlib
import io
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

from relfd import cli, fd, rel, search, tables  # noqa: E402

ANSWERS = Path(__file__).parent / "fixtures" / "golden" / "answers.json"
SEEDS = (4242, 7, 91)


def _answer(req: dict):
    """The request's answer, as `bench/worker.py` records it."""
    if "argv" in req:
        try:
            return cli.main(req["argv"])
        except SystemExit as e:
            return e.code
    args = req["call"]
    if req["op"] == "search_law":
        found = search.search_law(args["law"],
                                  search.Scope(max_carrier=args["carrier"]))
        return None if found is None else {k: rel.rel_to_json(r)
                                           for k, r in found.items()}
    with open(args["fds"], encoding="utf-8") as fh:
        fds = fd.parse_fd_lines(fh.read())
    found = search.two_tuple_witness(fds, fd.parse_fd(args["goal"]))
    return None if found is None else tables.table_to_json(found)


def _digest(req: dict) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            answer = _answer(req)
        except Exception as e:  # a raise is a failed request, pinned too
            answer = f"{type(e).__name__}: {e}"
    text = json.dumps([answer, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def answers(base: Path) -> dict[str, str]:
    """The digest of every request of every workload and seed, generated
    under `base`."""
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            requests, _ = workloads.generate(name, seed, 30,
                                             str(base / f"{name}-{seed}"),
                                             root=str(ROOT))
            for req in requests:
                digests[f"{name}/{seed}/{req['id']}"] = _digest(req)
    return digests


def test_repeated_requests_keep_no_more_memory(tmp_path):
    # the `optimize` CLI records of seed 4242, run three times in this
    # process: after `gc.collect()`, the third pass keeps at most a small
    # slack more traced memory than the second, so a long-lived process
    # pins nothing per request (keeping each table a request loads, with
    # what its scheme keeps, adds about 2.6 MiB a pass)
    requests, _ = workloads.generate("optimize", 4242, 30, str(tmp_path),
                                     root=str(ROOT))
    requests = [req for req in requests if "argv" in req]
    kept = []
    tracemalloc.start()
    try:
        for _ in range(3):
            for req in requests:
                _digest(req)
            gc.collect()
            kept.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert kept[2] - kept[1] < 0.05 * 2 ** 20, kept


def test_every_answer_matches_its_digest(tmp_path):
    want = json.loads(ANSWERS.read_text(encoding="utf-8"))
    got = answers(tmp_path)
    assert sorted(got) == sorted(want)
    changed = sorted(k for k in got if got[k] != want[k])
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as base:
        ANSWERS.write_text(json.dumps(answers(Path(base)), indent=0,
                                      sort_keys=True) + "\n",
                           encoding="utf-8")
