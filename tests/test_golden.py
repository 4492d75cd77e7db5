"""Golden CLI outputs: stdout and exit code of 30 in-process calls over the
fixtures, compared byte for byte.

`fixtures/golden/` holds one `<call>.stdout` file per call and
`exit_codes.json`.  They pin what the CLI prints, so a change that alters
any of them is a deliberate edit, to be logged with the change.  Regenerate
them with

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from relfd.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


_BASE = {
    **{f"check_{stem}": ["check", "--table", _fixture(f"{stem}.csv"),
                         "--fds", _fixture(f"{stem.split('_')[0]}.fds")]
       for stem in ("movies", "movies_violating", "pilots",
                    "pilots_double_booked")},
    "check_no_fds": ["check", "--table", _fixture("pilots.csv"),
                     "--fds", _fixture("empty.fds")],
    "closure_pilots": ["closure", "--fds", _fixture("pilots.fds"),
                       "--attrs", "Flight,Date"],
    "derive_pilots": ["derive", "--fds", _fixture("pilots.fds"),
                      "--goal", "Flight Date Departs -> Pilot"],
    "derive_underivable": ["derive", "--fds", _fixture("pilots.fds"),
                           "--goal", "Pilot -> Flight"],
    "cex_pilots": ["cex", "--fds", _fixture("pilots.fds"),
                   "--goal", "Pilot -> Flight",
                   "--scope-rows", "3", "--scope-dom", "3"],
    "cex_none": ["cex", "--fds", _fixture("pilots.fds"),
                 "--goal", "Flight Date Departs -> Pilot"],
    **{f"optimize_{stem}": ["optimize", "--query",
                            _fixture("movies_query.json"),
                            "--fds", _fixture("movies.fds"),
                            "--table", _fixture(f"{stem}.csv")]
       for stem in ("movies", "movies_violating")},
    "optimize_untabled": ["optimize", "--query", _fixture("movies_query.json"),
                          "--fds", _fixture("movies.fds")],
    "laws_2": ["laws", "--scope-carrier", "2"],
    "laws_3": ["laws", "--scope-carrier", "3"],
}
CALLS = {**_BASE, **{f"{name}_json": [*argv, "--json"]
                     for name, argv in _BASE.items()}}


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_cli_output_matches_the_golden_files():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert sorted(codes) == sorted(CALLS)
    for name, argv in CALLS.items():
        code, out = run(argv)
        assert code == codes[name], name
        assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes(), name


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CALLS.items():
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
