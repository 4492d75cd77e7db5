"""Fuzz the CLI exit contract of `closure`, `derive` and `cex`.

Every input ends in exit code 0, 1 or 2 with no traceback: malformed FD
files, attribute lists and goals, and scopes up to 10**20.  Generated
scopes stay cheap: few attributes and small domains, or past the cap.
"""

import contextlib
import io

import pytest
from hypothesis import given, seed, settings, strategies as st

from relfd.cli import main

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
# small enough to enumerate, or large enough to pass the cap at once
SMALL = st.integers(1, 3).map(str)
SCOPE = st.one_of(SMALL, SMALL, SMALL, st.sampled_from(["0", "-1"]),
                  st.integers(10 ** 7, 10 ** 20).map(str),
                  st.sampled_from([str(10 ** 20), "", "x", "2.5", " 3"]))
COMMAND = st.one_of(
    st.tuples(st.just("closure"), st.just("--attrs"), ATTRS),
    st.tuples(st.just("derive"), st.just("--goal"), GOAL),
    st.tuples(st.just("cex"), st.just("--goal"), GOAL,
              st.just("--scope-rows"), SCOPE, st.just("--scope-dom"), SCOPE))


@pytest.fixture(scope="module")
def fd_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.fds"


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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse usage errors
            code = exit_.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
