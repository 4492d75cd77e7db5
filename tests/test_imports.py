"""Start-up: numpy and the law sweeps load only when a law is asked for.

The law registry (`relfd.laws`) and its bitset tables (`relfd.bitrel`) are
the only numpy users, so importing the CLI and running any command but
`laws` must leave all three unloaded.  Each call runs in a fresh
interpreter, since this test process has loaded them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relfd
from relfd import search
from relfd.errors import UnknownLawError

from test_golden import CALLS

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("numpy", "relfd.laws", "relfd.bitrel")
PROBE = f"""
import contextlib, io, json, sys
from relfd import cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))
"""


def loaded_after(argv: list[str]) -> list[str]:
    """The lazy modules loaded by a fresh interpreter after
    `import relfd.cli` and, for a non-empty argv, `cli.main(argv)`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("call", [None, "check_pilots", "closure_pilots",
                                  "derive_pilots", "cex_pilots",
                                  "optimize_movies"])
def test_commands_but_laws_start_without_numpy(call):
    assert loaded_after(CALLS[call] if call else []) == []


def test_laws_command_loads_the_law_sweeps():
    assert loaded_after(["laws", "--scope-carrier", "1"]) == list(LAZY)


def test_public_law_names_resolve_on_access():
    from relfd import LAW_REGISTRY, LAW_SUITE, Scope, search_tables
    import relfd.laws
    assert relfd.LAW_REGISTRY is relfd.laws.LAW_REGISTRY is LAW_REGISTRY
    assert LAW_SUITE is relfd.laws.LAW_SUITE
    assert search_tables is search.search_tables and Scope is search.Scope
    with pytest.raises(AttributeError, match="no_such_name"):
        relfd.no_such_name


def test_unknown_law_lists_every_known_law():
    with pytest.raises(UnknownLawError) as err:
        search.get_law("nope")
    assert str(err.value) == ("unknown law 'nope'; known: "
                              + ", ".join(sorted(relfd.LAW_REGISTRY)))
