"""The CLI's argparse parser, built from the flag table of `relfd.cli`.

`relfd.cli.main` reads a plain argv itself (`_plain_args`), so a request
loads this module, and argparse with it, only for any other argv.  This
parser then reads it, or prints the usage, the help or the usage error.
"""

from __future__ import annotations

import argparse

from .cli import COMMANDS, FLAGS, REQUIRED


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS` and `FLAGS`."""
    parser = argparse.ArgumentParser(
        prog="relfd",
        description="Finite relation algebra toolkit for functional "
                    "dependencies: check tables, infer and refute "
                    "dependencies, and optimize queries.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, default in flags.items():
            kind, help_ = FLAGS[flag]
            if default is REQUIRED:
                p.add_argument(flag, type=kind, required=True, help=help_)
            else:
                p.add_argument(flag, type=kind, default=default, help=help_)
        p.add_argument("--json", action="store_true", dest="json_output",
                       help="machine-readable output")
    return parser
