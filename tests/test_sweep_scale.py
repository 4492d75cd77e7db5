"""Smoke test of the law-layer probe `tools/sweep_scale.py` at carrier 2."""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

from relfd import cli
from relfd.laws import LAW_REGISTRY, LAW_SUITE

PROBE = Path(__file__).resolve().parents[1] / "tools" / "sweep_scale.py"


def _probe():
    spec = importlib.util.spec_from_file_location("sweep_scale", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_prints_each_build_and_law_and_the_laws_digest(capsys):
    assert _probe().main(["--carrier", "2", "--repeat", "1"]) == 0
    first, *lines, last = capsys.readouterr().out.splitlines()
    assert first == "carrier 2 repeat 1"
    builds = [line.split() for line in lines if line.startswith("build ")]
    assert [b[1].split("(")[0] for b in builds] == [
        "compose_table", "fork_kernel_table", "converse_table",
        "kernel_table", "domain_table", "subset_table", "function_masks"]
    verdicts = {fields[1]: fields[-1] for fields in
                (line.split() for line in lines if line.startswith("law "))}
    assert list(verdicts) == list(LAW_REGISTRY)
    assert all(verdicts[law] == "holds" for law in LAW_SUITE)
    assert all(v == "refuted" for law, v in verdicts.items()
               if law not in LAW_SUITE)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["laws", "--json", "--scope-carrier", "2"])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    assert last.split()[-4:] == ["exit", str(code), "stdout", digest]
