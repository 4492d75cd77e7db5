"""Smoke test of the scale probe `tools/check_scale.py` on a small table."""

import importlib.util
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "tools" / "check_scale.py"
ROUTES = ("scan_violation", "satisfies_shunted", "satisfies_refinement")


def _probe():
    spec = importlib.util.spec_from_file_location("check_scale", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _one_pass_verdicts(csv_text: str, fds: str) -> list[bool]:
    """Each FD's verdict by one pass over the CSV rows with a dict from
    antecedent values to the first consequent values seen with them."""
    header, *lines = csv_text.splitlines()
    names = header.split(",")
    rows = [line.split(",") for line in lines]
    verdicts = []
    for fd in fds.splitlines():
        left, right = fd.split("->")
        xs = [names.index(a) for a in left.split()]
        ys = [names.index(a) for a in right.split()]
        first: dict = {}
        verdicts.append(all(
            first.setdefault(tuple(r[i] for i in xs), tuple(r[i] for i in ys))
            == tuple(r[i] for i in ys) for r in rows))
    return verdicts


def test_probe_routes_agree_with_a_one_pass_check(tmp_path):
    probe = _probe()
    table, fds = tmp_path / "t.csv", tmp_path / "t.fds"
    probe.write_table(str(table), 2000)
    fds.write_text(probe.FDS, encoding="utf-8")
    want = _one_pass_verdicts(table.read_text(encoding="utf-8"), probe.FDS)
    assert want == [True, True, False, False]
    stages = dict(probe.stages(str(table), str(fds)))
    assert stages.pop("verdicts") == dict.fromkeys(ROUTES, want)
    assert list(stages) == ["load_table", "stored_order", "encode_columns",
                            *ROUTES]
    assert all(seconds >= 0 for seconds in stages.values())


def test_probe_prints_each_stage_and_the_check(capsys):
    assert _probe().main(["--rows", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rows 2000 seed 0"
    assert [line.split()[0] for line in lines if "verdicts" not in line][1:] \
        == ["load_table", "stored_order", "encode_columns", *ROUTES, "check"]
    assert lines[-1].split()[5:7] == ["exit", "1"]
