"""The README's check tables must agree with the one check mapping in
``polyfr.cli``: same keys, same tolerances; and its config example must be
a config ``polyfr.cli`` accepts."""

import json
from pathlib import Path

from polyfr import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _table(heading: str) -> list[list[str]]:
    """Body rows of the first markdown table after ``heading``, as cells."""
    lines = README.split(heading, 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _tol(cell: str):
    return None if cell == "reported" else float(cell)


def test_report_defect_table_matches_mapping():
    rows = _table("### Report defect keys")
    documented = {key: _tol(tol) for key, _, tol in rows}
    assert [key for key, _, _ in rows] == list(cli.DEFECT_KEYS)
    assert documented == {key: cli.CHECK_TOLS[key] for key in cli.DEFECT_KEYS}


def test_verify_check_table_matches_mapping():
    documented = {(suite, check): _tol(tol) for suite, check, tol, _ in _table("### Verify checks")}
    expected = {}
    for suite, names in cli.SUITE_CHECKS.items():
        for name in names:
            key, bracket, _ = name.partition("[")
            check = f"{key}[variant]" if bracket else key
            expected[(suite, check)] = cli.CHECK_TOLS[key]
    assert documented == expected


def test_config_example_loads(tmp_path):
    # the example would fail on any key the config format does not know
    block = README.split("### Config format", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = json.loads(block)
    cfg["mesh"] = str(ROOT / "cases" / "tri_32.mesh.json")
    path = tmp_path / "example.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    loaded = cli.load_config(path)
    assert {key: loaded[key] for key in cfg} == cfg
