"""The README's check tables must agree with the one check mapping in
``polyfr.cli``: same keys, same tolerances; its config example must be a
config ``polyfr.cli`` accepts; and the library names it cites must exist."""

import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

import polyfr
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


def _resolve(path: str):
    """The object a dotted ``polyfr.`` path names, importing submodules on
    the way; raises AttributeError or ImportError if there is none."""
    obj = polyfr
    for part in path.split(".")[1:]:
        if inspect.ismodule(obj) and not hasattr(obj, part):
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


def test_readme_library_names_resolve():
    # every backticked dotted name that starts at polyfr or at a name polyfr
    # exports: class attributes, dataclass fields, and the attributes of a
    # built Discretization count
    exported = {name: obj for name, obj in vars(polyfr).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    disc = polyfr.Discretization(polyfr.load_mesh(ROOT / "cases" / "tri_2.mesh.json"), 1)
    missing = []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README))):
        head, attr = name.split(".", 1)
        if head == "polyfr":
            try:
                _resolve(name)
            except (AttributeError, ImportError):
                missing.append(name)
        elif head in exported:
            owner = exported[head]
            fields = {f.name for f in dataclasses.fields(owner)} if (
                dataclasses.is_dataclass(owner)) else set()
            if not (hasattr(owner, attr) or attr in fields
                    or (owner is polyfr.Discretization and hasattr(disc, attr))):
                missing.append(name)
    assert not missing, missing
