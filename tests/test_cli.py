import json
import math
from pathlib import Path

import numpy as np
import pytest

from polyfr import cli
from polyfr import entropy as en
from polyfr import mesh as pm
from polyfr import residual as rs

CASES = Path(__file__).resolve().parent.parent / "cases"


def _write_case(tmp_path, **overrides):
    pm.save_mesh(pm.structured_triangles(2), tmp_path / "m.json")
    cfg = {
        "case": "test",
        "mesh": "m.json",
        "law": "advection",
        "law_params": {"velocity": [1.0, 0.0]},
        "degree": 1,
        "variant": "fr",
        "flux": "rusanov",
        "solver": {"cfl": 0.8, "max_iters": 4000, "residual_tol": 1e-11},
        "boundary": {"boundary": {"profile": "linear", "a0": 0.0, "ax": 0.0, "ay": 1.0}},
        "exact": {"profile": "linear", "a0": 0.0, "ax": 0.0, "ay": 1.0},
    }
    cfg.update(overrides)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_run_linear_exact_case(tmp_path):
    path = _write_case(tmp_path)
    report = cli.run(path, tmp_path / "out", seed=0)
    level = report["levels"][0]
    assert level["converged"]
    assert level["l2_error"] <= 1e-8
    assert report["orders"] == []  # single level: order column empty
    assert report["converged"]
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "levels.csv").exists()
    assert (tmp_path / "out" / "diagnostics.csv").exists()
    for key in ("eq5", "eq6", "eq21", "eq27", "eq32", "eq44"):
        assert report["defects"][key] <= cli.DEFECT_TOLS[key]


def test_run_refinement_study_orders(tmp_path):
    sine = {"profile": "sine", "amplitude": 1.0, "kx": -math.pi, "ky": 2 * math.pi}
    path = _write_case(
        tmp_path,
        law_params={"velocity": [1.0, 0.5]},
        boundary={"boundary": sine},
        exact=sine,
        solver={"cfl": 0.6, "max_iters": 20000, "residual_tol": 1e-9},
        study={"levels": 3},
    )
    report = cli.run(path, tmp_path / "out", seed=0)
    assert len(report["levels"]) == 3
    assert len(report["orders"]) == 2
    # orders sharpen toward second order under refinement; the mesh here is
    # very coarse (8 -> 128 elements), so only the finer pair is judged
    assert 1.7 <= report["orders"][-1] <= 2.3


def test_invalid_mesh_path_exits_nonzero(tmp_path):
    cfg = {"case": "x", "mesh": "missing.json", "law": "advection", "degree": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = cli.main(["run", str(path)])
    assert rc == 4


def test_malformed_config_reports_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    rc = cli.main(["run", str(path)])
    assert rc == 4
    path.write_text(json.dumps({"law": "advection"}), encoding="utf-8")
    rc = cli.main(["run", str(path)])
    assert rc == 4
    path.write_text(json.dumps(["mesh", "law", "degree"]), encoding="utf-8")  # not an object
    rc = cli.main(["run", str(path)])
    assert rc == 4


def test_unknown_profile_rejected():
    with pytest.raises(cli.ConfigError):
        cli._profile({"profile": "sawtooth"})


@pytest.mark.parametrize("spec,key", [
    ({"profile": "sine", "amplitud": 2.0, "kx": 1.0}, "amplitud"),
    ({"profile": "constant", "valu": 5}, "valu"),
])
def test_misspelt_profile_parameter_named(spec, key):
    # a misspelt parameter used to keep its default silently
    with pytest.raises(cli.ConfigError, match=f"parameter '{key}'"):
        cli._profile(spec)


def test_invariant_violation_exit_code(tmp_path, monkeypatch):
    path = _write_case(tmp_path)

    def broken(*args, **kwargs):
        vals = {k: (0.5 if k not in ("ck_bdk_min",) else None) for k in cli.DEFECT_KEYS}
        return vals, cli.state_checks(*args, **kwargs)

    monkeypatch.setattr(cli, "defect_battery", broken)
    rc = cli.main(["run", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == 3


def test_violation_message_names_the_check(tmp_path, capsys, monkeypatch):
    path = _write_case(tmp_path)

    def broken(*args, **kwargs):
        vals = {k: 0.0 for k in cli.DEFECT_KEYS}
        vals["eq5"] = 3.2e-6
        vals["ck_bdk_min"] = None
        return vals, cli.state_checks(*args, **kwargs)

    monkeypatch.setattr(cli, "defect_battery", broken)
    rc = cli.main(["run", str(path), "--output-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Eq. (5)" in err
    assert "3.2" in err


@pytest.mark.parametrize("suite", cli.SUITES)
def test_verify_suites_pass_on_default_case(tmp_path, suite):
    path = _write_case(tmp_path, law="burgers", law_params={})
    report = cli.verify(path, suite, seed=0, n_draws=10)
    assert report["passed"], report["checks"]


def test_verify_unknown_suite_rejected(tmp_path):
    path = _write_case(tmp_path)
    with pytest.raises(cli.ConfigError):
        cli.verify(path, "everything")


def test_reports_are_bit_identical_between_runs(tmp_path):
    path = _write_case(tmp_path)
    r1 = cli.run(path, tmp_path / "a", seed=7)
    r2 = cli.run(path, tmp_path / "b", seed=7)
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_times_each_level_phase(tmp_path):
    path = _write_case(tmp_path, solver={"max_iters": 50}, study={"levels": 2})
    report = cli.run(path, tmp_path / "out")
    timing = json.loads((tmp_path / "out" / "report.json").read_text())["timing"]
    assert timing == report["timing"]
    phases = ("build_s", "solve_s", "error_s", "battery_s")
    assert len(timing["levels"]) == 2
    for level in timing["levels"]:
        assert set(level) == set(phases)
        assert all(level[key] >= 0.0 for key in phases)
    total = sum(level[key] for level in timing["levels"] for key in phases)
    assert total <= timing["wall_time"]
    # levels.csv stays timing-free, so it is identical from run to run
    header = (tmp_path / "out" / "levels.csv").read_text().splitlines()[0].split(",")
    assert not any(col.endswith("_s") or "time" in col for col in header)


def test_shipped_cases_parse():
    for name in (
        "advection_linear_k1.json",
        "advection_sine_k1.json",
        "burgers_verify.json",
        "burgers_hexagon.json",
    ):
        cfg = cli.load_config(CASES / name)
        assert cli._mesh_path(cfg, CASES / name).exists()


def test_cli_entrypoint_verify(tmp_path, capsys):
    path = _write_case(tmp_path, law="burgers", law_params={})
    rc = cli.main(["verify", str(path), "--suite", "tadmor", "--output-dir",
                   str(tmp_path / "v"), "--draws", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert (tmp_path / "v" / "verify_tadmor.json").exists()


def _edited_shipped_case(tmp_path, name, **overrides):
    cfg = json.loads((CASES / name).read_text(encoding="utf-8"))
    cfg["mesh"] = str(CASES / cfg["mesh"])
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


BAD_CONFIGS = {
    "variant": {"variant": "upwind"},
    "law": {"law": "euler"},
    "flux": {"flux": "roe"},
    "degree": {"degree": 7},
    "fractional-degree": {"degree": 1.5},
    "correction": {"correction": "no-such-backend"},
    "correction-rt": {"correction": "rt"},  # "auto" builds RT wherever it applies
    "negative-levels": {"study": {"levels": -1}},
    "fractional-levels": {"study": {"levels": 1.5}},
    "fractional-max-iters": {"solver": {"max_iters": 2.7}},
    "string-local-dt": {"solver": {"local_dt": "false"}},
    "nan-residual-tol": {"solver": {"residual_tol": float("nan")}},  # json writes NaN
    "negative-jump-coeff": {"solver": {"jump_coeff": -5}},
    "infinite-jump-coeff": {"solver": {"jump_coeff": float("inf")}},
    # quadrature orders: integers at or above the minimal orders (volume k,
    # edge k+1; the case has k = 1)
    "string-edge-order": {"edge_order": "3"},
    "list-edge-order": {"edge_order": [1]},
    "fractional-edge-order": {"edge_order": 1.5},
    "low-edge-order": {"edge_order": 1},
    "string-volume-order": {"volume_order": "4"},
    "boolean-volume-order": {"volume_order": True},
    "zero-volume-order": {"volume_order": 0},
    "negative-volume-order": {"volume_order": -1},
    # analytic profiles: objects naming a known profile, finite numbers only
    "number-initial": {"initial": 3},
    "list-exact": {"exact": [1]},
    "string-boundary-profile": {"boundary": {"boundary": "sine"}},
    "list-boundary": {"boundary": [1]},
    "string-profile-parameter": {"exact": {"profile": "sine", "amplitude": "x"}},
    "list-profile-parameter": {"exact": {"profile": "constant", "value": [1, 2]}},
    "infinite-profile-parameter": {"initial": {"profile": "linear", "ax": float("inf")}},
    "misspelt-profile-parameter": {"exact": {"profile": "sine", "amplitud": 2.0, "kx": 1.0}},
    # solver numbers: finite JSON numbers, not strings or booleans
    "string-cfl": {"solver": {"cfl": "0.5"}},
    "boolean-cfl": {"solver": {"cfl": True}},
    "string-residual-tol": {"solver": {"residual_tol": "1e-9"}},
    "boolean-jump-coeff": {"solver": {"jump_coeff": True}},
    # keys the config format does not know, at every level; the case's law
    # is burgers, which takes no parameters
    "misspelt-top-level-key": {"flx": "central"},
    "misspelt-solver-key": {"solver": {"max_iter": 3}},
    "misspelt-study-key": {"study": {"levls": 2}},
    "misspelt-law-parameter": {"law": "advection", "law_params": {"velocty": [0, 1]}},
    "burgers-law-parameter": {"law_params": {"velocity": [0, 1]}},
    "removed-correction-key": {"correction": "auto"},
    # the transport velocity: exactly two finite JSON numbers, not booleans
    "nan-velocity": {"law": "advection", "law_params": {"velocity": [float("nan"), 0]}},
    "infinite-velocity": {"law": "advection", "law_params": {"velocity": [float("inf"), 0]}},
    "boolean-velocity": {"law": "advection", "law_params": {"velocity": [True, 0]}},
    "three-component-velocity": {"law": "advection", "law_params": {"velocity": [1, 0, 5]}},
    "number-velocity": {"law": "advection", "law_params": {"velocity": 1.0}},
    "string-exp-advection-velocity": {"law": "exp-advection",
                                      "law_params": {"velocity": ["1", 0]}},
    # values of the wrong JSON type
    "list-law-params": {"law": "advection", "law_params": ["velocity"]},
    "number-mesh": {"mesh": 5},
    "null-mesh": {"mesh": None},
    "list-profile-name": {"boundary": {"boundary": {"profile": ["sine"]}}},
    "object-profile-name": {"exact": {"profile": {"profile": "sine"}}},
}

# the key each of those configs must name: an unknown key, or a bad value's
NAMED_KEYS = {
    "misspelt-top-level-key": "flx", "misspelt-solver-key": "max_iter",
    "misspelt-study-key": "levls", "misspelt-law-parameter": "velocty",
    "burgers-law-parameter": "velocity", "removed-correction-key": "correction",
    **{key: "velocity" for key in BAD_CONFIGS if key.endswith("-velocity")},
    "list-law-params": "law_params", "number-mesh": "mesh", "null-mesh": "mesh",
    "list-profile-name": "profile", "object-profile-name": "profile",
}


def test_minimal_and_null_quadrature_orders_build(tmp_path):
    # the minimal orders are accepted; null keeps the default
    for orders, want in (({"volume_order": 1, "edge_order": 2}, (1, 2)),
                         ({"volume_order": None, "edge_order": None}, (2, 3))):
        path = _edited_shipped_case(tmp_path, "burgers_verify.json", **orders)
        cfg = cli.load_config(path)
        disc = cli._build_disc(cfg, pm.load_mesh(cfg["mesh"]))
        assert (disc.vol_order, disc.edge_order) == want


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("key", list(BAD_CONFIGS))
def test_config_errors_exit_4(tmp_path, capsys, command, key):
    path = _edited_shipped_case(tmp_path, "burgers_verify.json", **BAD_CONFIGS[key])
    argv = [command, str(path), "--output-dir", str(tmp_path / "o")]
    if command == "verify":
        argv += ["--suite", "tadmor"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "config error" in err
    if key in NAMED_KEYS:
        assert f"'{NAMED_KEYS[key]}'" in err


BAD_ARGUMENTS = {
    "zero-draws": ("verify", ["--draws", "0"]),
    "negative-draws": ("verify", ["--draws", "-3"]),
    "nan-tol-scale-run": ("run", ["--tol-scale", "nan"]),
    "nan-tol-scale-verify": ("verify", ["--tol-scale", "nan"]),
    "infinite-tol-scale": ("run", ["--tol-scale", "inf"]),
    "zero-tol-scale": ("run", ["--tol-scale", "0"]),
    "negative-tol-scale": ("verify", ["--tol-scale", "-1"]),
    "negative-seed-run": ("run", ["--seed", "-1"]),
    "negative-seed-verify": ("verify", ["--seed", "-1"]),
}


@pytest.mark.parametrize("key", list(BAD_ARGUMENTS))
def test_bad_arguments_exit_4(tmp_path, capsys, key):
    command, extra = BAD_ARGUMENTS[key]
    argv = [command, str(CASES / "burgers_verify.json"), "--output-dir", str(tmp_path / "o")]
    if command == "verify":
        argv += ["--suite", "conservation"]
    assert cli.main(argv + extra) == 4
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["burgers_verify.json", "burgers_hexagon.json"])
def test_shipped_burgers_cases_run(tmp_path, name):
    # both start from rest, where the Burgers wave speed is zero
    assert cli.main(["run", str(CASES / name), "--output-dir", str(tmp_path / "o")]) == 0


def test_unconverged_run_warns_and_flags_report(tmp_path, capsys):
    path = _edited_shipped_case(
        tmp_path, "advection_sine_k1.json",
        solver={"cfl": 0.6, "max_iters": 20, "residual_tol": 1e-10}, study={"levels": 1},
    )
    out = tmp_path / "o"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: level 0 did not converge: 20 iterations, residual" in err
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is False
    assert report["levels"][0]["converged"] is False


def test_diverging_run_exits_2(tmp_path, capsys):
    # fr at k = 2 on quads has growing modes: the sine case on the 16-quad
    # mesh at CFL 0.8 diverges after 6,411 steps
    path = _edited_shipped_case(
        tmp_path, "advection_sine_k1.json", mesh=str(CASES / "quad_16.mesh.json"), degree=2,
        solver={"cfl": 0.8, "max_iters": 40000, "residual_tol": 1e-10},
    )
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "solver divergence: pseudo-time iteration diverged after 6411 steps" in err
    assert "Traceback" not in err


def _case_on_mesh_text(tmp_path, mesh_text):
    (tmp_path / "m.json").write_text(mesh_text, encoding="utf-8")
    return _edited_shipped_case(tmp_path, "burgers_verify.json", mesh=str(tmp_path / "m.json"))


@pytest.mark.parametrize("command", ["run", "verify"])
def test_unbuildable_correction_exits_4(tmp_path, capsys, command):
    # no field degree passes the correction build's feasibility probe at
    # k = 1 on a quad with nearly parallel opposite edges, nor on a regular
    # 9-gon; the message names the failing element
    nonagon = pm.regular_polygon_mesh(9)
    meshes = {
        "quad": {"vertices": [[0, 0], [1, 0], [1 + 1e-6, 1 + 5e-7], [0, 1]],
                 "elements": [[0, 1, 2, 3]]},
        "9-gon": {"vertices": nonagon.vertices.tolist(), "elements": [list(range(9))]},
    }
    for name, mesh in meshes.items():
        (tmp_path / name).mkdir()
        path = _case_on_mesh_text(tmp_path / name, json.dumps(mesh))
        argv = [command, str(path), "--output-dir", str(tmp_path / name / "o")]
        if command == "verify":
            argv += ["--suite", "tadmor"]
        assert cli.main(argv) == 4
        err = capsys.readouterr().err
        assert "config error: unsupported discretization: element 0: " in err
        assert "Traceback" not in err


@pytest.mark.parametrize("mesh_text,message", [
    ('{"vertices": [[0, 0], [1, 0], [0, 1]], "elements": [[0, 1, 2.9]]}',
     "element 0 has a non-integer vertex id 2.9"),
    ('{"vertices": [[0, 0], [1, 0], [NaN, 1]], "elements": [[0, 1, 2]]}',
     "vertex 2 has a non-finite coordinate"),
    ('{"vertices": [[0, 0], ["1", 0], [0, 1]], "elements": [[0, 1, 2]]}',
     "vertex 1 has a non-numeric coordinate '1'"),
    ('{"vertices": [[0, 0], [1, 0], [true, 1]], "elements": [[0, 1, 2]]}',
     "vertex 2 has a non-numeric coordinate True"),
    ('{"vertices": [[0, 0], [2, 0], [0, 1]], "elements": [[0, 1, 1180591620717411303424]]}',
     "element 0 references a missing vertex 1180591620717411303424"),
    # parts of the document of the wrong JSON type
    ('{"vertices": [[0, 0], [1, 0], [0, 1]], "elements": 5}',
     "elements must be an array, got 5"),
    ('{"vertices": [[0, 0], [1, 0], [0, 1]], "elements": []}',
     "elements must not be empty"),
    ('{"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]], "elements": [5, [0, 2, 3]]}',
     "element 0 must be an array, got 5"),
    ('{"vertices": [[0, 0], [1, 0], [0, 1]], "elements": [[0, 1, 2]], "boundary": 3}',
     "'boundary' must be an array, got 3"),
    ('{"vertices": [[0, 0], [1, 0], [0, 1]], "elements": [[0, 1, 2]], "boundary": [5]}',
     "boundary entry 0 must be an object with 'edge' and 'tag'"),
    ('{"vertices": [[0, 0], [1, 0], [0, 1]], "elements": [[0, 1, 2]], '
     '"boundary": [{"edge": [0], "tag": "b"}]}',
     "boundary entry 0 must name two vertex ids, got [0]"),
])
def test_bad_mesh_document_exits_4(tmp_path, capsys, mesh_text, message):
    path = _case_on_mesh_text(tmp_path, mesh_text)
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 4
    assert message in capsys.readouterr().err


def test_missing_boundary_tag_exits_4(tmp_path, capsys):
    path = _edited_shipped_case(tmp_path, "burgers_verify.json", boundary={})
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 4
    assert "boundary" in capsys.readouterr().err


def test_run_eq44_uses_configured_jump_coeff(tmp_path, monkeypatch):
    path = _write_case(
        tmp_path, solver={"cfl": 0.8, "max_iters": 4000, "residual_tol": 1e-11,
                          "jump_coeff": 0.5},
    )
    seen, solved = [], []
    st_residuals, solve_steady = en.st_residuals, cli.solve_steady

    def spy_st(*args, **kwargs):
        seen.append(kwargs.get("jump_coeff"))
        return st_residuals(*args, **kwargs)

    def spy_solve(disc, law, config, bc, initial=None):
        u, trace = solve_steady(disc, law, config, bc, initial=initial)
        solved.append((disc, law, bc, u))
        return u, trace

    monkeypatch.setattr(en, "st_residuals", spy_st)
    monkeypatch.setattr(cli, "solve_steady", spy_solve)
    report = cli.run(path, tmp_path / "out")
    assert seen and all(c == 0.5 for c in seen)

    disc, law, bc, u = solved[0]
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    st = st_residuals(disc, law, u, en.cs_residuals(disc, law, u, fr), jump_coeff=0.5)
    margin = -en.entropy_error(disc, law, u, st)
    assert report["levels"][0]["defects"]["eq44"] == max(0.0, -float(margin.min()))


def test_merged_defects_keep_negative_level_values():
    # Rusanov dissipates, so a level's interface functional can be negative
    # everywhere; the worst case across levels must not be floored at zero
    acc = {}
    for tadmor, eq5, ck in ((-3.4e-4, 1e-15, 0.2), (-1e-3, 2e-15, None)):
        cli._merge_defects(acc, {"tadmor_max": tadmor, "eq5": eq5, "ck_bdk_min": ck})
    assert acc["tadmor_max"] == -3.4e-4
    assert acc["eq5"] == 2e-15
    assert acc["ck_bdk_min"] == 0.2
    assert acc["eq32"] is None


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_merged_and_checked_defects_keep_a_nan():
    for levels in (({"eq5": 1e-15}, {"eq5": math.nan}), ({"eq5": math.nan}, {"eq5": 1e-15})):
        acc = {}
        for defects in levels:
            cli._merge_defects(acc, defects)
        assert math.isnan(acc["eq5"])
    with pytest.raises(cli.InvariantViolation, match=r"Eq\. \(5\)"):
        cli._check_defects({"eq5": math.nan}, 1.0)


def test_run_with_a_nan_defect_exits_3_and_writes_strict_json(tmp_path, capsys, monkeypatch):
    path = _write_case(tmp_path)
    battery = cli.defect_battery

    def nan_eq5(*args, **kwargs):
        defects, arrays = battery(*args, **kwargs)
        return {**defects, "eq5": math.nan}, arrays

    monkeypatch.setattr(cli, "defect_battery", nan_eq5)
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 3
    assert "Eq. (5) conservation defect nan" in capsys.readouterr().err
    report = _strict_json((tmp_path / "o" / "report.json").read_text(encoding="utf-8"))
    assert report["defects"]["eq5"] == "nan" == report["levels"][0]["defects"]["eq5"]


def test_verify_nan_check_value_fails(tmp_path, capsys, monkeypatch):
    # a NaN in the first draw only: later finite draws must not hide it
    path = _write_case(tmp_path, law="burgers", law_params={})
    checks, draws = cli.state_checks, []

    def nan_first_draw(*args, **kwargs):
        arrays = checks(*args, **kwargs)
        if not draws:
            arrays["eq5[fr]"][0] = math.nan
        draws.append(1)
        return arrays

    monkeypatch.setattr(cli, "state_checks", nan_first_draw)
    argv = ["verify", str(path), "--suite", "conservation", "--draws", "2",
            "--output-dir", str(tmp_path / "v")]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert len(draws) == 2
    assert "FAIL eq5[fr]: nan" in out and "suite conservation FAILED" in out
    report = _strict_json((tmp_path / "v" / "verify_conservation.json").read_text(encoding="utf-8"))
    assert report["checks"]["eq5[fr]"]["value"] == "nan"
    assert report["checks"]["eq5[fr]"]["pass"] is False and report["passed"] is False
    assert all(c["pass"] for name, c in report["checks"].items() if name != "eq5[fr]")


def test_verify_eq44_reports_the_smallest_margin(monkeypatch):
    # the value is the smallest margin over all draws, not floored at zero
    checks, margins = cli.state_checks, []

    def spy(*args, **kwargs):
        arrays = checks(*args, **kwargs)
        margins.append(arrays["eq44"].copy())
        return arrays

    monkeypatch.setattr(cli, "state_checks", spy)
    report = cli.verify(CASES / "burgers_verify.json", "entropy-st", n_draws=3)
    want = min(float(m.min()) for m in margins)
    assert len(margins) == 3 and want > 0.0
    assert report["checks"]["eq44"]["value"] == want
    assert report["checks"]["eq44"]["pass"]


def test_degenerate_entropy_correction_is_reported(tmp_path, capsys, monkeypatch):
    # run's battery records the entropy checks as not evaluable; verify stops
    def degenerate(*args, **kwargs):
        raise en.DegenerateEntropyCorrection("entropy defect 1e-03 on a constant state (element 0)")

    monkeypatch.setattr(en, "tau_all", degenerate)
    path = _write_case(tmp_path, law="burgers", law_params={})
    disc = cli._build_disc(cli.load_config(path), pm.structured_triangles(2))
    law = cli.law_by_name("burgers")
    u = law.random_states(np.random.default_rng(0), disc.n_dofs).reshape(-1, 1)
    defects, arrays = cli.defect_battery(disc, law, u, rs.compute_residuals(disc, law, u))
    assert arrays["eq32"] is None and arrays["eq5"].shape == (disc.mesh.n_elements,)
    assert defects["eq32"] is None and defects["eq44"] is None
    assert "constant state" in defects["degenerate_correction"]
    assert all(defects[k] is not None for k in ("eq5", "eq6", "eq21", "eq27", "tadmor_max"))

    argv = ["verify", str(path), "--suite", "entropy-cs", "--draws", "1"]
    assert cli.main(argv) == 3
    assert "constant state (element 0)" in capsys.readouterr().err


def test_element_split_checks_are_one_array_pass(monkeypatch):
    # all three split checks of one state: one flux split and one
    # decomposition over the whole mesh, not one per element
    disc = cli.Discretization(pm.structured_triangles(8), 1)
    law = cli.law_by_name("burgers")
    u = law.random_states(np.random.default_rng(4), disc.n_dofs).reshape(-1, 1)
    fr = rs.compute_residuals(disc, law, u)
    calls = {"flux_split": 0, "appendix_decomposition": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rs, "flux_split", counted("flux_split", rs.flux_split))
    monkeypatch.setattr(en, "flux_split", counted("flux_split", en.flux_split))
    monkeypatch.setattr(en, "appendix_decomposition",
                        counted("appendix_decomposition", en.appendix_decomposition))
    arrays = cli.state_checks(disc, law, u, fr, names=cli.ELEMENT_SPLIT_CHECKS)
    assert calls == {"flux_split": 1, "appendix_decomposition": 1}
    assert all(arrays[name].shape == (disc.mesh.n_elements,) for name in cli.ELEMENT_SPLIT_CHECKS)


def test_battery_evaluates_entropy_nodes_once(monkeypatch):
    # every entropy check of one battery reads the same nodal entropy
    # variables, evaluated once
    disc = cli.Discretization(pm.structured_triangles(8), 1)
    law = cli.law_by_name("burgers")
    u = law.random_states(np.random.default_rng(6), disc.n_dofs).reshape(-1, 1)
    fr = rs.compute_residuals(disc, law, u)
    want, _ = cli.defect_battery(disc, law, u, fr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return entropy_nodes(*args, **kwargs)

    entropy_nodes = en.entropy_nodes
    monkeypatch.setattr(en, "entropy_nodes", counted)
    defects, _ = cli.defect_battery(disc, law, u, fr)
    assert len(calls) == 1
    assert defects == want


# a regular hexagon with vertex 0 pulled to 1 % of its height above the
# chord of its neighbours: a corner of nearly 180 degrees, on which the
# boosted volume quadrature never reaches its integration-by-parts bound
_ANG = np.pi / 3 * np.arange(6)
FLAT_HEXAGON = np.stack([np.cos(_ANG), np.sin(_ANG)], axis=1)
FLAT_HEXAGON[0] = [0.5 + 0.01 * np.sqrt(3.0), 0.0]


def test_capped_polygon_quadrature_exits_4(tmp_path, capsys):
    mesh = {"vertices": FLAT_HEXAGON.tolist(), "elements": [list(range(6))]}
    path = _case_on_mesh_text(tmp_path, json.dumps(mesh))
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "config error: unsupported discretization: polygon element 0" in err
    assert "Traceback" not in err
