"""Batch front-end: single runs and refinement studies from a JSON config.

``polyfr run <config>`` solves the configured steady problem (optionally on
a hierarchy of uniformly refined meshes), measures errors against a named
exact profile, evaluates the invariant battery on the converged states, and
writes ``report.json`` plus per-level and per-element CSV files.  Exit code
0 on success, 2 on solver divergence, 3 on an invariant violation, 4 on a
config or mesh error, including a discretization that cannot be built
(unsupported element space or correction).  A level that stops without
converging (iteration cap or stagnation) still exits 0: it prints a warning
on stderr, and the report records ``converged: false`` for the level and at
the top level.

``polyfr verify <config> --suite <name>`` runs one of the randomized
verification batteries (conservation, correction-admissibility, entropy-cs,
entropy-st, tadmor, identities) on the configured mesh; failures are report
content, not errors.

Report defect keys are the project's invariant-check identifiers:

====== ==============================================================
eq5    element conservation: sum of residuals vs boundary flux integral
eq6    boundary-face conservation
eq21   correction normal-trace mismatch at edge quadrature points
eq27   sum of the redistribution vectors per element
eq32   entropy-conservative balance defect
eq44   entropy-stable balance margin (negative part)
====== ==============================================================
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import entropy as entropy_mod
from . import residual as residual_mod
from .approximation import UnsupportedSpace
from .correction import CorrectionError
from .discretization import CORRECTIONS, BoundaryData, Discretization
from .mesh import Mesh, MeshError, is_int, load_mesh, refine_uniform
from .physics import (
    law_by_name,
    numerical_flux,
    rusanov_flux,
    tadmor_ec_flux,
    tadmor_edge_check,
)
from .solver import SolverConfig, SolverDiverged, solve_steady

DEFECT_KEYS = ("eq5", "eq6", "eq21", "eq27", "eq32", "eq44", "tadmor_max", "ck_bdk_min")

DEFECT_TOLS = {
    "eq5": 1e-10,
    "eq6": 1e-10,
    "eq21": 1e-11,
    "eq27": 1e-11,
    "eq32": 1e-10,
    "eq44": 1e-11,
}

DEFECT_LABEL = {
    "eq5": "Eq. (5) conservation",
    "eq6": "Eq. (6) boundary conservation",
    "eq21": "Eq. (21) correction trace",
    "eq27": "Eq. (27) redistribution sum",
    "eq32": "Eq. (32) entropy balance",
    "eq44": "Eq. (44) entropy margin",
}


class ConfigError(ValueError):
    pass


class InvariantViolation(RuntimeError):
    pass


def _profile(profile: dict):
    kind = profile.get("profile")
    if kind == "constant":
        value = float(profile.get("value", 0.0))
        return lambda pts: np.full(len(np.atleast_2d(pts)), value)
    if kind == "linear":
        a0 = float(profile.get("a0", 0.0))
        ax = float(profile.get("ax", 0.0))
        ay = float(profile.get("ay", 0.0))
        return lambda pts: a0 + ax * np.atleast_2d(pts)[:, 0] + ay * np.atleast_2d(pts)[:, 1]
    if kind == "sine":
        amp = float(profile.get("amplitude", 1.0))
        kx = float(profile.get("kx", 0.0))
        ky = float(profile.get("ky", 0.0))
        phase = float(profile.get("phase", 0.0))
        offset = float(profile.get("offset", 0.0))
        return lambda pts: offset + amp * np.sin(
            kx * np.atleast_2d(pts)[:, 0] + ky * np.atleast_2d(pts)[:, 1] + phase
        )
    raise ConfigError(f"unknown analytic profile {profile!r}")


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    for key in ("mesh", "law", "degree"):
        if key not in cfg:
            raise ConfigError(f"config misses required key {key!r}")
    variant = cfg.get("variant", "fr")
    if variant not in residual_mod.VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; choose from {residual_mod.VARIANTS}"
        )
    correction = cfg.get("correction", "auto")
    if correction not in CORRECTIONS:
        raise ConfigError(
            f"unknown correction {correction!r}; choose from {CORRECTIONS} "
            "('auto' builds RT wherever it applies)"
        )
    degree = cfg["degree"]
    if not is_int(degree):
        raise ConfigError(f"degree must be an integer, got {degree!r}")
    study, solver = cfg.get("study", {}), cfg.get("solver", {})
    if not isinstance(study, dict) or not isinstance(solver, dict):
        raise ConfigError("'study' and 'solver' must be JSON objects")
    for name, value in (("study.levels", study.get("levels", 1)),
                        ("solver.max_iters", solver.get("max_iters", 1))):
        if not is_int(value) or value < 1:
            raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    if not isinstance(solver.get("local_dt", True), bool):
        raise ConfigError(f"solver.local_dt must be true or false, got {solver['local_dt']!r}")
    try:
        law_by_name(cfg["law"], cfg.get("law_params"))
        numerical_flux(cfg.get("flux", "rusanov"))
    except (TypeError, ValueError) as exc:  # UnsupportedLaw is a ValueError
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    return cfg


def _boundary_data(cfg: dict) -> BoundaryData:
    spec = cfg.get("boundary", {})
    return BoundaryData({tag: _profile(p) for tag, p in spec.items()})


def _solver_config(cfg: dict) -> SolverConfig:
    s = cfg.get("solver", {})
    try:
        return SolverConfig(
            cfl=float(s.get("cfl", 0.4)),
            max_iters=s.get("max_iters", 20000),
            residual_tol=float(s.get("residual_tol", 1e-10)),
            variant=cfg.get("variant", "fr"),
            flux=cfg.get("flux", "rusanov"),
            local_dt=s.get("local_dt", True),
            jump_coeff=float(s.get("jump_coeff", 0.1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver settings: {exc}") from exc


def _mesh_path(cfg: dict, config_path) -> Path:
    p = Path(cfg["mesh"])
    if not p.is_absolute():
        p = Path(config_path).parent / p
    return p


def _build_disc(cfg: dict, mesh: Mesh) -> Discretization:
    try:
        return Discretization(
            mesh,
            cfg["degree"],
            vol_order=cfg.get("volume_order"),
            edge_order=cfg.get("edge_order"),
            correction=cfg.get("correction", "auto"),
        )
    except (UnsupportedSpace, CorrectionError) as exc:
        raise ConfigError(f"unsupported discretization: {exc}") from exc


def defect_battery(disc: Discretization, law, u, fr, jump_coeff: float = 0.1) -> dict:
    """Invariant defects evaluated at one state; keys match the report.

    ``fr`` is the ``fr`` residual set of ``u``; ``jump_coeff`` is the ``st``
    dissipation scale the eq44 margin is measured for.
    """
    out = {
        "eq5": float(residual_mod.element_conservation_defects(disc, fr).max()),
        "eq6": float(residual_mod.boundary_conservation_defects(disc, fr).max()),
    }
    eq21, eq27 = residual_mod.correction_defects(disc, fr)
    out["eq21"] = float(eq21.max())
    out["eq27"] = float(eq27.max())
    try:
        cs = entropy_mod.cs_residuals(disc, law, u, fr)
        out["eq32"] = float(np.abs(entropy_mod.entropy_error(disc, law, u, cs)).max())
        st = entropy_mod.st_residuals(disc, law, u, cs, jump_coeff=jump_coeff)
        margin = -entropy_mod.entropy_error(disc, law, u, st)
        out["eq44"] = float(max(0.0, -margin.min()))
    except entropy_mod.DegenerateEntropyCorrection as exc:
        # a constant-state element with nonzero entropy error admits no
        # mean-deviation correction; report the checks as not evaluable
        out["eq32"] = None
        out["eq44"] = None
        out["degenerate_correction"] = str(exc)

    # interface dissipation functional of the numerical flux over interior
    # edges, where fhat_star is that flux
    uL, uR = disc.edge_traces(u)
    ii = disc.mesh.interior_edge_ids
    if len(ii):
        checks = tadmor_edge_check(
            law, uL[ii], uR[ii], disc.edge_normal_q[ii], fr.fhat_star[ii]
        )
        out["tadmor_max"] = float(checks.max())
    else:
        out["tadmor_max"] = 0.0

    out["ck_bdk_min"] = None
    g0 = disc.groups[0]
    if disc.degree == 1 and len(disc.groups) == 1 and g0.kind == "triangle":
        graph = disc.dof_graph()
        vnodes = entropy_mod.entropy_nodes(disc, law, u)
        margins = []
        for eid in range(disc.mesh.n_elements):
            rep = entropy_mod.appendix_decomposition(
                disc, law, u, fr, eid, graph.elements[eid], vnodes=vnodes
            )
            margins.append(rep.stability_margin)
        out["ck_bdk_min"] = float(min(margins))
    return out


def _merge_defects(acc: dict, defects: dict) -> None:
    # worst case across levels; the element-split margin keeps its minimum
    for key in DEFECT_KEYS:
        known = [x for x in (acc.get(key), defects.get(key)) if x is not None]
        worst = min if key == "ck_bdk_min" else max
        acc[key] = worst(known) if known else None


def _check_defects(defects: dict, tol_scale: float) -> None:
    for key, tol in DEFECT_TOLS.items():
        if defects.get(key) is None:
            continue
        if defects[key] > tol * tol_scale:
            raise InvariantViolation(
                f"{DEFECT_LABEL[key]} defect {defects[key]:.3e} > tol {tol * tol_scale:.1e}"
            )


def run(config_path, output_dir=None, seed: int = 0, tol_scale: float = 1.0) -> dict:
    """Execute a run config; returns the report dictionary."""
    cfg = load_config(config_path)
    out_dir = Path(output_dir or Path(config_path).parent / "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    law = law_by_name(cfg["law"], cfg.get("law_params"))
    bc = _boundary_data(cfg)
    solver_cfg = _solver_config(cfg)
    exact = _profile(cfg["exact"]) if "exact" in cfg else None
    levels = cfg.get("study", {}).get("levels", 1)

    mesh = load_mesh(_mesh_path(cfg, config_path))
    missing = sorted(set(mesh.boundary_tags.values()) - set(bc.profiles))
    if missing:
        raise ConfigError(f"no boundary data for mesh tags {missing}")
    report = {
        "case": cfg.get("case", Path(config_path).stem),
        "seed": int(seed),
        "levels": [],
        "orders": [],
        "defects": {},
        "timing": {},
    }
    t0 = time.perf_counter()
    per_elem_rows = []
    errors = []
    for level in range(levels):
        if level > 0:
            mesh = refine_uniform(mesh)
        disc = _build_disc(cfg, mesh)
        initial = (
            disc.interpolate_function(_profile(cfg["initial"]))
            if "initial" in cfg
            else None
        )
        u, trace = solve_steady(disc, law, solver_cfg, bc, initial=initial)
        entry = {
            "level": level,
            "n_elements": mesh.n_elements,
            "h": disc.mesh.h_max(),
            "iterations": trace.iterations,
            "converged": bool(trace.converged),
            "residual_l2": trace.res_l2[-1] if trace.res_l2 else 0.0,
        }
        if not trace.converged:
            print(f"warning: level {level} did not converge: {trace.iterations} iterations, "
                  f"residual {entry['residual_l2']:.3e}", file=sys.stderr)
        if exact is not None:
            from .solver import manufactured_error

            l2, linf = manufactured_error(disc, u, exact)
            entry["l2_error"] = l2
            entry["linf_error"] = linf
            errors.append(l2)
        fr = residual_mod.compute_residuals(disc, law, u, "fr", solver_cfg.flux, bc)
        e_fr = entropy_mod.entropy_error(disc, law, u, fr)
        entry["entropy_defect_max"] = float(np.abs(e_fr).max())
        defects = defect_battery(disc, law, u, fr, solver_cfg.jump_coeff)
        entry["defects"] = defects
        report["levels"].append(entry)
        _merge_defects(report["defects"], defects)
        cons = residual_mod.element_conservation_defects(disc, fr)
        for eid in range(mesh.n_elements):
            per_elem_rows.append(
                {
                    "level": level,
                    "element": eid,
                    "entropy_defect": float(e_fr[eid]),
                    "conservation_defect": float(cons[eid]),
                }
            )
    for a, b in zip(errors, errors[1:]):
        report["orders"].append(float(np.log2(a / b)) if b > 0 else float("inf"))
    report["converged"] = all(entry["converged"] for entry in report["levels"])
    report["timing"]["wall_time"] = time.perf_counter() - t0

    _write_report(out_dir, report, per_elem_rows)
    _check_defects(report["defects"], tol_scale)
    return report


def _write_report(out_dir: Path, report: dict, per_elem_rows: list[dict]) -> None:
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8"
    )
    with open(out_dir / "levels.csv", "w", newline="", encoding="utf-8") as fh:
        cols = ["level", "n_elements", "h", "l2_error", "linf_error", "order",
                "entropy_defect_max", "iterations"]
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i, entry in enumerate(report["levels"]):
            order = report["orders"][i - 1] if 0 < i <= len(report["orders"]) else ""
            writer.writerow(
                [
                    entry["level"],
                    entry["n_elements"],
                    repr(entry["h"]),
                    repr(entry.get("l2_error", "")),
                    repr(entry.get("linf_error", "")),
                    repr(order) if order != "" else "",
                    repr(entry["entropy_defect_max"]),
                    entry["iterations"],
                ]
            )
    with open(out_dir / "diagnostics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["level", "element", "entropy_defect", "conservation_defect"]
        )
        writer.writeheader()
        writer.writerows(per_elem_rows)


# ---------------------------------------------------------------------------
# randomized verification suites
# ---------------------------------------------------------------------------

SUITES = (
    "conservation",
    "correction-admissibility",
    "entropy-cs",
    "entropy-st",
    "tadmor",
    "identities",
)


def verify(config_path, suite: str, seed: int = 0, tol_scale: float = 1.0,
           n_draws: int | None = None) -> dict:
    """Run one randomized invariant battery; failures are report content."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    cfg = load_config(config_path)
    law = law_by_name(cfg["law"], cfg.get("law_params"))
    jump_coeff = _solver_config(cfg).jump_coeff
    mesh = load_mesh(_mesh_path(cfg, config_path))
    disc = _build_disc(cfg, mesh)
    rng = np.random.default_rng(seed)
    flux_kind = cfg.get("flux", "rusanov")
    checks: dict[str, dict] = {}

    def random_state():
        return law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, law.p)

    def random_bc():
        lo, hi = law.admissible_box
        vals = rng.uniform(lo, hi, size=(mesh.n_edges, disc.nq_edge, law.p))
        return vals

    def add(name, value, tol, larger_ok=False):
        ok = value >= -tol if larger_ok else value <= tol
        checks[name] = {"value": float(value), "tol": float(tol), "pass": bool(ok)}

    draws = n_draws if n_draws is not None else max(1, 1000 // max(1, mesh.n_elements))

    if suite == "conservation":
        worst = {v: 0.0 for v in ("dg", "fr", "fr-strong", "cs", "st")}
        worst_b = dict(worst)
        for _ in range(draws):
            u = random_state()
            bc = random_bc()
            for variant in worst:
                rset = residual_mod.compute_residuals(disc, law, u, variant, flux_kind, bc)
                worst[variant] = max(
                    worst[variant],
                    float(residual_mod.element_conservation_defects(disc, rset).max()),
                )
                worst_b[variant] = max(
                    worst_b[variant],
                    float(residual_mod.boundary_conservation_defects(disc, rset).max()),
                )
        for variant in worst:
            add(f"eq5[{variant}]", worst[variant], DEFECT_TOLS["eq5"] * tol_scale)
            add(f"eq6[{variant}]", worst_b[variant], DEFECT_TOLS["eq6"] * tol_scale)
    elif suite == "correction-admissibility":
        trace_worst = r_worst = 0.0
        for _ in range(draws):
            u = random_state()
            rset = residual_mod.compute_residuals(disc, law, u, "fr", flux_kind, random_bc())
            eq21, eq27 = residual_mod.correction_defects(disc, rset)
            trace_worst = max(trace_worst, float(eq21.max()))
            r_worst = max(r_worst, float(eq27.max()))
        add("eq21", trace_worst, DEFECT_TOLS["eq21"] * tol_scale)
        add("eq27", r_worst, DEFECT_TOLS["eq27"] * tol_scale)
    elif suite == "entropy-cs":
        worst = 0.0
        tau_worst = 0.0
        for _ in range(draws):
            u = random_state()
            fr = residual_mod.compute_residuals(disc, law, u, "fr", flux_kind, random_bc())
            cs = entropy_mod.cs_residuals(disc, law, u, fr)
            worst = max(worst, float(np.abs(entropy_mod.entropy_error(disc, law, u, cs)).max()))
            tau_sums = disc.element_reduce(lambda t: t.sum(axis=1), cs.phi - fr.phi)
            tau_worst = max(tau_worst, float(np.abs(tau_sums).max()))
        add("eq32", worst, DEFECT_TOLS["eq32"] * tol_scale)
        add("tau_sum", tau_worst, 1e-12 * tol_scale * max(
            1.0, abs(law.admissible_box[0]), abs(law.admissible_box[1])))
    elif suite == "entropy-st":
        worst = 0.0
        for _ in range(draws):
            u = random_state()
            st = residual_mod.compute_residuals(
                disc, law, u, "st", flux_kind, random_bc(), jump_coeff=jump_coeff
            )
            margin = -entropy_mod.entropy_error(disc, law, u, st)
            worst = min(worst, float(margin.min()))
        add("eq44", worst, DEFECT_TOLS["eq44"] * tol_scale, larger_ok=True)
    elif suite == "tadmor":
        n = 1000
        uL = law.random_states(rng, n)
        uR = law.random_states(rng, n)
        ang = rng.uniform(0, 2 * np.pi, n)
        nrm = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        ec = tadmor_edge_check(law, uL, uR, nrm, tadmor_ec_flux)
        rus = tadmor_edge_check(law, uL, uR, nrm, rusanov_flux)
        add("ec_abs", float(np.abs(ec).max()), 1e-12 * tol_scale)
        add("rusanov_sign", float(rus.max()), 1e-14 * tol_scale)
    else:  # identities
        decomp_worst = ident_worst = split_worst = ck_worst = 0.0
        for _ in range(draws):
            u = random_state()
            bc = random_bc()
            fr = residual_mod.compute_residuals(disc, law, u, "fr", flux_kind, bc)
            dgi = residual_mod.compute_residuals(disc, law, u, "dg-interp", flux_kind, bc)
            decomp_worst = max(
                decomp_worst, float(np.abs(fr.phi - dgi.phi - fr.r_sigma).max())
            )
            v = rng.normal(size=(disc.n_dofs, law.p))
            d, sc = residual_mod.global_identity_check(disc, law, u, v, fr, bc)
            ident_worst = max(ident_worst, d / sc)
            if disc.degree == 1 and disc.groups[0].kind == "triangle":
                graph = disc.dof_graph()
                vnodes = entropy_mod.entropy_nodes(disc, law, u)
                for eid in range(mesh.n_elements):
                    split = residual_mod.flux_split(disc, law, u, fr, eid)
                    off = disc.dof_offset[eid]
                    for s in range(disc.n_dof_elem[eid]):
                        split_worst = max(
                            split_worst,
                            float(np.abs(split.reassembled(s) - fr.phi[off + s]).max()),
                        )
                    rep = entropy_mod.appendix_decomposition(
                        disc, law, u, fr, eid, graph.elements[eid], split, vnodes
                    )
                    ck_worst = max(ck_worst, abs(rep.c_k - rep.c_k_graph))
        add("eq26", decomp_worst, 1e-11 * tol_scale)
        add("eq31", ident_worst, 1e-9 * tol_scale)
        if disc.degree == 1 and disc.groups[0].kind == "triangle":
            add("eq54_reassembly", split_worst, 1e-11 * tol_scale)
            add("ck_two_way", ck_worst, 1e-10 * tol_scale)

    return {
        "suite": suite,
        "seed": int(seed),
        "draws": int(draws),
        "checks": checks,
        "passed": all(c["pass"] for c in checks.values()),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="polyfr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a configured case or study")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--tol-scale", type=float, default=1.0)

    p_ver = sub.add_parser("verify", help="run a randomized invariant battery")
    p_ver.add_argument("config")
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol-scale", type=float, default=1.0)
    p_ver.add_argument("--output-dir", default=None)
    p_ver.add_argument("--draws", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            report = run(args.config, args.output_dir, args.seed, args.tol_scale)
            print(json.dumps({"case": report["case"], "defects": report["defects"],
                              "orders": report["orders"]}, sort_keys=True))
            return 0
        report = verify(args.config, args.suite, args.seed, args.tol_scale, args.draws)
        if args.output_dir:
            out = Path(args.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"verify_{args.suite}.json").write_text(
                json.dumps(report, indent=1, sort_keys=True), encoding="utf-8"
            )
        for name, chk in report["checks"].items():
            print(f"{'PASS' if chk['pass'] else 'FAIL'} {name}: {chk['value']:.3e} "
                  f"(tol {chk['tol']:.1e})")
        print("suite", report["suite"], "passed" if report["passed"] else "FAILED")
        return 0
    except SolverDiverged as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, MeshError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
