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

Both commands reject a negative ``--seed`` and a non-finite or non-positive
``--tol-scale``, ``verify`` also ``--draws`` below 1, and the solver settings
reject a ``cfl``, ``residual_tol`` or ``jump_coeff`` that is not a finite
JSON number, a ``residual_tol`` that is not positive and a negative
``jump_coeff``; the config, its ``solver`` and ``study`` sections, the law's
parameters and an analytic profile reject keys they do not know, and a
``mesh`` that is not a string or ``law_params`` that is not an object.  All
are config errors (exit 4).

Every check has one name and one tolerance, in ``CHECK_TOLS``; ``run``'s
report and ``verify``'s suites reduce the same per-state arrays of
:func:`state_checks`.  Report defect keys are ``DEFECT_KEYS``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import entropy as entropy_mod
from . import residual as residual_mod
from .approximation import UnsupportedSpace
from .correction import CorrectionError
from .discretization import Discretization
from .mesh import Mesh, MeshError, is_finite_number, is_int, load_mesh, refine_uniform
from .physics import (
    law_by_name,
    numerical_flux,
    rusanov_flux,
    tadmor_ec_flux,
    tadmor_edge_check,
)
from .solver import SolverConfig, SolverDiverged, solve_steady

# every check's tolerance by name, None where the value is reported but not
# gated; ``tau_sum``'s is relative to max(1, |u|) over the admissible box
CHECK_TOLS = {
    "eq5": 1e-10, "eq6": 1e-10, "eq21": 1e-11, "eq27": 1e-11, "eq32": 1e-10, "eq44": 1e-11,
    "tadmor_max": None, "ck_bdk_min": None, "tau_sum": 1e-12, "eq26": 1e-11, "eq31": 1e-9,
    "eq54_reassembly": 1e-11, "ck_two_way": 1e-10, "ec_abs": 1e-12, "rusanov_sign": 1e-14,
}

# the keys of a report's defect block, and the ones ``run`` gates
DEFECT_KEYS = ("eq5", "eq6", "eq21", "eq27", "eq32", "eq44", "tadmor_max", "ck_bdk_min")
DEFECT_TOLS = {key: CHECK_TOLS[key] for key in DEFECT_KEYS if CHECK_TOLS[key] is not None}

DEFECT_LABEL = {
    "eq5": "Eq. (5) conservation", "eq6": "Eq. (6) boundary conservation",
    "eq21": "Eq. (21) correction trace", "eq27": "Eq. (27) redistribution sum",
    "eq32": "Eq. (32) entropy balance", "eq44": "Eq. (44) entropy margin",
}

# the checks a ``verify`` suite takes, in report order; eq5/eq6[variant] are
# the conservation defects of that residual variant
SUITE_CHECKS = {
    "conservation": tuple(f"{key}[{variant}]" for variant in ("dg", "fr", "fr-strong", "cs", "st")
                          for key in ("eq5", "eq6")),
    "correction-admissibility": ("eq21", "eq27"),
    "entropy-cs": ("eq32", "tau_sum"),
    "entropy-st": ("eq44",),
    "tadmor": ("ec_abs", "rusanov_sign"),
    "identities": ("eq26", "eq31", "eq54_reassembly", "ck_two_way"),
}
SUITES = tuple(SUITE_CHECKS)

ELEMENT_SPLIT_CHECKS = ("ck_bdk_min", "ck_two_way", "eq54_reassembly")


class ConfigError(ValueError):
    pass


class InvariantViolation(RuntimeError):
    pass


# the keys a config may hold, at the top level and in its sections
CONFIG_KEYS = ("case", "mesh", "law", "law_params", "degree", "variant", "flux", "volume_order",
               "edge_order", "solver", "boundary", "exact", "initial", "study")
SOLVER_KEYS = ("cfl", "max_iters", "residual_tol", "local_dt", "jump_coeff")
STUDY_KEYS = ("levels",)

# each analytic profile's parameters and their defaults
PROFILE_PARAMS = {
    "constant": {"value": 0.0},
    "linear": {"a0": 0.0, "ax": 0.0, "ay": 0.0},
    "sine": {"amplitude": 1.0, "kx": 0.0, "ky": 0.0, "phase": 0.0, "offset": 0.0},
}


def _reject_unknown(section: dict, known: tuple, what: str) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r}; expected one of {known}")


def _profile(profile):
    """The field of one analytic profile spec, mapping (m, 2) points to (m,)
    values; a spec that is not an object naming a known profile with finite
    numeric parameters is a config error."""
    kind = profile.get("profile") if isinstance(profile, dict) else None
    if not isinstance(kind, str) or kind not in PROFILE_PARAMS:
        raise ConfigError(f"unknown analytic profile {profile!r}; expected an object "
                          f"with 'profile' one of {tuple(PROFILE_PARAMS)}")
    _reject_unknown(profile, ("profile", *PROFILE_PARAMS[kind]), f"{kind} profile parameter")
    p = {}
    for key, default in PROFILE_PARAMS[kind].items():
        value = profile.get(key, default)
        if not is_finite_number(value):
            raise ConfigError(f"{kind} profile parameter {key!r} must be a finite number, "
                              f"got {value!r}")
        p[key] = float(value)
    if kind == "constant":
        return lambda pts: np.full(len(np.atleast_2d(pts)), p["value"])
    if kind == "linear":
        return lambda pts: (p["a0"] + p["ax"] * np.atleast_2d(pts)[:, 0]
                            + p["ay"] * np.atleast_2d(pts)[:, 1])
    return lambda pts: p["offset"] + p["amplitude"] * np.sin(
        p["kx"] * np.atleast_2d(pts)[:, 0] + p["ky"] * np.atleast_2d(pts)[:, 1] + p["phase"]
    )


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    _reject_unknown(cfg, CONFIG_KEYS, "config key")
    for key in ("mesh", "law", "degree"):
        if key not in cfg:
            raise ConfigError(f"config misses required key {key!r}")
    if not isinstance(cfg["mesh"], str):
        raise ConfigError(f"'mesh' must be a path string, got {cfg['mesh']!r}")
    variant = cfg.get("variant", "fr")
    if variant not in residual_mod.VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; choose from {residual_mod.VARIANTS}"
        )
    degree = cfg["degree"]
    if not is_int(degree):
        raise ConfigError(f"degree must be an integer, got {degree!r}")
    # the minimal orders the error analysis needs; absent or null: the default
    for key, least in (("volume_order", degree), ("edge_order", degree + 1)):
        if cfg.get(key) is not None and (not is_int(cfg[key]) or cfg[key] < least):
            raise ConfigError(f"{key} must be an integer >= {least} at degree {degree}, "
                              f"got {cfg[key]!r}")
    study, solver = cfg.get("study", {}), cfg.get("solver", {})
    if not isinstance(study, dict) or not isinstance(solver, dict):
        raise ConfigError("'study' and 'solver' must be JSON objects")
    if not isinstance(cfg.get("law_params", {}), (dict, type(None))):
        raise ConfigError(f"'law_params' must be a JSON object, got {cfg['law_params']!r}")
    _reject_unknown(study, STUDY_KEYS, "study key")
    _reject_unknown(solver, SOLVER_KEYS, "solver key")
    for name, value in (("study.levels", study.get("levels", 1)),
                        ("solver.max_iters", solver.get("max_iters", 1))):
        if not is_int(value) or value < 1:
            raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    if not isinstance(solver.get("local_dt", True), bool):
        raise ConfigError(f"solver.local_dt must be true or false, got {solver['local_dt']!r}")
    for key in ("cfl", "residual_tol", "jump_coeff"):
        if key in solver and not is_finite_number(solver[key]):
            raise ConfigError(f"solver.{key} must be a finite number, got {solver[key]!r}")
    try:
        law_by_name(cfg["law"], cfg.get("law_params"))
        numerical_flux(cfg.get("flux", "rusanov"))
    except (TypeError, ValueError) as exc:  # UnsupportedLaw is a ValueError
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    boundary = cfg.get("boundary", {})
    if not isinstance(boundary, dict):
        raise ConfigError(f"'boundary' must map boundary tags to profiles, got {boundary!r}")
    # every analytic field, built once here so both commands reject a bad spec
    cfg["profiles"] = {
        "boundary": {tag: _profile(spec) for tag, spec in boundary.items()},
        "exact": _profile(cfg["exact"]) if "exact" in cfg else None,
        "initial": _profile(cfg["initial"]) if "initial" in cfg else None,
    }
    return cfg


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
        )
    except (UnsupportedSpace, CorrectionError) as exc:
        raise ConfigError(f"unsupported discretization: {exc}") from exc


def _element_split_checks(disc: Discretization, law, u, fr, vn) -> dict:
    """Per-element element-split checks: the stability margin c_K - b_dK
    (``ck_bdk_min``), |c_K - c_K on the median-dual normals| (``ck_two_way``)
    and the largest gap between the reassembled pairwise fluxes and the
    residual (``eq54_reassembly``), with ``vn`` the entropy variables of
    ``u``.  Empty off linear triangles, where the pairwise flux splitting
    does not exist."""
    if disc.degree != 1 or any(g.kind != "triangle" for g in disc.groups):
        return {}
    split = residual_mod.flux_split(disc, law, u, fr)
    rep = entropy_mod.appendix_decomposition(disc, law, u, fr, split, vn)
    gap = split.fb + split.pair_flux.sum(axis=2) - fr.phi[disc.groups[0].dof_idx]
    return {"ck_bdk_min": rep.stability_margin, "ck_two_way": np.abs(rep.c_k - rep.c_k_graph),
            "eq54_reassembly": np.abs(gap).max(axis=(1, 2))}


def state_checks(disc: Discretization, law, u, fr, bc=None, jump_coeff: float = 0.1,
                 names=DEFECT_KEYS, v=None) -> dict:
    """The arrays of the checks ``names`` at the state ``u`` with ``fr``
    residual set ``fr`` (the element-split checks come as one set of three).

    Arrays are per element, except ``tadmor_max`` (per interior edge),
    ``eq26`` (per DOF) and ``eq31`` (one value, for the broken test field
    ``v``).  ``eq5[variant]``/``eq6[variant]`` are the conservation defects
    of that variant, built from ``fr`` or with the boundary data ``bc``
    (plain ``eq5``/``eq6``: of ``fr``); ``eq44`` is the signed margin of
    ``st`` at ``jump_coeff``.  Element-split checks are left out off linear
    triangles.  A check that needs a degenerate entropy correction maps to
    None, with the reason under ``degenerate_correction``.  The entropy
    variables of ``u`` are evaluated once, for every check that reads them.
    """
    sets = {"fr": fr}
    vn = entropy_mod.entropy_nodes(disc, law, u)

    def rset(variant):
        if variant not in sets:
            if variant == "cs":
                sets[variant] = entropy_mod.cs_residuals(disc, law, u, fr, vn)
            elif variant == "st":
                cs = rset("cs")
                sets[variant] = entropy_mod.st_residuals(
                    disc, law, u, cs, jump_coeff=jump_coeff, vn=vn
                )
            else:
                sets[variant] = residual_mod.compute_residuals(
                    disc, law, u, variant, fr.flux_kind, bc
                )
        return sets[variant]

    out = {}
    for name in names:
        if name in out:
            continue
        key, _, variant = name.rstrip("]").partition("[")
        try:
            if key == "eq5":
                out[name] = residual_mod.element_conservation_defects(disc, rset(variant or "fr"))
            elif key == "eq6":
                out[name] = residual_mod.boundary_conservation_defects(disc, rset(variant or "fr"))
            elif key in ("eq21", "eq27"):
                out["eq21"], out["eq27"] = residual_mod.correction_defects(disc, fr)
            elif key == "eq32":
                out[name] = np.abs(entropy_mod.entropy_error(disc, law, u, rset("cs"), vn))
            elif key == "eq44":
                out[name] = -entropy_mod.entropy_error(disc, law, u, rset("st"), vn)
            elif key == "tau_sum":
                tau = rset("cs").phi - fr.phi
                out[name] = np.abs(disc.element_reduce(lambda t: t.sum(axis=1), tau))
            elif key == "tadmor_max":
                e, ii = fr.edges, disc.mesh.interior_edge_ids
                out[name] = tadmor_edge_check(
                    law, e.uL[ii], e.uR[ii], disc.edge_normal_q[ii], e.fhat_star[ii]
                )
            elif key == "eq26":
                out[name] = np.abs(fr.phi - rset("dg-interp").phi - fr.r_sigma)
            elif key == "eq31":
                d, sc = residual_mod.global_identity_check(disc, law, u, v, fr, bc)
                out[name] = np.array(d / sc)
            elif key in ELEMENT_SPLIT_CHECKS:
                out.update(_element_split_checks(disc, law, u, fr, vn))
        except entropy_mod.DegenerateEntropyCorrection as exc:
            # a constant-state element with nonzero entropy error admits no
            # mean-deviation correction: the check is not evaluable
            out[name] = None
            out["degenerate_correction"] = str(exc)
    return out


def defect_battery(disc: Discretization, law, u, fr,
                   jump_coeff: float = 0.1) -> tuple[dict, dict]:
    """Invariant defects evaluated at one state, keyed as in the report, and
    the :func:`state_checks` arrays they reduce.

    ``fr`` is the ``fr`` residual set of ``u``; ``jump_coeff`` is the ``st``
    dissipation scale the eq44 margin is measured for.  Each defect is the
    worst entry of its array (for eq44 the negative part of the smallest
    margin).
    """
    arrays = state_checks(disc, law, u, fr, jump_coeff=jump_coeff)
    out = {}
    for key in DEFECT_KEYS:
        a = arrays.get(key)
        if a is None:
            out[key] = None
        elif key == "eq44":
            out[key] = float(_worst(max, 0.0, -a.min()))
        elif key == "ck_bdk_min":
            out[key] = float(a.min())
        else:
            out[key] = float(a.max()) if a.size else 0.0
    if "degenerate_correction" in arrays:
        out["degenerate_correction"] = arrays["degenerate_correction"]
    return out, arrays


def _worst(pick, *values):
    """``pick`` (``min`` or ``max``) of ``values``, or NaN if one is NaN."""
    return math.nan if any(math.isnan(v) for v in values) else pick(values)


def _merge_defects(acc: dict, defects: dict) -> None:
    # worst case across levels; the element-split margin keeps its minimum
    for key in DEFECT_KEYS:
        known = [x for x in (acc.get(key), defects.get(key)) if x is not None]
        acc[key] = _worst(min if key == "ck_bdk_min" else max, *known) if known else None


def _check_defects(defects: dict, tol_scale: float) -> None:
    for key, tol in DEFECT_TOLS.items():
        if defects.get(key) is None:
            continue
        if not defects[key] <= tol * tol_scale:  # a NaN fails too
            raise InvariantViolation(
                f"{DEFECT_LABEL[key]} defect {defects[key]:.3e} > tol {tol * tol_scale:.1e}"
            )


def _check_arguments(seed, tol_scale, n_draws=None) -> None:
    if not is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    if not 0.0 < tol_scale < math.inf:
        raise ConfigError(f"tol-scale must be positive and finite, got {tol_scale!r}")
    if n_draws is not None and (not is_int(n_draws) or n_draws < 1):
        raise ConfigError(f"draws must be an integer >= 1, got {n_draws!r}")


def run(config_path, output_dir=None, seed: int = 0, tol_scale: float = 1.0) -> dict:
    """Execute a run config; returns the report dictionary."""
    _check_arguments(seed, tol_scale)
    cfg = load_config(config_path)
    out_dir = Path(output_dir or Path(config_path).parent / "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    law = law_by_name(cfg["law"], cfg.get("law_params"))
    profiles = cfg["profiles"]["boundary"]
    solver_cfg = _solver_config(cfg)
    exact, initial_field = cfg["profiles"]["exact"], cfg["profiles"]["initial"]
    levels = cfg.get("study", {}).get("levels", 1)

    mesh = load_mesh(_mesh_path(cfg, config_path))
    missing = sorted(set(mesh.boundary_tags.values()) - set(profiles))
    if missing:
        raise ConfigError(f"no boundary data for mesh tags {missing}")
    report = {
        "case": cfg.get("case", Path(config_path).stem),
        "seed": int(seed),
        "levels": [],
        "orders": [],
        "defects": {},
        "timing": {"levels": []},
    }
    t0 = time.perf_counter()
    per_elem_rows = []
    errors = []
    for level in range(levels):
        if level > 0:
            mesh = refine_uniform(mesh)
        # the seconds of the level's four phases, for the timing block
        phase = dict.fromkeys(("build_s", "solve_s", "error_s", "battery_s"), 0.0)
        t = time.perf_counter()
        disc = _build_disc(cfg, mesh)
        phase["build_s"] = time.perf_counter() - t
        initial = disc.interpolate_function(initial_field) if initial_field is not None else None
        bc = disc.boundary_values(profiles)
        t = time.perf_counter()
        u, trace = solve_steady(disc, law, solver_cfg, bc, initial=initial)
        phase["solve_s"] = time.perf_counter() - t
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

            t = time.perf_counter()
            l2, linf = manufactured_error(disc, u, exact)
            phase["error_s"] = time.perf_counter() - t
            entry["l2_error"] = l2
            entry["linf_error"] = linf
            errors.append(l2)
        fr = residual_mod.compute_residuals(disc, law, u, "fr", solver_cfg.flux, bc)
        e_fr = entropy_mod.entropy_error(disc, law, u, fr)
        entry["entropy_defect_max"] = float(np.abs(e_fr).max())
        t = time.perf_counter()
        defects, arrays = defect_battery(disc, law, u, fr, solver_cfg.jump_coeff)
        phase["battery_s"] = time.perf_counter() - t
        entry["defects"] = defects
        report["levels"].append(entry)
        report["timing"]["levels"].append(phase)
        _merge_defects(report["defects"], defects)
        cons = arrays["eq5"]
        per_elem_rows += [
            {"level": level, "element": eid, "entropy_defect": float(e_fr[eid]),
             "conservation_defect": float(cons[eid])}
            for eid in range(mesh.n_elements)
        ]
    for a, b in zip(errors, errors[1:]):
        report["orders"].append(float(np.log2(a / b)) if b > 0 else float("inf"))
    report["converged"] = all(entry["converged"] for entry in report["levels"])
    report["timing"]["wall_time"] = time.perf_counter() - t0

    _write_report(out_dir, report, per_elem_rows)
    _check_defects(report["defects"], tol_scale)
    return report


def _strict(obj):
    """``obj`` with each non-finite float written as its name ("nan", "inf",
    "-inf"), so that it dumps to strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _dumps(obj, **kwargs) -> str:
    return json.dumps(_strict(obj), allow_nan=False, sort_keys=True, **kwargs)


def _write_report(out_dir: Path, report: dict, per_elem_rows: list[dict]) -> None:
    (out_dir / "report.json").write_text(_dumps(report, indent=1), encoding="utf-8")
    with open(out_dir / "levels.csv", "w", newline="", encoding="utf-8") as fh:
        cols = ["level", "n_elements", "h", "l2_error", "linf_error", "order",
                "entropy_defect_max", "iterations"]
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i, entry in enumerate(report["levels"]):
            order = report["orders"][i - 1] if 0 < i <= len(report["orders"]) else ""
            writer.writerow([
                entry["level"], entry["n_elements"], repr(entry["h"]),
                repr(entry.get("l2_error", "")), repr(entry.get("linf_error", "")),
                repr(order) if order != "" else "", repr(entry["entropy_defect_max"]),
                entry["iterations"],
            ])
    with open(out_dir / "diagnostics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["level", "element", "entropy_defect", "conservation_defect"]
        )
        writer.writeheader()
        writer.writerows(per_elem_rows)


# ---------------------------------------------------------------------------
# randomized verification suites
# ---------------------------------------------------------------------------

def verify(config_path, suite: str, seed: int = 0, tol_scale: float = 1.0,
           n_draws: int | None = None) -> dict:
    """Run one randomized invariant battery; failures are report content.

    Each draw is a random state with random Dirichlet data; a check's value
    is the worst entry of its :func:`state_checks` arrays over the draws
    (the smallest margin for eq44).  The ``tadmor`` suite instead checks the
    interface fluxes on 1000 random state pairs and directions.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    _check_arguments(seed, tol_scale, n_draws)
    cfg = load_config(config_path)
    law = law_by_name(cfg["law"], cfg.get("law_params"))
    jump_coeff = _solver_config(cfg).jump_coeff
    mesh = load_mesh(_mesh_path(cfg, config_path))
    disc = _build_disc(cfg, mesh)
    rng = np.random.default_rng(seed)
    flux_kind = cfg.get("flux", "rusanov")
    names = SUITE_CHECKS[suite]
    draws = n_draws if n_draws is not None else max(1, 1000 // max(1, mesh.n_elements))
    lo, hi = law.admissible_box

    worst = {}
    if suite == "tadmor":
        uL, uR = law.random_states(rng, 1000), law.random_states(rng, 1000)
        ang = rng.uniform(0, 2 * np.pi, 1000)
        nrm = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        worst["ec_abs"] = float(np.abs(tadmor_edge_check(law, uL, uR, nrm, tadmor_ec_flux)).max())
        worst["rusanov_sign"] = float(tadmor_edge_check(law, uL, uR, nrm, rusanov_flux).max())
    else:
        for _ in range(draws):
            u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, law.p)
            bc = rng.uniform(lo, hi, size=(mesh.n_edges, disc.nq_edge, law.p))
            v = rng.normal(size=(disc.n_dofs, law.p)) if "eq31" in names else None
            fr = residual_mod.compute_residuals(disc, law, u, "fr", flux_kind, bc)
            arrays = state_checks(disc, law, u, fr, bc, jump_coeff, names, v)
            for name in (n for n in names if n in arrays):
                if arrays[name] is None:
                    raise InvariantViolation(arrays["degenerate_correction"])
                value = float(arrays[name].min() if name == "eq44" else arrays[name].max())
                worst[name] = _worst(min if name == "eq44" else max, worst.get(name, value), value)

    checks = {}
    for name in (n for n in names if n in worst):
        tol = CHECK_TOLS[name.partition("[")[0]] * tol_scale
        if name == "tau_sum":
            tol *= max(1.0, abs(lo), abs(hi))
        ok = worst[name] >= -tol if name == "eq44" else worst[name] <= tol
        checks[name] = {"value": float(worst[name]), "tol": float(tol), "pass": bool(ok)}
    return {"suite": suite, "seed": int(seed), "draws": int(draws), "checks": checks,
            "passed": all(c["pass"] for c in checks.values())}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="polyfr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a configured case or study")
    p_ver = sub.add_parser("verify", help="run a randomized invariant battery")
    for p in (p_run, p_ver):
        p.add_argument("config")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol-scale", type=float, default=1.0)
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--draws", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            report = run(args.config, args.output_dir, args.seed, args.tol_scale)
            print(_dumps({"case": report["case"], "defects": report["defects"],
                          "orders": report["orders"]}))
            return 0
        report = verify(args.config, args.suite, args.seed, args.tol_scale, args.draws)
        if args.output_dir:
            out = Path(args.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"verify_{args.suite}.json").write_text(_dumps(report, indent=1),
                                                          encoding="utf-8")
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
