"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

The criteria exercise conservation, correction admissibility, the
decomposition of reconstructed residuals, entropy-conservative and
entropy-stable corrections, interface dissipation diagnostics, the
element-split identities, convergence orders on refined meshes, linear
exactness of the solver, the global accounting identity, and bit-level
determinism of the batch reports.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from polyfr import cli
from polyfr import entropy as en
from polyfr import mesh as pm
from polyfr import physics as ph
from polyfr import residual as rs
from polyfr import solver as sv
from polyfr.discretization import Discretization
from test_mesh_properties import N_CELLS, _jittered

CASES = Path(__file__).resolve().parent.parent / "cases"


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _draw(disc, law, rng):
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, law.p)
    lo, hi = law.admissible_box
    bc = rng.uniform(lo, hi, size=(disc.mesh.n_edges, disc.nq_edge, law.p))
    return u, bc


def _test_discretizations():
    return [
        ("triangle-k2", Discretization(pm.structured_triangles(4), 2)),
        ("quad-k1", Discretization(pm.structured_quads(4), 1)),
        ("hexagon-k1", Discretization(pm.regular_polygon_mesh(6), 1)),
    ]


def test_criterion_1_conservation_all_variants():
    t0 = time.perf_counter()
    law = ph.burgers_2d()
    rng = np.random.default_rng(2101)
    variants = ("dg", "fr-strong", "fr", "cs", "st")
    target_checks = 10_000
    worst = 0.0
    for name, disc in _test_discretizations():
        n_elem = disc.mesh.n_elements
        share = {  # distribute the per-element checks across the meshes
            "triangle-k2": 4800, "quad-k1": 2400, "hexagon-k1": 2800,
        }[name]
        draws = max(1, math.ceil(share / n_elem))
        for _ in range(draws):
            u, bc = _draw(disc, law, rng)
            for variant in variants:
                rset = rs.compute_residuals(disc, law, u, variant, "rusanov", bc)
                worst = max(worst, float(rs.element_conservation_defects(disc, rset).max()))
                worst = max(worst, float(rs.boundary_conservation_defects(disc, rset).max()))
    elapsed = time.perf_counter() - t0
    _report(
        1, "conservation", worst <= 1e-10 and elapsed < 30.0,
        f"max defect {worst:.2e}, {elapsed:.1f}s for >= {target_checks} checks/variant",
    )


def test_criterion_2_correction_admissibility():
    law = ph.burgers_2d()
    rng = np.random.default_rng(2102)
    trace_worst = r_worst = 0.0
    setups = [
        ("rt-triangle", Discretization(pm.structured_triangles(2), 2), 125),
        ("neumann-hexagon", Discretization(pm.regular_polygon_mesh(6), 1), 1000),
    ]
    for name, disc, draws in setups:
        for _ in range(draws):
            u, bc = _draw(disc, law, rng)
            rset = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
            eq21, eq27 = rs.correction_defects(disc, rset)
            trace_worst = max(trace_worst, float(eq21.max()))
            r_worst = max(r_worst, float(eq27.max()))
    ok = trace_worst <= 1e-11 and r_worst <= 1e-11
    _report(2, "correction admissibility", ok,
            f"trace {trace_worst:.2e}, redistribution sum {r_worst:.2e}")


def test_criterion_3_reconstruction_decomposition():
    law = ph.burgers_2d()
    rng = np.random.default_rng(2103)
    worst = 0.0
    for name, disc in _test_discretizations():
        for _ in range(100):
            u, bc = _draw(disc, law, rng)
            fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
            ref = rs.compute_residuals(disc, law, u, "dg-interp", "rusanov", bc)
            worst = max(worst, float(np.abs(fr.phi - ref.phi - fr.r_sigma).max()))
    _report(3, "reconstruction = reference + redistribution", worst <= 1e-11,
            f"pointwise defect {worst:.2e}")


def test_criterion_4_entropy_conservative_correction():
    law = ph.burgers_2d()
    rng = np.random.default_rng(2104)
    disc = Discretization(pm.structured_triangles(4), 1)
    disc_hex = Discretization(pm.regular_polygon_mesh(6), 1)
    e_worst = tau_worst = 0.0
    for d, draws in ((disc, 250), (disc_hex, 2000)):
        for _ in range(draws):
            u, bc = _draw(d, law, rng)
            fr = rs.compute_residuals(d, law, u, "fr", "rusanov", bc)
            cs = en.cs_residuals(d, law, u, fr)
            e_worst = max(e_worst, float(np.abs(en.entropy_error(d, law, u, cs)).max()))
            tau = cs.phi - fr.phi
            tau_sums = d.element_reduce(lambda t: t.sum(axis=1), tau)
            tau_worst = max(tau_worst, float(np.abs(tau_sums).max()))
    v = np.array([[0.0], [1.0], [2.0]])
    hand = en.tau_all(Discretization(pm.regular_polygon_mesh(3), 1), law, v, np.array([1.0]), v)
    hand_ok = np.array_equal(hand, np.array([[-0.5], [0.0], [0.5]]))
    ok = e_worst <= 1e-10 and tau_worst <= 1e-12 * 5.0 and hand_ok
    _report(4, "entropy-conservative correction", ok,
            f"balance defect {e_worst:.2e}, correction sum {tau_worst:.2e}, "
            f"hand case {'exact' if hand_ok else 'WRONG'}")


def test_criterion_5_entropy_stability_margin():
    law = ph.burgers_2d()
    rng = np.random.default_rng(2105)
    disc = Discretization(pm.structured_triangles(4), 1)
    disc_hex = Discretization(pm.regular_polygon_mesh(6), 1)
    margin_min = np.inf
    for d, draws in ((disc, 250), (disc_hex, 2000)):
        for _ in range(draws):
            u, bc = _draw(d, law, rng)  # nodal draws are discontinuous across edges
            st = rs.compute_residuals(d, law, u, "st", "rusanov", bc)
            margin = -en.entropy_error(d, law, u, st)
            margin_min = min(margin_min, float(margin.min()))
    _report(5, "entropy stability margin", margin_min >= -1e-11,
            f"min margin {margin_min:.2e}")


def test_criterion_6_interface_dissipation_diagnostics():
    law = ph.burgers_2d()
    rng = np.random.default_rng(2106)
    # one interior edge, then meshes with many (their own draw streams)
    cases = [
        (pm.two_triangle_square(), rng),
        (pm.load_mesh(CASES / "tri_32.mesh.json"), np.random.default_rng(2116)),
        (_jittered(pm.structured_triangles(N_CELLS), np.random.default_rng(5)),
         np.random.default_rng(2126)),
    ]

    reass = nsig = ck_gap = 0.0
    for mesh, draws in cases:
        disc = Discretization(mesh, 1)
        g = disc.groups[0]
        for _ in range(200):
            u, bc = _draw(disc, law, draws)
            fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
            split = rs.flux_split(disc, law, u, fr)
            reassembled = split.fb + split.pair_flux.sum(axis=2)
            reass = max(reass, float(np.abs(reassembled - fr.phi[g.dof_idx]).max()))
            # nodal-potential pairing against the geometric boundary vectors
            theta = law.potential(en.entropy_nodes(disc, law, u))[g.dof_idx]
            lhs = np.einsum("edx,edx->e", theta, split.nsigma)
            bnd = np.zeros(g.n_elements)
            for row, (edge_id, side) in enumerate(zip(g.inc_edge, g.inc_side)):
                loc = row // g.n_local_edges
                sgn = 1.0 if side == 0 else -1.0
                tr = disc.edge_phi[side, edge_id]
                theta_tr = tr @ theta[loc]
                bnd[loc] += sgn * float(
                    np.einsum("q,qx,x->", disc.edge_w[edge_id], theta_tr,
                              disc.mesh.edge_normal[edge_id])
                )
            nsig = max(nsig, float(np.abs(lhs + bnd).max()))
            # graph form of the geometric vectors
            total = split.dual_normals.sum(axis=2)
            nsig = max(nsig, float(np.abs(total - split.nsigma).max()))
            rep = en.appendix_decomposition(disc, law, u, fr, split)
            ck_gap = max(ck_gap, float(np.abs(rep.c_k - rep.c_k_graph).max()))

    uL = law.random_states(rng, 1000)
    uR = law.random_states(rng, 1000)
    ang = rng.uniform(0, 2 * np.pi, 1000)
    nrm = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    ec = float(np.abs(ph.tadmor_edge_check(law, uL, uR, nrm, ph.tadmor_ec_flux)).max())
    rus = float(ph.tadmor_edge_check(law, uL, uR, nrm, ph.rusanov_flux).max())

    ok = reass <= 1e-11 and nsig <= 1e-10 and ec <= 1e-12 and rus <= 0.0 and ck_gap <= 1e-10
    _report(6, "interface dissipation diagnostics", ok,
            f"reassembly {reass:.2e}, boundary-vector identity {nsig:.2e}, "
            f"ec {ec:.2e}, rusanov max {rus:.2e}, split agreement {ck_gap:.2e}")


# ---------------------------------------------------------------------------
# convergence orders (the desk-scale experiment)
# ---------------------------------------------------------------------------

EXACT = lambda pts: np.sin(-math.pi * pts[:, 0] + 2 * math.pi * pts[:, 1])


def _order_study(k, ns, cfl=0.8, tol=1e-9):
    law = ph.linear_advection([1.0, 0.5])
    errors, defects, hs = [], [], []
    for n in ns:
        mesh = pm.structured_triangles(n)
        disc = Discretization(mesh, k)
        bc = disc.boundary_values({"boundary": EXACT})
        cfg = sv.SolverConfig(cfl=cfl, max_iters=60000, residual_tol=tol)
        u0 = disc.interpolate_function(EXACT)
        u, trace = sv.solve_steady(disc, law, cfg, bc, initial=u0)
        assert trace.converged, f"solver failed to converge at n={n}, k={k}"
        l2, _ = sv.manufactured_error(disc, u, EXACT)
        fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
        defect = float(np.abs(en.entropy_error(disc, law, u, fr)).max())
        errors.append(l2)
        defects.append(defect)
        hs.append(mesh.h_max())
    sol_order = math.log(errors[-2] / errors[-1]) / math.log(hs[-2] / hs[-1])
    ent_order = math.log(defects[-2] / defects[-1]) / math.log(hs[-2] / hs[-1])
    return sol_order, ent_order, errors, defects


def test_criterion_7_convergence_orders():
    t0 = time.perf_counter()
    results = {}
    results[1] = _order_study(1, (4, 8, 16, 32))
    results[2] = _order_study(2, (4, 8, 16))
    elapsed = time.perf_counter() - t0
    lines = []
    ok = elapsed < 300.0
    for k, (sol, ent, errs, defs) in results.items():
        ok = ok and sol >= k + 0.7 and ent >= k + 2.5
        lines.append(f"k={k}: solution order {sol:.2f}, entropy-defect order {ent:.2f}")
    _report(7, "convergence orders", ok, "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_8_linear_exactness():
    law = ph.linear_advection([1.0, 0.0])
    mesh = pm.structured_triangles(4)  # 32 elements
    disc = Discretization(mesh, 1)
    bc = disc.boundary_values({"boundary": lambda pts: pts[:, 1]})
    cfg = sv.SolverConfig(cfl=0.8, max_iters=10000, residual_tol=1e-12)
    u, trace = sv.solve_steady(disc, law, cfg, bc)
    l2, _ = sv.manufactured_error(disc, u, lambda pts: pts[:, 1])
    ok = trace.converged and trace.iterations < 10000 and l2 <= 1e-8
    _report(8, "linear exactness", ok,
            f"l2 error {l2:.2e} after {trace.iterations} iterations")


def test_criterion_9_global_identity():
    law = ph.burgers_2d()
    rng = np.random.default_rng(2109)
    worst = 0.0
    for name, disc in _test_discretizations():
        for variant in ("dg", "fr", "fr-strong", "cs", "st"):
            for _ in range(10):
                u, bc = _draw(disc, law, rng)
                rset = rs.compute_residuals(disc, law, u, variant, "rusanov", bc)
                v = rng.normal(size=(disc.n_dofs, law.p))
                defect, scale = rs.global_identity_check(disc, law, u, v, rset, bc)
                worst = max(worst, defect / scale)
    _report(9, "global accounting identity", worst <= 1e-9,
            f"max scaled defect {worst:.2e}")


def test_criterion_10_report_determinism(tmp_path):
    cfg_path = CASES / "advection_linear_k1.json"
    cli.run(cfg_path, tmp_path / "a", seed=42)
    cli.run(cfg_path, tmp_path / "b", seed=42)
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    a.pop("timing")
    b.pop("timing")
    same = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    csv_same = (
        (tmp_path / "a" / "levels.csv").read_text()
        == (tmp_path / "b" / "levels.csv").read_text()
    )
    _report(10, "report determinism", same and csv_same,
            "bit-identical reports" if same else "reports differ")
