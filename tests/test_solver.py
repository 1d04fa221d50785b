import numpy as np
import pytest

from polyfr import mesh as pm
from polyfr import physics as ph
from polyfr import residual as rs
from polyfr import solver as sv
from polyfr.discretization import Discretization

LINEAR = lambda pts: pts[:, 1]


def _advection_setup(n=4, k=1):
    mesh = pm.structured_triangles(n)
    disc = Discretization(mesh, k)
    law = ph.linear_advection([1.0, 0.0])
    bc = disc.boundary_values({"boundary": LINEAR})
    return disc, law, bc


def test_config_validation():
    with pytest.raises(ValueError):
        sv.SolverConfig(cfl=0.0)
    with pytest.raises(ValueError):
        sv.SolverConfig(cfl=1.5)
    with pytest.raises(ValueError):
        sv.SolverConfig(residual_tol=-1.0)
    for bad in ({"residual_tol": float("nan")}, {"jump_coeff": -0.1},
                {"jump_coeff": float("nan")}, {"jump_coeff": float("inf")}):
        with pytest.raises(ValueError):
            sv.SolverConfig(**bad)
    sv.SolverConfig(jump_coeff=0.0)  # no dissipation is a valid st scale


def test_zero_residual_leaves_state_unchanged():
    disc, law, bc = _advection_setup()
    cfg = sv.SolverConfig(cfl=0.5, max_iters=1)
    u = disc.interpolate_function(LINEAR)
    u2, trace = sv.solve_steady(disc, law, cfg, bc, initial=u)
    assert trace.res_linf[0] <= 1e-12
    assert np.abs(u2 - u).max() <= 1e-12


def test_constant_state_with_matching_dirichlet_is_fixed_point():
    mesh = pm.structured_quads(2)
    disc = Discretization(mesh, 1)
    law = ph.burgers_2d()
    bc = disc.boundary_values({"boundary": lambda pts: np.full(len(pts), 1.2)})
    u = np.full((disc.n_dofs, 1), 1.2)
    u2, _ = sv.solve_steady(disc, law, sv.SolverConfig(max_iters=1), bc, initial=u)
    assert np.abs(u2 - u).max() <= 1e-13


def test_burgers_step_from_rest_is_finite():
    # the zero state has wave speed 0; the step takes the boundary data's
    disc = Discretization(pm.structured_quads(2), 1)
    bc = disc.boundary_values({"boundary": lambda pts: np.full(len(pts), 0.5)})
    u0 = np.zeros((disc.n_dofs, 1))
    u, trace = sv.solve_steady(disc, ph.burgers_2d(), sv.SolverConfig(max_iters=1), bc,
                               initial=u0)
    assert trace.res_linf[0] > 0.0
    assert 0.0 < np.abs(u).max() <= 0.5


def test_exact_initial_data_converges_immediately():
    disc, law, bc = _advection_setup()
    cfg = sv.SolverConfig(residual_tol=1e-12)
    u0 = disc.interpolate_function(LINEAR)
    u, trace = sv.solve_steady(disc, law, cfg, bc, initial=u0)
    assert trace.converged
    assert trace.iterations == 0


def test_linear_solution_reproduced_from_zero_start():
    # the scheme is exact on linears: the solve must land on the interpolant
    disc, law, bc = _advection_setup(n=4, k=1)
    cfg = sv.SolverConfig(cfl=0.8, max_iters=10000, residual_tol=1e-12)
    u, trace = sv.solve_steady(disc, law, cfg, bc)
    assert trace.converged
    assert trace.iterations < 10000
    l2, linf = sv.manufactured_error(disc, u, LINEAR)
    assert l2 <= 1e-8
    assert linf <= 1e-7


def test_residual_norm_drops_over_first_steps():
    mesh = pm.two_triangle_square()
    disc = Discretization(mesh, 1)
    law = ph.linear_advection([1.0, 0.0])
    bc = disc.boundary_values({"boundary": LINEAR})
    rng = np.random.default_rng(8)
    u = rng.normal(size=(disc.n_dofs, 1))
    cfg = sv.SolverConfig(cfl=0.3, max_iters=10, residual_tol=1e-30)
    _, trace = sv.solve_steady(disc, law, cfg, bc, initial=u)
    assert trace.res_l2[-1] < trace.res_l2[0]


def test_mass_evolution_tracks_boundary_flux_with_uniform_step():
    # with a uniform pseudo-time step, interior fluxes telescope and the
    # mass-weighted state sum changes only through the boundary coupling
    law = ph.burgers_2d()
    mesh = pm.structured_triangles(2)
    disc = Discretization(mesh, 1)
    rng = np.random.default_rng(9)
    u = 0.5 * rng.normal(size=(disc.n_dofs, 1))
    bvals = rng.uniform(-1, 1, size=(mesh.n_edges, disc.nq_edge, 1))
    cfg = sv.SolverConfig(cfl=0.4, local_dt=False)
    mu = sv.lumped_measures(disc)
    coef = sv._dt_over_mu(disc, law, u, cfg, mu)
    dtau = float((coef * mu)[0])
    assert np.allclose(coef * mu, dtau)  # uniform step
    rset = rs.compute_residuals(disc, law, u, cfg.variant, cfg.flux, bvals)
    R = rs.assemble_global(disc, rset)
    u2 = u - coef[:, None] * R
    dmass = float((mu[:, None] * (u2 - u)).sum())
    boundary_flow = 0.0
    for eid in disc.mesh.boundary_edge_ids:
        boundary_flow += float(np.dot(disc.edge_w[eid], rset.edges.fhat_bc[eid][:, 0]))
    assert abs(dmass + dtau * boundary_flow) <= 1e-10 * max(1.0, abs(dmass))


def test_entropy_balance_monitored_for_cs_variant():
    law = ph.burgers_2d()
    mesh = pm.structured_triangles(2)
    disc = Discretization(mesh, 1)
    bc = disc.boundary_values({"boundary": lambda pts: np.full(len(pts), 0.5)})
    cfg = sv.SolverConfig(cfl=0.3, max_iters=5, residual_tol=1e-30, variant="cs")
    rng = np.random.default_rng(10)
    u0 = 0.3 * rng.normal(size=(disc.n_dofs, 1))
    _, trace = sv.solve_steady(disc, law, cfg, bc, initial=u0)
    # the conservative variant balances its entropy production exactly
    assert np.abs(np.array(trace.entropy_balance)).max() <= 1e-11


def test_st_variant_entropy_gap_nonnegative_along_iteration():
    law = ph.burgers_2d()
    mesh = pm.structured_triangles(2)
    disc = Discretization(mesh, 1)
    bc = disc.boundary_values({"boundary": lambda pts: np.full(len(pts), 0.5)})
    cfg = sv.SolverConfig(cfl=0.3, max_iters=5, residual_tol=1e-30, variant="st")
    rng = np.random.default_rng(11)
    u0 = 0.3 * rng.normal(size=(disc.n_dofs, 1))
    _, trace = sv.solve_steady(disc, law, cfg, bc, initial=u0)
    assert min(trace.entropy_balance) >= -1e-11


def test_divergence_guard_raises():
    disc, law, bc = _advection_setup()
    u = np.zeros((disc.n_dofs, 1))
    u[0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(sv.SolverDiverged):
        sv.solve_steady(disc, law, sv.SolverConfig(max_iters=1), bc, initial=u)


def test_stagnated_solve_returns_best_iterate(monkeypatch):
    # a residual that never changes stagnates after one window of steps; the
    # solve returns its best iterate, the first, not the last
    disc, law, bc = _advection_setup()
    R = np.full((disc.n_dofs, 1), 0.25)
    monkeypatch.setattr(sv, "residual_vector", lambda *args, **kwargs: (R, 0.0))
    u0 = disc.interpolate_function(LINEAR)
    u, trace = sv.solve_steady(disc, law, sv.SolverConfig(max_iters=1000), bc, initial=u0)
    assert trace.stagnated and not trace.converged
    assert trace.iterations == sv.STAGNATION_WINDOW == 200
    assert np.array_equal(u, u0)


def test_determinism_bitwise():
    disc, law, bc = _advection_setup(n=2)
    cfg = sv.SolverConfig(cfl=0.5, max_iters=50, residual_tol=1e-30)
    u1, t1 = sv.solve_steady(disc, law, cfg, bc)
    u2, t2 = sv.solve_steady(disc, law, cfg, bc)
    assert (u1 == u2).all()
    assert t1.res_l2 == t2.res_l2


# ---------------------------------------------------------------------------
# manufactured errors
# ---------------------------------------------------------------------------

def test_manufactured_error_exact_for_matching_polynomial():
    mesh = pm.structured_triangles(2)
    disc = Discretization(mesh, 2)
    fn = lambda pts: 1.0 + pts[:, 0] * pts[:, 1] - pts[:, 1] ** 2
    u = disc.interpolate_function(fn)
    l2, linf = sv.manufactured_error(disc, u, fn)
    assert l2 <= 1e-12
    assert linf <= 1e-12


def test_manufactured_error_zero_fields():
    mesh = pm.two_triangle_square()
    disc = Discretization(mesh, 1)
    l2, linf = sv.manufactured_error(disc, np.zeros((disc.n_dofs, 1)), lambda pts: 0.0 * pts[:, 0])
    assert l2 == 0.0 and linf == 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_interpolation_error_ratio_matches_theory(k):
    fn = lambda pts: np.sin(pts[:, 0] + pts[:, 1])
    errs = []
    for n in (4, 8):
        disc = Discretization(pm.structured_triangles(n), k)
        u = disc.interpolate_function(fn)
        errs.append(sv.manufactured_error(disc, u, fn)[0])
    ratio = errs[0] / errs[1]
    assert abs(ratio - 2 ** (k + 1)) <= 0.15 * 2 ** (k + 1)
