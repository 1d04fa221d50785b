"""The explicit pseudo-time step against reference formulas.

The step gathers rows with ``take``, contracts 2-vectors component by
component, builds advection fluxes with two ``out=`` multiplies, evaluates
boundary-face residuals only on elements that own a boundary edge, takes
the element's own boundary flux from the two-point flux's normal fluxes and
builds the step coefficient and the Rusanov edge speed once per solve for a
law whose wave speeds do not depend on the state.  None of
that may change a floating-point operation, so every result here must
equal the plain forms below bit for bit (``np.array_equal``): fancy-index
gathers, ``(a * b).sum(-1)`` contractions, broadcast products, boundary
terms over the full incidence, and a step coefficient rebuilt every step.
"""

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from polyfr import entropy as en
from polyfr import mesh as pm
from polyfr import physics as ph
from polyfr import residual as rs
from polyfr import solver as sv
from polyfr.discretization import Discretization
from test_correction_tables import _hexagon_ring, _skewed_quads

CASES = Path(__file__).resolve().parent.parent / "cases"

# velocities whose products with unit normals round, so a contraction that
# fused or reordered them would show
VELOCITY = np.array([0.731, -1.29])
EXP_VELOCITY = np.array([0.6, -0.8])
LAWS = {
    "advection": lambda: ph.linear_advection(VELOCITY),
    "burgers": ph.burgers_2d,
    "exp-advection": lambda: ph.exp_advection(EXP_VELOCITY),
}


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def ref_law_fields(name, u, v):
    """Flux and entropy flux at the state ``u`` and potential at the entropy
    variables ``v`` of the advection laws, as broadcast products."""
    if name == "advection":
        return (u[..., :, None] * VELOCITY, 0.5 * u[..., 0, None] ** 2 * VELOCITY,
                0.5 * v[..., 0, None] ** 2 * VELOCITY)
    v0 = v[..., 0, None]
    return (u[..., :, None] * EXP_VELOCITY, np.exp(u[..., 0, None]) * EXP_VELOCITY,
            v0 * (np.log(v0) - 1.0) * EXP_VELOCITY)


def ref_normal_flux(law, u, n):
    return (law.flux(u) * np.asarray(n, dtype=float)[..., None, :]).sum(-1)


def ref_central_flux(law, uL, uR, n):
    return 0.5 * (ref_normal_flux(law, uL, n) + ref_normal_flux(law, uR, n))


def ref_rusanov_flux(law, uL, uR, n):
    lam = np.maximum(law.wave_speed(uL, n), law.wave_speed(uR, n))
    return ref_central_flux(law, uL, uR, n) - 0.5 * lam[..., None] * (uR - uL)


def ref_generic_ec_flux(law, uL, uR, n):
    # the divided difference of the potential (laws without a closed form)
    vL = law.entropy_vars(uL)[..., 0]
    vR = law.entropy_vars(uR)[..., 0]
    thL = (law.potential(vL[..., None]) * n).sum(-1)
    thR = (law.potential(vR[..., None]) * n).sum(-1)
    dv = vR - vL
    tiny = np.abs(dv) < 1e-12 * np.maximum(1.0, np.abs(vL) + np.abs(vR))
    cons = ref_normal_flux(law, 0.5 * (uL + uR), n)[..., 0]
    return np.where(tiny, cons, (thR - thL) / np.where(tiny, 1.0, dv))[..., None]


REF_FLUXES = {"central": ref_central_flux, "rusanov": ref_rusanov_flux,
              "tadmor_ec": ph.tadmor_ec_flux}


def ref_entropy_numerical_flux(law, fhat, uL, uR, n):
    v_avg = 0.5 * (law.entropy_vars(uL) + law.entropy_vars(uR))
    return (v_avg * fhat).sum(-1) - (law.potential(v_avg) * n).sum(-1)


def ref_tadmor_edge_check(law, uL, uR, n, fhat):
    dv = law.entropy_vars(uR) - law.entropy_vars(uL)
    dth = ((law.potential(law.entropy_vars(uR)) - law.potential(law.entropy_vars(uL)))
           * n).sum(-1)
    return (dv * fhat).sum(-1) - dth


def ref_interface_fluxes(disc, law, u, flux_kind, bc):
    u = u.reshape(disc.n_dofs, -1)
    uL = np.einsum("eqd,edp->eqp", disc.edge_phi[0], u[disc.edge_dofs[0]])
    uR = np.einsum("eqd,edp->eqp", disc.edge_phi[1], u[disc.edge_dofs[1]])
    nq = disc.edge_normal_q
    bi = disc.mesh.boundary_edge_ids
    uR[bi] = uL[bi] if bc is None else bc[bi]
    fhat_star = REF_FLUXES[flux_kind](law, uL, uR, nq)
    ghat = ref_entropy_numerical_flux(law, fhat_star, uL, uR, nq)
    fhat_bc = None
    if bc is not None:
        fhat_bc = np.zeros_like(fhat_star)
        fhat_bc[bi] = fhat_star[bi]
    fhat_star[bi] = ref_normal_flux(law, uL[bi], nq[bi])
    ghat[bi] = (law.entropy_flux(uL[bi]) * nq[bi]).sum(-1)
    return fhat_star, fhat_bc, ghat


def ref_compute_residuals(disc, law, u, variant, flux_kind, bc):
    base = "fr" if variant in ("cs", "st") else variant
    n_elem, p = disc.mesh.n_elements, law.p
    fhat_star, fhat_bc, ghat = ref_interface_fluxes(disc, law, u, flux_kind, bc)
    if fhat_bc is not None:
        dbc = fhat_bc - fhat_star
        dbc[disc.mesh.interior_edge_ids] = 0.0
    phi, bphi, r_all = (np.zeros((disc.n_dofs, p)) for _ in range(3))
    bflux, brhs = np.zeros((n_elem, p)), np.zeros((n_elem, p))
    gbal = np.zeros(n_elem)
    alphas = []
    for g in disc.groups:
        shape = g.inc_w.shape
        U = u[g.dof_idx]
        F = law.flux(U)
        fs = g.inc_sign[..., None] * fhat_star[g.inc_edge].reshape(shape + (p,))
        alpha = fs - np.einsum("emdx,edpx->emp", g.inc_ntrace, F)
        alphas.append(alpha)
        phi_g = np.einsum("emd,emp->edp", g.inc_wtrace, fs)
        bflux[g.elem_ids] = np.einsum("em,emp->ep", g.inc_w, fs)
        gbal[g.elem_ids] = np.einsum(
            "em,em->e", g.inc_w, g.inc_sign * ghat[g.inc_edge].reshape(shape)
        )
        if base == "dg":
            fq = law.flux(np.einsum("eqd,edp->eqp", g.vol_phi, U))
            phi_g -= np.einsum("eq,eqdx,eqpx->edp", g.vol_w, g.vol_grad, fq)
        elif base == "dg-interp":
            phi_g -= np.einsum("edtx,etpx->edp", g.stiff, F)
        else:
            r_g = np.einsum("edm,emp->edp", g.corr_r, alpha)
            r_all[g.dof_idx] = r_g
            if base == "fr":
                phi_g -= np.einsum("edtx,etpx->edp", g.stiff, F)
                phi_g += r_g
            else:
                phi_g = np.einsum("edtx,etpx->edp", g.dstrong, F) + np.einsum(
                    "edm,emp->edp", g.corr_div, alpha
                )
        phi[g.dof_idx] = phi_g
        if fhat_bc is not None:
            d = dbc[g.inc_edge].reshape(shape + (p,))
            bphi[g.dof_idx] = np.einsum("emd,emp->edp", g.inc_wtrace, d)
            brhs[g.elem_ids] = np.einsum("em,emp->ep", g.inc_w, d)
    edges = SimpleNamespace(fhat_star=fhat_star, fhat_bc=fhat_bc, ghat=ghat,
                            bflux_int=bflux, gbal=gbal, bres_rhs=brhs)
    out = rs.ResidualSet(base, flux_kind, phi, bphi, r_all, alphas, edges)
    if variant != base:
        # the library's cs/st corrections, each evaluating its own
        # entropy variables
        out = en.cs_residuals(disc, law, u, out)
        if variant == "st":
            out = en.st_residuals(disc, law, u, out)
    return out


def ref_dt_over_mu(disc, law, u, config, mu, speed_floor=0.0):
    coef = np.zeros(disc.n_dofs)
    scale = 0.5 * (2 * disc.degree + 1)
    for g in disc.groups:
        speeds = np.maximum(law.max_wave_speed(u[g.dof_idx]).max(axis=1), speed_floor)
        lam = np.maximum(scale * speeds * g.perimeters, 1e-14)
        coef[g.dof_idx.reshape(-1)] = np.repeat(config.cfl / lam, g.n_dof)
    if not config.local_dt:
        return float((coef * mu).min()) / mu
    return coef


def ref_solve_steady(disc, law, config, bc, initial=None):
    """The pseudo-time loop with ``_dt_over_mu`` called on every step."""
    u = np.zeros((disc.n_dofs, law.p)) if initial is None else np.array(initial, dtype=float)
    mu = sv.lumped_measures(disc)
    floor = sv._boundary_wave_speed(disc, law, bc)
    trace = sv.SolveTrace()
    best_u, best_res, res0 = u, np.inf, None
    for it in range(config.max_iters):
        R, gap = sv.residual_vector(disc, law, u, config, bc)
        res = float(np.sqrt((mu[:, None] * R * R).sum() / mu.sum()))
        trace.res_l2.append(res)
        trace.res_linf.append(float(np.abs(R).max()))
        trace.entropy_balance.append(gap)
        if res < best_res:
            best_u, best_res = u, res
        if res0 is None:
            res0 = max(res, 1e-300)
            if res <= 1e-13 * max(1.0, float(np.abs(u).max())):
                trace.converged = True
                break
        if res / res0 <= config.residual_tol:
            trace.converged = True
            break
        w = sv.STAGNATION_WINDOW
        if it >= w and trace.res_l2[-w] > 0:
            if abs(trace.res_l2[-w] - res) <= sv.STAGNATION_EPS * trace.res_l2[-w]:
                trace.stagnated = True
                break
        coef = sv._dt_over_mu(disc, law, u, config, mu, floor)
        u = u - coef[:, None] * R
        if not np.isfinite(u).all() or np.abs(u).max() > sv.DIVERGENCE_LIMIT:
            raise sv.SolverDiverged(f"diverged after {it + 1} steps")
        trace.iterations = it + 1
    return (best_u if trace.stagnated else u), trace


# ---------------------------------------------------------------------------
# physics helpers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(LAWS))
@pytest.mark.parametrize("shape", [(37,), (29, 1), (23, 2), (5, 4, 3)])
def test_physics_helpers_equal_sum_forms(name, shape):
    law = LAWS[name]()
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    uL, uR = law.random_states(rng, shape), law.random_states(rng, shape)
    ang = rng.uniform(0.0, 2.0 * np.pi, shape)
    n = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if name != "burgers":
        v = law.entropy_vars(uL)
        for got, want in zip((law.flux(uL), law.entropy_flux(uL), law.potential(v)),
                             ref_law_fields(name, uL, v)):
            assert np.array_equal(got, want)
        # the normal speed is the component sum: one rounding per product,
        # whatever the stack shape (n @ a may fuse them in a BLAS kernel)
        a = VELOCITY if name == "advection" else EXP_VELOCITY
        assert np.array_equal(law.wave_speed(uL, n), np.abs(n[..., 0] * a[0] + n[..., 1] * a[1]))
    assert np.array_equal(ph.normal_flux(law, uL, n), ref_normal_flux(law, uL, n))
    assert np.array_equal(ph.normal_entropy_flux(law, uL, n), (law.entropy_flux(uL) * n).sum(-1))
    for kind, ref in REF_FLUXES.items():
        fhat = ref(law, uL, uR, n)
        assert np.array_equal(ph.numerical_flux(kind)(law, uL, uR, n), fhat), kind
        assert np.array_equal(ph.entropy_numerical_flux(law, fhat, uL, uR, n),
                              ref_entropy_numerical_flux(law, fhat, uL, uR, n)), kind
        assert np.array_equal(ph.tadmor_edge_check(law, uL, uR, n, fhat),
                              ref_tadmor_edge_check(law, uL, uR, n, fhat)), kind
    generic = replace(law, ec_flux=None)
    assert np.array_equal(ph.tadmor_ec_flux(generic, uL, uR, n),
                          ref_generic_ec_flux(generic, uL, uR, n))


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

MESHES = {
    "tri-k1": lambda: (pm.structured_triangles(2), 1),
    "tri-k2": lambda: (pm.structured_triangles(2), 2),
    "tri-k3": lambda: (pm.structured_triangles(2), 3),
    "quads": lambda: (pm.structured_quads(2), 1),
    "skewed-quads": lambda: (_skewed_quads(), 1),
    "hexagon": lambda: (pm.load_mesh(CASES / "hexagon.mesh.json"), 1),
    "hexagon-ring": lambda: (_hexagon_ring(), 1),
}
_DISCS = {}
# the single-valued flux and its accounting, which a residual set carries as
# its ``edges``
EDGE_FIELDS = ("fhat_star", "fhat_bc", "ghat", "bflux_int", "gbal", "bres_rhs")


def _disc(name):
    if name not in _DISCS:
        _DISCS[name] = Discretization(*MESHES[name]())
    return _DISCS[name]


@pytest.mark.parametrize("law_name", list(LAWS))
@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_compute_residuals_equal_reference(mesh_name, law_name):
    disc, law = _disc(mesh_name), LAWS[law_name]()
    rng = np.random.default_rng(7)
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, law.p)
    lo, hi = law.admissible_box
    bc = rng.uniform(lo, hi, size=(disc.mesh.n_edges, disc.nq_edge, law.p))
    for variant in rs.VARIANTS:
        for flux_kind in ph.FLUX_KINDS:
            for data in (None, bc):
                got = rs.compute_residuals(disc, law, u, variant, flux_kind, data)
                want = ref_compute_residuals(disc, law, u, variant, flux_kind, data)
                assert (got.variant, got.flux_kind) == (want.variant, want.flux_kind)
                for name in ("phi", "boundary_phi", "r_sigma"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (
                        variant, flux_kind, name)
                assert len(got.alpha) == len(want.alpha)
                assert all(np.array_equal(x, y) for x, y in zip(got.alpha, want.alpha))
                for name in EDGE_FIELDS:
                    a, b = getattr(got.edges, name), getattr(want.edges, name)
                    assert (a is None) == (b is None), name
                    assert b is None or np.array_equal(a, b), (variant, flux_kind, name)


# ---------------------------------------------------------------------------
# step coefficient and the pseudo-time loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law_name", list(LAWS))
@pytest.mark.parametrize("mesh_name", ["tri-k2", "skewed-quads", "hexagon-ring"])
@pytest.mark.parametrize("local_dt", [True, False])
def test_dt_over_mu_equals_per_group_reference(mesh_name, law_name, local_dt):
    disc, law = _disc(mesh_name), LAWS[law_name]()
    u = law.random_states(np.random.default_rng(3), disc.n_dofs).reshape(disc.n_dofs, law.p)
    config = sv.SolverConfig(cfl=0.7, local_dt=local_dt)
    mu = sv.lumped_measures(disc)
    for floor in (0.0, 2.5):
        assert np.array_equal(sv._dt_over_mu(disc, law, u, config, mu, floor),
                              ref_dt_over_mu(disc, law, u, config, mu, floor))


SOLVES = {
    # advection: the speeds never change, so the coefficient is built once
    "advection-tri": (lambda: ph.linear_advection(VELOCITY), "tri-k1",
                      lambda x: np.sin(3.0 * x[:, 0] - 2.0 * x[:, 1]), True),
    "advection-ring-uniform": (lambda: ph.linear_advection(VELOCITY), "hexagon-ring",
                               lambda x: x[:, 0] - x[:, 1] ** 2, False),
    # Burgers from rest: the speeds change on every step
    "burgers-tri": (ph.burgers_2d, "tri-k1", lambda x: 0.5 + 0.0 * x[:, 0], True),
    "burgers-ring": (ph.burgers_2d, "hexagon-ring", lambda x: 0.5 + 0.2 * x[:, 1], True),
    # the quad path of the benchmark, the exponential entropy at k=2, and a
    # central flux (an optional fifth entry names the flux)
    "advection-skewed-quads": (lambda: ph.linear_advection(VELOCITY), "skewed-quads",
                               lambda x: np.sin(3.0 * x[:, 0] - 2.0 * x[:, 1]), True),
    "exp-advection-tri-k2": (lambda: ph.exp_advection(EXP_VELOCITY), "tri-k2",
                             lambda x: np.cos(2.0 * x[:, 0] + x[:, 1]), True),
    "advection-central": (lambda: ph.linear_advection(VELOCITY), "tri-k1",
                          lambda x: np.sin(3.0 * x[:, 0] - 2.0 * x[:, 1]), True, "central"),
}


@pytest.mark.parametrize("case", list(SOLVES))
def test_solve_steady_equals_reference_loop(case):
    make_law, mesh_name, profile, local_dt, *flux = SOLVES[case]
    disc, law = _disc(mesh_name), make_law()
    bc = disc.boundary_values({"boundary": profile})
    config = sv.SolverConfig(cfl=0.5, max_iters=300, residual_tol=1e-30, local_dt=local_dt,
                             flux=flux[0] if flux else "rusanov")
    u, trace = sv.solve_steady(disc, law, config, bc)
    u_ref, trace_ref = ref_solve_steady(disc, law, config, bc)
    assert trace.iterations == trace_ref.iterations == 300
    assert np.array_equal(u, u_ref)
    assert trace == trace_ref
