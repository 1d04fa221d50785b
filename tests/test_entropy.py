from pathlib import Path

import numpy as np
import pytest

from polyfr import correction as co
from polyfr import entropy as en
from polyfr import mesh as pm
from polyfr import physics as ph
from polyfr import residual as rs
from polyfr.approximation import edge_rules, volume_rules
from polyfr.discretization import Discretization
from test_correction_tables import _hexagon_ring, _reference_backends, _skewed_quads
from test_mesh_properties import N_CELLS, _jittered

RNG = np.random.default_rng(77)
CASES = Path(__file__).resolve().parent.parent / "cases"


def _setup(mesh, k, law, seed=0):
    disc = Discretization(mesh, k)
    rng = np.random.default_rng(seed)
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, law.p)
    lo, hi = law.admissible_box
    bc = rng.uniform(lo, hi, size=(mesh.n_edges, disc.nq_edge, law.p))
    return disc, u, bc


# ---------------------------------------------------------------------------
# entropy error
# ---------------------------------------------------------------------------

def test_entropy_error_vanishes_on_constant_state():
    law = ph.burgers_2d()
    mesh = pm.structured_triangles(2)
    disc = Discretization(mesh, 1)
    u = np.full((disc.n_dofs, 1), 0.9)
    bc = np.full((mesh.n_edges, disc.nq_edge, 1), 0.9)
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    assert np.abs(en.entropy_error(fr)).max() <= 1e-12


def test_entropy_error_stable_under_quadrature_refinement():
    # advection with linear data: all integrands are polynomial and covered
    # by the default rules, so a much richer quadrature reproduces the same
    # per-element error
    law = ph.linear_advection([0.8, 0.3])
    mesh = pm.mesh_from_arrays([[0, 0], [1, 0], [0.2, 1.1]], [[0, 1, 2]])
    vals = []
    for vol_order, edge_order in ((2, 3), (8, 11)):
        disc = Discretization(mesh, 1, vol_order=vol_order, edge_order=edge_order)
        u = disc.interpolate_function(lambda pts: 0.4 + 1.3 * pts[:, 0] - 0.7 * pts[:, 1])
        bc = disc.boundary_values({"boundary": lambda pts: 0.4 + 1.3 * pts[:, 0] - 0.7 * pts[:, 1]})
        fr = rs.compute_residuals(disc, law, u, "fr", "central", bc)
        vals.append(en.entropy_error(fr))
    assert np.abs(vals[0] - vals[1]).max() <= 1e-11


def test_entropy_error_shift_between_variants_is_redistribution_pairing():
    law = ph.burgers_2d()
    disc, u, bc = _setup(pm.structured_triangles(2), 2, law)
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    ref = rs.compute_residuals(disc, law, u, "dg-interp", "rusanov", bc)
    e_fr = en.entropy_error(fr)
    e_ref = en.entropy_error(ref)
    vn = en.entropy_nodes(disc, law, u)
    v_dot_r = disc.element_reduce(lambda v, r: np.einsum("edp,edp->e", v, r), vn, fr.r_sigma)
    assert np.abs(e_ref - e_fr - v_dot_r).max() <= 1e-11


# ---------------------------------------------------------------------------
# conservative correction
# ---------------------------------------------------------------------------

# (sides, degree) of a one-element regular polygon with nd DOFs: the nd-gon
# at k=1, except 9 and 10 DOFs (no correction field is built on a regular 9-
# or 10-gon at k=1), which a quad at k=2 and a triangle at k=3 carry
_ONE_ELEMENT = {9: (4, 2), 10: (3, 3)}
_DISCS = {}


def _tau(v, e):
    """``tau_all`` on a one-element regular polygon whose DOFs carry the
    entropy variables ``v`` (nd, p), with element error ``e``."""
    nd = len(v)
    if nd not in _DISCS:
        sides, k = _ONE_ELEMENT.get(nd, (nd, 1))
        _DISCS[nd] = Discretization(pm.regular_polygon_mesh(sides), k)
    return en.tau_all(_DISCS[nd], v, np.array([e]))


def test_tau_hand_case():
    v = np.array([[0.0], [1.0], [2.0]])
    tau = _tau(v, 1.0)
    assert np.allclose(tau, [[-0.5], [0.0], [0.5]])
    assert abs(tau.sum()) == 0.0
    assert abs(float((v * tau).sum()) - 1.0) <= 1e-15


def test_tau_zero_error_gives_zero_correction():
    v = RNG.normal(size=(6, 1))
    assert np.abs(_tau(v, 0.0)).max() == 0.0


def test_tau_degenerate_policy():
    v = np.full((3, 1), 1.7)
    assert np.abs(_tau(v, 1e-13)).max() == 0.0
    with pytest.raises(en.DegenerateEntropyCorrection):
        _tau(v, 1.0)


def test_tau_identities_random_batch():
    # the two defining identities at many random draws
    for _ in range(200):
        nd = int(RNG.integers(3, 11))
        v = RNG.normal(size=(nd, 1)) * RNG.uniform(0.5, 3.0)
        e = float(RNG.normal())
        tau = _tau(v, e)
        assert abs(float(tau.sum())) <= 1e-12 * max(1.0, abs(e))
        assert abs(float((v * tau).sum()) - e) <= 1e-11 * max(1.0, abs(e))


@pytest.mark.parametrize(
    "mesh,k",
    [(pm.structured_triangles(2), 1), (pm.structured_quads(2), 2), (pm.regular_polygon_mesh(6), 1)],
)
def test_cs_balances_entropy_exactly(mesh, k):
    law = ph.burgers_2d()
    disc, u, bc = _setup(mesh, k, law)
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    cs = en.cs_residuals(fr)
    assert np.abs(en.entropy_error(cs)).max() <= 1e-11
    assert rs.element_conservation_defects(cs).max() <= 1e-11
    # zero entropy error leaves the residuals untouched
    e0 = en.entropy_error(fr)
    tau = en.tau_all(disc, fr.edges.vn, np.zeros_like(e0))
    assert np.abs(tau).max() == 0.0


def test_st_adds_nonnegative_dissipation():
    law = ph.burgers_2d()
    disc, u, bc = _setup(pm.structured_triangles(2), 1, law)
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    cs = en.cs_residuals(fr)
    st0 = en.st_residuals(cs, jump_coeff=0.0)
    assert np.abs(st0.phi - cs.phi).max() == 0.0
    st = en.st_residuals(cs, jump_coeff=0.3)
    vn = en.entropy_nodes(disc, law, u)
    added = disc.element_reduce(
        lambda v, psi: np.einsum("edp,edp->e", v, psi), vn, st.phi - cs.phi
    )
    assert added.min() >= 0.0
    assert added.max() > 0.0
    margin = -en.entropy_error(st)
    assert margin.min() >= -1e-11
    assert rs.element_conservation_defects(st).max() <= 1e-11


def test_interior_entropy_flux_telescopes_to_physical_boundary():
    law = ph.burgers_2d()
    disc, u, bc = _setup(pm.structured_triangles(3), 1, law)
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    total = fr.edges.gbal.sum()
    want = 0.0
    for eid in disc.mesh.boundary_edge_ids:
        want += float(np.dot(disc.edge_w[eid], fr.edges.ghat[eid]))
    assert abs(total - want) <= 1e-12 * max(1.0, abs(total))


def test_fr_entropy_condition_margin_identity():
    law = ph.burgers_2d()
    disc, u, bc = _setup(pm.structured_triangles(2), 1, law)
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    rep = en.fr_entropy_condition_check(fr)
    assert np.abs(rep["margin"] - rep["direct"]).max() <= 1e-11
    # both signs occur on random data (diagnostic, no assertion on sign)
    assert np.isfinite(rep["margin"]).all()


def test_fr_entropy_condition_zero_correction_case():
    # continuous linear data under linear transport: no interface mismatch,
    # so the margin is exactly the negated reference entropy error
    law = ph.linear_advection([1.0, 0.2])
    mesh = pm.two_triangle_square()
    disc = Discretization(mesh, 1)
    fn = lambda pts: 0.2 + pts[:, 0] - 0.5 * pts[:, 1]
    u = disc.interpolate_function(fn)
    bc = disc.boundary_values({"boundary": fn})
    fr = rs.compute_residuals(disc, law, u, "fr", "central", bc)
    assert np.abs(fr.r_sigma).max() <= 1e-13
    rep = en.fr_entropy_condition_check(fr)
    assert np.abs(rep["margin"] + rep["e_reference"]).max() <= 1e-12


def test_fr_entropy_condition_check_reuses_the_sets_record(monkeypatch):
    # the dg-interp reference is built on the fr set's own record: no second
    # interface-flux evaluation and one evaluation of the entropy variables
    law = ph.burgers_2d()
    disc, u, bc = _setup(pm.structured_triangles(4), 1, law, seed=3)
    want = en.entropy_error(rs.compute_residuals(disc, law, u, "dg-interp", "rusanov", bc))
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    calls = {"interface_fluxes": 0, "entropy_nodes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rs, "interface_fluxes", counted("interface_fluxes", rs.interface_fluxes))
    monkeypatch.setattr(en, "entropy_nodes", counted("entropy_nodes", en.entropy_nodes))
    rep = en.fr_entropy_condition_check(fr)
    assert calls == {"interface_fluxes": 0, "entropy_nodes": 1}
    assert np.array_equal(rep["e_reference"], want)


# ---------------------------------------------------------------------------
# entropy-conservative correction through prescribed moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "mesh,k",
    [
        (pm.regular_polygon_mesh(6), 1),
        (pm.structured_quads(2), 1),
        (pm.structured_triangles(2), 1),
        (pm.structured_triangles(2), 2),
        (pm.structured_triangles(2), 3),
    ],
)
def test_entropy_conservative_residuals(mesh, k):
    law = ph.burgers_2d()
    disc = Discretization(mesh, k)
    rng = np.random.default_rng(3)
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, 1)
    bc = rng.uniform(-2, 2, size=(mesh.n_edges, disc.nq_edge, 1))
    rset = en.entropy_conservative_residuals(disc, law, u, flux_kind="tadmor_ec", bc=bc)
    gap = en.entropy_error(rset)
    assert np.abs(gap).max() <= 1e-10
    assert rs.element_conservation_defects(rset).max() <= 1e-10
    assert np.abs(disc.element_reduce(lambda r: r.sum(axis=1), rset.r_sigma)).max() <= 1e-10


def _rt_field_misfit(disc, g, loc, alpha, target):
    """Largest relative miss of the least-squares RT_k field (from the raw
    span ``correction._rt_span``) asked for the normal traces ``alpha``
    (m, p) at the element's flux points and the interior moments
    oint grad(phi_s) . field dx = ``target`` (nd, p)."""
    mesh = disc.mesh
    eid = g.elem_ids[loc]
    coords = mesh.element_coords(eid)
    center, scale = coords.mean(axis=0), np.sqrt(mesh.elem_area[eid])
    edge_ids = mesh.element_edges(eid)
    rows = []
    for k in edge_ids:
        normal = (1.0 if mesh.edge_left[k] == eid else -1.0) * mesh.edge_normal[k]
        span = co._rt_span((disc.edge_pts[k] - center) / scale, disc.degree)
        rows.append(span @ normal)  # (nq, n_dim)
    vol_pts, vol_w = volume_rules("triangle", coords[None], disc.vol_order)
    span = co._rt_span((vol_pts[0] - center) / scale, disc.degree)  # (nq, n_dim, 2)
    grad = g.spaces.take(slice(loc, loc + 1)).grad(vol_pts)[0]  # (nq, nd, 2)
    moments = np.einsum("q,qdx,qix->di", vol_w[0], grad, span)
    mat = np.vstack(rows + [moments])
    rhs = np.vstack([alpha, target])
    coef, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return np.abs(mat @ coef - rhs).max() / max(1.0, np.abs(rhs).max())


REALISABILITY = {
    "jittered-tri-k1": lambda: (_jittered(pm.structured_triangles(N_CELLS), np.random.default_rng(11)), 1),
    "jittered-tri-k2": lambda: (_jittered(pm.structured_triangles(N_CELLS), np.random.default_rng(12)), 2),
    "jittered-tri-k3": lambda: (_jittered(pm.structured_triangles(N_CELLS), np.random.default_rng(13)), 3),
    "quads-k1": lambda: (pm.structured_quads(2), 1),
    "quads-k2": lambda: (pm.structured_quads(3), 2),
    "skewed-quads-k1": lambda: (_skewed_quads(), 1),
    "skewed-quads-k2": lambda: (_skewed_quads(), 2),
    "hexagon-ring": lambda: (_hexagon_ring(), 1),
}


@pytest.mark.parametrize("name", list(REALISABILITY))
def test_entropy_conservative_field_is_realisable(name):
    # the residuals never build their correction field; a field with the
    # dg-interp mismatch as normal traces and interior moments -r_sigma must
    # exist on every element: an RT_k field on triangles, the constrained
    # solve of a per-element Neumann backend on the other families
    mesh, k = REALISABILITY[name]()
    law = ph.burgers_2d()
    disc = Discretization(mesh, k)
    rng = np.random.default_rng(9)
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, 1)
    bc = rng.uniform(-2, 2, size=(mesh.n_edges, disc.nq_edge, 1))
    rset = en.entropy_conservative_residuals(disc, law, u, flux_kind="tadmor_ec", bc=bc)
    for g, alpha in zip(disc.groups, rset.alpha):
        refs = _reference_backends(disc, g) if g.correction == "neumann" else None
        for loc, dofs in enumerate(g.dof_idx):
            r_sigma = rset.r_sigma[dofs]
            if refs is None:
                assert _rt_field_misfit(disc, g, loc, alpha[loc], -r_sigma) <= 1e-12
                continue
            alist = list(alpha[loc].reshape(g.n_local_edges, disc.nq_edge, -1))
            fld = refs[loc].solve(alist, -r_sigma)
            assert fld.trace_defect() <= 1e-11  # the eq21 gate
            assert np.abs(fld.r_sigma - r_sigma).max() <= 1e-12 * max(1.0, np.abs(r_sigma).max())


# ---------------------------------------------------------------------------
# smoothness decomposition
# ---------------------------------------------------------------------------

SMOOTH = lambda pts: 0.8 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]) + 0.1


def _decomposition_values(law, k, ns):
    out = []
    for n in ns:
        mesh = pm.structured_triangles(n)
        disc = Discretization(mesh, k)
        u = disc.interpolate_function(SMOOTH)
        fr = rs.compute_residuals(
            disc, law, u, "fr", "rusanov",
            np.zeros((mesh.n_edges, disc.nq_edge, 1)),
        )
        terms = en.error_decomposition(fr)
        out.append(
            (mesh.h_max(), {t: float(np.abs(getattr(terms, t)).max())
                            for t in ("sur1", "sur2", "sur3", "bo", "co")})
        )
    return out


def _slope(rows, term):
    (h0, a), (h1, b) = rows[-2], rows[-1]
    return np.log(a[term] / b[term]) / np.log(h0 / h1)


def _reference_error_decomposition(disc, law, u, rset, vol_order, edge_order, ref_boost=6):
    """The decomposition terms element by element: per-element rules, spaces
    and edge loops (the per-element form of ``error_decomposition``), each
    a stack of one."""
    mesh = disc.mesh
    terms = {t: np.zeros(mesh.n_elements) for t in ("sur1", "sur2", "sur3", "bo", "co")}
    vn = en.entropy_nodes(disc, law, u)
    for eid in range(mesh.n_elements):
        g = disc.groups[disc.elem_group[eid]]
        loc = disc.elem_local[eid]
        space, dofs = g.spaces.take(slice(loc, loc + 1)), g.dof_idx[loc]
        U, V = u[dofs], vn[dofs]
        F = law.flux(U)
        coords = mesh.element_coords(eid)[None]

        def basis(pts):  # values and gradients at the points (nq, 2)
            return space.eval(pts[None])[0], space.grad(pts[None])[0]

        def div_vf(pts):
            val, grad = basis(pts)
            return (np.einsum("qdx,dp,qt,tpx->q", grad, V, val, F)
                    + np.einsum("qd,dp,qtx,tpx->q", val, V, grad, F))

        (lo_pts,), (lo_w,) = volume_rules(g.kind, coords, vol_order)
        (hi_pts,), (hi_w,) = volume_rules(g.kind, coords, vol_order + ref_boost)
        terms["sur1"][eid] = np.dot(lo_w, div_vf(lo_pts)) - np.dot(hi_w, div_vf(hi_pts))
        val, grad = basis(hi_pts)
        uq = val @ U
        du = np.einsum("qdx,dp->qpx", grad, U)
        divf_pt = np.einsum("qipx,qpx->qi", law.flux_jac(uq), du)
        v_gap = val @ V - law.entropy_vars(uq)
        terms["sur2"][eid] = np.einsum("q,qp,qp->", hi_w, v_gap, divf_pt)
        divfh = np.einsum("qdx,dpx->qp", grad, F)
        terms["sur3"][eid] = np.einsum("q,qp,qp->", hi_w, val @ V, divfh - divf_pt)
        for edge_id in mesh.element_edges(eid):
            sgn = 1.0 if mesh.edge_left[edge_id] == eid else -1.0
            v0, v1 = mesh.vertices[mesh.edge_vertices[edge_id]][:, None]
            for order, s in ((edge_order, 1.0), (edge_order + ref_boost, -1.0)):
                (pts,), (w,) = edge_rules(v0, v1, order)
                val = space.eval(pts[None])[0]
                flux = ph.normal_flux(law, val @ U, sgn * mesh.edge_normal[edge_id])
                terms["bo"][eid] += s * np.dot(w, np.einsum("qp,qp->q", val @ V, flux))
        terms["co"][eid] = np.einsum("dp,dp->", V, rset.r_sigma[dofs])
    return terms


def _skewed_quads():
    base = pm.structured_quads(3)
    v = base.vertices.copy()
    inner = np.all((v > 1e-9) & (v < 1 - 1e-9), axis=1)
    v[inner] += np.random.default_rng(4).uniform(-0.08, 0.08, size=(inner.sum(), 2))
    return pm.mesh_from_arrays(v, base.elem_vertex_ids.reshape(base.n_elements, -1))


def _hexagon_ring():
    ang = np.pi / 3 * np.arange(6)
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    elems = [list(range(6)), [0, 1, 7], [0, 7, 6]]
    elems += [[i, (i + 1) % 6, 6 + (i + 1) % 6, 6 + i] for i in range(1, 6)]
    return pm.mesh_from_arrays(np.vstack([0.5 * ring, ring]), elems)


@pytest.mark.parametrize("name,k", [("tri32", 1), ("tri32", 2), ("hexagon-ring", 1),
                                    ("skewed-quads", 1), ("skewed-quads", 2)])
@pytest.mark.parametrize("law", [ph.burgers_2d(), ph.exp_advection([1.0, 0.5])],
                         ids=["burgers", "exp-advection"])
def test_stacked_decomposition_matches_per_element_reference(name, k, law):
    mesh = {"tri32": lambda: pm.load_mesh(CASES / "tri_32.mesh.json"),
            "hexagon-ring": _hexagon_ring, "skewed-quads": _skewed_quads}[name]()
    disc, u, bc = _setup(mesh, k, law, seed=3)
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    for orders in ((None, None), (2 * k, 2 * k + 1)):
        got = en.error_decomposition(fr, *orders)
        ref = _reference_error_decomposition(disc, law, u, fr, orders[0] or k, orders[1] or k + 1)
        # quadrature gaps that vanish in exact arithmetic are round-off of the
        # integrals they difference: measure against the largest term
        scale = max(np.abs(r).max() for r in ref.values())
        assert scale > 0
        for term, want in ref.items():
            assert np.abs(getattr(got, term) - want).max() <= 1e-13 * scale, term


def test_decomposition_exact_regimes_are_zero():
    # linear transport with quadratic entropy: every interpolation gap and
    # every quadrature gap is covered by the default rules
    rows = _decomposition_values(ph.linear_advection([1.0, 0.5]), 1, (2, 4))
    for _, vals in rows:
        assert vals["sur1"] <= 1e-14
        assert vals["sur2"] <= 1e-14
        assert vals["sur3"] <= 1e-14
        assert vals["bo"] <= 1e-14


def test_decomposition_decay_orders_k1():
    law = ph.burgers_2d()
    rows = _decomposition_values(law, 1, (4, 8, 16))
    assert _slope(rows, "co") >= 1 + 3 - 0.4
    # the flux-interpolation term trades one order for its boundary part
    assert _slope(rows, "sur3") >= 1 + 2 - 0.4
    rows = _decomposition_values(ph.exp_advection([1.0, 0.5]), 1, (4, 8, 16))
    assert _slope(rows, "sur2") >= 1 + 3 - 0.6


def test_decomposition_decay_orders_k2():
    law = ph.burgers_2d()
    rows = _decomposition_values(law, 2, (4, 8, 16))
    for term in ("sur1", "sur3", "bo", "co"):
        assert _slope(rows, term) >= 2 + 3 - 0.6, term


# ---------------------------------------------------------------------------
# element-split diagnostics
# ---------------------------------------------------------------------------

# linear-triangle meshes: one interior edge, then many
SPLIT_MESHES = {
    "tri2": pm.two_triangle_square(),
    "tri32": pm.load_mesh(CASES / "tri_32.mesh.json"),
    "jittered-tri": _jittered(pm.structured_triangles(N_CELLS), np.random.default_rng(5)),
}


def _split_setup(mesh, law=None, seed=1):
    law = law or ph.burgers_2d()
    disc = Discretization(mesh, 1)
    rng = np.random.default_rng(seed)
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, 1)
    bc = rng.uniform(*law.admissible_box, size=(mesh.n_edges, disc.nq_edge, 1))
    fr = rs.compute_residuals(disc, law, u, "fr", "tadmor_ec", bc)
    return disc, law, u, fr


def test_element_split_two_formulations_agree():
    for name, mesh in SPLIT_MESHES.items():
        disc, law, u, fr = _split_setup(mesh)
        rep = en.appendix_decomposition(fr)
        gap = np.abs(rep.c_k - rep.c_k_graph)
        assert np.all(gap <= 1e-10 * np.maximum(1.0, np.abs(rep.c_k))), name


def test_element_split_exact_identity():
    # un-halved pairwise sum minus the boundary jump part reproduces the
    # entropy gap measured with the potential-average interface flux
    for name, mesh in SPLIT_MESHES.items():
        disc, law, u, fr = _split_setup(mesh)
        rep = en.appendix_decomposition(fr)
        got = rep.c_k_full - rep.b_dk
        assert np.all(np.abs(got - rep.entropy_gap) <= 1e-11 * np.maximum(1.0, np.abs(got))), name


def test_element_split_constant_state_vanishes():
    law = ph.burgers_2d()
    for name, mesh in SPLIT_MESHES.items():
        disc = Discretization(mesh, 1)
        u = np.full((disc.n_dofs, 1), -0.7)
        bc = np.full((mesh.n_edges, disc.nq_edge, 1), -0.7)
        fr = rs.compute_residuals(disc, law, u, "fr", "tadmor_ec", bc)
        rep = en.appendix_decomposition(fr)
        assert np.abs(rep.c_k).max() <= 1e-12, name
        assert np.abs(rep.b_dk).max() <= 1e-12, name


def test_element_split_boundary_part_vanishes_for_continuous_traces():
    # continuous nodal data: interface jumps of both entropy variables and
    # the interpolated potential vanish, so the boundary functional is zero
    law = ph.burgers_2d()
    fn = lambda pts: 0.3 + 0.8 * pts[:, 0] - 0.2 * pts[:, 1]
    for name, mesh in SPLIT_MESHES.items():
        disc = Discretization(mesh, 1)
        u = disc.interpolate_function(fn)
        bc = disc.boundary_values({"boundary": fn})
        fr = rs.compute_residuals(disc, law, u, "fr", "tadmor_ec", bc)
        rep = en.appendix_decomposition(fr)
        assert np.abs(rep.b_dk).max() <= 1e-13, name
