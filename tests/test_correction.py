import numpy as np
import pytest

from polyfr import approximation as ap
from polyfr import correction as co
from polyfr import mesh as pm
from polyfr import physics as ph
from polyfr import residual as rs
from polyfr.discretization import Discretization

RNG = np.random.default_rng(55)

TRI = np.array([[0.1, 0.0], [1.3, 0.2], [0.3, 1.1]])


def _edge_rules(coords, order):
    """Points (n, nq, 2) and weights (n, nq) of the element's edge rules,
    and the outward unit normals (n, 2) of its edges."""
    ahead = np.roll(coords, -1, axis=0)
    pts, w = ap.edge_rules(coords, ahead, order)
    t = ahead - coords
    return pts, w, np.stack([t[:, 1], -t[:, 0]], axis=1) / np.hypot(t[:, 0], t[:, 1])[:, None]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_rt_basis_member_count_and_space_dimension(p):
    basis = co.RTBasis(p, TRI)
    assert basis.n_members == 3 * (p + 1)
    # the construction solves a square system of dimension (p+1)(p+3),
    # verified numerically through its rank
    raw = basis._raw_eval(RNG.random((200, 2)) * 0.3 + 0.2)
    mat = raw.transpose(0, 2, 1).reshape(-1, raw.shape[1])
    assert np.linalg.matrix_rank(mat, tol=1e-10) == (p + 1) * (p + 3)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_rt_cardinal_trace_matrix_is_identity(p):
    basis = co.RTBasis(p, TRI)
    blocks = [basis.normal_trace(e, basis.flux_points[e]) for e in range(3)]
    mat = np.vstack(blocks)
    assert np.abs(mat - np.eye(basis.n_members)).max() <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_rt_divergence_and_trace_polynomial_degrees(p):
    basis = co.RTBasis(p, TRI)
    # divergence values fit a total-degree-p polynomial exactly
    pts = RNG.random((25, 2)) * 0.3 + 0.2
    vand = np.stack(
        [pts[:, 0] ** a * pts[:, 1] ** b for a in range(p + 1) for b in range(p + 1 - a)],
        axis=1,
    )
    div = basis.div(pts)
    coef, *_ = np.linalg.lstsq(vand, div, rcond=None)
    assert np.abs(vand @ coef - div).max() <= 1e-11
    # edge-normal traces fit a 1D degree-p polynomial exactly
    t = np.linspace(0.05, 0.95, p + 5)
    seg = TRI[1][None, :] + t[:, None] * (TRI[2] - TRI[1])[None, :]
    tr = basis.normal_trace(1, seg)
    coef, *_ = np.linalg.lstsq(np.vander(t, p + 1), tr, rcond=None)
    assert np.abs(np.vander(t, p + 1) @ coef - tr).max() <= 1e-11


def test_rt_singular_flux_points_rejected():
    bad = [np.tile(TRI[0] + 0.5 * (TRI[1] - TRI[0]), (2, 1))] * 3  # duplicated points
    with pytest.raises(co.CorrectionError, match="singular|coincide"):
        co.RTBasis(1, TRI, flux_points=bad)


def test_rt_requires_triangle_and_supported_order():
    with pytest.raises(co.CorrectionError):
        co.RTBasis(4, TRI)
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
    with pytest.raises(co.CorrectionError):
        co.RTBasis(1, square)


def _rt_backend(k):
    sp = ap.TriangleSpaces(TRI[None], k)
    (vol_pts,), (vol_w,) = ap.volume_rules("triangle", TRI[None], 2 * k)
    edge_pts, _, _ = _edge_rules(TRI, 2 * k + 1)
    basis = co.RTBasis(k, TRI, flux_points=list(edge_pts))
    return co.RTCorrectionBackend(basis, sp, vol_pts, vol_w, edge_pts), sp, (vol_pts, vol_w), edge_pts


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rt_field_zero_mismatch_gives_zero_field(k):
    backend, sp, _, edge_pts = _rt_backend(k)
    alpha = [np.zeros((len(pts), 1)) for pts in edge_pts]
    fld = backend.field(alpha)
    assert fld.trace_defect() == 0.0
    assert np.abs(fld.r_sigma).max() == 0.0
    assert np.abs(fld.volume_integral).max() == 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_rt_field_matches_trace_and_requadrature_oracle(k):
    backend, sp, (vol_pts, vol_w), edge_pts = _rt_backend(k)
    alpha = [RNG.normal(size=(len(pts), 1)) for pts in edge_pts]
    fld = backend.field(alpha)
    assert fld.trace_defect() <= 1e-12
    assert fld.r_sum() <= 1e-12 * fld.scale()
    # independent re-quadrature of r_sigma from pointwise field values
    coeff = np.vstack(alpha)
    field_at = np.einsum("qmx,mp->qpx", backend.basis.eval(vol_pts), coeff)
    grads = sp.grad(vol_pts[None])[0]
    r_oracle = -np.einsum("q,qdx,qpx->dp", vol_w, grads, field_at)
    assert np.abs(r_oracle - fld.r_sigma).max() <= 1e-12


def test_admissibility_flags_corrupted_trace():
    disc = Discretization(pm.structured_triangles(2), 1)
    law = ph.burgers_2d()
    u = law.random_states(RNG, disc.n_dofs).reshape(disc.n_dofs, 1)
    bc = RNG.uniform(-2, 2, size=(disc.mesh.n_edges, disc.nq_edge, 1))
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    eq21, eq27 = rs.correction_defects(fr)
    assert eq21.max() <= 1e-11 and eq27.max() <= 1e-11
    # RT traces are cardinal: scaled by 1.1 they miss alpha by 0.1 |alpha|
    disc.groups[0].corr_trace = 1.1 * disc.groups[0].corr_trace
    eq21, _ = rs.correction_defects(fr)
    mag = np.abs(fr.alpha[0]).max(axis=(1, 2))
    assert np.all(eq21 >= 0.099 * mag)
    assert eq21.max() > 1e-11
    # a redistribution vector that no longer sums to zero shows in eq27
    fr.r_sigma[disc.dof_offset[3]] += 1.0
    _, eq27 = rs.correction_defects(fr)
    assert eq27[3] > 1e-3
    assert np.delete(eq27, 3).max() <= 1e-11


# ---------------------------------------------------------------------------
# constrained (discrete Neumann) backend
# ---------------------------------------------------------------------------

def _neumann_backend(coords, k, vol_order=None):
    kind = ap.element_kind(len(coords))
    sp = ap.SPACES[kind](coords[None], k)
    order = vol_order if vol_order is not None else (24 if kind == "polygon" else 2 * k + 12)
    (vol_pts,), (vol_w,) = ap.volume_rules(kind, coords[None], order)
    edge_pts, edge_w, normals = _edge_rules(coords, 2 * k + 1)
    backend = co.NeumannCorrectionBackend(sp, vol_pts, vol_w, edge_pts, normals)
    return backend, sp, edge_pts, edge_w


def test_neumann_zero_data_gives_zero_field():
    backend, _, edge_pts, _ = _neumann_backend(TRI, 1)
    alpha = [np.zeros((len(pts), 1)) for pts in edge_pts]
    fld = backend.solve(alpha, np.zeros((3, 1)))
    assert fld.trace_defect() <= 1e-14
    assert np.abs(fld.r_sigma).max() <= 1e-14
    assert np.abs(fld.div_moments).max() <= 1e-14


def test_neumann_constant_trace_has_zero_moment_sum():
    # gradients of the linear basis sum to zero, so prescribing any constant
    # normal trace leaves the moment sum at zero automatically
    backend, _, edge_pts, _ = _neumann_backend(TRI, 1)
    alpha = [np.ones((len(pts), 1)) for pts in edge_pts]
    fld = backend.solve(alpha, np.zeros((3, 1)))
    assert fld.trace_defect() <= 1e-12
    assert abs(float(fld.r_sigma.sum())) <= 1e-12


@pytest.mark.parametrize(
    "coords,k",
    [
        (np.array([[0.0, 0.0], [1.2, 0.1], [1.0, 1.1], [0.1, 0.9]]), 1),
        (np.array([[0.0, 0.0], [1.2, 0.1], [1.0, 1.1], [0.1, 0.9]]), 2),
        (pm.regular_polygon_mesh(6).element_coords(0), 1),
        (TRI, 2),
    ],
)
def test_neumann_random_compatible_targets(coords, k):
    backend, sp, edge_pts, edge_w = _neumann_backend(coords, k)
    alpha = [RNG.normal(size=(len(pts), 1)) for pts in edge_pts]
    target = RNG.normal(size=(sp.dof_coords.shape[1], 1))
    target -= target.mean(axis=0, keepdims=True)
    fld = backend.solve(alpha, target)
    scale = max(1.0, float(np.abs(target).max()))
    assert fld.solve_residual <= 1e-9 * scale
    assert fld.trace_defect() <= 1e-10 * max(1.0, max(np.abs(np.vstack(alpha)).max(), 1))
    # prescribed moments flip sign in the induced redistribution vectors
    assert np.abs(fld.r_sigma + target).max() <= 1e-9 * scale
    # independent re-quadrature: moments recomputed from the divergence form
    bnd = np.zeros_like(fld.r_sigma)
    for e, (pts, w) in enumerate(zip(edge_pts, edge_w)):
        phi = sp.eval(pts[None])[0]
        bnd += np.einsum("q,qd,qp->dp", w, phi, fld.traces[e])
    assert np.abs(fld.div_moments - bnd - fld.r_sigma).max() <= 5e-9 * scale


def test_neumann_incompatible_targets_rejected():
    backend, sp, edge_pts, _ = _neumann_backend(TRI, 1)
    alpha = [np.zeros((len(pts), 1)) for pts in edge_pts]
    bad = np.ones((sp.dof_coords.shape[1], 1))
    with pytest.raises(co.CorrectionError, match="sum to zero"):
        backend.solve(alpha, bad)


def test_neumann_traces_reproduce_low_degree_interpolant_on_whole_edge():
    # the constrained trace equals the interpolant through the edge-point
    # data everywhere on the edge, not only at the constraint points
    coords = pm.regular_polygon_mesh(6).element_coords(0)
    backend, _, edge_pts, _ = _neumann_backend(coords, 1)
    alpha = [RNG.normal(size=(len(pts), 1)) for pts in edge_pts]
    fld = backend.solve(alpha, np.zeros((6, 1)))
    for e, rule_pts in enumerate(edge_pts):
        npts = len(rule_pts)
        tq, _ = ap.gauss_legendre_01(npts)
        t_new = np.linspace(0.15, 0.85, 5)
        span = rule_pts[-1] - rule_pts[0]
        p0 = rule_pts[0] - tq[0] * span / (tq[-1] - tq[0])
        p1 = p0 + span / (tq[-1] - tq[0])
        pts = p0[None, :] + t_new[:, None] * (p1 - p0)[None, :]
        # evaluate the field trace directly via the solve operators
        b_tr = np.vstack([op @ a for op, a in zip(backend._interp_ops, alpha)])
        coeffs = backend._s_tr @ b_tr
        trace = (backend.field_basis(pts) @ backend._edge_normals[e]) @ coeffs
        interp = ap.lagrange_values(tq, t_new) @ alpha[e]
        assert np.abs(trace - interp).max() <= 1e-10
