"""Per-group correction tables against the per-element backends, the
table-driven residuals against the per-element formula, and the table-driven
admissibility defects against the per-element fields.  The per-element
references (``RTBasis``/``RTCorrectionBackend`` on RT groups,
``NeumannCorrectionBackend`` elsewhere) are built here, each from its
element's space, edge rules and volume rule as stacks of one; a
``Discretization`` keeps no per-element objects."""

from pathlib import Path

import numpy as np
import pytest

from polyfr import approximation as ap
from polyfr import correction as co
from polyfr import mesh as pm
from polyfr import physics as ph
from polyfr import residual as rs
from polyfr.approximation import edge_rules, volume_rules
from polyfr.discretization import Discretization
from polyfr.solver import manufactured_error
from test_mesh_properties import N_CELLS, _jittered

CASES = Path(__file__).resolve().parent.parent / "cases"


def _skewed_quads():
    base = pm.structured_quads(3)
    v = base.vertices.copy()
    inner = np.all((v > 1e-9) & (v < 1 - 1e-9), axis=1)
    v[inner] += np.random.default_rng(4).uniform(-0.08, 0.08, size=(inner.sum(), 2))
    return pm.mesh_from_arrays(v, base.elem_vertex_ids.reshape(base.n_elements, -1))


def _mixed_quads():
    # one interior vertex of a 4x4 grid moved: its four quads are skewed,
    # the others parallelograms, whose trace rows have a lower rank
    base = pm.structured_quads(4)
    v = base.vertices.copy()
    v[np.argmin(np.hypot(v[:, 0] - 0.25, v[:, 1] - 0.25))] += (0.03, -0.02)
    return pm.mesh_from_arrays(v, base.elem_vertex_ids.reshape(base.n_elements, -1))


def _hexagon_ring():
    # a hexagon inside a ring of trapezoids, one of them split into two
    # triangles: three element groups sharing interior edges
    ang = np.pi / 3 * np.arange(6)
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    verts = np.vstack([0.5 * ring, ring])
    elems = [list(range(6)), [0, 1, 7], [0, 7, 6]]
    elems += [[i, (i + 1) % 6, 6 + (i + 1) % 6, 6 + i] for i in range(1, 6)]
    return pm.mesh_from_arrays(verts, elems)


MESHES = {
    "tri-k1": lambda: (pm.structured_triangles(3), 1),
    "tri-k2": lambda: (pm.structured_triangles(2), 2),
    "quad16": lambda: (pm.load_mesh(CASES / "quad_16.mesh.json"), 1),
    "skew-quad": lambda: (_skewed_quads(), 1),
    "mixed-quad": lambda: (_mixed_quads(), 1),
    "hexagon": lambda: (pm.load_mesh(CASES / "hexagon.mesh.json"), 1),
    "hexagon-ring": lambda: (_hexagon_ring(), 1),
    "jittered-tri-k1": lambda: (_jittered(pm.structured_triangles(N_CELLS), np.random.default_rng(1)), 1),
    "jittered-tri-k2": lambda: (_jittered(pm.structured_triangles(N_CELLS), np.random.default_rng(2)), 2),
    "jittered-tri-k3": lambda: (_jittered(pm.structured_triangles(N_CELLS), np.random.default_rng(3)), 3),
}


def _reference_backends(disc, g):
    """One per-element backend per element of group ``g``, built from
    per-element edge and volume rules at the group's volume orders: RT
    references on an RT group, Neumann backends on the others."""
    assert g.correction in ("rt", "neumann")
    mesh = disc.mesh
    refs = []
    orders = disc._volume_orders(g.kind, g.spaces, g.elem_ids)
    for loc, (eid, order) in enumerate(zip(g.elem_ids, orders)):
        coords = mesh.element_coords(eid)
        edge_ids = mesh.element_edges(eid)
        ends = mesh.vertices[mesh.edge_vertices[edge_ids]]
        edge_pts, _ = edge_rules(ends[:, 0], ends[:, 1], disc.edge_order)  # (n, nq, 2)
        (vol_pts,), (vol_w,) = volume_rules(g.kind, coords[None], order)
        space = g.spaces.take(slice(loc, loc + 1))
        if g.correction == "rt":
            basis = co.RTBasis(disc.degree, coords, flux_points=list(edge_pts))
            refs.append(co.RTCorrectionBackend(basis, space, vol_pts, vol_w, edge_pts))
        else:
            normals = [(1.0 if mesh.edge_left[k] == eid else -1.0) * mesh.edge_normal[k]
                       for k in edge_ids]
            refs.append(co.NeumannCorrectionBackend(space, vol_pts, vol_w, edge_pts, normals))
    # an empty reference list would make every per-element check vacuous
    assert len(refs) == g.n_elements > 0
    return refs


def _reference_field(backend, alist):
    if isinstance(backend, co.RTCorrectionBackend):
        return backend.field(alist)
    return backend.free_field(alist)


def _term_scales(backend, alist):
    """|A| |B| |alpha| bound of the products the reference field sums, per
    output (r_sigma, div moments, volume integral transposed, traces).

    The two evaluation orders differ by round-off of this size; relative to
    the output they can differ by more, since the Neumann solve operator
    has large entries that cancel (on skewed quads the reference itself is
    off by 2e-13 of its output against an extended-precision evaluation).
    """
    if isinstance(backend, co.RTCorrectionBackend):
        coef = np.abs(np.vstack(alist))
        tabs = (backend.r_table, backend.div_table, backend.vol_table.T,
                np.vstack(backend.trace_tables))
    else:
        b_tr = np.vstack([np.abs(op) @ np.abs(a) for op, a in zip(backend._interp_ops, alist)])
        coef = np.abs(backend._p_tr) @ b_tr
        tabs = (backend._r_coef, backend._div_coef, backend._vol_coef.T,
                np.vstack(backend._trace_coef))
    return [np.abs(tab) @ coef for tab in tabs]


@pytest.mark.parametrize("name", list(MESHES))
def test_group_tables_match_per_element_backends(name):
    mesh, k = MESHES[name]()
    disc = Discretization(mesh, k)
    rng = np.random.default_rng(17)
    nq = disc.nq_edge
    for g in disc.groups:
        want_kind = co.RTCorrectionBackend if g.kind == "triangle" else co.NeumannCorrectionBackend
        backends = _reference_backends(disc, g)
        assert all(isinstance(b, want_kind) for b in backends)
        m = g.n_local_edges * nq
        alpha = rng.standard_normal((g.n_elements, m, 2))
        r = np.einsum("edm,emp->edp", g.corr_r, alpha)
        div = np.einsum("edm,emp->edp", g.corr_div, alpha)
        vol = np.einsum("emp,emx->epx", alpha, g.corr_vol)
        traces = np.einsum("emn,enp->emp", g.corr_trace, alpha)
        for loc, backend in enumerate(backends):
            alist = list(alpha[loc].reshape(-1, nq, 2))
            ref = _reference_field(backend, alist)
            pairs = (
                (r[loc], ref.r_sigma),
                (div[loc], ref.div_moments),
                (vol[loc].T, ref.volume_integral.T),
                (traces[loc], np.concatenate(ref.traces)),
            )
            for (got, want), scale in zip(pairs, _term_scales(backend, alist)):
                assert np.abs(got - want).max() <= 1e-13 * scale.max()


@pytest.mark.parametrize("name", list(MESHES))
def test_fr_residuals_match_per_element_formula(name):
    mesh, k = MESHES[name]()
    disc = Discretization(mesh, k)
    law = ph.burgers_2d()
    rng = np.random.default_rng(23)
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, 1)
    bc = rng.uniform(-2, 2, size=(mesh.n_edges, disc.nq_edge, 1))
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    strong = rs.compute_residuals(disc, law, u, "fr-strong", "rusanov", bc)
    backends = [_reference_backends(disc, g) for g in disc.groups]
    for eid in range(mesh.n_elements):
        g = disc.groups[disc.elem_group[eid]]
        loc = disc.elem_local[eid]
        nd = g.n_dof
        dofs = g.dof_idx[loc]
        F = law.flux(u[dofs])  # (nd, p, 2)
        edge_term = np.zeros((nd, 1))
        alist = []
        for edge_id in mesh.element_edges(eid):
            left = mesh.edge_left[edge_id] == eid
            sign = 1.0 if left else -1.0
            tr = disc.edge_phi[0 if left else 1, edge_id][:, :nd]
            fstar = fr.edges.fhat_star[edge_id]
            edge_term += sign * tr.T @ (disc.edge_w[edge_id][:, None] * fstar)
            fhn = np.einsum("qd,dpx,x->qp", tr, F, mesh.edge_normal[edge_id])
            alist.append(sign * (fstar - fhn))
        fld = _reference_field(backends[disc.elem_group[eid]][loc], alist)
        want_fr = edge_term - np.einsum("dtx,tpx->dp", g.stiff[loc], F) + fld.r_sigma
        want_strong = np.einsum("dtx,tpx->dp", g.dstrong[loc], F) + fld.div_moments
        for got, want in ((fr.phi[dofs], want_fr), (strong.phi[dofs], want_strong)):
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert np.abs(fr.r_sigma[dofs] - fld.r_sigma).max() <= 1e-12 * max(
            1.0, np.abs(fld.r_sigma).max()
        )


@pytest.mark.parametrize("name", list(MESHES))
def test_correction_defects_match_reference_fields(name):
    mesh, k = MESHES[name]()
    disc = Discretization(mesh, k)
    law = ph.burgers_2d()
    rng = np.random.default_rng(29)
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, 1)
    bc = rng.uniform(-2, 2, size=(mesh.n_edges, disc.nq_edge, 1))
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov", bc)
    eq21, eq27 = rs.correction_defects(fr)
    for g, alpha in zip(disc.groups, fr.alpha):
        backends = _reference_backends(disc, g)
        for loc, (eid, backend) in enumerate(zip(g.elem_ids, backends)):
            alist = list(alpha[loc].reshape(g.n_local_edges, disc.nq_edge, 1))
            ref = _reference_field(backend, alist)
            r_scale, _, _, t_scale = _term_scales(backend, alist)
            assert abs(eq21[eid] - ref.trace_defect()) <= 1e-13 * t_scale.max()
            # r_sum adds n_dof terms, each within the table round-off
            want = ref.r_sum() / ref.scale()
            assert abs(eq27[eid] - want) <= 1e-13 * g.n_dof * r_scale.max()
            assert max(eq21[eid], eq27[eid]) <= 1e-11


@pytest.mark.parametrize("name", list(MESHES))
def test_nsigma_matches_per_element_edge_loop(name):
    mesh, k = MESHES[name]()
    disc = Discretization(mesh, k)
    for g in disc.groups:
        for loc, eid in enumerate(g.elem_ids):
            want = np.zeros((g.n_dof, 2))
            for edge_id in mesh.element_edges(eid):
                ends = mesh.vertices[mesh.edge_vertices[edge_id]]
                pts, w = edge_rules(ends[None, 0], ends[None, 1], disc.edge_order)
                sign = 1.0 if mesh.edge_left[edge_id] == eid else -1.0
                phi = g.spaces.take(slice(loc, loc + 1)).eval(pts)
                want -= sign * np.einsum(
                    "q,qd,x->dx", w[0], phi[0], mesh.edge_normal[edge_id]
                )
            assert np.abs(g.nsigma[loc] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("name", list(MESHES))
def test_backend_edge_rules_are_edge_quadrature(name):
    # both correction builds take the stored edge rules: the stacked RT build
    # as its flux points, the Neumann build as its per-element edge rules
    mesh, k = MESHES[name]()
    disc = Discretization(mesh, k)
    for g in disc.groups:
        rows = g.inc_edge.reshape(g.n_elements, g.n_local_edges)
        for loc, eid in enumerate(g.elem_ids):
            edge_ids = mesh.element_edges(eid)
            assert np.array_equal(rows[loc], edge_ids)
            for edge_id in edge_ids:
                ends = mesh.vertices[mesh.edge_vertices[edge_id]]
                (pts,), (w,) = edge_rules(ends[None, 0], ends[None, 1], disc.edge_order)
                assert np.array_equal(disc.edge_pts[edge_id], pts)
                assert np.array_equal(disc.edge_w[edge_id], w)


def test_discretization_builds_no_per_element_rt_objects(monkeypatch):
    # every family's correction tables come from one stacked build per group
    def refuse(*args, **kwargs):
        raise AssertionError("per-element correction object built")

    for name in ("RTBasis", "RTCorrectionBackend", "NeumannCorrectionBackend"):
        monkeypatch.setattr(co, name, refuse)
    for name in ("tri-k1", "tri-k2", "quad16", "skew-quad", "hexagon", "hexagon-ring"):
        mesh, k = MESHES[name]()
        disc = Discretization(mesh, k)
        for g in disc.groups:
            assert g.correction == ("rt" if g.kind == "triangle" else "neumann")


def test_constrained_build_work_does_not_grow_with_the_mesh(monkeypatch):
    # one batched SVD per tried field degree, whatever the element count
    svd, calls = np.linalg.svd, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    counts = []
    for n in (4, 8):
        calls[0] = 0
        Discretization(pm.structured_quads(n), 1)
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


def _count_space_builds(monkeypatch):
    """Count the spaces each family builds, keyed by family."""
    counts = dict.fromkeys(ap.SPACES, 0)
    for kind, cls in ap.SPACES.items():
        def counted(self, *args, _init=cls.__init__, _kind=kind, **kwargs):
            counts[_kind] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_run_path_builds_no_per_element_triangle_spaces(monkeypatch):
    # one stacked P_k space per triangle group serves the build, its
    # incidence traces and the error measurement
    counts = _count_space_builds(monkeypatch)
    mesh = pm.structured_triangles(8)
    for k in (1, 2, 3):
        counts.update(dict.fromkeys(counts, 0))
        disc = Discretization(mesh, k)
        u = disc.interpolate_function(lambda x: x[:, 0] * x[:, 1])
        manufactured_error(disc, u, lambda x: x[:, 0] * x[:, 1])
        assert len(disc.groups) == 1
        assert counts == {"triangle": 1, "quad": 0, "polygon": 0}


def test_build_and_error_make_no_per_element_space_calls(monkeypatch):
    # every family's stacked space, one per group, serves the build, its
    # correction tables, the incidence traces, the boosted polygon orders
    # and the error measurement
    counts = _count_space_builds(monkeypatch)
    for name in ("quad16", "hexagon-ring"):
        counts.update(dict.fromkeys(counts, 0))
        mesh, k = MESHES[name]()
        disc = Discretization(mesh, k)
        u = disc.interpolate_function(lambda x: x[:, 0] * x[:, 1])
        manufactured_error(disc, u, lambda x: x[:, 0] * x[:, 1])
        assert any(g.correction == "neumann" for g in disc.groups)
        assert counts == {kind: sum(g.kind == kind for g in disc.groups) for kind in counts}


def test_singular_dual_matrix_names_the_element():
    # the hexagon ring's triangles are mesh elements 1 and 2
    mesh, k = MESHES["hexagon-ring"]()
    disc = Discretization(mesh, k)
    (g,) = [g for g in disc.groups if g.kind == "triangle"]
    rows = g.inc_edge.reshape(g.n_elements, g.n_local_edges)
    flux_points = disc.edge_pts[rows].copy()  # (nE, 3, k+1, 2)
    tables = co.rt_group_tables(k, g.coords, flux_points, disc.vol_order, g.elem_ids)
    for got, want in zip(tables, (g.corr_r, g.corr_div, g.corr_vol, g.corr_trace)):
        assert np.array_equal(got, want)
    # two coinciding flux points on one edge: two equal trace functionals
    flux_points[1, 2, 1] = flux_points[1, 2, 0]
    with pytest.raises(co.CorrectionError, match=f"element {g.elem_ids[1]}: singular"):
        co.rt_group_tables(k, g.coords, flux_points, disc.vol_order, g.elem_ids)


@pytest.mark.parametrize("name", ["jittered-tri-k1", "jittered-tri-k2", "jittered-tri-k3"])
def test_near_coincident_flux_points_name_the_element(name):
    # the jittered meshes build with no element flagged; a flux point moved
    # to within 1e-7 of the edge's length of its neighbour is flagged by the
    # eigenvalue ratio (about 1e14), and within 1e-9 by a ratio or a
    # non-positive eigenvalue
    mesh, k = MESHES[name]()
    disc = Discretization(mesh, k)
    (g,) = disc.groups
    loc = 7
    for offset in (1e-7, 1e-9):
        flux_points = disc.edge_pts[g.inc_edge.reshape(g.n_elements, 3)].copy()
        near, ahead = flux_points[loc, 1, :2]
        flux_points[loc, 1, 1] = near + offset * (ahead - near)
        with pytest.raises(co.CorrectionError, match=f"element {g.elem_ids[loc]}: singular"):
            co.rt_group_tables(k, g.coords, flux_points, disc.vol_order, g.elem_ids)


def test_rt_build_work_does_not_grow_with_the_mesh(monkeypatch):
    # per element, the RT build evaluates the span at its 3(k+1) flux points
    # and builds no quadrature rule: the reference triangle's span, Gram
    # tensors and volume tables are built once per (k, volume order)
    rules, span, calls = co.triangle_rules, co._rt_span, {"rules": 0, "points": 0}

    def counted_rules(*args, **kwargs):
        calls["rules"] += 1
        return rules(*args, **kwargs)

    def counted_span(u, p):
        calls["points"] += u[..., 0].size
        return span(u, p)

    for k in (1, 2, 3):
        Discretization(pm.structured_triangles(1), k)  # the reference tables of k
        monkeypatch.setattr(co, "triangle_rules", counted_rules)
        monkeypatch.setattr(co, "_rt_span", counted_span)
        points = []
        for n in (4, 8):
            calls.update(rules=0, points=0)
            disc = Discretization(pm.structured_triangles(n), k)
            assert [g.correction for g in disc.groups] == ["rt"]
            assert calls["rules"] == 0
            points.append(calls["points"])
        assert 0 < points[1] - points[0] <= 3 * (k + 1) * (2 * 8**2 - 2 * 4**2)
        monkeypatch.undo()
