from pathlib import Path

import numpy as np
import pytest

from polyfr import approximation as ap
from polyfr import mesh as pm
from polyfr.discretization import Discretization

RNG = np.random.default_rng(101)
CASES = Path(__file__).resolve().parent.parent / "cases"

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_ANG = 2.0 * np.pi * np.arange(6) / 6
HEXAGON = np.stack([np.cos(_ANG), np.sin(_ANG)], axis=1)
REFERENCE = {"triangle": UNIT_TRI, "quad": UNIT_SQUARE, "polygon": HEXAGON}


def _one(kind, k, vertices):
    return ap.SPACES[kind](np.asarray(vertices, dtype=float)[None], k)  # a stack of one


@pytest.mark.parametrize("k,n_dof", [(1, 3), (2, 6), (3, 10)])
def test_triangle_dof_counts(k, n_dof):
    sp = _one("triangle", k, UNIT_TRI)
    assert sp.dof_coords.shape == (1, n_dof, 2) and n_dof == (k + 1) * (k + 2) // 2


def test_hexagon_wachspress_dofs_and_partition_of_unity():
    sp = _one("polygon", 1, HEXAGON)
    assert sp.dof_coords.shape == (1, 6, 2)
    pts = _interior_points(HEXAGON[None], RNG, m=50)
    vals = sp.eval(pts)[0]
    assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-13
    assert np.abs(sp.grad(pts)[0].sum(axis=1)).max() <= 1e-12


@pytest.mark.parametrize(
    "kind,k",
    [("triangle", 1), ("triangle", 2), ("triangle", 3), ("quad", 1), ("quad", 2), ("quad", 3), ("polygon", 1)],
)
def test_space_invariants(kind, k):
    sp = _one(kind, k, REFERENCE[kind])
    # Lagrange property at the nodes
    nodes = sp.dof_coords
    assert np.abs(sp.eval(nodes)[0] - np.eye(nodes.shape[1])).max() <= 1e-12
    pts = 0.05 + 0.4 * RNG.random((1, 30, 2))
    if kind == "polygon":
        pts = pts - 0.25
    vals, grads = sp.eval(pts)[0], sp.grad(pts)[0]
    assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-13
    assert np.abs(grads.sum(axis=1)).max() <= 1e-12
    # gradients against central differences
    h = 1e-6
    for axis, dv in ((0, [h, 0.0]), (1, [0.0, h])):
        fd = (sp.eval(pts + dv)[0] - sp.eval(pts - dv)[0]) / (2 * h)
        assert np.abs(fd - grads[:, :, axis]).max() <= 1e-6


def test_unsupported_spaces_rejected():
    with pytest.raises(ap.UnsupportedSpace):
        _one("polygon", 2, HEXAGON)
    with pytest.raises(ap.UnsupportedSpace):
        _one("triangle", 4, UNIT_TRI)
    for k in (0, 4):
        with pytest.raises(ap.UnsupportedSpace):
            ap.TriangleSpaces(np.stack([UNIT_TRI, UNIT_TRI + 1.0]), k)


def _jittered_triangle_coords():
    base = pm.structured_triangles(8)  # 128 triangles
    v = base.vertices.copy()
    inner = np.all((v > 1e-9) & (v < 1 - 1e-9), axis=1)
    v[inner] += np.random.default_rng(8).uniform(-0.02, 0.02, size=(inner.sum(), 2))
    mesh = pm.mesh_from_arrays(v, base.elem_vertex_ids.reshape(base.n_elements, -1))
    return mesh.vertices[mesh.elem_vertex_ids.reshape(mesh.n_elements, 3)]


def _barycentric_lagrange(coords, pts, k):
    """Closed-form P1/P2 Lagrange values (nE, m, nd) and gradients
    (nE, m, nd, 2) in canonical node order (vertices, then the midpoints of
    edges 01, 12, 20)."""
    jac = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=2)
    inv = np.linalg.inv(jac)  # rows: gradients of lambda_1, lambda_2
    l12 = np.einsum("eij,emj->emi", inv, pts - coords[:, None, 0])
    lam = np.concatenate([1.0 - l12.sum(axis=2, keepdims=True), l12], axis=2)
    dlam = np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)[:, None]
    dlam = np.broadcast_to(dlam, lam.shape + (2,))
    if k == 1:
        return lam, dlam
    pairs = [(0, 1), (1, 2), (2, 0)]
    vals = [lam[..., i] * (2 * lam[..., i] - 1) for i in range(3)]
    vals += [4 * lam[..., i] * lam[..., j] for i, j in pairs]
    grads = [(4 * lam[..., i, None] - 1) * dlam[..., i, :] for i in range(3)]
    grads += [4 * (lam[..., i, None] * dlam[..., j, :] + lam[..., j, None] * dlam[..., i, :])
              for i, j in pairs]
    return np.stack(vals, axis=-1), np.stack(grads, axis=-2)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mesh_name", ["tri_32", "jittered"])
def test_stacked_spaces_equal_per_element_spaces(k, mesh_name):
    if mesh_name == "tri_32":
        mesh = pm.load_mesh(Path(__file__).resolve().parent.parent / "cases" / "tri_32.mesh.json")
        coords = mesh.vertices[mesh.elem_vertex_ids.reshape(mesh.n_elements, 3)]
    else:
        coords = _jittered_triangle_coords()
    rng = np.random.default_rng(12 + k)
    lam = rng.dirichlet([1.0, 1.0, 1.0], size=(len(coords), 7))
    pts = np.einsum("emv,evx->emx", lam, coords)  # interior points
    stack = ap.TriangleSpaces(coords, k)
    vals, grads = stack.eval(pts), stack.grad(pts)
    assert stack.dof_coords.shape == vals.shape[:1] + (vals.shape[2], 2)
    _assert_rows_are_stacks_of_one(stack, pts, vals, grads)
    if k <= 2:  # an independent reference for the shared arithmetic
        ref_vals, ref_grads = _barycentric_lagrange(coords, pts, k)
        assert np.abs(vals - ref_vals).max() <= 1e-13 * np.abs(ref_vals).max()
        assert np.abs(grads - ref_grads).max() <= 1e-13 * np.abs(ref_grads).max()


def _assert_rows_are_stacks_of_one(stack, pts, vals, grads):
    # each element's own stack of one, built anew or taken from the stack,
    # gives its row bit for bit
    for e, (c, x) in enumerate(zip(stack.vertices, pts)):
        for one in (type(stack)(c[None], stack.degree), stack.take(slice(e, e + 1))):
            assert np.array_equal(one.eval(x[None])[0], vals[e])
            assert np.array_equal(one.grad(x[None])[0], grads[e])
            assert np.array_equal(one.dof_coords[0], stack.dof_coords[e])
    rows = np.array([len(pts) - 1, 0])
    assert np.array_equal(stack.take(rows).eval(pts[rows]), vals[rows])


def _family_stacks(name, k):
    """(n-gon, vertex stack) of every element group of a test mesh."""
    from test_correction_tables import _hexagon_ring, _skewed_quads

    mesh = {
        "quad16": lambda: pm.load_mesh(CASES / "quad_16.mesh.json"),
        "skewed-quads": _skewed_quads,
        "hexagon": lambda: pm.load_mesh(CASES / "hexagon.mesh.json"),
        "hexagon-ring": _hexagon_ring,
    }[name]()
    return [(n, mesh.vertices[verts]) for n, _, verts, _ in mesh.blocks()]


def _interior_points(coords, rng, m=7):
    # random convex combinations of the vertices of convex elements
    lam = rng.dirichlet(np.ones(coords.shape[1]), size=(len(coords), m))
    return np.einsum("emv,evx->emx", lam, coords)


FAMILY_CASES = [("quad16", 1), ("quad16", 2), ("quad16", 3), ("skewed-quads", 1),
                ("skewed-quads", 2), ("skewed-quads", 3), ("hexagon", 1), ("hexagon-ring", 1)]


@pytest.mark.parametrize("name,k", FAMILY_CASES)
def test_stacked_quad_and_polygon_spaces_equal_per_element_spaces(name, k):
    rng = np.random.default_rng(30 + k)
    for n, coords in _family_stacks(name, k):
        stack = ap.SPACES[ap.element_kind(n)](coords, k)
        pts = _interior_points(coords, rng)
        vals, grads = stack.eval(pts), stack.grad(pts)
        assert stack.dof_coords.shape == (len(coords), vals.shape[2], 2)
        _assert_rows_are_stacks_of_one(stack, pts, vals, grads)


@pytest.mark.parametrize("name,k", FAMILY_CASES)
def test_stacked_spaces_are_lagrange_and_linearly_precise(name, k):
    rng = np.random.default_rng(40 + k)
    for n, coords in _family_stacks(name, k):
        stack = ap.SPACES[ap.element_kind(n)](coords, k)
        nodes = stack.dof_coords
        assert np.abs(stack.eval(nodes) - np.eye(nodes.shape[1])).max() <= 1e-13
        pts = _interior_points(coords, rng)
        vals, grads = stack.eval(pts), stack.grad(pts)
        assert np.abs(vals.sum(axis=2) - 1.0).max() <= 1e-13
        # sum_i phi_i x_i = x, so sum_i grad(phi_i) x_i^T = I
        assert np.abs(np.einsum("emd,edx->emx", vals, nodes) - pts).max() <= 1e-13
        g_scale = np.abs(grads).max()
        assert np.abs(grads.sum(axis=2)).max() <= 1e-13 * g_scale
        eye = np.einsum("emdy,edx->emxy", grads, nodes) - np.eye(2)
        assert np.abs(eye).max() <= 1e-13 * g_scale


def test_wachspress_linearly_precise_on_unequal_edges():
    # a regular hexagon with one vertex moved out by 30 %: the vertex weights
    # need the sine of each corner, not the cross product of its raw edges
    ang = np.pi / 3 * np.arange(6)
    hexagon = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    hexagon[1] *= 1.3
    stack = ap.PolygonSpaces(hexagon[None], 1)
    pts = _interior_points(hexagon[None], np.random.default_rng(50), m=50)
    vals = stack.eval(pts)
    assert np.abs(vals.sum(axis=2) - 1.0).max() <= 1e-13
    assert np.abs(np.einsum("emd,edx->emx", vals, stack.dof_coords) - pts).max() <= 1e-13
    # the boosted polygon volume order passes its integration-by-parts check
    # before the order-40 cap
    disc = Discretization(pm.mesh_from_arrays(hexagon, [list(range(6))]), 1)
    g = disc.groups[0]
    assert disc._volume_orders("polygon", g.spaces, g.elem_ids).max() < 40


def test_boosted_order_cap_raises():
    # a corner of nearly 180 degrees (vertex 0 of a regular hexagon pulled to
    # 1 % of its height above the chord of its neighbours): no order up to
    # the cap passes the integration-by-parts check, and the build says so
    ang = np.pi / 3 * np.arange(6)
    hexagon = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    hexagon[0] = [0.5 + 0.01 * np.sqrt(3.0), 0.0]
    mesh = pm.mesh_from_arrays(hexagon, [list(range(6))])
    with pytest.raises(ap.UnsupportedSpace, match=r"polygon element 0: .* order 38 \(cap 40\)"):
        Discretization(mesh, 1)
    # a configured order above the cap is checked too, not taken on trust
    with pytest.raises(ap.UnsupportedSpace, match=r"order 44 \(cap 44\) with .* defect"):
        Discretization(mesh, 1, vol_order=44)


def test_stack_degree_and_convexity_checks():
    quads = np.array([[[0, 0], [1, 0], [1, 1], [0, 1]]], dtype=float)
    for k in (0, 4):
        with pytest.raises(ap.UnsupportedSpace):
            ap.QuadSpaces(quads, k)
    ang = 2.0 * np.pi * np.arange(5) / 5
    pentagons = np.stack([np.cos(ang), np.sin(ang)], axis=1)[None]
    with pytest.raises(ap.UnsupportedSpace, match="5-gon elements support degree 1 only"):
        ap.PolygonSpaces(pentagons, 2)
    dented = pentagons.copy()
    dented[0, 2] *= 0.2  # a reflex corner
    with pytest.raises(ap.UnsupportedSpace, match="convex"):
        ap.PolygonSpaces(np.concatenate([pentagons, dented]), 1)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_order2_rule_integrates_xy_on_unit_triangle():
    (pts,), (w,) = ap.volume_rules("triangle", UNIT_TRI[None], 2)
    val = float(np.sum(w * pts[:, 0] * pts[:, 1]))
    assert abs(val - 1.0 / 24.0) <= 1e-14


def test_weights_sum_to_area_for_random_quad():
    coords = np.array([[0, 0], [1.3, 0.2], [1.1, 1.0], [-0.1, 0.8]])
    _, (w,) = ap.volume_rules("quad", coords[None], 3)
    assert abs(w.sum() - pm.shoelace_area(coords)) <= 1e-13


def test_hexagon_rule_matches_analytic_moment():
    coords = pm.regular_polygon_mesh(6).element_coords(0)
    (pts,), (w,) = ap.volume_rules("polygon", coords[None], 4)
    got = float(np.sum(w * pts[:, 0] ** 2))
    assert abs(got - ap.polygon_moment(coords, 2, 0)) <= 1e-13


@pytest.mark.parametrize("order", [2, 4, 6])
def test_stacked_triangle_rules_equal_per_element_rules(order):
    base = pm.structured_triangles(8)  # 128 triangles
    v = base.vertices.copy()
    inner = np.all((v > 1e-9) & (v < 1 - 1e-9), axis=1)
    v[inner] += np.random.default_rng(8).uniform(-0.02, 0.02, size=(inner.sum(), 2))
    mesh = pm.mesh_from_arrays(v, base.elem_vertex_ids.reshape(base.n_elements, -1))
    coords = mesh.vertices[mesh.elem_vertex_ids.reshape(mesh.n_elements, 3)]
    pts, wts = ap.triangle_rules(coords, order)
    assert pts.shape[0] == wts.shape[0] == 128
    for c, x, w in zip(coords, pts, wts):
        (x1,), (w1,) = ap.triangle_rules(c[None], order)
        assert np.array_equal(x1, x)
        assert np.array_equal(w1, w)


def _hexagon_stack(rng, n=5):
    # scaled, shifted and slightly jittered (still convex) regular hexagons
    ang = 2.0 * np.pi * np.arange(6) / 6
    hexagon = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return (hexagon[None] * rng.uniform(0.5, 2.0, (n, 1, 1)) + rng.uniform(-1, 1, (n, 1, 2))
            + rng.uniform(-0.02, 0.02, (n, 6, 2)))


@pytest.mark.parametrize("kind", ["triangle", "quad", "polygon"])
def test_volume_rules_equal_per_element_rules(kind):
    from test_correction_tables import _skewed_quads

    rng = np.random.default_rng(9)
    if kind == "polygon":
        coords = _hexagon_stack(rng)
    else:
        mesh = _skewed_quads() if kind == "quad" else pm.structured_triangles(3)
        coords = mesh.vertices[mesh.elem_vertex_ids.reshape(mesh.n_elements, -1)]
    orders = rng.choice([1, 2, 4, 7], size=len(coords))
    orders[:2] = [1, 7]  # both the shortest and the longest rule
    pts, wts = ap.volume_rules(kind, coords, orders)
    padded = 0
    for c, order, x, w in zip(coords, orders, pts, wts):
        (x1,), (w1,) = ap.volume_rules(kind, c[None], order)
        m = len(w1)
        assert np.array_equal(x1, x[:m])
        assert np.array_equal(w1, w[:m])
        # padded slots: zero weight at a copy of the last point (inside)
        assert (w[m:] == 0.0).all() and (x[m:] == x[m - 1]).all()
        padded += len(w) - m
    assert padded > 0
    # one order for the whole stack: no padding
    pts, wts = ap.volume_rules(kind, coords, 4)
    assert (wts > 0).all()
    for c, x, w in zip(coords, pts, wts):
        (x1,), (w1,) = ap.volume_rules(kind, c[None], 4)
        assert np.array_equal(x1, x) and np.array_equal(w1, w)


@pytest.mark.parametrize(
    "coords,kind",
    [
        (UNIT_TRI, "triangle"),
        (np.array([[0, 0], [1.2, 0.1], [1.0, 1.1], [0.1, 0.9]]), "quad"),
        (pm.regular_polygon_mesh(6).element_coords(0), "polygon"),
    ],
)
@pytest.mark.parametrize("order", [1, 2, 4, 6])
def test_volume_rule_exactness_against_divergence_moments(coords, kind, order):
    (pts,), (w,) = ap.volume_rules(kind, coords[None], order)
    assert (w > 0).all()
    assert ap.rule_moment_defects(pts, w, order, coords) <= 1e-12


def test_edge_rule_order3_integrates_cubic_on_length_two_edge():
    (pts,), (w,) = ap.edge_rules(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]), 3)
    got = float(np.sum(w * pts[:, 0] ** 3))
    assert abs(got - 4.0) <= 1e-13  # integral of s^3 over [0, 2]
    assert abs(w.sum() - 2.0) <= 1e-14


def test_edge_rule_points_symmetric_about_midpoint():
    (pts,), _ = ap.edge_rules(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), 5)
    mid = np.array([0.5, 0.5])
    mirrored = 2 * mid - pts[::-1]
    assert np.abs(mirrored - pts).max() <= 1e-14


# ---------------------------------------------------------------------------
# interpolation: nodal values times the basis at points of the element
# ---------------------------------------------------------------------------

def test_interpolate_constant_everywhere():
    sp = _one("triangle", 2, UNIT_TRI)
    coeffs = np.full(sp.dof_coords.shape[1], 3.25)
    pts = np.array([UNIT_TRI.mean(axis=0), [0.1, 0.2], [0.3, 0.3]])
    assert np.abs(sp.eval(pts[None])[0] @ coeffs - 3.25).max() <= 1e-13


def test_interpolate_linear_field_at_centroid():
    sp = _one("triangle", 1, UNIT_TRI)
    nodes = sp.dof_coords[0]
    coeffs = nodes[:, 0] + 2 * nodes[:, 1]
    c = UNIT_TRI.mean(axis=0)
    assert abs(sp.eval(c[None, None])[0, 0] @ coeffs - (c[0] + 2 * c[1])) <= 1e-14


def test_p2_reproduces_quadratic_at_random_points():
    sp = _one("triangle", 2, UNIT_TRI)
    coeffs = sp.dof_coords[0, :, 0] ** 2
    pts = RNG.random((20, 2)) * 0.4 + 0.05
    assert np.abs(sp.eval(pts[None])[0] @ coeffs - pts[:, 0] ** 2).max() <= 1e-12


@pytest.mark.parametrize("kind,k", [("triangle", 1), ("triangle", 3), ("polygon", 1)])
def test_interpolation_exact_on_matching_polynomials(kind, k):
    sp = _one(kind, k, REFERENCE[kind])
    # random polynomial of total degree <= min(k, 1 for polygons)
    deg = 1 if kind == "polygon" else k
    cexp = [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]
    cs = RNG.normal(size=len(cexp))
    poly = lambda pts: sum(
        c * pts[:, 0] ** a * pts[:, 1] ** b for c, (a, b) in zip(cs, cexp)
    )
    coeffs = poly(sp.dof_coords[0])
    pts = RNG.random((15, 2)) * 0.3 + 0.05
    if kind == "polygon":
        pts = pts - 0.2
    assert np.abs(sp.eval(pts[None])[0] @ coeffs - poly(pts)).max() <= 1e-12
