import numpy as np
import pytest

from polyfr import approximation as ap
from polyfr import dofgraph as dg
from polyfr import mesh as pm
from polyfr.discretization import Discretization


_ANG = 2.0 * np.pi * np.arange(6) / 6
REFERENCE = {
    "triangle": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    "quad": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    "polygon": np.stack([np.cos(_ANG), np.sin(_ANG)], axis=1),
}


def _reference_graph(kind, k):
    """The DOF graph of the reference element's stack of one, and its DOF points."""
    sp = ap.SPACES[kind](REFERENCE[kind][None], k)
    return dg.element_dof_graph(0, sp.dof_coords[0], sp.sub_triangulation), sp.dof_coords[0]


def test_p1_triangle_graph_counts():
    g, _ = _reference_graph("triangle", 1)
    assert len(g.dof_coords) == 3
    assert len(g.dof_edges) == 3
    assert len(g.sub_triangles) == 1


def test_p2_triangle_layout_and_graph():
    g, nodes = _reference_graph("triangle", 2)
    assert len(g.dof_coords) == 6
    # corners first, then edge midpoints
    assert np.allclose(nodes[:3], [[0, 0], [1, 0], [0, 1]])
    assert np.allclose(nodes[3:], [[0.5, 0], [0.5, 0.5], [0, 0.5]])
    assert len(g.sub_triangles) == 4


@pytest.mark.parametrize("kind,k", [("triangle", 1), ("triangle", 2), ("triangle", 3),
                                    ("quad", 1), ("quad", 2), ("polygon", 1)])
def test_dual_cell_closure(kind, k):
    g, nodes = _reference_graph(kind, k)
    scale = float(np.ptp(nodes, axis=0).max())
    assert g.closure_defects().max() <= 1e-13 * scale


def test_orientation_signs_antisymmetric():
    g, _ = _reference_graph("triangle", 2)
    for a, b in g.dof_edges:
        assert a < b and g.edge_index(a, b) == g.edge_index(b, a) is not None
        assert np.allclose(g.cv_normal(a, b), -g.cv_normal(b, a))
    assert g.edge_index(0, 0) is None
    # non-adjacent corner pair in the P2 sub-triangulation
    assert g.edge_index(0, 1) is None


def test_graph_normals_reproduce_basis_boundary_integrals_p1():
    # sum of dual-interface normals out of a DOF equals -oint phi n dgamma
    mesh = pm.two_triangle_square()
    disc = Discretization(mesh, 1)
    grp = disc.groups[0]
    graph = dg.build_dof_graph(mesh, grp.spaces)
    for eid in range(mesh.n_elements):
        g = graph.elements[eid]
        loc = disc.elem_local[eid]
        for s in range(3):
            total = np.zeros(2)
            for s2 in range(3):
                if s2 != s:
                    total += g.cv_normal(s, s2)
            assert np.abs(total - grp.nsigma[loc, s]).max() <= 1e-13


def test_nsigma_reference_triangle_hand_values():
    # unit right triangle, linear basis; hand quadrature of the half-length
    # weighted edge normals: N_0 = -((0,-1)*1 + (-1,0)*1)/2 = (1/2, 1/2),
    # N_1 = -((0,-1)*1 + (1,1))/2 = (-1/2, 0), N_2 = (0, -1/2)
    mesh = pm.mesh_from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    disc = Discretization(mesh, 1)
    ns = disc.groups[0].nsigma[0]
    assert np.allclose(ns[0], [0.5, 0.5], atol=1e-14)
    assert np.allclose(ns[1], [-0.5, 0.0], atol=1e-14)
    assert np.allclose(ns[2], [0.0, -0.5], atol=1e-14)
    assert np.abs(ns.sum(axis=0)).max() <= 1e-14


def test_degenerate_subtriangle_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(pm.MeshError, match="collinear"):
        dg.element_dof_graph(0, nodes, [(0, 1, 2)])


def test_build_dof_graph_over_mesh():
    mesh = pm.structured_triangles(2)
    disc = Discretization(mesh, 2)
    graph = dg.build_dof_graph(mesh, disc.groups[0].spaces)
    assert len(graph.elements) == mesh.n_elements
    for g in graph.elements:
        assert g.closure_defects().max() <= 1e-13
