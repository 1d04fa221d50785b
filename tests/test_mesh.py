import json
import math

import numpy as np
import pytest

from polyfr import mesh as pm


def test_two_triangle_square_counts():
    m = pm.two_triangle_square()
    assert m.n_elements == 2
    assert m.n_edges == 5
    assert len(m.boundary_edge_ids) == 4
    assert abs(m.elem_area.sum() - 1.0) < 1e-14


def test_single_quad_counts():
    m = pm.mesh_from_arrays(
        [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]]
    )
    assert m.n_elements == 1
    assert len(m.boundary_edge_ids) == 4


def test_hexagon_area_matches_closed_form():
    # regular hexagon with side s: area = 3*sqrt(3)/2 * s^2
    s = 0.75
    m = pm.regular_polygon_mesh(6, radius=s)  # circumradius equals the side
    assert abs(m.elem_area[0] - 1.5 * math.sqrt(3) * s * s) < 1e-12


def test_orientation_normalized_and_normals_outward():
    # clockwise input gets flipped; normals point away from the left element
    m = pm.mesh_from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    assert m.elem_area[0] > 0
    assert list(m.element_vertices(0)) == [1, 2, 0]
    for k in range(m.n_edges):
        c = pm.polygon_centroid(m.element_coords(m.edge_left[k]))
        midpoint = 0.5 * m.vertices[m.edge_vertices[k]].sum(axis=0)
        assert np.dot(m.edge_normal[k], midpoint - c) > 0
        assert abs(np.hypot(*m.edge_normal[k]) - 1.0) < 1e-14


def test_interior_edges_have_two_elements():
    m = pm.two_triangle_square()
    interior = m.interior_edge_ids
    assert len(interior) == 1
    assert {m.edge_left[interior[0]], m.edge_right[interior[0]]} == {0, 1}
    assert (m.edge_right[m.boundary_edge_ids] == -1).all()


@pytest.mark.parametrize(
    "builder,expected",
    [
        (pm.two_triangle_square, 8),
        (lambda: pm.regular_polygon_mesh(6), 24),
        (lambda: pm.structured_quads(2), 16),
    ],
)
def test_refine_uniform_counts(builder, expected):
    m = builder()
    r = pm.refine_uniform(m)
    assert r.n_elements == expected


def test_refine_preserves_area_and_boundary_length():
    m = pm.structured_triangles(3)
    r = pm.refine_uniform(m)
    area, r_area = m.elem_area.sum(), r.elem_area.sum()
    length = m.edge_length[m.boundary_edge_ids].sum()
    r_length = r.edge_length[r.boundary_edge_ids].sum()
    assert abs(r_area - area) < 1e-13 * area
    assert abs(r_length - length) < 1e-13 * length


def test_refine_keeps_conformity_and_tags():
    m = pm.mesh_from_arrays(
        [[0, 0], [1, 0], [1, 1], [0, 1]],
        [[0, 1, 2], [0, 2, 3]],
        boundary=[((0, 1), "bottom"), ((1, 2), "right"), ((2, 3), "top"), ((3, 0), "left")],
    )
    r = pm.refine_uniform(m)
    tags = set(r.boundary_tags.values())
    assert tags == {"bottom", "right", "top", "left"}
    # each original boundary edge splits in two
    assert len(r.boundary_edge_ids) == 8


def test_closed_polygon_edge_normals_sum_to_zero():
    for m in (pm.structured_triangles(2), pm.structured_quads(2), pm.regular_polygon_mesh(6)):
        for elem in range(m.n_elements):
            total = np.zeros(2)
            perim = 0.0
            for k in m.element_edges(elem):
                sign = 1.0 if m.edge_left[k] == elem else -1.0
                total += sign * m.edge_normal[k] * m.edge_length[k]
                perim += m.edge_length[k]
            assert np.abs(total).max() < 1e-13 * perim


def test_malformed_document_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(pm.MeshError):
        pm.load_mesh(p)
    with pytest.raises(pm.MeshError):
        pm.mesh_from_dict({"vertices": [[0, 0]]})


def test_bad_indices_and_degenerate_elements_rejected():
    tri = [[0, 0], [1, 0], [0, 1]]
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(pm.MeshError, match="element 0 references a missing vertex"):
        pm.mesh_from_arrays(tri, [[0, 1, 7]])
    with pytest.raises(pm.MeshError, match="element 0 is inverted or degenerate"):
        pm.mesh_from_arrays([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])  # collinear
    with pytest.raises(pm.MeshError, match="element 0 has fewer than 3 vertices"):
        pm.mesh_from_arrays(tri, [[0, 1]])
    with pytest.raises(pm.MeshError, match="element 1 repeats a vertex"):
        pm.mesh_from_arrays(square, [[0, 1, 2], [0, 2, 2]])
    with pytest.raises(pm.MeshError, match="element 2 references a missing vertex"):
        pm.mesh_from_arrays(square, [[0, 1, 2], [0, 2, 3], [0, 2, 7]])
    # ids that int() would truncate or coerce
    with pytest.raises(pm.MeshError, match="element 0 has a non-integer vertex id 2.9"):
        pm.mesh_from_arrays(tri, [[0, 1, 2.9]])
    with pytest.raises(pm.MeshError, match="element 1 has a non-integer vertex id True"):
        pm.mesh_from_arrays(square, [[0, 1, 2], [0, 2, True]])
    with pytest.raises(pm.MeshError, match="element 0 has a non-integer vertex id '1'"):
        pm.mesh_from_arrays(tri, [[0, "1", 2]])
    with pytest.raises(pm.MeshError, match=r"boundary entry 1 has a non-integer vertex id"):
        pm.mesh_from_arrays(tri, [[0, 1, 2]], boundary=[((0, 1), "a"), ((1, 2.0), "b")])
    # out-of-range boundary ids whose min * n + max key matches a real edge
    for pair in ((0, 6), (-1, 5)):
        with pytest.raises(pm.MeshError, match="boundary entry references unknown edge"):
            pm.mesh_from_arrays(square, [[0, 1, 2, 3]], boundary=[(pair, "wall")])
    # ids beyond int64, which numpy cannot hold
    with pytest.raises(pm.MeshError, match=f"element 0 references a missing vertex {2**70}"):
        pm.mesh_from_arrays(tri, [[0, 1, 2**70]])
    with pytest.raises(pm.MeshError, match="boundary entry references unknown edge"):
        pm.mesh_from_arrays(tri, [[0, 1, 2]], boundary=[((0, 2**70), "wall")])
    # coordinates that float() would coerce
    for verts, vertex, shown in (([[0, 0], [1, 0], ["0", 1]], 2, "'0'"),
                                 ([[0, 0], [True, 0], [0, 1]], 1, "True")):
        with pytest.raises(pm.MeshError,
                           match=f"vertex {vertex} has a non-numeric coordinate {shown}"):
            pm.mesh_from_arrays(verts, [[0, 1, 2]])
    # non-finite coordinates, as the JSON reader lets them through
    for text, vertex in (("[[0, 0], [1, 0], [NaN, 1]]", 2),
                         ("[[0, 0], [Infinity, 0], [0, 1]]", 1)):
        doc = json.loads(f'{{"vertices": {text}, "elements": [[0, 1, 2]]}}')
        with pytest.raises(pm.MeshError, match=f"vertex {vertex} has a non-finite coordinate"):
            pm.mesh_from_dict(doc)


def test_hanging_node_detected():
    # one big triangle next to two small ones sharing its split edge
    verts = [[0, 0], [1, 0], [1, 1], [1, 0.5], [2, 0.25]]
    elems = [[0, 1, 2], [1, 4, 3], [3, 4, 2]]
    with pytest.raises(pm.MeshError, match="non-conforming"):
        pm.mesh_from_arrays(verts, elems)


def test_overshared_edge_rejected():
    verts = [[0, 0], [1, 0], [0, 1], [1, 1], [-1, 0.5]]
    elems = [[0, 1, 2], [1, 3, 2], [0, 2, 4]]
    # edge (0,2) used by elements 0 and 2; adding one more use must fail
    elems.append([0, 2, 3])
    with pytest.raises(pm.MeshError):
        pm.mesh_from_arrays(verts, elems)


def test_document_roundtrip(tmp_path):
    m = pm.structured_triangles(2)
    path = tmp_path / "m.json"
    pm.save_mesh(m, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"vertices", "elements", "boundary"}
    assert all(set(b) == {"edge", "tag"} for b in doc["boundary"])
    m2 = pm.load_mesh(path)
    assert m2.n_elements == m.n_elements
    assert np.allclose(m2.vertices, m.vertices)
    assert np.array_equal(m2.elem_vertex_ids, m.elem_vertex_ids)
    assert m2.boundary_tags == m.boundary_tags
    assert abs(m2.elem_area.sum() - m.elem_area.sum()) < 1e-15


def test_boundary_tag_on_interior_edge_rejected():
    with pytest.raises(pm.MeshError):
        pm.mesh_from_arrays(
            [[0, 0], [1, 0], [1, 1], [0, 1]],
            [[0, 1, 2], [0, 2, 3]],
            boundary=[((0, 2), "oops")],
        )
