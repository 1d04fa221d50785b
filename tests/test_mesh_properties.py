"""Property-based invariant checks on perturbed meshes.

The array topology of such meshes and of their uniform refinement is
checked first.  For the invariant battery, Hypothesis draws a mesh
(structured triangles or quads with jittered interior vertices, k = 1..3, or
a randomly rotated hexagon ring with three element families), a law, a
numerical flux and a random state, then checks the invariant battery with
the gates of ``polyfr verify`` for all six residual variants, plus the
element-split checks on linear triangles.  eq21 is not checked here: on
jittered quads the constrained backend's trace solve is nearly singular,
and at large states its round-off passes the 1e-11 gate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfr import cli
from polyfr import entropy as en
from polyfr import mesh as pm
from polyfr import physics as ph
from polyfr import residual as rs
from polyfr.correction import CorrectionError
from polyfr.discretization import Discretization

N_CELLS = 3  # structured meshes are N_CELLS x N_CELLS squares, h = 1 / N_CELLS

LAWS = {
    "advection": lambda: ph.linear_advection([1.0, 0.5]),
    "burgers": ph.burgers_2d,
    "exp-advection": lambda: ph.exp_advection([0.6, -0.8]),
}


def _jittered(base: pm.Mesh, rng: np.random.Generator, amount: float = 0.15) -> pm.Mesh:
    """``base`` with each interior vertex coordinate moved by up to amount * h."""
    v = base.vertices.copy()
    inner = np.all((v > 1e-9) & (v < 1 - 1e-9), axis=1)
    v[inner] += amount / N_CELLS * rng.uniform(-1.0, 1.0, size=(inner.sum(), 2))
    return pm.mesh_from_arrays(v, base.elem_vertex_ids.reshape(base.n_elements, -1))


def _hexagon_ring(rng: np.random.Generator) -> pm.Mesh:
    # a hexagon inside a ring of trapezoids, one of them split into two
    # triangles (as in test_correction_tables), rotated, outer radii varied
    ang = np.pi / 3 * np.arange(6) + rng.uniform(0.0, 2 * np.pi)
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    radii = rng.uniform(0.9, 1.1, size=(6, 1))
    verts = np.vstack([0.5 * ring, radii * ring])
    elems = [list(range(6)), [0, 1, 7], [0, 7, 6]]
    elems += [[i, (i + 1) % 6, 6 + (i + 1) % 6, 6 + i] for i in range(1, 6)]
    return pm.mesh_from_arrays(verts, elems)


@st.composite
def cases(draw):
    family = draw(st.sampled_from(["triangles", "quads", "hexagon-ring"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if family == "hexagon-ring":
        mesh, k = _hexagon_ring(rng), 1
    else:
        base = (pm.structured_triangles if family == "triangles" else pm.structured_quads)(N_CELLS)
        mesh = _jittered(base, rng)
        k = draw(st.integers(1, 3))
    law = LAWS[draw(st.sampled_from(sorted(LAWS)))]()
    flux = draw(st.sampled_from(["central", "rusanov", "tadmor_ec"]))
    return mesh, k, law, flux, rng


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases())
def test_invariants_on_perturbed_meshes(case):
    mesh, k, law, flux, rng = case
    disc = Discretization(mesh, k)
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, law.p)
    bc = rng.uniform(*law.admissible_box, size=(mesh.n_edges, disc.nq_edge, law.p))
    tols = cli.DEFECT_TOLS

    for variant in rs.VARIANTS:
        rset = rs.compute_residuals(disc, law, u, variant, flux, bc)
        assert rs.element_conservation_defects(rset).max() <= tols["eq5"], variant
        assert rs.boundary_conservation_defects(rset).max() <= tols["eq6"], variant
        if variant == "fr":
            _, eq27 = rs.correction_defects(rset)
            assert eq27.max() <= tols["eq27"]
            v = rng.normal(size=(disc.n_dofs, law.p))
            defect, scale = rs.global_identity_check(rset, v)
            assert defect <= 1e-9 * scale  # eq31, the gate of verify --suite identities
            if k == 1 and all(g.kind == "triangle" for g in disc.groups):
                split = ("eq54_reassembly", "ck_two_way")
                arrays = cli.state_checks(rset, names=split)
                for name in split:
                    assert arrays[name].max() <= cli.CHECK_TOLS[name], name
        elif variant == "cs":
            assert np.abs(en.entropy_error(rset)).max() <= tols["eq32"]
        elif variant == "st":
            assert (-en.entropy_error(rset)).min() >= -tols["eq44"]


def _tagged(mesh: pm.Mesh) -> pm.Mesh:
    """``mesh`` with its boundary edges tagged by the side of x = 0 their
    midpoints lie on, so refinement has distinct tags to carry."""
    ends = mesh.vertices[mesh.edge_vertices]
    east = ends[:, :, 0].sum(axis=1) > 0.0
    boundary = [(tuple(int(v) for v in mesh.edge_vertices[k]), "east" if east[k] else "west")
                for k in mesh.boundary_edge_ids]
    rows = [list(mesh.element_vertices(e)) for e in range(mesh.n_elements)]
    return pm.mesh_from_arrays(mesh.vertices, rows, boundary)


def _check_topology(mesh: pm.Mesh) -> None:
    uses: dict[int, list] = {}  # edge id -> (element, tail, head) per traversal
    for e in range(mesh.n_elements):
        v = [int(x) for x in mesh.element_vertices(e)]
        for i, k in enumerate(mesh.element_edges(e)):
            uses.setdefault(int(k), []).append((e, v[i], v[(i + 1) % len(v)]))
        # the one-polygon shoelace formula the batched areas must reproduce
        x, y = mesh.element_coords(e).T
        area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert mesh.elem_area[e] == area > 0
    # edge ids are handed out in the order a traversal first meets them
    assert list(uses) == list(range(mesh.n_edges))
    for k, ((e0, a, b), *rest) in uses.items():
        assert (mesh.edge_left[k], *mesh.edge_vertices[k]) == (e0, a, b)
        if mesh.edge_right[k] < 0:
            assert rest == [] and k in mesh.boundary_tags
        else:  # interior: traversed once more, by the right element, reversed
            assert rest == [(mesh.edge_right[k], b, a)]
    assert sorted(mesh.boundary_tags) == list(mesh.boundary_edge_ids)
    t = mesh.vertices[mesh.edge_vertices[:, 1]] - mesh.vertices[mesh.edge_vertices[:, 0]]
    assert np.array_equal(mesh.edge_length, np.hypot(t[:, 0], t[:, 1]))
    assert np.abs((mesh.edge_normal * t).sum(axis=1)).max() <= 1e-15
    # every element boundary closes: sum of sign * length * normal vanishes
    for e in range(mesh.n_elements):
        edges = mesh.element_edges(e)
        sign = np.where(mesh.edge_left[edges] == e, 1.0, -1.0)
        total = sign * mesh.edge_length[edges] @ mesh.edge_normal[edges]
        assert np.abs(total).max() <= 1e-13 * mesh.edge_length[edges].sum()


def _tag_lengths(mesh: pm.Mesh) -> dict[str, float]:
    out: dict[str, float] = {}
    for k, tag in mesh.boundary_tags.items():
        out[tag] = out.get(tag, 0.0) + float(mesh.edge_length[k])
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["triangles", "quads", "hexagon-ring"]), st.integers(0, 2**32 - 1))
def test_array_topology_invariants(family, seed):
    rng = np.random.default_rng(seed)
    if family == "hexagon-ring":
        mesh = _hexagon_ring(rng)
    else:
        base = (pm.structured_triangles if family == "triangles" else pm.structured_quads)(N_CELLS)
        mesh = _jittered(base, rng)
    mesh = _tagged(mesh)
    fine = pm.refine_uniform(mesh)
    for m in (mesh, fine):
        _check_topology(m)
    area = mesh.elem_area.sum()
    assert abs(fine.elem_area.sum() - area) <= 1e-13 * area
    coarse_len, fine_len = _tag_lengths(mesh), _tag_lengths(fine)
    assert set(fine_len) == set(coarse_len) == {"east", "west"}
    for tag, length in coarse_len.items():
        assert abs(fine_len[tag] - length) <= 1e-13 * length
    assert len(fine.boundary_edge_ids) == 2 * len(mesh.boundary_edge_ids)


def _near_square(eps):
    return [[0.0, 0.0], [1.0, 0.0], [1.0 + eps, 1.0 + eps / 2], [0.0, 1.0]]


# an element the generator above produced at k = 3: its edges 0-1 and 2-3
# have slopes -0.131 and -0.129
NEAR_TRAPEZOID = [[0.6949417, 0.37310211], [1.0, 0.33333333],
                  [1.0, 0.66666667], [0.64491802, 0.71294232]]

# element 5 of _jittered(pm.structured_quads(3), np.random.default_rng(21720)),
# which the invariant property test can draw at k = 3: its edges 1 (x = 1)
# and 3 are 0.005 degrees off parallel; rounded to 8 digits it builds
JITTERED_QUAD = [[0.6335871610293955, 0.2994631163334675], [1.0, 0.3333333333333333],
                 [1.0, 0.6666666666666666], [0.6335511545640751, 0.7140235745297572]]


@pytest.mark.xfail(raises=CorrectionError, strict=True,
                   reason="nearly parallel opposite edges: the trace solve is nearly singular")
@pytest.mark.parametrize("coords,k", [
    (_near_square(1e-6), 1), (_near_square(1e-5), 2), (_near_square(1e-4), 3),
    (NEAR_TRAPEZOID, 3), (JITTERED_QUAD, 3),
])
def test_nearly_parallel_quad_edges_build(coords, k):
    # on a quad with parallel opposite edges the normal-trace rows of the
    # constrained backend are linearly dependent; nearly parallel, the
    # dependency becomes a tiny singular value whose round-off amplification
    # fails the feasibility probe at every field degree
    Discretization(pm.mesh_from_arrays(np.array(coords), [[0, 1, 2, 3]]), k)


@pytest.mark.xfail(raises=CorrectionError, strict=True,
                   reason="element 5 (JITTERED_QUAD) has nearly parallel opposite edges")
def test_perturbed_quad_draw_builds():
    # the draw (family "quads", seed 21720, k = 3) of cases() built directly:
    # the derandomized draws of test_invariants_on_perturbed_meshes change
    # with any edit of its body, and today's miss this mesh
    Discretization(_jittered(pm.structured_quads(N_CELLS), np.random.default_rng(21720)), 3)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="nearly parallel opposite edges: fr-strong applies the nearly "
                          "singular trace solve's round-off (eq5 3.9e-10, eq21 6.2e-10)")
def test_fr_strong_conservation_on_nearly_parallel_ring():
    # a ring the generator above can draw: its element 5 is a trapezoid whose
    # opposite edges are 0.0008 degrees off parallel; fr there stays at 2e-15
    rng = np.random.default_rng(1333)
    mesh = _hexagon_ring(rng)
    disc, law = Discretization(mesh, 1), LAWS["burgers"]()
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, law.p)
    bc = rng.uniform(*law.admissible_box, size=(mesh.n_edges, disc.nq_edge, law.p))
    tols = cli.DEFECT_TOLS
    fr = rs.compute_residuals(disc, law, u, "fr", "central", bc)
    assert rs.element_conservation_defects(fr).max() <= tols["eq5"]
    strong = rs.compute_residuals(disc, law, u, "fr-strong", "central", bc)
    eq5 = rs.element_conservation_defects(strong)
    eq21, _ = rs.correction_defects(fr)
    assert eq5.max() <= tols["eq5"] and eq21.max() <= tols["eq21"], (eq5.argmax(), eq21.argmax())
