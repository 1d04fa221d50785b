"""Conforming 2D polygonal meshes with full edge topology, held as arrays.

A :class:`Mesh` is plain physical-space data: vertices, counter-clockwise
polygonal elements and oriented edges carrying neighbour links and outward
unit normals.  Elements are ragged rows in CSR form: element ``e`` owns
positions ``elem_ptr[e] : elem_ptr[e + 1]`` of ``elem_vertex_ids`` (its
vertices, counter-clockwise) and of ``elem_edge_ids`` (local edge ``i`` runs
from local vertex ``i`` to ``i + 1``).  Edges are numbered in the order an
element-by-element traversal first meets them and keep that first
traversal's direction, so ``edge_left`` is the element that met them first
and ``edge_normal`` points out of it; ``edge_right`` is -1 on the boundary.

The on-disk format is a small JSON document with keys ``vertices`` (array
of [x, y]), ``elements`` (array of arrays of 0-based integer vertex ids) and
``boundary`` (array of ``{"edge": [v0, v1], "tag": str}``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class MeshError(ValueError):
    """Raised for malformed mesh documents or broken mesh invariants."""


@dataclass(eq=False)
class Mesh:
    vertices: np.ndarray  # (n_vertices, 2)
    elem_ptr: np.ndarray  # (n_elements + 1,) row offsets of the two arrays below
    elem_vertex_ids: np.ndarray  # (elem_ptr[-1],) CCW vertex ids per element
    elem_edge_ids: np.ndarray  # (elem_ptr[-1],) edge from vertex i to vertex i + 1
    elem_area: np.ndarray  # (n_elements,)
    edge_vertices: np.ndarray  # (n_edges, 2) in first-traversal direction
    edge_left: np.ndarray  # (n_edges,) element that traverses the edge first
    edge_right: np.ndarray  # (n_edges,) the other element, -1 on the boundary
    edge_normal: np.ndarray  # (n_edges, 2) unit, outward from edge_left
    edge_length: np.ndarray  # (n_edges,)
    boundary_edge_ids: np.ndarray  # ids with edge_right == -1, ascending
    interior_edge_ids: np.ndarray  # the others, ascending
    boundary_tags: dict[int, str]  # boundary edge id -> tag, by edge id

    @property
    def n_elements(self) -> int:
        return len(self.elem_ptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.edge_vertices)

    def element_vertices(self, elem_id: int) -> np.ndarray:
        return self.elem_vertex_ids[self.elem_ptr[elem_id] : self.elem_ptr[elem_id + 1]]

    def element_edges(self, elem_id: int) -> np.ndarray:
        return self.elem_edge_ids[self.elem_ptr[elem_id] : self.elem_ptr[elem_id + 1]]

    def element_coords(self, elem_id: int) -> np.ndarray:
        return self.vertices[self.element_vertices(elem_id)]

    def blocks(self):
        """Yield ``(n, elem_ids, vertex_ids, edge_ids)`` per vertex count
        ``n``, ascending: the elements with ``n`` vertices, in mesh order,
        and their (m, n) vertex and edge id rows."""
        for n, ids, pos in _blocks(self.elem_ptr):
            yield n, ids, self.elem_vertex_ids[pos], self.elem_edge_ids[pos]

    def element_diameters(self) -> np.ndarray:
        """Largest vertex-to-vertex distance of every element."""
        diam = np.zeros(self.n_elements)
        for _, ids, v, _ in self.blocks():
            c = self.vertices[v]
            d = c[:, :, None, :] - c[:, None, :, :]
            diam[ids] = np.sqrt((d * d).sum(-1)).max(axis=(1, 2))
        return diam

    def h_max(self) -> float:
        return float(self.element_diameters().max())


def _blocks(ptr: np.ndarray):
    """As ``Mesh.blocks``, with the (m, n) positions of the rows in place of their ids."""
    counts = np.diff(ptr)
    # np.unique(counts) would do, but it imports numpy.ma (+1.7 MB peak RSS)
    for n in np.flatnonzero(np.bincount(counts)):
        ids = np.nonzero(counts == n)[0]
        yield int(n), ids, ptr[ids][:, None] + np.arange(n)


def shoelace_area(coords: np.ndarray):
    """Signed areas of polygons given as (..., n, 2) vertex arrays."""
    x, y = coords[..., 0], coords[..., 1]
    xr, yr = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    # a stacked row-by-column matmul runs np.dot's kernel on each polygon, so
    # batched areas equal the one-polygon np.dot formula bit for bit; row
    # sums do not
    dot = lambda a, b: (a[..., None, :] @ b[..., :, None])[..., 0, 0]
    return 0.5 * (dot(x, yr) - dot(y, xr))


def polygon_centroid(coords: np.ndarray) -> np.ndarray:
    """Centroids (..., 2) of polygons given as (..., n, 2) vertex arrays."""
    x, y = coords[..., 0], coords[..., 1]
    xr, yr = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yr - xr * y
    six_a = 6.0 * (0.5 * cross.sum(axis=-1))
    moments = [((x + xr) * cross).sum(axis=-1), ((y + yr) * cross).sum(axis=-1)]
    return np.stack(moments, axis=-1) / six_a[..., None]


def is_int(v) -> bool:
    """True for Python and numpy integers, False for bools and everything else."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_finite_number(value) -> bool:
    """True for a finite Python int or float, False for bools and everything else."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def mesh_from_arrays(vertices, element_vertices, boundary=None) -> Mesh:
    """Build a Mesh with full topology from raw vertex/element arrays.

    ``element_vertices`` is a sequence of integer vertex-id sequences;
    ``boundary`` an optional sequence of
    ``((v0, v1), tag)`` entries.  Elements are normalized to counter-clockwise
    orientation.  Raises :class:`MeshError` on non-numeric (strings, bools)
    or non-finite coordinates, empty or non-array element lists, rows or boundary
    edges, boundary edges without two ids, non-integer or out-of-range indices,
    degenerate (zero-area) elements, edges shared by more than two elements,
    or hanging-node style non-conforming interfaces.
    """
    given = vertices
    try:
        vertices = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshError(f"vertices must be an (n, 2) array: {exc}") from exc
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    if not (isinstance(given, np.ndarray) and given.dtype.kind in "iuf"):
        # float() would turn "0" into 0.0 and true into 1.0
        real = (int, float, np.integer, np.floating)
        for i, xy in enumerate(given):
            wrong = [c for c in xy if isinstance(c, bool) or not isinstance(c, real)]
            if wrong:
                raise MeshError(f"vertex {i} has a non-numeric coordinate {wrong[0]!r}")
    bad = np.nonzero(~np.isfinite(vertices).all(axis=1))[0]
    if len(bad):
        raise MeshError(f"vertex {bad[0]} has a non-finite coordinate")

    element_vertices = _items(element_vertices, "elements")
    if not element_vertices:
        raise MeshError("elements must not be empty")
    rows = [_items(raw, f"element {e}") for e, raw in enumerate(element_vertices)]
    for e, ids in enumerate(rows):
        wrong = [v for v in ids if not is_int(v)]
        if wrong:
            raise MeshError(f"element {e} has a non-integer vertex id {wrong[0]!r}")
        wrong = [v for v in ids if not 0 <= v < len(vertices)]
        if wrong:
            raise MeshError(f"element {e} references a missing vertex {wrong[0]!r}")
    ptr = np.concatenate([[0], np.cumsum([len(ids) for ids in rows], dtype=np.int64)])
    flat = np.array([v for ids in rows for v in ids], dtype=np.int64)
    pairs, tags = [], []
    for i, (edge, tag) in enumerate(boundary or []):
        pair = _items(edge, f"boundary entry {i}'s edge")
        if len(pair) != 2:
            raise MeshError(f"boundary entry {i} must name two vertex ids, got {edge!r}")
        if not (is_int(pair[0]) and is_int(pair[1])):
            raise MeshError(f"boundary entry {i} has a non-integer vertex id in {edge!r}")
        if not (0 <= pair[0] < len(vertices) and 0 <= pair[1] < len(vertices)):
            # no edge has it, whatever the key min * n + max would match
            raise MeshError(f"boundary entry references unknown edge {tuple(sorted(pair))}")
        pairs.append((pair[0], pair[1]))
        tags.append(str(tag))
    return _build_mesh(vertices, ptr, flat, np.array(pairs, dtype=np.int64).reshape(-1, 2), tags)


def _items(seq, what: str) -> list:
    """The items of the array ``seq``, or a :class:`MeshError` naming ``what``."""
    try:
        return list(seq)
    except TypeError:
        raise MeshError(f"{what} must be an array, got {seq!r}") from None


def _pair_keys(a: np.ndarray, b: np.ndarray, n_vert: int) -> np.ndarray:
    return np.minimum(a, b) * n_vert + np.maximum(a, b)


def _build_mesh(vertices, ptr, flat, pairs, tags) -> Mesh:
    """The mesh of the element rows ``flat[ptr[e]:ptr[e + 1]]``, with the
    boundary edges ``pairs`` (k, 2) tagged ``tags``."""
    n_elem, n_vert = len(ptr) - 1, len(vertices)
    scale = float(np.ptp(vertices, axis=0).max()) or 1.0
    # element checks, then counter-clockwise rows and their areas
    counts = np.diff(ptr)
    elem_of = np.repeat(np.arange(n_elem), counts)
    order = np.lexsort((flat, elem_of))
    twice = (np.diff(elem_of[order]) == 0) & (np.diff(flat[order]) == 0)
    checks = {
        "has fewer than 3 vertices": counts < 3,
        "repeats a vertex": np.bincount(elem_of[order][1:][twice], minlength=n_elem) > 0,
    }
    ok = ~np.any(list(checks.values()), axis=0)

    flat, area = flat.copy(), np.zeros(n_elem)
    for _, ids, pos in _blocks(ptr):
        ids, pos = ids[ok[ids]], pos[ok[ids]]
        rows = flat[pos]
        a = shoelace_area(vertices[rows])
        flip = a < 0.0
        rows[flip] = rows[flip, ::-1]
        a[flip] = shoelace_area(vertices[rows[flip]])
        flat[pos], area[ids] = rows, a
    checks["is inverted or degenerate"] = ok & (area <= 1e-14 * scale * scale)
    failed = np.any(list(checks.values()), axis=0)
    if failed.any():
        e = int(np.argmax(failed))
        raise MeshError(f"element {e} {next(m for m, c in checks.items() if c[e])}")

    # half-edges in traversal order: local edge i of element e runs from
    # vertex i to vertex i + 1 (cyclically); edges are numbered by the first
    # half-edge of their vertex pair
    nxt = np.arange(1, len(flat) + 1)
    nxt[ptr[1:] - 1] = ptr[:-1]
    h0, h1 = flat, flat[nxt]
    keys = _pair_keys(h0, h1, n_vert)
    ukeys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    edge_of = rank[inverse.ravel()]
    n_edges, head = len(first), np.sort(first)
    edge_vertices = np.stack([h0[head], h1[head]], axis=1)

    # a second traversal must run the other way, a third is one element too
    # many; the earliest offender is reported
    later = np.delete(np.arange(len(flat)), first)
    _, at = np.unique(edge_of[later], return_index=True)
    second, third = later[at], np.delete(later, at)
    same = second[h0[second] == edge_vertices[edge_of[second], 0]]
    offenders = np.concatenate([same, third])
    if len(offenders):
        h = offenders.min()
        what = "shared by more than two elements" if h in third else (
            "traversed twice in the same direction")
        raise MeshError(f"edge {tuple(sorted((int(h0[h]), int(h1[h]))))} {what}")
    edge_right = np.full(n_edges, -1, dtype=np.int64)
    edge_right[edge_of[second]] = elem_of[second]

    t = vertices[edge_vertices[:, 1]] - vertices[edge_vertices[:, 0]]
    length = np.hypot(t[:, 0], t[:, 1])
    short = np.nonzero(length <= 1e-14 * scale)[0]
    if len(short):
        a, b = edge_vertices[short[0]]
        raise MeshError(f"edge ({a}, {b}) has zero length")
    boundary_ids = np.nonzero(edge_right < 0)[0]
    _check_conforming(vertices, edge_vertices[boundary_ids], scale)

    # boundary tags: each entry's vertex pair is looked up among the edges
    want = _pair_keys(pairs[:, 0], pairs[:, 1], n_vert)
    at = np.searchsorted(ukeys, want)
    known = np.append(ukeys, -1)[at] == want
    tagged = np.append(rank, n_edges)[at]
    bad = np.nonzero(~known | (np.append(edge_right, -1)[tagged] >= 0))[0]
    if len(bad):
        what = "boundary tag on interior edge" if known[bad[0]] else (
            "boundary entry references unknown edge")
        raise MeshError(f"{what} {tuple(sorted(pairs[bad[0]].tolist()))}")
    boundary_tags = dict.fromkeys(boundary_ids.tolist(), "boundary")
    boundary_tags.update(zip(tagged.tolist(), tags))

    return Mesh(
        vertices=vertices,
        elem_ptr=ptr,
        elem_vertex_ids=flat,
        elem_edge_ids=edge_of,
        elem_area=area,
        edge_vertices=edge_vertices,
        edge_left=elem_of[head],
        edge_right=edge_right,
        edge_normal=np.stack([t[:, 1], -t[:, 0]], axis=1) / length[:, None],
        edge_length=length,
        boundary_edge_ids=boundary_ids,
        interior_edge_ids=np.nonzero(edge_right >= 0)[0],
        boundary_tags=boundary_tags,
    )


def _check_conforming(vertices: np.ndarray, open_edges: np.ndarray, scale: float) -> None:
    # A hanging node shows up as the midpoint of one boundary-like edge lying
    # strictly inside another; every ordered pair is scanned, in row blocks
    p0, p1 = vertices[open_edges[:, 0]], vertices[open_edges[:, 1]]
    d = p1 - p0
    dd = (d * d).sum(-1)
    mid = 0.5 * (p0 + p1)
    n = len(open_edges)
    step = max(1, 2**18 // max(n, 1))
    for lo in range(0, n, step):
        r = mid[lo : lo + step, None, :] - p0[None, :, :]
        cross = d[:, 0] * r[..., 1] - d[:, 1] * r[..., 0]
        t = (r * d).sum(-1) / dd
        hit = (np.abs(cross) <= 1e-12 * scale * scale) & (1e-10 < t) & (t < 1.0 - 1e-10)
        rows = np.arange(len(r))
        hit[rows, lo + rows] = False
        e, f = np.nonzero(hit)
        if len(e):
            inner, outer = open_edges[lo + e[0]], open_edges[f[0]]
            raise MeshError(f"non-conforming interface: edge ({inner[0]}, {inner[1]}) "
                            f"lies inside edge ({outer[0]}, {outer[1]})")


def load_mesh(path) -> Mesh:
    """Load a mesh from the JSON document format described in the module docs."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MeshError(f"cannot parse mesh document {path}: {exc}") from exc
    return mesh_from_dict(doc)


def mesh_from_dict(doc: dict) -> Mesh:
    if not isinstance(doc, dict) or "vertices" not in doc or "elements" not in doc:
        raise MeshError("mesh document must contain 'vertices' and 'elements'")
    boundary = None
    if "boundary" in doc:
        boundary = []
        for i, item in enumerate(_items(doc["boundary"], "'boundary'")):
            if not isinstance(item, dict) or "edge" not in item or "tag" not in item:
                raise MeshError(f"boundary entry {i} must be an object with 'edge' and 'tag'")
            boundary.append((item["edge"], item["tag"]))
    return mesh_from_arrays(doc["vertices"], doc["elements"], boundary)


def save_mesh(mesh: Mesh, path) -> None:
    ends = mesh.edge_vertices.tolist()
    doc = {
        "vertices": mesh.vertices.tolist(),
        "elements": [row.tolist() for row in np.split(mesh.elem_vertex_ids, mesh.elem_ptr[1:-1])],
        "boundary": [{"edge": ends[k], "tag": tag} for k, tag in mesh.boundary_tags.items()],
    }
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def refine_uniform(mesh: Mesh) -> Mesh:
    """Refine every element once, preserving conformity and boundary tags.

    Triangles split into 4 congruent triangles and quadrilaterals into 4
    quadrilaterals through their edge midpoints.  Polygons with more than
    four vertices are fan-triangulated about their centroid first, then each
    fan triangle is quadrisected.

    New vertices follow the old ones: one midpoint per parent edge, by edge
    id, then per vertex count the quad or polygon centroids and the polygon
    fan spoke (centroid to vertex) midpoints, element by element.
    """
    verts, counts = mesh.vertices, np.diff(mesh.elem_ptr)
    ends = verts[mesh.edge_vertices]
    new_verts = [verts, 0.5 * (ends[:, 0] + ends[:, 1])]
    top = len(verts) + mesh.n_edges
    # children per parent: 4 for triangles and quads, 4n for n-gons, each
    # written into its parent's slice of the flat child-vertex array
    n_child = np.where(counts > 4, 4 * counts, 4)
    child_nv = np.where(counts == 4, 4, 3)
    out_ptr = np.concatenate([[0], np.cumsum(n_child * child_nv)])
    out = np.zeros(out_ptr[-1], dtype=np.int64)
    for n, ids, v, edges in mesh.blocks():
        m = len(verts) + edges  # midpoint of edge v_i -> v_i+1
        if n == 3:
            a, b, c = v.T
            ab, bc, ca = m.T
            kids = [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        else:
            centre = polygon_centroid(verts[v])
            new_verts.append(centre)
            cid, top = top + np.arange(len(ids)), top + len(ids)
        if n == 4:
            a, b, c, d = v.T
            ab, bc, cd, da = m.T
            kids = [[a, ab, cid, da], [ab, b, bc, cid], [cid, bc, c, cd], [da, cid, cd, d]]
        elif n > 4:
            new_verts.append((0.5 * (verts[v] + centre[:, None, :])).reshape(-1, 2))
            s, top = top + np.arange(v.size).reshape(v.shape), top + v.size
            v1, s1 = np.roll(v, -1, axis=1), np.roll(s, -1, axis=1)
            cc = np.broadcast_to(cid[:, None], v.shape)
            kids = [[v, m, s], [m, v1, s1], [s, s1, cc], [m, s1, s]]
        # kids[child][corner] holds one id per element (and per fan triangle)
        kids = np.moveaxis(np.array(kids), (0, 1), (-2, -1)).reshape(len(ids), -1)
        out[out_ptr[ids][:, None] + np.arange(kids.shape[1])] = kids

    # each original boundary edge contributes its two halves
    tagged = np.array(list(mesh.boundary_tags), dtype=np.int64)
    (a, b), mid = mesh.edge_vertices[tagged].T, len(verts) + tagged
    pairs = np.stack([a, mid, mid, b], axis=1).reshape(-1, 2)
    tags = [t for t in mesh.boundary_tags.values() for _ in range(2)]

    child_ptr = np.concatenate([[0], np.cumsum(np.repeat(child_nv, n_child))])
    return _build_mesh(np.concatenate(new_verts), child_ptr, out, pairs, tags)


# ---------------------------------------------------------------------------
# Builders for the small test meshes used throughout the suite and the CLI.
# ---------------------------------------------------------------------------

def two_triangle_square() -> Mesh:
    """Unit square split along the main diagonal."""
    return mesh_from_arrays(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [[0, 1, 2], [0, 2, 3]],
    )


def _grid(nx: int, ny: int):
    """Vertices of the unit square's nx-by-ny grid, row by row, and the
    corner ids (a, b, c, d), counter-clockwise from the lower left, of its
    cells, row by row."""
    j, i = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    return np.stack([i / nx, j / ny], axis=1), (a, a + 1, a + nx + 2, a + nx + 1)


def structured_triangles(nx: int, ny: int | None = None) -> Mesh:
    """Unit square as an nx-by-ny grid of squares, each split by a diagonal.

    Diagonal direction alternates in a checkerboard so the mesh has no
    globally preferred direction; element count is 2*nx*ny.
    """
    ny = nx if ny is None else ny
    verts, (a, b, c, d) = _grid(nx, ny)
    even = ((np.arange(ny)[:, None] + np.arange(nx)) % 2 == 0).ravel()[:, None]
    first = np.where(even, np.stack([a, b, c], axis=1), np.stack([a, b, d], axis=1))
    second = np.where(even, np.stack([a, c, d], axis=1), np.stack([b, c, d], axis=1))
    return _build_grid_mesh(verts, np.stack([first, second], axis=1).reshape(-1, 3))


def structured_quads(nx: int, ny: int | None = None) -> Mesh:
    """Unit square as an nx-by-ny grid of axis-aligned quadrilaterals."""
    ny = nx if ny is None else ny
    verts, corners = _grid(nx, ny)
    return _build_grid_mesh(verts, np.stack(corners, axis=1))


def _build_grid_mesh(verts: np.ndarray, rows: np.ndarray) -> Mesh:
    """The untagged mesh of the (m, n) element rows ``rows``."""
    m, n = rows.shape
    return _build_mesh(verts, np.arange(m + 1) * n, rows.ravel(), np.empty((0, 2), np.int64), [])


def regular_polygon_mesh(n_sides: int, radius: float = 1.0) -> Mesh:
    """Single regular polygon element centered at the origin."""
    ang = 2.0 * math.pi * np.arange(n_sides) / n_sides
    verts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return mesh_from_arrays(verts, [list(range(n_sides))])
