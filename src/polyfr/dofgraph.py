"""Per-element DOF graphs: sub-triangulation, oriented DOF edges, and the
median-dual control-volume geometry.

Every element carries the triangulation that connects its own DOF nodes.
For each pair of DOF nodes joined by a sub-triangulation edge we store the
scaled normal of the dual interface separating their control volumes
(midpoint-to-centroid segments of the incident sub-triangles), oriented from
the lower-indexed DOF toward the higher one.  The boundary portion of each
control volume is kept as well so the closure of every dual cell is
checkable: interface normals out of a DOF plus its boundary portion sum to
zero.

The module is off the run path: the element-split checks take closed-form
median-dual normals from :func:`polyfr.residual.flux_split`, and these
graphs are the tests' independent reference for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approximation import SpaceStack
from .mesh import Mesh, MeshError


def _segment_scaled_normal(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    t = p1 - p0
    return np.array([t[1], -t[0]])


@dataclass
class ElementDofGraph:
    elem_id: int
    dof_coords: np.ndarray  # (n_dof, 2)
    sub_triangles: list[tuple[int, int, int]]
    dof_edges: list[tuple[int, int]]  # direct orientation: low index -> high index
    cv_normals: np.ndarray  # (n_edges, 2), dual-interface normal out of the low DOF
    boundary_normals: np.ndarray  # (n_dof, 2), outward boundary portion of each cell

    def edge_index(self, a: int, b: int) -> int | None:
        key = (a, b) if a < b else (b, a)
        try:
            return self.dof_edges.index(key)
        except ValueError:
            return None

    def cv_normal(self, a: int, b: int) -> np.ndarray:
        """Dual-interface scaled normal pointing from DOF ``a`` toward ``b``."""
        idx = self.edge_index(a, b)
        if idx is None:
            raise KeyError(f"DOFs {a} and {b} are not graph neighbors")
        return self.cv_normals[idx] if a < b else -self.cv_normals[idx]

    def closure_defects(self) -> np.ndarray:
        """Per-DOF norm of (interface normals out of the cell + boundary part)."""
        total = self.boundary_normals.copy()
        for idx, (a, b) in enumerate(self.dof_edges):
            total[a] += self.cv_normals[idx]
            total[b] -= self.cv_normals[idx]
        return np.hypot(total[:, 0], total[:, 1])


@dataclass
class DofGraph:
    elements: list[ElementDofGraph]


def element_dof_graph(elem_id: int, coords: np.ndarray, subtris) -> ElementDofGraph:
    """The DOF graph of element ``elem_id`` with DOF points ``coords``
    (n_dof, 2) joined by the sub-triangles ``subtris``."""
    n_dof = len(coords)
    scale = float(np.ptp(coords, axis=0).max())

    edge_use: dict[tuple[int, int], int] = {}
    first_dir: dict[tuple[int, int], tuple[int, int]] = {}
    normals: dict[tuple[int, int], np.ndarray] = {}
    boundary = np.zeros((n_dof, 2))

    for tri in subtris:
        pts = coords[list(tri)]
        area = 0.5 * float(
            (pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
            - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0])
        )
        if area <= 1e-13 * scale * scale:
            raise MeshError(
                f"degenerate sub-triangle {tri} in element {elem_id} (collinear DOFs)"
            )
        centroid = pts.mean(axis=0)
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            key = (a, b) if a < b else (b, a)
            edge_use[key] = edge_use.get(key, 0) + 1
            first_dir.setdefault(key, (a, b))
            mid = 0.5 * (coords[a] + coords[b])
            nseg = _segment_scaled_normal(mid, centroid)
            if np.dot(nseg, coords[key[1]] - coords[key[0]]) < 0:
                nseg = -nseg
            normals[key] = normals.get(key, 0.0) + nseg

    # sub-edges used by a single (CCW) triangle lie on the element boundary;
    # their halves [x_a, mid] and [mid, x_b] close the two adjacent dual
    # cells, with the outward normal to the right of the traversal direction
    for key, count in edge_use.items():
        if count > 2:
            raise MeshError(f"sub-triangulation edge {key} used {count} times")
        if count == 1:
            a, b = first_dir[key]
            mid = 0.5 * (coords[a] + coords[b])
            boundary[a] += _segment_scaled_normal(coords[a], mid)
            boundary[b] += _segment_scaled_normal(mid, coords[b])

    dof_edges = sorted(edge_use)
    cv = np.array([normals[key] for key in dof_edges])
    graph = ElementDofGraph(
        elem_id=elem_id,
        dof_coords=coords,
        sub_triangles=list(subtris),
        dof_edges=dof_edges,
        cv_normals=cv,
        boundary_normals=boundary,
    )
    return graph


def build_dof_graph(mesh: Mesh, spaces: SpaceStack) -> DofGraph:
    """Build per-element DOF graphs for a mesh from the stacked space of all
    its elements."""
    if len(spaces.dof_coords) != mesh.n_elements:
        raise ValueError("need one element space per mesh element")
    return DofGraph([element_dof_graph(e, c, spaces.sub_triangulation)
                     for e, c in enumerate(spaces.dof_coords)])
