"""Mesh-level discretization state: batched basis/quadrature tables, the
global DOF layout, interface traces, and per-group correction tables.

Elements are grouped by family (kind, vertex count, dof count) so residual
evaluation reduces to a handful of einsums per group plus vectorized flux
calls over all mesh edges at once.  Each edge quadrature rule is built once
per mesh, and the basis traces are evaluated once per incidence row (one
element, one local edge); the per-edge trace tables, the incidence tables,
the boundary vectors ``nsigma`` and the correction's edge rules all come
from these.  Both correction backends are linear in the interface mismatch,
so each group stores its correction as stacked tables acting on the
mismatch values.  Every group builds its space (one ``SpaceStack`` of its
family), volume rules (``volume_rules``, padded with zero weights where the
per-element orders differ), volume tables, incidence traces and correction
tables (RT or Neumann) in one stacked pass, with no per-element object.
DOFs are element-local (broken space): the global index of local
DOF ``i`` of element ``e`` is ``offset[e] + i``, and every nodal quantity
(states, residuals, redistribution vectors, entropy variables) is one flat
(n_dofs, p) array in which element ``e`` owns rows
``offset[e] : offset[e] + nd``.

Quadrature orders default to volume 2k and edge 2k+1, strictly above the
minimal orders the error analysis needs, so quadrature never masks scheme
defects; both are configurable down to the minimal regime.  Rational bases
get a higher volume order per element: skewed (non-parallelogram) quads 10
above max(volume order, 2k), and Wachspress polygons an order boosted at
build time until the discrete integration-by-parts defect of basis products
drops below 5e-13, which keeps divergence-form residuals conservative; a
polygon still above it at the order-40 cap raises ``UnsupportedSpace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import correction as corr
from .approximation import (
    SPACES,
    SpaceStack,
    UnsupportedSpace,
    edge_rules,
    element_kind,
    volume_rules,
)
from .mesh import Mesh


@dataclass
class ElementGroup:
    kind: str
    n_dof: int
    elem_ids: np.ndarray  # (nE,) mesh element ids
    coords: np.ndarray  # (nE, n_local_edges, 2) vertices, counter-clockwise
    spaces: SpaceStack
    perimeters: np.ndarray
    diameters: np.ndarray
    vol_w: np.ndarray  # (nE, nq)
    vol_phi: np.ndarray  # (nE, nq, nd)
    vol_grad: np.ndarray  # (nE, nq, nd, 2)
    stiff: np.ndarray  # (nE, nd, nd, 2): oint grad(phi_s) phi_t dx
    dstrong: np.ndarray  # (nE, nd, nd, 2): oint phi_s grad(phi_t) dx
    mass_diag: np.ndarray  # (nE, nd) positive lumped measures, sum to |K|
    # edge incidence: one row per (element, local edge), element-ordered
    # (row = loc * n_local_edges + k)
    inc_edge: np.ndarray  # mesh edge id
    inc_side: np.ndarray  # 0 if element is left of the edge, 1 if right
    n_local_edges: int
    dof_idx: np.ndarray | None = None  # (nE, nd) global DOF indices
    # incidence rows flattened per element, m = n_local_edges * nq_e
    inc_sign: np.ndarray | None = None  # (nE, m) +1 left, -1 right
    inc_w: np.ndarray | None = None  # (nE, m) edge quadrature weights
    inc_wtrace: np.ndarray | None = None  # (nE, m, nd) w * phi_s trace
    inc_ntrace: np.ndarray | None = None  # (nE, m, nd, 2) phi_s * outward n
    nsigma: np.ndarray | None = None  # (nE, nd, 2): -oint_{dK} phi_s n dgamma
    inc_wsign: np.ndarray | None = None  # (nE, m) inc_w * inc_sign
    # the elements that own a boundary edge, for the boundary-face
    # residuals: their mesh ids, DOF rows, the boundary rows of their
    # incidence edges (Discretization.boundary_row, flat, element by
    # element) and their rows of inc_w and inc_wtrace
    bnd_elems: np.ndarray | None = None  # (nB,)
    bnd_dofs: np.ndarray | None = None  # (nB, nd)
    bnd_row: np.ndarray | None = None  # (nB * n_local_edges,)
    bnd_w: np.ndarray | None = None  # (nB, m)
    bnd_wtrace: np.ndarray | None = None  # (nB, m, nd)
    # correction tables acting on the outward mismatch alpha (nE, m, p),
    # built by the "rt" (triangles) or "neumann" backend
    correction: str = ""
    corr_r: np.ndarray | None = None  # (nE, nd, m): r_sigma
    corr_div: np.ndarray | None = None  # (nE, nd, m): oint phi_s div
    corr_vol: np.ndarray | None = None  # (nE, m, 2): oint field dx
    corr_trace: np.ndarray | None = None  # (nE, m, m): normal traces

    @property
    def n_elements(self) -> int:
        return len(self.elem_ids)


class Discretization:
    """All state needed to evaluate residual variants on one mesh."""

    def __init__(
        self,
        mesh: Mesh,
        degree: int,
        vol_order: int | None = None,
        edge_order: int | None = None,
    ):
        self.mesh = mesh
        self.degree = int(degree)
        self.vol_order = vol_order if vol_order is not None else 2 * self.degree
        self.edge_order = edge_order if edge_order is not None else 2 * self.degree + 1
        self.nq_edge = max(1, math.ceil((self.edge_order + 1) / 2))

        self._build_edges()
        self._build_groups()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        mesh = self.mesh
        ends = mesh.vertices[mesh.edge_vertices]
        # one Gauss rule per edge, built for all edges at once
        self.edge_pts, self.edge_w = edge_rules(ends[:, 0], ends[:, 1], self.edge_order)
        self.edge_normal_q = np.repeat(mesh.edge_normal[:, None, :], self.nq_edge, axis=1)
        # boundary rows of the weights and normals; each edge's row in arrays
        # of boundary rows (InterfaceFluxes.dbc), one past them if interior
        bi = mesh.boundary_edge_ids
        self.boundary_w = self.edge_w.take(bi, axis=0)
        self.boundary_normal_q = self.edge_normal_q.take(bi, axis=0)
        self.boundary_row = np.full(mesh.n_edges, len(bi))
        self.boundary_row[bi] = np.arange(len(bi))

    def _volume_orders(self, kind: str, spaces: SpaceStack, ids: np.ndarray) -> np.ndarray:
        """Per-element volume rule orders: ``vol_order``, raised where the
        basis is rational; ``ids`` are the elements' mesh ids."""
        coords = spaces.vertices
        orders = np.full(len(coords), self.vol_order)
        if kind == "quad":
            # mapped bases pull back polynomial under the bilinear map; off
            # parallelograms the extra tensor order covers products with the
            # (higher degree) correction field
            scale = np.ptp(coords, axis=1).max(axis=1)
            skew = np.abs(coords[:, 0] + coords[:, 2] - coords[:, 1] - coords[:, 3]).max(axis=1)
            orders[skew > 1e-12 * scale] = max(self.vol_order, 2 * self.degree) + 10
        elif kind == "polygon":
            orders = self._boosted_orders(spaces, ids)
        return orders

    def _boosted_orders(self, spaces: SpaceStack, ids: np.ndarray) -> np.ndarray:
        # raise each element's quadrature order until basis-product
        # integration by parts is satisfied to near machine precision
        # (rational integrands); elements leave the loop once they pass, and
        # an element still failing at the cap (order 40, or the configured
        # order if higher) is unsupported
        coords = spaces.vertices
        ahead = np.roll(coords, -1, axis=1)
        pts, w = edge_rules(coords, ahead, 2 * self.degree + 3)  # (nE, n, nq, 2)
        t = ahead - coords
        nrm = np.stack([t[..., 1], -t[..., 0]], axis=-1) / np.hypot(t[..., 0], t[..., 1])[..., None]
        phi = spaces.eval(pts.reshape(len(coords), -1, 2)).reshape(pts.shape[:3] + (-1,))
        bnd = np.einsum("ekq,ekqs,ekqt,ekx->estx", w, phi, phi, nrm)
        scale = np.maximum(1.0, np.abs(bnd).max(axis=(1, 2, 3)))
        order = max(self.vol_order, 2 * self.degree)
        cap = max(order, 40)  # a configured order above 40 is checked once
        orders = np.full(len(coords), order)
        todo = np.arange(len(coords))
        while todo.size:
            sub = spaces.take(todo)
            x, w = volume_rules("polygon", sub.vertices, order)
            v, g = sub.eval(x), sub.grad(x)
            lhs = np.einsum("eq,eqs,eqtx->estx", w, v, g) + np.einsum("eq,eqsx,eqt->estx", w, g, v)
            defect = np.abs(lhs - bnd[todo]).max(axis=(1, 2, 3))
            passed = defect <= 5e-13 * scale[todo]
            if order + 4 > cap and not passed.all():
                i = np.nonzero(~passed)[0][0]
                raise UnsupportedSpace(
                    f"polygon element {int(ids[todo[i]])}: volume quadrature reached order "
                    f"{order} (cap {cap}) with integration-by-parts defect "
                    f"{defect[i] / scale[todo[i]]:.1e} > 5e-13 relative"
                )
            todo = todo[~passed]
            order += 4
            orders[todo] = order
        return orders

    def _build_groups(self) -> None:
        mesh = self.mesh
        families = sorted(((element_kind(n), n), ids, v, e) for n, ids, v, e in mesh.blocks())
        self.groups: list[ElementGroup] = []
        self.elem_group = np.zeros(mesh.n_elements, dtype=int)
        self.elem_local = np.zeros(mesh.n_elements, dtype=int)
        diams = mesh.element_diameters()
        for (kind, n_vert), ids, verts, edges in families:
            self.elem_group[ids] = len(self.groups)
            self.elem_local[ids] = np.arange(len(ids))
            self.groups.append(self._build_group(kind, n_vert, ids, verts, edges, diams[ids]))

        self.nd_max = max(g.n_dof for g in self.groups)
        self.n_dof_elem = np.array([g.n_dof for g in self.groups])[self.elem_group]
        self.dof_offset = np.cumsum(self.n_dof_elem) - self.n_dof_elem
        self.n_dofs = int(self.n_dof_elem.sum())

        # gather/scatter index maps (hot path of the pseudo-time iteration)
        for g in self.groups:
            g.dof_idx = self.dof_offset[g.elem_ids][:, None] + np.arange(g.n_dof)[None, :]
        # position of each mesh element in the group-by-group element order
        self._group_rank = np.argsort(np.concatenate([g.elem_ids for g in self.groups]))
        # each edge side's DOF rows, padded to nd_max with the element's last
        # row; the padded trace columns are zero, so the padding adds nothing
        elem_dofs = self.dof_offset[:, None] + np.minimum(
            np.arange(self.nd_max)[None, :], self.n_dof_elem[:, None] - 1
        )
        # (side, edge, nd_max): left element, then right (left on the boundary)
        right = np.where(mesh.edge_right >= 0, mesh.edge_right, mesh.edge_left)
        self.edge_dofs = elem_dofs[np.stack([mesh.edge_left, right])]

        # basis traces on edges, padded to nd_max: (side, edge, nq_e, nd_max)
        self.edge_phi = np.zeros((2, mesh.n_edges, self.nq_edge, self.nd_max))
        for g in self.groups:
            self._attach_incidence(g)

    def _build_group(self, kind: str, n_vert: int, ids, verts, edges, diams) -> ElementGroup:
        """The group of elements ``ids`` with ``n_vert`` vertices; ``verts``
        and ``edges`` (nE, n_vert) are their vertex and edge ids, local edge
        by local edge, and ``diams`` their diameters."""
        mesh = self.mesh
        coords = mesh.vertices[verts]
        spaces = SPACES[kind](coords, self.degree)
        vol_pts, vol_w = volume_rules(kind, coords, self._volume_orders(kind, spaces, ids))
        # padded rule slots carry zero weight and zero basis values
        real = (vol_w != 0.0)[..., None]
        vol_phi = np.where(real, spaces.eval(vol_pts), 0.0)
        vol_grad = np.where(real[..., None], spaces.grad(vol_pts), 0.0)
        areas = mesh.elem_area[ids]
        # summed edge by edge, in local edge order
        perims = np.cumsum(mesh.edge_length[edges], axis=1)[:, -1]

        stiff = np.einsum("eq,eqdx,eqt->edtx", vol_w, vol_grad, vol_phi)
        dstrong = np.einsum("eq,eqd,eqtx->edtx", vol_w, vol_phi, vol_grad)
        mass = np.einsum("eq,eqd,eqd->ed", vol_w, vol_phi, vol_phi)
        mass_diag = areas[:, None] * mass / mass.sum(axis=1, keepdims=True)

        inc_edge = edges.ravel()
        group = ElementGroup(
            kind=kind,
            n_dof=vol_phi.shape[2],
            elem_ids=ids,
            coords=coords,
            spaces=spaces,
            perimeters=perims,
            diameters=diams,
            vol_w=vol_w,
            vol_phi=vol_phi,
            vol_grad=vol_grad,
            stiff=stiff,
            dstrong=dstrong,
            mass_diag=mass_diag,
            inc_edge=inc_edge,
            inc_side=(mesh.edge_left[inc_edge] != np.repeat(ids, n_vert)).astype(int),
            n_local_edges=n_vert,
        )
        self._attach_correction(group, vol_pts)
        return group

    def _attach_incidence(self, g: ElementGroup) -> None:
        # the basis traces of every incidence row, evaluated once; they fill
        # the padded per-edge tables and the state-independent parts of the
        # per-element edge terms
        nle, nd = g.n_local_edges, g.n_dof
        shape = (g.n_elements, nle * self.nq_edge)
        # one stacked evaluation at every element's edge points
        pts = self.edge_pts[g.inc_edge].reshape(shape + (2,))
        trace = g.spaces.eval(pts).reshape(-1, self.nq_edge, nd)  # (rows, nq_e, nd)
        self.edge_phi[g.inc_side, g.inc_edge, :, :nd] = trace
        sign = np.where(g.inc_side == 0, 1.0, -1.0)
        w = self.edge_w[g.inc_edge]
        normal = sign[:, None] * self.mesh.edge_normal[g.inc_edge]
        g.inc_sign = np.repeat(sign, self.nq_edge).reshape(shape)
        g.inc_w = w.reshape(shape)
        g.inc_wtrace = (w[:, :, None] * trace).reshape(shape + (nd,))
        g.inc_ntrace = np.einsum("rqd,rx->rqdx", trace, normal).reshape(shape + (nd, 2))
        g.nsigma = -np.einsum("em,emdx->edx", g.inc_w, g.inc_ntrace)
        # the sign is +-1, so the signed weights multiply exactly
        g.inc_wsign = g.inc_w * g.inc_sign
        rows = g.inc_edge.reshape(g.n_elements, nle)
        on_bnd = np.nonzero((self.mesh.edge_right[rows] < 0).any(axis=1))[0]
        g.bnd_elems = g.elem_ids[on_bnd]
        g.bnd_dofs = g.dof_idx[on_bnd]
        g.bnd_row = self.boundary_row[rows[on_bnd]].ravel()
        g.bnd_w = g.inc_w[on_bnd]
        g.bnd_wtrace = g.inc_wtrace[on_bnd]

    def _attach_correction(self, group: ElementGroup, vol_pts) -> None:
        """Correction tables of ``group``, whose volume rules are the stacked
        points ``vol_pts`` with the weights ``group.vol_w``: RT on triangles
        whose edge rule has k+1 points (the RT flux points), Neumann
        elsewhere, each in one stacked pass over the stored edge rules."""
        rows = group.inc_edge.reshape(group.n_elements, group.n_local_edges)
        if group.kind == "triangle" and self.nq_edge == self.degree + 1:
            # a triangle group's volume rule is the reference rule of
            # vol_order, mapped to each element
            group.correction = "rt"
            tables = corr.rt_group_tables(self.degree, group.coords, self.edge_pts[rows],
                                          self.vol_order, group.elem_ids)
        else:
            group.correction = "neumann"
            sign = np.where(group.inc_side == 0, 1.0, -1.0)[:, None]
            outward = (sign * self.mesh.edge_normal[group.inc_edge]).reshape(rows.shape + (2,))
            tables = corr.constrained_group_tables(
                self.degree, group.coords, group.spaces.dof_coords, self.edge_pts[rows], outward,
                vol_pts, group.vol_w, group.vol_phi, group.vol_grad, group.elem_ids)
        group.corr_r, group.corr_div, group.corr_vol, group.corr_trace = tables

    # ------------------------------------------------------------------
    # state handling
    # ------------------------------------------------------------------
    def dof_coords(self) -> np.ndarray:
        coords = np.zeros((self.n_dofs, 2))
        for g in self.groups:
            coords[g.dof_idx] = g.spaces.dof_coords
        return coords

    def interpolate_function(self, fn: Callable) -> np.ndarray:
        """Nodal states from a callable mapping (m, 2) points to (m,) or
        (m, p) values."""
        return np.asarray(fn(self.dof_coords()), dtype=float).reshape(self.n_dofs, -1)

    def element_states(self, u: np.ndarray) -> list[np.ndarray]:
        """Per-group nodal state arrays of shape (nE, nd, p)."""
        return [u.take(g.dof_idx, axis=0) for g in self.groups]

    def element_reduce(self, fn: Callable, *arrays: np.ndarray) -> np.ndarray:
        """Per-element values (n_elements, ...) of ``fn``, which reduces axis 1
        of each group's element blocks ``a[g.dof_idx]`` (nE, nd, ...) of the
        per-DOF ``arrays``.  Blocks keep the summation order of per-element
        sums and einsums, which ``ufunc.reduceat`` over flat rows does not."""
        vals = [fn(*(a[g.dof_idx] for a in arrays)) for g in self.groups]
        return np.concatenate(vals)[self._group_rank]

    def edge_traces(self, u: np.ndarray, boundary: np.ndarray | None = None) -> np.ndarray:
        """Element traces of the nodal states ``u`` (n_dofs, p) at the edge
        quadrature points.

        Returns the side stack (uL, uR), shape (2, n_edges, nq_e, p), which
        unpacks as ``uL, uR = disc.edge_traces(u)``; rows of uR for
        boundary edges are the rows of ``boundary`` (per-edge values such as
        :meth:`boundary_values`) or, without it, copies of uL (the element's
        own trace).
        """
        # both sides in one contraction over the side-stacked tables
        u2 = np.einsum("seqd,sedp->seqp", self.edge_phi, u.take(self.edge_dofs, axis=0))
        bi = self.mesh.boundary_edge_ids
        u2[1, bi] = (u2[0] if boundary is None else boundary).take(bi, axis=0)
        return u2

    def boundary_values(self, profiles: dict[str, Callable]) -> np.ndarray:
        """Dirichlet data at the edge points, shape (n_edges, nq_e, p), zero
        off the boundary: ``profiles[tag]`` maps (m, 2) points to (m,) or
        (m, p) values, evaluated edge by edge.  A boundary tag without a
        profile is a ``ValueError``."""
        tags = self.mesh.boundary_tags
        missing = sorted(set(tags.values()) - set(profiles))
        if missing:
            raise ValueError(f"no boundary data for tags {missing}")
        rows = [np.asarray(profiles[tag](self.edge_pts[eid]), dtype=float).reshape(self.nq_edge, -1)
                for eid, tag in tags.items()]
        out = np.zeros((self.mesh.n_edges, self.nq_edge, rows[0].shape[1]))
        out[list(tags)] = rows
        return out
