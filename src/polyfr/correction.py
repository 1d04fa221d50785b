"""Correction fields for flux reconstruction.

The reconstructed flux on an element is the nodal flux interpolant plus a
scaled correction field grad_psi.  Admissibility asks for two things:

* the normal trace of the field matches the interface flux mismatch
  ``alpha = f_hat - f^h . n`` at every edge quadrature point, and
* the induced redistribution vectors ``r_sigma = -oint grad(phi_sigma) .
  grad_psi dx`` sum to zero over the element,

which together keep the distributed residuals conservative.  Two backends
construct such fields:

``rt``
    Cardinal Raviart-Thomas bases on triangles.  Each member is the
    L2-smallest RT field of the requested order with unit normal trace at
    one edge flux point and zero at the others.  Flux points coincide with
    the Gauss points of the edge quadrature, so the trace condition holds
    exactly at the quadrature points.  RT spaces are invariant under the
    contravariant Piola map ``psi -> jac @ psi / det`` of the affine map
    from the reference triangle, so every element spans its RT_k with the
    Piola images of one L2-orthonormal reference span (the raw span
    through the Cholesky factor of its reference Gram, cached per order).
    ``rt_group_tables`` builds a whole triangle group's tables from it in
    one stacked pass with no per-element quadrature: each Gram matrix is
    the reference Gram tensors weighted by the metric ``jac^T jac``, the
    closure solves and the dual-matrix eigenvalue check are batched, and
    the volume tables are fixed reference matrices times each element's
    closure coefficients.  ``RTBasis`` and ``RTCorrectionBackend`` are the
    same construction for one element, with the Gram matrix from the
    element's own quadrature rule, kept as the stacked build's reference.

``neumann``
    On arbitrary polygons the field is sought in [P_d]^2, the first members
    of the RT_d span, at the lowest degree d >= k+1 that passes a
    feasibility probe: normal-trace values are imposed as equality
    constraints, prescribed interior moments ``oint grad(phi_sigma) .
    grad_psi dx = target_r`` enter as least-squares rows, and the
    minimum-norm solution is returned.  ``constrained_group_tables`` builds
    a whole group's tables in one stacked pass (batched SVD, one null-space
    solve per trace rank); ``NeumannCorrectionBackend`` is its stack of one.
    Note the sign relation: the induced ``r_sigma`` equals ``-target_r``,
    which is why the entropy-conservative residuals need no solve
    (``entropy.entropy_conservative_residuals``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .approximation import (
    MAX_DEGREE,
    SpaceStack,
    gauss_legendre_01,
    lagrange_values,
    monomial_exponents,
    triangle_node_layout,
    triangle_rules,
)
from .mesh import shoelace_area


class CorrectionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Raviart-Thomas cardinal bases on triangles
# ---------------------------------------------------------------------------

def _rt_span(u: np.ndarray, p: int) -> np.ndarray:
    """Raw RT_p span members at local points ``u`` (..., npts, 2), shape
    (..., npts, n_dim, 2): [P_p]^2 column pairs, then x * homogeneous(P_p)."""
    x, y = u[..., 0], u[..., 1]
    exponents = monomial_exponents(p)
    n = 2 * len(exponents)
    out = np.zeros(u.shape[:-1] + (n + p + 1, 2))
    for i, (a, b) in enumerate(exponents):
        out[..., 2 * i, 0] = out[..., 2 * i + 1, 1] = x**a * y**b
    for i, a in enumerate(range(p, -1, -1)):
        out[..., n + i, :] = u * (x**a * y ** (p - a))[..., None]
    return out


def _rt_span_div(u: np.ndarray, p: int) -> np.ndarray:
    """Divergences (..., npts, n_dim) of the raw span members in local
    coordinates (divide by the element scale for physical ones)."""
    x, y = u[..., 0], u[..., 1]
    zero = np.zeros_like(x)
    cols = []
    for a, b in monomial_exponents(p):
        cols.append(a * x ** max(a - 1, 0) * y**b if a else zero)
        cols.append(b * x**a * y ** max(b - 1, 0) if b else zero)
    for a in range(p, -1, -1):
        # div(x * x^a y^b) = (2 + a + b) x^a y^b  with a + b = p
        cols.append((2 + p) * x**a * y ** (p - a))
    return np.stack(cols, axis=-1)


# The reference triangle.  Span members are evaluated in its coordinates
# centred at the centroid and scaled by sqrt(area), as the physical spans are.
_REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _reference_local(xhat: np.ndarray) -> np.ndarray:
    return (xhat - 1.0 / 3.0) * math.sqrt(2.0)


@functools.cache
def _reference_span(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The L2-orthonormal RT_p span psi of the reference triangle: the matrix
    ``orth`` (n_dim, n_dim) that takes the raw span members to it (the
    inverse transposed Cholesky factor of their Gram), and its Gram tensors
    ``int psi_i[a] psi_j[b] dx`` as a (4, n_dim**2) array, row 2a+b."""
    pts, w = triangle_rules(_REF_TRIANGLE[None], 2 * p + 2)
    raw = _rt_span(_reference_local(pts[0]), p)
    orth = np.linalg.inv(np.linalg.cholesky(np.einsum("q,qix,qjx->ij", w[0], raw, raw))).T
    psi = np.einsum("qix,ij->qjx", raw, orth)
    return orth, np.einsum("q,qia,qjb->abij", w[0], psi, psi).reshape(4, -1)


def _reference_members(xhat: np.ndarray, p: int) -> np.ndarray:
    """The orthonormal span at reference points (..., npts, 2): shape
    (..., npts, n_dim, 2)."""
    orth, _ = _reference_span(p)
    return (_rt_span(_reference_local(xhat), p).swapaxes(-1, -2) @ orth).swapaxes(-1, -2)


def _reference_div(xhat: np.ndarray, p: int) -> np.ndarray:
    """Reference divergences (..., npts, n_dim) of the orthonormal span."""
    orth, _ = _reference_span(p)
    return _rt_span_div(_reference_local(xhat), p) * math.sqrt(2.0) @ orth


@functools.cache
def _reference_tables(p: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orthonormal span's integrals against the reference P_p basis under
    the reference volume rule of ``order``: ``-int grad(phi_d) . psi_i`` and
    ``int phi_d div(psi_i)``, each (nd, n_dim), and ``int psi_i`` (n_dim, 2).
    The basis is the Lagrange basis at ``TriangleSpaces``' equispaced nodes."""
    pts, w = triangle_rules(_REF_TRIANGLE[None], order)
    x, w = pts[0], w[0]

    def monomials(u, da, db):  # the P_p monomials, differentiated da times in x, db in y
        return np.stack([math.perm(a, da) * math.perm(b, db) * u[:, 0] ** max(a - da, 0)
                         * u[:, 1] ** max(b - db, 0) for a, b in monomial_exponents(p)], axis=-1)

    lagrange = np.linalg.inv(monomials(triangle_node_layout(p)[0], 0, 0))
    grad = np.stack([monomials(x, 1, 0), monomials(x, 0, 1)], axis=-1).swapaxes(1, 2) @ lagrange
    psi = _reference_members(x, p)
    return (-np.einsum("q,qxd,qix->di", w, grad, psi),
            np.einsum("q,qd,qi->di", w, monomials(x, 0, 0) @ lagrange, _reference_div(x, p)),
            np.einsum("q,qix->ix", w, psi))


def _cardinal_coeffs(gram: np.ndarray, tmat: np.ndarray, elem_ids) -> np.ndarray:
    """The L2-smallest closure ``G^-1 T^T (T G^-1 T^T)^-1`` of a stack of
    Gram matrices ``gram`` (nE, n_dim, n_dim) and trace functionals ``tmat``
    (nE, m, n_dim): (nE, n_dim, m).  The dual matrix ``T G^-1 T^T`` is SPD
    when the functionals are independent; one whose symmetric part has a
    non-positive eigenvalue or an eigenvalue ratio above 1e12 raises
    ``CorrectionError`` naming the first such element by its id in
    ``elem_ids``."""
    gram_t = np.linalg.solve(gram, tmat.mT)  # (nE, n_dim, m)
    dual = tmat @ gram_t
    eig = np.linalg.eigvalsh(0.5 * (dual + dual.mT))
    cond = np.full(len(eig), np.inf)
    pos = eig[:, 0] > 0
    cond[pos] = eig[pos, -1] / eig[pos, 0]
    bad = ~(cond <= 1e12)
    if bad.any():
        i = int(np.argmax(bad))
        raise CorrectionError(
            f"element {elem_ids[i]}: singular dual-functional matrix (cond {cond[i]:.2e}); "
            "choose different flux points"
        )
    return gram_t @ np.linalg.solve(dual, np.eye(dual.shape[-1]))


class RTBasis:
    """Cardinal Raviart-Thomas basis of order ``p`` on a physical triangle.

    Members are indexed by (edge, flux point); there are 3*(p+1) of them.
    The space is [P_p]^2 + x * homogeneous(P_p); on straight edges the
    normal trace of any member is a polynomial of degree <= p, and its
    divergence lies in P_p.

    The trace conditions leave p*(p+1) interior degrees of freedom per
    member; they are closed by picking the L2-smallest field, which carries
    nonzero gradient moments and hence a genuine redistribution.
    """

    def __init__(self, p: int, vertices, flux_points: list[np.ndarray] | None = None):
        if not 1 <= p <= MAX_DEGREE:
            raise CorrectionError(f"Raviart-Thomas order {p} not supported")
        self.degree = p
        self.vertices = np.asarray(vertices, dtype=float)
        if len(self.vertices) != 3:
            raise CorrectionError("Raviart-Thomas correction bases need a triangle")
        # the affine map x = origin + jac @ xhat from the reference triangle
        self._origin = self.vertices[0]
        self._jac = (self.vertices[1:] - self._origin).T
        self._det = float(np.linalg.det(self._jac))
        self._inv = np.linalg.inv(self._jac)
        self.n_members = 3 * (p + 1)

        self.edge_normals = []
        self.edge_lengths = []
        self.flux_points = []
        if flux_points is None:
            t, _ = gauss_legendre_01(p + 1)
        for e in range(3):
            v0, v1 = self.vertices[e], self.vertices[(e + 1) % 3]
            tang = v1 - v0
            length = float(np.hypot(*tang))
            self.edge_normals.append(np.array([tang[1], -tang[0]]) / length)
            self.edge_lengths.append(length)
            if flux_points is None:
                self.flux_points.append(v0[None, :] + t[:, None] * tang[None, :])
            else:
                self.flux_points.append(np.asarray(flux_points[e], dtype=float))

        trace_rows = []
        # edge functionals: normal component at the flux points
        for e in range(3):
            vals = self._raw_eval(self.flux_points[e])  # (npts, n_dim, 2)
            trace_rows.append(vals @ self.edge_normals[e])
        tmat = np.vstack(trace_rows)  # (n_members, n_dim)
        # the element's own Gram rule, independent of rt_group_tables'
        # reference Gram tensors
        pts, w = triangle_rules(self.vertices[None], 2 * p + 2)
        raw = self._raw_eval(pts[0])
        gram = np.einsum("q,qix,qjx->ij", np.abs(w[0]), raw, raw)
        self._coeffs = _cardinal_coeffs(gram[None], tmat[None], [0])[0]

    # raw (non-cardinal) span evaluation: the contravariant Piola images
    # jac @ psi / det of the reference triangle's orthonormal span ---------
    def _reference(self, points):
        return (np.atleast_2d(points) - self._origin) @ self._inv.T

    def _raw_eval(self, points) -> np.ndarray:
        return _reference_members(self._reference(points), self.degree) @ self._jac.T / self._det

    def _raw_div(self, points) -> np.ndarray:
        return _reference_div(self._reference(points), self.degree) / self._det

    # public member evaluation ----------------------------------------------
    def eval(self, points) -> np.ndarray:
        """Member values, shape (npts, n_members, 2)."""
        raw = self._raw_eval(points)  # (npts, n_dim, 2)
        return np.tensordot(raw, self._coeffs, axes=([1], [0])).transpose(0, 2, 1)

    def div(self, points) -> np.ndarray:
        """Member divergences, shape (npts, n_members)."""
        return self._raw_div(points) @ self._coeffs

    def normal_trace(self, edge: int, points) -> np.ndarray:
        """Member normal components on one edge, shape (npts, n_members)."""
        return self.eval(points) @ self.edge_normals[edge]


# ---------------------------------------------------------------------------
# correction fields
# ---------------------------------------------------------------------------

@dataclass
class CorrectionField:
    """A constructed scaled correction field, tabulated for one element.

    ``traces[e]`` holds the field's normal component at the edge quadrature
    points of local edge ``e`` and ``alpha[e]`` the interface mismatch it was
    built to match; ``r_sigma`` are the induced redistribution vectors and
    ``div_moments[s] = oint phi_s div(grad_psi) dx`` feeds the divergence
    form of the residual.
    """

    traces: list[np.ndarray]  # per local edge, (nq_e, p)
    alpha: list[np.ndarray]  # per local edge, (nq_e, p)
    r_sigma: np.ndarray  # (n_dof, p)
    div_moments: np.ndarray  # (n_dof, p)
    volume_integral: np.ndarray  # (p, 2)
    solve_residual: float = 0.0

    def trace_defect(self) -> float:
        worst = 0.0
        for got, want in zip(self.traces, self.alpha):
            worst = max(worst, float(np.abs(got - want).max(initial=0.0)))
        return worst

    def r_sum(self) -> float:
        return float(np.abs(self.r_sigma.sum(axis=0)).max(initial=0.0))

    def scale(self) -> float:
        mags = [np.abs(a).max(initial=0.0) for a in self.alpha]
        return max(1.0, float(max(mags, default=0.0)), float(np.abs(self.r_sigma).max(initial=0.0)))


class RTCorrectionBackend:
    """Per-element tables turning interface mismatches into RT correction
    fields: ``r_table``, ``div_table`` (nd, m), ``vol_table`` (m, 2) and
    ``trace_tables`` (one (nq_e, m) block per local edge), from the
    element's one-element ``space``, its volume rule ``vol_points`` (nq, 2)
    and ``vol_w`` (nq,), and its edge rule points ``edge_points`` (one (nq_e, 2)
    block per local edge).  Requires the edge quadrature points to coincide
    with the RT flux points (the default Gauss choice)."""

    def __init__(self, basis: RTBasis, space: SpaceStack, vol_points, vol_w, edge_points):
        self.basis = basis
        self.n_alpha = basis.n_members
        grad = space.grad(vol_points[None])[0]  # (nq, nd, 2)
        phi = space.eval(vol_points[None])[0]
        hval = basis.eval(vol_points)  # (nq, m, 2)
        hdiv = basis.div(vol_points)  # (nq, m)
        self.r_table = -np.einsum("q,qdx,qmx->dm", vol_w, grad, hval)
        self.div_table = np.einsum("q,qd,qm->dm", vol_w, phi, hdiv)
        self.vol_table = np.einsum("q,qmx->mx", vol_w, hval)  # (m, 2)
        self.trace_tables = []
        for e, pts in enumerate(edge_points):
            if len(pts) != basis.degree + 1 or not np.allclose(
                pts, basis.flux_points[e], atol=1e-12
            ):
                raise CorrectionError(
                    "edge quadrature points must coincide with the RT flux points"
                )
            self.trace_tables.append(basis.normal_trace(e, pts))

    def field(self, alpha: list[np.ndarray]) -> CorrectionField:
        """Correction field for mismatch values ``alpha[e]`` of shape
        (n_flux_points, p) per local edge."""
        coeff = np.vstack(alpha)  # (m, p)
        traces = [tab @ coeff for tab in self.trace_tables]
        return CorrectionField(
            traces=traces,
            alpha=[np.asarray(a, dtype=float) for a in alpha],
            r_sigma=self.r_table @ coeff,
            div_moments=self.div_table @ coeff,
            volume_integral=coeff.T @ self.vol_table,
        )


def rt_group_tables(p: int, coords: np.ndarray, flux_points: np.ndarray, vol_order: int,
                    elem_ids: np.ndarray):
    """The RT correction tables of a stack of triangles in one pass.

    ``coords`` (nE, 3, 2) are the vertices, ``flux_points`` (nE, 3, p+1, 2)
    the flux (edge quadrature) points of each local edge, and ``vol_order``
    the order of the group's volume rule, the reference triangle's rule
    mapped to each element.  Each element's members are the contravariant
    Piola images ``jac @ psi / det`` of the reference triangle's orthonormal
    RT_p span psi, closed as ``RTBasis`` closes them, so its Gram matrix is
    the reference Gram tensors weighted by the metric ``jac^T jac`` and its
    tables are fixed reference matrices times its closure coefficients.
    Returns (r, div, vol, trace) of shapes (nE, nd, m), (nE, nd, m),
    (nE, m, 2) and (nE, m, m).  A singular dual-functional matrix raises
    ``CorrectionError`` naming the first such element by its id in
    ``elem_ids``.
    """
    if not 1 <= p <= MAX_DEGREE:
        raise CorrectionError(f"Raviart-Thomas order {p} not supported")
    n_elem = len(coords)
    orth, gram_ref = _reference_span(p)
    r_ref, div_ref, vol_ref = _reference_tables(p, vol_order)
    # the affine maps x = coords[:, 0] + jac @ xhat from the reference triangle
    jac = (coords[:, 1:] - coords[:, :1]).mT
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    xhat = (flux_points.reshape(n_elem, -1, 2) - coords[:, :1]) @ np.linalg.inv(jac).mT

    # trace functionals n . (jac @ psi) / det = psi . (jac^T n / det), the
    # outward normals pulled back, one per member
    tang = np.roll(coords, -1, axis=1) - coords
    normals = np.stack([tang[..., 1], -tang[..., 0]], axis=-1)
    normals /= np.hypot(tang[..., 0], tang[..., 1])[..., None]
    pulled = np.repeat(normals @ jac / det[:, None, None], p + 1, axis=1)  # (nE, m, 2)
    raw = _rt_span(_reference_local(xhat), p)  # (nE, m, n_dim, 2)
    tmat = (raw[..., 0] * pulled[..., :1] + raw[..., 1] * pulled[..., 1:]) @ orth

    # the Gram matrix int (jac psi_i) . (jac psi_j) / det^2 dx
    metric = (jac.mT @ jac).reshape(n_elem, 4)
    gram = (metric @ gram_ref / np.abs(det)[:, None]).reshape(n_elem, tmat.shape[2], -1)
    coeffs = _cardinal_coeffs(gram, tmat, elem_ids)  # (nE, n_dim, m)
    # under the mapped rule (det times the reference weights) the integrands
    # grad(phi) . (jac psi) / det and phi div(psi) / det give the reference
    # tables, and the field integral is jac times the reference one
    return r_ref @ coeffs, div_ref @ coeffs, coeffs.mT @ vol_ref @ jac.mT, tmat @ coeffs


def _constrained_stack(k, coords, dof_coords, edge_pts, normals, vol_points,
                       vol_w, vol_phi, vol_grad, elem_ids) -> list:
    """The operators of ``constrained_group_tables``' stack, each element at
    the lowest field degree that passes the probe: one ``(index, degree,
    ops)`` per degree taken, ``ops`` stacked over the elements ``index`` and
    named as ``NeumannCorrectionBackend``'s attributes.  An element that
    passes at no degree raises ``CorrectionError`` naming its id."""
    n_elem, n_edge, nq = edge_pts.shape[:3]
    if nq == 1:
        raise CorrectionError("constrained correction needs at least 2 edge points")
    # the degree-d field basis is [P_d]^2, the first (d+1)(d+2) members of
    # the RT_d span, in coordinates centred at the DOF mean
    center = dof_coords.mean(axis=1)[:, None, :]
    scale = np.sqrt(np.abs(shoelace_area(coords)))[:, None, None]
    vol_u = (vol_points - center) / scale

    def normal_trace(points, idx, degree):  # (nT, n, npts, 2) -> (nT, n, npts, n_c)
        u = (points - center[idx, None]) / scale[idx, None]
        vals = _rt_span(u, degree)[..., : (degree + 1) * (degree + 2), :]
        return (vals @ normals[idx, :, None, :, None])[..., 0]

    # the trace is pinned at d+1 Gauss points of the segment that each
    # edge's rule points span, to the interpolant through the rule values
    tq, _ = gauss_legendre_01(nq)
    span = edge_pts[:, :, -1] - edge_pts[:, :, 0]
    p0 = edge_pts[:, :, 0] - tq[0] * span / (tq[-1] - tq[0])
    p1 = p0 + span / (tq[-1] - tq[0])
    # the probe: interpolant traces and zero-sum moments must be reachable
    # on three seeded random draws, the same for every element and degree
    rng = np.random.default_rng(20240917)
    draws = [(rng.standard_normal((n_edge, nq, 1)), rng.standard_normal((vol_phi.shape[-1], 1)))
             for _ in range(3)]
    draws = [(alpha, target - target.mean(axis=0, keepdims=True)) for alpha, target in draws]

    found, todo = [], np.arange(n_elem)
    for degree in range(k + 1, k + 8):  # field degrees k+1 ... k+7, lowest first
        n_c = (degree + 1) * (degree + 2)
        t_ext, _ = gauss_legendre_01(degree + 1)
        interp = lagrange_values(tq, t_ext)
        ext = p0[todo, :, None] + t_ext[:, None] * (p1 - p0)[todo, :, None]
        a_tr = normal_trace(ext, todo, degree).reshape(len(todo), -1, n_c)
        vol_basis = _rt_span(vol_u[todo], degree)[..., :n_c, :]
        w = vol_w[todo]
        a_mom = np.einsum("eq,eqdx,eqmx->edm", w, vol_grad[todo], vol_basis)

        # minimum-norm solve operators, one batched solve per trace rank:
        # traces as hard constraints, moments least-squares on their null space
        u_, s_, vt_ = np.linalg.svd(a_tr)
        rank = (s_ > s_[:, :1] * 1e-12).sum(axis=1)
        p_tr, s_tr = np.empty((2,) + a_tr.mT.shape)
        s_mom = np.empty(a_mom.mT.shape)
        for r in set(rank.tolist()):
            sel = rank == r
            p = (vt_[sel, :r].mT / s_[sel, None, :r]) @ u_[sel, :, :r].mT
            null = vt_[sel, r:].mT
            q = np.linalg.pinv(a_mom[sel] @ null, rcond=1e-12)
            p_tr[sel], s_mom[sel] = p, null @ q
            s_tr[sel] = p - null @ q @ (a_mom[sel] @ p)

        passed = np.ones(len(todo), dtype=bool)
        for alpha, target in draws:
            b_tr = (interp @ alpha).reshape(-1, 1)
            coeffs = s_tr @ b_tr + s_mom @ target
            passed &= ~(np.abs(a_tr @ coeffs - b_tr).max(axis=(1, 2)) > 1e-9)
            passed &= ~(np.abs(a_mom @ coeffs - target).max(axis=(1, 2)) > 1e-9)
        if passed.any():
            idx = todo[passed]
            ops = dict(_edge_normals=normals[idx], _center=center[idx], _scale=scale[idx],
                       _interp_ops=np.broadcast_to(interp, (len(idx), n_edge) + interp.shape),
                       _a_tr=a_tr[passed], _a_mom=a_mom[passed], _p_tr=p_tr[passed],
                       _s_tr=s_tr[passed], _s_mom=s_mom[passed], _r_coef=-a_mom[passed])
            div_basis = _rt_span_div(vol_u[idx], degree)[..., :n_c] / scale[idx]
            ops["_div_coef"] = np.einsum("eq,eqd,eqm->edm", w[passed], vol_phi[idx], div_basis)
            ops["_vol_coef"] = np.einsum("eq,eqmx->emx", w[passed], vol_basis[passed])
            ops["_trace_coef"] = normal_trace(edge_pts[idx], idx, degree)
            # the free field's coefficients p_tr @ blockdiag(interp) @ alpha,
            # precomposed into mismatch-space tables; traces edge by edge
            blocks = ops["_p_tr"].reshape(len(idx), n_c, n_edge, -1).transpose(0, 2, 1, 3)
            free = (blocks @ interp).transpose(0, 2, 1, 3).reshape(len(idx), n_c, -1)
            ops.update(r_table=ops["_r_coef"] @ free, div_table=ops["_div_coef"] @ free,
                       vol_table=free.mT @ ops["_vol_coef"],
                       trace_tables=ops["_trace_coef"] @ free[:, None])
            found.append((idx, degree, ops))
        todo = todo[~passed]
        if not todo.size:
            return found
    raise CorrectionError(
        f"element {elem_ids[todo[0]]}: no admissible polynomial degree for the correction "
        f"field on a {n_edge}-gon (tried up to degree {degree})"
    )


def constrained_group_tables(k: int, coords: np.ndarray, dof_coords: np.ndarray,
                             edge_pts: np.ndarray, normals: np.ndarray,
                             vol_points: np.ndarray, vol_w: np.ndarray, vol_phi: np.ndarray,
                             vol_grad: np.ndarray, elem_ids: np.ndarray):
    """The constrained correction tables of a stack of elements in one pass:
    ``NeumannCorrectionBackend``'s tables in ``rt_group_tables``' shapes.

    ``dof_coords`` (nE, nd, 2) are the DOF points of the degree-``k``
    spaces, ``edge_pts`` (nE, n, nq, 2) the edge rule points and ``normals``
    (nE, n, 2) the outward unit normals of each local edge, ``vol_points``
    (nE, nq, 2), ``vol_w``, ``vol_phi`` (nE, nq, nd) and ``vol_grad``
    (nE, nq, nd, 2) the volume rule and basis tables; returns (r, div, vol,
    trace) in ``rt_group_tables``' shapes, and an element that passes the
    probe at no degree raises ``CorrectionError`` naming its id in
    ``elem_ids``."""
    n_elem, n_edge, nq = edge_pts.shape[:3]
    m = n_edge * nq
    r, div = np.empty((2, n_elem, vol_phi.shape[-1], m))
    vol, trace = np.empty((n_elem, m, 2)), np.empty((n_elem, m, m))
    for idx, _, ops in _constrained_stack(k, coords, dof_coords, edge_pts, normals, vol_points,
                                          vol_w, vol_phi, vol_grad, elem_ids):
        r[idx], div[idx], vol[idx] = ops["r_table"], ops["div_table"], ops["vol_table"]
        trace[idx] = ops["trace_tables"].reshape(len(idx), m, m)
    return r, div, vol, trace


class NeumannCorrectionBackend:
    """Constrained least-squares correction fields on one (convex) element,
    built as the stack of one of ``constrained_group_tables``.

    The field's degree is the smallest >= k+1 whose constrained solve
    reproduces interpolant traces and zero-sum interior moments to near
    machine precision (a deterministic probe at build time).  The normal
    trace per edge is pinned, at degree+1 points, to the low-degree
    interpolant of the mismatch data, which keeps edge integrals against the
    solution basis exact.  Both solve operators are precomputed, and the
    free field's is precomposed into the mismatch-space tables the RT
    backend exposes (``r_table``, ``div_table``, ``vol_table``,
    ``trace_tables``).  ``space`` is the element's one-element space,
    ``vol_points`` (nq, 2) and ``vol_w`` (nq,) its volume rule,
    ``edge_points`` (n, nq_e, 2) its edge rule points and ``edge_normals``
    (n, 2) the outward unit normals of its local edges.
    """

    def __init__(self, space: SpaceStack, vol_points, vol_w, edge_points, edge_normals):
        pts = vol_points[None]
        ((_, self.field_degree, ops),) = _constrained_stack(
            space.degree, space.vertices, space.dof_coords, np.asarray(edge_points)[None],
            np.asarray(edge_normals, dtype=float)[None], pts, vol_w[None],
            space.eval(pts), space.grad(pts), [0])
        for name, op in ops.items():
            setattr(self, name, op[0])

    def field_basis(self, points) -> np.ndarray:
        """The field basis, [P_d]^2 with d = ``field_degree``, at ``points``:
        shape (npts, n_coef, 2)."""
        d, u = self.field_degree, (np.atleast_2d(points) - self._center) / self._scale
        return _rt_span(u, d)[:, : (d + 1) * (d + 2)]

    def solve(self, alpha: list[np.ndarray], target_r: np.ndarray) -> CorrectionField:
        """Field matching boundary traces ``alpha`` and interior moments
        ``oint grad(phi_s) . grad_psi dx = target_r[s]``.

        ``target_r`` must sum to zero over the element (within 1e-10
        relative); the induced redistribution vectors are ``-target_r``.
        """
        target_r = np.asarray(target_r, dtype=float)
        if target_r.ndim == 1:
            target_r = target_r[:, None]
        defect = np.abs(target_r.sum(axis=0)).max()
        if defect > 1e-10 * max(1.0, float(np.abs(target_r).max())):
            raise CorrectionError("incompatible interior moments: they must sum to zero "
                                  f"(got {defect:.3e})")
        return self._field(alpha, target_r)

    def free_field(self, alpha: list[np.ndarray]) -> CorrectionField:
        """Minimum-norm field matching the boundary traces only; its
        redistribution vectors fall out of the solve (generically nonzero),
        the counterpart of the min-norm cardinal members on triangles."""
        return self._field(alpha, None)

    def _field(self, alpha: list[np.ndarray], target_r: np.ndarray | None) -> CorrectionField:
        # the field with prescribed interior moments, or without (None)
        alpha = np.asarray(alpha, dtype=float)  # (n_edges, nq, p)
        b_tr = (self._interp_ops @ alpha).reshape(-1, alpha.shape[-1])
        if target_r is None:
            coeffs, res = self._p_tr @ b_tr, 0.0
        else:
            coeffs = self._s_tr @ b_tr + self._s_mom @ target_r
            res = np.abs(self._a_mom @ coeffs - target_r).max(initial=0.0)
        return CorrectionField(
            traces=list(self._trace_coef @ coeffs),
            alpha=list(alpha),
            r_sigma=self._r_coef @ coeffs,
            div_moments=self._div_coef @ coeffs,
            volume_integral=coeffs.T @ self._vol_coef,
            solve_residual=float(max(res, np.abs(self._a_tr @ coeffs - b_tr).max(initial=0.0))),
        )
