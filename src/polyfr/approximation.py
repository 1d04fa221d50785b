"""Element polynomial spaces and quadrature of prescribed order.

Three element families are supported, all expressed directly in physical
coordinates, each built for a whole stack of same-family elements at once
(a :class:`SpaceStack`: vertices (nE, n, 2), ``eval``/``grad`` at points
(nE, m, 2)):

* ``triangle`` (``TriangleSpaces``): total-degree Lagrange bases on the
  equispaced node lattice, degrees 1 through 3, one batched Vandermonde
  solve;
* ``quad`` (``QuadSpaces``): tensor-product Lagrange bases through the
  bilinear map from the unit square, degrees 1 through 3 (polynomial in
  physical coordinates exactly when the element is a parallelogram), with
  one batched Newton inverse map;
* ``polygon`` (``PolygonSpaces``): Wachspress coordinates on convex
  polygons, degree 1 only.

One element is a stack of one: vertices (1, n, 2), points (1, m, 2).
``edge_rules`` and ``volume_rules`` give stacks of edge and volume rules,
the latter padded with zero weights where the per-element orders differ.
Volume rules promise exactness for all monomials of total degree up to
their order; ``rule_moment_defects`` checks the promise against analytic
polygon moments computed independently via the divergence theorem.
"""

from __future__ import annotations

import math
import numpy as np

from .mesh import polygon_centroid, shoelace_area


MAX_DEGREE = 3  # of the triangle and quad spaces and of the RT_k corrections


class UnsupportedSpace(ValueError):
    pass


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def element_kind(n_vertices: int) -> str:
    """The element family of an n-gon: triangle, quad or polygon."""
    return {3: "triangle", 4: "quad"}.get(n_vertices, "polygon")


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def edge_rules(p0, p1, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rules on a stack of segments [p0, p1] (..., 2), exact for 1D
    degree <= order: points (..., nq, 2) and weights (..., nq)."""
    n = max(1, math.ceil((order + 1) / 2))
    t, w = gauss_legendre_01(n)
    span = p1 - p0
    pts = p0[..., None, :] + t[:, None] * span[..., None, :]
    return pts, w * np.hypot(span[..., 0], span[..., 1])[..., None]


def triangle_rules(coords: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed Gauss rules on a stack of triangles ``coords`` (nE, 3, 2):
    points (nE, nq, 2) and weights (nE, nq)."""
    # collapsed tensor rule on the reference triangle, mapped affinely:
    # x = a, y = b*(1-a) with jacobian (1-a); n-point Gauss per direction is
    # exact for total degree 2n-2 after the collapse
    n = max(1, math.ceil((order + 2) / 2))
    t, w = gauss_legendre_01(n)
    a = np.repeat(t, n)
    b = np.tile(t, n)
    wab = np.repeat(w, n) * np.tile(w, n) * (1.0 - a)
    x = a[None, :, None]
    y = (b * (1.0 - a))[None, :, None]
    v0, v1, v2 = (coords[:, i, None, :] for i in range(3))
    pts = v0 + x * (v1 - v0) + y * (v2 - v0)
    return pts, wab * 2.0 * shoelace_area(coords)[:, None]


def _bilinear_map(coords: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map reference-square points ``r`` (..., m, 2) into the quads
    ``coords`` (..., 4, 2); also return the jacobians (..., m, 2(xy), 2(ab))."""
    v0, v1, v2, v3 = (coords[..., i, None, :] for i in range(4))
    a, b = r[..., 0, None], r[..., 1, None]
    pts = (1 - a) * (1 - b) * v0 + a * (1 - b) * v1 + a * b * v2 + (1 - a) * b * v3
    dxda = -(1 - b) * v0 + (1 - b) * v1 + b * v2 - b * v3
    dxdb = -(1 - a) * v0 - a * v1 + a * v2 + (1 - a) * v3
    return pts, np.stack([dxda, dxdb], axis=-1)


def _det(jac: np.ndarray) -> np.ndarray:
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]


def _quad_rules(coords: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    # tensor Gauss rule on the unit square under each bilinear map
    n = max(1, math.ceil((order + 2) / 2))
    t, w = gauss_legendre_01(n)
    r = np.stack([np.repeat(t, n), np.tile(t, n)], axis=1)
    pts, jac = _bilinear_map(coords, r)
    return pts, np.repeat(w, n) * np.tile(w, n) * _det(jac)


def _fan_rules(coords: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    # one triangle per edge, closed at the centroid
    fan = np.stack([
        coords, np.roll(coords, -1, axis=1),
        np.broadcast_to(polygon_centroid(coords)[:, None], coords.shape),
    ], axis=2)
    pts, w = triangle_rules(fan.reshape(-1, 3, 2), order)
    return pts.reshape(len(coords), -1, 2), w.reshape(len(coords), -1)


_RULES = {"triangle": triangle_rules, "quad": _quad_rules, "polygon": _fan_rules}


def volume_rules(kind: str, coords: np.ndarray, orders) -> tuple[np.ndarray, np.ndarray]:
    """Volume rules on a stack of ``kind`` elements ``coords`` (nE, n, 2),
    element e exact for total degree <= ``orders[e]`` (or one ``orders`` for
    all): points (nE, nq, 2) and weights (nE, nq).

    Triangles use a collapsed Gauss rule, quadrilaterals a tensor rule under
    the bilinear map, and general polygons a centroid-fan of triangle rules.
    Rules shorter than the longest are padded at the end with copies of
    their last point and zero weights.
    """
    coords = np.asarray(coords, dtype=float)
    orders = np.broadcast_to(orders, len(coords))
    # a set, not np.unique: that imports numpy.ma on first use (30 ms)
    parts = {o: _RULES[kind](coords[orders == o], o) for o in set(orders.tolist())}
    nq = max((w.shape[1] for _, w in parts.values()), default=0)
    pts = np.zeros((len(coords), nq, 2))
    wts = np.zeros((len(coords), nq))
    for o, (x, w) in parts.items():
        sel = orders == o
        m = w.shape[1]
        pts[sel, :m], pts[sel, m:] = x, x[:, -1:]
        wts[sel, :m] = w
    return pts, wts


def polygon_moment(coords, a: int, b: int) -> float:
    """Exact integral of x^a y^b over a polygon via the divergence theorem.

    Serves as the independent oracle for quadrature exactness: the area
    integral is reduced to 1D edge integrals of polynomials, evaluated with
    Gauss rules of sufficient order.
    """
    coords = np.asarray(coords, dtype=float)
    n1d = math.ceil((a + b + 2) / 2) + 1
    t, w = gauss_legendre_01(n1d)
    total = 0.0
    m = len(coords)
    for i in range(m):
        p0, p1 = coords[i], coords[(i + 1) % m]
        x = p0[0] + t * (p1[0] - p0[0])
        y = p0[1] + t * (p1[1] - p0[1])
        dy = p1[1] - p0[1]
        total += float(np.sum(w * x ** (a + 1) * y**b) * dy / (a + 1))
    return total


def rule_moment_defects(points, weights, order: int, coords) -> float:
    """Worst scaled exactness defect of the rule ``points`` (n, 2),
    ``weights`` (n,) on the polygon ``coords`` over the monomials of total
    degree <= ``order``.

    Defects are scaled by |K| * max|x|^a * max|y|^b so that symmetric
    (vanishing) moments do not inflate the measure.
    """
    coords = np.asarray(coords, dtype=float)
    area = abs(polygon_moment(coords, 0, 0))
    mx = max(1e-30, float(np.abs(coords[:, 0]).max()))
    my = max(1e-30, float(np.abs(coords[:, 1]).max()))
    worst = 0.0
    for a in range(order + 1):
        for b in range(order + 1 - a):
            exact = polygon_moment(coords, a, b)
            approx = float(np.sum(weights * points[:, 0] ** a * points[:, 1] ** b))
            scale = max(abs(exact), area * mx**a * my**b)
            worst = max(worst, abs(approx - exact) / scale)
    return worst


# ---------------------------------------------------------------------------
# node layouts (shared with the DOF-graph construction)
# ---------------------------------------------------------------------------

def triangle_node_layout(k: int) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Equispaced lattice on the triangle in canonical (vertices, edges,
    interior) order; returns fractional coordinates and the sub-triangulation
    connecting the nodes."""
    lattice = [(i, j) for j in range(k + 1) for i in range(k + 1 - j)]
    canonical: list[tuple[int, int]] = [(0, 0), (k, 0), (0, k)]
    canonical += [(i, 0) for i in range(1, k)]
    canonical += [(k - t, t) for t in range(1, k)]
    canonical += [(0, k - t) for t in range(1, k)]
    canonical += [
        (i, j) for j in range(1, k) for i in range(1, k - j) if i + j <= k - 1
    ]
    assert len(canonical) == len(lattice)
    index = {ij: m for m, ij in enumerate(canonical)}
    fractions = np.array([(i / k, j / k) for i, j in canonical])
    subtris: list[tuple[int, int, int]] = []
    for j in range(k):
        for i in range(k - j):
            subtris.append((index[(i, j)], index[(i + 1, j)], index[(i, j + 1)]))
            if i + j <= k - 2:
                subtris.append((index[(i + 1, j)], index[(i + 1, j + 1)], index[(i, j + 1)]))
    return fractions, subtris


def quad_node_layout(k: int) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Tensor lattice on the reference square in canonical order plus its
    sub-triangulation."""
    canonical: list[tuple[int, int]] = [(0, 0), (k, 0), (k, k), (0, k)]
    canonical += [(i, 0) for i in range(1, k)]
    canonical += [(k, j) for j in range(1, k)]
    canonical += [(i, k) for i in range(k - 1, 0, -1)]
    canonical += [(0, j) for j in range(k - 1, 0, -1)]
    canonical += [(i, j) for j in range(1, k) for i in range(1, k)]
    index = {ij: m for m, ij in enumerate(canonical)}
    fractions = np.array([(i / k, j / k) for i, j in canonical])
    subtris: list[tuple[int, int, int]] = []
    for j in range(k):
        for i in range(k):
            a, b = index[(i, j)], index[(i + 1, j)]
            c, d = index[(i + 1, j + 1)], index[(i, j + 1)]
            subtris.append((a, b, c))
            subtris.append((a, c, d))
    return fractions, subtris


# ---------------------------------------------------------------------------
# element spaces
# ---------------------------------------------------------------------------

def monomial_exponents(degree: int) -> list[tuple[int, int]]:
    """The exponents (a, b) of the monomials x^a y^b of total degree up to
    ``degree``, degree by degree, each with a falling."""
    return [(a, d - a) for d in range(degree + 1) for a in range(d, -1, -1)]


def lagrange_values(nodes: np.ndarray, t) -> np.ndarray:
    """Values of the 1D Lagrange basis through ``nodes`` at the points ``t``:
    shape t.shape + (len(nodes),)."""
    n = len(nodes)
    vals = np.ones(np.shape(t) + (n,))
    for i in range(n):
        for j in range(n):
            if j != i:
                vals[..., i] *= (t - nodes[j]) / (nodes[i] - nodes[j])
    return vals


class SpaceStack:
    """Lagrange-type bases bound to a stack of physical elements of one
    family, vertices (nE, n, 2).

    Each family provides ``eval``, mapping points (nE, m, 2), row e inside
    element e, to values (nE, m, nd), and ``grad``, mapping them to
    gradients (nE, m, nd, 2); ``dof_coords`` is (nE, nd, 2) and
    ``sub_triangulation`` the DOF sub-triangles.  ``take`` selects elements,
    sharing the per-element arrays (the names in ``_stacked``) instead of
    building them again.
    """

    kind: str
    _stacked = ("vertices", "dof_coords")

    def __init__(self, coords, degree):
        self.vertices = np.asarray(coords, dtype=float)
        self.degree = int(degree)

    def take(self, index) -> "SpaceStack":
        """The stack of the elements ``index`` (a slice or index array)."""
        sub = object.__new__(type(self))
        sub.__dict__.update(self.__dict__)
        for name in self._stacked:
            setattr(sub, name, getattr(self, name)[index])
        return sub


class TriangleSpaces(SpaceStack):
    """Total-degree Lagrange spaces on a stack of triangles, built with one
    batched Vandermonde solve.  Each element's basis is expanded in
    monomials centred at its centroid and scaled by the square root of its
    area."""

    kind = "triangle"
    _stacked = ("vertices", "dof_coords", "_center", "_scale", "_coeffs")

    def __init__(self, coords, degree):
        if not 1 <= degree <= MAX_DEGREE:
            raise UnsupportedSpace(f"triangle degree {degree} not supported")
        super().__init__(coords, degree)
        fractions, self.sub_triangulation = triangle_node_layout(degree)
        v0, v1, v2 = (self.vertices[:, i, None, :] for i in range(3))
        self.dof_coords = v0 + fractions[:, :1] * (v1 - v0) + fractions[:, 1:] * (v2 - v0)
        self._center = polygon_centroid(self.vertices)
        self._scale = np.sqrt(np.abs(shoelace_area(self.vertices)))
        self._exponents = monomial_exponents(degree)
        vmat = self._monomials(self.dof_coords)
        self._coeffs = np.linalg.solve(vmat, np.eye(vmat.shape[-1]))

    def _local(self, points):
        return (points - self._center[:, None, :]) / self._scale[:, None, None]

    def _monomials(self, points):
        u = self._local(points)
        return np.stack([u[..., 0] ** a * u[..., 1] ** b for a, b in self._exponents], axis=-1)

    def eval(self, points):
        return self._monomials(points) @ self._coeffs

    def grad(self, points):
        u = self._local(points)
        cols_x, cols_y = [], []
        for a, b in self._exponents:
            cols_x.append(a * u[..., 0] ** max(a - 1, 0) * u[..., 1] ** b if a else 0.0 * u[..., 0])
            cols_y.append(b * u[..., 0] ** a * u[..., 1] ** max(b - 1, 0) if b else 0.0 * u[..., 0])
        scale = self._scale[:, None, None]
        dx = np.stack(cols_x, axis=-1) @ self._coeffs / scale
        dy = np.stack(cols_y, axis=-1) @ self._coeffs / scale
        return np.stack([dx, dy], axis=-1)


class QuadSpaces(SpaceStack):
    """Tensor-product Lagrange spaces on a stack of quadrilaterals through
    their bilinear maps from the unit square (polynomial in physical
    coordinates exactly when the element is a parallelogram)."""

    kind = "quad"

    def __init__(self, coords, degree):
        if not 1 <= degree <= MAX_DEGREE:
            raise UnsupportedSpace(f"quad degree {degree} not supported")
        super().__init__(coords, degree)
        fractions, self.sub_triangulation = quad_node_layout(degree)
        self._nodes_1d = np.linspace(0.0, 1.0, degree + 1)
        self._node_idx = (fractions * degree).round().astype(int)
        self.dof_coords, _ = _bilinear_map(self.vertices, fractions)

    def _lagrange_1d(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # values and derivatives (t.shape + (k+1,)) of the 1D Lagrange basis
        nodes = self._nodes_1d
        n = len(nodes)
        ders = np.zeros(t.shape + (n,))
        for i in range(n):
            for m in range(n):
                if m == i:
                    continue
                term = np.ones_like(t) / (nodes[i] - nodes[m])
                for j in range(n):
                    if j in (i, m):
                        continue
                    term *= (t - nodes[j]) / (nodes[i] - nodes[j])
                ders[..., i] += term
        return lagrange_values(nodes, t), ders

    def _inverse_map(self, points: np.ndarray) -> np.ndarray:
        # Newton on the bilinear maps; each element stops once the residual
        # at all of its points is below the tolerance
        r = np.full_like(points, 0.5)
        tol = 1e-14 * (1.0 + np.abs(points).max(axis=(1, 2), initial=0.0))
        todo = np.arange(len(points))
        for _ in range(30):
            x, jac = _bilinear_map(self.vertices[todo], r[todo])
            res = points[todo] - x
            det = _det(jac)
            dr0 = (jac[..., 1, 1] * res[..., 0] - jac[..., 0, 1] * res[..., 1]) / det
            dr1 = (-jac[..., 1, 0] * res[..., 0] + jac[..., 0, 0] * res[..., 1]) / det
            r[todo] = r[todo] + np.stack([dr0, dr1], axis=-1)
            todo = todo[np.abs(res).max(axis=(1, 2), initial=0.0) >= tol[todo]]
            if not todo.size:
                break
        return r

    def _tensor(self, r: np.ndarray):
        va, da = self._lagrange_1d(r[..., 0])
        vb, db = self._lagrange_1d(r[..., 1])
        # np.take keeps the tables C-ordered (einsum sums depend on layout)
        va, da, vb, db = (np.take(t, self._node_idx[:, i], axis=-1)
                          for t, i in ((va, 0), (da, 0), (vb, 1), (db, 1)))
        return va * vb, da * vb, va * db

    def eval(self, points):
        return self._tensor(self._inverse_map(points))[0]

    def grad(self, points):
        r = self._inverse_map(points)
        _, d_da, d_db = self._tensor(r)
        _, jac = _bilinear_map(self.vertices, r)
        det = _det(jac)[..., None]
        # the inverse-transpose of the jacobian
        dx = (jac[..., 1, 1, None] * d_da - jac[..., 1, 0, None] * d_db) / det
        dy = (-jac[..., 0, 1, None] * d_da + jac[..., 0, 0, None] * d_db) / det
        return np.stack([dx, dy], axis=-1)


class PolygonSpaces(SpaceStack):
    """Wachspress coordinates on a stack of convex n-gons (degree 1 only)."""

    kind = "polygon"
    _stacked = ("vertices", "dof_coords", "_inward", "_corner")

    def __init__(self, coords, degree):
        super().__init__(coords, degree)
        n = self.vertices.shape[1]
        if degree != 1:
            raise UnsupportedSpace(f"{n}-gon elements support degree 1 only (got {degree})")
        self.dof_coords = self.vertices.copy()
        self.sub_triangulation = [(0, i, i + 1) for i in range(1, n - 1)]
        rolled = np.roll(self.vertices, -1, axis=1)
        tangents = rolled - self.vertices
        lengths = np.hypot(tangents[..., 0], tangents[..., 1])
        # unit inward normals of edge i = [v_i, v_{i+1}]
        self._inward = np.stack([-tangents[..., 1], tangents[..., 0]], axis=-1) / lengths[..., None]
        # sine of the corner at vertex i, between edges i-1 and i
        e_prev = self.vertices - np.roll(self.vertices, 1, axis=1)
        cross = e_prev[..., 0] * tangents[..., 1] - e_prev[..., 1] * tangents[..., 0]
        self._corner = cross / (np.roll(lengths, 1, axis=1) * lengths)
        if (self._corner <= 0).any():
            raise UnsupportedSpace("Wachspress coordinates require a convex polygon")
        # the edges whose distances enter vertex i's weight
        self._keep = [[j for j in range(n) if j not in ((i - 1) % n, i)] for i in range(n)]

    def _weights(self, h: np.ndarray) -> np.ndarray:
        # vertex i's weight: its corner sine times the distances h to the
        # edge lines that do not meet at vertex i
        return np.stack([
            self._corner[:, i, None] * np.prod(h[..., keep], axis=-1)
            for i, keep in enumerate(self._keep)
        ], axis=-1)

    def _distances(self, points: np.ndarray) -> np.ndarray:
        # h[e, p, i] = signed distance of point p to edge line i (positive inside)
        diff = points[:, :, None, :] - self.vertices[:, None, :, :]
        return (diff * self._inward[:, None, :, :]).sum(-1)

    def eval(self, points):
        w = self._weights(self._distances(points))
        return w / w.sum(axis=-1, keepdims=True)

    def grad(self, points):
        # the log-derivative form below divides by the distances; on an edge
        # line, where one is zero, a distance of 1e-200 gives the finite limit
        h = self._distances(points)
        h = np.where(h == 0.0, 1e-200, h)
        w = self._weights(h)
        phi = w / w.sum(axis=-1, keepdims=True)
        ratio = np.stack([
            (self._inward[:, None, keep, :] / h[..., keep, None]).sum(axis=-2)
            for keep in self._keep
        ], axis=-2)
        mean = (phi[..., None] * ratio).sum(axis=-2, keepdims=True)
        return phi[..., None] * (ratio - mean)


SPACES = {"triangle": TriangleSpaces, "quad": QuadSpaces, "polygon": PolygonSpaces}
