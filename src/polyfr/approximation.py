"""Element polynomial spaces and quadrature of prescribed order.

Three element families are supported, all expressed directly in physical
coordinates:

* ``triangle``: total-degree Lagrange bases on the equispaced node lattice,
  degrees 1 through 3, built for a whole stack of triangles at once
  (``TriangleSpaces``, one batched Vandermonde solve); a ``TriangleSpace``
  is its stack of one;
* ``quad``: tensor-product Lagrange bases through the bilinear map from the
  unit square, degrees 1 through 3 (polynomial in physical coordinates
  exactly when the element is a parallelogram);
* ``polygon``: Wachspress coordinates on convex polygons, degree 1 only.

Quadrature rules promise exactness for all monomials of total degree up to
``declared_order``; the promise is checked against analytic polygon moments
computed independently via the divergence theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import polygon_centroid, shoelace_area


class PointOutsideElement(ValueError):
    pass


class UnsupportedSpace(ValueError):
    pass


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (n, 2) physical coordinates
    weights: np.ndarray  # (n,), positive
    declared_order: int


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def edge_quadrature(p0, p1, order: int) -> QuadratureRule:
    """Gauss rule on the segment [p0, p1], exact for 1D degree <= order."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    n = max(1, math.ceil((order + 1) / 2))
    t, w = gauss_legendre_01(n)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    return QuadratureRule(pts, w * float(np.hypot(*(p1 - p0))), order)


def triangle_rules(coords: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed Gauss rules on a stack of triangles ``coords`` (nE, 3, 2):
    points (nE, nq, 2) and weights (nE, nq).  Each row is the rule
    ``volume_quadrature`` builds for that triangle, bit for bit."""
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


def _triangle_rule(coords: np.ndarray, order: int) -> QuadratureRule:
    pts, w = triangle_rules(coords[None], order)
    return QuadratureRule(pts[0], w[0], order)


def _bilinear_map(coords: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map (m, 2) reference-square points into the quad; also return jacobians."""
    v0, v1, v2, v3 = coords
    a, b = r[:, 0], r[:, 1]
    pts = (
        np.outer((1 - a) * (1 - b), v0)
        + np.outer(a * (1 - b), v1)
        + np.outer(a * b, v2)
        + np.outer((1 - a) * b, v3)
    )
    dxda = np.outer(-(1 - b), v0) + np.outer(1 - b, v1) + np.outer(b, v2) - np.outer(b, v3)
    dxdb = np.outer(-(1 - a), v0) - np.outer(a, v1) + np.outer(a, v2) + np.outer(1 - a, v3)
    jac = np.stack([dxda, dxdb], axis=2)  # (m, 2(xy), 2(ab))
    return pts, jac


def _quad_rule(coords: np.ndarray, order: int) -> QuadratureRule:
    n = max(1, math.ceil((order + 2) / 2))
    t, w = gauss_legendre_01(n)
    r = np.stack([np.repeat(t, n), np.tile(t, n)], axis=1)
    w2 = np.repeat(w, n) * np.tile(w, n)
    pts, jac = _bilinear_map(coords, r)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    return QuadratureRule(pts, w2 * det, order)


def _fan_rule(coords: np.ndarray, order: int) -> QuadratureRule:
    # one triangle per edge, closed at the centroid
    fan = np.stack([
        coords, np.roll(coords, -1, axis=0),
        np.broadcast_to(polygon_centroid(coords), coords.shape),
    ], axis=1)
    pts, w = triangle_rules(fan, order)
    return QuadratureRule(pts.reshape(-1, 2), w.ravel(), order)


def volume_quadrature(coords, order: int, kind: str | None = None) -> QuadratureRule:
    """Volume rule on the element polygon, exact for total degree <= order.

    Triangles use a collapsed Gauss rule, quadrilaterals a tensor rule under
    the bilinear map, and general polygons a centroid-fan of triangle rules.
    """
    coords = np.asarray(coords, dtype=float)
    if kind is None:
        kind = {3: "triangle", 4: "quad"}.get(len(coords), "polygon")
    if kind == "triangle":
        return _triangle_rule(coords, order)
    if kind == "quad":
        return _quad_rule(coords, order)
    return _fan_rule(coords, order)


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


def rule_moment_defects(rule: QuadratureRule, coords) -> float:
    """Worst scaled exactness defect of a rule over its declared monomials.

    Defects are scaled by |K| * max|x|^a * max|y|^b so that symmetric
    (vanishing) moments do not inflate the measure.
    """
    coords = np.asarray(coords, dtype=float)
    area = abs(polygon_moment(coords, 0, 0))
    mx = max(1e-30, float(np.abs(coords[:, 0]).max()))
    my = max(1e-30, float(np.abs(coords[:, 1]).max()))
    worst = 0.0
    for a in range(rule.declared_order + 1):
        for b in range(rule.declared_order + 1 - a):
            exact = polygon_moment(coords, a, b)
            approx = float(np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b))
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

class ElementSpace:
    """Lagrange-type basis bound to one physical element.

    Subclasses provide ``eval`` (values, shape (m, n_dof)) and ``grad``
    (gradients, shape (m, n_dof, 2)) at arbitrary physical points.
    """

    kind: str
    degree: int

    def __init__(self, vertices: np.ndarray, degree: int):
        self.vertices = np.asarray(vertices, dtype=float)
        self.degree = int(degree)
        self.dof_coords: np.ndarray
        self.sub_triangulation: list[tuple[int, int, int]]

    @property
    def n_dof(self) -> int:
        return len(self.dof_coords)

    def eval(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-10) -> bool:
        raise NotImplementedError


class TriangleSpaces:
    """Total-degree Lagrange spaces on a stack of triangles ``coords``
    (nE, 3, 2), built with one batched Vandermonde solve.

    Each element's basis is expanded in monomials centred at its centroid
    and scaled by the square root of its area.  ``eval`` maps points
    (nE, m, 2), row e inside element e, to values (nE, m, nd) and ``grad``
    to gradients (nE, m, nd, 2); ``dof_coords`` is (nE, nd, 2).  ``[i]`` is
    element i's :class:`TriangleSpace`, which shares this stack's
    coefficients instead of solving again.
    """

    def __init__(self, coords, degree):
        if not 1 <= degree <= 3:
            raise UnsupportedSpace(f"triangle degree {degree} not supported")
        self.vertices = np.asarray(coords, dtype=float)
        self.degree = int(degree)
        fractions, self.sub_triangulation = triangle_node_layout(degree)
        v0, v1, v2 = (self.vertices[:, i, None, :] for i in range(3))
        self.dof_coords = v0 + fractions[:, :1] * (v1 - v0) + fractions[:, 1:] * (v2 - v0)
        self._center = polygon_centroid(self.vertices)
        self._scale = np.sqrt(np.abs(shoelace_area(self.vertices)))
        self._exponents = [
            (a, b) for d in range(degree + 1) for a in range(d, -1, -1) for b in [d - a]
        ]
        vmat = self._monomials(self.dof_coords)
        self._coeffs = np.linalg.solve(vmat, np.eye(vmat.shape[-1]))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i) -> "TriangleSpace":
        i = range(len(self))[i]
        one = object.__new__(TriangleSpaces)
        one.__dict__.update(self.__dict__)
        for name in ("vertices", "dof_coords", "_center", "_scale", "_coeffs"):
            setattr(one, name, getattr(self, name)[i:i + 1])
        return TriangleSpace(self.vertices[i], self.degree, one)

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


class TriangleSpace(ElementSpace):
    """One triangle's :class:`TriangleSpaces` stack of one."""

    kind = "triangle"

    def __init__(self, vertices, degree, stack: TriangleSpaces | None = None):
        super().__init__(vertices, degree)
        self._stack = stack if stack is not None else TriangleSpaces(self.vertices[None], degree)
        self.dof_coords = self._stack.dof_coords[0]
        self.sub_triangulation = self._stack.sub_triangulation

    def eval(self, points):
        return self._stack.eval(np.atleast_2d(points)[None])[0]

    def grad(self, points):
        return self._stack.grad(np.atleast_2d(points)[None])[0]

    def contains(self, x, tol: float = 1e-10) -> bool:
        v0, v1, v2 = self.vertices
        mat = np.stack([v1 - v0, v2 - v0], axis=1)
        lam = np.linalg.solve(mat, np.asarray(x, dtype=float) - v0)
        return bool(lam[0] >= -tol and lam[1] >= -tol and lam.sum() <= 1.0 + tol)


class QuadSpace(ElementSpace):
    kind = "quad"

    def __init__(self, vertices, degree):
        super().__init__(vertices, degree)
        if not 1 <= degree <= 3:
            raise UnsupportedSpace(f"quad degree {degree} not supported")
        fractions, self.sub_triangulation = quad_node_layout(degree)
        self._ref_nodes_1d = np.linspace(0.0, 1.0, degree + 1)
        self._ref_dofs = fractions
        self.dof_coords, _ = _bilinear_map(self.vertices, fractions)

    def _lagrange_1d(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nodes = self._ref_nodes_1d
        n = len(nodes)
        vals = np.ones((len(t), n))
        ders = np.zeros((len(t), n))
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                vals[:, i] *= (t - nodes[j]) / (nodes[i] - nodes[j])
            for m in range(n):
                if m == i:
                    continue
                term = np.ones_like(t) / (nodes[i] - nodes[m])
                for j in range(n):
                    if j in (i, m):
                        continue
                    term *= (t - nodes[j]) / (nodes[i] - nodes[j])
                ders[:, i] += term
        return vals, ders

    def _inverse_map(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        r = np.full_like(pts, 0.5)
        for _ in range(30):
            x, jac = _bilinear_map(self.vertices, r)
            res = pts - x
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            dr0 = (jac[:, 1, 1] * res[:, 0] - jac[:, 0, 1] * res[:, 1]) / det
            dr1 = (-jac[:, 1, 0] * res[:, 0] + jac[:, 0, 0] * res[:, 1]) / det
            r = r + np.stack([dr0, dr1], axis=1)
            if np.abs(res).max() < 1e-14 * (1.0 + np.abs(pts).max()):
                break
        return r

    def _tensor(self, r: np.ndarray):
        va, da = self._lagrange_1d(r[:, 0])
        vb, db = self._lagrange_1d(r[:, 1])
        k = self.degree
        idx = (self._ref_dofs * k).round().astype(int)
        vals = va[:, idx[:, 0]] * vb[:, idx[:, 1]]
        d_da = da[:, idx[:, 0]] * vb[:, idx[:, 1]]
        d_db = va[:, idx[:, 0]] * db[:, idx[:, 1]]
        return vals, d_da, d_db

    def eval(self, points):
        r = self._inverse_map(points)
        vals, _, _ = self._tensor(r)
        return vals

    def grad(self, points):
        r = self._inverse_map(points)
        _, d_da, d_db = self._tensor(r)
        _, jac = _bilinear_map(self.vertices, r)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        # d phi/dx = (db/dy missing) -> use inverse-transpose of the jacobian
        dx = (jac[:, 1, 1] * d_da.T - jac[:, 1, 0] * d_db.T) / det
        dy = (-jac[:, 0, 1] * d_da.T + jac[:, 0, 0] * d_db.T) / det
        return np.stack([dx.T, dy.T], axis=2)

    def contains(self, x, tol: float = 1e-10) -> bool:
        r = self._inverse_map(np.asarray(x, dtype=float)[None, :])[0]
        return bool((r >= -tol).all() and (r <= 1.0 + tol).all())


class PolygonSpace(ElementSpace):
    """Wachspress coordinates on a convex polygon (degree 1 only)."""

    kind = "polygon"

    def __init__(self, vertices, degree):
        super().__init__(vertices, degree)
        if degree != 1:
            raise UnsupportedSpace(
                f"{len(self.vertices)}-gon elements support degree 1 only (got {degree})"
            )
        n = len(self.vertices)
        self.dof_coords = self.vertices.copy()
        self.sub_triangulation = [(0, i, i + 1) for i in range(1, n - 1)]
        rolled = np.roll(self.vertices, -1, axis=0)
        tangents = rolled - self.vertices
        lengths = np.hypot(tangents[:, 0], tangents[:, 1])
        # unit inward normals of edge i = [v_i, v_{i+1}]
        self._inward = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1) / lengths[:, None]
        prev_v = np.roll(self.vertices, 1, axis=0)
        e_prev = self.vertices - prev_v
        e_next = rolled - self.vertices
        self._corner = e_prev[:, 0] * e_next[:, 1] - e_prev[:, 1] * e_next[:, 0]
        if (self._corner <= 0).any():
            raise UnsupportedSpace("Wachspress coordinates require a convex polygon")

    def _edge_distances(self, points: np.ndarray) -> np.ndarray:
        # h[p, i] = signed distance of point p to edge line i (positive inside)
        diff = np.atleast_2d(points)[:, None, :] - self.vertices[None, :, :]
        return (diff * self._inward[None, :, :]).sum(-1)

    def _weights(self, points: np.ndarray):
        pts = np.atleast_2d(points)
        h = self._edge_distances(pts)
        n = len(self.vertices)
        w = np.empty((len(pts), n))
        for i in range(n):
            keep = [j for j in range(n) if j not in ((i - 1) % n, i)]
            w[:, i] = self._corner[i] * np.prod(h[:, keep], axis=1)
        return w, h

    def eval(self, points):
        w, _ = self._weights(points)
        return w / w.sum(axis=1, keepdims=True)

    def grad(self, points):
        pts = np.atleast_2d(points)
        w, h = self._weights(pts)
        phi = w / w.sum(axis=1, keepdims=True)
        n = len(self.vertices)
        ratio = np.empty((len(pts), n, 2))
        for i in range(n):
            keep = [j for j in range(n) if j not in ((i - 1) % n, i)]
            ratio[:, i, :] = (self._inward[None, keep, :] / h[:, keep, None]).sum(axis=1)
        mean = (phi[:, :, None] * ratio).sum(axis=1, keepdims=True)
        return phi[:, :, None] * (ratio - mean)

    def contains(self, x, tol: float = 1e-10) -> bool:
        scale = math.sqrt(abs(shoelace_area(self.vertices)))
        return bool(self._edge_distances(np.asarray(x, dtype=float)[None, :]).min() >= -tol * scale)


_KINDS = {"triangle": TriangleSpace, "quad": QuadSpace, "polygon": PolygonSpace}

_REFERENCE_VERTICES = {
    "triangle": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    "quad": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    "polygon": None,  # supply vertices explicitly
}


def build_space(kind: str, degree: int, vertices=None) -> ElementSpace:
    """Build the Lagrange space of the requested kind and degree.

    Without explicit ``vertices`` the space is bound to the reference element
    (unit triangle / unit square / regular hexagon).
    """
    if kind not in _KINDS:
        raise UnsupportedSpace(f"unknown element kind {kind!r}")
    if vertices is None:
        vertices = _REFERENCE_VERTICES[kind]
        if vertices is None:
            ang = 2.0 * math.pi * np.arange(6) / 6
            vertices = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return _KINDS[kind](np.asarray(vertices, dtype=float), degree)


def space_for_coords(coords: np.ndarray, degree: int) -> ElementSpace:
    """Pick the element family from the vertex count (3 -> triangle,
    4 -> quad, else polygon)."""
    n = len(coords)
    if n == 3:
        return TriangleSpace(coords, degree)
    if n == 4:
        return QuadSpace(coords, degree)
    return PolygonSpace(coords, degree)


def interpolate(space: ElementSpace, coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate the interpolant at a point inside the element.

    ``coeffs`` has shape (n_dof,) or (n_dof, p); the result matches the
    trailing shape.  Points outside the element (beyond a small tolerance)
    raise :class:`PointOutsideElement`.
    """
    x = np.asarray(x, dtype=float)
    if not space.contains(x):
        raise PointOutsideElement(f"point {x} lies outside the element")
    vals = space.eval(x[None, :])[0]
    return vals @ np.asarray(coeffs)
