"""The stacked RT correction tables against an extended-precision
construction.

The oracle repeats the cardinal RT construction in 32-digit ``mpmath``
arithmetic, from the element's vertices and flux points alone: the raw
span in monomials about the centroid, its Gram matrix and the tables under
a collapsed Gauss rule exact for every integrand, the P_k Lagrange basis
from a Vandermonde solve at the equispaced nodes, and the L2-smallest
closure by matrix inversion.  No float span, rule or basis enters it.
"""

import numpy as np
import pytest

from polyfr import mesh as pm
from polyfr.approximation import triangle_node_layout
from polyfr.discretization import Discretization
from test_mesh_properties import N_CELLS, _jittered

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp.clone()
mp.dps = 32


def _gauss_01(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    def legendre(t):
        return mp.legendre(n, t)

    out = []
    for x0 in np.polynomial.legendre.leggauss(n)[0]:
        x = mp.findroot(legendre, mp.mpf(float(x0)))
        out.append(((x + 1) / 2, 1 / ((1 - x**2) * mp.diff(legendre, x) ** 2)))
    return out


def _rule(v, n):
    """Collapsed n x n Gauss rule on the triangle ``v``: exact for total
    degree 2n - 2."""
    e1, e2 = [v[1][i] - v[0][i] for i in range(2)], [v[2][i] - v[0][i] for i in range(2)]
    area2 = abs(e1[0] * e2[1] - e1[1] * e2[0])
    g = _gauss_01(n)
    return [([v[0][i] + a * e1[i] + b * (1 - a) * e2[i] for i in range(2)], wa * wb * (1 - a) * area2)
            for a, wa in g for b, wb in g]


def _span(k):
    """Raw RT_k members, each a list of (component, a, b) monomials
    u^a v^b: [P_k]^2, then (u, v) times the homogeneous degree-k ones."""
    mono = [(a, d - a) for d in range(k + 1) for a in range(d + 1)]
    members = [[(c, a, b)] for a, b in mono for c in (0, 1)]
    return members + [[(0, a + 1, k - a), (1, a, k - a + 1)] for a in range(k + 1)]


def _values(members, u):
    vals = []
    for mem in members:
        f = [mp.mpf(0), mp.mpf(0)]
        for c, a, b in mem:
            f[c] += u[0] ** a * u[1] ** b
        vals.append(f)
    return vals


def _divergences(members, u):
    out = []
    for mem in members:
        d = mp.mpf(0)
        for c, a, b in mem:
            if (a, b)[c]:
                d += (a, b)[c] * u[0] ** (a - (c == 0)) * u[1] ** (b - (c == 1))
        out.append(d)
    return out


def oracle_tables(k, verts, flux_points):
    """(r, div, vol, trace) of one triangle, as ``rt_group_tables`` returns
    them for one element, in ``mp`` precision, rounded to float."""
    v = [[mp.mpf(float(x)) for x in row] for row in verts]
    c = [(v[0][i] + v[1][i] + v[2][i]) / 3 for i in range(2)]
    members = _span(k)
    n_dim, m = len(members), 3 * (k + 1)
    rule = _rule(v, k + 2)

    # P_k Lagrange basis: monomials about the centroid, inverse Vandermonde
    mono = [(a, d - a) for d in range(k + 1) for a in range(d + 1)]
    frac, _ = triangle_node_layout(k)
    nodes = [[v[0][i] + mp.mpf(round(f0 * k)) / k * (v[1][i] - v[0][i])
              + mp.mpf(round(f1 * k)) / k * (v[2][i] - v[0][i]) for i in range(2)]
             for f0, f1 in frac]
    lag = mp.matrix([[(x[0] - c[0]) ** a * (x[1] - c[1]) ** b for a, b in mono]
                     for x in nodes]) ** -1

    def basis(u):
        rows = ([u[0] ** a * u[1] ** b for a, b in mono],
                [a * u[0] ** max(a - 1, 0) * u[1] ** b for a, b in mono],
                [b * u[0] ** a * u[1] ** max(b - 1, 0) for a, b in mono])
        return [mp.matrix([row]) * lag for row in rows]

    gram = mp.zeros(n_dim, n_dim)
    for x, w in rule:
        f = _values(members, (x[0] - c[0], x[1] - c[1]))
        for i in range(n_dim):
            for j in range(i + 1):
                gram[i, j] += w * (f[i][0] * f[j][0] + f[i][1] * f[j][1])
                gram[j, i] = gram[i, j]
    tmat = mp.zeros(m, n_dim)
    for e in range(3):
        t = [v[(e + 1) % 3][i] - v[e][i] for i in range(2)]
        length = mp.sqrt(t[0] ** 2 + t[1] ** 2)
        for q, xp in enumerate(flux_points[e]):
            f = _values(members, [mp.mpf(float(xp[i])) - c[i] for i in range(2)])
            for i in range(n_dim):
                tmat[e * (k + 1) + q, i] = (f[i][0] * t[1] - f[i][1] * t[0]) / length
    gram_t = gram**-1 * tmat.T
    coeffs = gram_t * (tmat * gram_t) ** -1  # (n_dim, m)

    nd = len(nodes)
    r, div, vol = mp.zeros(nd, m), mp.zeros(nd, m), mp.zeros(m, 2)
    for x, w in rule:
        u = (x[0] - c[0], x[1] - c[1])
        f = _values(members, u)
        hx, hy = (mp.matrix([[fi[comp] for fi in f]]) * coeffs for comp in (0, 1))
        hdiv = mp.matrix([_divergences(members, u)]) * coeffs
        phi, gx, gy = basis(u)
        for j in range(m):
            vol[j, 0] += w * hx[j]
            vol[j, 1] += w * hy[j]
            for d in range(nd):
                r[d, j] -= w * (gx[d] * hx[j] + gy[d] * hy[j])
                div[d, j] += w * phi[d] * hdiv[j]
    return [np.array(a.tolist(), dtype=float) for a in (r, div, vol, tmat * coeffs)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rt_tables_match_extended_precision(k):
    # the tables built from the Piola-mapped orthonormal span are within
    # 1e-14 of their largest entry of the oracle; the per-element monomial
    # Gram build they replaced was 1.1e-14 to 1.8e-13 off at k = 3
    mesh = _jittered(pm.structured_triangles(N_CELLS), np.random.default_rng(k))
    disc = Discretization(mesh, k)
    (g,) = disc.groups
    flux_points = disc.edge_pts[g.inc_edge.reshape(g.n_elements, 3)]
    for loc in (0, 9, 17):
        want = oracle_tables(k, g.coords[loc], flux_points[loc])
        got = (g.corr_r[loc], g.corr_div[loc], g.corr_vol[loc], g.corr_trace[loc])
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
