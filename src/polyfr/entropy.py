"""Entropy diagnostics and entropy-corrected residual variants.

Per element, the entropy error is the gap between the boundary integral of
the numerical entropy flux and the entropy-variable pairing of the
residuals,

    E = oint_{dK} g_hat dgamma - sum_s <v_s, Phi_s>.

The conservative correction distributes E back onto the DOFs through

    tau_s = alpha (v_s - v_mean),   alpha = E / sum_s (v_s - v_mean)^2,

which sums to zero (conservation untouched) and restores the entropy
balance exactly; adding a nonnegative multiple of (v_s - v_mean) on top
yields the dissipative variant.  The module also evaluates the smoothness
error decomposition of the entropy defect, the interface dissipation
functional, and the element-split diagnostics on the DOF graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .discretization import Discretization
from .dofgraph import ElementDofGraph
from .physics import ConservationLaw, normal_flux
from .residual import FluxSplit, ResidualSet, compute_residuals, flux_split


class DegenerateEntropyCorrection(ValueError):
    pass


# ---------------------------------------------------------------------------
# entropy error and the conservative correction
# ---------------------------------------------------------------------------

def entropy_error(disc: Discretization, law: ConservationLaw, u: np.ndarray,
                  rset: ResidualSet) -> np.ndarray:
    """Per-element entropy error of a residual set, shape (n_elem,)."""
    return rset.gbal - _pairing(disc, entropy_nodes(disc, law, u), rset.phi)


def _pairing(disc: Discretization, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-element sum_s <v_s, x_s> of two per-DOF arrays, shape (n_elem,)."""
    return disc.element_reduce(lambda a, b: np.einsum("edp,edp->e", a, b), v, x)


def entropy_nodes(disc: Discretization, law: ConservationLaw, u: np.ndarray) -> np.ndarray:
    """Nodal entropy variables, shape (n_dofs, p) like the residual arrays."""
    return law.entropy_vars(np.asarray(u, dtype=float).reshape(disc.n_dofs, -1))


def tau_correction(vnodes: np.ndarray, e_value: float,
                   degenerate_tol: float = 1e-13) -> np.ndarray:
    """Conservative redistribution of one element's entropy error.

    ``vnodes`` has shape (nd, p).  Raises on a constant-entropy element that
    still carries a significant error (nothing to distribute onto).
    """
    vbar = vnodes.mean(axis=0, keepdims=True)
    dev = vnodes - vbar
    denom = float((dev * dev).sum())
    scale = max(1.0, float(np.abs(vnodes).max()) ** 2)
    if denom < degenerate_tol * scale:
        if abs(e_value) > 1e-10 * max(1.0, abs(e_value), scale):
            raise DegenerateEntropyCorrection(
                f"entropy defect {e_value:.3e} on a constant state"
            )
        return np.zeros_like(vnodes)
    return (e_value / denom) * dev


def tau_all(disc: Discretization, law: ConservationLaw, u: np.ndarray,
            e_values: np.ndarray) -> np.ndarray:
    """Batched conservative corrections, shape (n_dofs, p)."""
    vn = entropy_nodes(disc, law, u)
    tau = np.zeros_like(vn)
    for g in disc.groups:
        v = vn[g.dof_idx]
        dev = v - v.mean(axis=1, keepdims=True)
        denom = np.einsum("edp,edp->e", dev, dev)
        scale = np.maximum(1.0, np.abs(v).max(axis=(1, 2)) ** 2)
        e_g = e_values[g.elem_ids]
        degenerate = denom < 1e-13 * scale
        bad = degenerate & (np.abs(e_g) > 1e-10 * np.maximum(1.0, scale))
        if bad.any():
            eid = int(g.elem_ids[np.nonzero(bad)[0][0]])
            raise DegenerateEntropyCorrection(
                f"entropy defect {e_g[np.nonzero(bad)[0][0]]:.3e} on a "
                f"constant state (element {eid})"
            )
        coef = np.where(degenerate, 0.0, e_g / np.where(degenerate, 1.0, denom))
        tau[g.dof_idx] = coef[:, None, None] * dev
    return tau


def cs_residuals(disc: Discretization, law: ConservationLaw, u: np.ndarray,
                 fr_set: ResidualSet) -> ResidualSet:
    """Entropy-conservative variant: residuals plus the tau correction."""
    e_vals = entropy_error(disc, law, u, fr_set)
    tau = tau_all(disc, law, u, e_vals)
    return replace(fr_set, variant="cs", phi=fr_set.phi + tau)


def st_residuals(disc: Discretization, law: ConservationLaw, u: np.ndarray,
                 cs_set: ResidualSet, jump_coeff: float = 0.1) -> ResidualSet:
    """Entropy-dissipative variant: add delta * (v_s - v_mean) with
    delta = jump_coeff * h_K * max wave speed >= 0."""
    vn = entropy_nodes(disc, law, u)
    psi = np.zeros_like(vn)
    for g, U in zip(disc.groups, disc.element_states(u)):
        v = vn[g.dof_idx]
        dev = v - v.mean(axis=1, keepdims=True)
        speeds = law.max_wave_speed(U).max(axis=1)
        delta = jump_coeff * g.diameters * np.maximum(speeds, 0.0)
        psi[g.dof_idx] = delta[:, None, None] * dev
    return replace(cs_set, variant="st", phi=cs_set.phi + psi)


def fr_entropy_condition_check(disc: Discretization, law: ConservationLaw,
                               u: np.ndarray, fr_set: ResidualSet,
                               flux_kind: str | None = None,
                               bc=None) -> dict[str, np.ndarray]:
    """Margin of the no-correction entropy-stability condition.

    Computes sum_s <v_s, r_s> - E_ref per element, where E_ref is the
    entropy error of the interpolated-flux reference residuals; the margin
    equals sum_s <v_s, Phi_s> - oint g_hat, so nonnegative values mean the
    plain reconstruction is already entropy stable on that element.
    """
    kind = flux_kind or fr_set.flux_kind
    ref = compute_residuals(disc, law, u, "dg-interp", kind, bc)
    e_ref = entropy_error(disc, law, u, ref)
    vn = entropy_nodes(disc, law, u)
    margin = _pairing(disc, vn, fr_set.r_sigma) - e_ref
    direct = _pairing(disc, vn, fr_set.phi) - fr_set.gbal
    return {"margin": margin, "direct": direct, "e_reference": e_ref}


# ---------------------------------------------------------------------------
# entropy-conservative correction via prescribed interior moments
# ---------------------------------------------------------------------------

def entropy_conservative_targets(disc: Discretization, law: ConservationLaw,
                                 u: np.ndarray, ref_set: ResidualSet) -> np.ndarray:
    """Interior-moment targets that make the corrected scheme entropy
    conservative.

    The prescribed moments are oint grad(phi_s).grad_psi dx =
    alpha(-E_ref) (v_s - v_mean); since the induced redistribution vectors
    flip the sign, the corrected residuals satisfy
    sum <v, Phi> = oint g_hat exactly.  Rows sum to zero by construction.
    """
    e_ref = entropy_error(disc, law, u, ref_set)
    return tau_all(disc, law, u, -e_ref)


def entropy_conservative_residuals(disc: Discretization, law: ConservationLaw,
                                   u: np.ndarray, flux_kind: str = "tadmor_ec",
                                   bc=None) -> ResidualSet:
    """Reconstruction residuals whose correction field is tuned, through the
    constrained solve, to be entropy conservative element by element.

    Requires the constrained (``neumann``) correction backend.
    """
    ref = compute_residuals(disc, law, u, "dg-interp", flux_kind, bc)
    targets = entropy_conservative_targets(disc, law, u, ref)
    r_sigma = np.zeros_like(ref.phi)
    for g, alpha in zip(disc.groups, ref.alpha):
        if g.correction != "neumann":
            raise ValueError("prescribed interior moments need the constrained backend")
        alist = alpha.reshape(g.n_elements, g.n_local_edges, disc.nq_edge, -1)
        for loc, (backend, dofs) in enumerate(zip(g.backends, g.dof_idx)):
            r_sigma[dofs] = backend.solve(list(alist[loc]), targets[dofs]).r_sigma
    return replace(ref, variant="fr", phi=ref.phi + r_sigma, r_sigma=r_sigma)


# ---------------------------------------------------------------------------
# smoothness decomposition of the entropy defect
# ---------------------------------------------------------------------------

@dataclass
class EntropyErrorTerms:
    sur1: np.ndarray  # volume quadrature gap of div <v^h, f^h>
    sur2: np.ndarray  # interpolated-vs-pointwise entropy variables
    sur3: np.ndarray  # interpolated-vs-pointwise flux divergence
    bo: np.ndarray  # boundary quadrature gap of <v^h, f(u^h)>.n
    co: np.ndarray  # correction pairing sum_s <v_s, r_s>


def error_decomposition(disc: Discretization, law: ConservationLaw, u: np.ndarray,
                        rset: ResidualSet, vol_order: int | None = None,
                        edge_order: int | None = None,
                        ref_boost: int = 6) -> EntropyErrorTerms:
    """Per-element smoothness terms of the entropy defect.

    Quadrature-gap terms compare the requested (default: minimal, order k
    volume / k+1 edge) rules against reference rules boosted by
    ``ref_boost`` orders; the interpolation-gap terms are evaluated with the
    reference rules.  The correction term reuses the redistribution vectors
    of the supplied residual set.
    """
    from .approximation import edge_quadrature as _edge_rule
    from .approximation import volume_quadrature as _vol_rule

    k = disc.degree
    vol_order = vol_order if vol_order is not None else k
    edge_order = edge_order if edge_order is not None else k + 1
    n_elem = disc.mesh.n_elements
    terms = EntropyErrorTerms(
        sur1=np.zeros(n_elem), sur2=np.zeros(n_elem), sur3=np.zeros(n_elem),
        bo=np.zeros(n_elem), co=np.zeros(n_elem),
    )
    u = np.asarray(u, dtype=float).reshape(disc.n_dofs, -1)
    vn = entropy_nodes(disc, law, u)

    for eid in range(n_elem):
        g = disc.groups[disc.elem_group[eid]]
        loc = disc.elem_local[eid]
        space = g.spaces[loc]
        dofs = g.dof_idx[loc]
        U = u[dofs]
        V = vn[dofs]
        F = law.flux(U)  # (nd, p, 2)
        coords = disc.mesh.element_coords(eid)

        def div_vf(pts):
            val = space.eval(pts)
            grad = space.grad(pts)
            # div of sum_j <v^h, f^h>_j: product-rule contraction of the
            # nodal interpolants
            t1 = np.einsum("qdx,dp,qt,tpx->q", grad, V, val, F)
            t2 = np.einsum("qd,dp,qtx,tpx->q", val, V, grad, F)
            return t1 + t2

        rule_lo = _vol_rule(coords, vol_order, kind=g.kind)
        rule_hi = _vol_rule(coords, vol_order + ref_boost, kind=g.kind)
        terms.sur1[eid] = float(
            np.dot(rule_lo.weights, div_vf(rule_lo.points))
            - np.dot(rule_hi.weights, div_vf(rule_hi.points))
        )

        def pointwise_divf(pts):
            val = space.eval(pts)
            grad = space.grad(pts)
            uq = val @ U  # (m, p)
            jac = law.flux_jac(uq)  # (m, p, p, 2)
            du = np.einsum("qdx,dp->qpx", grad, U)
            return np.einsum("qipx,qpx->qi", jac, du)  # (m, p)

        val_hi = space.eval(rule_hi.points)
        uq_hi = val_hi @ U
        v_gap = val_hi @ V - law.entropy_vars(uq_hi)
        divf_pt = pointwise_divf(rule_hi.points)
        terms.sur2[eid] = float(
            np.einsum("q,qp,qp->", rule_hi.weights, v_gap, divf_pt)
        )

        grad_hi = space.grad(rule_hi.points)
        divfh = np.einsum("qdx,dpx->qp", grad_hi, F)
        vq = val_hi @ V
        terms.sur3[eid] = float(
            np.einsum("q,qp,qp->", rule_hi.weights, vq, divfh - divf_pt)
        )

        bo = 0.0
        mesh = disc.mesh
        for edge_id in mesh.element_edges(eid):
            sgn = 1.0 if mesh.edge_left[edge_id] == eid else -1.0
            v0, v1 = mesh.vertices[mesh.edge_vertices[edge_id]]
            for rule, s in ((_edge_rule(v0, v1, edge_order), 1.0),
                            (_edge_rule(v0, v1, edge_order + ref_boost), -1.0)):
                val = space.eval(rule.points)
                uq = val @ U
                integrand = np.einsum(
                    "qp,qp->q", val @ V, normal_flux(law, uq, sgn * mesh.edge_normal[edge_id])
                )
                bo += s * float(np.dot(rule.weights, integrand))
        terms.bo[eid] = bo

        terms.co[eid] = float(np.einsum("dp,dp->", V, rset.r_sigma[dofs]))
    return terms


# ---------------------------------------------------------------------------
# element-split diagnostics on the DOF graph
# ---------------------------------------------------------------------------

@dataclass
class ElementSplitReport:
    c_k: float  # half pairwise entropy pairing + boundary potential integral
    b_dk: float  # half boundary jump dissipation functional
    c_k_graph: float  # same c_k with the pairing contracted on the DOF graph
    c_k_full: float  # un-halved pairwise pairing + boundary potential integral
    entropy_gap: float  # sum <v, Phi> - oint g_hat (potential-average flux)

    @property
    def stability_margin(self) -> float:
        return self.c_k - self.b_dk


def appendix_decomposition(disc: Discretization, law: ConservationLaw,
                           u: np.ndarray, rset: ResidualSet, eid: int,
                           graph: ElementDofGraph,
                           split: FluxSplit | None = None,
                           vnodes: np.ndarray | None = None) -> ElementSplitReport:
    """Element/boundary split of the entropy-stability functional on a
    linear triangle.

    The element part contracts entropy-variable differences with the
    pairwise DOF fluxes; expressed on the DOF graph, the potential
    differences against twice the control-volume interface normals
    reproduce the boundary integral of the interpolated potential, which is
    the reported equivalence.  The un-halved pairwise sum minus the
    boundary part reproduces sum <v, Phi> - oint g_hat exactly when the
    entropy flux averages the interpolated potential.

    ``vnodes`` takes the mesh-wide :func:`entropy_nodes` of ``u``, so a loop
    over elements computes them once.
    """
    if split is None:
        split = flux_split(disc, law, u, rset, eid)
    if vnodes is None:
        vnodes = entropy_nodes(disc, law, u)
    g = disc.groups[disc.elem_group[eid]]
    loc = disc.elem_local[eid]
    nd = g.n_dof
    dofs = g.dof_idx[loc]
    vn = vnodes[dofs]  # (nd, p)
    theta = law.potential(vn)  # (nd, 2)

    pair_sum = 0.0
    pair_theta = 0.0
    for (a, b), fab in split.pair_flux.items():
        dv = vn[a] - vn[b]
        pair_sum += float((dv * fab).sum())
        pair_theta += float(
            (theta[a] - theta[b]) @ (2.0 * graph.cv_normal(a, b))
        )

    # boundary integrals of the interpolated potential and the jump terms
    bnd_theta = 0.0
    b_dk = 0.0
    ghat_pot = 0.0
    rows = np.nonzero(g.inc_elem == loc)[0]
    for rrow in rows:
        edge_id = g.inc_edge[rrow]
        side = g.inc_side[rrow]
        sgn = 1.0 if side == 0 else -1.0
        w = disc.edge_w[edge_id]
        n = sgn * disc.mesh.edge_normal[edge_id]
        tr_self = (
            disc.edge_phi_left[edge_id][:, :nd]
            if side == 0
            else disc.edge_phi_right[edge_id][:, :nd]
        )
        theta_self = tr_self @ theta  # (nq, 2)
        v_self = tr_self @ vn
        other = (disc.mesh.edge_right if side == 0 else disc.mesh.edge_left)[edge_id]
        if other >= 0:
            nd_o = disc.n_dof_elem[other]
            tr_other = (
                disc.edge_phi_right[edge_id][:, :nd_o]
                if side == 0
                else disc.edge_phi_left[edge_id][:, :nd_o]
            )
            off = disc.dof_offset[other]
            v_o = vnodes[off : off + nd_o]
            theta_other = tr_other @ law.potential(v_o)
            v_other = tr_other @ v_o
        else:
            theta_other = theta_self
            v_other = v_self
        fhat = sgn * rset.fhat_star[edge_id]  # outward orientation
        bnd_theta += float(np.einsum("q,qx,x->", w, theta_self, n))
        jump_v = v_other - v_self
        jump_theta = np.einsum("qx,x->q", theta_other - theta_self, n)
        b_dk += 0.5 * float(np.dot(w, np.einsum("qp,qp->q", jump_v, fhat) - jump_theta))
        theta_avg = 0.5 * (theta_self + theta_other)
        v_avg = 0.5 * (v_self + v_other)
        ghat_pot += float(
            np.dot(w, np.einsum("qp,qp->q", v_avg, fhat) - np.einsum("qx,x->q", theta_avg, n))
        )

    c_k = 0.5 * pair_sum + bnd_theta
    c_k_graph = 0.5 * (pair_sum - pair_theta)
    phi = rset.phi[dofs]
    entropy_gap = float(np.einsum("dp,dp->", vn, phi)) - ghat_pot
    return ElementSplitReport(
        c_k=c_k,
        b_dk=b_dk,
        c_k_graph=c_k_graph,
        c_k_full=pair_sum + bnd_theta,
        entropy_gap=entropy_gap,
    )
