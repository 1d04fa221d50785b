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
functional, and the element-split diagnostics of linear triangles: one
array pass over the mesh that takes per-edge jump and potential-flux
integrals once and gathers them to the elements.

Every function here takes a residual set and reads the state, the law, the
discretization and the entropy variables of the state from the set's
``edges`` (:class:`polyfr.residual.InterfaceFluxes`), which evaluates the
entropy variables on first read and keeps them for every set of that state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .approximation import edge_rules, volume_rules
from .discretization import Discretization
from .physics import ConservationLaw, normal_flux
from .residual import FluxSplit, ResidualSet, compute_residuals, flux_split


class DegenerateEntropyCorrection(ValueError):
    pass


# ---------------------------------------------------------------------------
# entropy error and the conservative correction
# ---------------------------------------------------------------------------

def entropy_error(rset: ResidualSet) -> np.ndarray:
    """Per-element entropy error of a residual set, shape (n_elem,)."""
    edges = rset.edges
    return edges.gbal - _pairing(edges.disc, edges.vn, rset.phi)


def _pairing(disc: Discretization, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-element sum_s <v_s, x_s> of two per-DOF arrays, shape (n_elem,)."""
    return disc.element_reduce(lambda a, b: np.einsum("edp,edp->e", a, b), v, x)


def entropy_nodes(disc: Discretization, law: ConservationLaw, u: np.ndarray) -> np.ndarray:
    """Nodal entropy variables, shape (n_dofs, p) like the residual arrays."""
    return law.entropy_vars(u)


def tau_all(disc: Discretization, vn: np.ndarray, e_values: np.ndarray) -> np.ndarray:
    """Batched conservative corrections of the per-element entropy errors
    ``e_values`` at the entropy variables ``vn``, shape (n_dofs, p)."""
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


def cs_residuals(fr_set: ResidualSet) -> ResidualSet:
    """Entropy-conservative variant: residuals plus the tau correction."""
    edges = fr_set.edges
    tau = tau_all(edges.disc, edges.vn, entropy_error(fr_set))
    return replace(fr_set, variant="cs", phi=fr_set.phi + tau)


def st_residuals(cs_set: ResidualSet, jump_coeff: float = 0.1) -> ResidualSet:
    """Entropy-dissipative variant: add delta * (v_s - v_mean) with
    delta = jump_coeff * h_K * max wave speed >= 0."""
    edges = cs_set.edges
    disc, law, u, vn = edges.disc, edges.law, edges.u, edges.vn
    psi = np.zeros_like(vn)
    for g, U in zip(disc.groups, disc.element_states(u)):
        v = vn[g.dof_idx]
        dev = v - v.mean(axis=1, keepdims=True)
        speeds = law.max_wave_speed(U).max(axis=1)
        delta = jump_coeff * g.diameters * np.maximum(speeds, 0.0)
        psi[g.dof_idx] = delta[:, None, None] * dev
    return replace(cs_set, variant="st", phi=cs_set.phi + psi)


def fr_entropy_condition_check(fr_set: ResidualSet) -> dict[str, np.ndarray]:
    """Margin of the no-correction entropy-stability condition.

    Computes sum_s <v_s, r_s> - E_ref per element, where E_ref is the
    entropy error of the interpolated-flux reference residuals; the margin
    equals sum_s <v_s, Phi_s> - oint g_hat, so nonnegative values mean the
    plain reconstruction is already entropy stable on that element.
    """
    edges = fr_set.edges
    disc, vn = edges.disc, edges.vn
    ref = compute_residuals(disc, edges.law, edges.u, "dg-interp", edges.flux_kind, edges.bc)
    e_ref = entropy_error(ref)
    margin = _pairing(disc, vn, fr_set.r_sigma) - e_ref
    direct = _pairing(disc, vn, fr_set.phi) - edges.gbal
    return {"margin": margin, "direct": direct, "e_reference": e_ref}


# ---------------------------------------------------------------------------
# entropy-conservative correction via prescribed interior moments
# ---------------------------------------------------------------------------

def entropy_conservative_residuals(disc: Discretization, law: ConservationLaw,
                                   u: np.ndarray, flux_kind: str = "tadmor_ec",
                                   bc=None) -> ResidualSet:
    """Reconstruction residuals whose correction field is chosen to be
    entropy conservative element by element.

    The field matches the interface mismatch of the ``dg-interp``
    residuals and has interior moments oint grad(phi_s).grad_psi dx =
    -tau_s, with tau the conservative correction of their entropy error;
    its redistribution vectors are then r_sigma = tau, so the result is the
    ``cs`` correction of ``dg-interp`` and sum <v, Phi> = oint g_hat.  Such
    a field exists on every element: on triangles the interior degrees of
    freedom of RT_k are the moments against [P_{k-1}]^2, which contains
    grad P_k, and on the other families the build's feasibility probe
    certifies that any traces with zero-sum moments are reachable.
    """
    ref = compute_residuals(disc, law, u, "dg-interp", flux_kind, bc)
    tau = tau_all(disc, ref.edges.vn, entropy_error(ref))
    return replace(ref, variant="fr", phi=ref.phi + tau, r_sigma=tau)


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


def error_decomposition(rset: ResidualSet, vol_order: int | None = None,
                        edge_order: int | None = None,
                        ref_boost: int = 6) -> EntropyErrorTerms:
    """Per-element smoothness terms of the entropy defect.

    Quadrature-gap terms compare the requested (default: minimal, order k
    volume / k+1 edge) rules against reference rules boosted by
    ``ref_boost`` orders; the interpolation-gap terms are evaluated with the
    reference rules.  The correction term reuses the redistribution vectors
    of the supplied residual set.  Each element group is one stacked pass.
    """
    edges = rset.edges
    disc, law, u, vn = edges.disc, edges.law, edges.u, edges.vn
    k = disc.degree
    vol_order = vol_order if vol_order is not None else k
    edge_order = edge_order if edge_order is not None else k + 1
    mesh = disc.mesh
    terms = EntropyErrorTerms(*(np.zeros(mesh.n_elements) for _ in range(5)))

    for g in disc.groups:
        U, V = u[g.dof_idx], vn[g.dof_idx]  # (nE, nd, p)
        F = law.flux(U)  # (nE, nd, p, 2)

        def div_vf(val, grad):
            # div of sum_j <v^h, f^h>_j: product-rule contraction of the
            # nodal interpolants
            t1 = np.einsum("eqdx,edp,eqt,etpx->eq", grad, V, val, F)
            t2 = np.einsum("eqd,edp,eqtx,etpx->eq", val, V, grad, F)
            return t1 + t2

        x_lo, w_lo = volume_rules(g.kind, g.coords, vol_order)
        x_hi, w_hi = volume_rules(g.kind, g.coords, vol_order + ref_boost)
        val, grad = g.spaces.eval(x_hi), g.spaces.grad(x_hi)
        sur1 = (np.einsum("eq,eq->e", w_lo, div_vf(g.spaces.eval(x_lo), g.spaces.grad(x_lo)))
                - np.einsum("eq,eq->e", w_hi, div_vf(val, grad)))
        uq, vq = val @ U, val @ V  # (nE, q, p)
        du = np.einsum("eqdx,edp->eqpx", grad, U)
        divf_pt = np.einsum("eqipx,eqpx->eqi", law.flux_jac(uq), du)
        divfh = np.einsum("eqdx,edpx->eqp", grad, F)
        sur2 = np.einsum("eq,eqp,eqp->e", w_hi, vq - law.entropy_vars(uq), divf_pt)
        sur3 = np.einsum("eq,eqp,eqp->e", w_hi, vq, divfh - divf_pt)

        # every incidence row's mesh edge, with the element's outward normal
        ends = mesh.vertices[mesh.edge_vertices[g.inc_edge]]
        sign = np.where(g.inc_side == 0, 1.0, -1.0)[:, None]
        outward = sign * mesh.edge_normal[g.inc_edge]
        shape = (g.n_elements, -1)
        bo = np.zeros(g.n_elements)
        for order, s in ((edge_order, 1.0), (edge_order + ref_boost, -1.0)):
            pts, w = edge_rules(ends[:, 0], ends[:, 1], order)  # (rows, nq, 2)
            val_e = g.spaces.eval(pts.reshape(shape + (2,)))
            nrm = np.broadcast_to(outward[:, None], pts.shape).reshape(shape + (2,))
            integrand = np.einsum("eqp,eqp->eq", val_e @ V, normal_flux(law, val_e @ U, nrm))
            bo += s * np.einsum("eq,eq->e", w.reshape(shape), integrand)

        co = np.einsum("edp,edp->e", V, rset.r_sigma[g.dof_idx])
        for name, value in zip(("sur1", "sur2", "sur3", "bo", "co"), (sur1, sur2, sur3, bo, co)):
            getattr(terms, name)[g.elem_ids] = value
    return terms


# ---------------------------------------------------------------------------
# element-split diagnostics (linear triangles)
# ---------------------------------------------------------------------------

@dataclass
class ElementSplitReport:
    c_k: np.ndarray  # half pairwise entropy pairing + boundary potential integral
    b_dk: np.ndarray  # half boundary jump dissipation functional
    c_k_graph: np.ndarray  # same c_k with the potential on the median-dual normals
    c_k_full: np.ndarray  # un-halved pairwise pairing + boundary potential integral
    entropy_gap: np.ndarray  # sum <v, Phi> - oint g_hat (potential-average flux)

    @property
    def stability_margin(self) -> np.ndarray:
        return self.c_k - self.b_dk


def appendix_decomposition(rset: ResidualSet,
                           split: FluxSplit | None = None) -> ElementSplitReport:
    """Per-element (n_elem,) element/boundary split of the entropy-stability
    functional on linear triangles.

    The element part contracts entropy-variable differences with the
    pairwise DOF fluxes; expressed on the median-dual normals, the potential
    differences reproduce the boundary integral of the interpolated
    potential, which is the reported equivalence.  The un-halved pairwise
    sum minus the boundary part reproduces sum <v, Phi> - oint g_hat exactly
    when the entropy flux averages the interpolated potential.
    """
    if split is None:
        split = flux_split(rset)
    edges = rset.edges
    disc, vnodes = edges.disc, edges.vn
    (g,) = disc.groups  # flux_split admits only the linear-triangle family
    pot = edges.law.potential(vnodes)  # (n_dofs, 2) nodal potential
    ve, theta = vnodes[g.dof_idx], pot[g.dof_idx]
    # sums over a < b of products of antisymmetric pairs: halved sums over
    # all (a, b); the potential's is paired with twice the dual normals
    pair_sum = 0.5 * np.einsum("eabp,eabp->e", ve[:, :, None] - ve[:, None, :], split.pair_flux)
    dtheta = theta[:, :, None] - theta[:, None, :]
    pair_theta = np.einsum("eabx,eabx->e", dtheta, split.dual_normals)

    # per edge and side (boundary rows: the element's own trace), against
    # the left normal: the integrals of v.f_hat and of the potential's theta.n;
    # from them the jump functional D_e and the potential-average flux G_e
    vL, vR = disc.edge_traces(vnodes)
    tL, tR = disc.edge_traces(pot)
    vf = np.einsum("eq,seqp,eqp->es", disc.edge_w, np.stack([vL, vR]), edges.fhat_star)
    tn = np.einsum("eq,seqx,eqx->es", disc.edge_w, np.stack([tL, tR]), disc.edge_normal_q)
    jump = 0.5 * (vf[:, 1] - vf[:, 0] - (tn[:, 1] - tn[:, 0]))
    gpot = 0.5 * (vf.sum(axis=1) - tn.sum(axis=1))

    rows = g.inc_edge.reshape(g.n_elements, g.n_local_edges)
    sign = g.inc_sign[:, :: disc.nq_edge]  # outward orientation per local edge
    bnd_theta = (sign * tn[rows, g.inc_side.reshape(rows.shape)]).sum(axis=1)
    ghat_pot = (sign * gpot[rows]).sum(axis=1)
    return ElementSplitReport(
        c_k=0.5 * pair_sum + bnd_theta,
        b_dk=jump[rows].sum(axis=1),
        c_k_graph=0.5 * (pair_sum - pair_theta),
        c_k_full=pair_sum + bnd_theta,
        entropy_gap=np.einsum("edp,edp->e", ve, rset.phi[g.dof_idx]) - ghat_pot,
    )
