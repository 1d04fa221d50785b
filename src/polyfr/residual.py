"""Distributed residuals on polygonal meshes.

Every variant produces per-DOF element residuals whose element sum equals
the boundary integral of a single-valued interface flux, plus boundary-face
residuals that weakly impose Dirichlet data:

``dg``
    volume term with the pointwise flux, boundary term with the numerical
    flux;
``dg-interp``
    same structure with the nodal flux interpolant in the volume term;
``fr``
    ``dg-interp`` plus the redistribution vectors r_sigma induced by an
    admissible correction field (the integration-by-parts form);
``fr-strong``
    moments of the divergence of the reconstructed flux (interpolant plus
    correction field);
``cs`` / ``st``
    entropy-corrected variants, built on top of ``fr`` by
    :mod:`polyfr.entropy`.

On linear triangles, :func:`flux_split` splits all residuals into pairwise
DOF fluxes in one array pass, with closed-form median-dual normals.

On interior edges the single-valued flux is the configured numerical flux;
on domain-boundary edges the element-side flux is the pointwise consistent
flux f(u).n, and the weak Dirichlet coupling lives entirely in the
boundary-face residuals oint phi (f_hat(u, u_b) - f(u).n).

One evaluation of a state gives one :class:`ResidualSet`: the distributed
residuals and, as its ``edges``, the :class:`InterfaceFluxes` they were
evaluated from, which record the inputs of the evaluation (discretization,
law, state, Dirichlet data and flux kind).  Every check and correction takes
the set alone and reads those inputs, the single-valued flux, its accounting
and the state's entropy variables from ``edges``; the ``cs``/``st``
corrections change the residuals only and share the ``edges`` of the set
they correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .discretization import Discretization, ElementGroup
from .physics import (
    ConservationLaw,
    entropy_numerical_flux,
    normal_entropy_flux,
    normal_flux,
    numerical_flux,
    two_point_flux,
)

VARIANTS = ("dg", "dg-interp", "fr", "fr-strong", "cs", "st")


@dataclass
class ResidualSet:
    """The residuals of one evaluation and the interface fluxes they were
    evaluated from.

    A pseudo-time step applies ``phi`` and ``boundary_phi`` only.  The
    inputs of the evaluation, the single-valued flux and the conservation
    and entropy accounting are read from ``edges`` (see
    :class:`InterfaceFluxes`, which computes the accounting on first read);
    the ``cs``/``st`` corrections change the residuals only, so a corrected
    set shares the ``edges`` of its base.
    """

    variant: str
    # nodal fields are flat per-DOF arrays (n_dofs, p): element e owns rows
    # disc.dof_offset[e] : disc.dof_offset[e] + nd
    phi: np.ndarray  # (n_dofs, p) element residuals Phi_sigma^K
    boundary_phi: np.ndarray  # (n_dofs, p) boundary-face residuals
    r_sigma: np.ndarray  # (n_dofs, p) redistribution vectors
    alpha: list[np.ndarray]  # per group, (nE, n_alpha, p) interface mismatch
    edges: InterfaceFluxes


def _outward(g: ElementGroup, fhat_star: np.ndarray) -> np.ndarray:
    """The single-valued flux at each element's edge points, outward,
    shape (nE, m, p)."""
    shape = g.inc_w.shape + (fhat_star.shape[-1],)
    return g.inc_sign[..., None] * fhat_star.take(g.inc_edge, axis=0).reshape(shape)


class InterfaceFluxes:
    """The single-valued interface fluxes of one state, the inputs they were
    evaluated from and their accounting.

    The inputs, held by reference (iterates are never written in place):
    ``disc``, ``law``, the (n_dofs, p) state ``u``, its Dirichlet values
    ``bc`` (None without data) and the numerical ``flux_kind``.

    Evaluated at once, because the residuals apply them:

    - ``uL``, ``uR`` (n_edges, nq_e, p): the edge traces, with the Dirichlet
      data (or, without data, uL) as uR's boundary rows;
    - ``fhat_star`` (n_edges, nq_e, p): the element-side flux, the numerical
      flux on interior edges and the pointwise consistent flux f(u_L).n on
      boundary edges;
    - ``dbc`` (n_boundary_edges, nq_e, p; None without Dirichlet data): the
      boundary mismatch fhat(u_L, u_b) - f(u_L).n, boundary rows only, in
      the order of ``mesh.boundary_edge_ids``.

    Computed on first read, then kept: the nodal entropy variables ``vn``
    of u (n_dofs, p), the Dirichlet-coupled flux ``fhat_bc`` (boundary rows,
    None without data), the numerical entropy flux ``ghat`` (boundary rows:
    g(u_L).n), and per element the boundary integrals ``bflux_int`` of
    fhat_star, ``gbal`` of ghat and ``bres_rhs`` of dbc.
    """

    def __init__(self, disc: Discretization, law: ConservationLaw, u, bc, flux_kind,
                 u2, uL_bnd, fhat_star, fhat_dirichlet, dbc_rows):
        self.disc, self.law, self.u, self.bc, self.flux_kind = disc, law, u, bc, flux_kind
        self.uL, self.uR = u2
        self._uL_bnd = uL_bnd  # boundary rows of uL
        self.fhat_star = fhat_star
        self._dbc_rows = dbc_rows  # dbc, then a zero row for interior edges
        self.dbc = None if dbc_rows is None else dbc_rows[:-1]
        self._fhat_dirichlet = fhat_dirichlet  # boundary rows of fhat_bc

    def boundary_rows(self, g: ElementGroup) -> np.ndarray:
        """The boundary mismatch at the edge points of the group's elements
        that own a boundary edge (zero on interior edges), shape (nB, m, p)."""
        shape = g.bnd_w.shape + (self.dbc.shape[-1],)
        return self._dbc_rows.take(g.bnd_row, axis=0).reshape(shape)

    def boundary_entropy_flux(self) -> float:
        """oint over the domain boundary of g(u_L).n: ``gbal.sum()`` with
        the entropy flux of every interior edge cancelled pairwise (equal
        to it up to round-off)."""
        g, disc = self.law.entropy_flux(self._uL_bnd), self.disc
        return float(np.einsum("eq,eqx,eqx->", disc.boundary_w, g, disc.boundary_normal_q))

    @cached_property
    def vn(self) -> np.ndarray:
        return _entropy.entropy_nodes(self.disc, self.law, self.u)

    @cached_property
    def fhat_bc(self) -> np.ndarray | None:
        if self.dbc is None:
            return None
        out = np.zeros(self.fhat_star.shape)
        out[self.disc.mesh.boundary_edge_ids] = self._fhat_dirichlet
        return out

    @cached_property
    def ghat(self) -> np.ndarray:
        # row by row, so the interior rows do not depend on the boundary
        # rows of fhat_star, which are then replaced
        ghat = entropy_numerical_flux(
            self.law, self.fhat_star, self.uL, self.uR, self.disc.edge_normal_q
        )
        ghat[self.disc.mesh.boundary_edge_ids] = normal_entropy_flux(
            self.law, self._uL_bnd, self.disc.boundary_normal_q
        )
        return ghat

    @cached_property
    def bflux_int(self) -> np.ndarray:
        out = np.zeros((self.disc.mesh.n_elements, self.fhat_star.shape[-1]))
        for g in self.disc.groups:
            out[g.elem_ids] = np.einsum("em,emp->ep", g.inc_w, _outward(g, self.fhat_star))
        return out

    @cached_property
    def gbal(self) -> np.ndarray:
        out = np.zeros(self.disc.mesh.n_elements)
        for g in self.disc.groups:
            gq = self.ghat.take(g.inc_edge, axis=0).reshape(g.inc_w.shape)
            out[g.elem_ids] = np.einsum("em,em->e", g.inc_wsign, gq)
        return out

    @cached_property
    def bres_rhs(self) -> np.ndarray:
        out = np.zeros((self.disc.mesh.n_elements, self.fhat_star.shape[-1]))
        if self.dbc is not None:
            for g in self.disc.groups:
                out[g.bnd_elems] = np.einsum("em,emp->ep", g.bnd_w, self.boundary_rows(g))
        return out


def interface_fluxes(disc, law, u, flux_kind, bc=None, edge_speed=None) -> InterfaceFluxes:
    """Single-valued interface fluxes of the state ``u`` at the edge points,
    with the Dirichlet values ``bc`` (n_edges, nq_e, p; see
    :meth:`Discretization.boundary_values`) or None.

    The numerical flux is evaluated once over all edges, against the
    Dirichlet data on boundary edges (or the element's own trace without
    data); its boundary rows are then replaced by the element's own flux
    f(u_L).n, which the central and Rusanov fluxes evaluate with it.
    ``edge_speed`` (n_edges, nq_e), if given, is the Rusanov dissipation
    speed (of a law whose wave speeds do not depend on the state).  The
    result records ``u``, ``bc`` and ``flux_kind``; the entropy variables,
    the entropy flux and the per-element integrals are left to their first
    read.
    """
    u2 = disc.edge_traces(u, bc)
    nq = disc.edge_normal_q
    bi = disc.mesh.boundary_edge_ids
    uL_bnd = u2[0].take(bi, axis=0)
    if flux_kind in ("central", "rusanov"):
        fhat_star, f = two_point_flux(law, flux_kind, u2, nq, edge_speed)
        f_own = f[0].take(bi, axis=0)
    else:
        fhat_star = numerical_flux(flux_kind)(law, u2[0], u2[1], nq)
        f_own = normal_flux(law, uL_bnd, disc.boundary_normal_q)
    fhat_dirichlet = dbc_rows = None
    if bc is not None:
        fhat_dirichlet = fhat_star.take(bi, axis=0)
        dbc_rows = np.empty((len(bi) + 1,) + f_own.shape[1:])
        np.subtract(fhat_dirichlet, f_own, out=dbc_rows[:-1])
        dbc_rows[-1] = 0.0
    fhat_star[bi] = f_own
    return InterfaceFluxes(disc, law, u, bc, flux_kind, u2, uL_bnd, fhat_star, fhat_dirichlet,
                           dbc_rows)


def compute_residuals(
    disc: Discretization,
    law: ConservationLaw,
    u: np.ndarray,
    variant: str = "fr",
    flux_kind: str = "rusanov",
    bc: np.ndarray | None = None,
    jump_coeff: float = 0.1,
    edge_speed: np.ndarray | None = None,
) -> ResidualSet:
    """Evaluate one residual variant over the whole mesh.

    ``u`` is the (n_dofs, p) state and ``bc`` its Dirichlet values or None,
    as in :func:`interface_fluxes`.  ``cs`` and ``st`` correct the ``fr``
    residuals; ``jump_coeff`` scales the dissipation of ``st``;
    ``edge_speed`` is passed to :func:`interface_fluxes`.  The residuals
    are evaluated at once; the set's ``edges`` record the inputs, and their
    accounting is computed on first read.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown residual variant {variant!r}")
    base = "fr" if variant in ("cs", "st") else variant

    # Incidence rows are element-ordered, so per-element edge sums are
    # reshapes: every (nE, m, ...) array below holds the n_local_edges * nq_e
    # edge points of each element, edge by edge.
    p = law.p
    edges = interface_fluxes(disc, law, u, flux_kind, bc, edge_speed)

    phi = np.zeros((disc.n_dofs, p))
    bphi = np.zeros((disc.n_dofs, p))
    r_all = np.zeros((disc.n_dofs, p))
    alphas: list[np.ndarray] = []

    for g, U in zip(disc.groups, disc.element_states(u)):
        F = law.flux(U)  # (nE, nd, p, 2)

        # outward single-valued flux and the interface mismatch
        fs = _outward(g, edges.fhat_star)
        alpha = fs - np.einsum("emdx,edpx->emp", g.inc_ntrace, F)
        alphas.append(alpha)

        phi_g = np.einsum("emd,emp->edp", g.inc_wtrace, fs)
        if base == "dg":
            uq = np.einsum("eqd,edp->eqp", g.vol_phi, U)
            fq = law.flux(uq)
            phi_g -= np.einsum("eq,eqdx,eqpx->edp", g.vol_w, g.vol_grad, fq)
        elif base == "dg-interp":
            phi_g -= np.einsum("edtx,etpx->edp", g.stiff, F)
        else:
            r_g = np.einsum("edm,emp->edp", g.corr_r, alpha)
            r_all[g.dof_idx] = r_g
            if base == "fr":
                phi_g -= np.einsum("edtx,etpx->edp", g.stiff, F)
                phi_g += r_g
            else:  # fr-strong: oint phi div(f^h + grad_psi)
                phi_g = np.einsum("edtx,etpx->edp", g.dstrong, F) + np.einsum(
                    "edm,emp->edp", g.corr_div, alpha
                )
        phi[g.dof_idx] = phi_g

        # boundary-face residuals (weak Dirichlet data), nonzero only on the
        # elements that own a boundary edge; boundary rows have the element
        # on the left, so they carry no sign
        if edges.dbc is not None:
            bphi[g.bnd_dofs] = np.einsum("emd,emp->edp", g.bnd_wtrace, edges.boundary_rows(g))

    out = ResidualSet(
        variant=base,
        phi=phi,
        boundary_phi=bphi,
        r_sigma=r_all,
        alpha=alphas,
        edges=edges,
    )
    if variant != base:
        out = _entropy.cs_residuals(out)
        if variant == "st":
            out = _entropy.st_residuals(out, jump_coeff=jump_coeff)
    return out


# ---------------------------------------------------------------------------
# conservation accounting
# ---------------------------------------------------------------------------

def _sum_defects(disc: Discretization, phi: np.ndarray, want: np.ndarray) -> np.ndarray:
    total = disc.element_reduce(lambda x: x.sum(axis=1), phi)
    scale = np.maximum(1.0, disc.element_reduce(lambda x: np.abs(x).max(axis=(1, 2)), phi))
    return np.abs(total - want).max(axis=1) / scale


def element_conservation_defects(rset: ResidualSet) -> np.ndarray:
    """Per-element defect of (sum of residuals - boundary flux integral),
    scaled by max(1, per-element residual magnitude)."""
    return _sum_defects(rset.edges.disc, rset.phi, rset.edges.bflux_int)


def boundary_conservation_defects(rset: ResidualSet) -> np.ndarray:
    """The element defect's counterpart for the boundary-face residuals."""
    return _sum_defects(rset.edges.disc, rset.boundary_phi, rset.edges.bres_rhs)


def assemble_global(rset: ResidualSet) -> np.ndarray:
    """Accumulated per-DOF residual (element plus boundary contributions)."""
    return rset.phi + rset.boundary_phi


# ---------------------------------------------------------------------------
# global discrete accounting identity
# ---------------------------------------------------------------------------

def global_identity_check(rset: ResidualSet, v: np.ndarray) -> tuple[float, float]:
    """Defect of the broken-test-field accounting identity.

    For any broken field v^h, the accumulated residual pairing
    sum_sigma <v_sigma, R(sigma)> must equal the sum of four groups: the
    volume term -oint grad(v^h).f(u^h), the Dirichlet boundary term, the
    edge term oint (v_left - v_right).f_hat (single-sided on the domain
    boundary), and the intra-element redistribution differences against the
    pointwise-flux reference residuals.  Returns (defect, scale).
    """
    edges = rset.edges
    disc, law, u = edges.disc, edges.law, edges.u
    v = np.asarray(v, dtype=float).reshape(disc.n_dofs, -1)
    lhs = float(np.sum(v * (rset.phi + rset.boundary_phi)))

    ref = rset if rset.variant == "dg" else compute_residuals(
        disc, law, u, "dg", edges.flux_kind, edges.bc
    )

    vol = 0.0
    for g, U in zip(disc.groups, disc.element_states(u)):
        V = v[g.dof_idx]
        uq = np.einsum("eqd,edp->eqp", g.vol_phi, U)
        fq = law.flux(uq)
        gradv = np.einsum("eqdx,edp->eqpx", g.vol_grad, V)
        vol -= float(np.einsum("eq,eqpx,eqpx->", g.vol_w, gradv, fq))

    vL, vR = disc.edge_traces(v)
    bi = disc.mesh.boundary_edge_ids
    vR[bi] = 0.0  # single-sided on the domain boundary
    edge_term = float(
        np.einsum("eq,eqp->", disc.edge_w, (vL - vR) * edges.fhat_star)
    )

    bnd = 0.0
    if edges.fhat_bc is not None and len(bi):
        bnd = float(
            np.einsum(
                "eq,eqp->",
                disc.edge_w[bi],
                vL[bi] * (edges.fhat_bc[bi] - edges.fhat_star[bi]),
            )
        )

    redist = 0.0
    for g in disc.groups:
        nd = g.n_dof
        V = v[g.dof_idx]
        W = (rset.phi - ref.phi)[g.dof_idx]
        sum_v = V.sum(axis=1, keepdims=True)
        sum_w = W.sum(axis=1, keepdims=True)
        # (1/#K) sum_{s,s'} (v_s - v_s') w_s = sum_s v_s w_s - mean(v).sum(w)
        pair = np.einsum("edp,edp->", V, W) - float(
            (sum_v * sum_w).sum() / nd
        )
        redist += pair

    rhs = vol + edge_term + bnd + redist
    scale = max(1.0, abs(lhs), abs(vol), abs(edge_term), abs(bnd), abs(redist))
    return abs(lhs - rhs), scale


# ---------------------------------------------------------------------------
# residual splitting into pairwise DOF fluxes (linear triangles)
# ---------------------------------------------------------------------------

@dataclass
class FluxSplit:
    """Antisymmetric pairwise splitting of all residuals, per mesh element."""

    fb: np.ndarray  # (nE, nd, p): oint phi_s fhat_star, outward
    pair_flux: np.ndarray  # (nE, nd, nd, p): f_ab = (rho_a - rho_b) / nd
    nsigma: np.ndarray  # (nE, nd, 2): -oint phi_s n
    flux_volume_integral: np.ndarray  # (nE, p, 2): oint_K (f^h + grad_psi) dx
    dual_normals: np.ndarray  # (nE, nd, nd, 2): median-dual normal from a to b


def flux_split(rset: ResidualSet) -> FluxSplit:
    """Split linear-triangle residuals into pairwise DOF fluxes.

    With rho_s = Phi_s - oint phi_s f_hat, the splitting
    f_{ss'} = (rho_s - rho_s') / n_dof is antisymmetric and reassembles the
    residual exactly, Phi_s = fb_s + sum_s' f_{ss'}; for the
    integration-by-parts form it reduces to the volume integral of the
    reconstructed flux contracted with the median-dual interface normals.
    """
    disc, law, u = rset.edges.disc, rset.edges.law, rset.edges.u
    if disc.degree != 1 or any(g.kind != "triangle" for g in disc.groups):
        raise ValueError("residual splitting is implemented for linear triangles")
    (g,) = disc.groups  # one family: its element axis is the mesh's
    fb = np.einsum("emd,emp->edp", g.inc_wtrace, _outward(g, rset.edges.fhat_star))
    rho = rset.phi[g.dof_idx] - fb
    F = law.flux(u[g.dof_idx])
    fh_int = np.einsum("eq,eqd,edpx->epx", g.vol_w, g.vol_phi, F)
    fh_int += np.einsum("emp,emx->epx", rset.alpha[0], g.corr_vol)

    # the dual interface of DOFs a and b runs from their edge midpoint to the
    # centroid; its normal is that segment turned clockwise, signed along b - a
    x = g.coords
    seg = x.mean(axis=1)[:, None, None] - 0.5 * (x[:, :, None] + x[:, None, :])
    normal = np.stack([seg[..., 1], -seg[..., 0]], axis=-1)
    along = np.einsum("eabx,eabx->eab", normal, x[:, None, :] - x[:, :, None])
    return FluxSplit(
        fb=fb,
        pair_flux=(rho[:, :, None] - rho[:, None, :]) / g.n_dof,
        nsigma=g.nsigma.copy(),
        flux_volume_integral=fh_int,
        dual_normals=np.sign(along)[..., None] * normal,
    )


def correction_defects(rset: ResidualSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-element admissibility defects of the correction behind ``rset``.

    eq21 is the largest normal-trace mismatch |trace - alpha| at the edge
    quadrature points; eq27 the largest component of sum_s r_sigma, scaled
    by max(1, |alpha|, |r_sigma|).  Both read the group tables the residual
    evaluation applies.  Returns (eq21, eq27), each of shape (n_elem,).
    """
    disc = rset.edges.disc
    eq21 = np.zeros(disc.mesh.n_elements)
    eq27 = np.zeros(disc.mesh.n_elements)
    for g, alpha in zip(disc.groups, rset.alpha):
        r = rset.r_sigma[g.dof_idx]
        trace = np.einsum("emn,enp->emp", g.corr_trace, alpha)
        eq21[g.elem_ids] = np.abs(trace - alpha).max(axis=(1, 2))
        scale = np.maximum(
            1.0, np.maximum(np.abs(alpha).max(axis=(1, 2)), np.abs(r).max(axis=(1, 2)))
        )
        eq27[g.elem_ids] = np.abs(r.sum(axis=1)).max(axis=1) / scale
    return eq21, eq27


# ---------------------------------------------------------------------------
# Lipschitz-style boundedness probe
# ---------------------------------------------------------------------------

def lipschitz_hypothesis_probe(
    disc: Discretization,
    law: ConservationLaw,
    variant: str,
    bound: float,
    rng: np.random.Generator,
    n_samples: int = 200,
    flux_kind: str = "rusanov",
) -> dict:
    """Empirical residual-vs-state-spread constants over random states.

    Samples states bounded by ``bound`` and returns the largest observed
    ratio max_s |Phi_s| / sum_{s,s'} |u_s - u_s'|, the state spread taken
    over the element and its edge neighbors (the residual sees neighbor
    traces through the interface flux, so intra-element differences alone
    do not bound it).  Near-constant patches are skipped and their residual
    size reported separately.
    """
    mesh = disc.mesh
    patches = []
    for e in range(mesh.n_elements):
        edges = mesh.element_edges(e)
        left = mesh.edge_left[edges]
        other = np.where(left == e, mesh.edge_right[edges], left)
        members = [e] + other[other >= 0].tolist()
        idx = np.concatenate(
            [disc.dof_offset[m] + np.arange(disc.n_dof_elem[m]) for m in members]
        )
        patches.append(idx)

    worst = 0.0
    const_res = 0.0
    for _ in range(n_samples):
        u = rng.uniform(-bound, bound, size=(disc.n_dofs, law.p))
        rset = compute_residuals(disc, law, u, variant, flux_kind)
        mags = disc.element_reduce(lambda x: np.abs(x).max(axis=(1, 2)), rset.phi)
        for eid, idx in enumerate(patches):
            w = u[idx]
            spread = float(np.abs(w[:, None, :] - w[None, :, :]).sum())
            mag = float(mags[eid])
            if spread > 1e-13:
                worst = max(worst, mag / spread)
            else:
                const_res = max(const_res, mag)
    return {"constant": worst, "constant_state_residual": const_res}


# imported last: the entropy module imports this one, whatever is imported first
from . import entropy as _entropy  # noqa: E402
