"""Explicit pseudo-time driver for the steady distributed-residual system.

The accumulated per-DOF residual R(sigma) is marched to zero with forward
Euler on the lumped system,

    u_sigma <- u_sigma - (dtau_sigma / mu_sigma) R(sigma),

where mu_sigma is the (positive, diagonal-mass) lumped measure of the DOF
and dtau_sigma = cfl * mu_sigma / Lambda_K with Lambda_K = 0.5 * (2k + 1) *
wavespeed * perimeter, the inverse element time scale of the explicit
stability bound; the element wave speed is floored at the largest wave speed
of the Dirichlet data.  Both uniform (global minimum) and per-DOF step modes
are available; the uniform mode keeps the mass-weighted state sum changing
only through boundary fluxes, step by step.

A step evaluates what it applies: one residual set per state, whose element
residuals Phi_sigma^K and weak Dirichlet (boundary-face) residuals it adds
up.  The conservation and entropy accounting of the set's interface fluxes
is computed on first read, which an ``fr``/``dg``/``dg-interp``/``fr-strong``
step never does; ``cs`` and ``st`` read the entropy balance for their
correction.  The monitored entropy gap sum_K (sum <v, Phi> - oint_dK g_hat)
telescopes: every interior edge's entropy flux enters its two elements with
opposite signs, so the gap is sum <v, Phi> minus the boundary integral of
g(u_L).n, equal to the element-by-element sum up to round-off.
:func:`solve_steady` is the one step loop; ``SolverConfig(max_iters=1)``
takes a single step.

The caller evaluates the Dirichlet values at the edge points once.  Once per
solve, not per step, for a law whose wave speeds do not depend on the state
(``ConservationLaw.state_dependent_speeds`` False: the advection laws): the
step coefficient and the Rusanov dissipation speed at the edge points.

Errors against a manufactured solution are measured with one stacked volume
rule and one stacked space evaluation per element group, for every element
family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import entropy as entropy_mod
from .approximation import volume_rules
from .discretization import Discretization
from .physics import ConservationLaw, rusanov_speed
from .residual import assemble_global, compute_residuals


# a state past this magnitude counts as diverged; a relative residual
# change below STAGNATION_EPS over STAGNATION_WINDOW steps as stagnated
DIVERGENCE_LIMIT = 1e8
STAGNATION_WINDOW = 200
STAGNATION_EPS = 1e-12


class SolverDiverged(RuntimeError):
    pass


@dataclass
class SolverConfig:
    cfl: float = 0.4
    max_iters: int = 20000
    residual_tol: float = 1e-12
    variant: str = "fr"
    flux: str = "rusanov"
    local_dt: bool = True
    jump_coeff: float = 0.1  # dissipation scale of the "st" variant

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not self.residual_tol > 0.0:
            raise ValueError("residual_tol must be positive")
        if not 0.0 <= self.jump_coeff < float("inf"):
            raise ValueError("jump_coeff must be finite and >= 0")


@dataclass
class SolveTrace:
    res_l2: list[float] = field(default_factory=list)
    res_linf: list[float] = field(default_factory=list)
    entropy_balance: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    stagnated: bool = False


def lumped_measures(disc: Discretization) -> np.ndarray:
    """Positive per-DOF measures (diagonal-mass lumping, sums to |K|)."""
    mu = np.zeros(disc.n_dofs)
    for g in disc.groups:
        mu[g.dof_idx.reshape(-1)] = g.mass_diag.reshape(-1)
    return mu


def _boundary_wave_speed(disc: Discretization, law: ConservationLaw,
                         ub: np.ndarray) -> float:
    """Largest wave speed of the Dirichlet values ``ub`` (n_edges, nq_e, p)."""
    return float(law.max_wave_speed(ub[disc.mesh.boundary_edge_ids]).max(initial=0.0))


def _dt_over_mu(disc: Discretization, law: ConservationLaw, u: np.ndarray,
                config: SolverConfig, mu: np.ndarray,
                speed_floor: float = 0.0) -> np.ndarray:
    # one wave-speed call over all DOFs, reduced to each element's largest
    # over its rows dof_offset[e] onwards (mesh element order); the floor
    # keeps the step finite on a zero-speed state (Burgers at rest)
    speeds = np.maximum(np.maximum.reduceat(law.max_wave_speed(u), disc.dof_offset), speed_floor)
    perimeters = np.empty(disc.mesh.n_elements)
    for g in disc.groups:
        perimeters[g.elem_ids] = g.perimeters
    lam = np.maximum(0.5 * (2 * disc.degree + 1) * speeds * perimeters, 1e-14)
    coef = np.repeat(config.cfl / lam, disc.n_dof_elem)
    if not config.local_dt:
        # uniform step: dtau = min(cfl * mu / Lambda), applied as dtau / mu
        dtau = float((coef * mu).min())
        return dtau / mu
    return coef


def residual_vector(disc: Discretization, law: ConservationLaw, u: np.ndarray,
                    config: SolverConfig, bc, edge_speed=None) -> tuple[np.ndarray, float]:
    rset = compute_residuals(
        disc, law, u, config.variant, config.flux, bc, jump_coeff=config.jump_coeff,
        edge_speed=edge_speed,
    )
    R = assemble_global(disc, rset)
    # sum_K (sum <v, Phi> - oint_dK g_hat): the entropy flux of an interior
    # edge enters its two elements with opposite signs, so the oint terms
    # telescope to the domain boundary and no interior entropy flux is needed
    gap = float(
        np.einsum("dp,dp->", entropy_mod.entropy_nodes(disc, law, u), rset.phi)
        - rset.edges.boundary_entropy_flux()
    )
    return R, gap


def solve_steady(disc: Discretization, law: ConservationLaw,
                 config: SolverConfig, bc: np.ndarray | None,
                 initial: np.ndarray | None = None) -> tuple[np.ndarray, SolveTrace]:
    """March the accumulated residual to (relative) tolerance or give up.

    Convergence is relative to the first residual norm; an absolute floor
    catches exact initial data.  Stagnation (no relative progress over a
    trailing window) returns the best iterate with a flag.  The step
    coefficient depends on the state only through the wave speeds at the
    DOFs: built once for advection, every step for Burgers.  ``bc`` is the
    Dirichlet values at the edge points (:meth:`Discretization.boundary_values`)
    or None; ``initial`` an (n_dofs, p) state, zero if None.
    """
    u = np.zeros((disc.n_dofs, law.p)) if initial is None else np.array(initial, dtype=float)
    mu = lumped_measures(disc)
    mu_col, mu_sum = mu[:, None], mu.sum()
    coef = edge_speed = None
    if law.state_dependent_speeds:
        speed_floor = _boundary_wave_speed(disc, law, bc)
    else:
        # every DOF has the Dirichlet data's speed already: no floor needed
        coef = _dt_over_mu(disc, law, u, config, mu)[:, None]
        if config.flux == "rusanov":
            edge_speed = rusanov_speed(law, disc.edge_traces(u, bc), disc.edge_normal_q)
    trace = SolveTrace()

    best_u, best_res = u, np.inf
    res0 = None
    for it in range(config.max_iters):
        R, gap = residual_vector(disc, law, u, config, bc, edge_speed)
        res = float(np.sqrt((mu_col * R * R).sum() / mu_sum))
        trace.res_l2.append(res)
        trace.res_linf.append(float(np.abs(R).max()))
        trace.entropy_balance.append(gap)
        if res < best_res:
            best_u, best_res = u, res  # iterates are never written in place
        if res0 is None:
            res0 = max(res, 1e-300)
            if res <= 1e-13 * max(1.0, float(np.abs(u).max())):
                trace.converged = True
                break
        if res / res0 <= config.residual_tol:
            trace.converged = True
            break
        w = STAGNATION_WINDOW
        if it >= w and trace.res_l2[-w] > 0:
            if abs(trace.res_l2[-w] - res) <= STAGNATION_EPS * trace.res_l2[-w]:
                trace.stagnated = True
                break
        if law.state_dependent_speeds:
            coef = _dt_over_mu(disc, law, u, config, mu, speed_floor)[:, None]
        u = u - coef * R
        if not np.abs(u).max() <= DIVERGENCE_LIMIT:  # NaN compares false: raises too
            raise SolverDiverged(f"pseudo-time iteration diverged after {it + 1} steps")
        trace.iterations = it + 1
    return (best_u if trace.stagnated else u), trace


def manufactured_error(disc: Discretization, u: np.ndarray, exact,
                       order: int | None = None) -> tuple[float, float]:
    """L2 and max errors of a discrete state against an exact field,
    measured with volume quadrature of order 2k+2 by default: one stacked
    rule and one stacked space evaluation per element group."""
    order = order if order is not None else 2 * disc.degree + 2
    # per-element squared L2 and max errors, one stacked evaluation per group
    sq = np.zeros(disc.mesh.n_elements)
    worst = np.zeros(disc.mesh.n_elements)
    for g in disc.groups:
        pts, wts = volume_rules(g.kind, g.coords, order)
        uh = g.spaces.eval(pts) @ u[g.dof_idx]
        ue = np.asarray(exact(pts.reshape(-1, 2)), dtype=float)
        diff = uh - ue.reshape(uh.shape[:-1] + (-1,))
        sq[g.elem_ids] = np.einsum("eq,eqp->e", wts, diff * diff)
        worst[g.elem_ids] = np.abs(diff).max(axis=(1, 2))
    # summed element by element in mesh order, as a running total would be
    return float(np.sqrt(np.cumsum(sq)[-1])), float(worst.max())
