"""What a pseudo-time step evaluates.

A step applies the element and boundary-face residuals only; the entropy
and conservation accounting of a residual set's interface fluxes is computed
when it is first read, and the entropy-gap monitor telescopes to the domain
boundary, so an ``fr``/``dg``/``dg-interp``/``fr-strong`` step evaluates no
edge entropy flux.  The telescoped gap must equal the element-by-element one
up to round-off.  A law whose wave speeds do not depend on the state has
them evaluated once per solve, and the central and Rusanov fluxes evaluate
the law's flux on the edge traces once per step, boundary rows included.
"""

from dataclasses import replace

import numpy as np
import pytest

from polyfr import entropy as en
from polyfr import mesh as pm
from polyfr import physics as ph
from polyfr import residual as rs
from polyfr import solver as sv
from polyfr.discretization import Discretization
from test_bit_identity import LAWS, MESHES, _disc

ACCOUNTING = ("fhat_bc", "ghat", "bflux_int", "gbal", "bres_rhs")


def _count_entropy_work(monkeypatch):
    """Count calls of the numerical entropy flux and evaluations of the
    per-group entropy balance ``gbal``."""
    calls = {"entropy_numerical_flux": 0, "gbal": 0}
    flux = ph.entropy_numerical_flux

    def counted_flux(*args, **kwargs):
        calls["entropy_numerical_flux"] += 1
        return flux(*args, **kwargs)

    per_group = rs.InterfaceFluxes.__dict__["gbal"].func

    def counted_gbal(self):
        calls["gbal"] += 1
        return per_group(self)

    monkeypatch.setattr(ph, "entropy_numerical_flux", counted_flux)
    monkeypatch.setattr(rs, "entropy_numerical_flux", counted_flux)
    monkeypatch.setattr(rs.InterfaceFluxes, "gbal", property(counted_gbal))
    return calls


@pytest.mark.parametrize("variant", rs.VARIANTS)
def test_step_evaluates_entropy_flux_only_for_entropy_variants(monkeypatch, variant):
    calls = _count_entropy_work(monkeypatch)
    law = ph.burgers_2d()
    disc = Discretization(pm.structured_triangles(2), 1)
    bc = disc.boundary_values({"boundary": lambda pts: np.full(len(pts), 0.5)})
    u0 = 0.5 + 0.3 * np.random.default_rng(4).normal(size=(disc.n_dofs, 1))
    cfg = sv.SolverConfig(cfl=0.3, max_iters=10, residual_tol=1e-30, variant=variant)
    _, trace = sv.solve_steady(disc, law, cfg, bc, initial=u0)
    assert trace.iterations == 10
    if variant in ("cs", "st"):
        # cs_residuals reads gbal, which needs the entropy flux
        assert calls["entropy_numerical_flux"] > 0 and calls["gbal"] > 0
    else:
        assert calls == {"entropy_numerical_flux": 0, "gbal": 0}


def test_accounting_is_computed_once_and_shared_with_corrected_sets(monkeypatch):
    # the fr, cs and st sets of one state share one record: its accounting
    # and its entropy variables, each computed once
    calls = []
    entropy_nodes = en.entropy_nodes

    def counted(*args, **kwargs):
        calls.append(1)
        return entropy_nodes(*args, **kwargs)

    monkeypatch.setattr(en, "entropy_nodes", counted)
    disc, law = _disc("tri-k2"), LAWS["burgers"]()
    u = law.random_states(np.random.default_rng(5), disc.n_dofs).reshape(disc.n_dofs, 1)
    fr = rs.compute_residuals(disc, law, u, "fr", "rusanov")
    assert not calls and fr.edges.u is u
    cs = en.cs_residuals(fr)
    st = en.st_residuals(cs)
    assert cs.edges is fr.edges and st.edges is fr.edges
    for name in ACCOUNTING + ("vn",):
        assert getattr(cs.edges, name) is getattr(fr.edges, name), name
    assert len(calls) == 1


@pytest.mark.parametrize("law_name", list(LAWS))
@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_telescoped_gap_equals_element_sum(mesh_name, law_name):
    disc, law = _disc(mesh_name), LAWS[law_name]()
    rng = np.random.default_rng(17)
    u = law.random_states(rng, disc.n_dofs).reshape(disc.n_dofs, law.p)
    lo, hi = law.admissible_box
    bc = rng.uniform(lo, hi, size=(disc.mesh.n_edges, disc.nq_edge, law.p))
    vn = en.entropy_nodes(disc, law, u)
    for variant in rs.VARIANTS:
        config = sv.SolverConfig(variant=variant)
        _, gap = sv.residual_vector(disc, law, u, config, bc)
        rset = rs.compute_residuals(disc, law, u, variant, config.flux, bc,
                                    jump_coeff=config.jump_coeff)
        want = np.einsum("dp,dp->", vn, rset.phi) - rset.edges.gbal.sum()
        scale = max(1.0, float(np.abs(rset.edges.gbal).sum()))
        assert abs(gap - want) <= 1e-14 * scale, variant


def _counted(law, names, calls, keep=lambda *args: True):
    """``law`` with each field in ``names`` counting its calls in ``calls``
    (those whose arguments ``keep`` accepts)."""

    def wrap(name, fn):
        def counted(*args):
            calls[name] += bool(keep(*args))
            return fn(*args)
        return counted

    return replace(law, **{name: wrap(name, getattr(law, name)) for name in names})


def _ten_steps(law, flux="rusanov"):
    disc = _disc("tri-k1")
    bc = disc.boundary_values(
        {"boundary": lambda x: 0.5 + 0.3 * np.sin(3.0 * x[:, 0] - 2.0 * x[:, 1])})
    cfg = sv.SolverConfig(cfl=0.3, max_iters=10, residual_tol=1e-30, flux=flux)
    _, trace = sv.solve_steady(disc, law, cfg, bc)
    assert trace.iterations == 10
    return trace


@pytest.mark.parametrize("law_name", list(LAWS))
def test_state_independent_speeds_are_evaluated_once_per_solve(law_name):
    calls = {"max_wave_speed": 0, "wave_speed": 0}
    law = _counted(LAWS[law_name](), list(calls), calls)
    trace = _ten_steps(law)
    if law.state_dependent_speeds:  # burgers: on every step
        assert min(calls.values()) >= trace.iterations, calls
    else:
        assert calls == {"max_wave_speed": 1, "wave_speed": 1}


@pytest.mark.parametrize("law_name", ["advection", "burgers"])
@pytest.mark.parametrize("flux", ["rusanov", "central"])
def test_edge_flux_is_evaluated_once_per_step(law_name, flux):
    # on "tri-k1" an element holds 3 DOFs and an edge 2 points, so the
    # flux calls on edge traces are the ones with 2 points on axis -2
    disc = _disc("tri-k1")
    assert disc.nq_edge == 2 and {g.n_dof for g in disc.groups} == {3}
    calls = {"flux": 0}
    law = _counted(LAWS[law_name](), ["flux"], calls,
                   keep=lambda u: np.shape(u)[-2] == disc.nq_edge)
    trace = _ten_steps(law, flux)
    assert calls["flux"] == trace.iterations
