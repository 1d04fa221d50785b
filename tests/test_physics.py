import numpy as np
import pytest

from polyfr import physics as ph

RNG = np.random.default_rng(2024)

LAWS = [
    ph.linear_advection([1.0, 0.0]),
    ph.linear_advection([0.3, -1.2]),
    ph.burgers_2d(),
    ph.exp_advection([1.0, 0.5]),
]


def _pairs(law, n):
    uL = law.random_states(RNG, n)
    uR = law.random_states(RNG, n)
    ang = RNG.uniform(0, 2 * np.pi, n)
    return uL, uR, np.stack([np.cos(ang), np.sin(ang)], axis=1)


def test_advection_point_values():
    law = ph.linear_advection([1.0, 0.0])
    u = np.array([2.0])
    assert np.allclose(law.flux(u)[0], [[2.0, 0.0]])
    assert np.allclose(law.entropy_vars(u), [2.0])
    assert np.allclose(law.entropy_flux(u), [2.0, 0.0])
    assert np.allclose(law.potential(law.entropy_vars(u)), [2.0, 0.0])


def test_advection_identities_exact_at_sample_state():
    law = ph.linear_advection([1.0, 0.0])
    u = np.array([0.7])
    v = law.entropy_vars(u)
    vf = (v[:, None] * law.flux(u)[0]).sum(0)
    assert np.abs(law.entropy_flux(u) - (vf - law.potential(v))).max() == 0.0


def test_burgers_point_values():
    law = ph.burgers_2d()
    # theta = v f - g = 1/2 - 1/3 = 1/6 at u = 1
    assert np.allclose(law.potential(np.array([1.0])), [1 / 6, 1 / 6])
    u = np.array([-2.0])
    assert np.allclose(law.flux(u)[0], [[2.0, 2.0]])
    assert np.allclose(law.entropy_flux(u), [-8 / 3, -8 / 3])


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.name)
def test_law_defining_identities(law):
    report = ph.validate_law(law, RNG, n_samples=1000)
    assert report["compatibility"] <= 1e-6
    assert report["potential_identity"] <= 1e-12
    assert report["potential_gradient"] <= 1e-5
    assert report["min_entropy_curvature"] > 0.0


def test_rusanov_consistency_and_upwind_value():
    law = ph.linear_advection([1.0, 0.0])
    u = np.array([[0.8]])
    n = np.array([[1.0, 0.0]])
    assert np.abs(ph.rusanov_flux(law, u, u, n) - 0.8).max() <= 1e-13
    # pure upwind: left state wins with speed 1
    got = ph.rusanov_flux(law, np.array([[1.0]]), np.array([[0.0]]), n)
    assert abs(got.item() - 1.0) <= 1e-14


@pytest.mark.parametrize("flux", [ph.central_flux, ph.rusanov_flux, ph.tadmor_ec_flux],
                         ids=["central", "rusanov", "tadmor_ec"])
@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.name)
def test_flux_contract(law, flux):
    report = ph.validate_flux(law, flux, RNG, n_samples=1000)
    assert report["consistency"] <= 1e-13
    assert report["conservation"] <= 1e-13


def test_burgers_ec_flux_closed_form():
    law = ph.burgers_2d()
    uL, uR = np.array([[0.4]]), np.array([[-1.1]])
    n = np.array([[1.0, 0.0]])
    want = (0.4**2 + 0.4 * -1.1 + 1.1**2) / 6.0
    assert abs(ph.tadmor_ec_flux(law, uL, uR, n).item() - want) <= 1e-14


def test_advection_central_flux_is_entropy_conservative():
    law = ph.linear_advection([0.7, -0.2])
    uL, uR, n = _pairs(law, 500)
    checks = ph.tadmor_edge_check(law, uL, uR, n, ph.central_flux)
    assert np.abs(checks).max() <= 1e-13


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.name)
def test_ec_flux_satisfies_equality_and_rusanov_dissipates(law):
    uL, uR, n = _pairs(law, 1000)
    ec = ph.tadmor_edge_check(law, uL, uR, n, ph.tadmor_ec_flux)
    assert np.abs(ec).max() <= 1e-12
    rus = ph.tadmor_edge_check(law, uL, uR, n, ph.rusanov_flux)
    assert rus.max() <= 1e-14
    same = ph.tadmor_edge_check(law, uL, uL, n, ph.rusanov_flux)
    assert np.abs(same).max() == 0.0


def test_entropy_numerical_flux_consistency_and_value():
    law = ph.burgers_2d()
    u = law.random_states(RNG, 100)
    n = np.tile([1.0, 0.0], (100, 1))
    ghat = ph.entropy_numerical_flux(law, ph.tadmor_ec_flux, u, u, n)
    gn = (law.entropy_flux(u) * n).sum(-1)
    assert np.abs(ghat - gn).max() <= 1e-13
    # frozen hand value: uL=0, uR=1, n=(1,0), entropy-conservative flux
    got = ph.entropy_numerical_flux(
        law, ph.tadmor_ec_flux, np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0, 0.0]])
    )
    assert abs(got.item() - 1.0 / 16.0) <= 1e-15


def test_entropy_numerical_flux_matches_direct_reevaluation():
    law = ph.burgers_2d()
    uL, uR, n = _pairs(law, 100)
    fhat = ph.tadmor_ec_flux(law, uL, uR, n)
    got = ph.entropy_numerical_flux(law, fhat, uL, uR, n)
    vavg = 0.5 * (law.entropy_vars(uL) + law.entropy_vars(uR))
    brute = (vavg * fhat).sum(-1) - (law.potential(vavg) * n).sum(-1)
    assert np.abs(got - brute).max() <= 1e-13


def test_law_registry_and_errors():
    assert ph.law_by_name("advection").name == "advection"
    assert ph.law_by_name("burgers").name == "burgers"
    with pytest.raises(ph.UnsupportedLaw):
        ph.law_by_name("euler")
    assert ph.law_by_name("advection", {"velocity": [0.0, 2.0]}).name == "advection"
    for name, params in (("advection", {"velocty": [0, 1]}), ("burgers", {"velocity": [0, 1]})):
        with pytest.raises(ph.UnsupportedLaw, match=f"takes no parameter '{next(iter(params))}'"):
            ph.law_by_name(name, params)
    with pytest.raises(ph.UnsupportedLaw):
        ph.linear_advection([0.0, 0.0])


@pytest.mark.parametrize("name", list(ph._LAW_BUILDERS))
def test_state_independent_speed_declaration_is_honest(name):
    # a solve evaluates the wave speeds of a law that declares them
    # state-independent once, so they must not move with the state
    law = ph.law_by_name(name, {"velocity": [0.731, -1.29]} if name != "burgers" else {})
    rng = np.random.default_rng(91)
    ang = rng.uniform(0.0, 2.0 * np.pi, (2, 40, 3))
    n = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    u, w = law.random_states(rng, (2, 40, 3)), law.random_states(rng, (2, 40, 3))
    same = (np.array_equal(law.max_wave_speed(u), law.max_wave_speed(w))
            and np.array_equal(law.wave_speed(u, n), law.wave_speed(w, n)))
    if not law.state_dependent_speeds:
        assert same
    if name == "burgers":
        assert law.state_dependent_speeds and not same


def test_hand_built_law_declares_state_dependent_speeds():
    law = ph.linear_advection([1.0, 0.0])
    fields = {f: getattr(law, f) for f in ("name", "p", "flux", "entropy", "entropy_vars",
                                           "entropy_flux", "potential", "wave_speed",
                                           "max_wave_speed")}
    assert not law.state_dependent_speeds
    assert ph.ConservationLaw(**fields).state_dependent_speeds
