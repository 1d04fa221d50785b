"""Conservation-law definitions and numerical interface fluxes.

A law packages the physical flux together with its entropy machinery: convex
entropy U, entropy variables v = dU/du, entropy flux g, and the potential
theta(v) satisfying d(theta)/dv = f and g = <v, f> - theta.  States carry a
trailing component axis of size ``p``; the shipped laws are scalar (p = 1)
but every evaluator keeps the component axis so systems slot in unchanged.

Interface fluxes follow the usual contract: consistency f_hat(u, u, n) =
f(u).n and conservation f_hat(a, b, n) = -f_hat(b, a, -n).  The dissipation
sign of a flux is measured by the edge functional

    <v_R - v_L, f_hat> - (theta_R - theta_L).n

which vanishes for the entropy-conservative flux and is nonpositive for
dissipative fluxes such as Rusanov.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import is_finite_number


class UnsupportedLaw(ValueError):
    pass


@dataclass(frozen=True)
class ConservationLaw:
    name: str
    p: int
    flux: Callable  # u (..., p) -> (..., p, 2)
    entropy: Callable  # u -> (...)
    entropy_vars: Callable  # u -> (..., p)
    entropy_flux: Callable  # u -> (..., 2)
    potential: Callable  # v (..., p) -> (..., 2)
    wave_speed: Callable  # (u, n) -> (...), spectral radius of d(f.n)/du
    max_wave_speed: Callable  # u -> (...), bound over all unit directions
    flux_jac: Callable = None  # u (..., p) -> (..., p, p, 2)
    admissible_box: tuple[float, float] = (-5.0, 5.0)
    ec_flux: Callable | None = None  # optional closed-form EC flux
    # False: wave_speed and max_wave_speed give the same values at every
    # state (constant-velocity transport), so a solve evaluates them once
    state_dependent_speeds: bool = True

    def random_states(self, rng: np.random.Generator, shape) -> np.ndarray:
        lo, hi = self.admissible_box
        if np.isscalar(shape):
            shape = (shape,)
        return rng.uniform(lo, hi, size=tuple(shape) + (self.p,))


def _times_vector(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x[..., None] * a for a 2-vector ``a``, written component by component
    (the same products as the broadcast, in two calls instead of one
    broadcast multiply and its temporary)."""
    out = np.empty(x.shape + (2,))
    np.multiply(x, a[0], out=out[..., 0])
    np.multiply(x, a[1], out=out[..., 1])
    return out


def _dot2(x, n) -> np.ndarray:
    """Contraction of the trailing 2-vector axis, x[..., 0] n[..., 0] +
    x[..., 1] n[..., 1]: bit for bit ``(x * n).sum(-1)``, without the
    product array and the reduction."""
    return x[..., 0] * n[..., 0] + x[..., 1] * n[..., 1]


def _transport(a: np.ndarray, name: str, **parts) -> ConservationLaw:
    """The law ``name`` of scalar transport with constant velocity ``a`` (a
    float array): the flux a*u, its wave speeds and its Jacobian, which do
    not depend on the entropy, plus the other fields ``parts`` (the entropy
    machinery)."""
    speed = float(np.hypot(*a))
    if speed == 0.0:
        raise UnsupportedLaw("advection velocity must be nonzero")

    def flux(u):
        return _times_vector(np.asarray(u, dtype=float), a)

    def wave_speed(u, n):
        # the component sum rounds each product (n @ a may fuse them,
        # depending on the stack shape); rusanov_flux only reduces the view
        an = _dot2(np.asarray(n, dtype=float), a)
        return np.broadcast_to(np.abs(an), np.asarray(u).shape[:-1])

    def max_speed(u):
        return np.full(np.asarray(u).shape[:-1], speed)

    def flux_jac(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1] + (1, 1, 2))
        out[..., 0, 0, :] = a
        return out

    return ConservationLaw(
        name=name, p=1, flux=flux, wave_speed=wave_speed, max_wave_speed=max_speed,
        flux_jac=flux_jac, state_dependent_speeds=False, **parts,
    )


def linear_advection(a) -> ConservationLaw:
    """Scalar transport with constant velocity ``a``: flux a*u, entropy u^2/2."""
    a = np.asarray(a, dtype=float)

    def entropy(u):
        return 0.5 * np.asarray(u)[..., 0] ** 2

    def entropy_vars(u):
        return np.asarray(u, dtype=float).copy()

    def entropy_flux(u):
        return _times_vector(0.5 * np.asarray(u)[..., 0] ** 2, a)

    def potential(v):
        return _times_vector(0.5 * np.asarray(v)[..., 0] ** 2, a)

    def ec(uL, uR, n):
        an = _dot2(np.asarray(n, dtype=float), a)
        return 0.5 * (np.asarray(uL) + np.asarray(uR)) * an[..., None]

    return _transport(
        a, "advection", entropy=entropy, entropy_vars=entropy_vars,
        entropy_flux=entropy_flux, potential=potential, ec_flux=ec,
    )


def burgers_2d() -> ConservationLaw:
    """2D Burgers with identical quadratic flux in both directions."""

    def flux(u):
        u = np.asarray(u, dtype=float)
        f = 0.5 * u[..., 0] ** 2
        return np.stack([f, f], axis=-1)[..., None, :]

    def entropy(u):
        return 0.5 * np.asarray(u)[..., 0] ** 2

    def entropy_vars(u):
        return np.asarray(u, dtype=float).copy()

    def entropy_flux(u):
        g = np.asarray(u)[..., 0] ** 3 / 3.0
        return np.stack([g, g], axis=-1)

    def potential(v):
        th = np.asarray(v)[..., 0] ** 3 / 6.0
        return np.stack([th, th], axis=-1)

    def wave_speed(u, n):
        n = np.asarray(n, dtype=float)
        return np.abs(np.asarray(u)[..., 0] * (n[..., 0] + n[..., 1]))

    def max_speed(u):
        return np.abs(np.asarray(u)[..., 0]) * np.sqrt(2.0)

    def ec(uL, uR, n):
        uL = np.asarray(uL)[..., 0]
        uR = np.asarray(uR)[..., 0]
        n = np.asarray(n, dtype=float)
        val = (uL * uL + uL * uR + uR * uR) / 6.0 * (n[..., 0] + n[..., 1])
        return val[..., None]

    def flux_jac(u):
        u0 = np.asarray(u, dtype=float)[..., 0]
        out = np.zeros(u0.shape + (1, 1, 2))
        out[..., 0, 0, 0] = u0
        out[..., 0, 0, 1] = u0
        return out

    return ConservationLaw(
        name="burgers", p=1, flux=flux, entropy=entropy, entropy_vars=entropy_vars,
        entropy_flux=entropy_flux, potential=potential,
        wave_speed=wave_speed, max_wave_speed=max_speed, ec_flux=ec,
        flux_jac=flux_jac,
    )


def exp_advection(a) -> ConservationLaw:
    """Linear transport equipped with the exponential entropy U = exp(u).

    Useful for exercising the diagnostics on a law whose entropy variables
    differ from the state: v = exp(u), g = a exp(u), theta(v) = a v (ln v - 1).
    """
    a = np.asarray(a, dtype=float)

    def entropy(u):
        return np.exp(np.asarray(u)[..., 0])

    def entropy_vars(u):
        return np.exp(np.asarray(u, dtype=float))

    def entropy_flux(u):
        return _times_vector(np.exp(np.asarray(u)[..., 0]), a)

    def potential(v):
        v0 = np.asarray(v)[..., 0]
        return _times_vector(v0 * (np.log(v0) - 1.0), a)

    def ec(uL, uR, n):
        vL = np.exp(np.asarray(uL)[..., 0])
        vR = np.exp(np.asarray(uR)[..., 0])
        an = _dot2(np.asarray(n, dtype=float), a)
        dv = vR - vL
        tiny = np.abs(dv) < 1e-12 * np.maximum(vL, vR)
        num = vR * (np.log(vR) - 1.0) - vL * (np.log(vL) - 1.0)
        avg_u = 0.5 * (np.asarray(uL)[..., 0] + np.asarray(uR)[..., 0])
        val = np.where(tiny, avg_u, num / np.where(tiny, 1.0, dv))
        return (val * an)[..., None]

    return _transport(
        a, "exp-advection", entropy=entropy, entropy_vars=entropy_vars,
        entropy_flux=entropy_flux, potential=potential, ec_flux=ec,
        admissible_box=(-2.0, 2.0),
    )


def _velocity(name: str, params: dict) -> list:
    """The ``velocity`` parameter of the law ``name``: exactly two finite
    numbers, not booleans (default (1, 0)); anything else raises
    ``UnsupportedLaw``."""
    a = params.get("velocity", [1.0, 0.0])
    try:
        ok = len(a) == 2 and all(is_finite_number(x) for x in a)
    except TypeError:  # not a sequence
        ok = False
    if not ok:
        raise UnsupportedLaw(f"law {name!r} parameter 'velocity' must be two finite numbers, "
                             f"got {a!r}")
    return a


# each law's parameters and the function that makes it
_LAW_BUILDERS = {
    "advection": (("velocity",), lambda p: linear_advection(_velocity("advection", p))),
    "burgers": ((), lambda p: burgers_2d()),
    "exp-advection": (("velocity",), lambda p: exp_advection(_velocity("exp-advection", p))),
}


def law_by_name(name: str, params: dict | None = None) -> ConservationLaw:
    """The law ``name`` built from ``params``; an unknown law or a parameter
    the law does not take raises ``UnsupportedLaw``."""
    if name not in _LAW_BUILDERS:
        raise UnsupportedLaw(f"unknown law {name!r}")
    known, build = _LAW_BUILDERS[name]
    unknown = sorted(set(params or {}) - set(known))
    if unknown:
        raise UnsupportedLaw(f"law {name!r} takes no parameter {unknown[0]!r}; expected {known}")
    return build(params or {})


# ---------------------------------------------------------------------------
# numerical fluxes
# ---------------------------------------------------------------------------

def normal_flux(law: ConservationLaw, u, n) -> np.ndarray:
    """Physical flux contracted with a normal: f(u).n, shape (..., p)."""
    n = np.asarray(n, dtype=float)
    return _dot2(law.flux(u), n[..., None, :])


def normal_entropy_flux(law: ConservationLaw, u, n) -> np.ndarray:
    """Entropy flux contracted with a normal: g(u).n, shape (...)."""
    return _dot2(law.entropy_flux(u), np.asarray(n, dtype=float))


def rusanov_speed(law: ConservationLaw, u2: np.ndarray, n) -> np.ndarray:
    """The Rusanov dissipation speed at the side stack u2 = (uL, uR): the
    larger wave speed of the two traces, in one law call."""
    return law.wave_speed(u2, n).max(axis=0)


def two_point_flux(law: ConservationLaw, kind: str, u2: np.ndarray, n,
                   speed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The ``central`` or ``rusanov`` flux at the side stack u2 = (uL, uR)
    (traces of one shape) and f(u).n of both sides, (2, ..., p), from one
    flux call.  Rusanov subtracts the spectral-radius dissipation (local
    Lax-Friedrichs) with ``speed``, by default :func:`rusanov_speed` of u2."""
    f = normal_flux(law, u2, n)
    fhat = 0.5 * (f[0] + f[1])
    if kind == "rusanov":
        lam = rusanov_speed(law, u2, n) if speed is None else speed
        fhat = fhat - 0.5 * lam[..., None] * (u2[1] - u2[0])
    return fhat, f


def central_flux(law: ConservationLaw, uL, uR, n) -> np.ndarray:
    return two_point_flux(law, "central", np.stack((uL, uR)), n)[0]


def rusanov_flux(law: ConservationLaw, uL, uR, n) -> np.ndarray:
    """Central flux plus spectral-radius dissipation, see :func:`two_point_flux`."""
    return two_point_flux(law, "rusanov", np.stack((uL, uR)), n)[0]


def tadmor_ec_flux(law: ConservationLaw, uL, uR, n) -> np.ndarray:
    """Entropy-conservative flux: <v_R - v_L, f_hat> = (theta_R - theta_L).n.

    Uses the law's closed form when available, otherwise the divided
    difference of the potential along the entropy variable (scalar laws
    only), with a series guard at coincident states.
    """
    if law.ec_flux is not None:
        return law.ec_flux(uL, uR, n)
    if law.p != 1:
        raise UnsupportedLaw("generic entropy-conservative flux needs a scalar law")
    vL = law.entropy_vars(uL)[..., 0]
    vR = law.entropy_vars(uR)[..., 0]
    n = np.asarray(n, dtype=float)
    thL = _dot2(law.potential(vL[..., None]), n)
    thR = _dot2(law.potential(vR[..., None]), n)
    dv = vR - vL
    tiny = np.abs(dv) < 1e-12 * np.maximum(1.0, np.abs(vL) + np.abs(vR))
    cons = normal_flux(law, 0.5 * (np.asarray(uL) + np.asarray(uR)), n)[..., 0]
    val = np.where(tiny, cons, (thR - thL) / np.where(tiny, 1.0, dv))
    return val[..., None]


FLUX_KINDS: dict[str, Callable] = {
    "central": central_flux,
    "rusanov": rusanov_flux,
    "tadmor_ec": tadmor_ec_flux,
}


def numerical_flux(kind: str) -> Callable:
    if kind not in FLUX_KINDS:
        raise UnsupportedLaw(f"unknown numerical flux kind {kind!r}")
    return FLUX_KINDS[kind]


def entropy_numerical_flux(law: ConservationLaw, fhat, uL, uR, n) -> np.ndarray:
    """Numerical entropy flux paired with a numerical flux:

        g_hat = <{v}, f_hat(uL, uR, n)> - theta({v}).n

    where {v} is the arithmetic average of the two entropy-variable traces.
    ``fhat`` may be a flux callable or precomputed values of shape (..., p).
    """
    if callable(fhat):
        fhat = fhat(law, uL, uR, n)
    v_avg = 0.5 * (law.entropy_vars(uL) + law.entropy_vars(uR))
    th = _dot2(law.potential(v_avg), np.asarray(n, dtype=float))
    return (v_avg * np.asarray(fhat)).sum(-1) - th


def tadmor_edge_check(law: ConservationLaw, uL, uR, n, fhat) -> np.ndarray:
    """Edge dissipation functional <[v], f_hat> - [theta].n of the flux
    values ``fhat`` at the state pairs (uL, uR) and normals n.

    The jump convention is (right minus left): zero marks an entropy-
    conservative flux, negative values an entropy-stable one.
    """
    dv = law.entropy_vars(uR) - law.entropy_vars(uL)
    dth = _dot2(
        law.potential(law.entropy_vars(uR)) - law.potential(law.entropy_vars(uL)),
        np.asarray(n, dtype=float),
    )
    return (dv * np.asarray(fhat)).sum(-1) - dth


# ---------------------------------------------------------------------------
# validation batteries (finite-difference oracles)
# ---------------------------------------------------------------------------

def validate_law(law: ConservationLaw, rng: np.random.Generator, n_samples: int = 1000,
                 fd_step: float = 1e-6) -> dict[str, float]:
    """Check the defining identities of a law at random admissible states.

    Returns maximum defects of: the entropy-compatibility condition
    dU/du . d(f_j)/du = d(g_j)/du (finite differences), the potential
    identity g = <v, f> - theta(v), the gradient relation d(theta)/dv = f,
    and strict convexity of the entropy.
    """
    lo, hi = law.admissible_box
    margin = fd_step * max(1.0, abs(hi - lo))
    u = rng.uniform(lo + margin, hi - margin, size=(n_samples, law.p))

    def d_du(fn, u):
        out_p = np.asarray(fn(u + 0.0))
        grads = []
        for i in range(law.p):
            du = np.zeros_like(u)
            du[..., i] = fd_step
            grads.append((np.asarray(fn(u + du)) - np.asarray(fn(u - du))) / (2 * fd_step))
        return np.stack(grads, axis=-1), out_p

    report: dict[str, float] = {}

    dU, _ = d_du(law.entropy, u)  # (n, p)
    compat = 0.0
    for j in range(2):
        df, _ = d_du(lambda w, j=j: law.flux(w)[..., :, j], u)  # (n, p, p)
        dg, _ = d_du(lambda w, j=j: law.entropy_flux(w)[..., j], u)  # (n, p)
        lhs = (dU[..., None] * df).sum(-2)
        compat = max(compat, float(np.abs(lhs - dg).max()))
    report["compatibility"] = compat

    v = law.entropy_vars(u)
    g = law.entropy_flux(u)
    vf = (v[..., :, None] * law.flux(u)).sum(-2)
    report["potential_identity"] = float(np.abs(g - (vf - law.potential(v))).max())

    dth = np.stack(
        [
            (np.asarray(law.potential(v + dv)) - np.asarray(law.potential(v - dv)))
            / (2 * fd_step)
            for dv in [np.full_like(v, 0.0) + fd_step * np.eye(law.p)[i] for i in range(law.p)]
        ],
        axis=-2,
    )
    report["potential_gradient"] = float(np.abs(dth - law.flux(u)).max())

    upp = (
        np.asarray(law.entropy(u + fd_step * np.ones(law.p)))
        - 2 * np.asarray(law.entropy(u))
        + np.asarray(law.entropy(u - fd_step * np.ones(law.p)))
    ) / fd_step**2
    report["min_entropy_curvature"] = float(upp.min())
    return report


def validate_flux(law: ConservationLaw, flux: Callable, rng: np.random.Generator,
                  n_samples: int = 1000) -> dict[str, float]:
    """Consistency and conservation defects of a numerical flux at random
    states and unit normals."""
    u = law.random_states(rng, n_samples)
    w = law.random_states(rng, n_samples)
    ang = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    n = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    consistency = float(np.abs(flux(law, u, u, n) - normal_flux(law, u, n)).max())
    conservation = float(np.abs(flux(law, u, w, n) + flux(law, w, u, -n)).max())
    return {"consistency": consistency, "conservation": conservation}
