"""Relative equilibria: circular orbits with a co-rotating axis direction.

A relative equilibrium is a state that rotates rigidly about e3 at a rate
omega: x stays on a circle of radius r0 in the z = 0 plane, the axis
direction nu keeps a fixed tilt (nu_r, 0, nu_z) in the co-rotating frame,
and the multipliers (omega, lambda1, lambda2) make the support state a
critical point of the augmented Hamiltonian.

Three solvers are provided, all in closed form: the line-circle
intersection that gives every branch of a general axisymmetric field, the
classic equatorial branch for mirror-symmetric fields without gravity, and
the levitation branch for a linear field superposed on a mirror-symmetric
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import BodyParams, Multipliers, ReducedState
from .errors import (
    BadSign,
    NegativeCentrifugal,
    NoEquilibrium,
    NoRealSolution,
    NotMirrorSymmetric,
    WrongFieldSign,
)
from .fields import AxiFieldModel, FieldJet, eval_jet
from .potential import DipolePotential

__all__ = [
    "Equilibrium",
    "build_support_state",
    "first_order_residual",
    "solve_orbitron_equatorial",
    "equatorial_rate",
    "equatorial_multipliers",
    "solve_dipole_equilibrium",
    "solve_levitation",
    "build_levitation_equilibrium",
]

E3 = np.array([0.0, 0.0, 1.0])

# Tilt magnitudes below this are treated as exactly equatorial when
# solve_dipole_equilibrium classifies its branches.
EQUATORIAL_TOL = 1e-9


@dataclass(frozen=True)
class Equilibrium:
    """A relative equilibrium plus the multipliers that certify it.

    nu0 has the support-plane form (nu_r, 0, nu_z); pi0 is the full spin
    vector there; p0 is the scalar momentum M omega r0 carried along e2.
    sigma records the orientation sign of nu_z.  residual is the max norm of
    the first-order conditions at the support state.
    """

    r0: float
    omega: float
    nu0: np.ndarray
    pi0: np.ndarray
    p0: float
    mult: Multipliers
    C2: float
    sigma: int
    residual: float

    def to_record(self) -> dict:
        return {
            "r0": self.r0,
            "omega": self.omega,
            "nu0": [float(v) for v in self.nu0],
            "pi0": [float(v) for v in self.pi0],
            "p0": self.p0,
            "lambda": self.mult.lambda_,
            "lambda1": self.mult.lambda1,
            "lambda2": self.mult.lambda2,
            "C2": self.C2,
            "sigma": self.sigma,
            "residual": self.residual,
        }


def build_support_state(eq: Equilibrium) -> ReducedState:
    """The reduced state at t = 0 on the equilibrium orbit."""
    return ReducedState(
        x=np.array([eq.r0, 0.0, 0.0]),
        p=np.array([0.0, eq.p0, 0.0]),
        nu=eq.nu0.copy(),
        pi=eq.pi0.copy(),
    )


def first_order_residual(eq: Equilibrium, b: BodyParams, model: AxiFieldModel) -> float:
    """Max norm of the four first-order conditions at the support state.

    The conditions are the vanishing of the first variation of the augmented
    Hamiltonian: p = M omega e3 x x, grad_x V = -omega e3 x p,
    pi = I_perp omega e3 - lambda2 I_perp nu, and
    grad_nu V = -2 lambda1 nu - lambda2 pi.

    The last condition is evaluated in the equivalent form
    grad_nu V + lambda nu + lambda2 I_perp omega e3, obtained by substituting
    the pi condition and lambda = 2 lambda1 - lambda2^2 I_perp.  The raw form
    cancels two terms of size lambda2^2 I_perp against each other, which for
    near-horizontal axis directions (|nu_r| << 1, so |lambda2| >> |omega|)
    would bury the true residual under rounding noise.
    """
    s = build_support_state(eq)
    V = DipolePotential(model, b)
    om = eq.mult.omega
    grad = V.gradient_terms(*s.x.tolist(), *s.nu.tolist())
    r1 = s.p - b.M * om * np.cross(E3, s.x)
    r2 = np.array(grad[:3]) + om * np.cross(E3, s.p)
    r3 = s.pi - b.I_perp * om * E3 + eq.mult.lambda2 * b.I_perp * s.nu
    r4 = (
        np.array(grad[3:])
        + eq.mult.lambda_ * s.nu
        + eq.mult.lambda2 * b.I_perp * om * E3
    )
    return float(max(np.max(np.abs(r)) for r in (r1, r2, r3, r4)))


def _equatorial_tests(jet: FieldJet, b: BodyParams, r0, sigma):
    """Elementwise (asymmetric, omega2) of the equatorial branch, from the jet at (r0, 0).

    asymmetric flags a radial field or an axial gradient; omega2 must be positive.
    """
    bnorm = np.hypot(jet.Br, jet.Bz)
    dnorm = np.max(np.abs([jet.Br_r, jet.Br_z, jet.Bz_r, jet.Bz_z]), axis=0)
    asymmetric = (np.abs(jet.Br) > 1e-9 * np.maximum(bnorm, 1e-300)) | (
        np.abs(jet.Bz_z) > 1e-9 * np.maximum(dnorm, 1e-300)
    )
    omega2 = -sigma * (b.mu / b.M) * jet.Bz_r / r0
    return asymmetric, omega2


def equatorial_rate(
    model: AxiFieldModel, b: BodyParams, r0: float, sigma: int
) -> tuple[float, FieldJet]:
    """Orbit rate of the equatorial branch at r0, and the field jet there.

    The axis is locked to sigma e3 and the orbit rate balances the magnetic
    pull: omega^2 = -sigma (mu / M) Bz_r / r0.  Raises ValueError unless
    sigma is +1 or -1, r0 > 0 and g = 0; NotMirrorSymmetric if the field
    has a radial component or an axial gradient at (r0, 0); and
    WrongFieldSign if omega^2 is not positive.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    if r0 <= 0.0:
        raise ValueError("orbit radius must be positive")
    if b.g != 0.0:
        raise ValueError("equatorial solver requires g = 0; use solve_dipole_equilibrium")
    jet = eval_jet(model, r0, 0.0)
    asymmetric, w2 = _equatorial_tests(jet, b, r0, sigma)
    if asymmetric:
        raise NotMirrorSymmetric(f"field is not mirror symmetric at r = {r0:g}")
    if w2 <= 0.0:
        raise WrongFieldSign(
            f"need -sigma Bz_r > 0 at r = {r0:g}; got sigma = {sigma:+d}, Bz_r = {jet.Bz_r:g}"
        )
    return math.sqrt(w2), jet


def equatorial_multipliers(b: BodyParams, Bz, omega, pi0, sigma) -> Multipliers:
    """Multipliers of the equatorial branch with spin pi0 along the axis.

    Elementwise, so the arguments may be floats or arrays of equatorial cells.
    """
    lambda2 = sigma * (omega - pi0 / b.I_perp)
    lam = sigma * b.mu * Bz + omega * (pi0 - b.I_perp * omega)
    return Multipliers.from_lambda(omega, lam, lambda2, b.I_perp)


def _equilibrium(
    model: AxiFieldModel, b: BodyParams, r0: float, nu0: np.ndarray, mult: Multipliers, C2: float
) -> Equilibrium:
    """The equilibrium with axis nu0 and multipliers mult, with its residual.

    The first-order conditions fix pi0 = I_perp (omega e3 - lambda2 nu0) and
    p0 = M omega r0, and the sign of nu_z fixes sigma.
    """
    om = mult.omega
    eq = Equilibrium(
        r0=r0,
        omega=om,
        nu0=nu0,
        pi0=b.I_perp * om * E3 - mult.lambda2 * b.I_perp * nu0,
        p0=b.M * om * r0,
        mult=mult,
        C2=C2,
        sigma=1 if nu0[2] >= 0.0 else -1,
        residual=0.0,
    )
    return replace(eq, residual=first_order_residual(eq, b, model))


def _equatorial_equilibrium(
    model: AxiFieldModel, b: BodyParams, r0: float, jet: FieldJet, omega: float, pi0: float, sigma: int
) -> Equilibrium:
    mult = equatorial_multipliers(b, jet.Bz, omega, pi0, sigma)
    return _equilibrium(model, b, r0, np.array([0.0, 0.0, float(sigma)]), mult, sigma * pi0)


def _tilted_equilibrium(
    model: AxiFieldModel, b: BodyParams, r0: float, jet: FieldJet, omega: float, nu_r: float, nu_z: float
) -> Equilibrium:
    """A tilted branch: its multipliers come from the axis-direction conditions.

    lambda nu_r = mu Br fixes lambda, and the z component then fixes
    lambda2; the spin invariant C2 follows rather than being prescribed.
    """
    lam = b.mu * jet.Br / nu_r
    lambda2 = (b.mu * jet.Bz - lam * nu_z) / (b.I_perp * omega)
    mult = Multipliers.from_lambda(omega, lam, lambda2, b.I_perp)
    c2 = b.I_perp * (omega * nu_z - lambda2)
    return _equilibrium(model, b, r0, np.array([nu_r, 0.0, nu_z]), mult, c2)


def solve_orbitron_equatorial(
    model: AxiFieldModel,
    b: BodyParams,
    r0: float,
    pi0: float,
    sigma: int = 1,
    negative_omega: bool = False,
) -> Equilibrium:
    """Equatorial equilibrium of a mirror-symmetric field without gravity.

    The axis is locked to sigma e3 and the orbit rate balances the magnetic
    pull: omega^2 = -sigma (mu / M) Bz_r / r0.  The spin pi0 along the axis
    is free and is supplied by the caller.

    Raises NotMirrorSymmetric if the field has a radial component or an
    axial gradient at (r0, 0), and WrongFieldSign if the required omega^2 is
    not positive.  Gravity must be zero; a nonzero g makes the z balance
    unsatisfiable on an equatorial branch and is reported as a ValueError.
    """
    omega, jet = equatorial_rate(model, b, r0, sigma)
    if negative_omega:
        omega, pi0 = -omega, -pi0
    return _equatorial_equilibrium(model, b, r0, jet, omega, pi0, sigma)


def solve_dipole_equilibrium(
    model: AxiFieldModel,
    b: BodyParams,
    r0: float,
    C2: float,
    negative_omega: bool = False,
) -> list[Equilibrium]:
    """All relative-equilibrium branches at radius r0 for a general field.

    At the support point the force balance is linear in the axis direction:

        Br_z nu_r + Bz_z nu_z = M g / mu
        Br_r nu_r + Br_z nu_z = -(M r0 / mu) omega^2

    so the branches are the points where the line of the first row meets
    the unit circle nu_r^2 + nu_z^2 = 1, two at most, and each takes its
    omega^2 from the second row.  Roots with omega^2 > 0 are classified:
    equatorial branches use the supplied spin invariant C2, tilted branches
    have C2 determined by the tilt.  Branches are returned sorted by
    descending nu_z.

    Raises NoEquilibrium when no branch survives, and when Br_z = Bz_z = 0
    leaves the axis direction undetermined.
    """
    if r0 <= 0.0:
        raise ValueError("orbit radius must be positive")
    jet = eval_jet(model, r0, 0.0)
    norm = math.hypot(jet.Br_z, jet.Bz_z)
    if norm == 0.0:
        raise NoEquilibrium(f"Br_z = Bz_z = 0 at r = {r0:g} leaves the axis direction free")
    # The line is (nu_r, nu_z) . (ur, uz) = d: its point nearest the origin
    # is d (ur, uz), and it meets the circle a half chord away along (-uz, ur).
    ur, uz = jet.Br_z / norm, jet.Bz_z / norm
    d = b.M * b.g / (b.mu * norm)
    c = b.M * r0 / b.mu
    w_orb = abs(b.mu * jet.Bz_r / (b.M * r0))
    roots = []
    if abs(d) <= 1.0:
        half = math.sqrt((1.0 - d) * (1.0 + d))
        for s in {half, -half}:  # one point where the line is tangent
            nr, nz = d * ur - s * uz, d * uz + s * ur
            w = -(jet.Br_r * nr + jet.Br_z * nz) / c
            if w > 1e-12 * max(1.0, w_orb):
                roots.append((nr, nz, w))

    if negative_omega:
        C2 = -C2
    bnorm = math.hypot(jet.Br, jet.Bz)
    out: list[Equilibrium] = []
    for nr, nz, w in sorted(roots, key=lambda r: (-r[1], r[0])):
        omega = -math.sqrt(w) if negative_omega else math.sqrt(w)
        if abs(nr) < EQUATORIAL_TOL:
            if abs(jet.Br) > 1e-9 * max(bnorm, 1e-300):
                # A vanishing tilt cannot balance a nonzero radial field.
                continue
            sigma = 1 if nz >= 0.0 else -1
            out.append(_equatorial_equilibrium(model, b, r0, jet, omega, sigma * C2, sigma))
        else:
            n = math.hypot(nr, nz)
            out.append(_tilted_equilibrium(model, b, r0, jet, omega, nr / n, nz / n))
    if not out:
        raise NoEquilibrium(f"no relative equilibrium with omega^2 > 0 at r = {r0:g}")
    return out


def solve_levitation(beta: float, kappa: float) -> tuple[float, float, float]:
    """Closed-form levitating branch in dimensionless variables.

    Solves the force balance

        nu_z + beta nu_r = kappa
        beta nu_z - nu_r / 2 = -kappa xi^2
        nu_r^2 + nu_z^2 = 1

    for (nu_r, nu_z, xi2), choosing the root that keeps xi^2 positive near
    |kappa| = 1:

        nu_r = kappa / (1 + beta^2) * (beta + sqrt(1 + beta^2 - kappa^2) / |kappa|)

    Raises BadSign for beta >= 0 or kappa = 0, NoRealSolution when the
    discriminant 1 + beta^2 - kappa^2 is negative, and NegativeCentrifugal
    when the resulting xi^2 is not positive.
    """
    if beta >= 0.0:
        raise BadSign("levitation requires beta < 0")
    if kappa == 0.0:
        raise BadSign("levitation requires kappa != 0")
    disc = 1.0 + beta * beta - kappa * kappa
    if disc < 0.0:
        raise NoRealSolution(f"discriminant 1 + beta^2 - kappa^2 = {disc:g} < 0")
    root = math.sqrt(disc) / abs(kappa)
    denom = 1.0 + beta * beta
    nu_r = kappa / denom * (beta + root)
    nu_z = kappa - beta * nu_r
    xi2 = -beta / (2.0 * denom) + (0.5 + beta * beta) / denom * root
    if xi2 <= 0.0:
        raise NegativeCentrifugal(f"xi^2 = {xi2:g} <= 0 on this branch")
    err = abs(nu_r * nu_r + nu_z * nu_z - 1.0)
    if err > 1e-12:
        raise ArithmeticError(f"axis direction failed to normalize: |nu|^2 - 1 = {err:g}")
    return nu_r, nu_z, xi2


def build_levitation_equilibrium(
    model: AxiFieldModel,
    b: BodyParams,
    r0: float,
    nu_r: float,
    nu_z: float,
    xi2: float,
    negative_omega: bool = False,
) -> Equilibrium:
    """Assemble the full equilibrium for a levitation solution at radius r0.

    The caller provides the tilt and centrifugal ratio from
    :func:`solve_levitation`; this fixes omega^2 = xi2 g / r0, and the
    multipliers follow from the tilted-branch conditions.  The reported
    residual measures how consistently (r0, model, b) reproduce the
    dimensionless inputs.
    """
    if r0 <= 0.0:
        raise ValueError("orbit radius must be positive")
    if b.g <= 0.0:
        raise ValueError("levitation needs g > 0")
    if abs(nu_r) < 1e-15:
        raise NoEquilibrium("zero tilt cannot balance the radial field of the linear part")
    jet = eval_jet(model, r0, 0.0)
    omega = math.sqrt(xi2 * b.g / r0)
    return _tilted_equilibrium(model, b, r0, jet, -omega if negative_omega else omega, nu_r, nu_z)
