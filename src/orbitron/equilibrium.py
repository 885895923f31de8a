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
    NonFinite,
    NoRealSolution,
    NotMirrorSymmetric,
    WrongFieldSign,
)
from .fields import AxiFieldModel, FieldJet, eval_jet
from .potential import DipolePotential, _where

__all__ = [
    "Equilibrium",
    "build_support_state",
    "first_order_residual",
    "solve_orbitron_equatorial",
    "equatorial_conditions",
    "equatorial_multipliers",
    "tilted_multipliers",
    "solve_dipole_equilibrium",
    "solve_levitation",
    "build_levitation_equilibrium",
]

E3 = np.array([0.0, 0.0, 1.0])

# Tilt magnitudes below this are treated as exactly equatorial when
# solve_dipole_equilibrium classifies its branches.
EQUATORIAL_TOL = 1e-9

# Levitation tilts |nu_r| below this cannot balance the linear part's radial field.
LEVITATION_TILT_MIN = 1e-15

# A branch's failures by code, in the order its solver checks them (0: solved), and their messages.
EQUATORIAL_FAILURES = (None, NotMirrorSymmetric, WrongFieldSign)
_EQUATORIAL_MESSAGES = (None, "field is not mirror symmetric at r = {r0:g}",
                        "need -sigma Bz_r > 0 at r = {r0:g}; got sigma = {sigma:+g}, Bz_r = {Bz_r:g}")
LEVITATION_FAILURES = (None, BadSign, BadSign, NoRealSolution, NegativeCentrifugal, ArithmeticError, BadSign,
                       NoEquilibrium)
_LEVITATION_MESSAGES = (None, "levitation requires beta < 0", "levitation requires kappa != 0",
                        "discriminant 1 + beta^2 - kappa^2 = {disc:g} < 0", "xi^2 = {xi2:g} <= 0 on this branch",
                        "axis direction failed to normalize: |nu|^2 - 1 = {err:g}", "levitation needs g > 0",
                        "zero tilt cannot balance the radial field of the linear part")


@dataclass(frozen=True)
class Equilibrium:
    """A relative equilibrium plus the multipliers that certify it.

    nu0 has the support-plane form (nu_r, 0, nu_z); pi0 is the full spin
    vector there; p0 is the scalar momentum M omega r0 carried along e2.
    The orbit rate omega is ``mult.omega``.  sigma records the orientation
    sign of nu_z.  residual is the max norm of the first-order conditions at
    the support state.
    """

    r0: float
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
            "omega": self.mult.omega,
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

    def time_reversed(self) -> "Equilibrium":
        """The same orbit traversed backwards, at -omega.

        The reduced top is time-reversible: negating omega, lambda2, pi0, p0
        and C2 keeps every first-order condition, so nu0, lambda1, lambda,
        sigma and the residual carry over.  Applied twice it is the identity.
        """
        m = self.mult
        mult = Multipliers(-m.omega, m.lambda1, -m.lambda2, m.lambda_)
        return replace(self, mult=mult, pi0=-self.pi0, p0=-self.p0, C2=-self.C2)


def build_support_state(eq: Equilibrium) -> ReducedState:
    """The reduced state at t = 0 on the equilibrium orbit."""
    return ReducedState(
        x=np.array([eq.r0, 0.0, 0.0]),
        p=np.array([0.0, eq.p0, 0.0]),
        nu=eq.nu0.copy(),
        pi=eq.pi0.copy(),
    )


def first_order_residual(eq: Equilibrium, b: BodyParams, model: AxiFieldModel) -> float:
    """Max norm of the four first-order conditions at the support state, NaN if any is NaN.

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

    The support state is x = (r0, 0, 0), p = (0, p0, 0), nu = nu0 and
    pi = pi0, taken as floats.  Of the twelve components, the two p
    components off e2 vanish identically; the other ten are written out with
    the terms that multiply a zero of e3 or x dropped, which changes at most
    the sign of a zero.
    """
    r0, p0, om = float(eq.r0), float(eq.p0), eq.mult.omega
    (n1, n2, n3), (s1, s2, s3) = eq.nu0.tolist(), eq.pi0.tolist()
    g1, g2, g3, h1, h2, h3 = DipolePotential(model, b).gradient_terms(r0, 0.0, 0.0, n1, n2, n3)
    l2_i, lam = eq.mult.lambda2 * b.I_perp, eq.mult.lambda_
    r = (
        p0 - b.M * om * r0, g1 - om * p0, g2, g3,
        s1 + l2_i * n1, s2 + l2_i * n2, s3 - b.I_perp * om + l2_i * n3,
        h1 + lam * n1, h2 + lam * n2, h3 + lam * n3 + l2_i * om,
    )
    return math.nan if any(map(math.isnan, r)) else float(max(map(abs, r)))


def equatorial_conditions(jet: FieldJet, b: BodyParams, r0, sigma) -> tuple:
    """Elementwise field conditions (axial, radial, omega2) of the equatorial branch at (r0, 0)."""
    axial = -sigma * jet.Bz_zz
    radial = -sigma * (3.0 * jet.Bz_r / r0 + jet.Bz_rr)
    omega2 = -sigma * (b.mu / b.M) * jet.Bz_r / r0
    return axial, radial, omega2


def _radial_field(jet: FieldJet):
    """Elementwise: is Br nonzero to working precision, |Br| > 1e-9 |(Br, Bz)| (by np.hypot)?"""
    return np.abs(jet.Br) > 1e-9 * np.maximum(np.hypot(jet.Br, jet.Bz), 1e-300)


def _equatorial_tests(jet: FieldJet, b: BodyParams, r0, sigma):
    """Elementwise (code, omega2) of the equatorial branch, from the jet at (r0, 0).

    code indexes EQUATORIAL_FAILURES: 1 for a radial field or an axial gradient, else 2 unless omega2 > 0.
    """
    dnorm = np.max(np.abs([jet.Br_r, jet.Br_z, jet.Bz_r, jet.Bz_z]), axis=0)
    asymmetric = _radial_field(jet) | (np.abs(jet.Bz_z) > 1e-9 * np.maximum(dnorm, 1e-300))
    omega2 = equatorial_conditions(jet, b, r0, sigma)[2]
    return _where(asymmetric, 1, _where(omega2 <= 0.0, 2, 0)), omega2


def equatorial_multipliers(b: BodyParams, Bz, omega, pi0, sigma) -> Multipliers:
    """Multipliers of the equatorial branch with spin pi0 along the axis.

    Elementwise, so the arguments may be floats or arrays of equatorial cells.
    """
    lambda2 = sigma * (omega - pi0 / b.I_perp)
    lam = sigma * b.mu * Bz + omega * (pi0 - b.I_perp * omega)
    return Multipliers.from_lambda(omega, lam, lambda2, b.I_perp)


def _quotient(num, den, what: str):
    """num / den, elementwise; a float den that underflowed to 0 raises NonFinite naming ``what``.

    Arrays give inf or nan there instead, which their callers flag.
    """
    try:
        return num / den
    except ZeroDivisionError:
        raise NonFinite(f"{what} is not finite: its divisor underflows to 0") from None


def tilted_multipliers(b: BodyParams, Br, Bz, omega, nu_r, nu_z) -> Multipliers:
    """Elementwise multipliers of a tilted branch: lambda nu_r = mu Br, then lambda2 by the z balance."""
    lam = b.mu * Br / nu_r
    lambda2 = _quotient(b.mu * Bz - lam * nu_z, b.I_perp * omega, "multiplier lambda2")
    return Multipliers.from_lambda(omega, lam, lambda2, b.I_perp)


def _support_momenta(b: BodyParams, r0, nu0, mult: Multipliers) -> tuple:
    """(pi0, p0) of the first-order conditions: pi0 = I_perp (omega e3 - lambda2 nu0), p0 = M omega r0.

    nu0 is one axis of shape (3,) with float multipliers, or K axes of
    shape (3, K) with multipliers of shape (K,).
    """
    om = mult.omega
    e3 = E3.reshape((3,) + (1,) * np.ndim(om))
    return b.I_perp * om * e3 - mult.lambda2 * b.I_perp * nu0, b.M * om * r0


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _equilibrium(
    model: AxiFieldModel, b: BodyParams, r0: float, nu0: np.ndarray, mult: Multipliers, C2: float
) -> Equilibrium:
    """The equilibrium with axis nu0 and multipliers mult, with its residual.

    The first-order conditions fix pi0 and p0 (see :func:`_support_momenta`),
    and the sign of nu_z fixes sigma.  Multipliers too large for them
    overflow silently, and NonFinite names the first of omega, pi0, p0, the
    multipliers and the residual that is not finite.
    """
    om = mult.omega
    pi0, p0 = _support_momenta(b, r0, nu0, mult)
    eq = Equilibrium(
        r0=r0,
        nu0=nu0,
        pi0=pi0,
        p0=p0,
        mult=mult,
        C2=C2,
        sigma=1 if nu0[2] >= 0.0 else -1,
        residual=0.0,
    )
    eq = replace(eq, residual=first_order_residual(eq, b, model))
    names = ("omega", "pi0", "pi0", "pi0", "p0", "lambda1", "lambda2", "lambda", "residual")
    values = [om, *eq.pi0.tolist(), eq.p0, mult.lambda1, mult.lambda2, mult.lambda_, eq.residual]
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise NonFinite(f"equilibrium {name} is not finite at r0 = {r0:g}")
    return eq


def _equatorial_equilibrium(
    model: AxiFieldModel, b: BodyParams, r0: float, jet: FieldJet, omega: float, pi0: float, sigma: int
) -> Equilibrium:
    mult = equatorial_multipliers(b, jet.Bz, omega, pi0, sigma)
    return _equilibrium(model, b, r0, np.array([0.0, 0.0, float(sigma)]), mult, sigma * pi0)


def _tilted_equilibrium(
    model: AxiFieldModel, b: BodyParams, r0: float, jet: FieldJet, omega: float, nu_r: float, nu_z: float
) -> Equilibrium:
    """A tilted branch, with the multipliers of :func:`tilted_multipliers`.

    The spin invariant C2 follows from them rather than being prescribed.
    """
    mult = tilted_multipliers(b, jet.Br, jet.Bz, omega, nu_r, nu_z)
    c2 = b.I_perp * (omega * nu_z - mult.lambda2)
    return _equilibrium(model, b, r0, np.array([nu_r, 0.0, nu_z]), mult, c2)


def solve_orbitron_equatorial(
    model: AxiFieldModel, b: BodyParams, r0: float, pi0: float, sigma: int = 1
) -> Equilibrium:
    """Equatorial equilibrium of a mirror-symmetric field without gravity.

    The axis is locked to sigma e3 and the orbit rate balances the magnetic
    pull: omega^2 = -sigma (mu / M) Bz_r / r0.  The spin pi0 along the axis
    is free and is supplied by the caller.

    Raises ValueError, before any jet, unless sigma is +1 or -1, r0 > 0 and
    g = 0 (a nonzero g leaves the z balance unsatisfiable on this branch);
    NotMirrorSymmetric if the field has a radial component or an axial
    gradient at (r0, 0); and WrongFieldSign if omega^2 is not positive.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    if r0 <= 0.0:
        raise ValueError("orbit radius must be positive")
    if b.g != 0.0:
        raise ValueError("equatorial solver requires g = 0; use solve_dipole_equilibrium")
    jet = eval_jet(model, r0, 0.0)
    code, w2 = _equatorial_tests(jet, b, r0, sigma)
    if code:
        raise EQUATORIAL_FAILURES[code](_EQUATORIAL_MESSAGES[code].format(r0=r0, sigma=sigma, Bz_r=jet.Bz_r))
    return _equatorial_equilibrium(model, b, r0, jet, math.sqrt(w2), pi0, sigma)


def solve_dipole_equilibrium(model: AxiFieldModel, b: BodyParams, r0: float, C2: float) -> list[Equilibrium]:
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
    d = _quotient(b.M * b.g, b.mu * norm, "axis line offset M g / (mu |(Br_z, Bz_z)|)")
    c = b.M * r0 / b.mu
    w_orb = abs(_quotient(b.mu * jet.Bz_r, b.M * r0, "orbit rate scale mu Bz_r / (M r0)"))
    roots = []
    if abs(d) <= 1.0:
        half = math.sqrt((1.0 - d) * (1.0 + d))
        for s in {half, -half}:  # one point where the line is tangent
            nr, nz = d * ur - s * uz, d * uz + s * ur
            w = _quotient(-(jet.Br_r * nr + jet.Br_z * nz), c, "omega^2")
            if w > 1e-12 * max(1.0, w_orb):
                roots.append((nr, nz, math.sqrt(w)))

    out: list[Equilibrium] = []
    for nr, nz, omega in sorted(roots, key=lambda r: (-r[1], r[0])):
        if abs(nr) < EQUATORIAL_TOL:
            if not _radial_field(jet):  # else a vanishing tilt cannot balance the radial field
                sigma = 1 if nz >= 0.0 else -1
                out.append(_equatorial_equilibrium(model, b, r0, jet, omega, sigma * C2, sigma))
        else:
            n = math.hypot(nr, nz)
            out.append(_tilted_equilibrium(model, b, r0, jet, omega, nr / n, nz / n))
    if not out:
        raise NoEquilibrium(f"no relative equilibrium with omega^2 > 0 at r = {r0:g}")
    return out


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _levitation_roots(beta, kappa) -> tuple:
    """Elementwise (nu_r, nu_z, xi2, disc, err, code) of solve_levitation; code indexes LEVITATION_FAILURES."""
    disc = 1.0 + beta * beta - kappa * kappa
    root = np.sqrt(disc) / abs(kappa)
    denom = 1.0 + beta * beta
    nu_r = kappa / denom * (beta + root)
    nu_z = kappa - beta * nu_r
    xi2 = -beta / (2.0 * denom) + (0.5 + beta * beta) / denom * root
    err = abs(nu_r * nu_r + nu_z * nu_z - 1.0)
    balance = _where(disc < 0.0, 3, _where(xi2 <= 0.0, 4, _where(err > 1e-12, 5, 0)))
    code = _where(beta >= 0.0, 1, _where(kappa == 0.0, 2, balance))
    return nu_r, nu_z, xi2, disc, err, code


def _levitation_code(code, nu_r, g):
    """The orbit's LEVITATION_FAILURES code, elementwise: g <= 0 (6), the roots' code, then a zero tilt (7)."""
    return _where(g <= 0.0, 6, _where((code == 0) & (abs(nu_r) < LEVITATION_TILT_MIN), 7, code))


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
    discriminant 1 + beta^2 - kappa^2 is negative, NegativeCentrifugal
    when the resulting xi^2 is not positive, and ArithmeticError when
    |nu|^2 misses 1 by more than 1e-12, as where nu_z = kappa - beta nu_r
    cancels (|beta| >> 1).  One cell of :func:`_levitation_roots`.
    """
    nu_r, nu_z, xi2, disc, err, code = _levitation_roots(beta, kappa)
    if code:
        raise LEVITATION_FAILURES[code](_LEVITATION_MESSAGES[code].format(disc=disc, xi2=xi2, err=err))
    return float(nu_r), float(nu_z), float(xi2)


def build_levitation_equilibrium(
    model: AxiFieldModel, b: BodyParams, r0: float, nu_r: float, nu_z: float, xi2: float
) -> Equilibrium:
    """Assemble the full equilibrium for a levitation solution at radius r0.

    The caller provides the tilt and centrifugal ratio from
    :func:`solve_levitation`; this fixes omega^2 = xi2 g / r0, and the
    multipliers follow from the tilted-branch conditions.  The reported
    residual measures how consistently (r0, model, b) reproduce the
    dimensionless inputs.  Raises ValueError unless r0 > 0, then the class of a nonzero :func:`_levitation_code`.
    """
    if r0 <= 0.0:
        raise ValueError("orbit radius must be positive")
    code = _levitation_code(0, nu_r, b.g)
    if code:
        raise LEVITATION_FAILURES[code](_LEVITATION_MESSAGES[code])
    jet = eval_jet(model, r0, 0.0)
    return _tilted_equilibrium(model, b, r0, jet, math.sqrt(xi2 * b.g / r0), nu_r, nu_z)
