"""Reduced phase space, body parameters, and conserved quantities.

The reduced state of a magnetized symmetric top moving in an axisymmetric
field is the tuple (x, p, nu, pi): position and linear momentum of the center
of mass together with the symmetry-axis direction and the angular momentum in
the body-adapted reduction.  The component of angular momentum along the axis,
nu . pi, is a Casimir of the reduced bracket, so the spin about the axis
enters the dynamics only through the conserved combination C2 = nu . pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .potential import DipolePotential

__all__ = [
    "ReducedState",
    "BodyParams",
    "Multipliers",
    "casimirs",
    "momentum_j3",
    "hamiltonian",
]

def _vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ReducedState:
    """A point (x, p, nu, pi) of the twelve dimensional reduced phase space."""

    x: np.ndarray
    p: np.ndarray
    nu: np.ndarray
    pi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "p", "nu", "pi"):
            object.__setattr__(self, name, _vec3(getattr(self, name), name))

    def as_vector(self) -> np.ndarray:
        """Pack the state into a flat vector (x, p, nu, pi)."""
        return np.concatenate([self.x, self.p, self.nu, self.pi])

    @staticmethod
    def from_vector(y: np.ndarray) -> "ReducedState":
        y = np.asarray(y, dtype=float)
        if y.shape != (12,):
            raise ValueError(f"state vector must have 12 components, got {y.shape}")
        # The blocks of a (12,) float vector are float 3-vectors already, so
        # the state takes them without running __post_init__'s check again.
        s = object.__new__(ReducedState)
        s.__dict__.update(x=y[0:3], p=y[3:6], nu=y[6:9], pi=y[9:12])
        return s


@dataclass(frozen=True)
class BodyParams:
    """Mass and inertia data of the top plus the ambient gravity.

    I3 is the moment of inertia about the symmetry axis.  It never enters the
    reduced equations of motion; it is used only when the optional Casimir
    spin energy is added to reported energies.
    """

    M: float = 1.0
    I_perp: float = 1.0
    I3: float = 1.0
    mu: float = 1.0
    g: float = 0.0

    def __post_init__(self) -> None:
        if not (self.M > 0 and self.I_perp > 0 and self.I3 > 0 and self.mu > 0):
            raise ValueError("M, I_perp, I3 and mu must all be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")


@dataclass(frozen=True)
class Multipliers:
    """Lagrange multipliers of an augmented Hamiltonian h - omega J3 + lambda1 C1 + lambda2 C2.

    lambda_ is the derived combination 2 lambda1 - lambda2**2 I_perp that
    appears throughout the stability conditions; use :meth:`from_lambda` to
    keep the three values consistent.
    """

    omega: float
    lambda1: float
    lambda2: float
    lambda_: float

    @staticmethod
    def from_lambda(omega: float, lambda_: float, lambda2: float, I_perp: float) -> "Multipliers":
        """Build from the derived combination, solving for lambda1."""
        return Multipliers(omega, 0.5 * (lambda_ + lambda2 * lambda2 * I_perp), lambda2, lambda_)


def _dot3(a, b):
    """a . b as (a1 b1 + a2 b2) + a3 b3 from the components: floats, or arrays elementwise.

    A BLAS dot sums in the order of the kernel OpenBLAS picks for the CPU; this order is fixed.
    """
    a1, a2, a3 = a
    b1, b2, b3 = b
    return a1 * b1 + a2 * b2 + a3 * b3


def casimirs(s: ReducedState) -> tuple[float, float]:
    """Return (C1, C2) = (nu . nu, nu . pi)."""
    nu = s.nu.tolist()
    return _dot3(nu, nu), _dot3(nu, s.pi.tolist())


def momentum_j3(s: ReducedState) -> float:
    """Axial momentum J3 = pi3 + x1 p2 - x2 p1 conserved by axisymmetry."""
    (x1, x2, _), (p1, p2, _) = s.x.tolist(), s.p.tolist()
    return s.pi.tolist()[2] + x1 * p2 - x2 * p1


def hamiltonian(
    s: ReducedState,
    b: BodyParams,
    V: DipolePotential,
    include_casimir: bool = False,
) -> float:
    """Reduced energy p**2/(2M) + pi**2/(2 I_perp) + V(x, nu).

    The spin term (1/(2 I3) - 1/(2 I_perp)) (nu . pi)**2 is a function of the
    Casimir C2 and therefore generates no motion; it is excluded by default
    and added back only when ``include_casimir`` is set, so that reported
    energies match the full top.
    """
    p, pi = s.p.tolist(), s.pi.tolist()
    h = _dot3(p, p) / (2.0 * b.M) + _dot3(pi, pi) / (2.0 * b.I_perp)
    h += V.value(s.x, s.nu)
    if include_casimir:
        c2 = _dot3(s.nu.tolist(), pi)
        h += (0.5 / b.I3 - 0.5 / b.I_perp) * c2**2
    return h

