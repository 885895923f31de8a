"""Magnetic-plus-gravity potential and its Hessian blocks in the rotated basis.

The potential of a dipole of moment mu nu in a field B with uniform gravity is

    V(x, nu) = -mu <nu, B(x)> + M g x3.

Stability analysis at a support point x0 = (r0, 0, 0) uses second derivatives
of V organized in a basis adapted to the equilibrium axis direction nu0: the
in-plane directions E1 (along the planar part of nu0) and E2 = e3 x E1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BodyParams
from .errors import AxisDegeneracy
from .fields import (
    AxiFieldModel,
    cartesian_field,
    cartesian_hessian,
    cartesian_jacobian,
    eval_jet,
)

__all__ = [
    "RotatedBasis",
    "PotentialHessianBlocks",
    "DipolePotential",
    "make_rotated_basis",
    "hessian_blocks",
    "BASIS_EPS",
]

# Planar axis components smaller than this are treated as exactly axial and
# the rotated basis degenerates to the identity.
BASIS_EPS = 1e-12


@dataclass(frozen=True)
class RotatedBasis:
    """In-plane orthonormal pair adapted to the planar part of nu0.

    E1 points along nu0_perp (identity basis when nu0_perp vanishes) and
    E2 = e3 x E1.  ``alpha`` holds E1 and E2 as columns, so it maps rotated
    components to Cartesian in-plane components.
    """

    E1: np.ndarray
    E2: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class PotentialHessianBlocks:
    """Second derivatives of V at (x0, nu0) grouped by variable pair.

    Vxx is d^2V/dx dx; VxN and Vx3 are the mixed blocks against the rotated
    planar directions (E1, E2) and against nu3; VNN, VN3, V33 are the pure
    axis-direction blocks in the same decomposition.
    """

    Vxx: np.ndarray
    VxN: np.ndarray
    Vx3: np.ndarray
    VNN: np.ndarray
    VN3: np.ndarray
    V33: float
    basis: RotatedBasis


class DipolePotential:
    """V(x, nu) = -mu <nu, B(x)> + M g x3 for a given field model."""

    def __init__(self, model: AxiFieldModel, b: BodyParams):
        self.model = model
        self.b = b

    def field(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        jet = eval_jet(self.model, math.hypot(x[0], x[1]), float(x[2]))
        return cartesian_field(jet, x)

    def value(self, x: np.ndarray, nu: np.ndarray) -> float:
        nu = np.asarray(nu, dtype=float)
        return float(-self.b.mu * (nu @ self.field(x)) + self.b.M * self.b.g * x[2])

    def grad_x(self, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        nu = np.asarray(nu, dtype=float)
        jet = eval_jet(self.model, math.hypot(x[0], x[1]), float(x[2]))
        J = cartesian_jacobian(jet, x)
        g = -self.b.mu * (J @ nu)
        g[2] += self.b.M * self.b.g
        return g

    def grad_nu(self, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
        return -self.b.mu * self.field(x)


def make_rotated_basis(nu0_perp: np.ndarray) -> RotatedBasis:
    """Basis (E1, E2) with E1 along nu0_perp and E2 = e3 x E1.

    Falls back to the identity basis when |nu0_perp| <= BASIS_EPS, which
    covers equatorial equilibria where the axis is parallel to e3.
    """
    v = np.asarray(nu0_perp, dtype=float)
    if v.shape == (3,):
        v = v[:2]
    if v.shape != (2,):
        raise ValueError("nu0_perp must be a 2-vector (or a 3-vector with z dropped)")
    n = math.hypot(v[0], v[1])
    if n > BASIS_EPS:
        e1 = v / n
    else:
        e1 = np.array([1.0, 0.0])
    e2 = np.array([-e1[1], e1[0]])
    alpha = np.column_stack([e1, e2])
    return RotatedBasis(E1=e1, E2=e2, alpha=alpha)


def hessian_blocks(
    x0: np.ndarray,
    nu0: np.ndarray,
    model: AxiFieldModel,
    b: BodyParams,
) -> PotentialHessianBlocks:
    """Second derivatives of the dipole potential at a support point.

    ``x0`` must have the support form (r0, 0, 0) with r0 > 0; ``nu0`` is the
    unit axis direction there.  For this potential the pure nu blocks vanish
    (V is linear in nu), but they are carried explicitly so downstream code
    is written against the general shape.
    """
    x0 = np.asarray(x0, dtype=float)
    nu0 = np.asarray(nu0, dtype=float)
    if x0.shape != (3,) or nu0.shape != (3,):
        raise ValueError("x0 and nu0 must be 3-vectors")
    if x0[1] != 0.0 or x0[2] != 0.0:
        raise ValueError("x0 must have the support form (r0, 0, 0)")
    r0 = float(x0[0])
    if r0 <= 0.0:
        raise AxisDegeneracy("support point must lie off the symmetry axis")

    jet = eval_jet(model, r0, 0.0)
    J = cartesian_jacobian(jet, x0)
    H = cartesian_hessian(jet, x0)
    basis = make_rotated_basis(nu0[:2])

    # Vxx[i, j] = -mu sum_k nu0_k H[k, i, j]; gravity is linear and drops out.
    Vxx = -b.mu * np.einsum("k,kij->ij", nu0, H)

    # Mixed block d^2 V / dx_i dnu_k = -mu J[k, i] (J is symmetric).
    mixed = -b.mu * J
    VxN = mixed[:, :2] @ basis.alpha
    Vx3 = mixed[:, 2].copy()

    # V is linear in nu, so the pure axis blocks are identically zero.
    VNN = np.zeros((2, 2))
    VN3 = np.zeros(2)
    V33 = 0.0

    return PotentialHessianBlocks(Vxx=Vxx, VxN=VxN, Vx3=Vx3, VNN=VNN, VN3=VN3, V33=V33, basis=basis)
