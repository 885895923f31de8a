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
from .fields import AxiFieldModel, FieldJet, _components, _field_components, _jet_terms, _join, eval_jet

__all__ = [
    "PotentialHessianBlocks",
    "DipolePotential",
    "hessian_blocks",
    "BASIS_EPS",
]

# Planar axis components smaller than this are treated as exactly axial and
# the rotated basis degenerates to the identity.
BASIS_EPS = 1e-12


def _radius(x1, x2):
    """r = |x_perp| from its in-plane components, floats or arrays.

    A float radius is abs(complex(x1, x2)): libm's hypot, which np.hypot
    calls per element, on finite parts and C99 on inf and NaN parts, so it
    equals the array element bit for bit.  abs raises OverflowError where
    hypot overflows, and the radius is then inf.
    """
    if not isinstance(x1, float):
        return np.hypot(x1, x2)
    try:
        return abs(complex(x1, x2))
    except OverflowError:
        return math.inf


def _where(cond, a, b):
    """np.where(cond, a, b), but a scalar cond picks a or b itself, so floats stay floats."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


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


class DipolePotential:
    """V(x, nu) = -mu <nu, B(x)> + M g x3 for a given field model.

    The methods take points x and axes nu of shape (..., 3), or their
    components in :meth:`gradient_terms`, and evaluate one field jet per
    call.  They work on the components: Python floats for one point, arrays
    for a stack, so a stacked call equals the single calls bit for bit.
    """

    def __init__(self, model: AxiFieldModel, b: BodyParams):
        self.model = model
        self.b = b
        # read once here, not per call: b is frozen
        self._mu, self._Mg = b.mu, b.M * b.g

    def _field(self, x1, x2, x3) -> tuple:
        """The Cartesian components of B at x, from the first two jet terms at (r, x3) with r = |x_perp|."""
        r = _radius(x1, x2)
        return _field_components(_jet_terms(self.model, r, x3, 2), x1, x2, r)

    def value(self, x: np.ndarray, nu: np.ndarray) -> float | np.ndarray:
        x1, x2, x3 = _components(x)
        B1, B2, B3 = self._field(x1, x2, x3)
        nu1, nu2, nu3 = _components(nu)
        return -self._mu * (nu1 * B1 + nu2 * B2 + nu3 * B3) + self._Mg * x3

    def gradient_terms(self, x1, x2, x3, nu1, nu2, nu3) -> tuple:
        """The components of grad_x V and grad_nu V = -mu B, from the first five terms of one field jet.

        grad_x V = -mu J nu + M g e3, with the field Jacobian J contracted in
        closed form: with f = Br / r, e = x_perp / r and d = e . nu_perp,
        J nu = (f nu_perp + e ((Br_r - f) d + Br_z nu3), Bz_r d + Bz_z nu3),
        where Br_z is the jet's Bz_r.
        Raises AxisDegeneracy if any point has r = 0, where e is undefined.
        """
        r = _radius(x1, x2)
        Br, Bz, Br_r, Bz_r, Bz_z = _jet_terms(self.model, r, x3, 5)
        on_axis = r == 0.0
        if on_axis is not False and np.any(on_axis):
            raise AxisDegeneracy("the potential gradient is evaluated off axis only")
        mu = self._mu
        f, e1, e2 = Br / r, x1 / r, x2 / r
        d = e1 * nu1 + e2 * nu2
        w = (Br_r - f) * d + Bz_r * nu3
        g3 = -mu * (Bz_r * d + Bz_z * nu3) + self._Mg
        # grad_nu V = -mu B, with B as _field_components gives it off the axis
        B1, B2 = Br * x1 / r, Br * x2 / r
        return -mu * (f * nu1 + e1 * w), -mu * (f * nu2 + e2 * w), g3, -mu * B1, -mu * B2, -mu * Bz

    def grad_x(self, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """-mu J nu + M g e3: the first three of :meth:`gradient_terms`."""
        return _join(self.gradient_terms(*_components(x), *_components(nu))[:3])

    def grad_nu(self, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """-mu B, also on the axis."""
        return _join([-self._mu * B for B in self._field(*_components(x))])


def _planar_direction(nx, ny):
    """(c, s) of the rotated basis E1 = (c, s), E2 = e3 x E1 = (-s, c), elementwise.

    E1 = (nx, ny) / |(nx, ny)|, or (1, 0) when |(nx, ny)| <= BASIS_EPS, which
    covers equatorial equilibria where the axis is parallel to e3.
    """
    n = _radius(nx, ny)
    planar = n > BASIS_EPS
    n = _where(planar, n, 1.0)
    return _where(planar, nx / n, 1.0), _where(planar, ny / n, 0.0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _support_blocks(jet: FieldJet, r0, nu, mu: float) -> PotentialHessianBlocks:
    """Closed-form Hessian blocks at the support point (r0, 0, 0), inf or nan where they overflow.

    ``jet`` is the jet at (r0, 0) and nu = (nu_x, nu_y, nu_z).  They are
    floats, or arrays of K cells, and the block arrays then end in a cell
    axis.  There the field Jacobian is [[Br_r, 0, Br_z], [0, Br / r0, 0],
    [Bz_r, 0, Bz_z]], and Vxx = -mu sum_k nu_k H[k], with H[k] the Cartesian
    Hessian d^2 B_k / dx dx of the field, is linear in nu.
    """
    nx, ny, nz = nu
    c, s = _planar_direction(nx, ny)
    br_over_r, bzr_over_r = jet.Br / r0, jet.Bz_r / r0
    T = (jet.Bz_z + 2.0 * br_over_r) / r0
    v11 = nx * (T - jet.Bz_rz) + nz * jet.Bz_rr
    v13 = nx * jet.Bz_rr + nz * jet.Bz_rz
    v33 = nx * jet.Bz_rz + nz * jet.Bz_zz
    Vxx = -mu * np.array(
        [
            [v11, -ny * T, v13],
            [-ny * T, nz * bzr_over_r - nx * T, ny * bzr_over_r],
            [v13, ny * bzr_over_r, v33],
        ]
    )
    # d^2 V / dx_i dnu_k = -mu J[i, k], with the planar nu columns turned
    # into the rotated basis E1 = (c, s), E2 = (-s, c).
    VxN = -mu * np.array(
        [
            [jet.Br_r * c, -jet.Br_r * s],
            [br_over_r * s, br_over_r * c],
            [jet.Bz_r * c, -jet.Bz_r * s],
        ]
    )
    Vx3 = -mu * np.array([jet.Br_z, np.zeros_like(jet.Br_z), jet.Bz_z])
    # V is linear in nu, so the pure axis blocks are identically zero.
    shape = np.shape(r0)
    VNN, VN3 = np.zeros((2, 2) + shape), np.zeros((2,) + shape)
    V33 = np.zeros(shape) if shape else 0.0
    return PotentialHessianBlocks(Vxx, VxN, Vx3, VNN, VN3, V33)


def hessian_blocks(
    r0: float,
    nu0: np.ndarray,
    model: AxiFieldModel,
    b: BodyParams,
) -> PotentialHessianBlocks:
    """Second derivatives of the dipole potential at the support point (r0, 0, 0).

    ``r0 > 0`` is the support radius and ``nu0`` the unit axis direction
    there.  The field's Jacobian and Hessian have few non-zero entries
    there, so the blocks are closed forms in the jet at (r0, 0).  For this
    potential the pure nu blocks vanish (V is linear in nu), but they are
    carried explicitly so downstream code is written against the general
    shape.
    """
    nu0 = np.asarray(nu0, dtype=float)
    if nu0.shape != (3,):
        raise ValueError("nu0 must be a 3-vector")
    r0 = float(r0)
    if r0 <= 0.0:
        raise AxisDegeneracy("support point must lie off the symmetry axis")
    return _support_blocks(eval_jet(model, r0, 0.0), r0, nu0.tolist(), b.mu)
