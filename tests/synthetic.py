"""Synthetic tilted equilibria with hand-built potential Hessian blocks.

The draws mix a stabilized family (strong positive lambda1, weak couplings,
confining x3 curvature) with a fully random family so the reduced quadratic
form lands on both sides of positive definiteness.  The consistency data
(pi0, p0, C2) match the constraint chart used by the stability module, so
the reduced Hessian is meaningful even though no field model produced the
blocks.
"""

import numpy as np

from orbitron.core import BodyParams
from orbitron.equilibrium import Equilibrium
from orbitron.potential import PotentialHessianBlocks
from test_core import build_multipliers

SEED = 20260825

E3 = np.array([0.0, 0.0, 1.0])


def _sym(a):
    return 0.5 * (a + a.T)


def draw_synthetic_case(rng):
    """One synthetic (equilibrium, body, hessian blocks) triple."""
    M = rng.uniform(0.5, 2.0)
    I = rng.uniform(0.05, 0.5)
    b = BodyParams(M=M, I_perp=I, I3=I * 0.7, mu=1.0, g=0.0)
    r0 = rng.uniform(0.3, 2.0)
    omega = rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0])
    nz = rng.uniform(0.15, 1.0) * rng.choice([-1.0, 1.0])
    nr = np.sqrt(1.0 - nz * nz) * rng.choice([-1.0, 1.0])
    nu0 = np.array([nr, 0.0, nz])
    stabilized = rng.random() < 0.5
    if stabilized:
        lambda1 = rng.uniform(0.5, 3.0)
        lambda2 = rng.normal(0.0, 0.3)
        s = 0.08
        Vxx = _sym(rng.normal(0.0, s, (3, 3)))
        Vxx[2, 2] = rng.uniform(0.1, 1.0)
        VNN = _sym(rng.normal(0.0, s, (2, 2)))
        VxN = rng.normal(0.0, s, (3, 2))
        Vx3 = rng.normal(0.0, s, 3)
        VN3 = rng.normal(0.0, s, 2)
        V33 = rng.normal(0.0, s)
    else:
        lambda1 = rng.normal(0.0, 3.0)
        lambda2 = rng.normal(0.0, 2.0)
        Vxx = _sym(rng.normal(0.0, 2.0, (3, 3)))
        VNN = _sym(rng.normal(0.0, 2.0, (2, 2)))
        VxN = rng.normal(0.0, 2.0, (3, 2))
        Vx3 = rng.normal(0.0, 2.0, 3)
        VN3 = rng.normal(0.0, 2.0, 2)
        V33 = rng.normal(0.0, 2.0)
    mult = build_multipliers(omega, lambda1, lambda2, I)
    pi0 = I * omega * E3 - lambda2 * I * nu0
    eq = Equilibrium(
        r0=r0,
        nu0=nu0,
        pi0=pi0,
        p0=M * omega * r0,
        mult=mult,
        C2=float(nu0 @ pi0),
        sigma=1 if nz >= 0 else -1,
        residual=0.0,
    )
    blocks = PotentialHessianBlocks(Vxx=Vxx, VxN=VxN, Vx3=Vx3, VNN=VNN, VN3=VN3, V33=V33)
    return eq, b, blocks
