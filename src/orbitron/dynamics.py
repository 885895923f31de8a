"""Time integration of the reduced equations of motion.

The reduced bracket gives

    dx/dt  = p / M
    dp/dt  = -grad_x V
    dnu/dt = (1 / I_perp) pi x nu
    dpi/dt = grad_nu V x nu

which conserve h, J3, C1 = nu . nu and C2 = nu . pi exactly; a fixed-step
classical Runge-Kutta scheme conserves them to fourth order.  The projected
variant renormalizes nu after every step, pinning C1 to the unit sphere
while recording how far each raw step drifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BodyParams, ReducedState, _dot3, casimirs, hamiltonian, momentum_j3
from .equilibrium import Equilibrium, build_support_state
from .errors import NonFinite
from .fields import _components, _join
from .potential import DipolePotential

__all__ = [
    "TrajectorySample",
    "IntegratorConfig",
    "eom_rhs",
    "integrate",
    "relative_equilibrium_orbit",
    "distance_to_orbit",
]

SCHEMES = ("rk4", "rk4_projected")


@dataclass(frozen=True)
class TrajectorySample:
    """One recorded point with its invariants recomputed from the state.

    c1_preproj is only set by the projected scheme: it is the value of
    nu . nu produced by the raw step, before renormalization.
    """

    t: float
    state: ReducedState
    h: float
    J3: float
    C1: float
    C2: float
    c1_preproj: float | None = None


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    steps: int
    scheme: str = "rk4"
    record_every: int = 1

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


def _rhs(c: list, b: BodyParams, V: DipolePotential, h=None, k=None) -> list:
    """The 12 components of the right-hand side at the state c, or at the RK4 stage c + h k.

    The components are Python floats for one state and arrays for a stack;
    the outputs are elementwise formulas on them, from one field jet.  A
    stage takes the previous stage's outputs k and forms each of its
    components as a + h * d from those of c and k, so no stage state is built.
    """
    x1, x2, x3, p1, p2, p3, n1, n2, n3, q1, q2, q3 = c
    if k is not None:
        dx1, dx2, dx3, dp1, dp2, dp3, dn1, dn2, dn3, dq1, dq2, dq3 = k
        x1, x2, x3 = x1 + h * dx1, x2 + h * dx2, x3 + h * dx3
        p1, p2, p3 = p1 + h * dp1, p2 + h * dp2, p3 + h * dp3
        n1, n2, n3 = n1 + h * dn1, n2 + h * dn2, n3 + h * dn3
        q1, q2, q3 = q1 + h * dq1, q2 + h * dq2, q3 + h * dq3
    g1, g2, g3, f1, f2, f3 = V.gradient_terms(x1, x2, x3, n1, n2, n3)
    M, I = b.M, b.I_perp
    return [
        p1 / M, p2 / M, p3 / M,
        -g1, -g2, -g3,
        (q2 * n3 - q3 * n2) / I, (q3 * n1 - q1 * n3) / I, (q1 * n2 - q2 * n1) / I,
        f2 * n3 - f3 * n2, f3 * n1 - f1 * n3, f1 * n2 - f2 * n1,
    ]


def _rk4_combination(c, h6, k1, k2, k3, k4) -> list:
    """The RK4 update c + h6 (k1 + 2 k2 + 2 k3 + k4), component by component, in that association."""
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = c
    p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12 = k1
    q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12 = k2
    r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12 = k3
    s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12 = k4
    return [
        a1 + h6 * (p1 + 2.0 * q1 + 2.0 * r1 + s1), a2 + h6 * (p2 + 2.0 * q2 + 2.0 * r2 + s2),
        a3 + h6 * (p3 + 2.0 * q3 + 2.0 * r3 + s3), a4 + h6 * (p4 + 2.0 * q4 + 2.0 * r4 + s4),
        a5 + h6 * (p5 + 2.0 * q5 + 2.0 * r5 + s5), a6 + h6 * (p6 + 2.0 * q6 + 2.0 * r6 + s6),
        a7 + h6 * (p7 + 2.0 * q7 + 2.0 * r7 + s7), a8 + h6 * (p8 + 2.0 * q8 + 2.0 * r8 + s8),
        a9 + h6 * (p9 + 2.0 * q9 + 2.0 * r9 + s9), a10 + h6 * (p10 + 2.0 * q10 + 2.0 * r10 + s10),
        a11 + h6 * (p11 + 2.0 * q11 + 2.0 * r11 + s11), a12 + h6 * (p12 + 2.0 * q12 + 2.0 * r12 + s12),
    ]


def eom_rhs(y: np.ndarray, b: BodyParams, V: DipolePotential) -> np.ndarray:
    """Right-hand side of the reduced equations at states y of shape (..., 12).

    A state is laid out as :meth:`ReducedState.as_vector`, (x, p, nu, pi);
    a single state is the (12,) case, and a stack of K states costs one
    field jet.  This is the ndarray view of :func:`_rhs`.
    """
    return _join(_rhs(_components(y), b, V))


def _project(c: list) -> float:
    """Scale the nu components of the state c to unit length in place; return nu . nu from before.

    A nu . nu that is 0 or not finite, where it underflowed or overflowed,
    leaves nu NaN, so the state is reported non-finite.
    """
    n1, n2, n3 = nu = c[6:9]
    c1 = _dot3(nu, nu)
    n = math.sqrt(c1) if 0.0 < c1 < math.inf else math.nan
    c[6], c[7], c[8] = n1 / n, n2 / n, n3 / n
    return c1


@np.errstate(all="ignore")
def integrate(
    s0: ReducedState,
    cfg: IntegratorConfig,
    b: BodyParams,
    V: DipolePotential,
    include_casimir: bool = False,
) -> list[TrajectorySample]:
    """Integrate from s0 and return the recorded samples.

    Samples are taken at step 0, every ``record_every`` steps, and at the
    final step.  Invariants in each sample are recomputed from the sampled
    state; ``include_casimir`` only affects the reported energy.  Raises
    NonFinite, naming the step, as soon as a step produces a NaN or
    infinity in the state or a recorded sample has a non-finite state, h,
    J3, C1 or C2, step 0 included.
    """
    projected = cfg.scheme == "rk4_projected"
    # The state is carried as its 12 components between stages; an ndarray
    # is built only for a recorded sample.
    c = s0.as_vector().tolist()
    if projected:
        _project(c)

    samples: list[TrajectorySample] = []

    def record(i: int, c1_preproj: float | None) -> None:
        s = ReducedState.from_vector(np.array(c))
        c1, c2 = casimirs(s)
        sample = TrajectorySample(
            t=i * cfg.dt,
            state=s,
            h=hamiltonian(s, b, V, include_casimir),
            J3=momentum_j3(s),
            C1=c1,
            C2=c2,
            c1_preproj=c1_preproj,
        )
        if not all(map(math.isfinite, [*c, sample.h, sample.J3, c1, c2])):
            raise NonFinite(f"non-finite sample at step {i}")
        samples.append(sample)

    record(0, None)
    dt = float(cfg.dt)
    h2, h6 = 0.5 * dt, dt / 6.0
    for i in range(1, cfg.steps + 1):
        k1 = _rhs(c, b, V)
        k2 = _rhs(c, b, V, h2, k1)
        k3 = _rhs(c, b, V, h2, k2)
        k4 = _rhs(c, b, V, dt, k3)
        c = _rk4_combination(c, h6, k1, k2, k3, k4)
        c1_preproj = _project(c) if projected else None
        if not all(map(math.isfinite, c)):
            raise NonFinite(f"non-finite state component at step {i}")
        if i % cfg.record_every == 0 or i == cfg.steps:
            record(i, c1_preproj)
    return samples


def relative_equilibrium_orbit(eq: Equilibrium, t: float) -> ReducedState:
    """The exact rigidly rotating solution through the support state."""
    c, s = math.cos(eq.mult.omega * t), math.sin(eq.mult.omega * t)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    s0 = build_support_state(eq)
    return ReducedState(x=R @ s0.x, p=R @ s0.p, nu=R @ s0.nu, pi=R @ s0.pi)


def distance_to_orbit(s: ReducedState, eq: Equilibrium) -> float:
    """Blockwise relative distance from s to the equilibrium circle.

    The four blocks (x, p, nu, pi) are compared in the Euclidean norm, each
    scaled by the corresponding block norm of the reference state (with a
    floor of 1), and the root mean square over blocks is minimized over the
    rotation phase.  As a function of the phase phi the squared distance is
    K - 2 (P cos phi + Q sin phi), so its minimum K - 2 sqrt(P^2 + Q^2) is
    taken in closed form.
    """
    ref = [(float(eq.r0), 0.0, 0.0), (0.0, float(eq.p0), 0.0), eq.nu0.tolist(), eq.pi0.tolist()]
    K = 0.0
    P = 0.0
    Q = 0.0
    for u, v in zip((s.x.tolist(), s.p.tolist(), s.nu.tolist(), s.pi.tolist()), ref):
        vv = _dot3(v, v)
        scale = max(math.sqrt(vv), 1.0)
        w = 1.0 / (scale * scale)
        (u1, u2, u3), (v1, v2, v3) = u, v
        K += w * (_dot3(u, u) + vv - 2.0 * u3 * v3)
        P += w * (u1 * v1 + u2 * v2)
        Q += w * (u2 * v1 - u1 * v2)
    best = K - 2.0 * math.hypot(P, Q)
    return math.sqrt(max(best, 0.0) / 4.0)
