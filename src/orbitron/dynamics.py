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

from .core import BodyParams, Potential, ReducedState, casimirs, hamiltonian, momentum_j3
from .equilibrium import Equilibrium, build_support_state
from .errors import NonFinite
from .fields import _components, _join

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


def eom_rhs(y: np.ndarray, b: BodyParams, V: Potential) -> np.ndarray:
    """Right-hand side of the reduced equations at states y of shape (..., 12).

    A state is laid out as :meth:`ReducedState.as_vector`, (x, p, nu, pi);
    a single state is the (12,) case, and a stack of K states costs one
    field jet.  Its outputs are elementwise formulas on the components.
    """
    x1, x2, x3, p1, p2, p3, n1, n2, n3, q1, q2, q3 = _components(y)
    g1, g2, g3, f1, f2, f3 = V.gradient_terms(x1, x2, x3, n1, n2, n3)
    M, I = b.M, b.I_perp
    return _join(
        [p1 / M, p2 / M, p3 / M, -g1, -g2, -g3]
        + [(q2 * n3 - q3 * n2) / I, (q3 * n1 - q1 * n3) / I, (q1 * n2 - q2 * n1) / I]
        + [f2 * n3 - f3 * n2, f3 * n1 - f1 * n3, f1 * n2 - f2 * n1]
    )


def integrate(
    s0: ReducedState,
    cfg: IntegratorConfig,
    b: BodyParams,
    V: Potential,
    include_casimir: bool = False,
) -> list[TrajectorySample]:
    """Integrate from s0 and return the recorded samples.

    Samples are taken at step 0, every ``record_every`` steps, and at the
    final step.  Invariants in each sample are recomputed from the sampled
    state; ``include_casimir`` only affects the reported energy.  Raises
    NonFinite as soon as a step produces a NaN or infinity.
    """
    projected = cfg.scheme == "rk4_projected"
    y = s0.as_vector()
    if projected:
        y[6:9] /= np.linalg.norm(y[6:9])

    samples: list[TrajectorySample] = []

    def record(i: int, c1_preproj: float | None) -> None:
        s = ReducedState.from_vector(y)
        c1, c2 = casimirs(s)
        samples.append(
            TrajectorySample(
                t=i * cfg.dt,
                state=s,
                h=hamiltonian(s, b, V, include_casimir),
                J3=momentum_j3(s),
                C1=c1,
                C2=c2,
                c1_preproj=c1_preproj,
            )
        )

    record(0, None)
    dt = cfg.dt
    for i in range(1, cfg.steps + 1):
        k1 = eom_rhs(y, b, V)
        k2 = eom_rhs(y + 0.5 * dt * k1, b, V)
        k3 = eom_rhs(y + 0.5 * dt * k2, b, V)
        k4 = eom_rhs(y + dt * k3, b, V)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NonFinite(f"non-finite state component at step {i}")
        c1_preproj = None
        if projected:
            c1_preproj = float(y[6:9] @ y[6:9])
            y[6:9] /= math.sqrt(c1_preproj)
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
    s0 = build_support_state(eq)
    ref = [s0.x, s0.p, s0.nu, s0.pi]
    scales = [max(float(np.linalg.norm(v)), 1.0) for v in ref]
    cur = [s.x, s.p, s.nu, s.pi]
    K = 0.0
    P = 0.0
    Q = 0.0
    for u, v, scale in zip(cur, ref, scales):
        w = 1.0 / (scale * scale)
        K += w * (float(u @ u) + float(v @ v) - 2.0 * u[2] * v[2])
        P += w * (u[0] * v[0] + u[1] * v[1])
        Q += w * (u[1] * v[0] - u[0] * v[1])
    best = K - 2.0 * math.hypot(P, Q)
    return math.sqrt(max(best, 0.0) / 4.0)
