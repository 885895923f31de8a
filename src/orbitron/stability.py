"""Stability certificates for relative equilibria.

The second variation of the augmented Hamiltonian, restricted to the
invariant-preserving variations, is an 8 x 8 quadratic form Q in the order

    (dp3, dp1, dPi2, dPi1', dN2, dN1, dx1, dx3)

where dN_A and dPi_A are axis and spin variations in the rotated in-plane
basis (E1, E2) and dPi1' absorbs the part of dPi1 forced by dN1.  Positive
definiteness of Q certifies Lyapunov stability of the orbit.  Three routes
are implemented: successive elimination of isolated squares, the equivalent
closed-form conditions (a lambda condition, an axis-block condition, and a
2 x 2 positional block reported as A, B, C), and an eigenvalue oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import BodyParams, Multipliers
from .equilibrium import Equilibrium
from .errors import NotEquatorial, PolarDegeneracy, ZeroPivot
from .fields import AxiFieldModel, eval_jet
from .potential import PotentialHessianBlocks, _support_blocks, make_rotated_basis

__all__ = [
    "ReducedQuadraticForm",
    "EliminationResult",
    "StabilityCertificate",
    "EigenCertificate",
    "VARIATION_LABELS",
    "variation_constraints",
    "reduced_hessian",
    "isolated_squares_reduce",
    "closed_form_conditions",
    "orbitron_conditions",
    "levitation_conditions",
    "eigen_certificate",
]

VARIATION_LABELS = ("dp3", "dp1", "dPi2", "dPi1p", "dN2", "dN1", "dx1", "dx3")

# |nu_z| below this means the axis lies in the orbital plane and the
# variation chart (which divides by nu_z) degenerates.
POLAR_EPS = 1e-12

# Pivots within 1e-14 |Q| of zero are numerically meaningless.
ZERO_PIVOT_REL = 1e-14

# Verdicts whose margin is within this band of zero are reported as
# "marginal" rather than "stable" or "not_certified".
MARGIN_BAND = 1e-10

# Index arrays of the strict lower triangle of the 8 x 8 reduced form.
_LOWER = np.tril_indices(8, -1)

# Closed-form conditions by failure code; code 0 means all of them hold.
FAILED_CONDITIONS = (None, "nu2_block", "nu1_block", "A", "C", "det")

# The same codes as levitation_conditions names them: there the first
# condition is lambda itself, as the pure axis blocks vanish.
LEVITATION_CONDITIONS = (None, "lambda") + FAILED_CONDITIONS[2:]

# StabilityCertificate fields that hold one value per certified cell.
CERTIFICATE_FIELDS = (
    "verdict", "margin", "lambda_ok", "A", "B", "C", "abc_ok", "pivots", "failed_condition"
)


@dataclass(frozen=True)
class ReducedQuadraticForm:
    """The 8 x 8 reduced second variation and its variable labels."""

    Q: np.ndarray
    labels: tuple = VARIATION_LABELS


@dataclass(frozen=True)
class EliminationResult:
    """Outcome of successive elimination of isolated squares.

    pivots holds one pivot per eliminated variable in elimination order;
    on failure the last entry is the offending non-positive pivot and
    failed_index is its position in ``order``.  x_block is the remaining
    2 x 2 block just before the final two eliminations (the (A, B; B, C)
    block when the canonical order is used).
    """

    pivots: tuple
    completed: bool
    failed_index: int | None
    order: tuple
    x_block: np.ndarray | None
    x_indices: tuple | None


@dataclass(frozen=True)
class StabilityCertificate:
    """Result of a closed-form stability test.

    margin is the smallest normalized condition value: positive and outside
    the marginal band for a certified equilibrium, negative when some
    condition fails.  failed_condition names the first violated condition.
    """

    verdict: str
    margin: float
    lambda_ok: bool
    A: float
    B: float
    C: float
    abc_ok: bool
    pivots: tuple
    failed_condition: str | None
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "verdict": self.verdict,
            "margin": self.margin,
            "lambda_ok": self.lambda_ok,
            "A": self.A,
            "B": self.B,
            "C": self.C,
            "pivots": [float(p) for p in self.pivots],
            "failed_condition": self.failed_condition,
        }


@dataclass(frozen=True)
class EigenCertificate:
    """Spectrum-based verdict on the reduced quadratic form."""

    verdict: str
    lambda_min: float
    margin: float
    eigenvalues: tuple


def _classify(margin: float) -> str:
    if abs(margin) < MARGIN_BAND:
        return "marginal"
    return "stable" if margin > 0.0 else "not_certified"


def _nu_split(eq: Equilibrium) -> tuple[float, float]:
    """(|nu_perp|, nu_z) of the equilibrium axis, guarding the polar case."""
    nperp = math.hypot(eq.nu0[0], eq.nu0[1])
    nz = float(eq.nu0[2])
    if abs(nz) < POLAR_EPS:
        raise PolarDegeneracy("equilibrium axis lies in the orbital plane")
    return nperp, nz


def variation_constraints(eq: Equilibrium, b: BodyParams) -> np.ndarray:
    """Map T from the 8 free variations to the 12 state variations.

    Columns follow VARIATION_LABELS; rows are (x, p, nu, pi) stacked.  The
    map is built so that the first variations of C1, C2 and J3 all vanish:
    dnu3, dpi3, dp2 and dx2 are slaved to the free variations, and dPi1
    carries the extra (I_perp omega / nu_z) dN1 piece.
    """
    nperp, nz = _nu_split(eq)
    basis = make_rotated_basis(eq.nu0[:2])
    E1 = np.array([basis.E1[0], basis.E1[1], 0.0])
    E2 = np.array([basis.E2[0], basis.E2[1], 0.0])
    m_omega = eq.p0 / eq.r0  # M omega without needing b.M separately
    i_omega = b.I_perp * eq.mult.omega

    T = np.zeros((12, 8))
    # dp3 and dp1 are free momenta.
    T[5, 0] = 1.0
    T[3, 1] = 1.0
    # dPi2: spin variation along E2.
    T[9:12, 2] += E2
    # dPi1': spin variation along E1 plus its forced pi3 and p2 parts.
    T[9:12, 3] += E1
    T[11, 3] += -nperp / nz
    T[4, 3] += nperp / (eq.r0 * nz)
    # dN2: axis variation along E2.
    T[6:9, 4] += E2
    # dN1: axis variation along E1, its forced nu3 part, and the dPi1 share.
    T[6:9, 5] += E1
    T[8, 5] += -nperp / nz
    T[9:12, 5] += (i_omega / nz) * E1
    # dx1 drags p2 to keep J3 fixed.
    T[0, 6] = 1.0
    T[4, 6] = -m_omega
    # dx3 is free.
    T[2, 7] = 1.0
    return T


class _Cells(NamedTuple):
    """Support states for the certificate core: one, or K stacked ones.

    For one state the fields are floats and the blocks of
    :func:`hessian_blocks`.  For K states nperp, nz, r0, p0 and the fields
    of ``mult`` are arrays of shape (K,), and the arrays of ``blocks``
    carry a trailing cell axis.  The formulas index blocks as ``[i, j]``
    and square by multiplication, so a cell gets the same numbers in
    either form.
    """

    nperp: float | np.ndarray
    nz: float | np.ndarray
    mult: Multipliers
    r0: float | np.ndarray
    p0: float | np.ndarray
    blocks: PotentialHessianBlocks


def _reduced_forms(b: BodyParams, cells: _Cells) -> np.ndarray:
    """Reduced forms Q of the cells, of shape (8, 8) or (8, 8, K)."""
    nperp, nz, r0 = cells.nperp, cells.nz, cells.r0
    M, I = b.M, b.I_perp
    om, l1, l2 = cells.mult.omega, cells.mult.lambda1, cells.mult.lambda2
    Vxx, VxN, Vx3 = cells.blocks.Vxx, cells.blocks.VxN, cells.blocks.Vx3
    VNN, VN3, V33 = cells.blocks.VNN, cells.blocks.VN3, cells.blocks.V33
    tilt = nperp / nz

    Q = np.zeros((8, 8) + np.shape(r0))
    Q[0, 0] = 1.0 / M
    Q[1, 1] = 1.0 / M
    Q[2, 2] = 1.0 / I
    Q[2, 4] = l2
    Q[3, 3] = (nperp * nperp) / (M * (r0 * r0) * (nz * nz)) + 1.0 / (I * (nz * nz))
    Q[3, 5] = om / nz + l2 / (nz * nz)
    Q[3, 6] = -2.0 * om * nperp / (r0 * nz)
    Q[4, 4] = 2.0 * l1 + VNN[1, 1]
    Q[4, 5] = VNN[0, 1] - tilt * VN3[1]
    Q[4, 6] = VxN[0, 1]
    Q[4, 7] = VxN[2, 1]
    Q[5, 5] = (
        I * (om * om) / (nz * nz)
        + 2.0 * l2 * I * om / nz
        + 2.0 * l1 / (nz * nz)
        + VNN[0, 0]
        - 2.0 * tilt * VN3[0]
        + ((nperp * nperp) / (nz * nz)) * V33
    )
    Q[5, 6] = VxN[0, 0] - tilt * Vx3[0]
    Q[5, 7] = VxN[2, 0] - tilt * Vx3[2]
    Q[6, 6] = 3.0 * M * (om * om) + Vxx[0, 0]
    Q[6, 7] = Vxx[0, 2]
    Q[7, 7] = Vxx[2, 2]
    Q[_LOWER] = Q[_LOWER[::-1]]
    return Q


class _Sweep(NamedTuple):
    """Isolated-squares elimination of K stacked forms.

    pivots[k, i] is the pivot of step i in cell k, NaN past the last step
    taken; stop[k] is that last step.  A cell is ``completed`` when every
    pivot was positive; otherwise its last pivot is the first non-positive
    one, and ``zero`` flags the cells where it was zero to working
    precision.  x_block holds the trailing 2 x 2 block just before the last
    two eliminations, NaN where the sweep stopped earlier.
    """

    pivots: np.ndarray
    stop: np.ndarray
    completed: np.ndarray
    zero: np.ndarray
    qnorm: np.ndarray
    x_block: np.ndarray


def _eliminate(S: np.ndarray) -> _Sweep:
    """Eliminate the variables of K stacked forms (n, n, K) in index order.

    Every step is one vectorized Schur-complement update, done in place on
    S.  All cells run all n steps; what follows a cell's first
    non-positive pivot is then discarded, since the sweep stops there.
    """
    n, _, K = S.shape
    qnorm = np.sqrt(np.einsum("ijk,ijk->k", S, S))
    pivots = np.empty((n, K))
    x_block = np.full((2, 2, K), np.nan)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(n):
            if k == n - 2:
                x_block[:] = S[k:, k:]
            pivots[k] = S[k, k]
            col = S[k + 1 :, k]
            outer = col[:, None] * col[None, :]
            outer /= pivots[k]
            S[k + 1 :, k + 1 :] -= outer
            del outer  # so that no two steps' products are alive at once
        small = np.abs(pivots) < ZERO_PIVOT_REL * np.maximum(qnorm, 1e-300)
        ended = small | (pivots <= 0.0)
    completed = ~ended.any(axis=0)
    stop = np.where(completed, n - 1, ended.argmax(axis=0))
    pivots[np.arange(n)[:, None] > stop] = np.nan
    x_block[..., stop < n - 2] = np.nan
    zero = ~completed & small[stop, np.arange(K)]
    return _Sweep(pivots.T, stop, completed, zero, qnorm, np.moveaxis(x_block, -1, 0))


def _zero_pivot(piv: float, idx: int) -> ZeroPivot:
    return ZeroPivot(f"pivot {piv:g} for variable {idx} is zero to working precision")


def isolated_squares_reduce(Q: np.ndarray, order: tuple | None = None) -> EliminationResult:
    """Successively eliminate isolated squares from a symmetric form.

    Writing Q = A x_k^2 + 2 x_k B(rest) + Q'(rest), a positive pivot A lets
    x_k be completed to a square, leaving the Schur complement
    Q' - B B^T / A; Q is positive definite iff every pivot is positive.
    The elimination order is immaterial for the verdict and defaults to the
    canonical variable order.  A pivot smaller in magnitude than
    1e-14 |Q| raises ZeroPivot; a non-positive pivot stops the sweep with
    ``completed`` False.
    """
    S = np.array(Q, dtype=float, copy=True)
    n = S.shape[0]
    if S.shape != (n, n) or not np.allclose(S, S.T, atol=1e-12 * max(1.0, np.abs(S).max())):
        raise ValueError("expected a symmetric square matrix")
    if order is None:
        order = tuple(range(n))
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all variable indices")
    sweep = _eliminate(S[np.ix_(order, order)][:, :, None])
    last = int(sweep.stop[0])
    pivots = tuple(float(p) for p in sweep.pivots[0, : last + 1])
    if sweep.zero[0]:
        raise _zero_pivot(pivots[-1], order[last])
    x_block = x_indices = None
    if n >= 2 and last >= n - 2:
        # The trailing block in ascending variable order.
        flip = slice(None, None, -1) if order[-2] > order[-1] else slice(None)
        x_block = sweep.x_block[0][flip, flip].copy()
        x_indices = tuple(sorted(order[-2:]))
    completed = bool(sweep.completed[0])
    return EliminationResult(
        pivots=pivots,
        completed=completed,
        failed_index=None if completed else last,
        order=order,
        x_block=x_block,
        x_indices=x_indices,
    )


def _closed_form(b: BodyParams, cells: _Cells) -> tuple:
    """(den1, cond2, A, B, C, failed) of the cells.

    failed indexes FAILED_CONDITIONS.  A, B, C are NaN where either
    denominator is non-positive.  cond2 is left as computed where
    den1 <= 0, where it carries no condition; :func:`_certify` masks it.
    """
    nperp, nz, r0, p0 = cells.nperp, cells.nz, cells.r0, cells.p0
    M, I = b.M, b.I_perp
    om, l2, lam = cells.mult.omega, cells.mult.lambda2, cells.mult.lambda_
    Vxx, VxN, Vx3 = cells.blocks.Vxx, cells.blocks.VxN, cells.blocks.Vx3
    VNN, VN3, V33 = cells.blocks.VNN, cells.blocks.VN3, cells.blocks.V33
    V_e1E2, V_e3E2 = VxN[0, 1], VxN[2, 1]

    # Contractions against nu_top = nu_z E1 - |nu_perp| e3.
    d2_E2_top = nz * VNN[0, 1] - nperp * VN3[1]
    d2_top_top = (nz * nz) * VNN[0, 0] - 2.0 * nz * nperp * VN3[0] + (nperp * nperp) * V33
    d2_e1_top = nz * VxN[0, 0] - nperp * Vx3[0]
    d2_e3_top = nz * VxN[2, 0] - nperp * Vx3[2]

    spin = nz * om + l2
    denom_c = I * (nperp * nperp) + M * (r0 * r0)
    den1 = lam + VNN[1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond2 = (
            lam
            + d2_top_top
            + ((I * I) * (nperp * nperp) / denom_c) * (spin * spin)
            + (nperp * nperp) * I * (om * om)
            - (d2_E2_top * d2_E2_top) / den1
        )
        num_a = 2.0 * I * nperp * p0 * spin / denom_c + d2_e1_top - V_e1E2 * d2_E2_top / den1
        num_b = d2_e3_top - V_e3E2 * d2_E2_top / den1
        A = (
            M * (om * om) * (3.0 * M * (r0 * r0) - I * (nperp * nperp)) / denom_c
            + Vxx[0, 0]
            - (V_e1E2 * V_e1E2) / den1
            - (num_a * num_a) / cond2
        )
        B = Vxx[0, 2] - V_e1E2 * V_e3E2 / den1 - num_a * num_b / cond2
        C = Vxx[2, 2] - (V_e3E2 * V_e3E2) / den1 - (num_b * num_b) / cond2
        undefined = (den1 <= 0.0) | (cond2 <= 0.0)
        A, B, C = (np.where(undefined, np.nan, v) for v in (A, B, C))
        failed = np.select(
            [den1 <= 0.0, cond2 <= 0.0, A <= 0.0, C <= 0.0, A * C - B * B <= 0.0],
            [1, 2, 3, 4, 5],
            0,
        )
    return den1, cond2, A, B, C, failed


@dataclass(frozen=True)
class _Certificates:
    """Closed-form certificates of K cells, as arrays over the cells."""

    margin: np.ndarray
    sweep: _Sweep
    den1: np.ndarray
    cond2: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    failed: np.ndarray

    def column(self, name: str) -> list:
        """Per-cell values of the StabilityCertificate field ``name``."""
        if name == "verdict":
            return [_classify(m) for m in self.margin.tolist()]
        if name == "lambda_ok":
            return (self.den1 > 0.0).tolist()
        if name == "abc_ok":
            return (self.failed == 0).tolist()
        if name == "pivots":
            rows = zip(self.sweep.pivots.tolist(), self.sweep.stop.tolist())
            return [row[: s + 1] for row, s in rows]
        if name == "failed_condition":
            return [FAILED_CONDITIONS[c] for c in self.failed.tolist()]
        return getattr(self, name).tolist()


def _certify(b: BodyParams, cells: _Cells) -> _Certificates:
    """Closed-form conditions and elimination verdicts of the cells.

    The margin is the smallest pivot over |Q| when the sweep completes,
    else the first non-positive pivot over |Q|.  Cells flagged in
    ``sweep.zero`` hit a zero pivot and carry no verdict.
    """
    den1, cond2, A, B, C, failed = (np.reshape(v, -1) for v in _closed_form(b, cells))
    cond2 = np.where(den1 <= 0.0, np.nan, cond2)
    sweep = _eliminate(_reduced_forms(b, cells).reshape(8, 8, -1))
    last = sweep.pivots[np.arange(len(sweep.stop)), sweep.stop]
    pivot = np.where(sweep.completed, sweep.pivots.min(axis=1), last)
    margin = pivot / np.maximum(sweep.qnorm, 1e-300)
    return _Certificates(margin, sweep, den1, cond2, A, B, C, failed)


def _one_cell(eq: Equilibrium, blocks: PotentialHessianBlocks) -> _Cells:
    nperp, nz = _nu_split(eq)
    return _Cells(nperp, nz, eq.mult, eq.r0, eq.p0, blocks)


def reduced_hessian(
    eq: Equilibrium, b: BodyParams, blocks: PotentialHessianBlocks
) -> ReducedQuadraticForm:
    """Assemble the reduced 8 x 8 second variation at the support state.

    Kinetic and multiplier terms are written directly in the constrained
    variables; the potential enters through its Hessian blocks in the
    rotated basis.
    """
    return ReducedQuadraticForm(Q=_reduced_forms(b, _one_cell(eq, blocks)))


def closed_form_conditions(
    eq: Equilibrium, b: BodyParams, blocks: PotentialHessianBlocks
) -> StabilityCertificate:
    """Closed-form sufficient conditions equivalent to the elimination route.

    After the kinetic pivots, positive definiteness of the reduced form
    comes down to

        lambda + d2V(E2, E2) > 0
        lambda + d2V(nu_top, nu_top) + kinetic axis terms
            - d2V(E2, nu_top)^2 / (first condition) > 0
        A > 0, C > 0, A C - B^2 > 0

    with nu_top = nu_z E1 - |nu_perp| e3.  A non-positive denominator makes
    the remaining expressions inconclusive; this is recorded in the
    certificate rather than raised.  The verdict and margin come from the
    isolated-squares pivots, which raise ZeroPivot when one vanishes.
    """
    certs = _certify(b, _one_cell(eq, blocks))
    if certs.sweep.zero[0]:
        last = int(certs.sweep.stop[0])
        raise _zero_pivot(float(certs.sweep.pivots[0, last]), last)
    cell = {name: certs.column(name)[0] for name in CERTIFICATE_FIELDS}
    details = {"den1": float(certs.den1[0]), "cond2": float(certs.cond2[0])}
    return StabilityCertificate(**dict(cell, pivots=tuple(cell["pivots"])), details=details)


def _normalized_min(vals: list) -> float:
    """The margin of the field-level routes: min(vals) / max(1, |vals|)."""
    return min(vals) / max(1.0, *(abs(v) for v in vals))


def _support_conditions(eq: Equilibrium, b: BodyParams, model: AxiFieldModel) -> tuple:
    """The jet at (r0, 0) and the closed-form (den1, cond2, A, B, C, failed) of eq, as floats.

    The conditions are those of :func:`_closed_form` on the support blocks
    built from that jet.
    """
    jet = eval_jet(model, eq.r0, 0.0)
    blocks = _support_blocks(jet, eq.r0, eq.nu0.tolist(), b.mu)
    nperp = math.hypot(eq.nu0[0], eq.nu0[1])
    cells = _Cells(nperp, float(eq.nu0[2]), eq.mult, eq.r0, eq.p0, blocks)
    den1, cond2, A, B, C, failed = (float(v) for v in _closed_form(b, cells))
    return jet, den1, cond2, A, B, C, int(failed)


def _certificate(
    margin: float, lam: float, A: float, B: float, C: float, failed, details: dict
) -> StabilityCertificate:
    """A field-level certificate: no pivots, verdict from the margin."""
    return StabilityCertificate(
        verdict=_classify(margin),
        margin=margin,
        lambda_ok=lam > 0.0,
        A=A,
        B=B,
        C=C,
        abc_ok=failed is None,
        pivots=(),
        failed_condition=failed,
        details=details,
    )


def orbitron_conditions(eq: Equilibrium, b: BodyParams, model: AxiFieldModel) -> StabilityCertificate:
    """Equatorial-orbit stability conditions evaluated directly from the field.

    For nu0 = sigma e3 in a mirror-symmetric field the closed-form
    conditions collapse to

        lambda = sigma mu Bz + omega pi0 - I_perp omega^2 > 0
        -sigma Bz_zz > 0
        -sigma (3 Bz_r / r + Bz_rr) > 0
        omega pi0 > -sigma mu Bz + I_perp omega^2 + mu Bz_r^2 / (-sigma Bz_zz)

    The last two are equivalent to A > 0 and (lambda > 0 and C > 0) with
    B = 0 exactly.  lambda and C are those of the general closed form, and
    A = mu (-sigma (3 Bz_r / r + Bz_rr)).  Raises NotEquatorial for tilted
    equilibria.
    """
    nperp = math.hypot(eq.nu0[0], eq.nu0[1])
    if nperp > POLAR_EPS:
        raise NotEquatorial("axis is tilted; use the general closed-form conditions")
    sigma = eq.sigma
    om = eq.mult.omega
    pi0 = float(eq.pi0[2])
    jet, lam, _, _, _, C, _ = _support_conditions(eq, b, model)
    axial = -sigma * jet.Bz_zz
    radial = -sigma * (3.0 * jet.Bz_r / eq.r0 + jet.Bz_rr)
    A = b.mu * radial
    B = 0.0
    spin_rhs = math.nan
    failed: str | None = None
    if lam <= 0.0:
        failed = "lambda"
    elif axial <= 0.0:
        failed = "axial"
    elif radial <= 0.0:
        failed = "radial"
    else:
        spin_rhs = -sigma * b.mu * jet.Bz + b.I_perp * om**2 + b.mu * jet.Bz_r**2 / axial
        if not om * pi0 > spin_rhs:
            failed = "spin"
    vals = [lam, A]
    if math.isfinite(C):
        vals += [C, A * C - B * B]
    details = {
        "lambda": lam,
        "axial": axial,
        "radial": radial,
        "spin_lhs": om * pi0,
        "spin_rhs": spin_rhs,
    }
    return _certificate(_normalized_min(vals), lam, A, B, C, failed, details)


def levitation_conditions(eq: Equilibrium, b: BodyParams, model: AxiFieldModel) -> StabilityCertificate:
    """Stability conditions specialized to the levitating branch.

    lambda, the axis-block condition and A, B, C are those of the general
    closed form; at a levitation support point the pure axis blocks of V
    vanish, so its first condition is lambda > 0 itself.  The margin is the
    smallest of (lambda, cond2, A, C, A C - B^2) over max(1, |.|).  The
    certificate also reports the scaled diagnostics
    (a, b, c) = (r0 / M g)(A, B, C) and the spin threshold
    omega pi0 > -sigma mu Bz + I_perp omega^2 + M g r0.
    """
    M, I, mu, g, r0 = b.M, b.I_perp, b.mu, b.g, eq.r0
    om = eq.mult.omega
    jet, lam, cond2, A, B, C, code = _support_conditions(eq, b, model)
    vals = [lam, cond2]
    if math.isfinite(A):
        vals += [A, C, A * C - B * B]
    details = {
        "cond2": cond2,
        "a": A * r0 / (M * g),
        "b": B * r0 / (M * g),
        "c": C * r0 / (M * g),
        "dynamic_lhs": om * (eq.sigma * eq.C2),
        "dynamic_rhs": -eq.sigma * mu * jet.Bz + I * om**2 + M * g * r0,
        "lambda_over_mgr": lam / (M * g * r0),
    }
    return _certificate(_normalized_min(vals), lam, A, B, C, LEVITATION_CONDITIONS[code], details)


def eigen_certificate(Q: np.ndarray) -> EigenCertificate:
    """Definiteness verdict from the spectrum of the reduced form.

    The margin is the smallest eigenvalue over |Q|, and the verdict is the
    closed-form routes' rule applied to it: marginal inside the marginal
    band, otherwise stable when positive.
    """
    Q = np.asarray(Q, dtype=float)
    eigs = np.linalg.eigvalsh(Q)
    qnorm = max(float(np.linalg.norm(Q)), 1e-300)
    lam_min = float(eigs[0])
    margin = lam_min / qnorm
    return EigenCertificate(
        verdict=_classify(margin),
        lambda_min=lam_min,
        margin=margin,
        eigenvalues=tuple(float(e) for e in eigs),
    )
