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
from .equilibrium import Equilibrium, _quotient, equatorial_conditions
from .errors import NonFinite, NotEquatorial, PolarDegeneracy, ZeroPivot
from .fields import AxiFieldModel, FieldJet, eval_jet
from .potential import PotentialHessianBlocks, _support_blocks, _where

__all__ = [
    "EliminationResult",
    "StabilityCertificate",
    "EigenCertificate",
    "VARIATION_LABELS",
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

# Verdicts by _classify's code: 2 inside the marginal band, 1 at or above it, else 0.
_VERDICTS = np.array(["not_certified", "stable", "marginal"], dtype=object)

# Index arrays of the strict lower triangle of the 8 x 8 reduced form.
_LOWER = np.tril_indices(8, -1)

# Each route's condition names by failure code; code 0 means all of them hold.  The
# levitation route has the closed form's codes, but its first condition is lambda
# itself, as the pure axis blocks vanish there; the orbitron route has its own.
FAILED_CONDITIONS = (None, "nu2_block", "nu1_block", "A", "C", "det")
LEVITATION_CONDITIONS = (None, "lambda") + FAILED_CONDITIONS[2:]
ORBITRON_CONDITIONS = (None, "lambda", "axial", "radial", "spin")

# StabilityCertificate fields that hold one value per certified cell.
CERTIFICATE_FIELDS = ("verdict", "margin", "lambda_ok", "A", "B", "C", "pivots", "failed_condition")


@dataclass(frozen=True)
class EliminationResult:
    """Outcome of successive elimination of isolated squares, in index order.

    pivots holds one pivot per eliminated variable; on failure the last
    entry is the offending non-positive pivot and failed_index is its
    variable index.  x_block is the trailing 2 x 2 block of the last two
    variables just before their elimination (the (A, B; B, C) block of the
    reduced form), None when the sweep stopped earlier.
    """

    pivots: tuple
    completed: bool
    failed_index: int | None
    x_block: np.ndarray | None


@dataclass(frozen=True)
class _Verdict:
    """A finite margin and the verdict :func:`_classify` derives from it; a margin that is not finite raises NonFinite."""

    verdict: str = field(init=False)
    margin: float

    def __post_init__(self) -> None:
        _require_finite(self.margin)
        object.__setattr__(self, "verdict", _classify(self.margin))


@dataclass(frozen=True)
class StabilityCertificate(_Verdict):
    """Result of a closed-form stability test.

    margin is the smallest normalized condition value: positive and outside
    the marginal band for a certified equilibrium, negative when some
    condition fails.  failed_condition names the first violated condition.
    pivots is empty for the field-level routes.
    """

    lambda_ok: bool
    A: float
    B: float
    C: float
    pivots: tuple = ()
    failed_condition: str | None = None
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        record = {name: getattr(self, name) for name in CERTIFICATE_FIELDS}
        return dict(record, pivots=[float(p) for p in self.pivots])


@dataclass(frozen=True)
class EigenCertificate(_Verdict):
    """Spectrum-based verdict on the reduced quadratic form: a finite margin, its verdict and the ascending eigenvalues."""

    eigenvalues: tuple


def _require_finite(value: float, what: str = "certificate margin") -> None:
    if not math.isfinite(value):
        raise NonFinite(f"{what} is {value!r}")


def _classify(margin):
    """The verdict of a margin, elementwise over a float or an array.

    "marginal" when |margin| < MARGIN_BAND, else "stable" when margin > 0,
    else "not_certified", NaN included.  A float gives a str, an array an
    object array of str.
    """
    return _VERDICTS[2 * (abs(margin) < MARGIN_BAND) + (margin >= MARGIN_BAND)]


def _nu_split(eq: Equilibrium) -> tuple[float, float]:
    """(|nu_perp|, nu_z) of the equilibrium axis, guarding the polar case."""
    nperp = math.hypot(eq.nu0[0], eq.nu0[1])
    nz = float(eq.nu0[2])
    if abs(nz) < POLAR_EPS:
        raise PolarDegeneracy("equilibrium axis lies in the orbital plane")
    return nperp, nz


class _Cells(NamedTuple):
    """Support states for the certificate core: one, or K stacked ones.

    For one state the fields are floats and the blocks of
    :func:`hessian_blocks`.  For K states nperp, nz, r0, the fields of
    ``mult`` and the block entries are floats or arrays that broadcast to
    shape (K,), so the arrays of ``blocks`` may carry a trailing cell axis.
    The formulas index blocks as ``[i, j]`` and square by multiplication,
    so a cell gets the same numbers in either form.
    """

    nperp: float | np.ndarray
    nz: float | np.ndarray
    mult: Multipliers
    r0: float | np.ndarray
    blocks: PotentialHessianBlocks


def _support_cells(jet: FieldJet, b: BodyParams, r0, nu_r, nu_z, mult: Multipliers) -> _Cells:
    """Cells of axes (nu_r, 0, nu_z) at (r0, 0, 0) from the jet there: floats give one, arrays K."""
    # np.zeros_like keeps the middle component +0, where 0.0 * nu_r is -0 for nu_r < 0.
    blocks = _support_blocks(jet, r0, (nu_r, np.zeros_like(nu_r), nu_z), b.mu)
    return _Cells(np.abs(nu_r), nu_z, mult, r0, blocks)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _reduced_forms(b: BodyParams, cells: _Cells) -> np.ndarray:
    """Reduced forms Q of the cells, (8, 8) or (8, 8, K), with inf or nan where they overflow."""
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
    """Isolated-squares elimination of one form, or of K stacked ones.

    For one form the fields are Python values, pivots is an (n,) array and
    x_block a (2, 2) one; for K forms each field has a leading cell axis,
    and cell k of a stack is ``field[k]``.  stop is the first step whose
    pivot is non-positive or, as ``zero`` flags, zero to working precision;
    it is n - 1 where there is none, and the cell is ``completed``.
    pivots[..., i] is the pivot of step i, NaN past stop.  margin is the
    pivot at stop over |Q|, or the least pivot over |Q| (NaN if one is NaN)
    where the sweep completes.  x_block holds the trailing 2 x 2 block just
    before the last two eliminations, NaN where stop comes before them.
    """

    pivots: np.ndarray
    stop: int | np.ndarray
    completed: bool | np.ndarray
    zero: bool | np.ndarray
    margin: float | np.ndarray
    x_block: np.ndarray


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _eliminate(S: np.ndarray) -> _Sweep:
    """Eliminate the variables of one form (n, n), or of K stacked forms (n, n, K), in index order.

    Each form is first scaled, in place, by the power of two that brings its
    largest entry into [0.5, 1): that is exact, so the pivots are unchanged,
    and |Q| and the margin stay finite where the squares of the entries
    overflow.  The Schur-complement steps then run on the entries of the
    lower triangle, plus the one upper entry that x_block reads: floats for
    one form, views of S of shape (K,) updated in place for a stack.  The
    loop records the pivots and the trailing block, and the fields follow
    from them after it; one form stops at its stop, where a float division
    by a zero pivot would raise.  A step whose pivot is not NaN and whose
    column below it is +0.0, bit for bit, in every form is skipped.
    """
    n = S.shape[0]
    scale, floor = _scale(S)
    one = S.ndim == 2
    rows, floor = (S.tolist(), float(floor)) if one else ([list(row) for row in S], floor)
    tol = ZERO_PIVOT_REL * floor
    # The trailing block is kept transposed; it and the pivots keep the cell axis last, and .T turns both.
    pivots, block = [], np.full((2, 2) + S.shape[2:], np.nan)
    for k in range(n):
        if k == n - 2:
            block = np.array([[rows[k][k], rows[k + 1][k]], [rows[k][k + 1], rows[k + 1][k + 1]]])
        p = rows[k][k]
        pivots.append(p)
        if one and (p <= 0.0 or abs(p) < tol):
            break
        col = [row[k] for row in rows[k + 1 :]]
        if _no_op(p, col) if one else not (S[k + 1 :, k].view(np.int64).any() or np.isnan(p).any()):
            continue
        # Each update rounds as (ci * cj) / p, the order of an outer product over the pivot.
        for i, (row, ci) in enumerate(zip(rows[k + 1 :], col), k + 2):
            for j, cj in zip(range(k + 1, i), col):
                row[j] -= ci * cj / p
        if k < n - 2:
            rows[n - 2][n - 1] -= col[n - 3 - k] * col[n - 2 - k] / p
    P = np.array(pivots + [math.nan] * (n - len(pivots)))  # one form pads the steps past its stop
    if one:
        stop, last = len(pivots) - 1, pivots[-1]
        zero = abs(last) < tol
        completed = not (zero or last <= 0.0)
        least = math.nan if any(p != p for p in pivots) else min(pivots)
        margin = (least if completed else last) / floor
    else:
        small = abs(P) < tol
        ended = small | (P <= 0.0)
        completed, stop = ~ended.any(axis=0), np.where(ended, np.arange(n)[:, None], n - 1).min(axis=0)
        at_stop = (stop, np.arange(len(stop)))
        zero, margin = small[at_stop], np.where(completed, P.min(axis=0), P[at_stop]) / floor
        P[np.arange(n)[:, None] > stop] = np.nan
    x_block = np.where(stop >= n - 2, block, np.nan)
    return _Sweep(np.ldexp(P, scale).T, stop, completed, zero, margin, np.ldexp(x_block, scale).T)


def _no_op(p: float, col: list) -> bool:
    """Whether a step of one form with pivot p over the column col is skipped: p is not NaN and col is +0.0."""
    return not any(col) and p == p and all(math.copysign(1.0, c) > 0.0 for c in col)


def _scale(S: np.ndarray):
    """Scale one form (n, n), or K stacked ones (n, n, K), in place by 2**-e, e bringing its largest |entry| into
    [0.5, 1) (0 where that is zero or not finite); return e and |S|, at least 1e-300, the root of the sum of its
    squares in index order.  accumulate fixes that order on one form; on a stack of 1600 cells it takes ten times
    einsum's time, and einsum adds a stack's cells in index order (the tests check both against a float loop).
    """
    e = np.frexp(np.maximum(S.max(axis=(0, 1)), -S.min(axis=(0, 1))))[1]
    np.ldexp(S, -e, out=S)
    one = S[0, 0].size == 1
    squares = np.add.accumulate((S * S).reshape(-1, *S.shape[2:]))[-1] if one else np.einsum("ij...,ij...->...", S, S)
    return e, np.maximum(np.sqrt(squares), 1e-300)


def _zero_pivot(piv: float, idx: int) -> ZeroPivot:
    return ZeroPivot(f"pivot {piv:g} for variable {idx} is zero to working precision")


def isolated_squares_reduce(Q: np.ndarray) -> EliminationResult:
    """Successively eliminate isolated squares from a symmetric form, in index order.

    Writing Q = A x_k^2 + 2 x_k B(rest) + Q'(rest), a positive pivot A lets
    x_k be completed to a square, leaving the Schur complement
    Q' - B B^T / A; Q is positive definite iff every pivot is positive.
    The order is immaterial for the verdict: to eliminate in the order o,
    pass Q[np.ix_(o, o)].  A pivot smaller in magnitude than 1e-14 |Q|
    raises ZeroPivot; a non-positive pivot stops the sweep with
    ``completed`` False.
    """
    S = np.array(Q, dtype=float, copy=True)
    n = S.shape[0]
    if S.shape != (n, n) or not np.allclose(S, S.T, atol=1e-12 * max(1.0, np.abs(S).max())):
        raise ValueError("expected a symmetric square matrix")
    sweep = _eliminate(S)
    last = sweep.stop
    pivots = tuple(sweep.pivots[: last + 1].tolist())
    if sweep.zero:
        raise _zero_pivot(pivots[-1], last)
    x_block = sweep.x_block if n >= 2 and last >= n - 2 else None
    return EliminationResult(
        pivots=pivots, completed=sweep.completed, failed_index=None if sweep.completed else last, x_block=x_block
    )


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _closed_form(b: BodyParams, cells: _Cells) -> tuple:
    """(den1, cond2, A, B, C, failed) of the cells, silently inf or nan where they overflow.

    failed indexes FAILED_CONDITIONS.  A, B, C are NaN where either
    denominator is non-positive.  cond2 is left as computed where
    den1 <= 0, where it carries no condition; :func:`_certify` masks it.
    """
    nperp, nz, r0 = cells.nperp, cells.nz, cells.r0
    M, I = b.M, b.I_perp
    om, l2, lam = cells.mult.omega, cells.mult.lambda2, cells.mult.lambda_
    p0 = M * om * r0  # as in equilibrium._support_momenta
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
    A, B, C = (_where(undefined, np.nan, v) for v in (A, B, C))
    failed = _where(
        den1 <= 0.0,
        1,
        _where(cond2 <= 0.0, 2, _where(A <= 0.0, 3, _where(C <= 0.0, 4, _where(A * C - B * B <= 0.0, 5, 0)))),
    )
    return den1, cond2, A, B, C, failed


class _Certificates(NamedTuple):
    """The certificate table of every route and scan: floats for one cell, or arrays over K cells.

    margin is the route's own, den1 its first condition, cond2 the axis-block
    one and A, B, C the positional block; failed indexes ``names``, the
    route's condition names, and sweep is the elimination where the route
    runs one.  Every StabilityCertificate field is derived from these here.
    """

    margin: float | np.ndarray
    den1: float | np.ndarray
    cond2: float | np.ndarray
    A: float | np.ndarray
    B: float | np.ndarray
    C: float | np.ndarray
    failed: int | np.ndarray
    names: tuple
    sweep: _Sweep | None = None

    def column(self, name: str):
        """The StabilityCertificate field ``name`` of the cell, or of every cell as one array over the cells.

        Its ``np.asarray(...).tolist()`` gives the field's Python values; no sweep gives no pivots.
        """
        if name == "verdict":
            return _classify(self.margin)
        if name == "lambda_ok":
            return self.den1 > 0.0
        if name == "pivots":
            if self.sweep is None:
                return ()
            pivots, stop = self.sweep.pivots, self.sweep.stop
            if pivots.ndim == 1:
                return pivots[: stop + 1]
            rows = zip(pivots.tolist(), stop.tolist())
            return np.fromiter((row[: s + 1] for row, s in rows), dtype=object, count=len(stop))
        if name == "failed_condition":
            return (np.array(self.names, dtype=object) if isinstance(self.failed, np.ndarray) else self.names)[self.failed]
        return getattr(self, name)

    def certificate(self, details: dict) -> StabilityCertificate:
        """The certificate of the one cell, with the route's details; a margin that is not finite raises NonFinite."""
        lambda_ok, pivots, failed = self.column("lambda_ok"), self.column("pivots"), self.column("failed_condition")
        margin, A, B, C = float(self.margin), float(self.A), float(self.B), float(self.C)
        return StabilityCertificate(margin, bool(lambda_ok), A, B, C, tuple(map(float, pivots)), failed, details)


def _certify(b: BodyParams, cells: _Cells, Q: np.ndarray | None = None) -> _Certificates:
    """The closed-form route's table of one cell, or of K cells.

    The margin is the elimination's.  Cells flagged in ``sweep.zero`` hit a
    zero pivot and carry no verdict.  Q, when given, is the cells' reduced
    forms; the sweep, which scales its input in place, eliminates a copy.
    """
    den1, cond2, A, B, C, failed = _closed_form(b, cells)
    cond2 = np.where(den1 <= 0.0, np.nan, cond2)
    sweep = _eliminate(_reduced_forms(b, cells) if Q is None else Q.copy())
    return _Certificates(sweep.margin, den1, cond2, A, B, C, failed, FAILED_CONDITIONS, sweep)


def _one_cell(eq: Equilibrium, blocks: PotentialHessianBlocks) -> _Cells:
    return _Cells(*_nu_split(eq), eq.mult, eq.r0, blocks)


def reduced_hessian(eq: Equilibrium, b: BodyParams, blocks: PotentialHessianBlocks) -> np.ndarray:
    """The reduced 8 x 8 second variation Q at the support state, in VARIATION_LABELS order.

    Kinetic and multiplier terms are written directly in the constrained
    variables; the potential enters through its Hessian blocks in the
    rotated basis.
    """
    return _reduced_forms(b, _one_cell(eq, blocks))


def closed_form_conditions(
    eq: Equilibrium, b: BodyParams, blocks: PotentialHessianBlocks, Q: np.ndarray | None = None
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
    isolated-squares pivots, which raise ZeroPivot when one vanishes.  A
    caller that also needs Q may pass ``reduced_hessian(eq, b, blocks)``,
    which the sweep then reads, unchanged, instead of building Q again.
    """
    certs = _certify(b, _one_cell(eq, blocks), Q)
    if certs.sweep.zero:
        raise _zero_pivot(float(certs.sweep.pivots[certs.sweep.stop]), certs.sweep.stop)
    return certs.certificate({"den1": float(certs.den1), "cond2": float(certs.cond2)})


@np.errstate(invalid="ignore")
def _normalized_min(values, defined):
    """Field-level margin: the least defined value over max(1, the largest defined |value|).

    Elementwise over parallel sequences of values and masks, all floats or all (K,) arrays;
    a NaN among the defined values gives NaN.
    """
    values, defined = np.array(values), np.array(defined)
    least = np.min(values, axis=0, where=defined, initial=np.inf)
    return least / np.max(np.abs(values), axis=0, where=defined, initial=1.0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _levitation_certificates(b: BodyParams, jet: FieldJet, r0, nu_r, nu_z, mult: Multipliers) -> _Certificates:
    """The levitation route's table of rows: floats give one row, arrays K.

    Silently inf or nan where they overflow; the margin counts A, C and A C - B^2 only where A is finite.
    """
    den1, cond2, A, B, C, failed = _closed_form(b, _support_cells(jet, b, r0, nu_r, nu_z, mult))
    has_abc = np.isfinite(A)
    always = np.ones_like(has_abc)
    margin = _normalized_min((den1, cond2, A, C, A * C - B * B), (always, always, has_abc, has_abc, has_abc))
    return _Certificates(margin, den1, cond2, A, B, C, failed, LEVITATION_CONDITIONS)


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
    nu_r, _, nu_z = eq.nu0.tolist()
    if abs(nu_r) > POLAR_EPS:
        raise NotEquatorial("axis is tilted; use the general closed-form conditions")
    sigma = eq.sigma
    om = eq.mult.omega
    pi0 = float(eq.pi0[2])
    jet = eval_jet(model, eq.r0, 0.0)
    cells = _support_cells(jet, b, eq.r0, nu_r, nu_z, eq.mult)
    lam, cond2, _, _, C, _ = (float(v) for v in _closed_form(b, cells))
    axial, radial, _ = equatorial_conditions(jet, b, eq.r0, sigma)
    A, B = b.mu * radial, 0.0
    spin_rhs = math.nan
    failed = 1 if lam <= 0.0 else 2 if axial <= 0.0 else 3 if radial <= 0.0 else 0  # indexes ORBITRON_CONDITIONS
    if not failed:
        spin_rhs = -sigma * b.mu * jet.Bz + b.I_perp * (om * om) + b.mu * (jet.Bz_r * jet.Bz_r) / axial
        _require_finite(spin_rhs, "orbitron spin threshold")
        failed = 0 if om * pi0 > spin_rhs else 4
    if lam > 0.0:  # else C is undefined (NaN)
        _require_finite(C, "orbitron condition C")
    margin = float(_normalized_min((lam, A, C, A * C - B * B), (True, True, lam > 0.0, lam > 0.0)))
    details = {"lambda": lam, "axial": axial, "radial": radial, "spin_lhs": om * pi0, "spin_rhs": spin_rhs}
    return _Certificates(margin, lam, cond2, A, B, C, failed, ORBITRON_CONDITIONS).certificate(details)


def levitation_conditions(eq: Equilibrium, b: BodyParams, model: AxiFieldModel) -> StabilityCertificate:
    """Stability conditions specialized to the levitating branch.

    lambda, the axis-block condition and A, B, C are those of the general
    closed form; at a levitation support point the pure axis blocks of V
    vanish, so its first condition is lambda > 0 itself.  Its certificate is one row of
    the table that :func:`scan.levitation_sweep` stacks, margin rule included.  The
    certificate also reports the scaled diagnostics (a, b, c) = (r0 / M g)(A, B, C)
    and the spin threshold omega pi0 > -sigma mu Bz + I_perp omega^2 + M g r0.
    """
    M, I, mu, g, r0 = b.M, b.I_perp, b.mu, b.g, eq.r0
    om = eq.mult.omega
    nu_r, _, nu_z = eq.nu0.tolist()
    jet = eval_jet(model, r0, 0.0)
    certs = _levitation_certificates(b, jet, r0, nu_r, nu_z, eq.mult)
    lam, A, B, C = (float(v) for v in (certs.den1, certs.A, certs.B, certs.C))
    details = {
        "cond2": float(certs.cond2),
        "a": _quotient(A * r0, M * g, "a = A r0 / (M g)"),
        "b": _quotient(B * r0, M * g, "b = B r0 / (M g)"),
        "c": _quotient(C * r0, M * g, "c = C r0 / (M g)"),
        "dynamic_lhs": om * (eq.sigma * eq.C2),
        "dynamic_rhs": -eq.sigma * mu * jet.Bz + I * om**2 + M * g * r0,
        "lambda_over_mgr": _quotient(lam, M * g * r0, "lambda / (M g r0)"),
    }
    return certs.certificate(details)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def eigen_certificate(Q: np.ndarray) -> EigenCertificate:
    """Definiteness verdict from the spectrum of the reduced form.

    The margin is the smallest eigenvalue over |Q|, and the verdict is the
    closed-form routes' rule applied to it: marginal inside the marginal
    band, otherwise stable when positive.  Q is scaled as in the sweep.
    Raises NonFinite when an entry of Q is inf or nan.
    """
    Q = np.asarray(Q, dtype=float)
    if not np.isfinite(Q).all():
        raise NonFinite("reduced form Q has an entry that is not finite")
    eigs = np.linalg.eigvalsh(Q)
    scale, qnorm = _scale(Q.copy())
    margin = math.ldexp(float(eigs[0]), -int(scale)) / float(qnorm)
    return EigenCertificate(margin, tuple(float(e) for e in eigs))
