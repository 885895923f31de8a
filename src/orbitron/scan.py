"""Parameter scans: stability windows, levitation sweeps, and 2-D maps.

Scans evaluate the certificate machinery over parameter grids and return
plain row dictionaries ready for CSV serialization.  Rows that fail with a
domain error carry the error name in an ``error`` column and the scan
continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import BodyParams
from .equilibrium import (
    _equatorial_tests,
    build_levitation_equilibrium,
    equatorial_multipliers,
    equatorial_rate,
    solve_levitation,
)
from .errors import BadSign, ConfigError, NonFinite, OrbitronError
from .fields import AxiFieldModel, Composite, DipolePair, FieldJet, Linear, eval_jet
from .potential import _support_blocks
from .stability import CERTIFICATE_FIELDS, _Cells, _certify, levitation_conditions

__all__ = [
    "ScanAxis",
    "ScanSpec",
    "dipoletron_window",
    "window_endpoints",
    "levitation_sweep",
    "stability_map",
    "split_levitation_model",
    "radius_for_beta",
]


@dataclass(frozen=True)
class ScanAxis:
    name: str
    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("axis needs at least 1 point")
        if self.n == 1:
            if self.hi != self.lo:
                raise ValueError("a single-point axis needs lo == hi")
        elif not self.hi > self.lo:
            raise ValueError("axis range must be increasing")
        elif not math.isfinite(self.hi - self.lo):
            raise ValueError("axis range width must be finite")

    def values(self) -> np.ndarray:
        if self.n == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class ScanSpec:
    """Axes, fixed parameters, and requested output columns of a 2-D map."""

    axis1: ScanAxis
    axis2: ScanAxis
    fixed: dict = field(default_factory=dict)
    outputs: tuple = ("verdict", "margin", "A", "B", "C")


def dipoletron_window(
    q: float,
    h: float,
    b: BodyParams,
    ratio_range: tuple[float, float] = (0.3, 1.5),
    n: int = 121,
    sigma: int = 1,
) -> list[dict]:
    """Tabulate the geometric stability conditions along r0 / h.

    Each row reports the two field-level conditions -sigma Bz_zz and
    -sigma (3 Bz_r / r0 + Bz_rr), the squared orbit rate they imply, and
    whether all three are positive.  The conditions are evaluated from the
    field jet, not from the factored polynomials, so the polynomial form
    stays available as an independent cross-check.  The n ratios are one
    array :func:`fields.eval_jet` call.  Raises NonFinite, naming the first
    ratio and its r0, if the jet over- or underflows to a condition that is
    not finite there.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    model = DipolePair(q, h)
    ratio = np.linspace(ratio_range[0], ratio_range[1], n)
    if not (ratio > 0.0).all():
        raise ValueError(f"ratio_range {ratio_range} must lie in r0 / h > 0")
    r0 = ratio * h
    # A jet that over- or underflows at an extreme scale gives inf, nan or 0 terms, silently.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        jet = eval_jet(model, r0, 0.0)
        axial = -sigma * jet.Bz_zz
        radial = -sigma * (3.0 * jet.Bz_r / r0 + jet.Bz_rr)
        omega2 = -sigma * (b.mu / b.M) * jet.Bz_r / r0
    finite = np.isfinite(axial) & np.isfinite(radial) & np.isfinite(omega2)
    if not finite.all():
        k = int(np.argmin(finite))
        at = f"r0 / h = {float(ratio[k])!r}, r0 = {float(r0[k])!r}"
        raise NonFinite(f"window conditions are not finite at {at}")
    in_window = (axial > 0.0) & (radial > 0.0) & (omega2 > 0.0)
    keys = ("ratio", "r0", "axial", "radial", "omega2", "in_window")
    columns = (ratio, r0, axial, radial, omega2, in_window)
    return [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]


def window_endpoints(
    q: float,
    h: float,
    sigma: int = 1,
    ratio_range: tuple[float, float] = (0.3, 1.5),
) -> tuple[float, float]:
    """Edges of the stability window in r0 / h, clipped to ``ratio_range``.

    In x = (r0 / h)^2 the two geometric conditions are signs of the factored
    quartics of :func:`fields.dipole_pair_midplane`: the axial one changes
    sign at the roots 4 -+ 2 sqrt(30) / 3 of 3 x^2 - 24 x + 8, the radial one
    at the roots 9 -+ sqrt(65) of x^2 - 18 x + 16.  Both hold on
    4 - sigma 2 sqrt(30) / 3 < x < 9 - sigma sqrt(65), whatever q and h are.
    Raises ValueError unless sigma is +1 or -1, and when the window does not
    meet ``ratio_range``.
    """
    DipolePair(q, h)  # validates q > 0 and h > 0
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    # The range comes first, so a NaN bound propagates and fails the check.
    lower = max(ratio_range[0], math.sqrt(4.0 - sigma * 2.0 * math.sqrt(30.0) / 3.0))
    upper = min(ratio_range[1], math.sqrt(9.0 - sigma * math.sqrt(65.0)))
    if not lower < upper:
        raise ValueError(f"no stability window found in ratio range {ratio_range}")
    return float(lower), float(upper)


def split_levitation_model(model: AxiFieldModel) -> tuple[Linear, AxiFieldModel]:
    """Separate the linear part from the mirror-symmetric remainder."""
    parts = list(model.parts) if isinstance(model, Composite) else [model]
    linear = [p for p in parts if isinstance(p, Linear)]
    rest = [p for p in parts if not isinstance(p, Linear)]
    if len(linear) != 1 or not rest:
        raise ConfigError(
            "levitation needs a composite field with exactly one linear part "
            "and at least one mirror-symmetric part"
        )
    if linear[0].Bp == 0.0:
        raise ConfigError("levitation needs a nonzero linear gradient")
    o_model = rest[0] if len(rest) == 1 else Composite(tuple(rest))
    return linear[0], o_model


def _dipole_scale(model: AxiFieldModel) -> float:
    if isinstance(model, DipolePair):
        return model.h
    if isinstance(model, Composite):
        hs = [_dipole_scale(p) for p in model.parts]
        hs = [h for h in hs if h > 0.0]
        return max(hs) if hs else 0.0
    return 0.0


def radius_for_beta(model: AxiFieldModel, beta: float) -> float:
    """Radius at which the mirror part's Br_z matches beta times the gradient.

    Only the outer branch (to the right of the most negative Br_z) is
    searched, since that is where the geometric window can lie.  The
    4096-point grid on 0.01 h <= r <= 8 h that locates that minimum is one
    array :func:`fields.eval_jet` call; bisection from the grid minimum to
    the grid's end then refines the root to 1e-14 h.  Raises ValueError
    when beta is out of reach for the model.
    """
    linear, o_model = split_levitation_model(model)
    target = beta * linear.Bp
    h = _dipole_scale(o_model)
    if h <= 0.0:
        raise ConfigError("levitation needs a dipole part to set the length scale")

    def f(r: float) -> float:
        return eval_jet(o_model, r, 0.0).Br_z - target

    grid = np.linspace(0.01 * h, 8.0 * h, 4096)
    # Grid points where the jet over- or underflows give inf or nan, silently.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = eval_jet(o_model, grid, 0.0).Br_z
    k_min = int(np.argmin(vals))
    if not (vals[k_min] <= target <= 0.0) or target == 0.0:
        raise ValueError(
            f"beta Bprime = {target:g} is outside the reachable Br_z range "
            f"[{vals[k_min]:g}, 0) of the mirror part"
        )
    lo, hi = float(grid[k_min]), float(grid[-1])
    if f(hi) < 0.0:
        raise ValueError("Br_z does not recover to the target on the search range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * h:
            break
    return 0.5 * (lo + hi)


def levitation_sweep(
    model: AxiFieldModel,
    b: BodyParams,
    kappa_values,
    beta: float,
) -> list[dict]:
    """Certify the levitating branch across a range of kappa at fixed beta.

    The orbit radius is chosen once so the mirror part realizes the given
    beta; each kappa then fixes the gravity g = kappa mu B' / M that the
    balance presumes.  Rows with an infeasible kappa carry the error name
    and empty numerics.
    """
    if beta >= 0.0:
        raise BadSign("levitation requires beta < 0")
    linear, _ = split_levitation_model(model)
    r0 = radius_for_beta(model, beta)

    def one(kappa: float) -> dict:
        row = {
            "kappa": float(kappa),
            "beta": beta,
            "r0": r0,
            "nu_r": math.nan,
            "nu_z": math.nan,
            "xi2": math.nan,
            "verdict": "",
            "margin": math.nan,
            "A": math.nan,
            "B": math.nan,
            "C": math.nan,
            "error": "",
        }
        g_row = kappa * b.mu * linear.Bp / b.M
        if g_row <= 0.0:
            row["error"] = "BadSign"
            return row
        try:
            nu_r, nu_z, xi2 = solve_levitation(beta, kappa)
            b_row = replace(b, g=g_row)
            eq = build_levitation_equilibrium(model, b_row, r0, nu_r, nu_z, xi2)
            cert = levitation_conditions(eq, b_row, model)
        except OrbitronError as exc:
            row["error"] = type(exc).__name__
            return row
        row.update(
            nu_r=nu_r,
            nu_z=nu_z,
            xi2=xi2,
            verdict=cert.verdict,
            margin=cert.margin,
            A=cert.A,
            B=cert.B,
            C=cert.C,
        )
        return row

    return [one(float(k)) for k in kappa_values]


def stability_map(spec: ScanSpec, model: AxiFieldModel, b: BodyParams) -> list[dict]:
    """Certify equatorial equilibria over a 2-D parameter grid.

    Supported axis and fixed-parameter names are ``r0``, ``pi0`` and
    ``sigma``.  Each cell solves the equatorial equilibrium and runs the
    closed-form certificate; infeasible cells carry the error name, and
    cells whose jet or margin is not finite carry ``NonFinite``.

    The axis is sigma e3 in every cell, so the field enters only through
    its jet at (r0, 0), which is one array :func:`fields.eval_jet` call over
    all cells.  The branch tests of :func:`equilibrium.equatorial_rate` and
    the closed-form blocks of :func:`potential.hessian_blocks` are then
    elementwise, and all cells are certified together on stacked arrays.
    """
    known = {"r0", "pi0", "sigma"}
    names = {spec.axis1.name, spec.axis2.name} | set(spec.fixed)
    if not names <= known:
        raise ConfigError(f"unknown scan parameters {sorted(names - known)}; known: {sorted(known)}")
    if spec.axis1.name == spec.axis2.name:
        raise ConfigError("the two scan axes must differ")
    if not {"r0", "pi0"} <= ({spec.axis1.name, spec.axis2.name} | set(spec.fixed)):
        raise ConfigError("scan needs r0 and pi0 via an axis or a fixed value")

    v1, v2 = spec.axis1.values(), spec.axis2.values()
    grid = {spec.axis1.name: np.repeat(v1, len(v2)), spec.axis2.name: np.tile(v2, len(v1))}
    n = len(v1) * len(v2)

    def param(name: str) -> np.ndarray:
        if name in grid:
            return grid[name]
        return np.full(n, float(spec.fixed.get(name, 1.0)))

    r0, pi0, sigma = param("r0"), param("pi0"), param("sigma")
    if not (np.isfinite(r0).all() and np.isfinite(pi0).all()):
        raise ValueError("r0 and pi0 must be finite")
    outside = ~np.isin(sigma, (-1.0, 1.0)) | (r0 <= 0.0) | (b.g != 0.0)
    if outside.any():
        k = int(outside.argmax())  # raises the first offending cell's ValueError, before any jet
        equatorial_rate(model, b, float(r0[k]), sigma[k])

    # Cells with a non-finite jet or margin are flagged NonFinite, so their arithmetic stays silent.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        jet = eval_jet(model, r0, 0.0)
        asymmetric, omega2 = _equatorial_tests(jet, b, r0, sigma)
        nonfinite = ~np.isfinite(list(vars(jet).values())).all(axis=0)
        errors = np.where(asymmetric, "NotMirrorSymmetric", np.where(omega2 <= 0.0, "WrongFieldSign", ""))
        live = np.flatnonzero(errors == "")
        jet = FieldJet(**{name: value[live] for name, value in vars(jet).items()})
        nz, r_live, omega = sigma[live], r0[live], np.sqrt(omega2[live])
        mult = equatorial_multipliers(b, jet.Bz, omega, pi0[live], nz)
        blocks = _support_blocks(jet, r_live, (0.0, 0.0, nz), b.mu)
        p0 = b.M * omega * r_live
        certs = _certify(b, _Cells(np.zeros(len(live)), nz, mult, r_live, p0, blocks))
    errors[live[certs.sweep.zero]] = "ZeroPivot"
    nonfinite[live] |= ~np.isfinite(certs.margin)
    errors[nonfinite] = "NonFinite"
    certified = [(j, k) for j, k in enumerate(live.tolist()) if not errors[k]]

    outputs = []
    for name in spec.outputs:
        col = [math.nan if name != "verdict" else ""] * n
        if name in CERTIFICATE_FIELDS:
            values = certs.column(name)
            for j, k in certified:
                col[k] = values[j]
        outputs.append(col)
    keys = [spec.axis1.name, spec.axis2.name, *spec.outputs, "error"]
    axes = (grid[spec.axis1.name].tolist(), grid[spec.axis2.name].tolist())
    cells = zip(*axes, *outputs, errors.tolist())
    return [dict(zip(keys, cell)) for cell in cells]
