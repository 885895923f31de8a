"""Parameter scans: stability windows, levitation sweeps, and 2-D maps.

Scans evaluate the certificate machinery over parameter grids and return
plain row dictionaries ready for CSV serialization.  Rows that fail with a
domain error carry the error name in an ``error`` column and the scan
continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BodyParams
from .equilibrium import (
    EQUATORIAL_FAILURES,
    LEVITATION_FAILURES,
    _equatorial_tests,
    _levitation_code,
    _levitation_roots,
    _support_momenta,
    equatorial_conditions,
    equatorial_multipliers,
    solve_orbitron_equatorial,
    split_levitation_model,
    tilted_multipliers,
)
from .errors import ConfigError, NonFinite
from .fields import AxiFieldModel, DipolePair, FieldJet, _jet_terms, eval_jet
from .stability import CERTIFICATE_FIELDS, _certify, _classify, _levitation_certificates, _support_cells

__all__ = [
    "ScanAxis",
    "ScanSpec",
    "dipoletron_window",
    "window_endpoints",
    "levitation_sweep",
    "stability_map",
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
            raise ValueError(f"axis {self.name!r} needs at least 1 point")
        if self.n == 1:
            if self.hi != self.lo:
                raise ValueError(f"single-point axis {self.name!r} needs lo == hi")
        elif not self.hi > self.lo:
            raise ValueError(f"axis {self.name!r} range must be increasing")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"axis {self.name!r} range width must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class ScanSpec:
    """Axes, fixed parameters, and requested output columns of a 2-D map."""

    axis1: ScanAxis
    axis2: ScanAxis
    fixed: dict = field(default_factory=dict)
    outputs: tuple = ("verdict", "margin", "A", "B", "C")


def _rows(keys, columns) -> list[dict]:
    """Row dicts with the given keys, in order, filled from equal-length columns."""
    rows = [{} for _ in range(len(columns[0]))]
    for key, column in zip(keys, columns):
        for row, v in zip(rows, column):
            row[key] = v
    return rows


def _error_names(failures: tuple, code: np.ndarray) -> np.ndarray:
    """The name of failures[code] in each cell, as an object array; "" where code is 0."""
    return np.array([""] + [cls.__name__ for cls in failures[1:]], dtype=object)[code]


def _scatter(n: int, at: np.ndarray, values: np.ndarray, fill) -> list:
    """A column of n Python values: ``values`` at the indices ``at``, ``fill`` elsewhere.

    Values of shape (k, len(at)) give k such columns at once.  Float values give float
    columns; others object ones, whose cells outside ``at`` share the one fill object.
    """
    column = np.full((*values.shape[:-1], n), fill, dtype=float if values.dtype == float else object)
    column[..., at] = values
    return column.tolist()


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
    # r0 and a jet that over- or underflow at an extreme scale give inf, nan or 0 terms, silently.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r0 = ratio * h
        axial, radial, omega2 = equatorial_conditions(eval_jet(model, r0, 0.0), b, r0, sigma)
    finite = np.isfinite(axial) & np.isfinite(radial) & np.isfinite(omega2)
    if not finite.all():
        k = int(np.argmin(finite))
        at = f"r0 / h = {float(ratio[k])!r}, r0 = {float(r0[k])!r}"
        raise NonFinite(f"window conditions are not finite at {at}")
    in_window = (axial > 0.0) & (radial > 0.0) & (omega2 > 0.0)
    keys = ("ratio", "r0", "axial", "radial", "omega2", "in_window")
    columns = (ratio, r0, axial, radial, omega2, in_window)
    return _rows(keys, [c.tolist() for c in columns])


def window_endpoints(sigma: int = 1, ratio_range: tuple[float, float] = (0.3, 1.5)) -> tuple[float, float]:
    """Edges of the stability window in r0 / h, clipped to ``ratio_range``.

    With x = (r0 / h)^2 the pair's midplane jet gives
    Bz_zz = 6 q h^-5 (1 + x)^-9/2 (3 x^2 - 24 x + 8) and
    3 Bz_r / r0 + Bz_rr = -6 q h^-5 (1 + x)^-9/2 (x^2 - 18 x + 16), so the
    axial condition changes sign at the roots 4 -+ 2 sqrt(30) / 3 of the
    first quadratic and the radial one at the roots 9 -+ sqrt(65) of the
    second.  Both hold on
    4 - sigma 2 sqrt(30) / 3 < x < 9 - sigma sqrt(65), whatever q and h are,
    so the edges are those of :func:`dipoletron_window` for every pair.
    Raises ValueError unless sigma is +1 or -1, and when the window does not
    meet ``ratio_range``.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    # The range comes first, so a NaN bound propagates and fails the check.
    lower = max(ratio_range[0], math.sqrt(4.0 - sigma * 2.0 * math.sqrt(30.0) / 3.0))
    upper = min(ratio_range[1], math.sqrt(9.0 - sigma * math.sqrt(65.0)))
    if not lower < upper:
        raise ValueError(f"no stability window found in ratio range {ratio_range}")
    return float(lower), float(upper)


def radius_for_beta(model: AxiFieldModel, beta: float) -> float:
    """Radius at which the mirror part's Br_z matches beta times the gradient.

    Only the outer branch (to the right of the most negative Br_z) is
    searched, since that is where the geometric window can lie.  Br_z is
    jet term 3, so every evaluation builds only the jet's 4-term prefix.
    The 4096-point grid on 0.01 h <= r <= 8 h that locates that minimum is
    one array prefix; bisection from the grid minimum to the grid's end
    then refines the root to 1e-14 h.  Raises ValueError when beta is out
    of reach for the model, and NonFinite when the jet on the grid over- or
    underflows to nan.  A grid minimum of -inf still brackets the root, so
    the bisection goes on from there; a Br_z that is not finite at the
    range end or at a midpoint raises NonFinite.
    """
    linear, o_model = split_levitation_model(model)
    target = beta * linear.Bp
    # The split found one linear part and at least one other leaf, so the composite holds a dipole pair.
    h = max(p.h for p in model.parts if isinstance(p, DipolePair))

    def f(r: float) -> float:
        Br_z = _jet_terms(o_model, r, 0.0, 4)[3]
        if not math.isfinite(Br_z):
            raise NonFinite(f"Br_z of the mirror part is {Br_z!r} at r = {r!r} for beta = {beta:g}")
        return Br_z - target

    # A grid or jet that over- or underflows gives inf or nan, silently.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grid = np.linspace(0.01 * h, 8.0 * h, 4096)
        vals = _jet_terms(o_model, grid, 0.0, 4)[3]
    k_min = int(np.argmin(vals))  # the first nan, if there is one
    if math.isnan(vals[k_min]):
        raise NonFinite(f"Br_z of the mirror part is nan on the radius grid for beta = {beta:g}")
    if not (vals[k_min] <= target <= 0.0) or target == 0.0:
        raise ValueError(
            f"beta Bprime = {target:g} is outside the reachable Br_z range "
            f"[{vals[k_min]:g}, 0) of the mirror part"
        )
    lo, hi = float(grid[k_min]), float(grid[-1])
    f(hi)  # every pair (q > 0) has Br_z > 0 > target at 8 h, so this only raises NonFinite
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * h:
            break
    return 0.5 * (lo + hi)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def levitation_sweep(model: AxiFieldModel, b: BodyParams, kappa_values, beta: float) -> list[dict]:
    """Certify the levitating branch across a range of kappa at fixed beta.

    The orbit radius is chosen once so the mirror part realizes the given
    beta; each kappa then fixes the gravity g = kappa mu B' / M that the
    balance presumes.  One :func:`equilibrium._levitation_roots` call solves
    every row.  A failed row carries the name of its :func:`equilibrium._levitation_code`
    (BadSign for g <= 0, the roots' code, NoEquilibrium for a zero tilt) and
    empty numerics.  The others share one jet at r0 and one stacked pass through
    the closed form, which :func:`stability.levitation_conditions` makes on
    one row, and carry NonFinite where their multipliers, pi0, p0 or margin
    are not finite.  A beta out of :func:`radius_for_beta`'s reach raises
    ValueError; every row of a beta >= 0 in reach (B' < 0) carries BadSign.
    """
    linear, _ = split_levitation_model(model)
    r0 = radius_for_beta(model, beta)
    kappas = [float(kappa) for kappa in kappa_values]
    n = len(kappas)
    g = np.array(kappas) * b.mu * linear.Bp / b.M
    nu_r, nu_z, xi2, _, _, code = _levitation_roots(np.full(n, beta), np.array(kappas))
    errors = _error_names(LEVITATION_FAILURES, _levitation_code(code, nu_r, g))
    live = np.flatnonzero(errors == "")
    certified = np.zeros(0, dtype=int)
    numerics = np.zeros((7, 0))  # nu_r, nu_z, xi2, margin, A, B and C of the certified rows
    if live.size:
        jet = eval_jet(model, r0, 0.0)
        nu_r, nu_z, xi2, g = nu_r[live], nu_z[live], xi2[live], g[live]
        omega = np.sqrt(xi2 * g / r0)
        mult = tilted_multipliers(b, jet.Br, jet.Bz, omega, nu_r, nu_z)
        pi0, p0 = _support_momenta(b, r0, np.array([nu_r, np.zeros_like(nu_r), nu_z]), mult)
        _, _, A, B, C, _, margin = _levitation_certificates(b, jet, r0, nu_r, nu_z, mult)
        ok = np.isfinite([*vars(mult).values(), *pi0, p0, margin]).all(axis=0)
        errors[live[~ok]] = "NonFinite"
        certified = live[ok]
        numerics = np.array([nu_r, nu_z, xi2, margin, A, B, C])[:, ok]
    keys = ("kappa", "beta", "r0", "nu_r", "nu_z", "xi2", "verdict", "margin", "A", "B", "C", "error")
    floats = _scatter(n, certified, numerics, math.nan)
    verdicts = _scatter(n, certified, _classify(numerics[3]), "")
    return _rows(keys, [kappas, [beta] * n, [r0] * n, *floats[:3], verdicts, *floats[3:], errors.tolist()])


def stability_map(spec: ScanSpec, model: AxiFieldModel, b: BodyParams) -> list[dict]:
    """Certify equatorial equilibria over a 2-D parameter grid.

    Supported axis and fixed-parameter names are ``r0``, ``pi0`` and
    ``sigma``, each an axis or fixed, never both.  Each cell solves the
    equatorial equilibrium and runs the closed-form certificate; infeasible
    cells carry the name of their :data:`equilibrium.EQUATORIAL_FAILURES`
    code, and cells whose jet or margin is not finite carry ``NonFinite``.

    The axis is sigma e3 in every cell, so the field enters only through
    its jet at (r0, 0), which is one array :func:`fields.eval_jet` call over
    the points of the r0 axis, or at the fixed r0, and the branch tests of
    :func:`equilibrium.solve_orbitron_equatorial` run once per (r0 point, sigma point); each
    cell reads both at its position on the axes.  The closed-form blocks of :func:`potential.hessian_blocks` are then
    elementwise, all cells are certified together on stacked arrays, and
    each output is one column over the grid.  ``spec.outputs`` names fields
    of ``CERTIFICATE_FIELDS``; any other name is a ConfigError, raised
    before any jet.
    """
    known = {"r0", "pi0", "sigma"}
    axes = {spec.axis1.name, spec.axis2.name}
    names = axes | set(spec.fixed)
    if not names <= known:
        raise ConfigError(f"unknown scan parameters {sorted(names - known)}; known: {sorted(known)}")
    unknown = set(spec.outputs) - set(CERTIFICATE_FIELDS)
    if unknown:
        raise ConfigError(f"unknown map outputs {sorted(unknown)}; known: {list(CERTIFICATE_FIELDS)}")
    if len(axes) == 1:
        raise ConfigError("the two scan axes must differ")
    if axes & set(spec.fixed):
        raise ConfigError(f"scan parameters {sorted(axes & set(spec.fixed))} are both an axis and fixed")
    if not {"r0", "pi0"} <= names:
        raise ConfigError("scan needs r0 and pi0 via an axis or a fixed value")

    v1, v2 = spec.axis1.values(), spec.axis2.values()
    n = len(v1) * len(v2)
    at1, at2 = np.divmod(np.arange(n), len(v2))  # each cell's position on each axis
    axes = {spec.axis1.name: (v1, at1), spec.axis2.name: (v2, at2)}
    grid = {name: points[at] for name, (points, at) in axes.items()}
    r0, pi0, sigma = (grid.get(name, np.full(n, float(spec.fixed.get(name, 1.0)))) for name in ("r0", "pi0", "sigma"))
    (radii, at_r), (signs, at_s) = (axes.get(k, (c[:1], np.zeros_like(at1))) for k, c in (("r0", r0), ("sigma", sigma)))
    if not (np.isfinite(r0).all() and np.isfinite(pi0).all()):
        raise ValueError("r0 and pi0 must be finite")
    outside = ~np.isin(sigma, (-1.0, 1.0)) | (r0 <= 0.0) | (b.g != 0.0)
    if outside.any():
        k = int(outside.argmax())  # raises the first offending cell's ValueError, before any jet
        solve_orbitron_equatorial(model, b, float(r0[k]), float(pi0[k]), sigma[k])

    # Cells with a non-finite jet or margin are flagged NonFinite, so their arithmetic stays silent.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        jet = eval_jet(model, radii[:, None], 0.0)
        code, omega2 = (v[at_r, at_s] for v in _equatorial_tests(jet, b, radii[:, None], signs))
        nonfinite = ~np.isfinite(list(jet)).all(axis=0).take(at_r)
        errors = _error_names(EQUATORIAL_FAILURES, code)
        live = np.flatnonzero(code == 0)
        at_live = at_r[live]
        jet = FieldJet(*(v.take(at_live) for v in jet))
        nz, r_live, omega = sigma[live], r0[live], np.sqrt(omega2[live])
        mult = equatorial_multipliers(b, jet.Bz, omega, pi0[live], nz)
        certs = _certify(b, _support_cells(jet, b, r_live, np.zeros(len(live)), nz, mult))
    errors[live[certs.sweep.zero]] = "ZeroPivot"
    nonfinite[live] |= ~np.isfinite(certs.sweep.margin)
    errors[nonfinite] = "NonFinite"
    ok = errors[live] == ""
    certified = live[ok]
    columns = [grid[spec.axis1.name].tolist(), grid[spec.axis2.name].tolist()]
    for name in spec.outputs:
        columns.append(_scatter(n, certified, certs.column(name)[ok], "" if name == "verdict" else math.nan))
    return _rows([spec.axis1.name, spec.axis2.name, *spec.outputs, "error"], [*columns, errors.tolist()])
