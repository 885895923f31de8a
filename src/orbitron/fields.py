"""Axisymmetric magnetostatic field models and their derivative jets.

A field model evaluates, at a point (r, z) of the half plane, the jet of
cylindrical components needed by the equilibrium and stability machinery:
values, first derivatives, and the second derivatives of the axial component.
Supported models are a coaxial pair of point dipoles at z = +h and z = -h
(both with moment +q along the axis), a linear background field, and a sum of
such parts.  All models satisfy the source-free Maxwell equations away from
the dipole points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import ConfigError, NonFinite, SourceSingularity, require

__all__ = [
    "FieldJet",
    "DipolePair",
    "Linear",
    "Composite",
    "AxiFieldModel",
    "eval_jet",
    "model_from_config",
]

# Relative distance to a dipole source below which evaluation is refused.
SOURCE_EPS = 1e-9
_SOURCE_EPS_SQ = SOURCE_EPS * SOURCE_EPS


class FieldJet(NamedTuple):
    """Cylindrical field components and derivatives at one point.

    Each component is a float, or an array holding it at every point of a
    grid (see :func:`eval_jet`).

    Curl-freeness makes Br_z equal to Bz_r, so the mixed derivative is
    stored once, as Bz_r, and Br_z reads it.  The honest check is in the
    tests: every jet term is compared with finite differences of its own
    component (Br_z of Br, Bz_r of Bz).
    """

    Br: float
    Bz: float
    Br_r: float
    Bz_r: float
    Bz_z: float
    Bz_rr: float
    Bz_rz: float
    Bz_zz: float

    @property
    def Br_z(self):
        """dBr/dz, which equals Bz_r in a curl-free field."""
        return self.Bz_r


@dataclass(frozen=True)
class DipolePair:
    """Two identical coaxial point dipoles of strength q at z = +h and z = -h."""

    q: float
    h: float

    def __post_init__(self) -> None:
        if not (self.q > 0 and self.h > 0):
            raise ValueError("dipole pair requires q > 0 and h > 0")


@dataclass(frozen=True)
class Linear:
    """Background field Bz = B0 + Bp z, Br = -Bp r / 2 (uniform gradient)."""

    B0: float
    Bp: float


@dataclass(frozen=True)
class Composite:
    """Superposition of field models; nested composites are flattened, so ``parts`` holds leaves."""

    parts: tuple

    def __post_init__(self) -> None:
        leaves = (p.parts if isinstance(p, Composite) else (p,) for p in self.parts)
        object.__setattr__(self, "parts", tuple(leaf for ps in leaves for leaf in ps))
        if not self.parts:
            raise ValueError("composite field needs at least one part")


AxiFieldModel = Union[DipolePair, Linear, Composite]


def _jet_terms(model: AxiFieldModel, r, z, n: int = 8) -> list:
    """The first ``n`` components of the jet of ``model`` at (r, z), in FieldJet order.

    A pair builds only the terms of the prefix: the values for n <= 2, up to
    Bz_r for n <= 4, up to Bz_z for n = 5 and the curvature terms only for
    n > 5.  The source guard and the inverse powers run first for every n,
    so each n raises where the full jet does, and each term is that of the
    full jet bit for bit.  At z = 0.0, a Python float, a pair computes its
    top source alone (:func:`_midplane_pair_terms`), with the same bits.
    """
    if isinstance(model, DipolePair):
        q, h = model.q, model.h
        if type(z) is float and z == 0.0:
            return _midplane_pair_terms(q, h, r, n)
        # Each component is the top source's term plus the bottom one's, each
        # that of one axial dipole at height Z = z - h (t) or Z = z + h (b) above it.
        Zt, Zb = z - h, z + h
        # Distances in units of h: squaring them cannot underflow the
        # threshold for small h, and products overflow to inf (not
        # OverflowError, as float ** 2 would) for large coordinates.
        u, wt, wb = r / h, Zt / h, Zb / h
        uu = u * u
        # Bools for floats, bool arrays for arrays; the top source is named first.
        near_t, near_b = uu + wt * wt < _SOURCE_EPS_SQ, uu + wb * wb < _SOURCE_EPS_SQ
        if near_t is not False or near_b is not False:
            for near, z_src in ((near_t, h), (near_b, -h)):
                if np.any(near):
                    raise SourceSingularity(
                        f"field evaluated at distance < {SOURCE_EPS:g} h from the source at z = {z_src:g}"
                    )
        # The shared left factors are taken once; every product keeps its
        # left-to-right order, so each term rounds as written out in full.
        r2 = r * r
        Zt2, Zb2 = Zt * Zt, Zb * Zb
        # D^-5/2, D^-7/2 and D^-9/2 for the squared distances D to the top and
        # bottom source.  Each D takes one correctly rounded square root, so a
        # float call gives the element of an array call bit for bit.
        Dt, Db = r2 + Zt2, r2 + Zb2
        scalar = isinstance(Dt, float)
        if scalar:
            dt, db = Dt * Dt * math.sqrt(Dt), Db * Db * math.sqrt(Db)
            # A dt or db that underflowed to 0, where a float quotient raises
            # and an array gives inf, counts as an overflow of the powers.
            if not (dt and db):
                raise _overflow(Dt if not dt or 1.0 / dt / Dt / Dt == math.inf else Db)
        else:
            dt, db = Dt * Dt * np.sqrt(Dt), Db * Db * np.sqrt(Db)
        t5, b5 = 1.0 / dt, 1.0 / db
        t7, b7 = t5 / Dt, b5 / Db
        t9, b9 = t7 / Dt, b7 / Db
        # a float call raises NonFinite where the powers overflow, naming Dt if its powers do and Db otherwise
        if scalar and (t9 == math.inf or b9 == math.inf):
            raise _overflow(Dt if t9 == math.inf else Db)
        q3 = 3.0 * q
        q3r = q3 * r
        Br = q3r * Zt * t5 + q3r * Zb * b5
        Bz = q * (2.0 * Zt2 - r2) * t5 + q * (2.0 * Zb2 - r2) * b5
        if n <= 2:
            return [Br, Bz][:n]
        r2_4, Zt2_4, Zb2_4 = 4.0 * r2, 4.0 * Zt2, 4.0 * Zb2
        Br_r = q3 * Zt * (Zt2 - r2_4) * t7 + q3 * Zb * (Zb2 - r2_4) * b7
        Bz_r = q3r * (r2 - Zt2_4) * t7 + q3r * (r2 - Zb2_4) * b7
        if n <= 4:
            return [Br, Bz, Br_r, Bz_r][:n]
        r2_3 = 3.0 * r2
        Bz_z = q3 * Zt * (r2_3 - 2.0 * Zt2) * t7 + q3 * Zb * (r2_3 - 2.0 * Zb2) * b7
        if n <= 5:
            return [Br, Bz, Br_r, Bz_r, Bz_z]
        q15r = 15.0 * q * r
        r2_24, r2_27 = 24.0 * r2, 27.0 * r2
        r4_m4 = -4.0 * r2 * r2
        return [
            Br, Bz, Br_r, Bz_r, Bz_z,
            q3 * (r4_m4 + r2_27 * Zt2 - Zt2_4 * Zt2) * t9 + q3 * (r4_m4 + r2_27 * Zb2 - Zb2_4 * Zb2) * b9,
            q15r * Zt * (Zt2_4 - r2_3) * t9 + q15r * Zb * (Zb2_4 - r2_3) * b9,
            q3 * (r2_3 * r2 - r2_24 * Zt2 + 8.0 * Zt2 * Zt2) * t9
            + q3 * (r2_3 * r2 - r2_24 * Zb2 + 8.0 * Zb2 * Zb2) * b9,
        ][:n]
    if isinstance(model, Linear):
        # The constants written out: floats for scalar input and, for arrays,
        # every term in the broadcast shape of (r, z), as a pair's terms are.
        Bp = float(model.Bp)
        terms = [-0.5 * Bp * r, model.B0 + Bp * z, -0.5 * Bp, 0.0, Bp, 0.0, 0.0, 0.0][:n]
        if not isinstance(r, np.ndarray) and not isinstance(z, np.ndarray):
            return terms
        shape = np.broadcast_shapes(np.shape(r), np.shape(z))
        return [np.full(shape, t) for t in terms]
    if isinstance(model, Composite):
        total = _jet_terms(model.parts[0], r, z, n)
        for part in model.parts[1:]:
            total = list(map(operator.add, total, _jet_terms(part, r, z, n)))
        return total
    raise TypeError(f"unknown field model {type(model).__name__}")


def _midplane_pair_terms(q: float, h: float, r, n: int) -> list:
    """The first ``n`` jet components of ``DipolePair(q, h)`` at (r, 0.0), from its top source alone.

    On the midplane Zb = -Zt, so Db = Dt, and each bottom term is the top
    one (Bz, Bz_r, Bz_rr, Bz_zz) or its negation (Br, Br_r, Bz_z, Bz_rz)
    exactly, as a sign change commutes with rounding.  Each component is
    then t + t or t - t (+0.0, or NaN where t is not finite): the bits of
    the two-source block in :func:`_jet_terms`, including its raises.  The
    source guard has nothing to do here: every point of the midplane is at
    least h from both sources, as (r/h)^2 + (-h/h)^2 >= 1.
    """
    # The two-source block with the top source's names; see there for each step.
    Z = -h
    r2 = r * r
    Z2 = Z * Z
    D = r2 + Z2
    scalar = isinstance(D, float)
    if scalar:
        d = D * D * math.sqrt(D)
        if not d:
            raise _overflow(D)
    else:
        d = D * D * np.sqrt(D)
    t5 = 1.0 / d
    t7 = t5 / D
    t9 = t7 / D
    if scalar and t9 == math.inf:
        raise _overflow(D)
    q3 = 3.0 * q
    q3r = q3 * r
    Br = q3r * Z * t5
    Bz = q * (2.0 * Z2 - r2) * t5
    if n <= 2:
        return [Br - Br, Bz + Bz][:n]
    r2_4, Z2_4 = 4.0 * r2, 4.0 * Z2
    Br_r = q3 * Z * (Z2 - r2_4) * t7
    Bz_r = q3r * (r2 - Z2_4) * t7
    if n <= 4:
        return [Br - Br, Bz + Bz, Br_r - Br_r, Bz_r + Bz_r][:n]
    r2_3 = 3.0 * r2
    Bz_z = q3 * Z * (r2_3 - 2.0 * Z2) * t7
    if n <= 5:
        return [Br - Br, Bz + Bz, Br_r - Br_r, Bz_r + Bz_r, Bz_z - Bz_z]
    q15r = 15.0 * q * r
    Bz_rr = q3 * (-4.0 * r2 * r2 + 27.0 * r2 * Z2 - Z2_4 * Z2) * t9
    Bz_rz = q15r * Z * (Z2_4 - r2_3) * t9
    Bz_zz = q3 * (r2_3 * r2 - 24.0 * r2 * Z2 + 8.0 * Z2 * Z2) * t9
    return [
        Br - Br, Bz + Bz, Br_r - Br_r, Bz_r + Bz_r, Bz_z - Bz_z, Bz_rr + Bz_rr, Bz_rz - Bz_rz, Bz_zz + Bz_zz,
    ][:n]


def _overflow(D: float) -> NonFinite:
    return NonFinite(f"dipole jet overflows at squared distance {D:g} from the source")


def eval_jet(model: AxiFieldModel, r, z) -> FieldJet:
    """Evaluate the cylindrical derivative jet of ``model`` at (r, z).

    r and z are floats or numpy arrays that broadcast against each other;
    every component of the jet then has the broadcast shape, so a whole grid
    costs one call.  Python floats in give Python floats out.

    Raises SourceSingularity if (r, z), or any point of the arrays, lies
    within ``SOURCE_EPS * h`` of a dipole source point.  A NaN coordinate
    is not near any source and evaluates to NaN components.
    """
    return FieldJet._make(_jet_terms(model, r, z))


def _components(a) -> list:
    """The components of a along its last axis: Python floats for one vector, arrays for a stack."""
    a = np.asarray(a, dtype=float)
    return a.tolist() if a.ndim == 1 else [a[..., k] for k in range(a.shape[-1])]


def _join(components) -> np.ndarray:
    """Inverse of :func:`_components`: a vector from floats, a stack of shape (..., n) from arrays."""
    return np.array(components) if isinstance(components[0], float) else np.stack(components, axis=-1)


def _field_components(jet, x1, x2, r) -> tuple:
    """Cartesian components of B at in-plane components (x1, x2), from the jet's terms (FieldJet order) at r = |x_perp|."""
    r = r + (r == 0.0)  # 1 on the axis, where x_perp = 0 zeroes the in-plane components
    return jet[0] * x1 / r, jet[0] * x2 / r, jet[1]


def model_from_config(cfg: dict) -> AxiFieldModel:
    """Build a field model from its JSON record; its keys and numbers follow :func:`errors.require`."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError("field record must be an object with a 'type' key")
    kind = cfg["type"]
    try:
        if kind == "dipole_pair":
            return DipolePair(q=require(cfg, "q", float, "field"), h=require(cfg, "h", float, "field"))
        if kind == "linear":
            return Linear(B0=require(cfg, "B0", float, "field"), Bp=require(cfg, "Bprime", float, "field"))
        if kind == "composite":
            return Composite(tuple(model_from_config(p) for p in require(cfg, "parts", list, "field")))
    except ValueError as exc:
        raise ConfigError(f"bad field record: {exc}") from exc
    raise ConfigError(f"unknown field type {kind!r}")

