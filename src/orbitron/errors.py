"""Exception types shared across the package, and the rules for a config key and number.

Every domain error derives from :class:`OrbitronError` so callers can
distinguish numerical/physical failures from ordinary misuse (which raises
the builtin ``ValueError``/``TypeError``).
"""

from __future__ import annotations

import math


class OrbitronError(Exception):
    """Base class for domain errors raised by this package."""


class ConfigError(OrbitronError):
    """A run configuration is malformed or inconsistent."""


def finite_float(value, where: str) -> float:
    """A config number, a JSON int or float but not a bool, as a finite float.

    float() would also take strings and booleans; JSON admits NaN and Infinity.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be of type float")
    try:
        x = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{where} is out of the float range") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {x!r}")
    return x


_REQUIRED = object()


def require(sec: dict, key: str, kind, where: str, default=_REQUIRED):
    """``sec[key]`` as a ``kind``; an optional key gives ``default`` only when it is absent.

    A JSON true or false is a bool only, never an int or a float, and a float
    follows :func:`finite_float`.
    """
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"missing {key!r} in {where}")
        return default
    value = sec[key]
    if kind is float:
        return finite_float(value, f"{where}.{key}")
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{where}.{key} must be of type {kind.__name__}")
    return value


class SourceSingularity(OrbitronError):
    """Field evaluation was requested too close to a dipole source point."""


class AxisDegeneracy(OrbitronError):
    """A quantity defined only off the symmetry axis was requested at r = 0.

    ``DipolePotential.gradient_terms`` and ``potential.hessian_blocks`` raise it.
    """


class NonFinite(OrbitronError):
    """A computation produced a NaN or infinity.

    That is an integrator state; a float field jet whose powers of the
    distance over- or underflow; an equilibrium's omega, pi0, p0,
    multipliers or residual; a certificate margin or condition; a float
    quotient whose divisor underflows to 0 (the multiplier lambda2, the
    dipole solver's axis line and omega^2, the levitation kappa and the
    scaled levitation diagnostics); or, as the error name of a row, a scan
    cell's jet or margin, a sweep row's multipliers, pi0, p0 or margin, and
    the conditions of a window row.
    """


class NoEquilibrium(OrbitronError):
    """No relative equilibrium branch with a positive spin rate was found."""


class NotMirrorSymmetric(OrbitronError):
    """The field is not mirror symmetric about z = 0 at the requested radius."""


class WrongFieldSign(OrbitronError):
    """The field gradient has the wrong sign to balance the centrifugal force."""


class NoRealSolution(OrbitronError):
    """The levitation discriminant is negative; no real axis tilt exists."""


class NegativeCentrifugal(OrbitronError):
    """The levitation branch requires a non-positive squared spin rate."""


class BadSign(OrbitronError):
    """A levitation sign constraint is violated (non-negative beta or zero kappa)."""


class PolarDegeneracy(OrbitronError):
    """The equilibrium axis lies in the orbital plane; the variation chart fails."""


class NotEquatorial(OrbitronError):
    """The equilibrium axis is tilted; the equatorial certificate does not apply."""


class ZeroPivot(OrbitronError):
    """An elimination pivot vanished to working precision."""

