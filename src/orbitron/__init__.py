"""Reduced dynamics, relative equilibria, and stability certificates for a
magnetized symmetric top in axisymmetric magnetic and gravity fields.

The API lives in the submodules: ``fields``, ``potential``, ``core``,
``dynamics``, ``equilibrium``, ``stability``, ``scan``, ``errors`` and ``cli``.
"""

__version__ = "0.1.0"
