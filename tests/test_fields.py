"""Tests for the axisymmetric field models and their derivative jets."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from orbitron.errors import AxisDegeneracy, ConfigError, NonFinite, SourceSingularity
from orbitron.fields import (
    Composite,
    DipolePair,
    Linear,
    _components,
    _field_components,
    _jet_terms,
    _join,
    eval_jet,
    SOURCE_EPS,
    model_from_config,
)

JET_FIELDS = ("Br", "Bz", "Br_r", "Br_z", "Bz_r", "Bz_z", "Bz_rr", "Bz_rz", "Bz_zz")


def _jet_scale(j):
    return max(abs(getattr(j, k)) for k in JET_FIELDS)


def _clear_of_sources(model, r, z, margin=0.1):
    if isinstance(model, DipolePair):
        return math.hypot(r, z - model.h) > margin and math.hypot(r, z + model.h) > margin
    if isinstance(model, Composite):
        return all(_clear_of_sources(p, r, z, margin) for p in model.parts)
    return True


def _sample_points(model, rng, n):
    pts = []
    while len(pts) < n:
        r = rng.uniform(0.05, 4.0)
        z = rng.uniform(-3.0, 3.0)
        if _clear_of_sources(model, r, z):
            pts.append((r, z))
    return pts


def test_dipole_pair_axis_value():
    # each unit source at z = +-1 contributes q(2h^2)/(h^2)^{5/2} = 2q/h^3 at the origin
    j = eval_jet(DipolePair(1.0, 1.0), 0.0, 0.0)
    assert math.isclose(j.Bz, 4.0, rel_tol=1e-15)
    assert j.Br == 0.0


def test_linear_model_values():
    j = eval_jet(Linear(2.0, 3.0), 1.0, 1.0)
    assert j.Bz == 5.0
    assert j.Br == -1.5
    assert j.Bz_z == 3.0
    assert j.Br_r == -1.5
    assert j.Bz_rr == 0.0 and j.Bz_rz == 0.0 and j.Bz_zz == 0.0


def dipole_pair_midplane(q: float, h: float, r0: float) -> tuple[float, float, float, float]:
    """Closed-form midplane quantities of the dipole pair at radius r0.

    Returns (Bz, Bz_r, Bz_zz, radial_combo) where radial_combo is the
    stability combination (3/r) Bz_r + Bz_rr.  With D0 = r0**2 + h**2:

        Bz           =  2 q (2 h**2 - r0**2) D0**-5/2
        Bz_r         = -6 q r0 (4 h**2 - r0**2) D0**-7/2
        Bz_zz        =  6 q (3 r0**4 - 24 r0**2 h**2 + 8 h**4) D0**-9/2
        radial_combo = -6 q (r0**4 - 18 r0**2 h**2 + 16 h**4) D0**-9/2
    """
    if not (q > 0 and h > 0):
        raise ValueError("dipole pair requires q > 0 and h > 0")
    if not r0 > 0:
        raise ValueError("midplane radius must be positive")
    r2 = r0 * r0
    h2 = h * h
    D0 = r2 + h2
    bz = 2.0 * q * (2.0 * h2 - r2) * D0 ** -2.5
    bz_r = -6.0 * q * r0 * (4.0 * h2 - r2) * D0 ** -3.5
    bz_zz = 6.0 * q * (3.0 * r2 * r2 - 24.0 * r2 * h2 + 8.0 * h2 * h2) * D0 ** -4.5
    combo = -6.0 * q * (r2 * r2 - 18.0 * r2 * h2 + 16.0 * h2 * h2) * D0 ** -4.5
    return bz, bz_r, bz_zz, combo




def test_midplane_example_values():
    bz, bz_r, bz_zz, combo = dipole_pair_midplane(1.0, 1.0, 1.0)
    assert math.isclose(bz, 2.0 * 2.0 ** (-2.5), rel_tol=1e-15)
    j = eval_jet(DipolePair(1.0, 1.0), 0.8, 0.0)
    assert abs(j.Bz_r - (-2.8556)) < 1e-3
    # closed form for the mid-plane radial slope of the pair: 6 q r (r^2 - 4h^2) D^{-7/2}
    r, h, q = 0.8, 1.0, 1.0
    D = r * r + h * h
    assert math.isclose(j.Bz_r, 6.0 * q * r * (r * r - 4.0 * h * h) * D ** (-3.5), rel_tol=1e-13)


def test_midplane_matches_full_jet():
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = rng.uniform(0.3, 3.0)
        h = rng.uniform(0.4, 2.0)
        r0 = rng.uniform(0.1, 3.0 * h)
        bz, bz_r, bz_zz, combo = dipole_pair_midplane(q, h, r0)
        j = eval_jet(DipolePair(q, h), r0, 0.0)
        assert math.isclose(bz, j.Bz, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(bz_r, j.Bz_r, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(bz_zz, j.Bz_zz, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(combo, 3.0 * j.Bz_r / r0 + j.Bz_rr, rel_tol=1e-10, abs_tol=1e-12)


def test_midplane_radial_combo_polynomial():
    # combo = -6 q (r^4 - 18 r^2 h^2 + 16 h^4) D^{-9/2} summed over the pair
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = rng.uniform(0.3, 3.0)
        h = rng.uniform(0.4, 2.0)
        r = rng.uniform(0.1, 3.0 * h)
        _, _, _, combo = dipole_pair_midplane(q, h, r)
        D = r * r + h * h
        poly = -6.0 * q * (r**4 - 18.0 * r**2 * h**2 + 16.0 * h**4) * D ** (-4.5)
        assert math.isclose(combo, poly, rel_tol=1e-11, abs_tol=1e-13)
        # the same expression with an 18 -> 28 coefficient is a different function
        poly28 = -6.0 * q * (r**4 - 28.0 * r**2 * h**2 + 16.0 * h**4) * D ** (-4.5)
        assert abs(poly28 - combo) > 1e-3 * abs(6.0 * q * 10.0 * r**2 * h**2 * D ** (-4.5))


def test_midplane_mirror_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(10):
        q = rng.uniform(0.3, 3.0)
        h = rng.uniform(0.4, 2.0)
        r = rng.uniform(0.1, 3.0 * h)
        j = eval_jet(DipolePair(q, h), r, 0.0)
        assert j.Br == 0.0
        assert j.Bz_z == 0.0
        assert j.Bz_rz == 0.0


def test_jet_matches_finite_differences():
    rng = np.random.default_rng(14)
    models = (
        DipolePair(1.0, 1.0),
        Linear(0.7, 2.1),
        Composite((Linear(0.5, 1.2), DipolePair(1.3, 0.9))),
    )
    for model in models:
        for r, z in _sample_points(model, rng, 40):
            j = eval_jet(model, r, z)
            sc = _jet_scale(j)
            L = max(1.0, r, abs(z))
            h1 = 1e-6 * L
            fd_first = {
                "Br_r": (eval_jet(model, r + h1, z).Br - eval_jet(model, r - h1, z).Br) / (2 * h1),
                "Br_z": (eval_jet(model, r, z + h1).Br - eval_jet(model, r, z - h1).Br) / (2 * h1),
                "Bz_r": (eval_jet(model, r + h1, z).Bz - eval_jet(model, r - h1, z).Bz) / (2 * h1),
                "Bz_z": (eval_jet(model, r, z + h1).Bz - eval_jet(model, r, z - h1).Bz) / (2 * h1),
            }
            for k, v in fd_first.items():
                a = getattr(j, k)
                assert abs(a - v) <= 1e-6 * max(abs(a), 1e-3 * sc)
            # second derivatives as first differences of the validated slopes
            fd_second = {
                "Bz_rr": (eval_jet(model, r + h1, z).Bz_r - eval_jet(model, r - h1, z).Bz_r) / (2 * h1),
                "Bz_rz": (eval_jet(model, r, z + h1).Bz_r - eval_jet(model, r, z - h1).Bz_r) / (2 * h1),
                "Bz_zz": (eval_jet(model, r, z + h1).Bz_z - eval_jet(model, r, z - h1).Bz_z) / (2 * h1),
            }
            for k, v in fd_second.items():
                a = getattr(j, k)
                assert abs(a - v) <= 1e-5 * max(abs(a), 1e-3 * sc)


def maxwell_residual(model, r, z):
    """Return (divergence, curl) of the model field at (r, z).

    Both vanish for an exact solution.  On the axis the divergence uses the
    regular limit Bz_z + 2 Br_r.
    """
    jet = eval_jet(model, r, z)
    if r != 0.0:
        div = jet.Bz_z + jet.Br_r + jet.Br / r
    else:
        div = jet.Bz_z + 2.0 * jet.Br_r
    curl = jet.Br_z - jet.Bz_r
    return div, curl


def test_maxwell_residuals():
    rng = np.random.default_rng(15)
    for model in (DipolePair(1.0, 1.0), Linear(0.7, 2.1)):
        for r, z in _sample_points(model, rng, 200):
            j = eval_jet(model, r, z)
            div, curl = maxwell_residual(model, r, z)
            scale = math.hypot(j.Br, j.Bz) + max(
                abs(j.Br_r), abs(j.Br_z), abs(j.Bz_r), abs(j.Bz_z)
            ) * r
            assert abs(div) <= 1e-9 * scale
            assert abs(curl) <= 1e-9 * scale


def test_curl_component_is_exact():
    rng = np.random.default_rng(16)
    model = DipolePair(1.0, 1.0)
    for r, z in _sample_points(model, rng, 50):
        j = eval_jet(model, r, z)
        assert j.Br_z == j.Bz_r


def test_axis_divergence_limit():
    j = eval_jet(DipolePair(1.0, 1.0), 0.0, 0.3)
    assert j.Br == 0.0
    div, curl = maxwell_residual(DipolePair(1.0, 1.0), 0.0, 0.3)
    assert abs(div) <= 1e-9 * max(1e-12, abs(j.Bz_z))
    assert curl == 0.0


def test_harmonic_identity_for_dipole():
    rng = np.random.default_rng(17)
    model = DipolePair(1.0, 1.0)
    for r, z in _sample_points(model, rng, 200):
        j = eval_jet(model, r, z)
        harm = j.Bz_zz + j.Bz_rr + j.Bz_r / r
        scale = max(abs(j.Bz_zz), abs(j.Bz_rr), abs(j.Bz_r) / r)
        assert abs(harm) <= 1e-12 * max(scale, 1e-300)


def test_source_singularity_guard():
    model = DipolePair(1.0, 1.0)
    with pytest.raises(SourceSingularity):
        eval_jet(model, 0.0, 1.0)
    with pytest.raises(SourceSingularity):
        eval_jet(model, 0.0, -1.0 + 1e-12)
    # just outside the guard radius is fine
    eval_jet(model, 0.01, 1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        DipolePair(0.0, 1.0)
    with pytest.raises(ValueError):
        DipolePair(1.0, -1.0)
    with pytest.raises(ValueError):
        Composite(())
    with pytest.raises(ValueError):
        dipole_pair_midplane(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        dipole_pair_midplane(1.0, 0.0, 0.5)


def test_composite_is_sum_of_parts():
    parts = (Linear(0.5, 1.2), DipolePair(1.3, 0.9))
    comp = Composite(parts)
    rng = np.random.default_rng(18)
    for r, z in _sample_points(comp, rng, 20):
        j = eval_jet(comp, r, z)
        j1 = eval_jet(parts[0], r, z)
        j2 = eval_jet(parts[1], r, z)
        for k in JET_FIELDS:
            assert getattr(j, k) == getattr(j1, k) + getattr(j2, k)


def test_nested_composites_are_flattened():
    a, b, c = Linear(0.5, 1.2), DipolePair(1.3, 0.9), DipolePair(0.4, 1.7)
    flat = Composite((a, b, c))
    nested = (
        Composite((Composite((a, b)), c)),
        Composite((a, Composite((b, c)))),
        Composite((Composite((a, Composite((b,)))), Composite((c,)))),
    )
    record = {"type": "composite", "parts": [model_to_config(a), model_to_config(Composite((b, c)))]}
    r, z = np.meshgrid(np.linspace(0.1, 3.0, 7), np.linspace(-2.5, 2.5, 9))
    for model in (*nested, model_from_config(record)):
        assert model.parts == flat.parts
        np.testing.assert_array_equal(eval_jet(model, r, z), eval_jet(flat, r, z))
        for ri, zi in _sample_points(flat, np.random.default_rng(5), 10):
            assert eval_jet(model, ri, zi) == eval_jet(flat, ri, zi)


# Cartesian assemblies of a jet: the references for the potential's gradients
# and for its closed-form Hessian blocks at the support point.


def cartesian_field(jet, x):
    """Cartesian field vectors at points x of shape (..., 3), from their jet at (|x_perp|, x3).

    Elementwise, so the result has shape (..., 3).  The in-plane components
    are zero wherever r = 0.
    """
    x1, x2, _ = _components(x)
    return _join(_field_components(jet, x1, x2, np.hypot(x1, x2)))


def cartesian_jacobian(jet, x):
    """Matrices dB_i/dx_j, of shape (..., 3, 3), assembled from the cylindrical jet at points x.

    The reference for the closed-form contraction in DipolePotential.grad_x.
    Raises AxisDegeneracy if any point has r = 0.
    """
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    if (r == 0.0).any():
        raise AxisDegeneracy("Cartesian jacobian is assembled off axis only")
    n1 = x[..., 0] / r
    n2 = x[..., 1] / r
    f = jet.Br / r
    g = jet.Br_r - f
    J = np.empty(r.shape + (3, 3))
    J[..., 0, 0] = f + g * n1 * n1
    J[..., 0, 1] = J[..., 1, 0] = g * n1 * n2
    J[..., 1, 1] = f + g * n2 * n2
    J[..., 0, 2] = jet.Br_z * n1
    J[..., 1, 2] = jet.Br_z * n2
    J[..., 2, 0] = jet.Bz_r * n1
    J[..., 2, 1] = jet.Bz_r * n2
    J[..., 2, 2] = jet.Bz_z
    return J


def cartesian_hessian(jet, x):
    """Arrays H[..., i, c, d] = d^2 B_i / dx_c dx_d at points x of shape (..., 3).

    The field is a gradient of a harmonic scalar, so each array is totally
    symmetric in i, c, d; the in-plane block is expressed through axial
    derivatives via the Maxwell identities, which keeps the assembly free of
    third cylindrical derivatives of Br.  Raises AxisDegeneracy if any point
    has r = 0.
    """
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    if (r == 0.0).any():
        raise AxisDegeneracy("Cartesian hessian is assembled off axis only")
    # Index axes trail the point axes, so the jet components get one more axis.
    r = r[..., None]
    Br, Bz_r, Bz_z, Bz_rr, Bz_rz = (
        np.asarray(v)[..., None] for v in (jet.Br, jet.Bz_r, jet.Bz_z, jet.Bz_rr, jet.Bz_rz)
    )
    n = x[..., :2] / r
    n_a, n_c, n_d = n[..., :, None, None], n[..., None, :, None], n[..., None, None, :]
    nn = n[..., :, None] * n[..., None, :]
    nnn = nn[..., None] * n_d
    eye = np.eye(2)
    H = np.empty(n.shape[:-1] + (3, 3, 3))
    # In-plane block d^2 B_A / dx_C dx_D for A, C, D in {1, 2}.
    sym = n_a * eye + eye[:, None, :] * n_c + eye[:, :, None] * n_d
    trace_coef = ((Bz_z + 2.0 * Br / r) / r)[..., None, None]
    H[..., :2, :2, :2] = -Bz_rz[..., None, None] * nnn - trace_coef * (sym - 4.0 * nnn)
    # One axial index: d^2 B_3 / dx_C dx_D and its symmetric images.
    v = (Bz_r / r)[..., None] * eye + (Bz_rr - Bz_r / r)[..., None] * nn
    H[..., 2, :2, :2] = H[..., :2, 2, :2] = H[..., :2, :2, 2] = v
    # Two axial indices.
    H[..., 2, 2, :2] = H[..., 2, :2, 2] = H[..., :2, 2, 2] = Bz_rz * n
    H[..., 2, 2, 2] = jet.Bz_zz
    return H


def test_cartesian_field_rotates_components():
    model = DipolePair(1.0, 1.0)
    rng = np.random.default_rng(19)
    for _ in range(20):
        r = rng.uniform(0.2, 3.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        z = rng.uniform(-0.6, 0.6)
        x = np.array([r * np.cos(phi), r * np.sin(phi), z])
        j = eval_jet(model, r, z)
        Bvec = cartesian_field(j, x)
        n = x[:2] / r
        np.testing.assert_allclose(Bvec[:2], j.Br * n, rtol=0, atol=1e-14 * max(1.0, abs(j.Br)))
        assert Bvec[2] == j.Bz


def test_cartesian_jacobian_structure_on_xaxis():
    model = DipolePair(1.0, 1.0)
    r = 0.8
    j = eval_jet(model, r, 0.0)
    J = cartesian_jacobian(j, np.array([r, 0.0, 0.0]))
    assert J[0, 0] == j.Br_r
    assert math.isclose(J[1, 1], j.Br / r, abs_tol=1e-15)
    assert J[2, 0] == j.Bz_r
    assert J[0, 1] == 0.0 and J[1, 0] == 0.0 and J[2, 1] == 0.0 and J[1, 2] == 0.0
    assert J[0, 2] == j.Br_z
    np.testing.assert_allclose(J, J.T, rtol=0, atol=1e-14 * max(1.0, float(np.max(np.abs(J)))))
    assert abs(np.trace(J)) <= 1e-12 * max(1.0, float(np.max(np.abs(J))))


def test_cartesian_jacobian_matches_finite_differences():
    rng = np.random.default_rng(20)
    for model in (DipolePair(1.0, 1.0), Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))):
        for _ in range(15):
            r = rng.uniform(0.3, 2.5)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            z = rng.uniform(-0.6, 0.6)
            x = np.array([r * np.cos(phi), r * np.sin(phi), z])
            J = cartesian_jacobian(eval_jet(model, r, z), x)
            scale = max(1.0, float(np.max(np.abs(J))))
            h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
            for c in range(3):
                e = np.zeros(3)
                e[c] = h
                xp, xm = x + e, x - e
                jp = eval_jet(model, math.hypot(xp[0], xp[1]), xp[2])
                jm = eval_jet(model, math.hypot(xm[0], xm[1]), xm[2])
                fd = (cartesian_field(jp, xp) - cartesian_field(jm, xm)) / (2.0 * h)
                np.testing.assert_allclose(J[:, c], fd, rtol=0, atol=1e-6 * scale)


def test_cartesian_jacobian_axis_degeneracy():
    j = eval_jet(DipolePair(1.0, 1.0), 0.0, 0.3)
    with pytest.raises(AxisDegeneracy):
        cartesian_jacobian(j, np.array([0.0, 0.0, 0.3]))


def test_cartesian_assembly_broadcasts_over_points():
    model = Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))
    for x in (np.array([[0.9, -0.4, 0.3], [0.2, 0.7, -0.5]]), np.array([[0.9, -0.4, 0.3], [0.0, 0.0, 0.4]])):
        jet = eval_jet(model, np.hypot(x[:, 0], x[:, 1]), x[:, 2])
        rows = [eval_jet(model, float(np.hypot(p[0], p[1])), float(p[2])) for p in x]
        B = cartesian_field(jet, x)
        assert B.shape == (2, 3)
        np.testing.assert_array_equal(B, [cartesian_field(j, p) for j, p in zip(rows, x)])
        if x[1, 0] == 0.0:
            # the on-axis row has no in-plane field, and its derivatives are undefined
            assert B[1, 0] == 0.0 and B[1, 1] == 0.0
            for assemble in (cartesian_jacobian, cartesian_hessian):
                with pytest.raises(AxisDegeneracy):
                    assemble(jet, x)
        else:
            J = cartesian_jacobian(jet, x)
            assert J.shape == (2, 3, 3)
            np.testing.assert_array_equal(J, [cartesian_jacobian(j, p) for j, p in zip(rows, x)])
            H = cartesian_hessian(jet, x)
            assert H.shape == (2, 3, 3, 3)
            np.testing.assert_array_equal(H, [cartesian_hessian(j, p) for j, p in zip(rows, x)])


def test_cartesian_hessian_symmetry_and_support_entries():
    model = DipolePair(1.0, 1.0)
    r = 0.8
    j = eval_jet(model, r, 0.0)
    H = cartesian_hessian(j, np.array([r, 0.0, 0.0]))
    for a in range(3):
        np.testing.assert_array_equal(H[a], H[a].T)
    np.testing.assert_array_equal(H[0, 1], H[1, 0].T)
    # mid-plane support point: mirror symmetry kills the mixed entries
    assert H[2, 0, 1] == 0.0
    assert H[2, 1, 2] == 0.0
    assert H[0, 0, 1] == 0.0
    assert H[1, 0, 1] == H[0, 1, 1]
    assert H[2, 0, 0] == j.Bz_rr
    assert H[2, 2, 2] == j.Bz_zz
    assert math.isclose(H[2, 1, 1], j.Bz_r / r, rel_tol=1e-14)


def test_cartesian_hessian_off_plane_entry_sign():
    # B1 = x1 f(r, z) with f = Br / r, so d2 B1 / dx2^2 on the zx plane is
    # (Br_r - Br/r)/r; by the divergence constraint this equals
    # -(Bz_z + 2 Br/r)/r.  The sign of the first form matters: its negation
    # is wrong wherever the entry is nonzero.
    model = DipolePair(1.0, 1.0)
    r, z = 0.6, 0.4
    j = eval_jet(model, r, z)
    H = cartesian_hessian(j, np.array([r, 0.0, z]))
    plus_form = (j.Br_r - j.Br / r) / r
    div_form = -(j.Bz_z + 2.0 * j.Br / r) / r
    assert math.isclose(H[0, 1, 1], plus_form, rel_tol=1e-12)
    assert math.isclose(H[0, 1, 1], div_form, rel_tol=1e-12)
    assert abs(plus_form) > 1.0
    assert not math.isclose(H[0, 1, 1], -plus_form, rel_tol=1e-3)


def test_cartesian_hessian_matches_jacobian_differences():
    rng = np.random.default_rng(21)
    for model in (DipolePair(1.0, 1.0), Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))):
        for _ in range(10):
            r = rng.uniform(0.3, 2.2)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            z = rng.uniform(-0.5, 0.5)
            x = np.array([r * np.cos(phi), r * np.sin(phi), z])
            H = cartesian_hessian(eval_jet(model, r, z), x)
            scale = max(1.0, float(np.max(np.abs(H))))
            h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
            for c in range(3):
                e = np.zeros(3)
                e[c] = h
                xp, xm = x + e, x - e
                jp = eval_jet(model, math.hypot(xp[0], xp[1]), xp[2])
                jm = eval_jet(model, math.hypot(xm[0], xm[1]), xm[2])
                fd = (cartesian_jacobian(jp, xp) - cartesian_jacobian(jm, xm)) / (2.0 * h)
                np.testing.assert_allclose(H[:, :, c], fd, rtol=0, atol=2e-6 * scale)


def _loop_hessian(jet, x):
    """The per-index loop assembly of the Cartesian Hessian, as a reference for the array form."""
    r = float(np.hypot(x[0], x[1]))
    n = (x[0] / r, x[1] / r)
    T = (jet.Bz_z + 2.0 * jet.Br / r) / r
    H = np.empty((3, 3, 3))
    for a, c, d in itertools.product(range(2), repeat=3):
        sym = n[a] * (c == d) + n[c] * (a == d) + n[d] * (a == c)
        H[a, c, d] = -jet.Bz_rz * n[a] * n[c] * n[d] - T * (sym - 4.0 * n[a] * n[c] * n[d])
    for c, d in itertools.product(range(2), repeat=2):
        H[2, c, d] = H[c, 2, d] = H[c, d, 2] = (jet.Bz_r / r) * (c == d) + (jet.Bz_rr - jet.Bz_r / r) * n[c] * n[d]
    for c in range(2):
        H[2, 2, c] = H[2, c, 2] = H[c, 2, 2] = jet.Bz_rz * n[c]
    H[2, 2, 2] = jet.Bz_zz
    return H


def test_cartesian_hessian_matches_loop_assembly():
    rng = np.random.default_rng(23)
    model = Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))
    for _ in range(10):
        r, phi, z = rng.uniform(0.3, 2.2), rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-0.5, 0.5)
        x = np.array([r * np.cos(phi), r * np.sin(phi), z])
        jet = eval_jet(model, float(np.hypot(x[0], x[1])), z)
        H = cartesian_hessian(jet, x)
        np.testing.assert_allclose(H, _loop_hessian(jet, x), rtol=0, atol=1e-14 * np.abs(H).max())


def test_cartesian_hessian_total_symmetry_random_points():
    rng = np.random.default_rng(22)
    model = Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))
    for _ in range(10):
        r = rng.uniform(0.3, 2.2)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        z = rng.uniform(-0.5, 0.5)
        x = np.array([r * np.cos(phi), r * np.sin(phi), z])
        H = cartesian_hessian(eval_jet(model, r, z), x)
        tol = 1e-13 * max(1.0, float(np.max(np.abs(H))))
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            np.testing.assert_allclose(H, np.transpose(H, perm), rtol=0, atol=tol)


def model_to_config(model):
    """Inverse of :func:`model_from_config`."""
    if isinstance(model, DipolePair):
        return {"type": "dipole_pair", "q": model.q, "h": model.h}
    if isinstance(model, Linear):
        return {"type": "linear", "B0": model.B0, "Bprime": model.Bp}
    if isinstance(model, Composite):
        return {"type": "composite", "parts": [model_to_config(p) for p in model.parts]}
    raise TypeError(f"unknown field model {type(model).__name__}")


def test_config_roundtrip():
    models = (
        DipolePair(1.3, 0.9),
        Linear(0.5, 1.2),
        Composite((Linear(0.5, 1.2), DipolePair(1.3, 0.9))),
    )
    for m in models:
        again = model_from_config(model_to_config(m))
        assert model_to_config(again) == model_to_config(m)


def test_config_errors():
    with pytest.raises(ConfigError):
        model_from_config({"type": "unknown"})
    with pytest.raises(ConfigError):
        model_from_config({"q": 1.0, "h": 1.0})
    with pytest.raises(ConfigError):
        model_from_config({"type": "dipole_pair", "q": 1.0})
    with pytest.raises(ConfigError):
        model_from_config([1, 2, 3])
    with pytest.raises(ConfigError):
        model_from_config({"type": "composite", "parts": []})


ARRAY_MODELS = (
    DipolePair(1.3, 0.9),
    Linear(0.7, -1.3),
    Composite((DipolePair(1.0, 1.0), DipolePair(0.5, 2.0))),
    Composite((Linear(1.0, 3.0), DipolePair(1.0, 1.0))),
)


@pytest.mark.parametrize("model", ARRAY_MODELS, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize(
    "r, z",
    [
        (np.linspace(0.05, 3.0, 7), 0.0),
        (0.8, np.linspace(-2.5, 2.5, 6)),
        (np.linspace(0.05, 3.0, 4)[:, None], np.array([-0.3, 0.0, 0.45])),
        (np.array([[0.2, 1.4], [2.2, 0.6]]), np.array([[0.3, -0.7], [1.5, 0.0]])),
    ],
)
def test_array_jet_matches_pointwise_jets(model, r, z):
    shape = np.broadcast_shapes(np.shape(r), np.shape(z))
    jet = eval_jet(model, r, z)
    rs, zs = np.broadcast_to(r, shape), np.broadcast_to(z, shape)
    for idx in np.ndindex(shape):
        ref = eval_jet(model, float(rs[idx]), float(zs[idx]))
        for k in JET_FIELDS:
            got = getattr(jet, k)
            assert isinstance(got, np.ndarray) and got.shape == shape
            assert got[idx] == getattr(ref, k)


def test_linear_array_jet_takes_broadcast_shape():
    jet = eval_jet(Linear(2.0, 3.0), np.array([[1.0], [2.0]]), np.array([0.0, 1.0, 2.0]))
    for k in JET_FIELDS:
        assert getattr(jet, k).shape == (2, 3)
    assert jet.Br_r.tolist() == [[-1.5] * 3] * 2
    assert jet.Bz.tolist() == [[2.0, 5.0, 8.0]] * 2
    assert not jet.Bz_zz.any()


def _guard_edge(h):
    """The largest r > 0 that the source guard refuses at z = +-h, where (r / h)^2 < SOURCE_EPS^2, and the next float."""
    r = SOURCE_EPS * h
    while (r / h) * (r / h) < SOURCE_EPS * SOURCE_EPS:
        r = math.nextafter(r, math.inf)
    while not (r / h) * (r / h) < SOURCE_EPS * SOURCE_EPS:
        r = math.nextafter(r, 0.0)
    return r, math.nextafter(r, math.inf)


@pytest.mark.parametrize("h", [1.0, 3.0, 0.7, 2.0**-30, 1e20])
def test_source_guard_one_ulp_inside_and_outside(h):
    # the guard refuses a point one ulp inside SOURCE_EPS h of either source,
    # names that source, and names the top one first when points of an
    # array are near both
    model = DipolePair(1.0, h)
    inside, outside = _guard_edge(h)
    assert abs(inside - SOURCE_EPS * h) <= 4 * math.ulp(SOURCE_EPS * h)
    for z_src in (h, -h):
        message = f"field evaluated at distance < {SOURCE_EPS:g} h from the source at z = {z_src:g}"
        for r, z in ((inside, z_src), (np.array([outside, inside]), np.array([-z_src, z_src]))):
            with pytest.raises(SourceSingularity) as info:
                eval_jet(model, r, z)
            assert str(info.value) == message
        eval_jet(model, outside, z_src)
        eval_jet(model, np.array([outside, outside]), np.array([z_src, -z_src]))
    with pytest.raises(SourceSingularity) as info:
        eval_jet(model, np.array([inside, inside]), np.array([-h, h]))
    assert str(info.value).endswith(f"from the source at z = {h:g}")


def test_array_jet_source_singularity_guard():
    model = Composite((Linear(1.0, 3.0), DipolePair(1.0, 1.0)))
    with pytest.raises(SourceSingularity):
        eval_jet(model, np.array([0.5, 0.0, 0.7]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(SourceSingularity):
        eval_jet(model, np.array([0.5, 1e-12]), -1.0)
    eval_jet(model, np.array([0.5, 0.01]), np.array([0.0, 1.0]))
    # NaN is near no source
    jet = eval_jet(model, np.array([np.nan, 0.8]), 0.0)
    assert math.isnan(jet.Bz[0]) and math.isfinite(jet.Bz[1])


def test_scalar_jet_returns_python_floats():
    for model in ARRAY_MODELS:
        jet = eval_jet(model, 0.8, 0.0)
        assert all(type(getattr(jet, k)) is float for k in JET_FIELDS)


def _single_dipole_terms(q: float, r, Z) -> list:
    """Jet components of one axial point dipole; Z is the height above the source.

    The powers of D take one correctly rounded square root, so a float call
    gives the element of an array call bit for bit; it raises NonFinite where they overflow.
    """
    D = r * r + Z * Z
    root = math.sqrt(D) if isinstance(D, float) else np.sqrt(D)
    try:
        s5 = 1.0 / (D * D * root)
        s7 = s5 / D
        s9 = s7 / D
    except ZeroDivisionError:  # a float D or D * D underflowed to 0, where an array gives inf
        s9 = math.inf
    if isinstance(s9, float) and s9 == math.inf:
        raise NonFinite(f"dipole jet overflows at squared distance {D:g} from the source")
    r2 = r * r
    Z2 = Z * Z
    return [
        3.0 * q * r * Z * s5,
        q * (2.0 * Z2 - r2) * s5,
        3.0 * q * Z * (Z2 - 4.0 * r2) * s7,
        3.0 * q * r * (r2 - 4.0 * Z2) * s7,
        3.0 * q * Z * (3.0 * r2 - 2.0 * Z2) * s7,
        3.0 * q * (-4.0 * r2 * r2 + 27.0 * r2 * Z2 - 4.0 * Z2 * Z2) * s9,
        15.0 * q * r * Z * (4.0 * Z2 - 3.0 * r2) * s9,
        3.0 * q * (3.0 * r2 * r2 - 24.0 * r2 * Z2 + 8.0 * Z2 * Z2) * s9,
    ]


def _pair_reference(model, r, z) -> list:
    """A dipole pair's jet as the sum of its sources' terms, each source evaluated on its own."""
    u = r / model.h
    for z_src in (model.h, -model.h):
        w = (z - z_src) / model.h
        near = u * u + w * w < SOURCE_EPS * SOURCE_EPS
        if near is not False and np.any(near):
            raise SourceSingularity(
                f"field evaluated at distance < {SOURCE_EPS:g} h from the source at z = {z_src:g}"
            )
    top = _single_dipole_terms(model.q, r, z - model.h)
    bottom = _single_dipole_terms(model.q, r, z + model.h)
    return [a + b for a, b in zip(top, bottom)]


def _outcome(f, *args):
    """f's result as the bytes and types of its components, or its exception's type and message."""
    try:
        terms = f(*args)
    except (NonFinite, SourceSingularity) as exc:
        return type(exc), str(exc)
    return [(type(t), np.asarray(t).tobytes()) for t in terms]


@pytest.mark.parametrize("R", [0, 5, 40, 150, 300])
def test_pair_jet_equals_the_sum_of_single_dipole_references(R):
    # q, h and the coordinates spread over 10^(-R, R), which includes scales
    # where the powers overflow: the same numbers, or the same exception
    rng = np.random.default_rng(18 + R)
    seen = set()
    for _ in range(150):
        q, h, r1, r2, z1, z2 = (10.0 ** rng.uniform(-R, R, 6)).tolist()
        model = DipolePair(q, h)
        # a point at a source, one on the axis and two anywhere
        r = [1e-12 * h, 0.0, r1, r2]
        z = [float(rng.choice([h, -h])), z1, z2, -z1]
        for ri, zi in zip(r, z):
            got = _outcome(eval_jet, model, ri, zi)
            assert got == _outcome(_pair_reference, model, ri, zi), (q, h, ri, zi)
            seen.add(got[0] if isinstance(got, tuple) else "ok")
        with np.errstate(all="ignore"):
            for k in (0, 1):  # with and without the point at a source
                ra, za = np.array(r[k:]), np.array(z[k:])
                assert _outcome(eval_jet, model, ra, za) == _outcome(_pair_reference, model, ra, za), (q, h)
    if R >= 150:
        assert seen == {"ok", NonFinite, SourceSingularity}


def test_source_guard_at_extreme_scales():
    # the guard compares distances in units of h, so the squared threshold
    # neither underflows for a tiny h nor overflows for far points
    tiny = DipolePair(1.0, 1e-170)
    with pytest.raises(SourceSingularity):
        eval_jet(tiny, 0.0, 1e-170)
    eval_jet(DipolePair(1.0, 1.0), 1e200, 0.0)  # no OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        eval_jet(DipolePair(1.0, 1.0), np.array([0.8, 1e200]), 0.0)


def test_scalar_jet_raises_where_powers_overflow():
    # off-source points of a tiny pair: a float jet raises rather than
    # returning inf or nan components
    with pytest.raises(NonFinite):
        eval_jet(DipolePair(1.0, 1e-40), 0.8e-40, 0.0)
    with pytest.raises(NonFinite):  # D * D underflows to 0
        eval_jet(DipolePair(1.0, 1e-100), 0.8e-100, 0.0)


def test_scalar_jet_raises_where_the_squared_distance_underflows():
    # r^2 + Z^2 itself underflows to 0 here, so a float quotient by it would divide by zero
    with pytest.raises(NonFinite, match="squared distance 0 from the source"):
        eval_jet(DipolePair(1.0, 1e-200), 0.8e-200, 0.0)


@pytest.mark.parametrize("z", [1e-30, -1e-30], ids=["top", "bottom"])
def test_pair_jet_names_the_source_whose_powers_overflow(z):
    # 1e-36 off the axis beside one source of a pair with h = 1e-30: that
    # source's powers overflow (D = 1e-72), the other one's (D = 4e-60) do not
    model = DipolePair(1.0, 1e-30)
    got = _outcome(eval_jet, model, 1e-36, z)
    assert got == _outcome(_pair_reference, model, 1e-36, z)
    assert got == (NonFinite, "dipole jet overflows at squared distance 1e-72 from the source")


def _prefix_points():
    """(pair, points): ordinary points, one ulp either side of the source guard, and the overflowing points above."""
    inside, outside = _guard_edge(1.0)
    unit = [(0.8, 0.0), (1.7, -0.4), (0.0, 0.3), (math.nan, 0.8), (1e200, 0.0)]
    unit += [(r, z) for r in (inside, outside) for z in (1.0, -1.0)]
    return [
        (DipolePair(1.0, 1.0), unit),
        (DipolePair(1.0, 1e-40), [(0.8e-40, 0.0)]),
        (DipolePair(1.0, 1e-100), [(0.8e-100, 0.0)]),
        (DipolePair(1.0, 1e-200), [(0.8e-200, 0.0)]),
        (DipolePair(1.0, 1e-30), [(1e-36, 1e-30), (1e-36, -1e-30)]),
    ]


def test_jet_prefix_is_the_full_jet_cut_to_n():
    # a caller asking for n terms gets the first n of the full jet bit for
    # bit, or the exception the full jet raises, with its message
    seen = set()
    for pair, points in _prefix_points():
        models = [
            pair,
            Linear(0.7, -1.3),
            Composite((Linear(1.0, 3.0), pair)),
            Composite((Composite((pair, DipolePair(0.3, 1.6 * pair.h))), Linear(0.7, -1.3))),
        ]
        rs, zs = zip(*points)
        calls = list(points) + [(np.array([r]), np.array([z])) for r, z in points]
        calls.append((np.array(rs), np.array(zs)))
        for model, (r, z) in itertools.product(models, calls):
            with np.errstate(all="ignore"):
                full = _outcome(_jet_terms, model, r, z)
                for n in (2, 4, 5, 8):
                    got = _outcome(_jet_terms, model, r, z, n)
                    assert got == (full if isinstance(full, tuple) else full[:n]), (model, r, z, n)
            seen.add(full[0] if isinstance(full, tuple) else "ok")
    assert seen == {"ok", NonFinite, SourceSingularity}


def _jet_digest() -> str:
    """sha256 of the repr of jets on a seeded point set, float and array calls alike."""
    rng = np.random.default_rng(2021)
    r, z = rng.uniform(0.05, 3.0, 40), rng.uniform(-2.5, 2.5, 40)
    special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 0.8]
    rs, zs = np.array([a for a in special for _ in special]), np.array(special * len(special))
    pair = DipolePair(1.0, 1.0)
    cases = [
        (pair, r, z),
        (Composite((pair, DipolePair(0.3, 1.6))), r, z),
        (Composite((Linear(1.0, 3.0), pair)), r, z),
        (Linear(0.7, -1.3), rs, zs),
        (Linear(-2.0, 3.0), rs, 0.0),
        (Composite((Linear(1.0, 3.0), pair)), rs, zs),
    ]
    parts = []
    with np.errstate(all="ignore"):
        for model, ra, za in cases:
            parts.append(repr([c.tolist() for c in eval_jet(model, ra, za)]))
            zb = np.broadcast_to(za, ra.shape)
            parts.append(repr([eval_jet(model, a, b) for a, b in zip(ra.tolist(), zb.tolist())]))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# The digest of the jets as written with unhoisted products and the linear
# part's constants as products by (r * z) ** 0.
JET_DIGEST = "42dc0e00fc963848c348256ca18c19f40f99617a4cc641f064783303fa0b19ed"


def test_jet_bits_are_pinned():
    assert _jet_digest() == JET_DIGEST
