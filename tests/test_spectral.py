"""Transform bookkeeping, Leray projection, dealiasing, norms, snapshots."""

import numpy as np
import pytest

from lu_flow.noise import build_noise_model
from lu_flow.spectral import (
    GridMismatchError,
    SpectralScalar,
    SpectralVelocity,
    TorusGrid,
    dealiased_product,
    dealiased_product_fields,
    divergence,
    from_physical,
    h_inner,
    h_norm,
    hermitian_symmetrize,
    leray_project,
    load_snapshot,
    max_divergence,
    random_solenoidal,
    save_snapshot,
    spectral_derivative,
    tensor_flux,
    to_physical,
    v_norm,
)

from conftest import random_div_free


def physical_grid(n):
    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.meshgrid(x, x, indexing="ij")


# ---------------------------------------------------------------------------
# grid


def test_grid_rejects_odd_and_tiny():
    with pytest.raises(ValueError):
        TorusGrid(7)
    with pytest.raises(ValueError):
        TorusGrid(6)


def test_grid_pad_size_two_thirds_rule():
    # smallest even M >= 3N/2
    for n, m in [(8, 12), (16, 24), (32, 48), (10, 16)]:
        assert TorusGrid(n).pad_size == m


def test_grid_equality_and_mismatch():
    assert TorusGrid(16) == TorusGrid(16)
    g, h = TorusGrid(16), TorusGrid(32)
    assert g != h
    f = SpectralScalar(g, np.zeros((16, 16), dtype=complex))
    other = SpectralScalar(h, np.zeros((32, 32), dtype=complex))
    with pytest.raises(GridMismatchError):
        dealiased_product_fields(f, other)


# ---------------------------------------------------------------------------
# transforms


def test_round_trip_identity(grid32, rng):
    c = random_div_free(grid32, rng)
    back = from_physical(grid32, to_physical(grid32, c))
    assert np.max(np.abs(back - c)) < 1e-13


def test_hermitian_coeffs_give_real_field(grid32, rng):
    c = random_div_free(grid32, rng)
    phys = to_physical(grid32, c)
    assert np.isrealobj(phys) or np.max(np.abs(phys.imag)) < 1e-14


def test_parseval(grid32, rng):
    c = random_div_free(grid32, rng)
    phys = to_physical(grid32, c)
    quadrature = np.sqrt((2.0 * np.pi) ** 2 * np.mean(np.sum(phys**2, axis=0)))
    assert abs(h_norm(grid32, c) - quadrature) < 1e-12 * quadrature


@pytest.mark.parametrize("n", [16, 32, 64])
def test_real_transforms_match_numpy_rfft2_bitwise(n, rng):
    # the two-pass transforms skip only zero or discarded columns
    grid = TorusGrid(n)
    m, h = grid.pad_size, n // 2
    c = random_div_free(grid, rng)
    half = np.zeros((2, m, m // 2 + 1), dtype=complex)
    half[:, :h, :h] = c[:, :h, :h]
    half[:, m - h:, :h] = c[:, h:, :h]
    assert np.array_equal(to_physical(grid, c, m),
                          np.fft.irfft2(half, s=(m, m), norm="forward"))
    values = rng.standard_normal((3, m, m))
    full = np.fft.rfft2(values, norm="forward")
    got = from_physical(grid, values)
    assert np.array_equal(got[:, :h, 1:h], full[:, :h, 1:h])
    assert np.array_equal(got[:, h + 1:, 1:h], full[:, m - h + 1:, 1:h])


def test_from_physical_is_exactly_hermitian(grid16, rng):
    c = from_physical(grid16, rng.standard_normal((2, 24, 24)))
    neg = (-np.arange(16)) % 16
    assert np.array_equal(c, np.conj(c[:, neg[:, None], neg[None, :]]))
    assert np.all(c[:, grid16.nyquist_mask] == 0.0)
    assert np.array_equal(hermitian_symmetrize(grid16, c), c)


def test_nyquist_modes_zeroed(grid16, rng):
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    sym = hermitian_symmetrize(grid16, raw)
    assert np.all(sym[grid16.nyquist_mask] == 0.0)


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_sin_x(grid16):
    X, Y = physical_grid(16)
    c = from_physical(grid16, np.sin(X))
    d = spectral_derivative(grid16, c, 0)
    assert np.max(np.abs(to_physical(grid16, d) - np.cos(X))) < 1e-13


def test_derivative_constant_is_zero(grid16):
    c = from_physical(grid16, np.full((16, 16), 3.7))
    for direction in (0, 1):
        assert np.max(np.abs(spectral_derivative(grid16, c, direction))) == 0.0


def test_derivative_against_symbolic_oracle(grid16):
    # d/dy [sin(2x) cos(3y)] = -3 sin(2x) sin(3y)
    X, Y = physical_grid(16)
    c = from_physical(grid16, np.sin(2 * X) * np.cos(3 * Y))
    d = to_physical(grid16, spectral_derivative(grid16, c, 1))
    assert np.max(np.abs(d - (-3.0) * np.sin(2 * X) * np.sin(3 * Y))) < 1e-12


# ---------------------------------------------------------------------------
# Leray projection


def test_leray_identity_on_div_free(grid32, rng):
    c = random_div_free(grid32, rng)
    assert np.max(np.abs(leray_project(grid32, c) - c)) < 1e-14


def test_leray_kills_gradients(grid16, rng):
    phi = random_div_free(grid16, rng, components=1)
    grad = np.stack([spectral_derivative(grid16, phi, 0),
                     spectral_derivative(grid16, phi, 1)])
    assert np.max(np.abs(leray_project(grid16, grad))) < 1e-14


def test_leray_idempotent_and_div_free(grid32, rng):
    raw = rng.standard_normal((2, 32, 32)) + 1j * rng.standard_normal((2, 32, 32))
    f = hermitian_symmetrize(grid32, raw)
    p1 = leray_project(grid32, f)
    p2 = leray_project(grid32, p1)
    assert np.max(np.abs(p2 - p1)) <= 1e-12 * np.max(np.abs(p1))
    assert max_divergence(grid32, p1) < 1e-12 * h_norm(grid32, p1)


def test_leray_output_c_contiguous(grid16, rng):
    c = random_div_free(grid16, rng)
    strided = np.asfortranarray(c)  # component axis innermost
    out = leray_project(grid16, strided)
    assert out.flags.c_contiguous
    assert np.array_equal(out, leray_project(grid16, c))


def test_leray_matches_dense_matrix_oracle():
    # assemble the projection matrix mode by mode on an 8x8 grid and compare
    g = TorusGrid(8)
    gen = np.random.default_rng(7)
    raw = gen.standard_normal((2, 8, 8)) + 1j * gen.standard_normal((2, 8, 8))
    f = hermitian_symmetrize(g, raw)
    kxg, kyg = np.broadcast_arrays(g.kx, g.ky)
    proj = np.zeros((2 * 64, 2 * 64))
    for i in range(8):
        for j in range(8):
            k = np.array([kxg[i, j], kyg[i, j]])
            idx = np.array([i * 8 + j, 64 + i * 8 + j])
            if k[0] == 0 and k[1] == 0:
                continue  # zero-mean gauge: mean mode removed entirely
            block = np.eye(2) - np.outer(k, k) / (k @ k)
            proj[np.ix_(idx, idx)] = block
    flat = np.concatenate([f[0].ravel(), f[1].ravel()])
    expected = proj @ flat
    got = leray_project(g, f)
    got_flat = np.concatenate([got[0].ravel(), got[1].ravel()])
    assert np.max(np.abs(got_flat - expected)) < 1e-13


def test_leray_self_adjoint(grid32, rng):
    raw_f = hermitian_symmetrize(grid32, rng.standard_normal((2, 32, 32))
                                 + 1j * rng.standard_normal((2, 32, 32)))
    raw_g = hermitian_symmetrize(grid32, rng.standard_normal((2, 32, 32))
                                 + 1j * rng.standard_normal((2, 32, 32)))
    lhs = h_inner(grid32, leray_project(grid32, raw_f), raw_g)
    rhs = h_inner(grid32, raw_f, leray_project(grid32, raw_g))
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# dealiased products


def test_product_with_one(grid16, rng):
    g = random_div_free(grid16, rng, components=1)
    one = from_physical(grid16, np.ones((16, 16)))
    assert np.max(np.abs(dealiased_product(grid16, one, g) - g)) < 1e-14


def test_product_closed_form(grid16):
    # sin(x) * sin(x) = 1/2 - cos(2x)/2, no aliasing at N >= 8
    X, _ = physical_grid(16)
    s = from_physical(grid16, np.sin(X))
    prod = dealiased_product(grid16, s, s)
    expected = from_physical(grid16, 0.5 - 0.5 * np.cos(2 * X))
    assert np.max(np.abs(prod - expected)) < 1e-14


def test_product_matches_convolution_oracle(grid16, rng):
    # direct O(N^4) convolution on bandwidth <= N/3 inputs
    n = 16
    f = random_div_free(grid16, rng, band=n // 3, components=1)
    g = random_div_free(grid16, rng, band=n // 3, components=1)
    kx, ky = (a.astype(int) for a in np.broadcast_arrays(grid16.kx, grid16.ky))
    oracle = np.zeros((n, n), dtype=complex)
    entries = [(kx[i, j], ky[i, j], f[i, j]) for i in range(n) for j in range(n)]
    lookup = {(kx[i, j], ky[i, j]): g[i, j] for i in range(n) for j in range(n)}
    for i in range(n):
        for j in range(n):
            total = 0.0
            for p, q, fv in entries:
                other = lookup.get((kx[i, j] - p, ky[i, j] - q))
                if other is not None and fv != 0.0:
                    total += fv * other
            oracle[i, j] = total
    got = dealiased_product(grid16, f, g)
    oracle[grid16.nyquist_mask] = 0.0
    assert np.max(np.abs(got - oracle)) < 1e-13


def test_tensor_flux_constant_tensor_closed_form(grid16, rng):
    # constant a: the flux of mode k is i k_l a_jl f_k
    a = np.array([[1.3, -0.4], [-0.4, 0.7]])
    m = grid16.pad_size
    a_pad = np.broadcast_to(a[:, :, None, None], (2, 2, m, m))
    q = random_div_free(grid16, rng, components=1)
    v = random_div_free(grid16, rng)
    for f in (q, v):
        grad = np.stack([1j * grid16.kx * f, 1j * grid16.ky * f])
        expected = np.einsum("jl,l...->j...", a, grad)
        got = tensor_flux(grid16, a_pad, f)
        assert got.shape == (2,) + f.shape
        assert np.max(np.abs(got - expected)) < 1e-14 * np.max(np.abs(expected))


def test_tensor_flux_vector_is_scalar_per_component_bitwise(grid16, rng):
    a_pad = build_noise_model(grid16, 6, 3.0, 1.0, mix_shells=True).a_pad
    v = random_div_free(grid16, rng)
    flux = tensor_flux(grid16, a_pad, v)
    for i in range(2):
        assert np.array_equal(flux[:, i], tensor_flux(grid16, a_pad, v[i]))


def test_random_solenoidal_hermitian_div_free_banded(grid16):
    gen = np.random.Generator(np.random.Philox(key=[3, 0]))
    u = random_solenoidal(grid16, gen, 2, 5)
    neg = (-np.arange(16)) % 16
    assert np.array_equal(u, np.conj(u[:, neg[:, None], neg[None, :]]))
    assert max_divergence(grid16, u) < 1e-14 * np.max(np.abs(u))
    outside = (grid16.k_sq < 2**2) | (grid16.k_sq > 5**2)
    assert np.all(u[:, outside] == 0.0) and np.any(u[:, ~outside] != 0.0)


# ---------------------------------------------------------------------------
# norms


def test_v_norm_matches_gradient_quadrature(grid32, rng):
    c = random_div_free(grid32, rng)
    grads = np.stack([spectral_derivative(grid32, c, d) for d in range(2)])
    phys = to_physical(grid32, grads.reshape(4, 32, 32))
    quad = np.sqrt((2.0 * np.pi) ** 2 * np.mean(np.sum(phys**2, axis=0)))
    assert abs(v_norm(grid32, c) - quad) < 1e-12 * quad


def test_divergence_of_div_free_is_zero(grid32, rng):
    c = random_div_free(grid32, rng)
    assert np.max(np.abs(divergence(grid32, c))) < 1e-14


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip(tmp_path, grid16, rng):
    c = random_div_free(grid16, rng).astype(np.complex64).astype(np.complex128)
    path = tmp_path / "field.lufs"
    save_snapshot(path, grid16, c)
    g2, c2 = load_snapshot(path)
    assert g2 == grid16
    assert np.array_equal(c2, c)


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.lufs"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_snapshot(path)
