"""Noise model construction, variance tensor, drift, regularity, Wiener paths."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import lu_flow
from lu_flow.noise import (
    WienerPath,
    _increments_from_bits,
    _mode_wavevectors,
    _ndtri,
    build_noise_model,
    check_regularity,
    max_modes,
)
from lu_flow.operators import OperatorContext
from lu_flow.spectral import (
    TorusGrid,
    compress,
    divergence,
    expand,
    from_physical,
    h_norm,
    leray_project,
    stream_function,
    tensor_flux,
    to_physical,
)

from conftest import synthetic_inhomogeneous_model


def fd_divergence(a, n):
    """Central-difference row divergence of the (2,2,n,n) tensor field."""
    h = 2.0 * np.pi / n
    out = np.zeros((2, n, n))
    for i in range(2):
        for j in range(2):
            d = (np.roll(a[i, j], -1, axis=j) - np.roll(a[i, j], 1, axis=j)) / (2 * h)
            out[i] += d
    return out


# ---------------------------------------------------------------------------
# construction


def test_zero_amplitude_model(grid16):
    model = build_noise_model(grid16, 1, 3.0, 0.0)
    assert np.max(np.abs(model.variance_tensor)) == 0.0
    assert np.max(np.abs(model.ito_stokes_drift)) == 0.0


def test_homogeneous_pair(grid16):
    # cos/sin of the same wavevector with equal weights: |phi|^2 sums to a
    # constant, the variance tensor is constant in x and the drift cancels
    model = build_noise_model(grid16, 2, 3.0, 1.0)
    a = model.variance_tensor
    for i in range(2):
        for j in range(2):
            assert np.ptp(a[i, j]) < 1e-14 * max(np.max(np.abs(a[i, j])), 1.0)
    assert h_norm(grid16, model.ito_stokes_drift) < 1e-14


def test_pure_family_drift_vanishes_at_any_truncation(grid16):
    # each pure mode contributes w w^T trig^2(k.x) whose divergence is
    # proportional to w (w . k) = 0, so the drift is zero for every K
    for K in (1, 3, 5, 9):
        model = build_noise_model(grid16, K, 3.0, 1.0)
        assert h_norm(grid16, model.ito_stokes_drift) < 1e-14


def test_mixed_family_drift_nonzero(grid16):
    model = build_noise_model(grid16, 4, 3.0, 1.0, mix_shells=True)
    assert h_norm(grid16, model.ito_stokes_drift) > 1e-3


def test_modes_divergence_free_and_ordering_deterministic(grid16):
    from lu_flow.spectral import max_divergence
    for mix in (False, True):
        m1 = build_noise_model(grid16, 6, 3.0, 1.0, mix_shells=mix)
        m2 = build_noise_model(grid16, 6, 3.0, 1.0, mix_shells=mix)
        for a, b in zip(m1.phi, m2.phi):
            assert np.array_equal(a, b)
            assert max_divergence(grid16, a) == 0.0


def _sorted_lattice(n):
    """The half lattice of _mode_wavevectors as Python orders it, by
    (|k|^2, k1, k2)."""
    half = n // 2
    reps = [(k1, k2) for k1 in range(half) for k2 in range(-half + 1, half)
            if k1 > 0 or k2 > 0]
    return sorted(reps, key=lambda k: (k[0] ** 2 + k[1] ** 2, k[0], k[1]))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_mode_wavevectors_match_the_sorted_lattice(n):
    # build_noise_model asks for K wavevectors, or 2K when mixing, so the
    # arguments 1 .. max_modes(n) cover every K of both bases; at N = 128,
    # where the sweep would take 18 s, every K to 512, every 61st and the last
    grid = TorusGrid(n)
    ref = _sorted_lattice(n)
    last = max_modes(n)
    assert len(ref) == last // 2 == max_modes(n, mix_shells=True)
    for k in range(1, last + 1):
        if n == 128 and not (k <= 512 or k % 61 == 0 or k == last):
            continue
        got = _mode_wavevectors(grid, k)
        assert got == ref[:(k + 1) // 2], k
    assert all(type(c) is int for kv in got for c in kv)


def test_too_many_modes_rejected():
    with pytest.raises(ValueError):
        build_noise_model(TorusGrid(8), 500, 3.0, 1.0)


@pytest.mark.parametrize("kind", ["mix", "pure", "synthetic"])
def test_model_fields_match_per_field_rebuild(grid16, kind):
    # every field the model fixes in __post_init__ has the bits of the
    # recipe that built it field by field: a per-mode sum of outer products,
    # one forward transform, a padded inverse, 0.5 div a and its projection,
    # the fields of the velocity step built from u_s, and the separable
    # tables of xi on the block of half-layout rows and columns its modes hold
    if kind == "synthetic":
        model = synthetic_inhomogeneous_model(grid16)
    else:
        model = build_noise_model(grid16, 8, 3.0, 1.0, mix_shells=kind == "mix")
    g = grid16
    phi = model.phi
    flat = phi.reshape(model.k_modes, -1)
    idx = np.flatnonzero(np.any(flat != 0, axis=0))
    values = np.ascontiguousarray(flat[:, idx]).view(float)
    a = np.zeros((2, 2, 16, 16))
    for coeffs in phi:
        p = to_physical(g, coeffs)
        a += p[:, None] * p[None, :]
    a_hat = expand(g, from_physical(g, a))
    us = np.stack([0.5 * divergence(g, a_hat[i]) for i in range(2)])
    m = g.pad_size
    a_pad = to_physical(g, a_hat, m)
    div_a_grad_us = leray_project(g, divergence(g, tensor_flux(g, a_pad, us)))
    half = compress(g, phi)
    table = np.concatenate([stream_function(g, half)[:, None], half], axis=1)
    rows = np.flatnonzero(table.any(axis=(0, 1, 3)))
    s = int(np.flatnonzero(table.any(axis=(0, 1, 2)))[-1]) + 1
    x = np.arange(m) * (2 * np.pi / m)
    ky_x = np.outer(np.arange(s), x)
    wy = np.empty((2 * s, m))  # interleaved cos and -sin rows, weight 1 at ky = 0, 2 above
    wy[0::2] = np.where(np.arange(s) == 0, 1.0, 2.0)[:, None] * np.cos(ky_x)
    wy[1::2] = -np.where(np.arange(s) == 0, 1.0, 2.0)[:, None] * np.sin(ky_x)
    expected = {"support_idx": idx, "support_values": values,
                "variance_tensor": a, "variance_hat": a_hat, "a_pad": a_pad,
                "us_raw": us, "us": leray_project(g, us),
                "drift_pad": to_physical(g, us, m), "div_a_grad_us": div_a_grad_us,
                "psi_us": stream_function(g, compress(g, us)),
                "psi_div_a_grad_us": stream_function(g, compress(g, div_a_grad_us)),
                "block_idx": (rows[:, None] * (g.n_modes // 2) + np.arange(s)).ravel(),
                "xi_table": np.ascontiguousarray(table[:, :, rows, :s]).reshape(
                    model.k_modes, -1).view(float),
                "ex": np.exp(1j * np.outer(x, g.half_kx[rows, 0])), "wy": wy}
    got = {"support_idx": model.phi_support[0],
           "support_values": model.phi_support[1],
           "variance_tensor": model.variance_tensor, "variance_hat": model.variance_hat,
           "a_pad": model.a_pad, "us_raw": model.ito_stokes_drift,
           "us": model.drift_projected, "drift_pad": model.drift_pad,
           "div_a_grad_us": model.div_a_grad_us, "psi_us": model.psi_us,
           "psi_div_a_grad_us": model.psi_div_a_grad_us, "block_idx": model.block_idx,
           "xi_table": model.xi_table, "ex": model.ex, "wy": model.wy}
    for name, arr in expected.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("amplitude,mix", [(5e-324, False), (1e-200, True)],
                         ids=["amp-underflow", "mix-weights-underflow"])
def test_zero_modes_build_no_xi_tables(grid16, amplitude, mix):
    # weights that underflow zero every mode: the model builds no separable
    # tables of xi, and a context of it at eps > 0 is not noisy
    model = build_noise_model(grid16, 8, 3.0, amplitude, mix_shells=mix)
    assert not model.phi.any()
    assert model.block_idx is model.xi_table is model.ex is model.wy is None
    assert not OperatorContext(model, 0.1, 100.0).noisy


# ---------------------------------------------------------------------------
# variance tensor


def test_single_mode_rank_one(grid16):
    model = build_noise_model(grid16, 1, 3.0, 1.0)
    phi = to_physical(grid16, model.phi[0])
    expected = np.einsum("i...,j...->ij...", phi, phi)
    assert np.max(np.abs(model.variance_tensor - expected)) < 1e-14
    det = (model.variance_tensor[0, 0] * model.variance_tensor[1, 1]
           - model.variance_tensor[0, 1] ** 2)
    assert np.max(np.abs(det)) < 1e-14  # rank <= 1 per point


def test_variance_tensor_pointwise_summation_oracle():
    # K = 4, r = 3 on N = 16: compare a(x) at sample points against the
    # direct physical-space sum over modes
    g = TorusGrid(16)
    model = build_noise_model(g, 4, 3.0, 1.0, mix_shells=True)
    phys = [to_physical(g, coeffs) for coeffs in model.phi]
    direct = sum(np.einsum("i...,j...->ij...", p, p) for p in phys)
    for (i, j) in [(0, 0), (3, 7), (8, 8), (15, 1), (5, 12)]:
        assert np.max(np.abs(model.variance_tensor[:, :, i, j]
                             - direct[:, :, i, j])) < 1e-13


def test_variance_tensor_psd_and_trace_identity(grid16):
    model = build_noise_model(grid16, 4, 3.0, 1.0, mix_shells=True)
    a = model.variance_tensor
    trace = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    assert np.all(trace >= -1e-14)
    assert np.all(det >= -1e-12)
    total = sum(h_norm(grid16, coeffs) ** 2 for coeffs in model.phi)
    integral = trace.mean() * (2.0 * np.pi) ** 2
    assert abs(integral - total) < 1e-10 * total


# ---------------------------------------------------------------------------
# Ito-Stokes drift


def test_drift_quadratic_in_amplitude(grid16):
    base = build_noise_model(grid16, 4, 3.0, 1.0, mix_shells=True)
    scaled = build_noise_model(grid16, 4, 3.0, 3.0, mix_shells=True)
    diff = scaled.ito_stokes_drift - 9.0 * base.ito_stokes_drift
    assert np.max(np.abs(diff)) < 1e-12 * np.max(np.abs(base.ito_stokes_drift))


def test_drift_matches_finite_difference_oracle():
    # second-order central differences of the physical a converge to the
    # spectral divergence at O(h^2)
    errs = []
    for n in (16, 32):
        g = TorusGrid(n)
        model = build_noise_model(g, 4, 3.0, 1.0, mix_shells=True)
        us_phys = to_physical(g, model.ito_stokes_drift)
        fd = 0.5 * fd_divergence(model.variance_tensor, n)
        errs.append(np.max(np.abs(fd - us_phys)) / np.max(np.abs(us_phys)))
    assert errs[0] < 0.2
    assert errs[0] / errs[1] > 3.0  # O(h^2) refinement


# ---------------------------------------------------------------------------
# regularity report


def test_regularity_zero_amplitude(grid16):
    rep = check_regularity(build_noise_model(grid16, 4, 3.0, 0.0))
    assert rep["passes"]
    assert rep["partial_sum_h3"] == 0.0
    assert rep["us_h3"] == 0.0


def test_regularity_partial_sum_saturates_for_smooth_spectrum():
    g = TorusGrid(32)
    s8 = check_regularity(build_noise_model(g, 8, 3.0, 1.0))["partial_sum_h3"]
    s16 = check_regularity(build_noise_model(g, 16, 3.0, 1.0))["partial_sum_h3"]
    assert abs(s16 - s8) < 0.10 * s8


def test_regularity_fails_a_model_that_overflowed(grid16):
    # amp 1e300 overflows the mixed pair weights, so the modes are NaN: a
    # NaN partial sum must not read as a tail ratio of 0
    with np.errstate(all="ignore"):
        model = build_noise_model(grid16, 4, 3.0, 1e300, mix_shells=True)
    rep = check_regularity(model)
    assert not np.isfinite(rep["partial_sum_h3"])
    assert not np.isfinite(rep["tail_ratio"])
    assert not rep["passes"]


def test_regularity_pass_fail(grid32):
    assert check_regularity(build_noise_model(grid32, 16, 3.0, 1.0))["passes"]
    assert not check_regularity(build_noise_model(grid32, 16, 1.0, 1.0))["passes"]


# ---------------------------------------------------------------------------
# Wiener paths


def test_path_determinism_and_seed_sensitivity():
    a = WienerPath(42, 1e-3, 50, 4)
    b = WienerPath(42, 1e-3, 50, 4)
    c = WienerPath(43, 1e-3, 50, 4)
    assert np.array_equal(a.increments, b.increments)
    assert np.max(np.abs(a.increments - c.increments)) > 1e-6


def test_member_streams_differ():
    a = WienerPath(42, 1e-3, 50, 4, member=0)
    b = WienerPath(42, 1e-3, 50, 4, member=1)
    assert np.max(np.abs(a.increments - b.increments)) > 1e-6


def test_coarsen_sums_consecutive_increments():
    fine = WienerPath(5, 1e-3, 40, 4)
    coarse = fine.coarsen(4)
    assert coarse.dt == pytest.approx(4e-3)
    assert np.allclose(coarse.increments,
                       fine.increments.reshape(10, 4, 4).sum(axis=1), atol=0)


def test_increment_moments():
    # empirical covariance over 1e5 steps within 5 standard errors of diag(dt)
    n, dt = 100_000, 1e-3
    path = WienerPath(11, dt, n, 3)
    x = path.increments
    cov = x.T @ x / n
    se_diag = dt * np.sqrt(2.0 / n)   # var of squared gaussians
    se_off = dt / np.sqrt(n)
    for i in range(3):
        for j in range(3):
            target = dt if i == j else 0.0
            se = se_diag if i == j else se_off
            assert abs(cov[i, j] - target) < 5 * se, (i, j, cov[i, j])
    assert abs(x.mean()) < 5 * np.sqrt(dt / (3 * n))


# ---------------------------------------------------------------------------
# Gaussian transform (Cephes ndtri port)


def _lattice(k):
    return (np.asarray(k, dtype=np.int64).astype(np.float64) + 0.5) / 2**53


def _around(c, half_width=1000):
    """2 * half_width + 1 consecutive doubles centred on c."""
    return c + np.arange(-half_width, half_width + 1) * np.spacing(c)


def _assert_bitwise_scipy(u):
    ours, ref = _ndtri(u), ndtri(u)
    bad = np.flatnonzero(ours.view(np.int64) != ref.view(np.int64))
    assert bad.size == 0, (bad.size, u[bad[:5]])


def test_ndtri_bitwise_on_lattice_uniforms():
    # a port built on numpy's SIMD log instead of libm's differs on about
    # 5e-5 of the draws, so the sample must hold well over 1e5 of them
    k = np.random.default_rng(2024).integers(0, 2**53 - 1, size=1_200_000, dtype=np.int64)
    _assert_bitwise_scipy(_lattice(k))


def test_ndtri_bitwise_on_tails_and_branch_edges():
    below_one = np.nextafter(1.0, 0.0)
    u = np.concatenate([
        _lattice(np.arange(2000)),                                  # lower tail
        np.minimum(_lattice(np.arange(2**53 - 2000, 2**53)), below_one),  # upper tail
        _around(math.exp(-2)), _around(1.0 - math.exp(-2)),         # centre/tail switch
        _around(0.5),
        _around(math.exp(-32)),                                     # P1/P2 switch
        _around(1.0 - math.exp(-32), 50),
        [5e-324, 1e-300, below_one],
    ])
    _assert_bitwise_scipy(u)
    x = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
    assert (x < 8.0).any() and (x >= 8.0).any()    # both tail polynomials used
    assert (u > math.exp(-2)).any() and (u < 1 - math.exp(-2)).any()


@pytest.mark.parametrize("seed,member,n_steps,k_modes,dt", [
    (0, 0, 100, 8, 1e-3), (42, 3, 300, 8, 1e-3), (7, 11, 50, 4, 2e-3),
    (2**40 + 5, 2**33, 64, 16, 0.01),
])
def test_wiener_path_bitwise_scipy_reference(seed, member, n_steps, k_modes, dt):
    path = WienerPath(seed, dt, n_steps, k_modes, member=member)
    gen = np.random.Generator(np.random.Philox(key=[seed % 2**64, member % 2**64]))
    raw = gen.integers(0, 2**53, size=(n_steps, k_modes), dtype=np.int64)
    ref = ndtri((raw.astype(np.float64) + 0.5) / 2**53) * np.sqrt(dt)
    assert path.increments.tobytes() == ref.tobytes()
    coarse = path.coarsen(2)
    ref_coarse = ref.reshape(n_steps // 2, 2, k_modes).sum(axis=1)
    assert coarse.increments.tobytes() == ref_coarse.tobytes()


def test_top_draw_gives_finite_increment():
    # raw = 2**53 - 1 makes (raw + 0.5) / 2**53 round to exactly 1.0
    assert _lattice([2**53 - 1])[0] == 1.0
    raw = np.array([[2**53 - 1, 2**53 - 2, 0]], dtype=np.int64)
    inc = _increments_from_bits(raw, 1e-3)
    assert np.isfinite(inc).all()
    assert inc[0, 0] == ndtri(np.nextafter(1.0, 0.0)) * np.sqrt(1e-3)
    # the clamp moves no other draw
    assert inc[0, 1:].tobytes() == (ndtri(_lattice([2**53 - 2, 0])) * np.sqrt(1e-3)).tobytes()


def test_cli_import_does_not_load_scipy_special():
    src = str(Path(lu_flow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, lu_flow.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
