"""Noise model construction, variance tensor, drift, regularity, Wiener paths."""

import math
import os
import subprocess
import sys
import warnings
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
from lu_flow.solver import SolverConfig, build_context, run, run_scalar_transport
from lu_flow.spectral import (
    TorusGrid,
    compress,
    divergence,
    expand,
    from_physical,
    h_norm,
    leray_project,
    sobolev_norm_sq,
    stream_function,
    tensor_flux,
    to_physical,
)

from conftest import held_bytes, synthetic_inhomogeneous_model


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


def entry_product_variance_hat(g, entries):
    """a's coefficients, (2, 2, n, n), summed by hand: for each mode in turn
    and each pair (p, q) of its entries, p outer, the product of component
    j of p and component l of q added at (k_p + k_q) mod n, where the
    product on the n x n grid aliases it; then the Nyquist modes zeroed, the
    kx < 0 half of the ky = 0 column and the ky < 0 half written as the
    conjugates of their mirrors and the mean made real."""
    n, h = g.n_modes, g.n_modes // 2
    a_hat = np.zeros((2, 2, n, n), dtype=complex)
    for idx, values in entries:
        products = values[:, None] * values
        for p, q in np.ndindex(products.shape):
            j, kx_p, ky_p = np.unravel_index(idx[p], (2, n, n))
            l, kx_q, ky_q = np.unravel_index(idx[q], (2, n, n))
            a_hat[j, l, (kx_p + kx_q) % n, (ky_p + ky_q) % n] += products[p, q]
    a_hat[..., g.nyquist_mask] = 0.0
    a_hat[..., h + 1:, 0] = np.conj(a_hat[..., h - 1:0:-1, 0])
    a_hat[..., 0, 0] = a_hat[..., 0, 0].real
    a_hat[..., :, h + 1:] = np.conj(a_hat[..., (-np.arange(n)) % n, h - 1:0:-1])
    return a_hat


@pytest.mark.parametrize("kind", ["mix", "pure", "synthetic"])
def test_model_fields_match_per_field_rebuild(grid16, kind):
    # the entries are each mode's nonzero coefficients, and every field the
    # model fixes in __post_init__ has the bits of the recipe that built it
    # field by field: a's coefficients summed by hand from the products of
    # each mode's entries, a padded inverse, 0.5 div a and its projection,
    # the fields of the velocity step built from u_s, and the separable
    # tables of xi on the block of half-layout rows and columns its modes
    # hold; the xi triples are the nonzeros of the dense (K, 4 r s) table of
    # the modes' velocities, so the table is compared with its signed zeros
    # cleared (0 + x), which add +0 to the dot of the increments with it
    # whatever their sign
    if kind == "synthetic":
        model = synthetic_inhomogeneous_model(grid16)
    else:
        model = build_noise_model(grid16, 8, 3.0, 1.0, mix_shells=kind == "mix")
    g = grid16
    phi = model.phi
    flat = phi.reshape(model.k_modes, -1)
    idx = [np.flatnonzero(mode) for mode in flat]
    a_hat = entry_product_variance_hat(g, model.entries)
    a = to_physical(g, a_hat)
    us = np.stack([0.5 * divergence(g, a_hat[i]) for i in range(2)])
    m = g.pad_size
    a_pad = to_physical(g, a_hat, m)
    div_a_grad_us = leray_project(g, divergence(g, tensor_flux(g, a_pad, us)))
    table = compress(g, phi)
    rows = np.flatnonzero(table.any(axis=(0, 1, 3)))
    s = int(np.flatnonzero(table.any(axis=(0, 1, 2)))[-1]) + 1
    x = np.arange(m) * (2 * np.pi / m)
    ky_x = np.outer(np.arange(s), x)
    wy = np.empty((2 * s, m))  # interleaved cos and -sin rows, weight 1 at ky = 0, 2 above
    wy[0::2] = np.where(np.arange(s) == 0, 1.0, 2.0)[:, None] * np.cos(ky_x)
    wy[1::2] = -np.where(np.arange(s) == 0, 1.0, 2.0)[:, None] * np.sin(ky_x)
    expected = {"entry_idx": np.concatenate(idx),
                "entry_values": np.concatenate([mode[i] for mode, i in zip(flat, idx)]),
                "variance_tensor": a, "variance_hat": a_hat, "a_pad": a_pad,
                "us_raw": us, "us": leray_project(g, us),
                "drift_pad": to_physical(g, us, m), "div_a_grad_us": div_a_grad_us,
                "psi_us": stream_function(g, compress(g, us)),
                "psi_div_a_grad_us": stream_function(g, compress(g, div_a_grad_us)),
                "block_idx": (rows[:, None] * (g.n_modes // 2) + np.arange(s)).ravel(),
                "xi_table": 0.0 + np.ascontiguousarray(table[:, :, rows, :s]).reshape(
                    model.k_modes, -1).view(float),
                "ex": np.exp(1j * np.outer(x, g.half_kx[rows, 0])), "wy": wy}
    got = {"entry_idx": np.concatenate([i for i, _ in model.entries]),
           "entry_values": np.concatenate([v for _, v in model.entries]),
           "variance_tensor": model.variance_tensor, "variance_hat": model.variance_hat,
           "a_pad": model.a_pad, "us_raw": model.ito_stokes_drift,
           "us": model.drift_projected, "drift_pad": model.drift_pad,
           "div_a_grad_us": model.div_a_grad_us, "psi_us": model.psi_us,
           "psi_div_a_grad_us": model.psi_div_a_grad_us, "block_idx": model.block_idx,
           "xi_table": _dense_xi_table(model), "ex": model.ex, "wy": model.wy}
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
    assert model.block_idx is model.xi_terms is model.ex is model.wy is None
    assert not OperatorContext(model, 0.1, 100.0).noisy


def _dense_xi_table(model):
    """The (K, 4 r s) table of the model's xi terms, zero elsewhere."""
    mode, column, value = model.xi_terms
    dense = np.zeros((model.k_modes, 4 * model.block_idx.size))
    dense[mode, column] = value
    return dense


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("mix", [False, True])
def test_xi_scatter_matches_the_dense_dot_bitwise(n, mix):
    # no column of the dense table holds two modes, so each double of xi's
    # block is one product dbeta_k * value summed into +0, as in the dot of
    # the increments with the table: equal bits, signed zeros included, in
    # the block and in what separable_xi makes of it; K up to the largest
    # at which every mode's wavevector sums and differences lie in the grid
    grid = TorusGrid(n)
    m = grid.pad_size
    rng = np.random.default_rng(n)
    largest = {16: 44, 32: 192, 64: 792}[n] // (2 if mix else 1)
    for k in (1, 2, 7, 8, 33, 64, largest):
        model = build_noise_model(grid, k, 3.0, 1.0, mix_shells=mix)
        dense = _dense_xi_table(model)
        assert np.count_nonzero(dense, axis=0).max() == 1, k
        mode, column, value = model.xi_terms
        for dbeta in (rng.standard_normal(k), -0.1 - np.abs(rng.standard_normal(k)),
                      np.where(np.arange(k) % 2 == 0, 0.0, rng.standard_normal(k))):
            block = np.bincount(column, dbeta[mode] * value, dense.shape[1])
            want = np.dot(dbeta, dense)
            assert np.array_equal(block, want), k
            assert np.array_equal(np.signbit(block), np.signbit(want)), k
            want = want.view(complex).reshape(2, model.ex.shape[1], -1)
            want_xi = np.matmul(np.matmul(model.ex, want).view(float), model.wy)
            got, xi = model.separable_xi(dbeta, model.wy, np.empty((2, m, m)))
            assert got.tobytes() == want.tobytes(), k
            assert xi.tobytes() == want_xi.tobytes(), k


def test_model_build_memory_does_not_grow_as_k_n_squared():
    # the modes are kept as their entries, every field is made from them
    # one mode at a time and xi's block as O(K) triples: 512 mixed modes at
    # N = 64 peak far below their (K, 2, n, n) stack of 64 MiB and below
    # the 11 MiB of a dense (K, 4 r s) xi table
    import tracemalloc

    grid = TorusGrid(64)
    tracemalloc.start()
    try:
        build_noise_model(grid, 512, 3.0, 1.0, mix_shells=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


DERIVED_FIELDS = ("variance_tensor", "variance_hat", "ito_stokes_drift", "div_a_grad_us")


def test_model_keeps_only_the_fields_a_run_reads():
    # the four fields only the reference operators, check_regularity and
    # tests read are made when first read: at N = 64, K = 8 mixed the
    # model's arrays fit in 0.7 MiB (1.28 MiB when it stored them), and a
    # velocity or tracer run reads none of them
    cfg = SolverConfig(n_modes=64, k_modes=8, noise_mixing=True, epsilon=0.1, dt=1e-3,
                       t_end=2e-3)
    ctx = build_context(cfg)
    assert held_bytes(ctx.noise) <= 0.7 * 2**20
    run(cfg, model=ctx.noise, warn_cfl=False)
    q0 = np.zeros((64, 64), dtype=complex)
    q0[1, 2] = q0[-1, -2] = 0.5
    run_scalar_transport(cfg, q0, np.zeros((2, 64, 64), dtype=complex), model=ctx.noise)
    assert not set(DERIVED_FIELDS) & vars(ctx.noise).keys()


def test_derived_fields_of_an_overflowed_model_keep_their_bits(grid16):
    # amp 1e300 overflows the mixed pair weights, so the fields hold NaN and
    # inf: read with warnings as errors and outside any errstate, each field
    # made when first read has the bytes of its recipe run under the errstate
    # of build_context
    g = grid16
    with np.errstate(over="ignore", invalid="ignore"):
        model = build_noise_model(g, 4, 3.0, 1e300, mix_shells=True)
        a_hat = entry_product_variance_hat(g, model.entries)
        a = to_physical(g, a_hat)
        us = np.stack([0.5 * divergence(g, a_hat[i]) for i in range(2)])
        a_pad = to_physical(g, a_hat, g.pad_size)
        want = {"variance_tensor": a, "variance_hat": a_hat, "ito_stokes_drift": us,
                "div_a_grad_us": leray_project(g, divergence(g, tensor_flux(g, a_pad, us)))}
    assert not np.isfinite(a).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {name: getattr(model, name) for name in DERIVED_FIELDS}
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name


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


def physical_variance_hat(g, model):
    """a's coefficients by the physical-space recipe: each mode on the n x n
    grid, the pointwise sum of the outer products, one forward transform."""
    a = np.zeros((2, 2, g.n_modes, g.n_modes))
    for coeffs in model.phi:
        p = to_physical(g, coeffs)
        a += p[:, None] * p[None, :]
    return expand(g, from_physical(g, a))


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("mix", [False, True])
@pytest.mark.parametrize("r", [1.0, 3.0])
def test_variance_hat_from_entries_matches_the_physical_recipe(n, mix, r):
    # the fold of the entry products at (k_p + k_q) mod n is how the product
    # on the n x n grid aliases them, so the two agree to rounding at every
    # K, at N = 16 up to the largest the config accepts, whose wavevector
    # sums leave the grid (112 mixed, 224 pure)
    grid = TorusGrid(n)
    ks = [7, 8, 63, 64] + ([max_modes(n, mix)] if n == 16 else [])
    for k in ks:
        model = build_noise_model(grid, k, r, 1.0, mix_shells=mix)
        want = physical_variance_hat(grid, model)
        assert np.max(np.abs(model.variance_hat - want)) <= 1e-14 * np.max(np.abs(want)), k


@pytest.mark.parametrize("n", [16, 32, 64])
def test_homogeneous_noise_gives_a_constant_and_no_drift_exactly(n):
    # with mix false and even K every wavevector holds its cos and its sin
    # mode, whose products at +-2k cancel exactly: a is the constant a(0),
    # bit for bit on the padded grid, and u_s and every field made from it
    # are exactly zero; at K = 7 the last wavevector's cos mode stands alone,
    # so a keeps its +-2k
    grid = TorusGrid(n)
    for k in (2, 8, 64, max_modes(n) if n == 16 else 792):
        model = build_noise_model(grid, k, 3.0, 1.0)
        support = np.flatnonzero(model.variance_hat.any(axis=(0, 1)))
        assert support.tolist() == [0], k
        for a in model.a_pad.reshape(4, -1):
            assert np.all(a == a[0]), k
        for name in ("drift_pad", "psi_us", "psi_div_a_grad_us"):
            assert not getattr(model, name).any(), (k, name)
    model = build_noise_model(grid, 7, 3.0, 1.0)
    k1, k2 = _mode_wavevectors(grid, 7)[-1]
    support = {(0, 0), (2 * k1 % n, 2 * k2 % n), (-2 * k1 % n, -2 * k2 % n)}
    assert set(zip(*np.nonzero(model.variance_hat.any(axis=(0, 1))))) == support


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


def dense_regularity(grid, model):
    """The partial sum and tail ratio of ``check_regularity`` by the dense
    recipe: ``sobolev_norm_sq`` of each mode's (2, n, n) coefficients."""
    terms = np.array([sobolev_norm_sq(grid, coeffs, 3) for coeffs in model.phi])
    partial = float(terms.sum())
    return partial, float(terms[len(terms) // 2:].sum() / partial)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("mix", [False, True])
@pytest.mark.parametrize("r", [1.0, 3.0])
def test_regularity_terms_from_entries_match_the_dense_recipe(n, mix, r):
    # each mode's H^3 mass summed over its entries, odd and even K, and at
    # N = 16 the largest K the config accepts (224 pure, 112 mixed); a mode's
    # entries are added in their order, not in the pairwise order of a sum
    # over its N^2 points, so the tail ratio may differ in its last bits (at
    # most 2 ulp, at N = 16, K = 63 mixed, r = 1), but not whether it passes
    grid = TorusGrid(n)
    for k in [7, 8, 63, 64] + ([max_modes(n, mix)] if n == 16 else []):
        model = build_noise_model(grid, k, r, 1.0, mix_shells=mix)
        partial, tail = dense_regularity(grid, model)
        rep = check_regularity(model)
        assert abs(rep["partial_sum_h3"] - partial) <= 1e-15 * partial, k
        assert abs(rep["tail_ratio"] - tail) <= 1e-15 * tail, k
        assert rep["passes"] == (tail <= 0.1), k


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


def test_coarsen_by_a_factor_that_does_not_divide_the_steps_raises():
    with pytest.raises(ValueError, match="not divisible by coarsening factor"):
        WienerPath(5, 1e-3, 50, 4).coarsen(3)


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
    (2**40 + 5, 2**33, 64, 16, 0.01), (2**63 + 5, 3, 64, 8, 1e-3),
])
def test_wiener_path_bitwise_scipy_reference(monkeypatch, seed, member, n_steps, k_modes, dt):
    # the path keys Philox with exactly [seed, member], a seed >= 2^63
    # included (a key list holding it would be rounded through float64)
    keys = []
    philox = np.random.Philox

    def spy(*args, **kwargs):
        bitgen = philox(*args, **kwargs)
        keys.append(bitgen.state["state"]["key"].tolist())
        return bitgen

    monkeypatch.setattr(np.random, "Philox", spy)
    path = WienerPath(seed, dt, n_steps, k_modes, member=member)
    monkeypatch.undo()
    assert keys == [[seed, member]]
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, member], dtype=np.uint64)))
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
