"""Operator identities, epsilon scalings, and the noise-pair energy identity."""

from dataclasses import replace

import numpy as np
import pytest

from lu_flow.noise import build_noise_model
from lu_flow.operators import (
    OperatorContext,
    apply_A,
    apply_B,
    apply_F,
    apply_G_column,
    dirichlet_form,
    noise_increment,
    transport_quadratic_sum,
    trilinear_b,
)
from lu_flow.spectral import (
    TorusGrid,
    expand,
    from_physical,
    h_inner,
    h_norm,
    leray_project,
    max_divergence,
    to_physical,
    v_norm,
)

from conftest import random_div_free, synthetic_inhomogeneous_model


def make_ctx(grid, epsilon=0.1, reynolds=100.0, k_modes=4, mix=True, amp=1.0):
    model = build_noise_model(grid, k_modes, 3.0, amp, mix_shells=mix)
    return OperatorContext(model, epsilon, reynolds)


def vprime_norm(grid, coeffs):
    """Dual norm: multiplier 1/|k| on the zero-mean part."""
    k = np.sqrt(np.where(grid.k_sq == 0, 1.0, grid.k_sq))
    return 2.0 * np.pi * np.sqrt(np.sum(np.abs(coeffs / k) ** 2))


# ---------------------------------------------------------------------------
# core identities


def test_stokes_identity(grid32, rng):
    ctx = make_ctx(grid32)
    for _ in range(10):
        v = random_div_free(grid32, rng)
        lhs = h_inner(grid32, apply_A(ctx, v), v)
        rhs = v_norm(grid32, v) ** 2 / ctx.reynolds
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_bilinear_orthogonality(grid32, rng):
    ctx = make_ctx(grid32)
    for _ in range(10):
        u = random_div_free(grid32, rng)
        v = random_div_free(grid32, rng)
        buv = apply_B(ctx, u, v)
        scale = h_norm(grid32, buv) * h_norm(grid32, v)
        assert abs(h_inner(grid32, buv, v)) < 1e-10 * max(scale, 1e-30)


def test_trilinear_antisymmetry(grid32, rng):
    ctx = make_ctx(grid32)
    for _ in range(10):
        u, v, w = (random_div_free(grid32, rng) for _ in range(3))
        fwd = trilinear_b(ctx, u, v, w)
        bwd = trilinear_b(ctx, u, w, v)
        assert abs(fwd + bwd) < 1e-10 * max(abs(fwd), 1e-30)


def test_identity_fails_without_dealiasing(grid32, rng):
    # regression guard: the orthogonality above depends on the padded product
    u = random_div_free(grid32, rng, band=15)
    v = random_div_free(grid32, rng, band=15)
    grads = np.stack([1j * grid32.kx * v, 1j * grid32.ky * v])
    u_phys = to_physical(grid32, u)                  # no padding: aliased
    g_phys = to_physical(grid32, grads)
    aliased = expand(grid32, from_physical(grid32, np.einsum("l...,li...->i...", u_phys, g_phys)))
    aliased = leray_project(grid32, aliased)
    residual = abs(h_inner(grid32, aliased, v))
    assert residual > 1e-8 * h_norm(grid32, aliased) * h_norm(grid32, v)


def test_apply_b_trivial_zero(grid32):
    # u = (sin y, 0), v = (f(y), 0): u . grad v = u1 dx v = 0
    x = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    X, Y = np.meshgrid(x, x, indexing="ij")
    zero = np.zeros((32, 32), dtype=complex)
    u = np.stack([expand(grid32, from_physical(grid32, np.sin(Y))), zero])
    v = np.stack([expand(grid32, from_physical(grid32, np.cos(2 * Y))), zero])
    ctx = make_ctx(grid32)
    assert h_norm(grid32, apply_B(ctx, u, v)) < 1e-14


def test_operator_outputs_divergence_free(grid32, rng):
    ctx = make_ctx(grid32)
    u = random_div_free(grid32, rng)
    v = random_div_free(grid32, rng)
    for out in (apply_A(ctx, v), apply_B(ctx, u, v), apply_F(ctx, v),
                apply_G_column(ctx, v, 2)):
        assert max_divergence(grid32, out) < 1e-12 * max(
            h_norm(grid32, out), 1e-30)


# ---------------------------------------------------------------------------
# F


def test_f_zero_at_eps_zero(grid32, rng):
    ctx = make_ctx(grid32, epsilon=0.0)
    v = random_div_free(grid32, rng)
    assert np.all(apply_F(ctx, v) == 0.0)


def test_f_homogeneous_closed_form(grid32, rng):
    # homogeneous noise: u_s = 0 and a = a0 constant, so F reduces to the
    # constant-coefficient diffusion with Fourier multiplier (k^T a0 k)/2
    ctx = make_ctx(grid32, epsilon=0.2, mix=False)
    assert h_norm(grid32, ctx.us) < 1e-14
    a0 = ctx.noise.variance_tensor[:, :, 0, 0]
    v = random_div_free(grid32, rng)
    kak = (a0[0, 0] * grid32.kx**2 + (a0[0, 1] + a0[1, 0]) * grid32.kx * grid32.ky
           + a0[1, 1] * grid32.ky**2)
    expected = leray_project(grid32, 0.5 * ctx.epsilon**2 * kak * v)
    got = apply_F(ctx, v)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_f_epsilon_slope(grid32, rng):
    v = random_div_free(grid32, rng)
    epsilons = np.array([0.4, 0.2, 0.1, 0.05])
    norms = [h_norm(grid32, apply_F(make_ctx(grid32, epsilon=e), v))
             for e in epsilons]
    slope = np.polyfit(np.log(epsilons), np.log(norms), 1)[0]
    assert slope >= 1.95


def test_f_quartic_term_isolated(grid32, rng):
    # F(v; 2e) - 4 F(v; e) leaves only the eps^4 contribution, which scales
    # by 16 between the two levels; needs a model whose quartic correction
    # P div(a grad u_s) is actually nonzero
    model = synthetic_inhomogeneous_model(grid32)
    v = random_div_free(grid32, rng)
    resid = {}
    for e in (0.1, 0.2):
        f2 = apply_F(OperatorContext(model, 2 * e, 100.0), v)
        f1 = apply_F(OperatorContext(model, e, 100.0), v)
        resid[e] = h_norm(grid32, f2 - 4.0 * f1)
    assert resid[0.1] > 1e-10  # the term is genuinely present
    assert resid[0.2] / resid[0.1] == pytest.approx(16.0, rel=1e-9)


def test_f_dual_norm_bound(grid32, rng):
    # ||F(v)||_{V'} <= C eps^2 (||v||_V + 1) with one C stable across eps
    v = random_div_free(grid32, rng)
    ratios = []
    for e in (0.05, 0.1, 0.2, 0.4):
        ctx = make_ctx(grid32, epsilon=e)
        f = apply_F(ctx, v)
        ratios.append(vprime_norm(grid32, f)
                      / (e**2 * (v_norm(grid32, v) + 1.0)))
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 1.5


# ---------------------------------------------------------------------------
# G


def test_g_zero_at_eps_zero(grid32, rng):
    ctx = make_ctx(grid32, epsilon=0.0)
    v = random_div_free(grid32, rng)
    assert np.all(apply_G_column(ctx, v, 0) == 0.0)


def test_g_additive_part(grid32):
    # v = 0 with a pure model (u_s = 0): the column is -eps A phi_k exactly
    ctx = make_ctx(grid32, epsilon=0.1, mix=False)
    zero = np.zeros((2, 32, 32), dtype=complex)
    for k in range(4):
        phi = ctx.noise.phi[k]
        expected = -ctx.epsilon * (grid32.k_sq / ctx.reynolds) * phi
        got = apply_G_column(ctx, zero, k)
        assert np.max(np.abs(got - expected)) < 1e-14


def test_g_index_out_of_range(grid32, rng):
    ctx = make_ctx(grid32)
    v = random_div_free(grid32, rng)
    with pytest.raises(IndexError):
        apply_G_column(ctx, v, 4)


def test_g_epsilon_slope_and_hs_bound(grid32, rng):
    v = random_div_free(grid32, rng)
    epsilons = np.array([0.4, 0.2, 0.1, 0.05])
    norms, ratios = [], []
    for e in epsilons:
        ctx = make_ctx(grid32, epsilon=e)
        hs_sq = sum(h_norm(grid32, apply_G_column(ctx, v, k)) ** 2
                    for k in range(4))
        norms.append(np.sqrt(hs_sq))
        ratios.append(hs_sq / (e**2 * (v_norm(grid32, v) ** 2 + 1.0 + e**4)))
    slope = np.polyfit(np.log(epsilons), np.log(norms), 1)[0]
    assert slope >= 0.95
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 1.5  # single C serves every eps


# ---------------------------------------------------------------------------
# noise increment


def test_noise_increment_zero_and_column_match(grid32, rng):
    ctx = make_ctx(grid32)
    v = random_div_free(grid32, rng)
    assert np.all(noise_increment(ctx, v, np.zeros(4)) == 0.0)
    e2 = np.zeros(4)
    e2[2] = 1.0
    single = noise_increment(ctx, v, e2)
    col = apply_G_column(ctx, v, 2)
    assert np.max(np.abs(single - col)) < 1e-13 * max(np.max(np.abs(col)), 1e-30)


def test_contexts_share_the_model_fields(grid32):
    # the eps-independent fields are the model's, so a context made by
    # replace or from ctx.noise reads the very same arrays
    ctx = make_ctx(grid32)
    others = [replace(ctx, epsilon=0.3), replace(ctx, epsilon=0.0),
              OperatorContext(ctx.noise, 0.05, 50.0)]
    for other in others:
        for name in ("a_pad", "us", "phi_stack"):
            assert getattr(other, name) is getattr(ctx, name), name
    assert ctx.a_pad is ctx.noise.a_pad and ctx.us is ctx.noise.drift_projected
    assert ctx.phi_stack is ctx.noise.phi


@pytest.mark.parametrize("reynolds", [0.0, -1.0, float("nan"), float("inf")])
def test_context_requires_a_positive_finite_reynolds_number(grid16, reynolds):
    # as SolverConfig requires of Re
    model = build_noise_model(grid16, 4, 3.0, 1.0)
    with pytest.raises(ValueError, match="reynolds must be positive and finite"):
        OperatorContext(model, 0.1, reynolds)


@pytest.mark.parametrize("epsilon", [1.5, -0.1])
def test_context_requires_epsilon_in_the_unit_interval(grid16, epsilon):
    # as SolverConfig requires of eps
    model = build_noise_model(grid16, 4, 3.0, 1.0)
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
        OperatorContext(model, epsilon, 100.0)


@pytest.mark.parametrize("model", ["mix", "pure", "synthetic"])
def test_noise_field_matches_tensordot_bitwise(grid32, rng, model):
    # xi is summed on the joint support of the modes, off BLAS, with the bits
    # of the dense contraction
    if model == "synthetic":
        noise = synthetic_inhomogeneous_model(grid32)
    else:
        noise = build_noise_model(grid32, 8, 3.0, 1.0, mix_shells=model == "mix")
    ctx = OperatorContext(noise, 0.1, 100.0)
    for _ in range(20):
        dbeta = 0.03 * rng.standard_normal(noise.k_modes)
        dense = np.tensordot(dbeta, ctx.phi_stack, axes=(0, 0))
        assert ctx.noise_field(dbeta).tobytes() == dense.tobytes()


def test_noise_increment_linearity(grid32, rng):
    ctx = make_ctx(grid32)
    v = random_div_free(grid32, rng)
    b1, b2 = rng.standard_normal(4), rng.standard_normal(4)
    combo = noise_increment(ctx, v, 0.3 * b1 - 1.7 * b2)
    parts = 0.3 * noise_increment(ctx, v, b1) - 1.7 * noise_increment(ctx, v, b2)
    assert np.max(np.abs(combo - parts)) < 1e-12 * max(np.max(np.abs(parts)), 1e-30)


def test_noise_increment_length_mismatch(grid32, rng):
    ctx = make_ctx(grid32)
    v = random_div_free(grid32, rng)
    with pytest.raises(ValueError):
        noise_increment(ctx, v, np.zeros(5))


# ---------------------------------------------------------------------------
# energy identity of the noise pair


def test_transport_energy_identity(grid32, rng):
    # sum_k |(phi_k . grad) v|^2 equals the diffusion Dirichlet form
    for mix in (False, True):
        ctx = make_ctx(grid32, mix=mix)
        v = random_div_free(grid32, rng)
        lhs = transport_quadratic_sum(ctx, v)
        rhs = dirichlet_form(ctx, v)
        assert abs(lhs - rhs) < 1e-10 * rhs
