"""The four operators of the pressure-free abstract system.

With P the Leray projection, Re the Reynolds number and eps the noise
amplitude scale:

    A v        = -(1/Re) P Laplacian v            (Stokes operator)
    B(u, v)    = P (u . grad v)                   (dealiased, bilinear)
    F(v)       = eps^2 B(v, u_s) - (eps^2/2) P div(a grad v)
                 - (eps^4/2) P div(a grad u_s) - eps^2 A u_s
    G(v) phi_k = -eps A phi_k - eps B(phi_k, v) - eps^3 B(phi_k, u_s)

The time-derivative contribution of the drift correction is identically
zero for the time-independent covariance family used here; this is the
extension point for a time-dependent noise model.

``solver.step`` evaluates these terms in one fused expression; the
functions here keep the per-operator formulas and are the reference that
step is tested against.  Every flux a grad f, here and in the step, comes
from ``spectral.tensor_flux``/``tensor_flux_physical`` with the padded
variance tensor ``NoiseModel.a_pad``, and G(v) phi_k is ``noise_increment``
with a unit increment vector.

Key discrete identities, exact up to rounding thanks to dealiasing:
(A v, v)_H = (1/Re)||v||_V^2, (B(u, v), v)_H = 0, b(u,v,w) = -b(u,w,v),
and the energy pairing (eps^2/2) sum_k |(phi_k.grad)v|^2 =
(eps^2/2)(a grad v, grad v).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseModel
from .spectral import (
    GridMismatchError,
    SpectralVelocity,
    TorusGrid,
    advect,
    divergence,
    gradient,
    h_inner,
    leray_project,
    tensor_flux,
    to_physical,
)


@dataclass
class OperatorContext:
    """Immutable bundle of grid, noise model and physical parameters.

    Caches the derived noise fields that repeated operator applications
    reuse (the padded variance tensor is owned by the noise model).  No
    cached field depends on epsilon, so ``dataclasses.replace(ctx,
    epsilon=...)`` gives a context that shares the cache.
    """

    grid: TorusGrid
    noise: NoiseModel
    epsilon: float
    reynolds: float
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.reynolds <= 0:
            raise ValueError("reynolds must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.noise.grid != self.grid:
            raise GridMismatchError("noise model grid differs from context grid")

    @property
    def a_pad(self) -> np.ndarray:
        """Variance tensor on the padded physical grid, (2, 2, m, m)."""
        return self.noise.a_pad

    @property
    def us(self) -> np.ndarray:
        """Leray-projected Ito-Stokes drift coefficients (the advected part).

        The drift terms inside F and G use the raw field ``us_raw``; the
        change of variable and the effective advection use this projection.
        """
        if "us" not in self._cache:
            self._cache["us"] = leray_project(self.grid, self.noise.ito_stokes_drift.coeffs)
        return self._cache["us"]

    @property
    def us_raw(self) -> np.ndarray:
        """Raw (unprojected) drift 0.5 div a.  For degenerate-shell mode
        mixing the solenoidal part cancels exactly, so the raw field may be
        a pure gradient even when it is nonzero."""
        return self.noise.ito_stokes_drift.coeffs

    @property
    def us_pad(self) -> np.ndarray:
        if "us_pad" not in self._cache:
            self._cache["us_pad"] = to_physical(self.grid, self.us, self.grid.pad_size)
        return self._cache["us_pad"]

    @property
    def div_a_grad_us(self) -> np.ndarray:
        if "div_a_grad_us" not in self._cache:
            self._cache["div_a_grad_us"] = _div_a_grad(self, self.us_raw)
        return self._cache["div_a_grad_us"]

    @property
    def phi_stack(self) -> np.ndarray:
        if "phi_stack" not in self._cache:
            self._cache["phi_stack"] = self.noise.mode_coeff_stack()
        return self._cache["phi_stack"]

    @property
    def additive_noise_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode state-independent G parts: (A phi_k, P(phi_k . grad u_s)),
        both shaped (K, 2, n, n)."""
        if "additive" not in self._cache:
            grid = self.grid
            phis = self.phi_stack
            a_phi = (grid.k_sq / self.reynolds) * phis
            b_phi_us = np.stack([
                leray_project(grid, advect(grid, phi, self.us_raw)) for phi in phis
            ])
            self._cache["additive"] = (a_phi, b_phi_us)
        return self._cache["additive"]


def apply_A(ctx: OperatorContext, v: SpectralVelocity) -> SpectralVelocity:
    """Stokes operator: (|k|^2 / Re) per mode."""
    return SpectralVelocity(v.grid, (ctx.grid.k_sq / ctx.reynolds) * v.coeffs)


def apply_B(ctx: OperatorContext, u: SpectralVelocity, v: SpectralVelocity) -> SpectralVelocity:
    """P(u . grad v), evaluated pseudo-spectrally with dealiasing."""
    if u.grid != v.grid:
        raise GridMismatchError("operands live on different grids")
    out = leray_project(ctx.grid, advect(ctx.grid, u.coeffs, v.coeffs))
    return SpectralVelocity(v.grid, out)


def trilinear_b(ctx: OperatorContext, u: SpectralVelocity, v: SpectralVelocity,
                w: SpectralVelocity) -> float:
    """b(u, v, w) = (w, (u.grad) v)_H."""
    uv = advect(ctx.grid, u.coeffs, v.coeffs)
    return h_inner(ctx.grid, w.coeffs, uv)


def _div_a_grad(ctx: OperatorContext, coeffs: np.ndarray) -> np.ndarray:
    """P div(a grad f) for a 2-component field f, dealiased."""
    grid = ctx.grid
    return leray_project(grid, divergence(grid, tensor_flux(grid, ctx.a_pad, coeffs)))


def dirichlet_form(ctx: OperatorContext, coeffs: np.ndarray) -> float:
    """(a grad f, grad f)_H with the same dealiased flux as _div_a_grad."""
    grid = ctx.grid
    return h_inner(grid, gradient(grid, coeffs), tensor_flux(grid, ctx.a_pad, coeffs))


def apply_F(ctx: OperatorContext, v: SpectralVelocity) -> SpectralVelocity:
    """Drift correction induced by the noise; zero when eps = 0."""
    grid = ctx.grid
    eps2 = ctx.epsilon**2
    if eps2 == 0.0:
        return SpectralVelocity(v.grid, np.zeros_like(v.coeffs))
    us_field = SpectralVelocity(grid, ctx.us_raw)
    b_v_us = apply_B(ctx, v, us_field).coeffs
    out = eps2 * b_v_us
    out -= 0.5 * eps2 * _div_a_grad(ctx, v.coeffs)
    out -= 0.5 * eps2**2 * ctx.div_a_grad_us
    out -= eps2 * leray_project(grid, (grid.k_sq / ctx.reynolds) * ctx.us_raw)
    # + eps^2 P d/dt u_s: identically zero for time-independent noise
    return SpectralVelocity(v.grid, out)


def apply_G_column(ctx: OperatorContext, v: SpectralVelocity, k: int) -> SpectralVelocity:
    """G(v) phi_k = -eps A phi_k - eps B(phi_k, v) - eps^3 B(phi_k, u_s),
    the noise increment for the k-th unit increment vector."""
    if not 0 <= k < ctx.noise.k_modes:
        raise IndexError(f"mode index {k} out of range [0, {ctx.noise.k_modes})")
    return noise_increment(ctx, v, np.eye(ctx.noise.k_modes)[k])


def noise_increment(ctx: OperatorContext, v: SpectralVelocity, dbeta: np.ndarray) -> SpectralVelocity:
    """sum_k G(v) phi_k * dbeta_k, using linearity of G in its noise argument.

    The state-independent parts are contracted against dbeta directly and
    the transport part is one bilinear evaluation with the aggregated noise
    field xi = sum_k phi_k dbeta_k.
    """
    dbeta = np.asarray(dbeta, dtype=float)
    if dbeta.shape != (ctx.noise.k_modes,):
        raise ValueError(f"expected {ctx.noise.k_modes} increments, got shape {dbeta.shape}")
    eps = ctx.epsilon
    if eps == 0.0:
        return SpectralVelocity(v.grid, np.zeros_like(v.coeffs))
    grid = ctx.grid
    a_phi, b_phi_us = ctx.additive_noise_parts
    xi = np.tensordot(dbeta, ctx.phi_stack, axes=(0, 0))
    b_xi_v = leray_project(grid, advect(grid, xi, v.coeffs))
    out = -eps * np.tensordot(dbeta, a_phi, axes=(0, 0))
    out -= eps * b_xi_v
    out -= eps**3 * np.tensordot(dbeta, b_phi_us, axes=(0, 0))
    return SpectralVelocity(v.grid, out)


def transport_quadratic_sum(ctx: OperatorContext, v: SpectralVelocity) -> float:
    """sum_k |(phi_k . grad) v|_H^2 (without projection), the Ito intake side
    of the energy-neutrality identity."""
    grid = ctx.grid
    m = grid.pad_size
    gv_phys = to_physical(grid, gradient(grid, v.coeffs), m)
    total = 0.0
    for phi in ctx.phi_stack:
        phi_pad = to_physical(grid, phi, m)
        pv = np.einsum("l...,li...->i...", phi_pad, gv_phys)
        # quadrature on the padded grid: exact for the band-limited integrand
        total += float(np.sum(np.mean(pv**2, axis=(-2, -1)))) * (2.0 * np.pi) ** 2
    return total


def change_of_variable(u: SpectralVelocity, ctx: OperatorContext) -> SpectralVelocity:
    """v = u - eps^2 P(u_s)."""
    return SpectralVelocity(u.grid, u.coeffs - ctx.epsilon**2 * ctx.us)


def inverse_change(v: SpectralVelocity, ctx: OperatorContext) -> SpectralVelocity:
    """u = v + eps^2 P(u_s)."""
    return SpectralVelocity(v.grid, v.coeffs + ctx.epsilon**2 * ctx.us)
