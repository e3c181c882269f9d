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

``solver.step`` evaluates these terms in one fused expression on the
stream function of v; the functions here keep the per-operator formulas and
are the reference that step is tested against.  Every flux a grad f, here
and in the steps, comes from ``spectral`` with the padded variance tensor
``NoiseModel.a_pad``: ``tensor_flux``/``tensor_flux_physical``, or for the
velocity step ``tensor_flux_curl``, the parts of the flux its curl reads,
formed from three entries of a.  ``spectral.div_a_grad`` is P div(a grad f):
of v in ``apply_F``, and of u_s once, by the noise model.
G(v) phi_k is ``noise_increment`` with a unit increment vector.

Key discrete identities, exact up to rounding thanks to dealiasing:
(A v, v)_H = (1/Re)||v||_V^2, (B(u, v), v)_H = 0, b(u,v,w) = -b(u,w,v),
and the energy pairing (eps^2/2) sum_k |(phi_k.grad)v|^2 = (eps^2/2)(a grad
v, grad v), the last only while every mode's wavevector sums and differences
lie inside the N grid, as a folds each mode's entry products at (k_p + k_q)
mod N (up to 1.3e-4 relative apart at N = 16, K = 112 mixed, r = 1).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseModel
from .spectral import (
    TorusGrid,
    advect,
    div_a_grad,
    gradient,
    h_inner,
    leray_project,
    tensor_flux,
    to_physical,
)


@dataclass(frozen=True)
class OperatorContext:
    """Immutable bundle of a noise model and the physical parameters.

    The grid and every eps-independent field, those the step reads too, are
    the noise model's, made once per model; the properties here read them.
    ``us_pad`` and ``additive_noise_parts``, which only the reference
    operators read, are computed on each use.  Nothing is kept on the
    context.  A run makes its own from its config's eps and Re and a noise
    model, which runs at several eps share (``run(config, model=...)``).
    """

    noise: NoiseModel
    epsilon: float
    reynolds: float
    # nothing in lu_flow reads or writes this dict; perfbench/hook.py keys the
    # first use of the properties below by its id
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not 0.0 < self.reynolds <= sys.float_info.max:  # NaN fails every comparison
            raise ValueError("reynolds must be positive and finite")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")

    @property
    def grid(self) -> TorusGrid:
        return self.noise.grid

    @property
    def noisy(self) -> bool:
        """Whether the noise acts: eps > 0 and a mode is nonzero (null or
        underflowing weights zero them all, and such a model has no xi
        tables).  Every run decision that skips the noise (and so keeps
        eps = 0 bitwise deterministic) reads this."""
        return self.epsilon > 0.0 and self.noise.block_idx is not None

    @property
    def a_pad(self) -> np.ndarray:
        """Variance tensor on the padded physical grid, (2, 2, m, m)."""
        return self.noise.a_pad

    @property
    def us(self) -> np.ndarray:
        """Leray-projected Ito-Stokes drift coefficients (the advected part).

        The drift terms inside F and G use the raw (unprojected) drift
        0.5 div a, ``noise.ito_stokes_drift``; the effective tracer advection
        u - eps^2 u_s uses this projection.  For degenerate-shell mode mixing
        the solenoidal part cancels exactly, so the raw field may be a pure
        gradient even when it is nonzero.
        """
        return self.noise.drift_projected

    @property
    def us_pad(self) -> np.ndarray:
        return to_physical(self.grid, self.us, self.grid.pad_size)

    @property
    def div_a_grad_us(self) -> np.ndarray:
        return self.noise.div_a_grad_us

    @property
    def phi_stack(self) -> np.ndarray:
        return self.noise.phi

    def noise_field(self, dbeta: np.ndarray) -> np.ndarray:
        """xi = sum_k dbeta_k phi_k, (2, n, n), summed mode by mode on each
        mode's entries (a handful of coefficients) instead of through BLAS,
        with the bits of the dense contraction."""
        n = self.grid.n_modes
        out = np.zeros((2, n, n), dtype=complex)
        parts = out.reshape(-1).view(float).reshape(-1, 2)  # (re, im) of each coefficient
        for d, (idx, values) in zip(dbeta, self.noise.entries):
            parts[idx] += d * values.view(float).reshape(-1, 2)
        return out

    @property
    def additive_noise_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode state-independent G parts: (A phi_k, P(phi_k . grad u_s)),
        both shaped (K, 2, n, n)."""
        grid = self.grid
        phi = self.phi_stack
        a_phi = (grid.k_sq / self.reynolds) * phi
        b_phi_us = np.stack([
            leray_project(grid, advect(grid, mode, self.noise.ito_stokes_drift))
            for mode in phi
        ])
        return a_phi, b_phi_us


def apply_A(ctx: OperatorContext, v: np.ndarray) -> np.ndarray:
    """Stokes operator: (|k|^2 / Re) per mode."""
    return (ctx.grid.k_sq / ctx.reynolds) * v


def apply_B(ctx: OperatorContext, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P(u . grad v), evaluated pseudo-spectrally with dealiasing."""
    return leray_project(ctx.grid, advect(ctx.grid, u, v))


def trilinear_b(ctx: OperatorContext, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """b(u, v, w) = (w, (u.grad) v)_H."""
    uv = advect(ctx.grid, u, v)
    return h_inner(ctx.grid, w, uv)


def dirichlet_form(ctx: OperatorContext, coeffs: np.ndarray) -> float:
    """(a grad f, grad f)_H with the dealiased flux of ``spectral.div_a_grad``."""
    grid = ctx.grid
    return h_inner(grid, gradient(grid, coeffs), tensor_flux(grid, ctx.a_pad, coeffs))


def apply_F(ctx: OperatorContext, v: np.ndarray) -> np.ndarray:
    """Drift correction induced by the noise; zero when eps = 0."""
    grid = ctx.grid
    eps2 = ctx.epsilon**2
    if eps2 == 0.0:
        return np.zeros_like(v)
    us = ctx.noise.ito_stokes_drift
    out = eps2 * apply_B(ctx, v, us)
    out -= 0.5 * eps2 * div_a_grad(grid, ctx.a_pad, v)
    out -= 0.5 * eps2**2 * ctx.div_a_grad_us
    out -= eps2 * leray_project(grid, (grid.k_sq / ctx.reynolds) * us)
    # + eps^2 P d/dt u_s: identically zero for time-independent noise
    return out


def apply_G_column(ctx: OperatorContext, v: np.ndarray, k: int) -> np.ndarray:
    """G(v) phi_k = -eps A phi_k - eps B(phi_k, v) - eps^3 B(phi_k, u_s),
    the noise increment for the k-th unit increment vector."""
    if not 0 <= k < ctx.noise.k_modes:
        raise IndexError(f"mode index {k} out of range [0, {ctx.noise.k_modes})")
    return noise_increment(ctx, v, np.eye(ctx.noise.k_modes)[k])


def noise_increment(ctx: OperatorContext, v: np.ndarray, dbeta: np.ndarray) -> np.ndarray:
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
        return np.zeros_like(v)
    grid = ctx.grid
    a_phi, b_phi_us = ctx.additive_noise_parts
    xi = ctx.noise_field(dbeta)
    b_xi_v = leray_project(grid, advect(grid, xi, v))
    out = -eps * np.tensordot(dbeta, a_phi, axes=(0, 0))
    out -= eps * b_xi_v
    out -= eps**3 * np.tensordot(dbeta, b_phi_us, axes=(0, 0))
    return out


def transport_quadratic_sum(ctx: OperatorContext, v: np.ndarray) -> float:
    """sum_k |(phi_k . grad) v|_H^2 (without projection), the Ito intake side
    of the energy-neutrality identity."""
    grid = ctx.grid
    m = grid.pad_size
    gv_phys = to_physical(grid, gradient(grid, v), m)
    total = 0.0
    for phi in ctx.phi_stack:
        phi_pad = to_physical(grid, phi, m)
        pv = np.einsum("l...,li...->i...", phi_pad, gv_phys)
        # quadrature on the padded grid: exact for the band-limited integrand
        total += float(np.sum(np.mean(pv**2, axis=(-2, -1)))) * (2.0 * np.pi) ** 2
    return total
