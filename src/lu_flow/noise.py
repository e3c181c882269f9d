"""Construction of the transport-noise model and its Brownian driving paths.

The unresolved velocity is expanded on the K lowest divergence-free real
Fourier modes of the torus, each weighted by amplitude * lambda_k**(-r)
with lambda_k = |k|^2 / Re (the Stokes eigenvalue), the standard smooth
covariance family.  Derived fields: the variance tensor
a(x) = sum_k phi_k(x) phi_k(x)^T and the Ito-Stokes drift u_s = 0.5 div a.

Brownian increments are generated with the counter-based Philox engine and
an inverse-CDF Gaussian transform, so increment tables are bit-reproducible
across runs and platforms given (seed, dt, n_steps, K).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .spectral import (
    TWO_PI,
    TorusGrid,
    SpectralVelocity,
    divergence,
    from_physical,
    sobolev_norm_sq,
    tensor_flux,
    to_physical,
    v_norm,
)


def _mode_wavevectors(grid: TorusGrid, k_modes: int) -> list[tuple[int, int]]:
    """Half-lattice wavevector representatives in deterministic order.

    One representative per {k, -k} pair (k1 > 0, or k1 == 0 and k2 > 0),
    sorted lexicographically by (|k|^2, k1, k2).  Each representative
    carries two real polarizations (cos, sin).
    """
    half = grid.n_modes // 2
    reps = []
    for k1 in range(0, half):
        for k2 in range(-half + 1, half):
            if k1 == 0 and k2 <= 0:
                continue
            reps.append((k1, k2))
    reps.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2, k[0], k[1]))
    n_pairs = (k_modes + 1) // 2
    if n_pairs > len(reps):
        raise ValueError(
            f"requested {k_modes} noise modes but only {2 * len(reps)} exist at N={grid.n_modes}"
        )
    return reps[:n_pairs]


def _real_mode_coeffs(grid: TorusGrid, kvec: tuple[int, int], polarization: str) -> np.ndarray:
    """Unit-H-norm divergence-free real mode: w * cos(k.x) or w * sin(k.x),
    with w = k_perp / |k|."""
    n = grid.n_modes
    k1, k2 = kvec
    norm = np.hypot(k1, k2)
    w = np.array([-k2 / norm, k1 / norm])
    c = np.zeros((2, n, n), dtype=complex)
    amp = np.sqrt(2.0) / (2.0 * TWO_PI)  # |phi|_H = 1
    ip, jp = k1 % n, k2 % n
    im, jm = (-k1) % n, (-k2) % n
    if polarization == "cos":
        c[:, ip, jp] = w * amp
        c[:, im, jm] = w * amp
    else:
        c[:, ip, jp] = w * (-1j * amp)
        c[:, im, jm] = w * (1j * amp)
    return c


@dataclass
class NoiseModel:
    """Eigenmode expansion of the unresolved-velocity covariance.

    ``modes`` holds the weighted eigenfunctions (amplitude folded in);
    ``variance_tensor`` is a(x) on the physical grid, shape (2, 2, n, n);
    ``ito_stokes_drift`` the raw (unprojected) field 0.5 div a;
    ``a_pad`` a on the padded grid, built on first use.
    """

    grid: TorusGrid
    modes: list[SpectralVelocity]
    spectrum_exponent: float
    amplitude: float
    reynolds: float = 1.0
    variance_tensor: np.ndarray = field(init=False)
    ito_stokes_drift: SpectralVelocity = field(init=False)

    def __post_init__(self):
        self.variance_tensor = variance_tensor(self)
        self.ito_stokes_drift = ito_stokes_drift(self)

    @cached_property
    def a_pad(self) -> np.ndarray:
        """Variance tensor on the padded physical grid, (2, 2, m, m)."""
        a_hat = from_physical(self.grid, self.variance_tensor)
        return to_physical(self.grid, a_hat, self.grid.pad_size)

    @property
    def k_modes(self) -> int:
        return len(self.modes)

    def mode_coeff_stack(self) -> np.ndarray:
        """All mode coefficients stacked, shape (K, 2, n, n)."""
        return np.stack([m.coeffs for m in self.modes])


def build_noise_model(grid: TorusGrid, k_modes: int, spectrum_exponent: float,
                      amplitude: float, reynolds: float = 1.0,
                      mix_shells: bool = False) -> NoiseModel:
    """K lowest divergence-free real Fourier eigenmodes, weighted by
    amplitude * lambda_k**(-spectrum_exponent) with lambda_k = |k|^2 / Re.

    For pure single-wavevector modes every outer product phi phi^T has zero
    divergence, so the Ito-Stokes drift vanishes identically (the truncated
    homogeneous family); mixing within one shell produces only a gradient
    drift.  With ``mix_shells`` wavevectors from *different* shells are
    combined pairwise into single modes
    (w_a trig(k_a.x) + w_b trig(k_b.x)) / sqrt(2), unit-norm and
    divergence-free, whose cross terms make the variance tensor spatially
    inhomogeneous with a genuinely solenoidal drift component.  Pair weights
    are the geometric mean of the two shell weights.  Mode ordering is
    deterministic in both variants.
    """
    if k_modes < 1:
        raise ValueError("k_modes must be >= 1")
    # pairwise mixing consumes wavevectors twice as fast as pure polarizations
    reps = _mode_wavevectors(grid, 2 * k_modes if mix_shells else k_modes)
    modes = []

    def emit(kvecs, weight):
        for pol in ("cos", "sin"):
            if len(modes) == k_modes:
                return
            c = sum(_real_mode_coeffs(grid, kv, pol) for kv in kvecs)
            c *= weight / np.sqrt(len(kvecs))
            modes.append(SpectralVelocity(grid, c))

    def weight_of(kvec):
        lam = (kvec[0] ** 2 + kvec[1] ** 2) / reynolds
        return amplitude * lam ** (-spectrum_exponent)

    if not mix_shells:
        for kvec in reps:
            emit([kvec], weight_of(kvec))
    else:
        half = (len(reps) + 1) // 2
        for j in range(half):
            pair = [reps[j]] + ([reps[j + half]] if j + half < len(reps) else [])
            weight = np.sqrt(np.prod([weight_of(kv) for kv in pair]))
            emit(pair, weight)
    if len(modes) < k_modes:
        raise ValueError(f"could not assemble {k_modes} modes at N={grid.n_modes}")
    return NoiseModel(grid, modes, spectrum_exponent, amplitude, reynolds)


def variance_tensor(model: NoiseModel) -> np.ndarray:
    """a(x) = sum_k phi_k(x) phi_k(x)^T on the physical grid, (2, 2, n, n)."""
    grid = model.grid
    n = grid.n_modes
    a = np.zeros((2, 2, n, n))
    for m in model.modes:
        phi = to_physical(grid, m.coeffs)
        a += phi[:, None] * phi[None, :]
    return a


def ito_stokes_drift(model: NoiseModel) -> SpectralVelocity:
    """0.5 div a computed spectrally (row-wise divergence), stored raw."""
    grid = model.grid
    a_hat = from_physical(grid, model.variance_tensor)
    us = np.stack([0.5 * divergence(grid, a_hat[i]) for i in range(2)])
    return SpectralVelocity(grid, us)


def check_regularity(model: NoiseModel, tail_threshold: float = 0.1) -> dict:
    """Summability report for the H^3 norms of the weighted modes.

    Returns partial sums S_K = sum_k ||phi_k||^2_{H3}, two tail indicators
    (the last-term / partial-sum ratio, and the fraction of S_K contributed
    by the upper half of the truncation, i.e. the mass added when the
    truncation doubles), and the drift norms ||u_s||_{H3} and
    ||a grad u_s||_V.  The pass flag uses the half-mass indicator, which
    stays bounded away from zero for divergent spectra at any truncation.
    """
    grid = model.grid
    terms = np.array([sobolev_norm_sq(grid, m.coeffs, 3) for m in model.modes])
    partial = float(terms.sum())
    last_term_ratio = float(terms[-1] / partial) if partial > 0 else 0.0
    tail_ratio = float(terms[len(terms) // 2:].sum() / partial) if partial > 0 else 0.0
    us = model.ito_stokes_drift
    us_h3 = float(np.sqrt(sobolev_norm_sq(grid, us.coeffs, 3)))
    a_grad_us_v = v_norm(grid, tensor_flux(grid, model.a_pad, us.coeffs))
    return {
        "partial_sum_h3": partial,
        "terms_h3": terms,
        "last_term_ratio": last_term_ratio,
        "tail_ratio": tail_ratio,
        "passes": tail_ratio <= tail_threshold,
        "us_h3": us_h3,
        "a_grad_us_v": a_grad_us_v,
    }


def format_regularity_report(report: dict) -> str:
    lines = [
        f"partial_sum_h3 {report['partial_sum_h3']:.12g}",
        f"tail_ratio {report['tail_ratio']:.12g}",
        f"passes {str(report['passes']).lower()}",
        f"us_h3 {report['us_h3']:.12g}",
        f"a_grad_us_v {report['a_grad_us_v']:.12g}",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Brownian paths

class WienerPath:
    """Reproducible table of Brownian increments, shape (n_steps, K).

    Generated with Philox keyed by (seed, member) and a 53-bit uniform ->
    inverse normal CDF transform; bit-exact across platforms.
    """

    def __init__(self, seed: int, dt: float, n_steps: int, k_modes: int,
                 member: int = 0, _increments: np.ndarray | None = None):
        self.seed = int(seed)
        self.member = int(member)
        self.dt = float(dt)
        self.n_steps = int(n_steps)
        self.k_modes = int(k_modes)
        if _increments is not None:
            self.increments = _increments
        else:
            bitgen = np.random.Philox(key=[self.seed % 2**64, self.member % 2**64])
            gen = np.random.Generator(bitgen)
            raw = gen.integers(0, 2**53, size=(self.n_steps, self.k_modes), dtype=np.int64)
            uniforms = (raw.astype(np.float64) + 0.5) / 2**53
            self.increments = ndtri(uniforms) * np.sqrt(self.dt)
            self._self_check()

    def _self_check(self):
        n = self.increments.size
        if n < 10_000:
            return
        mean = self.increments.mean()
        var = self.increments.var()
        se_mean = np.sqrt(self.dt / n)
        se_var = self.dt * np.sqrt(2.0 / n)
        if abs(mean) > 5 * se_mean:
            raise RuntimeError(f"Wiener increments fail mean check: {mean:.3e}")
        if abs(var - self.dt) > 5 * se_var:
            raise RuntimeError(f"Wiener increments fail variance check: {var:.3e}")

    def coarsen(self, factor: int) -> "WienerPath":
        """Sum consecutive increments: the same Brownian path at dt * factor."""
        if self.n_steps % factor != 0:
            raise ValueError("n_steps not divisible by coarsening factor")
        coarse = self.increments.reshape(self.n_steps // factor, factor, self.k_modes).sum(axis=1)
        return WienerPath(self.seed, self.dt * factor, self.n_steps // factor,
                          self.k_modes, self.member, _increments=coarse)


def sample_increments(path: WienerPath, step: int) -> np.ndarray:
    """Row ``step`` of the increment table."""
    if not 0 <= step < path.n_steps:
        raise IndexError(f"step {step} out of range [0, {path.n_steps})")
    return path.increments[step]
