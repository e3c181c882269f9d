"""Construction of the transport-noise model and its Brownian driving paths.

The unresolved velocity is expanded on the K lowest divergence-free real
Fourier modes of the torus, each weighted by amplitude * lambda_k**(-r)
with lambda_k = |k|^2 (the Stokes eigenvalue at unit viscosity), the
standard smooth covariance family.  Derived fields: the variance tensor
a(x) = sum_k phi_k(x) phi_k(x)^T and the Ito-Stokes drift u_s = 0.5 div a.

Brownian increments are generated with the counter-based Philox engine and
an inverse-CDF Gaussian transform: a numpy port of the Cephes ``ndtri``
(the algorithm behind ``scipy.special.ndtri``) that takes its logarithms from
the C library (``math.log``), not from numpy's SIMD ``log``, which differs
from it in the last bit for some arguments.  Increment tables are
bit-reproducible across runs given (seed, member, dt, n_steps, K) and bitwise
equal to ``scipy.special.ndtri`` on the same host (tested); across hosts the
bits follow the C library's ``log``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    TWO_PI,
    TorusGrid,
    compress,
    divergence,
    expand,
    from_physical,
    leray_project,
    sobolev_norm_sq,
    stream_function,
    tensor_flux,
    to_physical,
)


def _mode_wavevectors(grid: TorusGrid, k_modes: int) -> list[tuple[int, int]]:
    """Half-lattice wavevector representatives in deterministic order.

    One representative per {k, -k} pair (k1 > 0, or k1 == 0 and k2 > 0),
    sorted lexicographically by (|k|^2, k1, k2).  Each representative
    carries two real polarizations (cos, sin).
    """
    half = grid.n_modes // 2
    k1, k2 = np.meshgrid(np.arange(half), np.arange(-half + 1, half), indexing="ij")
    keep = (k1 > 0) | (k2 > 0)
    k1, k2 = k1[keep], k2[keep]
    order = np.lexsort((k2, k1, k1**2 + k2**2))[:(k_modes + 1) // 2]
    return list(zip(k1[order].tolist(), k2[order].tolist()))


def max_modes(n_modes: int, mix_shells: bool = False) -> int:
    """The largest K that ``build_noise_model`` assembles at N = n_modes: two
    polarizations per half-lattice wavevector, or one when mixing pairs them."""
    n_reps = 2 * (n_modes // 2) * (n_modes // 2 - 1)  # the lattice of _mode_wavevectors
    return n_reps if mix_shells else 2 * n_reps


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
    """Eigenmode expansion of the unresolved-velocity covariance and every
    field it fixes, computed once here (eps only scales their terms in F and
    G, so contexts and runs for any eps share them).  ``phi`` holds the
    weighted eigenfunctions (amplitude folded in), stacked (K, 2, n, n);
    ``phi_support`` is (flat indices, (K, 2S) real view of the values) of
    their joint support; ``variance_tensor`` is a(x) on the physical grid,
    (2, 2, n, n), ``variance_hat`` its coefficients and ``a_pad`` a on the
    padded grid; ``ito_stokes_drift`` is the raw field u_s = 0.5 div a,
    ``drift_projected`` its Leray projection and ``drift_pad`` u_s on the
    padded grid; ``div_a_grad_us`` is P div(a grad u_s), and ``psi_us`` and
    ``psi_div_a_grad_us`` are the stream functions of u_s and of it.
    ``block_idx``, ``xi_table``, ``ex`` and ``wy``, the separable transform
    of xi (``_separable_tables``), are None when every mode is zero.
    ``mix_shells`` records whether ``build_noise_model`` paired modes of
    different shells.
    """

    grid: TorusGrid
    phi: np.ndarray
    spectrum_exponent: float
    amplitude: float
    mix_shells: bool = False
    phi_support: tuple = field(init=False)
    variance_tensor: np.ndarray = field(init=False)
    variance_hat: np.ndarray = field(init=False)
    a_pad: np.ndarray = field(init=False)
    ito_stokes_drift: np.ndarray = field(init=False)
    drift_projected: np.ndarray = field(init=False)
    drift_pad: np.ndarray = field(init=False)
    div_a_grad_us: np.ndarray = field(init=False)
    psi_us: np.ndarray = field(init=False)
    psi_div_a_grad_us: np.ndarray = field(init=False)
    block_idx: np.ndarray | None = field(init=False, default=None)
    xi_table: np.ndarray | None = field(init=False, default=None)
    ex: np.ndarray | None = field(init=False, default=None)
    wy: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        grid = self.grid
        flat = self.phi.reshape(self.k_modes, -1)
        idx = np.flatnonzero(np.any(flat != 0, axis=0))
        self.phi_support = (idx, np.ascontiguousarray(flat[:, idx]).view(float))
        a = np.zeros((2, 2, grid.n_modes, grid.n_modes))
        for coeffs in self.phi:
            phys = to_physical(grid, coeffs)
            a += phys[:, None] * phys[None, :]
        self.variance_tensor = a
        self.variance_hat = expand(grid, from_physical(grid, a))
        self.a_pad = to_physical(grid, self.variance_hat, grid.pad_size)
        us = np.stack([0.5 * divergence(grid, self.variance_hat[i]) for i in range(2)])
        self.ito_stokes_drift = us
        self.drift_projected = leray_project(grid, us)
        self.drift_pad = to_physical(grid, us, grid.pad_size)
        flux = tensor_flux(grid, self.a_pad, us)
        self.div_a_grad_us = leray_project(grid, divergence(grid, flux))
        self.psi_us = stream_function(grid, compress(grid, us))
        self.psi_div_a_grad_us = stream_function(grid, compress(grid, self.div_a_grad_us))
        if len(idx):
            self.block_idx, self.xi_table, self.ex, self.wy = _separable_tables(grid, self.phi)

    @property
    def k_modes(self) -> int:
        return len(self.phi)

    def separable_xi(self, dbeta: np.ndarray, wy: np.ndarray, out: np.ndarray) -> tuple:
        """xi = sum_k dbeta_k phi_k as its stream function on ``block_idx``
        and its values on the padded grid, through ``wy`` (``self.wy`` times
        a scale) and written into ``out``, (2, m, m): one dot and two small
        matrix products."""
        block = np.dot(dbeta, self.xi_table).view(complex).reshape(3, self.ex.shape[1], -1)
        cols = np.matmul(self.ex, block[1:])
        return block[0].reshape(-1), np.matmul(cols.view(float), wy, out=out)


def _separable_tables(grid: TorusGrid, phi: np.ndarray) -> tuple:
    """The stream function and the velocity of every noise mode on the
    smallest block of half-layout rows and leading columns that holds them,
    as (the block's flat indices, the (K, 6 r s) real view ``xi_table``,
    ``ex`` = exp(i kx x) for the block's rows, (m, r), and ``wy``, the real
    (2s, m) matrix that takes the interleaved real and imaginary parts of s
    columns to their Hermitian sum (weight 1 at ky = 0, 2 above)), the two
    factors of its separable inverse transform.  Some mode must be nonzero."""
    m, h = grid.pad_size, grid.n_modes // 2
    half = compress(grid, phi)
    table = np.concatenate([stream_function(grid, half)[:, None], half], axis=1)
    held = table != 0
    rows = np.flatnonzero(held.any(axis=(0, 1, 3)))
    s = int(np.flatnonzero(held.any(axis=(0, 1, 2)))[-1]) + 1
    block_idx = np.ravel_multi_index(np.ix_(rows, np.arange(s)), (m, h)).ravel()
    block = np.ascontiguousarray(table[:, :, rows, :s])
    x = np.arange(m) * (TWO_PI / m)
    ex = np.exp(1j * np.outer(x, grid.half_kx[rows, 0]))
    ky = np.arange(s)
    weight = np.where(ky == 0, 1.0, 2.0)[:, None]
    wy = np.empty((2 * s, m))
    wy[0::2] = weight * np.cos(np.outer(ky, x))
    wy[1::2] = -weight * np.sin(np.outer(ky, x))
    return block_idx, block.reshape(len(phi), -1).view(float), ex, wy


def build_noise_model(grid: TorusGrid, k_modes: int, spectrum_exponent: float,
                      amplitude: float, mix_shells: bool = False) -> NoiseModel:
    """K lowest divergence-free real Fourier eigenmodes, weighted by
    amplitude * lambda_k**(-spectrum_exponent) with lambda_k = |k|^2, the
    Stokes eigenvalue at unit viscosity.

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
    limit = max_modes(grid.n_modes, mix_shells)
    if not 1 <= k_modes <= limit:
        raise ValueError(f"k_modes must lie in [1, {limit}] at N={grid.n_modes}"
                         f"{' with mix_shells' if mix_shells else ''}, got {k_modes}")
    # pairwise mixing consumes wavevectors twice as fast as pure polarizations
    reps = _mode_wavevectors(grid, 2 * k_modes if mix_shells else k_modes)
    modes = []

    def emit(kvecs, weight):
        for pol in ("cos", "sin"):
            if len(modes) == k_modes:
                return
            c = sum(_real_mode_coeffs(grid, kv, pol) for kv in kvecs)
            c *= weight / np.sqrt(len(kvecs))
            modes.append(c)

    def weight_of(kvec):
        return amplitude * (kvec[0] ** 2 + kvec[1] ** 2) ** (-spectrum_exponent)

    if not mix_shells:
        for kvec in reps:
            emit([kvec], weight_of(kvec))
    else:
        half = (len(reps) + 1) // 2
        for j in range(half):
            pair = [reps[j]] + ([reps[j + half]] if j + half < len(reps) else [])
            weight = np.sqrt(np.prod([weight_of(kv) for kv in pair]))
            emit(pair, weight)
    return NoiseModel(grid, np.stack(modes), spectrum_exponent, amplitude, mix_shells)


def check_regularity(model: NoiseModel) -> dict:
    """Summability report for the H^3 norms of the weighted modes.

    Returns the partial sum S_K = sum_k ||phi_k||^2_{H3}, the tail indicator
    (the fraction of S_K contributed by the upper half of the truncation,
    i.e. the mass added when the truncation doubles) and the drift norm
    ||u_s||_{H3}.  It passes when the half-mass indicator, which stays
    bounded away from zero for divergent spectra at any truncation, is at
    most 0.1.  A partial sum that is not finite (modes that overflowed) has
    a NaN indicator and fails.
    """
    grid = model.grid
    terms = np.array([sobolev_norm_sq(grid, coeffs, 3) for coeffs in model.phi])
    partial = float(terms.sum())
    if not np.isfinite(partial):
        tail_ratio = math.nan
    else:
        tail_ratio = float(terms[len(terms) // 2:].sum() / partial) if partial > 0 else 0.0
    us_h3 = float(np.sqrt(sobolev_norm_sq(grid, model.ito_stokes_drift, 3)))
    return {
        "partial_sum_h3": partial,
        "tail_ratio": tail_ratio,
        "passes": tail_ratio <= 0.1,
        "us_h3": us_h3,
    }


# ---------------------------------------------------------------------------
# Brownian paths

# Cephes ndtri (S. L. Moshier, Cephes Math Library), coefficients as in its C
# source, with the unit leading coefficient of each Q written out: a rational
# approximation in y - 1/2 on the centre and in z = 1/sqrt(-2 ln y) on either
# tail.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tail, 2 <= sqrt(-2 ln y) < 8
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# far tail, sqrt(-2 ln y) >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] in the Horner order of Cephes ``polevl``.

    With coef[0] = 1.0 it is also ``p1evl``: 1.0 * x is exact.
    """
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    # math.log is the C library's log, the one Cephes calls; numpy's SIMD log
    # differs from it in the last bit for some arguments
    return np.fromiter(map(math.log, x.tolist()), np.float64, count=x.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of uniforms 0 < u < 1 (Cephes ``ndtri``).

    Bitwise equal to ``scipy.special.ndtri`` on the same host: each step is
    one correctly rounded numpy operation in the order of the C source, and
    the logarithms (tail elements only) come from the C library.
    """
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    central = y > _EXP_M2
    out = np.empty_like(y)
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    tail = ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    far = x >= 8.0  # u < exp(-32) or 1 - u < exp(-32)
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2)
    xt = x0 - x1
    out[tail] = np.where(upper[tail], xt, -xt)
    return out


def _increments_from_bits(raw: np.ndarray, dt: float) -> np.ndarray:
    """Gaussian increments of variance dt from 53-bit integers.

    The uniform is (raw + 1/2) / 2**53.  The one draw that rounds to 1.0
    (raw = 2**53 - 1) is clamped to the largest double below 1, so every
    increment is finite and every other one keeps its bits.
    """
    uniforms = np.minimum((raw.astype(np.float64) + 0.5) / 2**53, _BELOW_ONE)
    return _ndtri(uniforms) * np.sqrt(dt)


class WienerPath:
    """Reproducible table of Brownian increments, shape (n_steps, K).

    Generated with Philox keyed by (seed, member), 53-bit uniforms in (0, 1)
    and the Cephes inverse normal CDF ``_ndtri``.  The table is the same on
    every run on a host and bitwise equal to ``scipy.special.ndtri`` there;
    across hosts its bits follow the C library's ``log``.
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
            self.increments = _increments_from_bits(raw, self.dt)
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
