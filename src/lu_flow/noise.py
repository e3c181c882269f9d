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
from functools import cached_property

import numpy as np

from .spectral import (
    TWO_PI,
    TorusGrid,
    compress,
    div_a_grad,
    divergence,
    expand,
    leray_project,
    mirror_ky0,
    sobolev_norm_sq,
    stream_function,
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


def _real_mode_entries(grid: TorusGrid, kvec: tuple[int, int], polarization: str) -> tuple:
    """Unit-H-norm divergence-free real mode w * cos(k.x) or w * sin(k.x),
    with w = k_perp / |k|, as the flat indices into its (2, n, n)
    coefficients of its two components at k and at -k and its values there."""
    n = grid.n_modes
    k1, k2 = kvec
    norm = np.hypot(k1, k2)
    w = np.array([-k2 / norm, k1 / norm])
    amp = np.sqrt(2.0) / (2.0 * TWO_PI)  # |phi|_H = 1
    if polarization == "cos":
        values = np.concatenate([w * amp, w * amp]).astype(complex)
    else:
        values = np.concatenate([w * (-1j * amp), w * (1j * amp)])
    at_k, at_minus_k = (k1 % n) * n + k2 % n, ((-k1) % n) * n + (-k2) % n
    return np.array([at_k, n * n + at_k, at_minus_k, n * n + at_minus_k]), values


# build_context's errstate, which the derived fields keep when first read
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@dataclass
class NoiseModel:
    """Eigenmode expansion of the unresolved-velocity covariance and every
    field it fixes (eps only scales their terms in F and G, so contexts and
    runs for any eps share them).  ``entries`` is the only stored copy of
    the weighted eigenfunctions (amplitude folded in): for each mode, the
    flat indices into its (2, n, n) coefficients of the positions it holds
    and its values there.  Every other field is derived from them, a from
    each mode's entry products.  Stored are those a run reads: ``a_pad``, the
    variance tensor a on the padded grid; ``drift_projected``, the Leray
    projection of the Ito-Stokes drift u_s = 0.5 div a, and ``drift_pad``,
    u_s on the padded grid; ``psi_us`` and ``psi_div_a_grad_us``, the stream
    functions of u_s and of P div(a grad u_s); ``block_idx``, ``xi_terms``,
    ``ex`` and ``wy``, xi's velocity on its block and separable transform
    (``_separable_tables``), None when every mode is zero.  Those only the
    reference operators, ``check_regularity`` and tests read are made when
    first read, and kept:
    ``phi`` (K, 2, n, n), and, by the helpers of ``__post_init__`` with
    overflow quiet as in ``build_context``, ``variance_tensor`` (a, (2, 2, n,
    n)), ``variance_hat``, ``ito_stokes_drift`` (raw u_s) and
    ``div_a_grad_us``.  ``mix_shells`` records whether ``build_noise_model``
    paired modes of different shells.
    """

    grid: TorusGrid
    entries: tuple
    spectrum_exponent: float
    amplitude: float
    mix_shells: bool = False
    a_pad: np.ndarray = field(init=False)
    drift_projected: np.ndarray = field(init=False)
    drift_pad: np.ndarray = field(init=False)
    psi_us: np.ndarray = field(init=False)
    psi_div_a_grad_us: np.ndarray = field(init=False)
    block_idx: np.ndarray | None = field(init=False, default=None)
    xi_terms: tuple | None = field(init=False, default=None)
    ex: np.ndarray | None = field(init=False, default=None)
    wy: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        grid, m = self.grid, self.grid.pad_size
        self.block_idx, self.xi_terms, self.ex, self.wy = _separable_tables(grid, self.entries)
        a_hat = _variance_hat(grid, self.entries)
        self.a_pad = to_physical(grid, a_hat, m)
        us = _ito_stokes_drift(grid, a_hat)
        self.drift_projected = leray_project(grid, us)
        self.drift_pad = to_physical(grid, us, m)
        self.psi_us = stream_function(grid, compress(grid, us))
        div_a_grad_us = div_a_grad(grid, self.a_pad, us)
        self.psi_div_a_grad_us = stream_function(grid, compress(grid, div_a_grad_us))

    @property
    def k_modes(self) -> int:
        return len(self.entries)

    @cached_property
    def phi(self) -> np.ndarray:
        """The modes stacked, (K, 2, n, n): made from the entries when first
        read, and kept.  Only the reference operators and tests read it."""
        phi = np.zeros((self.k_modes, 2, *self.grid.k_sq.shape), dtype=complex)
        mode, idx, values = _flat_entries(self.entries)
        phi.reshape(self.k_modes, -1)[mode, idx] = values
        return phi

    @cached_property
    @_quiet_overflow
    def variance_tensor(self) -> np.ndarray:
        return to_physical(self.grid, self.variance_hat)

    @cached_property
    @_quiet_overflow
    def variance_hat(self) -> np.ndarray:
        return _variance_hat(self.grid, self.entries)

    @cached_property
    @_quiet_overflow
    def ito_stokes_drift(self) -> np.ndarray:
        return _ito_stokes_drift(self.grid, self.variance_hat)

    @cached_property
    @_quiet_overflow
    def div_a_grad_us(self) -> np.ndarray:
        return div_a_grad(self.grid, self.a_pad, self.ito_stokes_drift)

    def separable_xi(self, dbeta: np.ndarray, wy: np.ndarray, out: np.ndarray) -> tuple:
        """xi = sum_k dbeta_k phi_k as its velocity on ``block_idx``, (2, r s),
        whose curl the velocity step adds as -(eps / Re) E curl xi, and its
        values on the padded grid, through ``wy`` (``self.wy`` times a scale)
        and written into ``out``, (2, m, m): the block, each column the sum
        from +0 of its terms, and two small matrix products."""
        mode, column, value = self.xi_terms
        block = np.bincount(column, dbeta[mode] * value, 4 * self.block_idx.size)
        block = block.view(complex).reshape(2, self.ex.shape[1], -1)
        cols = np.matmul(self.ex, block)
        return block.reshape(2, -1), np.matmul(cols.view(float), wy, out=out)


def _flat_entries(entries: tuple) -> tuple:
    """Every mode's entries in mode order, as the mode, flat index and value
    of each."""
    mode = np.repeat(np.arange(len(entries)), [len(idx) for idx, _ in entries])
    return (mode, *(np.concatenate(part) for part in zip(*entries)))


def _variance_hat(grid: TorusGrid, entries: tuple) -> np.ndarray:
    """a's coefficients, (2, 2, n, n): component j of entry p times component
    l of entry q of each mode, added in mode order at (k_p + k_q) mod n as
    the product on the n x n grid aliases it, and kept on the retained modes
    of the half layout; the sums at k and -k differ in rounding, so the ky =
    0 column is written as conjugate pairs (``mirror_ky0``)."""
    n = grid.n_modes
    a_hat = np.zeros((2, 2, n, n), dtype=complex)
    for idx, values in entries:
        comp, kx, ky = np.unravel_index(idx, (2, n, n))
        at = comp[:, None], comp, (kx[:, None] + kx) % n, (ky[:, None] + ky) % n
        np.add.at(a_hat, at, values[:, None] * values)
    return expand(grid, mirror_ky0(grid, compress(grid, a_hat, n)))


def _ito_stokes_drift(grid: TorusGrid, a_hat: np.ndarray) -> np.ndarray:
    return np.stack([0.5 * divergence(grid, a_hat[i]) for i in range(2)])


def _separable_tables(grid: TorusGrid, entries: tuple) -> tuple:
    """The velocity of every mode on the smallest block of half-layout rows
    and leading columns that holds them, (2, r, s) complex per mode, as (its
    flat indices; the (mode, column, value) triples of the nonzero doubles of
    the modes' blocks; ``ex`` = exp(i kx x) of its rows, (m, r); ``wy``, the
    real (2s, m) matrix taking the interleaved real and imaginary parts of s
    columns to their Hermitian sum, weight 1 at ky = 0 and 2 above), or Nones
    when every mode is zero.  No column holds two modes (a cos mode holds the
    real parts of its velocity, a sin mode the imaginary parts), so summing
    the terms per column gives the block of sum_k dbeta_k phi_k bitwise.  The
    step takes the curl of this block, so no stream function of xi is kept."""
    n, m, h = grid.n_modes, grid.pad_size, grid.n_modes // 2
    mode, idx, values = _flat_entries(entries)
    comp, i, col = np.unravel_index(idx, (2, n, n))
    held = (col < h) & (i != h) & (values != 0)  # nonzeros of the retained ky >= 0 half
    if not held.any():
        return (None,) * 4
    mode, comp, i, col, values = mode[held], comp[held], i[held], col[held], values[held]
    row = np.where(i < h, i, i + (m - n))  # kx rows at their padded-grid rows
    rows = np.flatnonzero(np.bincount(row, minlength=m))
    r, s = len(rows), int(col.max()) + 1
    # the complex value at (component, position) of a (2, r, s) block is two doubles
    at = comp * (r * s) + np.searchsorted(rows, row) * s + col
    column = (2 * at[:, None] + np.arange(2)).ravel()
    value = values.view(float)
    nonzero = value != 0
    terms = np.repeat(mode, 2)[nonzero], column[nonzero], value[nonzero]
    block_idx = np.ravel_multi_index(np.ix_(rows, np.arange(s)), (m, h)).ravel()
    x = np.arange(m) * (TWO_PI / m)
    ex = np.exp(1j * np.outer(x, grid.half_kx[rows, 0]))
    ky = np.arange(s)
    weight = np.where(ky == 0, 1.0, 2.0)[:, None]
    wy = np.empty((2 * s, m))
    wy[0::2] = weight * np.cos(np.outer(ky, x))
    wy[1::2] = -weight * np.sin(np.outer(ky, x))
    return block_idx, terms, ex, wy


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
    deterministic in both variants.  Each mode keeps as its entries the
    positions where it is nonzero before its weight, which may underflow to
    a signed zero, is applied.
    """
    limit = max_modes(grid.n_modes, mix_shells)
    if not 1 <= k_modes <= limit:
        raise ValueError(f"k_modes must lie in [1, {limit}] at N={grid.n_modes}"
                         f"{' with mix_shells' if mix_shells else ''}, got {k_modes}")
    # pairwise mixing consumes wavevectors twice as fast as pure polarizations
    reps = _mode_wavevectors(grid, 2 * k_modes if mix_shells else k_modes)
    entries = []

    def emit(kvecs, weight):
        for pol in ("cos", "sin"):
            if len(entries) == k_modes:
                return
            parts = [_real_mode_entries(grid, kv, pol) for kv in kvecs]
            idx = np.concatenate([i for i, _ in parts])
            order = np.argsort(idx)
            # 0 + v, as in a sum of the modes' coefficients, clears signed zeros
            values = 0 + np.concatenate([v for _, v in parts])[order]
            held = values != 0
            values = values[held]
            values *= weight / np.sqrt(len(kvecs))
            entries.append((idx[order][held], values))

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
    return NoiseModel(grid, tuple(entries), spectrum_exponent, amplitude, mix_shells)


def check_regularity(model: NoiseModel) -> dict:
    """Summability report for the H^3 norms of the weighted modes.

    Returns the partial sum S_K = sum_k ||phi_k||^2_{H3}, the tail indicator
    (the fraction of S_K contributed by the upper half of the truncation,
    i.e. the mass added when the truncation doubles) and the drift norm
    ||u_s||_{H3}.  It passes when the half-mass indicator, which stays
    bounded away from zero for divergent spectra at any truncation, is at
    most 0.1.  A partial sum that is not finite (modes that overflowed) has
    a NaN indicator and fails.  Each term is a sum over its mode's entries.
    """
    grid = model.grid
    mode, idx, values = _flat_entries(model.entries)
    weight = (1.0 + grid.k_sq.reshape(-1)[idx % grid.k_sq.size]) ** 3
    terms = TWO_PI**2 * np.bincount(mode, weight * np.abs(values) ** 2, minlength=model.k_modes)
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


def philox(seed: int, stream: int) -> np.random.Generator:
    """Philox keyed by [seed, stream] in [0, 2^64), as uint64: a key list is
    cast through float64, which rounds keys above 2^53."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], np.uint64)))


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
            gen = philox(self.seed % 2**64, self.member % 2**64)
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
