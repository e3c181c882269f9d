"""Fourier representation of periodic fields on the 2D torus [0, 2pi)^2.

A field is its truncated Fourier coefficient array in numpy fft ordering,
complex (2, n, n) for a velocity and (n, n) for a scalar, normalised so
that ``u(x) = sum_k c_k exp(i k.x)`` with integer wavevectors k; its grid
is passed alongside.  The Nyquist rows/columns (|k_i| = n/2) are held at zero so
every retained mode has a conjugate partner and odd derivatives stay
well defined; Hermitian symmetry then guarantees real-valued fields.

The solver keeps its states in the half layout instead, (..., m, n/2) with
m = ``grid.pad_size``: the retained ky >= 0 columns, with each kx row at its
row of the padded grid (kx = 0 .. n/2-1 at the top, kx = -n/2+1 .. -1 at the
bottom) and zero rows between.  Hermitian symmetry is then the data layout:
the ky < 0 half is not stored, and only the ky = 0 column holds conjugate
pairs, which ``mirror_ky0`` alone writes.  ``compress`` and ``expand``
convert between the layouts; ``to_physical`` takes either and
``from_physical`` returns the half layout.  A velocity is stepped as its
stream function psi, one (m, n/2) field, v = (-d_y psi, d_x psi):
``stream_function`` and ``stream_velocity`` convert a half-layout velocity.
``load_snapshot(path, grid)`` checks a snapshot's header, N too, before its payload.

Quadratic terms are evaluated pseudo-spectrally after zero-padding to at
least 3N/2 points per dimension (the 2/3 rule), which makes products of
band-limited fields alias-free.
"""

from __future__ import annotations

import os
import struct

import numpy as np

TWO_PI = 2.0 * np.pi

SNAPSHOT_MAGIC = b"LUFS"
SNAPSHOT_VERSION = 1


class TorusGrid:
    """Wavenumber bookkeeping for an N x N truncation of the periodic torus.

    Keeps wavenumbers and multipliers; ``x`` and ``y`` are made on each read.

    Parameters
    ----------
    n_modes : int
        Modes per dimension; must be even and >= 8.
    """

    def __init__(self, n_modes: int):
        if n_modes % 2 != 0 or n_modes < 8:
            raise ValueError(f"n_modes must be even and >= 8, got {n_modes}")
        self.n_modes = int(n_modes)
        n = self.n_modes
        k1d = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, fft order
        self.kx = k1d[:, None]
        self.ky = k1d[None, :]
        self.k_sq = self.kx**2 + self.ky**2
        self.ikx, self.iky = 1j * self.kx, 1j * self.ky  # derivative multipliers
        half = n // 2
        self.nyquist_mask = (np.abs(k1d[:, None]) == half) | (np.abs(k1d[None, :]) == half)
        # index of mode -k for each mode k (valid away from Nyquist)
        idx = np.arange(n)
        self._neg = (-idx) % n
        self.pad_size = m = _pad_size(n)
        # wavenumbers of the half layout; kx is 0 on the zero rows between
        rows = np.zeros(m)
        rows[:half], rows[m - half + 1:] = k1d[:half], k1d[half + 1:]
        self.half_kx, self.half_ky = np.broadcast_arrays(rows[:, None], k1d[None, :half])
        self.half_k_sq = self.half_kx**2 + self.half_ky**2
        self.half_retained = np.ones((m, 1), dtype=bool)
        self.half_retained[half:m - half + 1] = False

    @property
    def x(self) -> np.ndarray:
        """x at each point of the n x n physical grid, (n, n)."""
        x1d = np.arange(self.n_modes) * (TWO_PI / self.n_modes)
        return x1d[:, None] + 0.0 * x1d[None, :]

    @property
    def y(self) -> np.ndarray:
        """y at each point of the n x n physical grid, (n, n)."""
        x1d = np.arange(self.n_modes) * (TWO_PI / self.n_modes)
        return 0.0 * x1d[:, None] + x1d[None, :]

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and other.n_modes == self.n_modes

    def __hash__(self):
        return hash(("TorusGrid", self.n_modes))

    def __repr__(self):
        return f"TorusGrid(n_modes={self.n_modes})"


def _pad_size(n: int) -> int:
    """Smallest even integer >= 3n/2 (alias-free quadratic products)."""
    m = (3 * n + 1) // 2
    return m + (m % 2)


# ---------------------------------------------------------------------------
# transforms

def compress(grid: TorusGrid, coeffs: np.ndarray, m: int | None = None) -> np.ndarray:
    """The half layout, (..., m, n/2), of the retained modes of ``coeffs``
    (m defaults to ``grid.pad_size``).  Only the ky >= 0 columns of
    ``coeffs`` are read, so it may hold just those n/2 columns; the Nyquist
    row is left out."""
    n = grid.n_modes
    h = n // 2
    m = grid.pad_size if m is None else m
    out = np.zeros(coeffs.shape[:-2] + (m, h), dtype=complex)
    out[..., :h, :] = coeffs[..., :h, :h]
    out[..., m - h + 1:, :] = coeffs[..., h + 1:, :h]
    return out


def expand(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """The full (..., n, n) coefficients of a half-layout field: its retained
    modes, the ky < 0 half as their conjugate mirrors and zero Nyquist
    modes, so the result is exactly Hermitian if the ky = 0 column is."""
    n = grid.n_modes
    h = n // 2
    m = half.shape[-2]
    out = np.empty(half.shape[:-2] + (n, n), dtype=complex)
    out[..., :h, :h] = half[..., :h, :]
    out[..., h + 1:, :h] = half[..., m - h + 1:, :]
    out[..., h, :] = 0.0
    out[..., :, h] = 0.0
    # c(kx, -ky) = conj c(-kx, ky); row 0 is its own mirror, rows r and n-r
    # swap, and the Nyquist row h mirrors itself: conj(0) = 0 - 0j
    np.conjugate(half[..., 0, h - 1:0:-1], out=out[..., 0, h + 1:])
    np.conjugate(half[..., m - 1:m - h:-1, h - 1:0:-1], out=out[..., 1:h, h + 1:])
    out[..., h, h + 1:] = np.conj(0j)
    np.conjugate(half[..., h - 1:0:-1, h - 1:0:-1], out=out[..., h + 1:, h + 1:])
    return out


def to_physical(grid: TorusGrid, coeffs: np.ndarray, m: int | None = None,
                cols: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate Hermitian coefficients on an m x m physical grid (default n x n).

    Batched over leading axes.  ``coeffs`` is the half layout for this m,
    (..., m, n/2), or else full coefficients, which are compressed first (of
    these only the retained ky >= 0 columns are read, so just those n/2
    columns will do).  The half spectrum is inverted with one 2D real FFT,
    run as its two 1D passes so that the x-pass skips the all-zero columns
    ky >= n/2 (the result is bitwise that of ``numpy.fft.irfft2`` on the full
    half spectrum).  The x-pass writes into ``cols``, complex (..., m, n/2),
    which may be ``coeffs`` itself (by default their compressed copy for
    full coefficients), and the y-pass into ``out``, real (..., m, m), the
    result; numpy allocates either one that is None."""
    n = grid.n_modes
    m = n if m is None else m
    if m < n:
        raise ValueError("pad target smaller than grid")
    if coeffs.shape[-2:] != (m, n // 2):
        coeffs = compress(grid, coeffs, m)
        cols = coeffs if cols is None else cols
    cols = np.fft.ifft(coeffs, axis=-2, norm="forward", out=cols)
    return np.fft.irfft(cols, n=m, axis=-1, norm="forward", out=out)


def from_physical(grid: TorusGrid, values: np.ndarray, rows: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Project real values on an m x m grid back onto the retained modes, in
    the half layout (..., m, n/2).

    Batched over leading axes.  One 2D real FFT gives the ky >= 0 half; its
    x-pass runs only on the retained columns ky = 0 .. n/2-1 (bitwise the
    corresponding part of ``numpy.fft.rfft2``).  The rows between the
    retained ones and the Nyquist row are zeroed and the ky = 0 column is
    mirrored by ``mirror_ky0``.  The y-pass writes into ``rows``, complex
    (..., m, m/2 + 1), and the x-pass into ``out``, complex (..., m, n/2),
    the result; numpy allocates either one that is None.
    """
    m = values.shape[-1]
    h = grid.n_modes // 2
    rows = np.fft.rfft(values, axis=-1, norm="forward", out=rows)[..., :h]
    out = np.fft.fft(rows, axis=-2, norm="forward", out=out)
    out[..., h:m - h + 1, :] = 0.0
    return mirror_ky0(grid, out)


def mirror_ky0(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """``half`` with the kx < 0 part of its ky = 0 column written, in place, as the
    conjugate mirror of its kx > 0 part and its mean real: ``expand`` makes it Hermitian."""
    h, m = grid.n_modes // 2, half.shape[-2]
    np.conjugate(half[..., h - 1:0:-1, 0], out=half[..., m - h + 1:, 0])
    half[..., 0, 0] = half[..., 0, 0].real
    return half


def hermitian_symmetrize(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Return the Hermitian part of ``coeffs`` (real-valued field) with
    Nyquist modes zeroed."""
    neg = grid._neg
    sym = 0.5 * (coeffs + np.conj(coeffs[..., neg[:, None], neg[None, :]]))
    sym[..., grid.nyquist_mask] = 0.0
    return sym


# ---------------------------------------------------------------------------
# differential operators and projection

def gradient(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Gradient along a new leading axis: out[j] = d/dx_j coeffs."""
    return np.stack([grid.ikx * coeffs, grid.iky * coeffs])


def divergence(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Divergence of a 2-component field (contracts the leading axis)."""
    return grid.ikx * coeffs[0] + grid.iky * coeffs[1]


def _projection(kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """The entries (P00, P11, P01) of the symmetric Leray projection
    I - k k^T / |k|^2, stacked; zero on the mean mode."""
    k_sq = kx**2 + ky**2
    w = np.where(k_sq == 0, 0.0, 1.0 / np.where(k_sq == 0, 1.0, k_sq))
    return np.stack(np.broadcast_arrays(w * ky * ky, w * kx * kx, -w * kx * ky))


def leray_project(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Remove the gradient part: u_k -> u_k - k (k.u_k)/|k|^2, zero mean mode.

    Acts as the identity on divergence-free fields and annihilates pure
    gradients; idempotent and self-adjoint in the L2 inner product.  Applies
    the symmetric 2 x 2 multiplier ``_projection``, formed on each call, to
    full-layout coefficients: (P00 c0 + P01 c1, P11 c1 + P01 c0).
    """
    p = _projection(grid.kx, grid.ky)
    return p[:2] * coeffs + p[2] * coeffs[::-1]


def inverse_k_sq(grid: TorusGrid) -> np.ndarray:
    """1 / |k|^2 on the half layout, 0 on the mean mode and the rows between."""
    k_sq = grid.half_k_sq * grid.half_retained
    return np.divide(1.0, k_sq, out=np.zeros_like(k_sq), where=k_sq > 0)


def stream_function(grid: TorusGrid, v: np.ndarray) -> np.ndarray:
    """The stream function psi of the solenoidal, mean-free part of a
    half-layout velocity (..., 2, m, n/2): psi_k = i (ky v_x - kx v_y)/|k|^2,
    (..., m, n/2).  The gradient part and the mean of v are dropped."""
    return (1j * inverse_k_sq(grid)) * (grid.half_ky * v[..., 0, :, :]
                                        - grid.half_kx * v[..., 1, :, :])


def stream_velocity(grid: TorusGrid, psi: np.ndarray) -> np.ndarray:
    """The velocity (-d_y psi, d_x psi) of a half-layout stream function:
    (-i ky psi, i kx psi), stacked on a new axis before the last two."""
    return np.stack([(-1j * grid.half_ky) * psi, (1j * grid.half_kx) * psi], axis=-3)


def max_divergence(grid: TorusGrid, coeffs: np.ndarray) -> float:
    """max_k |k . u_k|, the divergence-free defect."""
    return float(np.max(np.abs(grid.kx * coeffs[0] + grid.ky * coeffs[1])))


def random_solenoidal(grid: TorusGrid, gen: np.random.Generator, k_min: float,
                      k_max: float) -> np.ndarray:
    """Random real divergence-free field (2, n, n), unnormalised: complex
    Gaussian coefficients drawn from ``gen`` for every mode, kept on the band
    k_min <= |k| <= k_max, made Hermitian and Leray-projected."""
    shape = (2, grid.n_modes, grid.n_modes)
    raw = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    band = band_mask(grid.k_sq, k_min, k_max)
    return leray_project(grid, hermitian_symmetrize(grid, np.where(band, raw, 0.0)))


def band_mask(k_sq: np.ndarray, k_min: float, k_max: float) -> np.ndarray:
    """k_min <= |k| <= k_max for the squared wavenumbers ``k_sq``; a bound
    too large to square is infinite."""
    with np.errstate(over="ignore"):
        low, high = np.float64(k_min) ** 2, np.float64(k_max) ** 2
    return (k_sq >= low) & (k_sq <= high)


# ---------------------------------------------------------------------------
# dealiased products

def advect(grid: TorusGrid, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(u . grad) f with dealiasing.  f may be scalar (n,n) or vector (2,n,n)."""
    m = grid.pad_size
    u_phys_pad = to_physical(grid, u, m)
    gf_phys = to_physical(grid, gradient(grid, f), m)
    prod = u_phys_pad[0] * gf_phys[0] + u_phys_pad[1] * gf_phys[1]
    return expand(grid, from_physical(grid, prod))


def tensor_flux_physical(a: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise a grad f, out[j] = sum_l a[j, l] g[l], for a (2, 2, m, m)
    tensor and the gradient g of f: (2, m, m) for a scalar f, (2, 2, m, m)
    with g[l, i] = d_l f_i for a vector f (then out[j, i])."""
    return np.einsum("jl...,l...->j...", a, g, out=out)


def tensor_flux_curl(a: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The parts of the flux F = a grad v of a solenoidal v that its curl
    reads, H = (F_xy, F_yx, F_yy - F_xx) with F_ji = a_jl d_l v_i, written
    into ``out``, (3, ...), from a[0, 0], a[0, 1] and a[1, 1] of the (2, 2,
    ...) tensor a and g = (d_x v_x, d_y v_x, d_x v_y) (d_y v_y = -d_x v_x):
    H0 = a_xx g2 - a_xy g0, H1 = a_xy g0 + a_yy g1 and H2 = a_xy g2 -
    ((a_xx + a_yy) g0 + a_xy g1), each rounded as its sum over g0, g1, g2 in
    that order.  g[1] and g[2] are overwritten; no other array is made."""
    (axx, axy), ayy = a[0], a[1, 1]
    (g0, g1, g2), (h0, h1, h2) = g, out
    np.multiply(axy, g0, out=h1)
    np.subtract(np.multiply(axx, g2, out=h0), h1, out=h0)
    np.multiply(axy, g1, out=h2)
    h1 += np.multiply(ayy, g1, out=g1)
    h2 += np.multiply(np.add(axx, ayy, out=g1), g0, out=g1)
    np.subtract(np.multiply(axy, g2, out=g2), h2, out=h2)
    return out


def tensor_flux(grid: TorusGrid, a_pad: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Coefficients of the dealiased flux a grad f for f scalar (n,n) or
    vector (2,n,n), with ``a_pad`` the tensor on the padded grid."""
    g = to_physical(grid, gradient(grid, f), grid.pad_size)
    return expand(grid, from_physical(grid, tensor_flux_physical(a_pad, g)))


def div_a_grad(grid: TorusGrid, a_pad: np.ndarray, f: np.ndarray) -> np.ndarray:
    """P div(a grad f) for a 2-component field f, from the dealiased flux."""
    return leray_project(grid, divergence(grid, tensor_flux(grid, a_pad, f)))


# ---------------------------------------------------------------------------
# inner products and norms (L2 over [0, 2pi)^2, Parseval form)

def h_inner(grid: TorusGrid, f: np.ndarray, g: np.ndarray) -> float:
    """L2 inner product summed over all components."""
    return float(TWO_PI**2 * np.sum((np.conj(f) * g).real))


def h_norm(grid: TorusGrid, f: np.ndarray) -> float:
    return float(TWO_PI * np.sqrt(np.sum(np.abs(f) ** 2)))


def v_norm(grid: TorusGrid, f: np.ndarray) -> float:
    return float(TWO_PI * np.sqrt(np.sum(grid.k_sq * np.abs(f) ** 2)))


def sobolev_norm_sq(grid: TorusGrid, f: np.ndarray, order: int) -> float:
    """Squared H^order norm via the multiplier (1 + |k|^2)^order."""
    w = (1.0 + grid.k_sq) ** order
    return float(TWO_PI**2 * np.sum(w * np.abs(f) ** 2))


def energy(grid: TorusGrid, f: np.ndarray) -> float:
    """Kinetic energy 0.5 |v|_H^2."""
    return 0.5 * h_norm(grid, f) ** 2


# ---------------------------------------------------------------------------
# binary snapshots: little-endian header {magic "LUFS", version u32,
# n_modes u32, n_components u32} + interleaved complex64, row-major k-order

def save_snapshot(path, grid: TorusGrid, coeffs: np.ndarray) -> None:
    """Raises ValueError, before the file is opened, if the coefficients are
    not (n_comp, n, n) on the grid, or if one is not finite in complex64 (a
    real or imaginary part above 3.4e38)."""
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1:] != (grid.n_modes, grid.n_modes):
        raise ValueError(f"snapshot coefficients of shape {np.shape(coeffs)} do not fit "
                         f"the grid N={grid.n_modes}")
    with np.errstate(over="ignore"):  # an overflow is caught by the check below
        interleaved = np.ascontiguousarray(arr.transpose(1, 2, 0).astype(np.complex64))
    if not np.isfinite(interleaved).all():
        raise ValueError("snapshot coefficients must be finite in complex64")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", SNAPSHOT_VERSION, grid.n_modes, arr.shape[0]))
        fh.write(interleaved.tobytes())


def load_snapshot(path, grid: TorusGrid) -> np.ndarray:
    """The (n_comp, n, n) coefficients of a snapshot on ``grid``; ValueError for a
    bad magic, header, version or N, then for the file's size, before the payload is read."""
    with open(path, "rb") as fh:
        magic, header = fh.read(4), fh.read(12)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        if len(header) != 12:
            raise ValueError(f"truncated snapshot header of {len(header)} bytes")
        version, n, n_comp = struct.unpack("<III", header)
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        if n != grid.n_modes:
            raise ValueError(f"snapshot grid N={n} does not match run grid N={grid.n_modes}")
        if os.fstat(fh.fileno()).st_size != 16 + 8 * n * n * n_comp:  # read no payload yet
            raise ValueError(f"snapshot payload is not {n_comp} components of N={n}")
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    return raw.reshape(n, n, n_comp).transpose(2, 0, 1).astype(np.complex128)
