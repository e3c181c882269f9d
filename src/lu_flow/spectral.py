"""Fourier representation of periodic fields on the 2D torus [0, 2pi)^2.

Fields are stored as truncated Fourier coefficient arrays in numpy fft
ordering, normalised so that ``u(x) = sum_k c_k exp(i k.x)`` with integer
wavevectors k.  The Nyquist rows/columns (|k_i| = n/2) are held at zero so
every retained mode has a conjugate partner and odd derivatives stay
well defined; Hermitian symmetry then guarantees real-valued fields.

The transforms are real FFTs.  ``to_physical`` reads only the ky >= 0 half
of its input, so it requires Hermitian coefficients (c_{-k} = conj c_k);
for other input it does not return the real part of the full inverse
transform.  ``from_physical`` fills the ky < 0 half by conjugate mirroring,
so its output is Hermitian by construction and stays so under the real,
even Fourier multipliers and the odd multipliers i k used here.

Quadratic terms are evaluated pseudo-spectrally after zero-padding to at
least 3N/2 points per dimension (the 2/3 rule), which makes products of
band-limited fields alias-free.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

SNAPSHOT_MAGIC = b"LUFS"
SNAPSHOT_VERSION = 1


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class TorusGrid:
    """Wavenumber bookkeeping for an N x N truncation of the periodic torus.

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
        self.k_sq_safe = np.where(self.k_sq == 0, 1.0, self.k_sq)  # Leray denominator
        half = n // 2
        self.nyquist_mask = (np.abs(k1d[:, None]) == half) | (np.abs(k1d[None, :]) == half)
        # index of mode -k for each mode k (valid away from Nyquist)
        idx = np.arange(n)
        self._neg = (-idx) % n
        self.pad_size = _pad_size(n)
        x1d = np.arange(n) * (TWO_PI / n)
        self.x = x1d[:, None] + 0.0 * x1d[None, :]
        self.y = 0.0 * x1d[:, None] + x1d[None, :]

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


@dataclass
class SpectralVelocity:
    """Divergence-free 2-component velocity field in spectral form."""

    grid: TorusGrid
    coeffs: np.ndarray  # complex128, shape (2, n, n)


@dataclass
class SpectralScalar:
    """Real scalar field (tracer) in spectral form."""

    grid: TorusGrid
    coeffs: np.ndarray  # complex128, shape (n, n)


# ---------------------------------------------------------------------------
# transforms

class TransformBuffers:
    """The arrays ``to_physical``/``from_physical`` write into, for a batch of
    fields with leading shape ``batch`` on the m x m grid.

    ``half`` is the zero-padded ky >= 0 half spectrum, (*batch, m, n/2); only
    its row ``blocks`` (pairs of half-spectrum rows and the coefficient rows
    of the retained kx >= 0 and kx < 0 modes) are written, so its other rows
    stay zero.  ``cols`` holds the x-pass of either direction, ``phys`` the
    physical values of the inverse, ``rows`` the y-pass of the forward
    transform and ``out`` its Hermitian coefficients.  A call returns a view
    of these arrays, which the next call through the same buffers overwrites.
    """

    def __init__(self, grid: TorusGrid, batch: tuple, m: int):
        n = grid.n_modes
        h = n // 2
        self.half = np.zeros(batch + (m, h), dtype=complex)
        self.cols = np.empty(batch + (m, h), dtype=complex)
        self.phys = np.empty(batch + (m, m))
        self.rows = np.empty(batch + (m, m // 2 + 1), dtype=complex)
        self.out = np.empty(batch + (n, n), dtype=complex)
        self.blocks = ((slice(0, h), slice(0, h)), (slice(m - h, m), slice(h, n)))


def to_physical(grid: TorusGrid, coeffs: np.ndarray, m: int | None = None,
                buffers: TransformBuffers | None = None) -> np.ndarray:
    """Evaluate Hermitian coefficients on an m x m physical grid (default n x n).

    Batched over leading axes.  Only the retained ky >= 0 columns
    ky = 0 .. n/2-1 of ``coeffs`` are read, so it may hold just those n/2
    columns.  They are placed in an m-row half spectrum and inverted with one
    2D real FFT, run as its two 1D passes so that the x-pass skips the
    all-zero columns ky >= n/2 (the result is bitwise that of
    ``numpy.fft.irfft2`` on the full half spectrum).  The passes write into
    ``buffers`` (built for this batch and m; fresh ones when None) and the
    result is ``buffers.phys``.
    """
    n = grid.n_modes
    m = n if m is None else m
    if m < n:
        raise ValueError("pad target smaller than grid")
    if buffers is None:
        buffers = TransformBuffers(grid, coeffs.shape[:-2], m)
    elif buffers.phys.shape[-1] != m:
        raise ValueError(f"buffers are for m = {buffers.phys.shape[-1]}, not {m}")
    for dst, src in buffers.blocks:
        buffers.half[..., dst, :] = coeffs[..., src, :n // 2]
    cols = np.fft.ifft(buffers.half, axis=-2, norm="forward", out=buffers.cols)
    return np.fft.irfft(cols, n=m, axis=-1, norm="forward", out=buffers.phys)


def from_physical(grid: TorusGrid, values: np.ndarray,
                  buffers: TransformBuffers | None = None) -> np.ndarray:
    """Project real values on an m x m grid back onto the retained modes.

    Batched over leading axes.  One 2D real FFT gives the ky >= 0 half; its
    x-pass runs only on the retained columns ky = 0 .. n/2-1 (bitwise the
    corresponding part of ``numpy.fft.rfft2``).  The ky < 0 half and the
    kx < 0 part of the ky = 0 column are conjugate mirrors, so the result is
    exactly Hermitian with the Nyquist modes zero.  The passes write into
    ``buffers`` (built for this batch and m; fresh ones when None) and the
    result is ``buffers.out``.
    """
    m = values.shape[-1]
    h = grid.n_modes // 2
    if buffers is None:
        buffers = TransformBuffers(grid, values.shape[:-2], m)
    rows = np.fft.rfft(values, axis=-1, norm="forward", out=buffers.rows)[..., :h]
    r = np.fft.fft(rows, axis=-2, norm="forward", out=buffers.cols)
    out = buffers.out
    out[..., :h, :h] = r[..., :h, :]
    out[..., h:, :h] = r[..., m - h:, :]
    out[..., h, :] = 0.0
    out[..., :, h] = 0.0
    # the mirrors read r, not out, so no ufunc sees overlapping operands
    np.conjugate(r[..., h - 1:0:-1, 0], out=out[..., h + 1:, 0])
    out[..., 0, 0] = out[..., 0, 0].real
    # c(kx, -ky) = conj c(-kx, ky); row 0 is its own mirror, rows r and n-r
    # swap, and the Nyquist row h mirrors itself: conj(0) = 0 - 0j
    np.conjugate(r[..., 0, h - 1:0:-1], out=out[..., 0, h + 1:])
    np.conjugate(r[..., m - 1:m - h:-1, h - 1:0:-1], out=out[..., 1:h, h + 1:])
    out[..., h, h + 1:] = np.conj(0j)
    np.conjugate(r[..., h - 1:0:-1, h - 1:0:-1], out=out[..., h + 1:, h + 1:])
    return out


def hermitian_symmetrize(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Return the Hermitian part of ``coeffs`` (real-valued field) with
    Nyquist modes zeroed."""
    neg = grid._neg
    sym = 0.5 * (coeffs + np.conj(coeffs[..., neg[:, None], neg[None, :]]))
    sym[..., grid.nyquist_mask] = 0.0
    return sym


# ---------------------------------------------------------------------------
# differential operators and projection

def spectral_derivative(grid: TorusGrid, coeffs: np.ndarray, direction: int) -> np.ndarray:
    """Multiply coefficients by i*k_direction (x: 0, y: 1)."""
    return (grid.ikx if direction == 0 else grid.iky) * coeffs


def gradient(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Gradient along a new leading axis: out[j] = d/dx_j coeffs."""
    return np.stack([grid.ikx * coeffs, grid.iky * coeffs])


def divergence(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Divergence of a 2-component field (contracts the leading axis)."""
    return grid.ikx * coeffs[0] + grid.iky * coeffs[1]


def leray_project(grid: TorusGrid, coeffs: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Remove the gradient part: u_k -> u_k - k (k.u_k)/|k|^2, zero mean mode.

    Acts as the identity on divergence-free fields and annihilates pure
    gradients; idempotent and self-adjoint in the L2 inner product.  ``out``
    (C-contiguous, may be ``coeffs`` itself) receives the result.
    """
    k_sq = grid.k_sq_safe
    k_dot_u = grid.kx * coeffs[0] + grid.ky * coeffs[1]
    if out is None:
        out = np.empty(coeffs.shape, dtype=coeffs.dtype)
    np.subtract(coeffs[0], grid.kx * k_dot_u / k_sq, out=out[0])
    np.subtract(coeffs[1], grid.ky * k_dot_u / k_sq, out=out[1])
    out[:, 0, 0] = 0.0
    return out


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
    band = (grid.k_sq >= k_min**2) & (grid.k_sq <= k_max**2)
    return leray_project(grid, hermitian_symmetrize(grid, np.where(band, raw, 0.0)))


# ---------------------------------------------------------------------------
# dealiased products

def dealiased_product(grid: TorusGrid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pointwise product of two spectral fields via zero-padded transforms.

    Both inputs are broadcast elementwise over leading axes.  Exact
    (alias-free) whenever the combined bandwidth fits the retained lattice.
    """
    m = grid.pad_size
    fp = to_physical(grid, f, m)
    gp = to_physical(grid, g, m)
    return from_physical(grid, fp * gp)


def advect(grid: TorusGrid, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(u . grad) f with dealiasing.  f may be scalar (n,n) or vector (2,n,n)."""
    m = grid.pad_size
    u_phys_pad = to_physical(grid, u, m)
    gf_phys = to_physical(grid, gradient(grid, f), m)
    prod = u_phys_pad[0] * gf_phys[0] + u_phys_pad[1] * gf_phys[1]
    return from_physical(grid, prod)


def tensor_flux_physical(a: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise a grad f, out[j] = sum_l a[j, l] g[l], for a (2, 2, m, m)
    tensor and the gradient g of f: (2, m, m) for a scalar f, (2, 2, m, m)
    with g[l, i] = d_l f_i for a vector f (then out[j, i])."""
    return np.einsum("jl...,l...->j...", a, g, out=out)


def tensor_flux(grid: TorusGrid, a_pad: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Coefficients of the dealiased flux a grad f for f scalar (n,n) or
    vector (2,n,n), with ``a_pad`` the tensor on the padded grid."""
    g = to_physical(grid, gradient(grid, f), grid.pad_size)
    return from_physical(grid, tensor_flux_physical(a_pad, g))


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


def energy(field: SpectralVelocity) -> float:
    """Kinetic energy 0.5 |v|_H^2."""
    return 0.5 * h_norm(field.grid, field.coeffs) ** 2


# ---------------------------------------------------------------------------
# binary snapshots: little-endian header {magic "LUFS", version u32,
# n_modes u32, n_components u32} + interleaved complex64, row-major k-order

def save_snapshot(path, grid: TorusGrid, coeffs: np.ndarray) -> None:
    """Raises ValueError, before the file is opened, if a coefficient is not
    finite in complex64 (a real or imaginary part above 3.4e38)."""
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim == 2:
        arr = arr[None]
    n_comp = arr.shape[0]
    with np.errstate(over="ignore"):  # an overflow is caught by the check below
        interleaved = np.ascontiguousarray(arr.transpose(1, 2, 0).astype(np.complex64))
    if not np.isfinite(interleaved).all():
        raise ValueError("snapshot coefficients must be finite in complex64")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", SNAPSHOT_VERSION, grid.n_modes, n_comp))
        fh.write(interleaved.tobytes())


def load_snapshot(path) -> tuple[TorusGrid, np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        version, n, n_comp = struct.unpack("<III", fh.read(12))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    if raw.size != n * n * n_comp:
        raise ValueError("truncated snapshot payload")
    coeffs = raw.reshape(n, n, n_comp).transpose(2, 0, 1).astype(np.complex128)
    grid = TorusGrid(n)
    if n_comp == 1:
        coeffs = coeffs[0]
    return grid, coeffs
