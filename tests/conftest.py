import numpy as np
import pytest

from lu_flow.spectral import (
    TorusGrid,
    h_norm,
    hermitian_symmetrize,
    leray_project,
)


def random_div_free(grid, gen, band=None, components=2):
    """Random banded Hermitian divergence-free field with unit H norm."""
    shape = (components, grid.n_modes, grid.n_modes)
    raw = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    kmax = band if band is not None else grid.n_modes // 3
    mask = (grid.k_sq >= 1) & (grid.k_sq <= kmax**2)
    coeffs = hermitian_symmetrize(grid, np.where(mask, raw, 0.0))
    if components == 2:
        coeffs = leray_project(grid, coeffs)
    coeffs /= h_norm(grid, coeffs)
    return coeffs[0] if components == 1 else coeffs


def recorded_states(config, *args, **kwargs) -> list:
    """The states ``run(config, ...)`` records, kept by its observer."""
    from lu_flow.solver import run

    states = []
    run(config, *args, observe=lambda t, state: states.append(state), **kwargs)
    return states


def held_bytes(obj) -> int:
    """Bytes of the distinct memory behind the arrays in ``vars(obj)``, those
    in tuples included: each view counted as the array that owns its data."""
    owners = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes
        elif isinstance(value, tuple):
            for item in value:
                walk(item)

    for value in vars(obj).values():
        walk(value)
    return sum(owners.values())


def real_mode_coeffs(grid, kvec, polarization):
    """The unit-H-norm real mode of ``noise._real_mode_entries`` as its (2,
    n, n) coefficients."""
    from lu_flow.noise import _real_mode_entries

    c = np.zeros((2, grid.n_modes, grid.n_modes), dtype=complex)
    c.put(*_real_mode_entries(grid, kvec, polarization))
    return c


def synthetic_inhomogeneous_model(grid, amplitude=1.0):
    """Hand-built noise model mixing wavevectors from different shells.

    Not an eigenbasis; used where the tested machinery needs a noise model
    whose drift and quartic correction are all nonzero.
    """
    from lu_flow.noise import NoiseModel

    c1 = real_mode_coeffs(grid, (0, 1), "cos")
    c2 = real_mode_coeffs(grid, (2, 0), "cos")
    s1 = real_mode_coeffs(grid, (1, 0), "sin")
    s2 = real_mode_coeffs(grid, (1, 2), "sin")
    combos = [(c1 + c2) / np.sqrt(2), (s1 + s2) / np.sqrt(2),
              real_mode_coeffs(grid, (1, 1), "cos")]
    entries = []
    for coeffs in combos:
        flat = (amplitude * coeffs).reshape(-1)
        idx = np.flatnonzero(flat)
        entries.append((idx, flat[idx]))
    return NoiseModel(grid, tuple(entries), 3.0, amplitude)


@pytest.fixture
def grid32():
    return TorusGrid(32)


@pytest.fixture
def grid16():
    return TorusGrid(16)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def field32(grid32, rng):
    return random_div_free(grid32, rng)
