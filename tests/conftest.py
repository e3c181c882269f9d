import numpy as np
import pytest

from lu_flow.spectral import (
    TorusGrid,
    SpectralVelocity,
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


def synthetic_inhomogeneous_model(grid, amplitude=1.0):
    """Hand-built noise model mixing wavevectors from different shells.

    Not an eigenbasis; used where the tested machinery needs a noise model
    whose drift and quartic correction are all nonzero.
    """
    from lu_flow.noise import NoiseModel, _real_mode_coeffs

    c1 = _real_mode_coeffs(grid, (0, 1), "cos")
    c2 = _real_mode_coeffs(grid, (2, 0), "cos")
    s1 = _real_mode_coeffs(grid, (1, 0), "sin")
    s2 = _real_mode_coeffs(grid, (1, 2), "sin")
    combos = [(c1 + c2) / np.sqrt(2), (s1 + s2) / np.sqrt(2),
              _real_mode_coeffs(grid, (1, 1), "cos")]
    return NoiseModel(grid, amplitude * np.stack(combos), 3.0, amplitude)


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
    return SpectralVelocity(grid32, random_div_free(grid32, rng))
