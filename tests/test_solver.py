"""Time stepping: validation, closed forms, reduction, self-convergence."""

import numpy as np
import pytest

from lu_flow.diagnostics import epsilon_convergence_study
from lu_flow.noise import WienerPath
from lu_flow.operators import OperatorContext, apply_B, apply_F, noise_increment
from lu_flow.solver import (
    BlowUpError,
    SolverConfig,
    build_context,
    make_initial,
    run,
    run_deterministic,
    run_scalar_transport,
    step,
)
from lu_flow.spectral import (
    SpectralScalar,
    SpectralVelocity,
    TorusGrid,
    energy,
    from_physical,
    h_norm,
    leray_project,
    max_divergence,
    save_snapshot,
)

from conftest import random_div_free, synthetic_inhomogeneous_model


def short_config(**kw):
    base = dict(n_modes=32, reynolds=100.0, epsilon=0.1, dt=1e-3, t_end=0.1,
                record_every=10, noise_mixing=True)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SolverConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.2, t_end=0.1)
    with pytest.raises(ValueError):
        SolverConfig(scheme="runge_kutta_9000")
    with pytest.raises(ValueError):
        SolverConfig(dt=3e-3, t_end=1.0)  # not an integer multiple


# ---------------------------------------------------------------------------
# initial conditions


def test_taylor_green_divergence_free(grid32):
    u = make_initial("taylor_green", grid32)
    assert max_divergence(grid32, u.coeffs) < 1e-15
    assert energy(u) == pytest.approx((2 * np.pi) ** 2 / 4, rel=1e-13)


def test_random_band_energy_normalized(grid32):
    u = make_initial("random_band", grid32, {"k_min": 1, "k_max": 6,
                                             "energy": 1.0, "seed": 3})
    assert energy(u) == pytest.approx(1.0, abs=1e-12)
    assert max_divergence(grid32, u.coeffs) < 1e-12


def test_initial_from_file(tmp_path, grid16, rng):
    c = random_div_free(grid16, rng).astype(np.complex64).astype(np.complex128)
    path = tmp_path / "ic.lufs"
    save_snapshot(path, grid16, c)
    u = make_initial("file", grid16, {"path": str(path)})
    assert np.array_equal(u.coeffs, c)


def test_unknown_initial_kind(grid16):
    with pytest.raises(ValueError):
        make_initial("vortex_sheet", grid16)


# ---------------------------------------------------------------------------
# single step


def test_step_exact_heat_decay_single_mode(grid32):
    # a single real Fourier mode self-advects to a pure gradient, so the
    # deterministic step is exact heat decay e^{-dt |k|^2 / Re}
    from lu_flow.noise import _real_mode_coeffs
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    v = SpectralVelocity(grid32, _real_mode_coeffs(grid32, (1, 2), "cos"))
    out = step(v, ctx, None, cfg.dt)
    factor = np.exp(-cfg.dt * 5.0 / cfg.reynolds)
    assert np.max(np.abs(out.coeffs - factor * v.coeffs)) < 1e-15


def test_step_matches_deterministic_path(grid32, rng):
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    v = SpectralVelocity(grid32, random_div_free(grid32, rng))
    a = step(v, ctx, None, cfg.dt)
    b = step(v, ctx, np.zeros(cfg.k_modes), cfg.dt)
    assert np.array_equal(a.coeffs, b.coeffs)


def _reference_step(ctx, v, dbeta, dt):
    """exp(-dt|k|^2/Re) P[v - dt (B(v,v) + F(v)) + G(v) dbeta] from the
    per-operator functions."""
    grid = ctx.grid
    new = v.coeffs - dt * (apply_B(ctx, v, v).coeffs + apply_F(ctx, v).coeffs)
    if dbeta is not None:
        new = new + noise_increment(ctx, v, dbeta).coeffs
    return np.exp(-dt * grid.k_sq / ctx.reynolds) * leray_project(grid, new)


@pytest.mark.parametrize("model", ["mix", "synthetic"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("with_noise", [True, False])
def test_fused_step_matches_operator_reference(grid32, rng, model, epsilon, with_noise):
    if model == "mix":
        base = build_context(short_config(k_modes=8), grid32)
    else:
        base = OperatorContext(grid32, synthetic_inhomogeneous_model(grid32), 0.1, 100.0)
    ctx = OperatorContext(grid32, base.noise, epsilon, 100.0)
    assert np.max(np.abs(ctx.us_raw)) > 0  # the drift terms are exercised
    v = SpectralVelocity(grid32, 2.0 * random_div_free(grid32, rng))
    dt = 1e-3
    dbeta = (np.sqrt(dt) * rng.standard_normal(ctx.noise.k_modes) if with_noise else None)
    got = step(v, ctx, dbeta, dt).coeffs
    ref = _reference_step(ctx, v, dbeta, dt)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_step_output_is_hermitian(grid32, rng):
    ctx = build_context(short_config(k_modes=8), grid32)
    v = SpectralVelocity(grid32, random_div_free(grid32, rng))
    out = step(v, ctx, 0.03 * np.ones(8), 1e-3).coeffs
    neg = (-np.arange(32)) % 32
    assert np.array_equal(out, np.conj(out[:, neg[:, None], neg[None, :]]))


@pytest.mark.parametrize("epsilon,real", [(0.1, 12), (0.0, 8)])
def test_transform_count_per_step(grid32, rng, monkeypatch, epsilon, real):
    # each 2D real transform is one real pass along y plus one complex pass
    # along x; no full complex 2D transform is left
    ctx = build_context(short_config(epsilon=epsilon, k_modes=8), grid32)
    v = SpectralVelocity(grid32, random_div_free(grid32, rng))
    dbeta = 0.03 * np.ones(8) if epsilon > 0 else None
    step(v, ctx, dbeta, 1e-3)  # fills the context caches
    counts = {}

    def counting(name, fn):
        def counted(a, *args, **kwargs):
            counts[name] = counts.get(name, 0) + a.size // (a.shape[-1] * a.shape[-2])
            return fn(a, *args, **kwargs)
        return counted

    for name in ("rfft2", "irfft2", "fft2", "ifft2", "rfft", "irfft", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    step(v, ctx, dbeta, 1e-3)
    real_passes = sum(counts.get(k, 0) for k in ("rfft", "irfft", "rfft2", "irfft2"))
    assert real_passes == real
    assert counts.get("fft", 0) + counts.get("ifft", 0) == counts.get("rfft", 0) + counts.get(
        "irfft", 0)
    assert counts.get("fft2", 0) + counts.get("ifft2", 0) == 0


def test_step_self_convergence_under_path_refinement():
    # halving dt against a common Brownian path reduces the terminal error
    # vs a dt/4 reference by a factor >= 1.3, 16-member ensemble
    cfg = short_config(t_end=0.1)
    ctx = build_context(cfg)
    grid = ctx.grid
    dts = [4e-3, 2e-3, 1e-3]
    dt_ref = 5e-4
    gains = []
    errors = np.zeros((len(dts), 16))
    for m in range(16):
        fine = WienerPath(cfg.seed, dt_ref, int(round(cfg.t_end / dt_ref)),
                          cfg.k_modes, member=m)
        ref = run(cfg.__class__(**{**cfg.__dict__, "dt": dt_ref}), m, ctx=ctx,
                  path=fine, store_snapshots=True, warn_cfl=False)
        for i, dt in enumerate(dts):
            coarse = fine.coarsen(int(round(dt / dt_ref)))
            rec = run(cfg.__class__(**{**cfg.__dict__, "dt": dt}), m, ctx=ctx,
                      path=coarse, store_snapshots=True, warn_cfl=False)
            errors[i, m] = h_norm(grid, rec.snapshots[-1].coeffs
                                  - ref.snapshots[-1].coeffs)
    rms = np.sqrt((errors**2).mean(axis=1))
    assert rms[0] > rms[1] > rms[2]  # monotone over the dyadic sweep
    assert rms[0] / rms[1] >= 1.3
    assert rms[1] / rms[2] >= 1.3


# ---------------------------------------------------------------------------
# trajectories


def test_zero_noise_reduction_bitwise():
    cfg = short_config(epsilon=0.0)
    a = run(cfg, store_snapshots=True)
    b = run_deterministic(cfg, store_snapshots=True)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.coeffs, sb.coeffs)


def test_run_bitwise_reproducible():
    cfg = short_config()
    a, b = run(cfg, member_index=2), run(cfg, member_index=2)
    for key in a.diagnostics:
        assert np.array_equal(a.diagnostics[key], b.diagnostics[key])


def test_recorded_states_divergence_free():
    rec = run(short_config(), store_snapshots=True)
    grid = TorusGrid(32)
    for snap in rec.snapshots:
        assert max_divergence(grid, snap.coeffs) <= 1e-10 * h_norm(grid, snap.coeffs)


def test_run_n96_mixed_noise():
    # at N >= 96 the finiteness check in run must accept the state's layout
    cfg = short_config(n_modes=96, t_end=3e-3, record_every=1, k_modes=8,
                       initial_kind="random_band",
                       initial_params={"k_min": 1, "k_max": 24, "energy": 1.0, "seed": 1})
    rec = run(cfg, store_snapshots=True, warn_cfl=False)
    assert len(rec.times) == 4
    grid = TorusGrid(96)
    for snap in rec.snapshots:
        assert max_divergence(grid, snap.coeffs) <= 1e-12 * h_norm(grid, snap.coeffs)


def test_convergence_study_matches_fresh_contexts():
    # the study shares one context cache across epsilons; nothing in it may
    # depend on epsilon, so a fresh build_context per epsilon gives the same bits
    cfg = short_config(n_modes=16, t_end=0.02, record_every=5, k_modes=4)
    epsilons = [0.2, 0.1]
    report = epsilon_convergence_study(cfg, epsilons, 2)
    det = run_deterministic(cfg, store_snapshots=True)
    grid = TorusGrid(16)
    for j, eps in enumerate(epsilons):
        eps_cfg = cfg.with_epsilon(eps)
        ctx = build_context(eps_cfg)
        for m in range(2):
            rec = run(eps_cfg, m, ctx=ctx, store_snapshots=True, warn_cfl=False)
            dh = [h_norm(grid, a.coeffs - b.coeffs) ** 2
                  for a, b in zip(rec.snapshots, det.snapshots)]
            assert report.per_member_h[j, m] == np.sqrt(max(dh))


def test_deterministic_energy_monotone():
    rec = run_deterministic(short_config(initial_kind="random_band",
                                         initial_params={"k_min": 1, "k_max": 8,
                                                         "energy": 1.0, "seed": 5},
                                         epsilon=0.0))
    e = rec.diagnostics["energy"]
    assert np.all(e[1:] <= e[:-1] * (1 + 1e-12))


def test_zero_initial_stays_zero(grid32):
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    v0 = SpectralVelocity(grid32, np.zeros((2, 32, 32), dtype=complex))
    rec = run(cfg, ctx=ctx, v0=v0, store_snapshots=True, warn_cfl=False)
    assert all(np.all(s.coeffs == 0.0) for s in rec.snapshots)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blow_up_detected(grid32):
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    v0 = SpectralVelocity(grid32, 1e200 * random_div_free(grid32,
                                                          np.random.default_rng(0)))
    with pytest.raises(BlowUpError) as err:
        run(cfg, ctx=ctx, v0=v0, warn_cfl=False)
    assert err.value.step >= 1


def test_mean_energy_increment_bounded_by_noise_term():
    # ensemble-mean per-step energy growth is at most C eps^2 E dt once the
    # martingale part is averaged out; C fitted over the time grid
    cfg = short_config(epsilon=0.2, t_end=0.2, record_every=10)
    ctx = build_context(cfg)
    recs = [run(cfg, m, ctx=ctx, warn_cfl=False) for m in range(16)]
    e = np.stack([r.diagnostics["energy"] for r in recs]).mean(axis=0)
    t = recs[0].times
    increments = np.diff(e)
    bound_unit = cfg.epsilon**2 * e[:-1] * np.diff(t)
    c_fit = float(np.max(increments / bound_unit))
    assert np.isfinite(c_fit)
    assert c_fit < 10.0  # growth attributable to the noise scale only


# ---------------------------------------------------------------------------
# scalar transport


def make_tracer(grid):
    x = np.linspace(0, 2 * np.pi, grid.n_modes, endpoint=False)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return SpectralScalar(grid, from_physical(
        grid, np.sin(X) * np.sin(2 * Y) + 0.5 * np.cos(2 * X)))


def test_tracer_constant_without_forcing(grid32):
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    q0 = make_tracer(grid32)
    zero_u = SpectralVelocity(grid32, np.zeros((2, 32, 32), dtype=complex))
    out = run_scalar_transport(q0, zero_u, ctx, 1e-3, 0.05, None)
    assert np.max(np.abs(np.diff(out["energies"]))) == 0.0


def test_tracer_advection_conserves_energy_to_first_order(grid32):
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    q0 = make_tracer(grid32)
    u = make_initial("taylor_green", grid32)
    drift = {}
    for dt in (2e-3, 1e-3):
        out = run_scalar_transport(q0, u, ctx, dt, 0.1, None)
        drift[dt] = abs(out["energies"][-1] - out["energies"][0]) / out["energies"][0]
    assert drift[1e-3] < 5e-3                      # O(dt) per unit time
    assert 1.6 < drift[2e-3] / drift[1e-3] < 2.4   # first-order in dt
