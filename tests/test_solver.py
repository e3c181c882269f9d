"""Time stepping: validation, closed forms, reduction, self-convergence."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lu_flow import solver
from lu_flow.diagnostics import epsilon_convergence_study
from lu_flow.noise import WienerPath
from lu_flow.operators import OperatorContext, apply_B, apply_F, noise_increment
from lu_flow.solver import (
    BlowUpError,
    SolverConfig,
    build_context,
    make_initial,
    member_path,
    run,
    run_scalar_transport,
    step,
)
from lu_flow.spectral import (
    SpectralScalar,
    SpectralVelocity,
    TorusGrid,
    advect,
    divergence,
    energy,
    from_physical,
    h_norm,
    leray_project,
    max_divergence,
    save_snapshot,
    tensor_flux,
    v_norm,
)

from conftest import random_div_free, recorded_states, synthetic_inhomogeneous_model


def short_config(**kw):
    base = dict(n_modes=32, reynolds=100.0, epsilon=0.1, dt=1e-3, t_end=0.1,
                record_every=10, noise_mixing=True)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize("dt,t_end,message", [
    (0.03, 0.05, "integer multiple"),
    (0.03, 0.01, "at least dt"),
    (0.01, 0.0, "at least dt"),
    (0.0, 0.05, "dt must be positive"),
    (float("nan"), 0.05, "dt must be positive"),
], ids=["off-grid", "below-dt", "zero-end", "zero-dt", "nan-dt"])
def test_end_time_must_be_a_multiple_of_dt(grid32, dt, t_end, message):
    # the tracer and SolverConfig apply one rule to (dt, t_end)
    ctx = build_context(short_config(epsilon=0.0))
    q0, u = make_tracer(grid32), make_initial("taylor_green", grid32)
    with pytest.raises(ValueError, match=message):
        run_scalar_transport(q0, u, ctx, dt, t_end, None)
    with pytest.raises(ValueError, match=message):
        SolverConfig(dt=dt, t_end=t_end)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SolverConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.2, t_end=0.1)
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


def _reference_tracer(q0, velocity, ctx, dt, t_end, path):
    """The energies 0.5 |q|_H^2 after every step of the tracer equation of
    run_scalar_transport, from the per-call functions: advect by
    u - eps^2 u_s, the flux from tensor_flux and advect by xi."""
    grid = ctx.grid
    eps = ctx.epsilon
    u_adv = velocity.coeffs - (eps**2) * ctx.us
    q = q0.coeffs
    energies = [0.5 * h_norm(grid, q) ** 2]
    for i in range(int(round(t_end / dt))):
        incr = -dt * advect(grid, u_adv, q)
        if eps > 0.0:
            incr += dt * 0.5 * eps**2 * divergence(grid, tensor_flux(grid, ctx.a_pad, q))
        if ctx.noisy:
            incr -= eps * advect(grid, ctx.noise_field(path.increments[i]), q)
        q = q + incr
        energies.append(0.5 * h_norm(grid, q) ** 2)
    return np.array(energies)


@pytest.mark.parametrize("model", ["mix", "synthetic"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("with_noise", [True, False])
def test_fused_step_matches_operator_reference(grid32, rng, model, epsilon, with_noise):
    if model == "mix":
        base = build_context(short_config(k_modes=8))
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
    ctx = build_context(short_config(k_modes=8))
    v = SpectralVelocity(grid32, random_div_free(grid32, rng))
    out = step(v, ctx, 0.03 * np.ones(8), 1e-3).coeffs
    neg = (-np.arange(32)) % 32
    assert np.array_equal(out, np.conj(out[:, neg[:, None], neg[None, :]]))


def _count_transforms(monkeypatch, call) -> dict:
    """Transform passes per numpy.fft function during call(), each counted
    once per 2D slice."""
    counts = {}

    def counting(name, fn):
        def counted(a, *args, **kwargs):
            counts[name] = counts.get(name, 0) + a.size // (a.shape[-1] * a.shape[-2])
            return fn(a, *args, **kwargs)
        return counted

    with monkeypatch.context() as patch:
        for name in ("rfft2", "irfft2", "fft2", "ifft2", "rfft", "irfft", "fft", "ifft"):
            patch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        call()
    return counts


def _real_passes(counts: dict) -> int:
    # each 2D real transform is one real pass along y plus one complex pass
    # along x; no full complex 2D transform is left
    real = sum(counts.get(k, 0) for k in ("rfft", "irfft", "rfft2", "irfft2"))
    assert counts.get("fft", 0) + counts.get("ifft", 0) == counts.get("rfft", 0) + counts.get(
        "irfft", 0)
    assert counts.get("fft2", 0) + counts.get("ifft2", 0) == 0
    return real


@pytest.mark.parametrize("epsilon,real", [(0.1, 12), (0.0, 8)])
def test_transform_count_per_step(grid32, rng, monkeypatch, epsilon, real):
    ctx = build_context(short_config(epsilon=epsilon, k_modes=8))
    v = SpectralVelocity(grid32, random_div_free(grid32, rng))
    dbeta = 0.03 * np.ones(8) if epsilon > 0 else None
    step(v, ctx, dbeta, 1e-3)  # fills the context caches
    assert _real_passes(_count_transforms(monkeypatch, lambda: step(v, ctx, dbeta, 1e-3))) == real


@pytest.mark.parametrize("n", [32, 64, 128])
def test_warm_step_allocates_little(n):
    # the padded arrays live in the context's workspace: a warm step allocates
    # its grid-sized result and a few grid-sized temporaries, nothing padded
    ctx = build_context(short_config(n_modes=n, k_modes=8))
    v = make_initial("random_band", ctx.grid, {"k_max": n // 4, "seed": 1})
    dbeta = 0.03 * np.ones(8)
    v = step(step(v, ctx, dbeta, 1e-3), ctx, dbeta, 1e-3)
    tracemalloc.start()
    try:
        step(v, ctx, dbeta, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * v.coeffs.nbytes


def test_step_result_survives_next_step(grid32, rng):
    ctx = build_context(short_config(k_modes=8))
    v = SpectralVelocity(grid32, random_div_free(grid32, rng))
    first = step(v, ctx, 0.03 * np.ones(8), 1e-3)
    kept = first.coeffs.copy()
    step(first, ctx, -0.02 * np.ones(8), 1e-3)
    step(v, ctx, None, 2e-3)
    assert np.array_equal(first.coeffs, kept)


def test_shared_workspace_interleaved_matches_fresh_contexts(grid32, rng):
    # contexts made with replace share the cache, and with it the workspace and
    # the cached Stokes factors; interleaving them and changing dt must give
    # the bits of a fresh context built for each step
    cfg = short_config(k_modes=8)
    base = build_context(cfg)
    shared = {eps: replace(base, epsilon=eps) for eps in (0.2, 0.1, 0.0)}
    v0 = SpectralVelocity(grid32, random_div_free(grid32, rng))
    dbetas = [0.03 * rng.standard_normal(8) for _ in range(4)]
    a = {eps: v0 for eps in shared}
    b = dict(a)
    for i, dt in enumerate((1e-3, 1e-3, 5e-4, 1e-3)):
        for eps in shared:
            dbeta = dbetas[i] if eps > 0 else None
            a[eps] = step(a[eps], shared[eps], dbeta, dt)
            b[eps] = step(b[eps], build_context(cfg.with_epsilon(eps)), dbeta, dt)
            assert a[eps].coeffs.tobytes() == b[eps].coeffs.tobytes()


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
        ref = recorded_states(cfg.__class__(**{**cfg.__dict__, "dt": dt_ref}), m, ctx=ctx,
                              path=fine, warn_cfl=False)
        for i, dt in enumerate(dts):
            coarse = fine.coarsen(int(round(dt / dt_ref)))
            states = recorded_states(cfg.__class__(**{**cfg.__dict__, "dt": dt}), m, ctx=ctx,
                                     path=coarse, warn_cfl=False)
            errors[i, m] = h_norm(grid, states[-1].coeffs - ref[-1].coeffs)
    rms = np.sqrt((errors**2).mean(axis=1))
    assert rms[0] > rms[1] > rms[2]  # monotone over the dyadic sweep
    assert rms[0] / rms[1] >= 1.3
    assert rms[1] / rms[2] >= 1.3


# ---------------------------------------------------------------------------
# trajectories


def test_zero_noise_reduction_bitwise():
    # with the noise off (eps = 0 or a null amplitude) the run is the
    # deterministic one, bit for bit, whatever the noise model
    runs = [recorded_states(short_config(**kw), warn_cfl=False) for kw in (
        dict(epsilon=0.0, k_modes=8, noise_mixing=True),
        dict(epsilon=0.1, amplitude=0.0),
        dict(epsilon=0.0, k_modes=1),
    )]
    snaps = [[s.coeffs.tobytes() for s in states] for states in runs]
    assert snaps[0] == snaps[1] == snaps[2]


@pytest.mark.parametrize("trajectory", ["velocity", "tracer"])
def test_record_cadence(grid32, monkeypatch, trajectory):
    # dt = 0.01, T = 0.05, every 2 steps: t = 0, steps 2 and 4, and the last
    seen = []
    integrate = solver._integrate

    def spy(*args):
        *loop, observe = args

        def observe_and_log(t, state):
            seen.append(t)
            observe(t, state)
        return integrate(*loop, observe_and_log)

    monkeypatch.setattr(solver, "_integrate", spy)
    cfg = short_config(dt=0.01, t_end=0.05, record_every=2)
    if trajectory == "velocity":
        times = run(cfg, warn_cfl=False).times
    else:
        ctx = build_context(cfg)
        times = run_scalar_transport(make_tracer(grid32), make_initial("taylor_green", grid32),
                                     ctx, cfg.dt, cfg.t_end, member_path(cfg, ctx),
                                     record_every=cfg.record_every)["times"]
    assert seen == [0.0, 0.02, 0.04, 0.05] == times.tolist()


def test_step_is_looked_up_at_every_step(monkeypatch):
    # a wrapper that unbinds itself on its first call, as a one-shot timing
    # hook does, must see one call and not every step of the first run
    calls = []
    original = solver.step

    def first_step(*args, **kwargs):
        calls.append(1)
        monkeypatch.setattr(solver, "step", original)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "step", first_step)
    run(short_config(t_end=5e-3), warn_cfl=False)
    assert len(calls) == 1


@pytest.mark.parametrize("field,ctx_value", [("epsilon", 0.2), ("reynolds", 50.0),
                                              ("n_modes", 16), ("k_modes", 8)])
def test_run_rejects_context_of_another_config(field, ctx_value):
    cfg = short_config(t_end=2e-3)
    ctx = build_context(replace(cfg, **{field: ctx_value}))
    with pytest.raises(ValueError, match=f"context {field} "):
        run(cfg, ctx=ctx)


def test_run_bitwise_reproducible():
    cfg = short_config()
    a, b = run(cfg, member_index=2), run(cfg, member_index=2)
    for key in a.diagnostics:
        assert np.array_equal(a.diagnostics[key], b.diagnostics[key])


def test_recorded_states_divergence_free():
    states = recorded_states(short_config())
    grid = TorusGrid(32)
    for snap in states:
        assert max_divergence(grid, snap.coeffs) <= 1e-10 * h_norm(grid, snap.coeffs)


def test_run_n96_mixed_noise():
    # at N >= 96 the finiteness check in run must accept the state's layout
    cfg = short_config(n_modes=96, t_end=3e-3, record_every=1, k_modes=8,
                       initial_kind="random_band",
                       initial_params={"k_min": 1, "k_max": 24, "energy": 1.0, "seed": 1})
    states = []
    rec = run(cfg, observe=lambda t, state: states.append(state), warn_cfl=False)
    assert len(rec.times) == 4
    grid = TorusGrid(96)
    for snap in states:
        assert max_divergence(grid, snap.coeffs) <= 1e-12 * h_norm(grid, snap.coeffs)


def test_convergence_study_matches_fresh_contexts():
    # the study shares one context cache across epsilons; nothing in it may
    # depend on epsilon, so a fresh build_context per epsilon gives the same bits
    cfg = short_config(n_modes=16, t_end=0.02, record_every=5, k_modes=4)
    epsilons = [0.2, 0.1]
    report = epsilon_convergence_study(cfg, epsilons, 2)
    det_states = []
    det = run(cfg.with_epsilon(0.0), observe=lambda t, state: det_states.append(state),
              warn_cfl=False)
    grid = TorusGrid(16)
    for j, eps in enumerate(epsilons):
        eps_cfg = cfg.with_epsilon(eps)
        ctx = build_context(eps_cfg)
        int_v = []
        for m in range(2):
            states = recorded_states(eps_cfg, m, ctx=ctx, warn_cfl=False)
            dh = [h_norm(grid, a.coeffs - b.coeffs) ** 2 for a, b in zip(states, det_states)]
            dv = [v_norm(grid, a.coeffs - b.coeffs) ** 2 for a, b in zip(states, det_states)]
            assert report.per_member_h[j, m] == np.sqrt(max(dh))
            int_v.append(np.trapezoid(dv, det.times))
        assert report.errors_v_sq[j] == np.sqrt((np.array(int_v) ** 2).mean())


def test_deterministic_energy_monotone():
    rec = run(short_config(initial_kind="random_band",
                           initial_params={"k_min": 1, "k_max": 8, "energy": 1.0, "seed": 5},
                           epsilon=0.0), warn_cfl=False)
    e = rec.diagnostics["energy"]
    assert np.all(e[1:] <= e[:-1] * (1 + 1e-12))


def test_zero_initial_stays_zero(grid32):
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    v0 = SpectralVelocity(grid32, np.zeros((2, 32, 32), dtype=complex))
    states = recorded_states(cfg, ctx=ctx, v0=v0, warn_cfl=False)
    assert all(np.all(s.coeffs == 0.0) for s in states)


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


@pytest.mark.parametrize("model", ["mix", "pure", "synthetic"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
def test_fused_tracer_matches_per_call_reference(grid32, model, epsilon):
    if model == "synthetic":
        noise = synthetic_inhomogeneous_model(grid32)
    else:
        noise = build_context(short_config(k_modes=8, noise_mixing=model == "mix")).noise
    ctx = OperatorContext(grid32, noise, epsilon, 100.0)
    q0 = make_tracer(grid32)
    u = make_initial("random_band", grid32, {"k_max": 8, "seed": 2})
    dt, t_end = 1e-3, 0.04
    path = WienerPath(3, dt, 40, noise.k_modes) if ctx.noisy else None
    got = run_scalar_transport(q0, u, ctx, dt, t_end, path)["energies"]
    ref = _reference_tracer(q0, u, ctx, dt, t_end, path)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_tracer_null_amplitude_is_noise_free(grid32):
    # with a null amplitude the noise is off whatever eps: the tracer takes the
    # eps = 0 path bit for bit
    q0 = make_tracer(grid32)
    u = make_initial("taylor_green", grid32)
    energies = []
    for kw in (dict(epsilon=0.1, amplitude=0.0), dict(epsilon=0.0)):
        cfg = short_config(k_modes=8, **kw)
        ctx = build_context(cfg)
        out = run_scalar_transport(q0, u, ctx, cfg.dt, 0.05, member_path(cfg, ctx))
        energies.append(out["energies"].tobytes())
    assert energies[0] == energies[1]


@pytest.mark.parametrize("epsilon,real", [(0.1, 7), (0.0, 5)])
def test_transform_count_per_tracer_step(grid32, monkeypatch, epsilon, real):
    # a two-step run minus a one-step one, so that set-up transforms cancel
    cfg = short_config(epsilon=epsilon, k_modes=8)
    ctx = build_context(cfg)
    q0 = make_tracer(grid32)
    u = make_initial("taylor_green", grid32)
    path = member_path(cfg, ctx)
    one, two = (_real_passes(_count_transforms(monkeypatch, lambda t=t: run_scalar_transport(
        q0, u, ctx, cfg.dt, t * cfg.dt, path))) for t in (1, 2))
    assert two - one == real
