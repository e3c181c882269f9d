"""Time stepping: validation, closed forms, reduction, self-convergence."""

import importlib.util
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from lu_flow import solver
from lu_flow.diagnostics import epsilon_convergence_study
from lu_flow.noise import WienerPath
from lu_flow.operators import OperatorContext, apply_B, apply_F, noise_increment
from lu_flow.solver import (
    BlowUpError,
    SolverConfig,
    TrajectoryRecord,
    build_context,
    make_initial,
    run,
    run_scalar_transport,
    step,
)
from lu_flow.spectral import (
    TorusGrid,
    advect,
    compress,
    divergence,
    energy,
    expand,
    from_physical,
    h_norm,
    leray_project,
    max_divergence,
    save_snapshot,
    stream_function,
    stream_velocity,
    tensor_flux,
    to_physical,
    v_norm,
)

from conftest import random_div_free, recorded_states, synthetic_inhomogeneous_model


def psi_of(grid, v):
    """The stream function ``step`` takes, of a full-layout velocity."""
    return stream_function(grid, compress(grid, v))


def velocity_of(grid, psi):
    """The full-layout velocity of a stream function ``step`` returns."""
    return expand(grid, stream_velocity(grid, psi))


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
    (0.01, 0.0, "field 'T' must be positive"),
    (0.0, 0.05, "field 'dt' must be positive"),
    (float("nan"), 0.05, "field 'dt' must be a finite number"),
], ids=["off-grid", "below-dt", "zero-end", "zero-dt", "nan-dt"])
def test_end_time_must_be_a_multiple_of_dt(dt, t_end, message):
    # the rule on (dt, t_end) has one owner: the SolverConfig that both the
    # velocity and the tracer run from
    with pytest.raises(ValueError, match=message):
        SolverConfig(dt=dt, t_end=t_end)


@pytest.mark.parametrize("dt,n_steps,k_modes,name", [
    (4e-3, 10, 4, "dt"),
    (1e-3, 5, 4, "n_steps"),
    (1e-3, 10, 3, "k_modes"),
], ids=["coarse-dt", "short", "too-few-modes"])
def test_explicit_path_must_fit_the_run(grid32, dt, n_steps, k_modes, name):
    # run and the tracer share one check of a given path: 10 steps of 1e-3, K = 4
    cfg = short_config(dt=1e-3, t_end=0.01, k_modes=4)
    ctx = build_context(cfg)
    path = WienerPath(0, dt, n_steps, k_modes)
    with pytest.raises(ValueError, match=f"path {name} "):
        run(cfg, ctx=ctx, path=path, warn_cfl=False)
    q0, u = make_tracer(grid32), make_initial("taylor_green", grid32)
    with pytest.raises(ValueError, match=f"path {name} "):
        run_scalar_transport(cfg, q0, u, ctx=ctx, path=path)


def test_record_every_must_be_positive():
    # the rule on record_every has one owner: the SolverConfig that both the
    # velocity and the tracer run from
    with pytest.raises(ValueError, match="field 'record_every' must be >= 1"):
        SolverConfig(record_every=0)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SolverConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.2, t_end=0.1)
    with pytest.raises(ValueError):
        SolverConfig(dt=3e-3, t_end=1.0)  # not an integer multiple
    # a config built in code is held to the rules of a parsed one, and one that
    # no run could take fails here, not when its run starts
    for bad in (dict(amplitude=-1.0), dict(spectrum_exponent=-1.0), dict(noise_mixing=1),
                dict(record_every=2.5), dict(seed=-1), dict(n_modes=7), dict(epsilon=2.0),
                dict(k_modes=10**6), dict(initial_params=[1]),
                *(dict(initial_kind="random_band", initial_params=params)
                  for params in ({"bogus": 1}, {"energy": -1}, {"seed": -1}, {"k_min": "a"})),
                dict(initial_kind="file"), dict(initial_kind="file", initial_params={"path": 2})):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_run_descriptions_are_frozen():
    # a checked config or context cannot be moved past its checks afterwards
    config = SolverConfig()
    with pytest.raises(FrozenInstanceError):
        config.dt = -1e-3
    ctx = build_context(config)
    with pytest.raises(FrozenInstanceError):
        ctx.epsilon = 5.0
    assert config.n_steps == 1000 and ctx.epsilon == 0.1


# ---------------------------------------------------------------------------
# initial conditions


def test_taylor_green_divergence_free(grid32):
    u = make_initial("taylor_green", grid32)
    assert max_divergence(grid32, u) < 1e-15
    assert energy(grid32, u) == pytest.approx((2 * np.pi) ** 2 / 4, rel=1e-13)


def test_random_band_energy_normalized(grid32):
    u = make_initial("random_band", grid32, {"k_min": 1, "k_max": 6,
                                             "energy": 1.0, "seed": 3})
    assert energy(grid32, u) == pytest.approx(1.0, abs=1e-12)
    assert max_divergence(grid32, u) < 1e-12


def test_initial_from_file(tmp_path, grid16, rng):
    c = random_div_free(grid16, rng).astype(np.complex64).astype(np.complex128)
    path = tmp_path / "ic.lufs"
    save_snapshot(path, grid16, c)
    u = make_initial("file", grid16, {"path": str(path)})
    assert np.array_equal(u, c)


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
    v = _real_mode_coeffs(grid32, (1, 2), "cos")
    out = velocity_of(grid32, step(psi_of(grid32, v), ctx, None, cfg.dt))
    factor = np.exp(-cfg.dt * 5.0 / cfg.reynolds)
    assert np.max(np.abs(out - factor * v)) < 1e-15


def test_step_matches_deterministic_path(grid32, rng):
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    v = psi_of(grid32, random_div_free(grid32, rng))
    a = step(v, ctx, None, cfg.dt)
    b = step(v, ctx, np.zeros(cfg.k_modes), cfg.dt)
    assert np.array_equal(a, b)


def _reference_step(ctx, v, dbeta, dt):
    """exp(-dt|k|^2/Re) P[v - dt (B(v,v) + F(v)) + G(v) dbeta] from the
    per-operator functions."""
    grid = ctx.grid
    new = v - dt * (apply_B(ctx, v, v) + apply_F(ctx, v))
    if dbeta is not None:
        new = new + noise_increment(ctx, v, dbeta)
    return np.exp(-dt * grid.k_sq / ctx.reynolds) * leray_project(grid, new)


def _reference_tracer(q0, velocity, ctx, dt, t_end, path):
    """The energies 0.5 |q|_H^2 after every step of the tracer equation of
    run_scalar_transport, from the per-call functions: advect by
    u - eps^2 u_s, the flux from tensor_flux and advect by xi."""
    grid = ctx.grid
    eps = ctx.epsilon
    u_adv = velocity - (eps**2) * ctx.us
    q = q0
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


# at N = 16, 24, 32, 48 and 96 (pad sizes 24, 36, 48, 72 and 144) the half
# layout has different numbers of zero rows; N = 32 keeps its ids unsuffixed
@pytest.mark.parametrize("with_noise,epsilon,model,n", [
    pytest.param(with_noise, epsilon, model, n,
                 id=f"{with_noise}-{epsilon}-{model}" + ("" if n == 32 else f"-n{n}"))
    for n in (16, 24, 32, 48, 96) for model in ("mix", "synthetic")
    for epsilon in (0.0, 0.1, 0.5) for with_noise in (True, False)])
def test_fused_step_matches_operator_reference(rng, with_noise, epsilon, model, n):
    grid = TorusGrid(n)
    if model == "mix":
        base = build_context(short_config(n_modes=n, k_modes=8))
    else:
        base = OperatorContext(synthetic_inhomogeneous_model(grid), 0.1, 100.0)
    ctx = OperatorContext(base.noise, epsilon, 100.0)
    assert np.max(np.abs(ctx.noise.ito_stokes_drift)) > 0  # the drift terms are exercised
    v = 2.0 * random_div_free(grid, rng)
    dt = 1e-3
    dbeta = (np.sqrt(dt) * rng.standard_normal(ctx.noise.k_modes) if with_noise else None)
    got = velocity_of(grid, step(psi_of(grid, v), ctx, dbeta, dt))
    ref = _reference_step(ctx, v, dbeta, dt)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# K = 64 gives xi a block of 9 x 5 (pure) or 13 x 7 (mixed) half-layout
# modes at N = 32, against 3 x 2 and 5 x 3 at K = 8
@pytest.mark.parametrize("epsilon,mix,n,k_modes", [
    pytest.param(epsilon, mix, n, k_modes,
                 id=f"{epsilon}-{mix}-{n}" + ("" if k_modes == 8 else f"-k{k_modes}"))
    for epsilon, mix, n, k_modes in
    [(e, x, n, 8) for e in (0.0, 0.1) for x in (False, True) for n in (32, 48)]
    + [(0.1, False, 32, 64), (0.1, True, 32, 64)]])
def test_run_matches_reference_step_loop(epsilon, mix, n, k_modes):
    # 50 steps of run against the per-operator step on the same path; the
    # stream-function state, the curl of one flux and the separable xi change
    # only rounding
    cfg = short_config(n_modes=n, epsilon=epsilon, k_modes=k_modes, noise_mixing=mix, t_end=0.05,
                       record_every=50, initial_kind="random_band",
                       initial_params={"k_max": n // 4, "seed": 2})
    ctx = build_context(cfg)
    path = WienerPath(cfg.seed, cfg.dt, cfg.n_steps, cfg.k_modes) if ctx.noisy else None
    got = recorded_states(cfg, ctx=ctx, path=path, warn_cfl=False)[-1]
    v = make_initial(cfg.initial_kind, ctx.grid, cfg.initial_params)
    for i in range(cfg.n_steps):
        v = _reference_step(ctx, v, None if path is None else path.increments[i], cfg.dt)
    assert h_norm(ctx.grid, got - v) <= 1e-11 * h_norm(ctx.grid, v)


def test_step_output_is_hermitian(grid32, rng):
    # the ky = 0 column is the only one that holds conjugate pairs in the half
    # layout: psi(-kx, 0) = conj psi(kx, 0) exactly, with a zero mean mode, so
    # the expanded velocity is exactly Hermitian
    ctx = build_context(short_config(k_modes=8))
    v = psi_of(grid32, random_div_free(grid32, rng))
    out = step(v, ctx, 0.03 * np.ones(8), 1e-3)
    m, h = grid32.pad_size, 16
    assert out.shape == (m, h)
    assert np.array_equal(out[m - 1:m - h:-1, 0], np.conj(out[1:h, 0]))
    assert out[0, 0] == 0.0
    assert np.all(out[h:m - h + 1] == 0.0)  # the rows between and the Nyquist row
    full = velocity_of(grid32, out)
    neg = (-np.arange(32)) % 32
    assert np.array_equal(full, np.conj(full[:, neg[:, None], neg[None, :]]))


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


@pytest.mark.parametrize("epsilon,real", [(0.1, 8), (0.0, 4)])
def test_transform_count_per_step(grid32, rng, monkeypatch, epsilon, real):
    # v and three second derivatives of psi inverse, the three H's forward;
    # at eps = 0 only v inverse and H0 = H1, H2 forward
    ctx = build_context(short_config(epsilon=epsilon, k_modes=8))
    v = psi_of(grid32, random_div_free(grid32, rng))
    dbeta = 0.03 * np.ones(8) if epsilon > 0 else None
    # a bare step makes its own workspace, and making one takes no transform
    assert _real_passes(_count_transforms(monkeypatch, lambda: step(v, ctx, dbeta, 1e-3))) == real


@pytest.mark.parametrize("k_modes", [8, 64])
@pytest.mark.parametrize("mix", [False, True])
def test_separable_noise_matches_its_transform(grid32, rng, mix, k_modes):
    # xi on the padded grid from the separable transform of its block against
    # the inverse FFT of the reference noise field, and its stream function on
    # the block against that of the field, which has no mode outside it
    ctx = build_context(short_config(k_modes=k_modes, noise_mixing=mix))
    model = ctx.noise
    dbeta = rng.standard_normal(k_modes)
    field = ctx.noise_field(dbeta)
    m = grid32.pad_size
    psi_xi, xi = model.separable_xi(dbeta, model.wy, np.empty((2, m, m)))
    ref = to_physical(grid32, field, m)
    assert np.max(np.abs(xi - ref)) <= 1e-13 * np.max(np.abs(ref))
    psi_ref = stream_function(grid32, compress(grid32, field)).reshape(-1)
    assert np.max(np.abs(psi_xi - psi_ref[model.block_idx])) <= 1e-13 * np.max(np.abs(psi_ref))
    psi_ref[model.block_idx] = 0.0
    assert np.all(psi_ref == 0.0)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_warm_step_allocates_little(n):
    # the padded arrays live in the run's workspace: a warm step allocates
    # its state-sized result and a few small temporaries, nothing padded
    ctx = build_context(short_config(n_modes=n, k_modes=8))
    work = solver._StepWorkspace(ctx, 1e-3)
    v = psi_of(ctx.grid, make_initial("random_band", ctx.grid, {"k_max": n // 4, "seed": 1}))
    dbeta = 0.03 * np.ones(8)
    v = step(step(v, ctx, dbeta, 1e-3, work), ctx, dbeta, 1e-3, work)
    tracemalloc.start()
    try:
        step(v, ctx, dbeta, 1e-3, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * v.nbytes


def test_step_result_survives_next_step(grid32, rng):
    ctx = build_context(short_config(k_modes=8))
    v = psi_of(grid32, random_div_free(grid32, rng))
    first = step(v, ctx, 0.03 * np.ones(8), 1e-3)
    kept = first.copy()
    step(first, ctx, -0.02 * np.ones(8), 1e-3)
    step(v, ctx, None, 2e-3)
    assert np.array_equal(first, kept)


def test_shared_workspace_interleaved_matches_fresh_contexts(grid32, rng):
    # contexts made with replace share the noise model and its step fields;
    # interleaving them and changing dt must give the bits of a fresh context
    # built for each step
    cfg = short_config(k_modes=8)
    base = build_context(cfg)
    shared = {eps: replace(base, epsilon=eps) for eps in (0.2, 0.1, 0.0)}
    v0 = psi_of(grid32, random_div_free(grid32, rng))
    dbetas = [0.03 * rng.standard_normal(8) for _ in range(4)]
    a = {eps: v0 for eps in shared}
    b = dict(a)
    for i, dt in enumerate((1e-3, 1e-3, 5e-4, 1e-3)):
        for eps in shared:
            dbeta = dbetas[i] if eps > 0 else None
            a[eps] = step(a[eps], shared[eps], dbeta, dt)
            b[eps] = step(b[eps], build_context(replace(cfg, epsilon=eps)), dbeta, dt)
            assert a[eps].tobytes() == b[eps].tobytes()


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
            errors[i, m] = h_norm(grid, states[-1] - ref[-1])
    rms = np.sqrt((errors**2).mean(axis=1))
    assert rms[0] > rms[1] > rms[2]  # monotone over the dyadic sweep
    assert rms[0] / rms[1] >= 1.3
    assert rms[1] / rms[2] >= 1.3


def _band_limited_velocity(grid):
    # psi = 0.15 [2 sin(x) cos(2y) + 0.5 cos(3x + y)] on two shells (|k|^2 = 5
    # and 10), so the flow is no steady Euler state; u = (d_y psi, -d_x psi)
    x, y = grid.x, grid.y
    ux = 0.15 * (-2 * np.sin(x) * np.sin(2 * y) - 0.5 * np.sin(3 * x + y))
    uy = 0.15 * (-np.cos(x) * np.cos(2 * y) + 1.5 * np.sin(3 * x + y))
    return leray_project(grid, expand(grid, from_physical(grid, np.stack([ux, uy]))))


def _modes_below(v, n):
    """The modes |k1|, |k2| < n/2 of a full-layout field, (2, n - 1, n - 1)."""
    size = v.shape[-1]
    idx = np.r_[0:n // 2, size - n // 2 + 1:size]
    return v[:, idx][:, :, idx]


# eps = 0 skips the noise, so its mix cases would be the same run twice
@pytest.mark.parametrize("mix,epsilon", [(False, 0.0), (False, 0.3), (True, 0.3)],
                         ids=["eps0", "eps0.3", "eps0.3-mix"])
def test_cross_resolution_consistency(mix, epsilon):
    # the same run on one path (seed 3, K = 8) at N and at 128 agrees on the
    # modes of N = 16 to spectral accuracy: the noise modes and the path do not
    # depend on N.  Measured relative errors: about 3e-7 at N = 16, 5e-12 at 24
    # and 4e-16 from N = 32 on.
    path = WienerPath(3, 1e-3, 200, 8)

    def final(n):
        cfg = SolverConfig(n_modes=n, epsilon=epsilon, dt=1e-3, t_end=0.2, k_modes=8,
                           noise_mixing=mix, record_every=200)
        v0 = _band_limited_velocity(TorusGrid(n))
        return _modes_below(recorded_states(cfg, path=path, v0=v0, warn_cfl=False)[-1], 16)

    ref = final(128)
    errs = {n: np.linalg.norm(final(n) - ref) / np.linalg.norm(ref)
            for n in (16, 24, 32, 48, 64, 96)}
    assert errs[16] > errs[24] > errs[32]
    assert errs[16] > 1e-9  # the truncation at N = 16 shows
    # N = 48 and 96 cover the pad sizes 72 and 144
    assert max(errs[32], errs[48], errs[64], errs[96]) < 1e-14


# ---------------------------------------------------------------------------
# trajectories


def test_zero_noise_reduction_bitwise():
    # with the noise off (eps = 0, a null amplitude or weights that all
    # underflow to zero) the run is the deterministic one, bit for bit,
    # whatever the noise model
    runs = [recorded_states(short_config(**kw), warn_cfl=False) for kw in (
        dict(epsilon=0.0, k_modes=8, noise_mixing=True),
        dict(epsilon=0.1, amplitude=0.0),
        dict(epsilon=0.0, k_modes=1),
        dict(epsilon=0.1, amplitude=5e-324),
        dict(epsilon=0.1, amplitude=1e-200, noise_mixing=True, k_modes=8),
    )]
    snaps = [[s.tobytes() for s in states] for states in runs]
    assert all(other == snaps[0] for other in snaps[1:])


@pytest.mark.parametrize("trajectory", ["velocity", "tracer"])
def test_record_cadence(grid32, monkeypatch, trajectory):
    # dt = 0.01, T = 0.05, every 2 steps: t = 0, steps 2 and 4, and the last
    seen = []
    integrate = solver._integrate

    def spy(grid, state, advance, path, config, names, measure, observe=None, **kwargs):
        def observe_and_log(t, state):
            seen.append(t)
            if observe is not None:
                observe(t, state)
        return integrate(grid, state, advance, path, config, names, measure, observe_and_log,
                         **kwargs)

    monkeypatch.setattr(solver, "_integrate", spy)
    cfg = short_config(dt=0.01, t_end=0.05, record_every=2)
    if trajectory == "velocity":
        times = run(cfg, warn_cfl=False).times
    else:
        times = run_scalar_transport(cfg, make_tracer(grid32),
                                     make_initial("taylor_green", grid32)).times
    assert seen == [0.0, 0.02, 0.04, 0.05] == times.tolist()


@pytest.mark.parametrize("trajectory,names", [("velocity", solver.RECORD_NAMES),
                                               ("tracer", ("energy",))])
def test_both_drivers_return_a_trajectory_record(grid32, trajectory, names):
    # one record type for both trajectories, built by _integrate with its checks
    cfg = short_config(dt=0.01, t_end=0.05, record_every=2)
    if trajectory == "velocity":
        record = run(cfg, warn_cfl=False)
    else:
        record = run_scalar_transport(cfg, make_tracer(grid32),
                                      make_initial("taylor_green", grid32))
    assert isinstance(record, TrajectoryRecord)
    assert tuple(record.diagnostics) == names
    assert all(len(arr) == len(record.times) == 4 for arr in record.diagnostics.values())


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
                                              ("n_modes", 16), ("k_modes", 8),
                                              ("spectrum_exponent", 1.0), ("amplitude", 0.5),
                                              ("noise_mixing", False)])
def test_run_rejects_context_of_another_config(grid32, field, ctx_value):
    cfg = short_config(t_end=2e-3)
    ctx = build_context(replace(cfg, **{field: ctx_value}))
    with pytest.raises(ValueError, match=f"context {field} "):
        run(cfg, ctx=ctx)
    q0, u = make_tracer(grid32), make_initial("taylor_green", grid32)
    with pytest.raises(ValueError, match=f"context {field} "):
        run_scalar_transport(cfg, q0, u, ctx=ctx)


def test_run_bitwise_reproducible():
    cfg = short_config()
    a, b = run(cfg, member_index=2), run(cfg, member_index=2)
    for key in a.diagnostics:
        assert np.array_equal(a.diagnostics[key], b.diagnostics[key])


def test_recorded_states_divergence_free():
    states = recorded_states(short_config())
    grid = TorusGrid(32)
    for snap in states:
        assert max_divergence(grid, snap) <= 1e-10 * h_norm(grid, snap)


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
        assert max_divergence(grid, snap) <= 1e-12 * h_norm(grid, snap)


def test_convergence_study_matches_fresh_contexts():
    # the study shares one context cache across epsilons; nothing in it may
    # depend on epsilon, so a fresh build_context per epsilon gives the same bits
    cfg = short_config(n_modes=16, t_end=0.02, record_every=5, k_modes=4)
    epsilons = [0.2, 0.1]
    report = epsilon_convergence_study(cfg, epsilons, 2)
    det_states = []
    det = run(replace(cfg, epsilon=0.0), observe=lambda t, state: det_states.append(state),
              warn_cfl=False)
    grid = TorusGrid(16)
    for j, eps in enumerate(epsilons):
        eps_cfg = replace(cfg, epsilon=eps)
        ctx = build_context(eps_cfg)
        int_v = []
        for m in range(2):
            states = recorded_states(eps_cfg, m, ctx=ctx, warn_cfl=False)
            dh = [h_norm(grid, a - b) ** 2 for a, b in zip(states, det_states)]
            dv = [v_norm(grid, a - b) ** 2 for a, b in zip(states, det_states)]
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
    v0 = np.zeros((2, 32, 32), dtype=complex)
    states = recorded_states(cfg, ctx=ctx, v0=v0, warn_cfl=False)
    assert all(np.all(s == 0.0) for s in states)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blow_up_detected(grid32):
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    v0 = 1e200 * random_div_free(grid32, np.random.default_rng(0))
    with pytest.raises(BlowUpError) as err:
        run(cfg, ctx=ctx, v0=v0, warn_cfl=False)
    assert err.value.step >= 1


def test_overflowing_record_is_blow_up(grid32):
    # a tracer at rest keeps its finite state, but its energy overflows a
    # double from the first record on: the run ends in BlowUpError at step 0,
    # not in the ValueError of TrajectoryRecord's check of its values
    cfg = short_config(epsilon=0.0, t_end=2e-3)
    q0 = 1e160 * make_tracer(grid32)
    with pytest.raises(BlowUpError) as err:
        run_scalar_transport(cfg, q0, np.zeros((2, 32, 32), dtype=complex))
    assert (err.value.step, err.value.time) == (0, 0.0)


def test_state_digest_tool():
    # tools/state_digest.py: the digest of a run is the same on a second
    # call and tells eps = 0.1 from the deterministic run
    spec = importlib.util.spec_from_file_location(
        "state_digest", Path(__file__).resolve().parents[1] / "tools" / "state_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.digest(16, 0.1, True, 3)
    assert first == tool.digest(16, 0.1, True, 3)
    assert len(first) == 64 and first != tool.digest(16, 0.0, True, 3)


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
    return expand(grid, from_physical(grid, np.sin(X) * np.sin(2 * Y) + 0.5 * np.cos(2 * X)))


def test_tracer_constant_without_forcing(grid32):
    cfg = short_config(epsilon=0.0, t_end=0.05, record_every=1)
    q0 = make_tracer(grid32)
    zero_u = np.zeros((2, 32, 32), dtype=complex)
    out = run_scalar_transport(cfg, q0, zero_u)
    assert np.max(np.abs(np.diff(out.diagnostics["energy"]))) == 0.0


def test_tracer_advection_conserves_energy_to_first_order(grid32):
    cfg = short_config(epsilon=0.0)
    ctx = build_context(cfg)
    q0 = make_tracer(grid32)
    u = make_initial("taylor_green", grid32)
    drift = {}
    for dt in (2e-3, 1e-3):
        out = run_scalar_transport(replace(cfg, dt=dt, record_every=1), q0, u, ctx=ctx)
        energies = out.diagnostics["energy"]
        drift[dt] = abs(energies[-1] - energies[0]) / energies[0]
    assert drift[1e-3] < 5e-3                      # O(dt) per unit time
    assert 1.6 < drift[2e-3] / drift[1e-3] < 2.4   # first-order in dt


@pytest.mark.parametrize("model", ["mix", "pure", "synthetic"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
def test_fused_tracer_matches_per_call_reference(grid32, model, epsilon):
    if model == "synthetic":
        noise = synthetic_inhomogeneous_model(grid32)
    else:
        noise = build_context(short_config(k_modes=8, noise_mixing=model == "mix")).noise
    ctx = OperatorContext(noise, epsilon, 100.0)
    q0 = make_tracer(grid32)
    u = make_initial("random_band", grid32, {"k_max": 8, "seed": 2})
    dt, t_end = 1e-3, 0.04
    path = WienerPath(3, dt, 40, noise.k_modes) if ctx.noisy else None
    cfg = short_config(epsilon=epsilon, dt=dt, t_end=t_end, record_every=1,
                       k_modes=noise.k_modes, noise_mixing=noise.mix_shells)
    got = run_scalar_transport(cfg, q0, u, ctx=ctx, path=path).diagnostics["energy"]
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
        out = run_scalar_transport(short_config(k_modes=8, t_end=0.05, record_every=1, **kw),
                                   q0, u)
        energies.append(out.diagnostics["energy"].tobytes())
    assert energies[0] == energies[1]


@pytest.mark.parametrize("epsilon,real", [(0.1, 5), (0.0, 3)])
def test_transform_count_per_tracer_step(grid32, monkeypatch, epsilon, real):
    # a two-step run minus a one-step one, so that set-up transforms cancel:
    # grad q inverse, (c.grad) q and with noise the flux a grad q forward
    cfg = short_config(epsilon=epsilon, k_modes=8)
    ctx = build_context(cfg)
    q0 = make_tracer(grid32)
    u = make_initial("taylor_green", grid32)
    one, two = (_real_passes(_count_transforms(monkeypatch, lambda t=t: run_scalar_transport(
        replace(cfg, t_end=t * cfg.dt), q0, u, ctx=ctx))) for t in (1, 2))
    assert two - one == real


def test_tracer_reuses_the_context_workspace(grid32, monkeypatch):
    # each run makes its workspace once, when it starts, whatever its step
    # count: a velocity run one _StepWorkspace, a tracer run its two transform
    # buffers and no _StepWorkspace; the model's fields are shared, so two
    # runs on one context give the same bits
    cfg = short_config(k_modes=8, t_end=3e-3)
    ctx = build_context(cfg)
    q0, u = make_tracer(grid32), make_initial("taylor_green", grid32)
    made, buffers = [], []

    class CountingWorkspace(solver._StepWorkspace):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    class CountingBuffers(solver.TransformBuffers):
        def __init__(self, *args, **kwargs):
            buffers.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solver, "_StepWorkspace", CountingWorkspace)
    monkeypatch.setattr(solver, "TransformBuffers", CountingBuffers)
    first = run(cfg, ctx=ctx, warn_cfl=False).diagnostics["energy"]
    assert len(made) == 1
    second = run(cfg, ctx=ctx, warn_cfl=False).diagnostics["energy"]
    assert len(made) == 2
    assert first.tobytes() == second.tobytes()
    made.clear()
    buffers.clear()
    first = run_scalar_transport(cfg, q0, u, ctx=ctx).diagnostics["energy"]
    assert (len(made), len(buffers)) == (0, 2)
    second = run_scalar_transport(cfg, q0, u, ctx=ctx).diagnostics["energy"]
    assert (len(made), len(buffers)) == (0, 4)
    assert first.tobytes() == second.tobytes()
