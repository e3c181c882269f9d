"""Energy budgets, moment estimates, contraction, vanishing-noise sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from lu_flow.diagnostics import (
    ContractionReport,
    _ls_slope,
    contraction_test,
    energy_budget_transport,
    energy_estimate_check,
    epsilon_convergence_study,
)
from lu_flow.noise import build_noise_model
from lu_flow.solver import SolverConfig, build_context, run
from lu_flow.spectral import (
    TorusGrid,
    expand,
    from_physical,
    h_norm,
    v_norm,
)

from conftest import random_div_free, synthetic_inhomogeneous_model


def tracer(grid, fn):
    x = np.linspace(0, 2 * np.pi, grid.n_modes, endpoint=False)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return expand(grid, from_physical(grid, fn(X, Y)))


# ---------------------------------------------------------------------------
# transport energy budget


def test_budget_constant_tracer(grid32):
    model = build_noise_model(grid32, 4, 3.0, 1.0, mix_shells=True)
    q = tracer(grid32, lambda X, Y: np.full_like(X, 2.5))
    out = energy_budget_transport(q, model, 0.1)
    assert out["diffusion_loss"] == 0.0
    assert out["noise_intake"] == 0.0


def test_budget_homogeneous_closed_form(grid32, rng):
    # constant a: both terms reduce to +/- (eps^2/2) sum k^T a0 k |q_k|^2
    model = build_noise_model(grid32, 4, 3.0, 1.0)  # pure modes: a constant
    a0 = model.variance_tensor[:, :, 0, 0]
    q = random_div_free(grid32, rng, components=1)
    eps = 0.2
    out = energy_budget_transport(q, model, eps)
    kak = (a0[0, 0] * grid32.kx**2 + 2 * a0[0, 1] * grid32.kx * grid32.ky
           + a0[1, 1] * grid32.ky**2)
    expected = 0.5 * eps**2 * (2 * np.pi) ** 2 * float(
        np.sum(kak * np.abs(q) ** 2))
    assert out["noise_intake"] == pytest.approx(expected, rel=1e-10)
    assert out["diffusion_loss"] == pytest.approx(-expected, rel=1e-10)
    assert abs(out["residual"]) <= 1e-10 * abs(out["noise_intake"])


def test_budget_residual_random_tracer(grid32, rng):
    for model in (build_noise_model(grid32, 4, 3.0, 1.0, mix_shells=True),
                  synthetic_inhomogeneous_model(grid32)):
        q = random_div_free(grid32, rng, components=1)
        out = energy_budget_transport(q, model, 0.1)
        assert abs(out["residual"]) <= 1e-9 * abs(out["noise_intake"])


# ---------------------------------------------------------------------------
# energy estimates


def ensemble(cfg, n):
    ctx = build_context(cfg)
    return [run(cfg, m, ctx=ctx, warn_cfl=False) for m in range(n)]


def test_energy_estimate_requires_ensemble():
    cfg = SolverConfig(t_end=0.01, dt=1e-3, epsilon=0.1)
    recs = ensemble(cfg, 4)
    det = run(replace(cfg, epsilon=0.0), warn_cfl=False)
    with pytest.raises(ValueError):
        energy_estimate_check(recs, det_record=det, epsilon=0.1)
    with pytest.raises(ValueError):
        energy_estimate_check(recs * 8, p=3, det_record=det, epsilon=0.1)


def test_energy_estimate_eps_zero_ratio_one():
    cfg = SolverConfig(t_end=0.05, dt=1e-3, epsilon=0.0)
    det = run(replace(cfg, epsilon=0.0), warn_cfl=False)
    recs = [run(cfg, m, warn_cfl=False) for m in range(32)]
    rep = energy_estimate_check(recs, det_record=det, epsilon=0.0)
    assert rep["ratio_sup"] == pytest.approx(1.0, abs=1e-14)
    assert rep["ratio_int"] == pytest.approx(1.0, abs=1e-14)
    assert rep["gronwall_c"] == 0.0


def test_energy_estimate_moments_jensen():
    cfg = SolverConfig(t_end=0.05, dt=1e-3, epsilon=0.2, noise_mixing=True)
    recs = ensemble(cfg, 32)
    det = run(replace(cfg, epsilon=0.0), warn_cfl=False)
    rep2 = energy_estimate_check(recs, p=2, det_record=det, epsilon=0.2)
    rep4 = energy_estimate_check(recs, p=4, det_record=det, epsilon=0.2)
    assert np.isfinite(rep2["mean_sup_hp"]) and np.isfinite(rep4["mean_sup_hp"])
    assert rep4["mean_sup_hp"] >= rep2["mean_sup_hp"] ** 2 * (1 - 1e-12)


# ---------------------------------------------------------------------------
# contraction


def base_cfg(**kw):
    d = dict(n_modes=32, epsilon=0.1, dt=1e-3, t_end=0.1, record_every=10,
             noise_mixing=True)
    d.update(kw)
    return SolverConfig(**d)


def test_contraction_delta_zero_bitwise():
    rep = contraction_test(base_cfg(), delta=0.0)
    assert rep.bitwise_identical
    assert np.all(rep.weighted_diffs == 0.0)


def test_contraction_deterministic_weighted_nonincreasing():
    # eps = 0 Taylor-Green base flow: for alpha large enough the weighted
    # difference never exceeds its initial value (deterministic Gronwall)
    rep = contraction_test(base_cfg(epsilon=0.0), delta=1e-3)
    assert not rep.bitwise_identical
    assert rep.fitted_C == pytest.approx(0.0, abs=1e-8)
    assert np.all(rep.weighted_diffs <= rep.weighted_diffs[0] * (1 + 1e-10))


def test_contraction_stochastic_bound_holds():
    rep = contraction_test(base_cfg(epsilon=0.2), delta=1e-3)
    assert isinstance(rep, ContractionReport)
    bound = rep.weighted_diffs[0] * np.exp(
        rep.fitted_C * 0.2**2 * rep.times)
    assert np.all(rep.weighted_diffs <= bound * (1 + 1e-10))


# ---------------------------------------------------------------------------
# vanishing-noise convergence


def test_convergence_zero_amplitude_degenerate():
    cfg = SolverConfig(t_end=0.02, dt=2e-3, record_every=5, amplitude=0.0)
    rep = epsilon_convergence_study(cfg, [0.2, 0.1], ensemble_size=2)
    assert np.all(rep.errors_h == 0.0)
    assert rep.fitted_slope == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_ls_slope_matches_polyfit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    x = np.log(np.sort(rng.uniform(1e-3, 1.0, n)))
    y = rng.uniform(0.5, 2.0) * x + rng.uniform(-3.0, 3.0) + 0.1 * rng.standard_normal(n)
    want = np.polyfit(x, y, 1)[0]
    assert abs(_ls_slope(x, y) - want) <= 1e-12 * abs(want)


def test_ls_slope_exact_on_collinear_points():
    x = np.array([-3.0, -1.0, 2.0, 5.0])
    assert _ls_slope(x, 3.0 * x - 2.0) == 3.0
    assert _ls_slope(x[:2], 0.5 * x[:2] + 7.0) == 0.5


def test_convergence_sweep_monotone_and_linear():
    cfg = SolverConfig(n_modes=32, t_end=0.1, dt=2e-3, record_every=10,
                       noise_mixing=True)
    rep = epsilon_convergence_study(cfg, [0.2, 0.1, 0.05], ensemble_size=8)
    assert np.all(np.diff(rep.errors_h) < 0)
    # per-member monotonicity under the paired-path coupling
    assert np.all(np.diff(rep.per_member_h, axis=0) < 0)
    assert 0.8 <= rep.fitted_slope <= 1.2
    assert rep.shared_path


def test_shared_paths_reduce_error():
    cfg = SolverConfig(n_modes=32, t_end=0.05, dt=2e-3, record_every=5,
                       noise_mixing=True)
    shared = epsilon_convergence_study(cfg, [0.2, 0.1], ensemble_size=8,
                                       shared_path=True)
    indep = epsilon_convergence_study(cfg, [0.2, 0.1], ensemble_size=8,
                                      shared_path=False)
    # the coupling cannot increase the pathwise distance to the
    # deterministic solution: both compare against the same reference, so
    # this is a per-epsilon sanity check, not an inequality theorem
    assert np.all(shared.errors_h <= indep.errors_h * 1.5)


# ---------------------------------------------------------------------------
# one run per trajectory, one step lookup per step


def test_each_trajectory_is_one_run_of_n_steps(monkeypatch):
    # every member and every reference enters through one call of the run its
    # caller's module binds, and each of its steps calls solver.step afresh
    import lu_flow.diagnostics
    import lu_flow.solver

    calls = {"run": 0, "step": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(lu_flow.solver, "step", counting("step", lu_flow.solver.step))
    monkeypatch.setattr(lu_flow.diagnostics, "run", counting("run", lu_flow.diagnostics.run))
    cfg = base_cfg(n_modes=16, t_end=0.02, record_every=5, k_modes=4)
    epsilons, members = [0.2, 0.1, 0.05], 3
    epsilon_convergence_study(cfg, epsilons, members)
    runs = 1 + len(epsilons) * members
    assert calls == {"run": runs, "step": runs * cfg.n_steps}
    calls.update(run=0, step=0)
    contraction_test(cfg, delta=1e-3)
    assert calls == {"run": 2, "step": 2 * cfg.n_steps}


@pytest.mark.parametrize("shared_path", [True, False])
def test_study_builds_its_initial_field_and_paths_once(monkeypatch, shared_path):
    # one random_band draw for all 1 + 3 x 2 runs, and with shared paths one
    # path per member for all three epsilons; the report keeps the bits of
    # runs that each build their own initial field and path
    import lu_flow.diagnostics
    import lu_flow.noise
    import lu_flow.solver

    made = {"make_initial": 0, "WienerPath": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            made[name] += 1
            return fn(*args, **kwargs)
        return counted

    for mod in (lu_flow.diagnostics, lu_flow.solver):
        monkeypatch.setattr(mod, "make_initial", counting("make_initial", mod.make_initial))
    # solver.member_path makes every path, the study's shared ones too
    monkeypatch.setattr(lu_flow.solver, "WienerPath",
                        counting("WienerPath", lu_flow.noise.WienerPath))
    cfg = base_cfg(n_modes=16, t_end=0.02, record_every=5, k_modes=4,
                   initial_kind="random_band", initial_params={"k_max": 4, "seed": 3})
    epsilons, members = [0.2, 0.1, 0.05], 2
    report = epsilon_convergence_study(cfg, epsilons, members, shared_path=shared_path)
    assert made == {"make_initial": 1,
                    "WienerPath": members * (1 if shared_path else len(epsilons))}
    monkeypatch.undo()

    det = []
    run(replace(cfg, epsilon=0.0), observe=lambda t, s: det.append(s), warn_cfl=False)
    for j, eps in enumerate(epsilons):
        for m in range(members):
            states = []
            run(replace(cfg, epsilon=eps), m if shared_path else m + 1000 * (j + 1),
                observe=lambda t, s: states.append(s), warn_cfl=False)
            sup = np.sqrt(max(h_norm(TorusGrid(16), a - b) ** 2 for a, b in zip(states, det)))
            assert report.per_member_h[j, m] == sup
