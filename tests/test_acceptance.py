"""Acceptance suite: eight quantitative criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every criterion prints

    [PASS|FAIL] criterion-N <name>: <measured values>

and then asserts, so a red test always shows the measured number next to
its target.  Monte Carlo checks use fixed seeds; tolerances are stated
inline next to each assertion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from lu_flow.diagnostics import (
    contraction_test,
    energy_budget_transport,
    energy_estimate_check,
    epsilon_convergence_study,
)
from lu_flow.noise import WienerPath, build_noise_model, check_regularity
from lu_flow.operators import (
    OperatorContext,
    apply_A,
    apply_B,
    apply_F,
    apply_G_column,
    trilinear_b,
)
from lu_flow.solver import (
    SolverConfig,
    build_context,
    make_initial,
    run,
    run_scalar_transport,
)
from lu_flow.spectral import (
    TorusGrid,
    h_inner,
    h_norm,
    hermitian_symmetrize,
    leray_project,
    v_norm,
)

from conftest import random_div_free, recorded_states


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{num} {name}: {detail}")


def _hs_norm_G(ctx, v):
    cols = [apply_G_column(ctx, v, k) for k in range(ctx.noise.k_modes)]
    return np.sqrt(sum(h_norm(ctx.grid, c) ** 2 for c in cols))


def test_criterion_1_operator_identities():
    t0 = time.time()
    grid = TorusGrid(32)
    cfg = SolverConfig(n_modes=32, reynolds=100.0, epsilon=0.1, dt=1e-3,
                       t_end=1e-3, k_modes=4, noise_mixing=True)
    ctx = build_context(cfg)
    gen = np.random.default_rng(2024)
    worst = {"stokes": 0.0, "bilinear": 0.0, "trilinear": 0.0,
             "leray_idem": 0.0, "leray_selfadj": 0.0}
    for _ in range(100):
        u = random_div_free(grid, gen)
        v = random_div_free(grid, gen)
        w = random_div_free(grid, gen)
        av = apply_A(ctx, v)
        rhs = v_norm(grid, v) ** 2 / cfg.reynolds
        worst["stokes"] = max(worst["stokes"],
                              abs(h_inner(grid, av, v) - rhs) / rhs)
        buv = apply_B(ctx, u, v)
        scale = h_norm(grid, buv) * h_norm(grid, v)
        worst["bilinear"] = max(worst["bilinear"],
                                abs(h_inner(grid, buv, v)) / scale)
        s1 = trilinear_b(ctx, u, v, w)
        s2 = trilinear_b(ctx, u, w, v)
        worst["trilinear"] = max(worst["trilinear"],
                                 abs(s1 + s2) / (abs(s1) + abs(s2)))
        # idempotence and self-adjointness on non-solenoidal inputs
        raw1 = hermitian_symmetrize(grid, np.stack([u[0], w[1]]))
        raw2 = hermitian_symmetrize(grid, np.stack([v[1], u[0]]))
        p1 = leray_project(grid, raw1)
        worst["leray_idem"] = max(
            worst["leray_idem"],
            np.max(np.abs(leray_project(grid, p1) - p1)) / np.max(np.abs(p1)))
        lhs = h_inner(grid, p1, raw2)
        rhs2 = h_inner(grid, raw1, leray_project(grid, raw2))
        worst["leray_selfadj"] = max(worst["leray_selfadj"],
                                     abs(lhs - rhs2) / (abs(lhs) + abs(rhs2)))
    elapsed = time.time() - t0
    ok = all(value < 1e-10 for value in worst.values()) and elapsed < 10
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report(1, "operator identities", ok, f"{detail} ({elapsed:.1f}s)")
    for key, value in worst.items():
        assert value < 1e-10, key
    assert elapsed < 10


def test_criterion_2_transport_energy_neutrality():
    t0 = time.time()
    grid = TorusGrid(32)
    model = build_noise_model(grid, 4, 3.0, 1.0, mix_shells=True)
    gen = np.random.default_rng(31)
    raw = gen.standard_normal((32, 32)) + 1j * gen.standard_normal((32, 32))
    band = (grid.k_sq >= 1) & (grid.k_sq <= 36)
    q = hermitian_symmetrize(grid, np.where(band, raw, 0.0))
    budget = energy_budget_transport(q, model, 0.1)
    scale = max(abs(budget["diffusion_loss"]), abs(budget["noise_intake"]))
    residual = abs(budget["residual"]) / scale

    # pathwise drift is O(dt): same Brownian paths at dt and dt/2
    eps, dt_fine, t_end, members = 0.1, 1e-3, 1.0, 64
    cfg = SolverConfig(n_modes=32, reynolds=100.0, epsilon=eps, dt=dt_fine,
                       t_end=t_end, k_modes=4, noise_mixing=True)
    ctx = build_context(cfg)
    velocity = make_initial("taylor_green", grid)
    drifts = np.zeros((2, members))
    for m in range(members):
        fine = WienerPath(11, dt_fine, int(round(t_end / dt_fine)), 4, member=m)
        for j, factor in enumerate((4, 2)):  # dt = 4e-3 and dt/2 = 2e-3
            path = fine.coarsen(factor)
            res = run_scalar_transport(replace(cfg, dt=path.dt, record_every=10**9), q,
                                       velocity, model=ctx.noise, path=path)
            energies = res.diagnostics["energy"]
            drifts[j, m] = abs(energies[-1] - energies[0]) / energies[0]
    ratio = drifts[0].mean() / drifts[1].mean()
    elapsed = time.time() - t0
    ok = residual <= 1e-9 and 1.6 <= ratio <= 2.4 and elapsed < 300
    _report(2, "transport energy neutrality", ok,
            f"budget residual {residual:.2e} (<=1e-9), "
            f"drift ratio dt vs dt/2 {ratio:.3f} in [1.6, 2.4] ({elapsed:.0f}s)")
    assert residual <= 1e-9
    assert 1.6 <= ratio <= 2.4
    assert elapsed < 300


def test_criterion_3_taylor_green_oracle():
    t0 = time.time()
    cfg = SolverConfig(n_modes=32, reynolds=100.0, epsilon=0.0, dt=1e-3,
                       t_end=1.0, k_modes=4, record_every=1000)
    states = recorded_states(replace(cfg, epsilon=0.0), warn_cfl=False)
    grid = TorusGrid(cfg.n_modes)
    exact = states[0] * np.exp(-2.0 * cfg.t_end / cfg.reynolds)
    err = h_norm(grid, states[-1] - exact) / h_norm(grid, exact)
    elapsed = time.time() - t0
    ok = err <= 1e-6 and elapsed < 30
    _report(3, "Taylor-Green decay oracle", ok,
            f"terminal rel L2 error {err:.2e} (<=1e-6) ({elapsed:.1f}s)")
    assert err <= 1e-6
    assert elapsed < 30


def test_criterion_4_epsilon_convergence():
    t0 = time.time()
    cfg = SolverConfig(n_modes=32, reynolds=100.0, epsilon=0.2, dt=2e-3,
                       t_end=1.0, k_modes=4, record_every=25, seed=0,
                       noise_mixing=True)
    report = epsilon_convergence_study(cfg, [0.2, 0.1, 0.05, 0.025], ensemble_size=64)
    decreasing = bool(np.all(np.diff(report.errors_h) < 0))  # eps sorted descending
    elapsed = time.time() - t0
    ok = report.fitted_slope >= 0.8 and decreasing and elapsed < 1200
    errs = ", ".join(f"{e:.3e}" for e in report.errors_h)
    _report(4, "vanishing-noise convergence", ok,
            f"slope {report.fitted_slope:.3f} (>=0.8), errors [{errs}] "
            f"strictly decreasing={decreasing} ({elapsed:.0f}s)")
    assert report.fitted_slope >= 0.8
    assert decreasing
    assert elapsed < 1200


def test_criterion_5_pathwise_contraction():
    t0 = time.time()
    base = SolverConfig(n_modes=32, reynolds=100.0, epsilon=0.1, dt=2e-3,
                        t_end=1.0, k_modes=4, record_every=25, seed=0,
                        noise_mixing=True)
    twin = contraction_test(base, delta=0.0)
    bitwise = twin.bitwise_identical

    cs = []
    bound_ok = True
    for eps in (0.05, 0.1, 0.2):
        rep = contraction_test(replace(base, epsilon=eps), delta=1e-3)
        cs.append(rep.fitted_C)
        bound_ok &= bool(np.all(rep.weighted_diffs
                                <= rep.bound_curve * (1 + 1e-9) + 1e-300))
    cs = np.array(cs)
    # stability of the fitted growth constant: +/-30% of the mean, with an
    # absolute floor of 1 so that a uniformly negligible constant (strong
    # viscous contraction) counts as stable rather than dividing by ~zero
    scale = max(abs(cs.mean()), 1.0)
    stable = bool(np.max(np.abs(cs - cs.mean())) <= 0.3 * scale)
    elapsed = time.time() - t0
    ok = bitwise and bound_ok and stable and elapsed < 300
    _report(5, "pathwise uniqueness/contraction", ok,
            f"delta=0 bitwise={bitwise}, bound holds={bound_ok}, "
            f"fitted C {np.array2string(cs, precision=3)} stable={stable} ({elapsed:.0f}s)")
    assert bitwise
    assert bound_ok
    assert stable
    assert elapsed < 300


def test_criterion_6_energy_estimate():
    t0 = time.time()
    members = 32
    base = SolverConfig(n_modes=32, reynolds=100.0, epsilon=0.1, dt=2e-3,
                        t_end=1.0, k_modes=4, record_every=25, seed=0,
                        noise_mixing=True)
    det = run(replace(base, epsilon=0.0), warn_cfl=False)
    excesses = []
    checks = []
    for eps in (0.1, 0.2, 0.4):
        cfg = replace(base, epsilon=eps)
        ctx = build_context(cfg)
        records = [run(cfg, m, model=ctx.noise, warn_cfl=False) for m in range(members)]
        chk = energy_estimate_check(records, p=2, det_record=det, epsilon=eps)
        checks.append(chk)
        # terminal excess energy: the sup-in-time moment is pinned to the
        # (common) initial energy for decaying data, so the eps^2 signature
        # of the noise lives in the terminal mean energy instead
        term = np.mean([r.diagnostics["h_norm"][-1] ** 2 for r in records])
        excesses.append(abs(term - det.diagnostics["h_norm"][-1] ** 2))
    finite = all(np.isfinite(c["mean_sup_hp"]) and np.isfinite(c["mean_int_vsq"])
                 and np.isfinite(c["gronwall_c"]) for c in checks)
    slope = float(np.polyfit(np.log([0.1, 0.2, 0.4]), np.log(excesses), 1)[0])
    # mean moments within the fitted Gronwall envelope at every epsilon
    bounded = all(
        bool(np.all(c["mean_h_sq"] <= c["mean_h_sq"][0]
                    * np.exp(c["gronwall_c"] * eps**2 * c["times"]) * (1 + 1e-9)))
        for c, eps in zip(checks, (0.1, 0.2, 0.4)))
    elapsed = time.time() - t0
    ok = finite and bounded and abs(slope - 2.0) <= 0.3 and elapsed < 600
    _report(6, "energy-estimate boundedness", ok,
            f"moments finite={finite}, Gronwall bound holds={bounded}, "
            f"excess-energy slope {slope:.3f} in 2+/-0.3 ({elapsed:.0f}s)")
    assert finite
    assert bounded
    assert abs(slope - 2.0) <= 0.3
    assert elapsed < 600


def test_criterion_7_noise_regularity():
    t0 = time.time()
    grid = TorusGrid(32)
    good = check_regularity(build_noise_model(grid, 16, 3.0, 1.0))
    bad = check_regularity(build_noise_model(grid, 16, 1.0, 1.0))
    model1 = build_noise_model(grid, 4, 3.0, 1.0, mix_shells=True)
    model2 = build_noise_model(grid, 4, 3.0, 2.0, mix_shells=True)
    us1 = model1.ito_stokes_drift
    us2 = model2.ito_stokes_drift
    quad_err = np.max(np.abs(us2 - 4.0 * us1)) / np.max(np.abs(us2))
    elapsed = time.time() - t0
    ok = good["passes"] and not bad["passes"] and quad_err <= 1e-12 and elapsed < 5
    _report(7, "noise regularity hypothesis", ok,
            f"r=3 tail {good['tail_ratio']:.3f} pass, r=1 tail {bad['tail_ratio']:.3f} fail, "
            f"drift quadratic-scaling error {quad_err:.2e} (<=1e-12) ({elapsed:.1f}s)")
    assert good["passes"]
    assert not bad["passes"]
    assert quad_err <= 1e-12
    assert elapsed < 5


def test_criterion_8_operator_epsilon_scaling():
    t0 = time.time()
    grid = TorusGrid(32)
    gen = np.random.default_rng(77)
    v = random_div_free(grid, gen)
    eps_grid = np.array([0.2, 0.1, 0.05, 0.025])
    f_norms, g_norms = [], []
    base = SolverConfig(n_modes=32, reynolds=100.0, epsilon=0.2, dt=1e-3,
                        t_end=1e-3, k_modes=4, noise_mixing=True)
    ctx0 = build_context(base)
    for eps in eps_grid:
        ctx = OperatorContext(ctx0.noise, float(eps), base.reynolds)
        f_norms.append(h_norm(grid, apply_F(ctx, v)))
        g_norms.append(_hs_norm_G(ctx, v))
    slope_f = float(np.polyfit(np.log(eps_grid), np.log(f_norms), 1)[0])
    slope_g = float(np.polyfit(np.log(eps_grid), np.log(g_norms), 1)[0])
    elapsed = time.time() - t0
    ok = slope_f >= 1.95 and slope_g >= 0.95 and elapsed < 10
    _report(8, "operator epsilon scaling", ok,
            f"F slope {slope_f:.3f} (>=1.95), G slope {slope_g:.3f} (>=0.95) "
            f"({elapsed:.1f}s)")
    assert slope_f >= 1.95
    assert slope_g >= 0.95
    assert elapsed < 10
