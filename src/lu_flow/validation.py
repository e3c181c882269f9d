"""Invariant suite backing `lu-flow validate`.

A compact, fast subset of the property checks: operator identities, the
Taylor-Green decay oracle, transport energy neutrality, and the noise
regularity test.  Each entry returns (name, passed, detail).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import diagnostics as diag
from .noise import check_regularity, philox
from .operators import apply_A, apply_B, trilinear_b
from .solver import SolverConfig, build_context, make_initial, run
from .spectral import (
    TorusGrid,
    expand,
    from_physical,
    h_inner,
    h_norm,
    leray_project,
    random_solenoidal,
    v_norm,
)


def _random_div_free(grid: TorusGrid, gen) -> np.ndarray:
    coeffs = random_solenoidal(grid, gen, 1, grid.n_modes // 3)
    coeffs /= h_norm(grid, coeffs)
    return coeffs


# a noise model whose fields overflow (a huge noise.amp) fails its invariants
# through their NaN or infinite figures, so the warnings would add nothing
@np.errstate(over="ignore", invalid="ignore")
def run_validation_suite(config: SolverConfig) -> list[tuple]:
    ctx = build_context(config)
    grid = ctx.grid
    # the suite uses no initial field, but an unusable snapshot is a config error here too
    make_initial(config.initial_kind, grid, config.initial_params)
    gen = philox(config.seed, 7 * 2**32)
    results = []

    worst_a = worst_b = worst_skew = worst_leray = 0.0
    for _ in range(20):  # random (u, v, w) triples for the operator identities
        u = _random_div_free(grid, gen)
        v = _random_div_free(grid, gen)
        w = _random_div_free(grid, gen)
        av = apply_A(ctx, v)
        lhs = h_inner(grid, av, v)
        rhs = v_norm(grid, v) ** 2 / ctx.reynolds
        worst_a = max(worst_a, abs(lhs - rhs) / rhs)
        buv = apply_B(ctx, u, v)
        bvv = h_inner(grid, buv, v)
        scale = h_norm(grid, buv) * h_norm(grid, v) + 1e-300
        worst_b = max(worst_b, abs(bvv) / scale)
        s1 = trilinear_b(ctx, u, v, w)
        s2 = trilinear_b(ctx, u, w, v)
        worst_skew = max(worst_skew, abs(s1 + s2) / (abs(s1) + abs(s2) + 1e-300))
        pp = leray_project(grid, leray_project(grid, u))
        worst_leray = max(worst_leray, np.max(np.abs(pp - u)) / np.max(np.abs(u)))
    results.append(("stokes_identity", worst_a < 1e-10, f"max rel dev {worst_a:.2e}"))
    results.append(("bilinear_orthogonality", worst_b < 1e-10, f"max rel dev {worst_b:.2e}"))
    results.append(("trilinear_antisymmetry", worst_skew < 1e-10, f"max rel dev {worst_skew:.2e}"))
    results.append(("leray_idempotence", worst_leray < 1e-12, f"max rel dev {worst_leray:.2e}"))

    # the noise parameters stay config's: the run takes the model built from them
    tg_cfg = replace(config, reynolds=100.0, epsilon=0.0, dt=1e-3, t_end=0.1,
                     initial_kind="taylor_green", initial_params={})
    states = []
    run(tg_cfg, model=ctx.noise, observe=lambda t, s: states.append(s), warn_cfl=False)
    v0, vT = states[0], states[-1]
    exact = v0 * np.exp(-2.0 * tg_cfg.t_end / tg_cfg.reynolds)
    tg_err = h_norm(grid, vT - exact) / h_norm(grid, exact)
    results.append(("taylor_green_decay", tg_err < 1e-8, f"rel L2 error {tg_err:.2e}"))

    q = expand(grid, from_physical(
        grid, np.sin(grid.x) * np.sin(2 * grid.y) + 0.3 * np.cos(3 * grid.x)))
    budget = diag.energy_budget_transport(q, ctx.noise, max(config.epsilon, 0.1))
    rel = abs(budget["residual"]) / (abs(budget["noise_intake"]) + 1e-300)
    results.append(("transport_energy_neutrality", rel < 1e-9, f"rel residual {rel:.2e}"))

    report = check_regularity(ctx.noise)
    results.append(("noise_regularity", bool(report["passes"]),
                    f"tail ratio {report['tail_ratio']:.2e}"))
    return results
