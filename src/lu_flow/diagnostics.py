"""Numerical verification studies: energy neutrality, moment bounds,
pathwise contraction, and vanishing-noise convergence.

All Monte Carlo quantities state their ensemble size; acceptance bands in
the test-suite use 5-standard-error intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .noise import NoiseModel
from .solver import SolverConfig, TrajectoryRecord, build_context, make_initial, member_path, run
from .spectral import (
    TorusGrid,
    divergence,
    gradient,
    h_norm,
    random_solenoidal,
    tensor_flux,
    v_norm,
)


# ---------------------------------------------------------------------------
# transport energy neutrality

def energy_budget_transport(q: np.ndarray, model: NoiseModel, epsilon: float) -> dict:
    """Diffusion loss vs Ito noise intake for a tracer.

    diffusion_loss = (eps^2/2) int q div(a grad q) dx,
    noise_intake   = (eps^2/2) int (grad q)^T a grad q dx.
    Both integrals are evaluated from the same dealiased flux a grad q, so
    the residual (their sum) vanishes to rounding: spectral integration by
    parts on the torus is exact.
    """
    grid = model.grid
    gq = gradient(grid, q)
    flux_hat = tensor_flux(grid, model.a_pad, q)
    div_flux = divergence(grid, flux_hat)
    half_eps2 = 0.5 * epsilon**2
    two_pi_sq = (2.0 * np.pi) ** 2
    diffusion_loss = half_eps2 * two_pi_sq * float(np.sum((np.conj(q) * div_flux).real))
    noise_intake = half_eps2 * two_pi_sq * float(np.sum((np.conj(gq) * flux_hat).real))
    return {
        "diffusion_loss": diffusion_loss,
        "noise_intake": noise_intake,
        "residual": diffusion_loss + noise_intake,
    }


# ---------------------------------------------------------------------------
# energy estimates

def _gronwall_c(h0_sq: float, mean_h_sq: np.ndarray, times: np.ndarray,
                epsilon: float) -> np.ndarray:
    """Per-time minimal c >= 0 with (|v0|^2 + c eps^2 t) exp(c eps^2 t)
    >= E|v(t)|^2 (bisection; the bound is monotone in c)."""
    cs = np.zeros(len(times))
    for i, (t, target) in enumerate(zip(times, mean_h_sq)):
        if t == 0 or epsilon == 0 or target <= h0_sq:
            continue
        lo, hi = 0.0, 1.0
        s = epsilon**2 * t

        def bound(c):
            return (h0_sq + c * s) * np.exp(c * s)

        while bound(hi) < target:
            hi *= 2.0
            if hi > 1e12:
                break
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if bound(mid) >= target:
                hi = mid
            else:
                lo = mid
        cs[i] = hi
    return cs


def energy_estimate_check(records: list[TrajectoryRecord], p: int = 2, *,
                          det_record: TrajectoryRecord, epsilon: float) -> dict:
    """Monte Carlo moment bounds for an ensemble sharing one configuration.

    Reports E[sup_t |v|^p_H], E[int ||v||_V^2 dt], their ratios to the
    deterministic (eps = 0) values, and the fitted Gronwall constant of the
    mean-energy growth bound (p = 2 form).
    """
    if len(records) < 32:
        raise ValueError(f"ensemble too small: {len(records)} < 32")
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
    times = records[0].times
    h = np.stack([r.diagnostics["h_norm"] for r in records])  # (members, times)
    vsq = np.stack([r.diagnostics["v_norm"] ** 2 for r in records])
    sup_hp = (h**p).max(axis=1)
    int_vsq = np.trapezoid(vsq, times, axis=1)
    det_sup_hp = float((det_record.diagnostics["h_norm"] ** p).max())
    det_int_vsq = float(np.trapezoid(det_record.diagnostics["v_norm"] ** 2, det_record.times))
    mean_h_sq = (h**2).mean(axis=0)
    cs = _gronwall_c(float(h[0, 0] ** 2), mean_h_sq, times, epsilon)
    return {
        "ensemble_size": len(records),
        "mean_sup_hp": float(sup_hp.mean()),
        "mean_int_vsq": float(int_vsq.mean()),
        "ratio_sup": float(sup_hp.mean() / det_sup_hp) if det_sup_hp > 0 else np.inf,
        "ratio_int": float(int_vsq.mean() / det_int_vsq) if det_int_vsq > 0 else np.inf,
        "mean_h_sq": mean_h_sq,
        "times": times,
        "gronwall_c": float(cs.max()),
    }


def _distances_to(grid: TorusGrid, refs, out: list, t: float, state: np.ndarray) -> None:
    """Observer for ``run``, bound with ``partial``: append
    (|state - ref|_H^2, ||state - ref||_V^2) to ``out``, ref the next of ``refs``."""
    d = state - next(refs)
    out.append((h_norm(grid, d) ** 2, v_norm(grid, d) ** 2))


# ---------------------------------------------------------------------------
# pathwise contraction

@dataclass
class ContractionReport:
    alpha: float
    times: np.ndarray
    weighted_diffs: np.ndarray      # e(t) |V~(t)|_H^2 at the reported alpha
    bound_curve: np.ndarray         # |V~(0)|^2 exp(C eps^2 t)
    fitted_C: float
    bitwise_identical: bool         # delta = 0 witness


def _fitted_growth_rate(log_ratio: np.ndarray, times: np.ndarray, epsilon: float) -> float:
    """Smallest C >= 0 with log(w(t)/w(0)) <= C eps^2 t for all t > 0."""
    mask = times > 0
    denom = (epsilon**2 if epsilon > 0 else 1.0) * times[mask]
    return float(max(0.0, np.max(log_ratio[mask] / denom)))


def perturbation_field(grid: TorusGrid, delta: float) -> np.ndarray:
    """Unit-H-norm random divergence-free field scaled by delta."""
    gen = np.random.Generator(np.random.Philox(key=[1234, 3 * 2**32]))
    coeffs = random_solenoidal(grid, gen, 1, grid.n_modes // 4)
    coeffs *= delta / h_norm(grid, coeffs)
    return coeffs


def contraction_test(config: SolverConfig, delta: float) -> ContractionReport:
    """Twin runs of member 0 on the same Brownian path from perturbed initial
    data.

    The exponential weight e(t) = exp(-alpha int_0^t ||v2||_V^2 dr) is
    computed by the trapezoid rule from the recorded enstrophy of the
    unperturbed twin.  alpha is swept over (1, 2, 5, 10) Re and the report
    carries the smallest swept value already achieving the minimal growth
    constant.
    """
    alphas = np.array([1.0, 2.0, 5.0, 10.0]) * config.reynolds
    ctx = build_context(config)
    grid = ctx.grid
    v0 = make_initial(config.initial_kind, grid, config.initial_params)
    states1 = []
    rec1 = run(config, ctx=ctx, v0=v0, observe=lambda t, s: states1.append(s), warn_cfl=False)
    pert = perturbation_field(grid, delta) if delta > 0 else np.zeros_like(v0)
    sq = []
    run(config, ctx=ctx, v0=v0 + pert,
        observe=partial(_distances_to, grid, iter(states1), sq), warn_cfl=False)

    times = rec1.times
    diff_sq = np.array(sq)[:, 0]
    bitwise = bool(np.all(diff_sq == 0.0))
    vsq2 = 2.0 * rec1.diagnostics["enstrophy"]  # ||v2||_V^2 of the base flow
    integral = np.concatenate([[0.0], np.cumsum(
        0.5 * (vsq2[1:] + vsq2[:-1]) * np.diff(times))])

    if bitwise or diff_sq[0] == 0.0:
        zero = np.zeros_like(times)
        return ContractionReport(float(alphas[0]), times, zero, zero, 0.0, bitwise)

    log_diff = np.log(np.maximum(diff_sq, 1e-300))
    fitted = np.array([
        _fitted_growth_rate(log_diff - log_diff[0] - alpha * integral, times, config.epsilon)
        for alpha in alphas
    ])
    c_ref = fitted[-1]
    pick = int(np.argmax(fitted <= c_ref * 1.001 + 1e-12))
    alpha = float(alphas[pick])
    log_w = log_diff - alpha * integral
    weighted = np.exp(log_w)
    eps_sq = config.epsilon**2 if config.epsilon > 0 else 1.0
    bound = diff_sq[0] * np.exp(fitted[pick] * eps_sq * times)
    return ContractionReport(alpha, times, weighted, bound, float(fitted[pick]), bitwise)


# ---------------------------------------------------------------------------
# vanishing-noise convergence

@dataclass
class ConvergenceReport:
    epsilons: np.ndarray            # strictly decreasing
    errors_h: np.ndarray            # ensemble RMS of sup_t |v_eps - v|_H
    errors_v_sq: np.ndarray         # ensemble RMS of int ||v_eps - v||_V^2 dt
    fitted_slope: float
    ensemble_size: int
    shared_path: bool
    per_member_h: np.ndarray        # (n_eps, members)

    def __post_init__(self):
        if np.any(np.diff(self.epsilons) >= 0):
            raise ValueError("epsilons must be strictly decreasing")
        if np.any(self.errors_h < 0):
            raise ValueError("errors must be non-negative")


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x, in closed form on the centred data."""
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


def epsilon_convergence_study(base_config: SolverConfig, epsilons, ensemble_size: int,
                              shared_path: bool = True) -> ConvergenceReport:
    """Pathwise distance to the deterministic solution across a noise sweep.

    For every epsilon the same per-member Brownian family is reused (shared
    paths), a deliberate pathwise strengthening of the convergence-in-law
    statement that also cuts Monte Carlo variance.  The initial field is made
    once for every run, and with shared paths each member's path once for
    every epsilon.
    """
    epsilons = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    ctx = build_context(base_config)  # every run shares its noise model
    v0 = make_initial(base_config.initial_kind, ctx.grid, base_config.initial_params)
    paths = cache(partial(member_path, base_config))
    if shared_path and replace(ctx, epsilon=float(epsilons[0])).noisy:
        paths(0)  # a table too large for memory fails before the reference run
    det_states = []
    times = run(replace(base_config, epsilon=0.0), ctx=replace(ctx, epsilon=0.0),
                v0=v0, observe=lambda t, s: det_states.append(s), warn_cfl=False).times

    sup_h = np.zeros((len(epsilons), ensemble_size))
    int_v = np.zeros((len(epsilons), ensemble_size))
    for j, eps in enumerate(epsilons):
        cfg = replace(base_config, epsilon=float(eps))
        eps_ctx = replace(ctx, epsilon=float(eps))
        for m in range(ensemble_size):
            member = m if shared_path else m + 1000 * (j + 1)
            path = paths(m) if shared_path and eps_ctx.noisy else None
            sq = []
            run(cfg, member, ctx=eps_ctx, path=path, v0=v0,
                observe=partial(_distances_to, ctx.grid, iter(det_states), sq), warn_cfl=False)
            h_sq, v_sq = np.array(sq).T
            sup_h[j, m] = np.sqrt(h_sq.max())
            int_v[j, m] = np.trapezoid(v_sq, times)

    rms_h = np.sqrt((sup_h**2).mean(axis=1))
    rms_v = np.sqrt((int_v**2).mean(axis=1))
    if np.all(rms_h > 0):
        slope = _ls_slope(np.log(epsilons), np.log(rms_h))
    else:
        slope = 0.0  # zero-noise degenerate sweep
    return ConvergenceReport(epsilons, rms_h, rms_v, slope, ensemble_size,
                             shared_path, sup_h)
