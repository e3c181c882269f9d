"""Time integration of the Galerkin SDE and its deterministic limit.

Scheme: Euler-Maruyama for the nonlinear, drift-correction and noise terms
with exact integrating-factor treatment of the Stokes operator,

    v+ = exp(-dt |k|^2 / Re) * [v - dt (B(v) + F(v)) + G(v) dW].

Every eps-term of F and G is linear in w = v + eps^2 u_s (u_s the raw
Ito-Stokes drift) and the projections commute with the integrating factor,
so ``step`` evaluates the bracket as one fused expression,

    v+ = P exp(-dt |k|^2 / Re) [v - (c.grad) w + (eps^2 dt / 2) div(a grad w)
                                + eps^2 dt A u_s - eps A xi],

with c = dt v + eps xi and xi = sum_k phi_k dbeta_k: one batched inverse
real FFT of c and grad w on the padded grid, one batched forward real FFT
of (c.grad) w and the flux a grad w, and one Leray projection.  The state
stays Hermitian because the transforms produce Hermitian coefficients.
The per-operator functions of ``operators`` are the reference this step is
tested against.  The integrating factor removes the stiff linear stability
constraint; only an advective CFL condition remains and is warned about.

A run with eps = 0 takes exactly the same code path as the deterministic
solver (noise and drift-correction branches are skipped, not multiplied by
zero), so the zero-noise reduction is bitwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .noise import NoiseModel, WienerPath, build_noise_model
from .operators import OperatorContext
from .spectral import (
    SpectralScalar,
    SpectralVelocity,
    TorusGrid,
    advect,
    divergence,
    energy,
    enstrophy,
    from_physical,
    gradient,
    h_norm,
    hermitian_symmetrize,
    leray_project,
    load_snapshot,
    max_divergence,
    to_physical,
    v_norm,
)

SCHEMES = ("euler_maruyama_semi_implicit",)
INITIAL_KINDS = ("taylor_green", "random_band", "file")


class BlowUpError(RuntimeError):
    """Raised when the state leaves the space of finite fields."""

    def __init__(self, step: int, time: float):
        super().__init__(f"solution blew up at step {step} (t = {time:.6g})")
        self.step = step
        self.time = time


@dataclass
class SolverConfig:
    n_modes: int = 32
    reynolds: float = 100.0
    epsilon: float = 0.1
    dt: float = 1e-3
    t_end: float = 1.0
    k_modes: int = 4
    spectrum_exponent: float = 3.0
    amplitude: float = 1.0
    seed: int = 0
    scheme: str = "euler_maruyama_semi_implicit"
    record_every: int = 10
    initial_kind: str = "taylor_green"
    initial_params: dict = field(default_factory=dict)
    noise_mixing: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least dt")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.initial_kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial condition {self.initial_kind!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        n_steps = self.t_end / self.dt
        if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def with_epsilon(self, epsilon: float) -> "SolverConfig":
        return replace(self, epsilon=epsilon)


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    diagnostics: dict  # arrays: energy, enstrophy, h_norm, v_norm, max_div
    snapshots: list | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("record times must be strictly increasing")
        for name, arr in self.diagnostics.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite diagnostic {name!r}")


def build_context(config: SolverConfig, grid: TorusGrid | None = None) -> OperatorContext:
    grid = grid or TorusGrid(config.n_modes)
    # mode weights use the unit-viscosity eigenvalue |k|^2; the Reynolds
    # factor of the Stokes spectrum would only rescale the overall amplitude
    model = build_noise_model(grid, config.k_modes, config.spectrum_exponent,
                              config.amplitude, mix_shells=config.noise_mixing)
    return OperatorContext(grid, model, config.epsilon, config.reynolds)


def make_initial(kind: str, grid: TorusGrid, params: dict | None = None) -> SpectralVelocity:
    """Initial velocity: the Taylor-Green vortex, a random banded field
    normalized to a target energy, or a loaded snapshot."""
    params = dict(params or {})
    if kind == "taylor_green":
        scale = params.pop("scale", 1.0)
        if params:
            raise ValueError(f"unknown taylor_green parameters {sorted(params)}")
        ux = scale * np.cos(grid.x) * np.sin(grid.y)
        uy = -scale * np.sin(grid.x) * np.cos(grid.y)
        coeffs = leray_project(grid, from_physical(grid, np.stack([ux, uy])))
        return SpectralVelocity(grid, coeffs)
    if kind == "random_band":
        k_min = params.pop("k_min", 1)
        k_max = params.pop("k_max", grid.n_modes // 4)
        target_energy = params.pop("energy", 1.0)
        rng_seed = params.pop("seed", 0)
        if params:
            raise ValueError(f"unknown random_band parameters {sorted(params)}")
        gen = np.random.Generator(np.random.Philox(key=[rng_seed % 2**64, 2**32]))
        shape = (2, grid.n_modes, grid.n_modes)
        raw = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        band = (grid.k_sq >= k_min**2) & (grid.k_sq <= k_max**2)
        coeffs = np.where(band, raw, 0.0)
        coeffs = leray_project(grid, hermitian_symmetrize(grid, coeffs))
        e = energy(SpectralVelocity(grid, coeffs))
        if e == 0.0:
            raise ValueError("random_band produced a null field; widen the band")
        coeffs *= np.sqrt(target_energy / e)
        return SpectralVelocity(grid, coeffs)
    if kind == "file":
        path = params.pop("path")
        if params:
            raise ValueError(f"unknown file parameters {sorted(params)}")
        file_grid, coeffs = load_snapshot(path)
        if file_grid != grid:
            raise ValueError(
                f"snapshot grid N={file_grid.n_modes} does not match run grid N={grid.n_modes}")
        if coeffs.ndim != 3 or coeffs.shape[0] != 2:
            raise ValueError("snapshot does not hold a 2-component field")
        # the transforms read only the ky >= 0 half, so outside data is made Hermitian
        return SpectralVelocity(grid, hermitian_symmetrize(grid, coeffs))
    raise ValueError(f"unknown initial condition kind {kind!r}")


def check_cfl(config: SolverConfig, v: SpectralVelocity) -> None:
    grid = v.grid
    h = 2.0 * np.pi / grid.n_modes
    umax = float(np.max(np.abs(to_physical(grid, v.coeffs))))
    if umax > 0 and config.dt > 0.5 * h / umax:
        warnings.warn(
            f"advective CFL exceeded: dt = {config.dt:.3g} > 0.5 h / max|u| = "
            f"{0.5 * h / umax:.3g}", RuntimeWarning, stacklevel=2)


def step(state: SpectralVelocity, ctx: OperatorContext, dbeta: np.ndarray | None,
         dt: float) -> SpectralVelocity:
    """One Euler-Maruyama step with integrating-factor Stokes treatment.

    Fused form of exp(-dt|k|^2/Re) P[v - dt (B(v,v) + F(v)) + G(v) dbeta]:
    12 real transforms on the padded grid with noise, 8 without.
    """
    grid = ctx.grid
    m = grid.pad_size
    n = grid.n_modes
    v = state.coeffs
    noisy = ctx.epsilon > 0.0 and ctx.noise.amplitude != 0.0
    c = dt * v
    w = v
    if noisy:
        eps = ctx.epsilon
        w = v + eps**2 * ctx.us_raw
        if dbeta is not None:
            xi = np.tensordot(dbeta, ctx.phi_stack, axes=(0, 0))
            c = c + eps * xi
    # c and grad w, with gw[l, i] = d_l w_i
    phys = to_physical(grid, np.concatenate([c, gradient(grid, w).reshape(4, n, n)]), m)
    cp, gw = phys[:2], phys[2:].reshape(2, 2, m, m)
    prod = np.empty((6 if noisy else 2, m, m))
    np.add(cp[0] * gw[0], cp[1] * gw[1], out=prod[:2])         # (c.grad) w
    if noisy:
        a = ctx.a_pad
        flux = prod[2:].reshape(2, 2, m, m)                     # (a grad w)_{j i}
        np.add(a[:, 0, None] * gw[0], a[:, 1, None] * gw[1], out=flux)
    hat = from_physical(grid, prod)
    rhs = v - hat[:2]
    if noisy:
        flux_hat = hat[2:].reshape(2, 2, n, n)
        stokes_arg = eps**2 * dt * ctx.us_raw  # eps^2 dt A u_s - eps A xi
        if dbeta is not None:
            stokes_arg = stokes_arg - eps * xi
        rhs += (0.5 * eps**2 * dt * divergence(grid, flux_hat)
                + (grid.k_sq / ctx.reynolds) * stokes_arg)
    new = leray_project(grid, np.exp(-dt * grid.k_sq / ctx.reynolds) * rhs)
    return SpectralVelocity(grid, new)


def _record(field: SpectralVelocity) -> tuple:
    hn = h_norm(field.grid, field.coeffs)
    vn = v_norm(field.grid, field.coeffs)
    return (0.5 * hn**2, 0.5 * vn**2, hn, vn, max_divergence(field.grid, field.coeffs))


def run(config: SolverConfig, member_index: int = 0, *,
        ctx: OperatorContext | None = None, path: WienerPath | None = None,
        v0: SpectralVelocity | None = None, store_snapshots: bool = False,
        warn_cfl: bool = True) -> TrajectoryRecord:
    """Integrate the stochastic system from t = 0 to t_end.

    The member's Brownian path is derived from (config.seed, member_index)
    unless an explicit ``path`` (e.g. a refined/coarsened one) is supplied.
    Bit-reproducible for a fixed config and member index.
    """
    ctx = ctx or build_context(config)
    if ctx.epsilon != config.epsilon:
        raise ValueError("context epsilon disagrees with config")
    grid = ctx.grid
    state = v0.copy() if v0 is not None else make_initial(
        config.initial_kind, grid, config.initial_params)
    n_steps = config.n_steps
    use_noise = config.epsilon > 0.0 and config.amplitude != 0.0
    if use_noise and path is None:
        path = WienerPath(config.seed, config.dt, n_steps, config.k_modes,
                          member=member_index)
    if warn_cfl:
        check_cfl(config, state)

    times, rows, snaps = [0.0], [_record(state)], []
    if store_snapshots:
        snaps.append(state.copy())
    for i in range(n_steps):
        dbeta = path.increments[i] if use_noise else None
        state = step(state, ctx, dbeta, config.dt)
        t = (i + 1) * config.dt
        if not np.isfinite(state.coeffs).all():
            raise BlowUpError(i + 1, t)
        if (i + 1) % config.record_every == 0 or i + 1 == n_steps:
            times.append(t)
            rows.append(_record(state))
            if store_snapshots:
                snaps.append(state.copy())
    names = ("energy", "enstrophy", "h_norm", "v_norm", "max_div")
    diags = {name: np.array([r[j] for r in rows]) for j, name in enumerate(names)}
    return TrajectoryRecord(np.array(times), diags, snaps if store_snapshots else None)


def run_deterministic(config: SolverConfig, *, v0: SpectralVelocity | None = None,
                      store_snapshots: bool = False) -> TrajectoryRecord:
    """Integrate d_t v + Av + B(v) = 0 with the same stepper, no noise."""
    det = config.with_epsilon(0.0)
    return run(det, ctx=build_context(det), v0=v0, store_snapshots=store_snapshots,
               warn_cfl=False)


def run_scalar_transport(q0: SpectralScalar, velocity, ctx: OperatorContext,
                         dt: float, t_end: float, path: WienerPath | None,
                         record_every: int = 1, store_snapshots: bool = False) -> dict:
    """Euler-Maruyama integration of the stochastic tracer equation

        d q = -(u - eps^2 u_s).grad q dt - eps (sigma dW).grad q
              + (eps^2/2) div(a grad q) dt.

    ``velocity`` is a steady SpectralVelocity or a callable t -> field.
    Returns {"times", "energies", "snapshots"} with 0.5 |q|_H^2 recorded.
    """
    grid = ctx.grid
    eps = ctx.epsilon
    n_steps = int(round(t_end / dt))
    steady = isinstance(velocity, SpectralVelocity)
    if steady:
        u_adv = velocity.coeffs - (eps**2) * ctx.us
        u_adv_pad = to_physical(grid, u_adv, grid.pad_size)
    use_noise = eps > 0.0 and ctx.noise.amplitude != 0.0
    if use_noise and path is None:
        raise ValueError("a WienerPath is required when the noise is active")

    q = q0.coeffs.copy()
    times = [0.0]
    energies = [0.5 * h_norm(grid, q) ** 2]
    snaps = [q.copy()] if store_snapshots else None
    phi_stack = ctx.phi_stack if use_noise else None
    for i in range(n_steps):
        if not steady:
            u_adv = velocity(i * dt).coeffs - (eps**2) * ctx.us
            u_adv_pad = to_physical(grid, u_adv, grid.pad_size)
        incr = -dt * advect(grid, u_adv, q, u_phys_pad=u_adv_pad)
        if eps > 0.0:
            incr += dt * 0.5 * eps**2 * _scalar_div_a_grad(ctx, q)
        if use_noise:
            xi = np.tensordot(path.increments[i], phi_stack, axes=(0, 0))
            incr -= eps * advect(grid, xi, q)
        q = q + incr
        t = (i + 1) * dt
        if not np.isfinite(q).all():
            raise BlowUpError(i + 1, t)
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            times.append(t)
            energies.append(0.5 * h_norm(grid, q) ** 2)
            if store_snapshots:
                snaps.append(q.copy())
    return {"times": np.array(times), "energies": np.array(energies), "snapshots": snaps}


def _scalar_div_a_grad(ctx: OperatorContext, q: np.ndarray) -> np.ndarray:
    """div(a grad q) for a scalar field, dealiased."""
    grid = ctx.grid
    gq = np.stack([1j * grid.kx * q, 1j * grid.ky * q])
    gq_phys = to_physical(grid, gq, grid.pad_size)
    flux = np.einsum("jl...,l...->j...", ctx.a_pad, gq_phys)
    flux_hat = from_physical(grid, flux)
    return 1j * grid.kx * flux_hat[0] + 1j * grid.ky * flux_hat[1]
