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
of (c.grad) w and the flux a grad w, and one Leray projection.  The kernel
of the transforms, ``_transport``, also steps the tracer.  The state stays
Hermitian because the transforms produce Hermitian coefficients.
The per-operator functions of ``operators`` are the reference this step is
tested against.  The integrating factor removes the stiff linear stability
constraint; only an advective CFL condition remains and is warned about.

A run with eps = 0 takes exactly the same code path as the deterministic
solver (noise and drift-correction branches are skipped, not multiplied by
zero), so the zero-noise reduction is bitwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ConfigError, SolverConfig
from .noise import WienerPath, build_noise_model
from .operators import OperatorContext
from .spectral import (
    TorusGrid,
    TransformBuffers,
    divergence,
    energy,
    from_physical,
    h_norm,
    hermitian_symmetrize,
    leray_project,
    load_snapshot,
    max_divergence,
    random_solenoidal,
    tensor_flux_physical,
    to_physical,
    v_norm,
)

# the diagnostics of each record, in the order of ``_record``
RECORD_NAMES = ("energy", "enstrophy", "h_norm", "v_norm", "max_div")


class BlowUpError(RuntimeError):
    """Raised when the state leaves the space of finite fields."""

    def __init__(self, step: int, time: float):
        super().__init__(f"solution blew up at step {step} (t = {time:.6g})")
        self.step = step
        self.time = time


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    diagnostics: dict  # one array per diagnostic name, in record order
    # never set by run (states go to its observer); read by perfbench/hook.py
    snapshots: list | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("record times must be strictly increasing")
        for name, arr in self.diagnostics.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite diagnostic {name!r}")


def build_context(config: SolverConfig) -> OperatorContext:
    grid = TorusGrid(config.n_modes)
    # mode weights use the unit-viscosity eigenvalue |k|^2; the Reynolds
    # factor of the Stokes spectrum would only rescale the overall amplitude
    model = build_noise_model(grid, config.k_modes, config.spectrum_exponent,
                              config.amplitude, mix_shells=config.noise_mixing)
    return OperatorContext(model, config.epsilon, config.reynolds)


def make_initial(kind: str, grid: TorusGrid, params: dict | None = None) -> np.ndarray:
    """Initial velocity: the Taylor-Green vortex, a random banded field
    normalized to a target energy, or a loaded snapshot, from parameters that
    ``SolverConfig`` has checked.  ConfigError here is what only the grid or
    the disk can show: a snapshot with no field on ``grid``, a null field."""
    params = params or {}
    if kind == "taylor_green":
        scale = params.get("scale", 1.0)
        ux = scale * np.cos(grid.x) * np.sin(grid.y)
        uy = -scale * np.sin(grid.x) * np.cos(grid.y)
        return leray_project(grid, from_physical(grid, np.stack([ux, uy])))
    if kind == "random_band":
        rng_seed = params.get("seed", 0)
        gen = np.random.Generator(np.random.Philox(key=[rng_seed % 2**64, 2**32]))
        coeffs = random_solenoidal(grid, gen, params.get("k_min", 1),
                                   params.get("k_max", grid.n_modes // 4))
        e = energy(grid, coeffs)
        if e == 0.0:
            raise ConfigError("initial: random_band produced a null field; widen the band")
        coeffs *= np.sqrt(params.get("energy", 1.0) / e)
        return coeffs
    if kind == "file":
        path = params["path"]
        try:
            file_grid, coeffs = load_snapshot(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"initial.path: cannot load {path!r}: {exc}") from exc
        if file_grid != grid:
            raise ConfigError(f"initial.path: snapshot grid N={file_grid.n_modes} does not "
                              f"match run grid N={grid.n_modes}")
        if coeffs.ndim != 3 or coeffs.shape[0] != 2:
            raise ConfigError("initial.path: snapshot does not hold a 2-component field")
        # the transforms read only the ky >= 0 half, so outside data is made Hermitian
        return hermitian_symmetrize(grid, coeffs)
    raise ConfigError(f"unknown initial condition {kind!r}")


def check_cfl(config: SolverConfig, grid: TorusGrid, v: np.ndarray) -> None:
    h = 2.0 * np.pi / grid.n_modes
    umax = float(np.max(np.abs(to_physical(grid, v))))
    if umax > 0 and config.dt > 0.5 * h / umax:
        warnings.warn(
            f"advective CFL exceeded: dt = {config.dt:.3g} > 0.5 h / max|u| = "
            f"{0.5 * h / umax:.3g}", RuntimeWarning, stacklevel=2)


class _StepWorkspace:
    """What ``_transport`` keeps between calls for f of k components (2 for
    the velocity, 1 for a tracer): the ky >= 0 columns of c and grad f, their
    transform buffers (shared by the forward pass when its batch is as
    large), the padded product batch, xi (zero off the noise support) and
    the Stokes multipliers of ``step`` for the last (dt, Re)."""

    def __init__(self, grid: TorusGrid, noisy: bool, k: int):
        m = grid.pad_size
        n_in, n_out = 2 + 2 * k, 3 * k if noisy else k
        self.spec = np.empty((n_in, grid.n_modes, grid.n_modes // 2), dtype=complex)
        self.inverse = TransformBuffers(grid, (n_in,), m)
        self.forward = self.inverse if n_out == n_in else TransformBuffers(grid, (n_out,), m)
        self.prod = np.empty((n_out, m, m))
        self.xi = np.zeros((2, grid.n_modes, grid.n_modes), dtype=complex)
        self.key = self.factor = self.a_diag = None

    def stokes(self, grid: TorusGrid, dt: float, reynolds: float) -> tuple:
        """(exp(-dt |k|^2 / Re), |k|^2 / Re), stored complex so that their
        products with complex fields need no cast buffer."""
        if self.key != (dt, reynolds):
            self.factor = np.exp(-dt * grid.k_sq / reynolds).astype(complex)
            self.a_diag = (grid.k_sq / reynolds).astype(complex)
            self.key = (dt, reynolds)
        return self.factor, self.a_diag


def _workspace(ctx: OperatorContext, k: int = 2) -> _StepWorkspace:
    """The workspace of ``ctx`` for f of k components, made on first use and
    kept in ``ctx._cache`` under (noisy, k)."""
    key = (ctx.noisy, k)
    if key not in ctx._cache:
        ctx._cache[key] = _StepWorkspace(ctx.grid, ctx.noisy, k)
    return ctx._cache[key]


def _transport(ctx: OperatorContext, work: _StepWorkspace, u: np.ndarray, f: np.ndarray,
               xi: np.ndarray | None, dt: float) -> np.ndarray:
    """(c.grad) f for c = dt u + eps xi and f of k components, (k, n, n),
    then with noise the flux a grad f as (2k, n, n), from one batched inverse
    and one forward real FFT through ``work`` (a view of it, overwritten by
    the next call).  Only the ky >= 0 columns of u, f and xi are read."""
    grid = ctx.grid
    m = grid.pad_size
    h = grid.n_modes // 2
    k = f.shape[0]
    # c and grad f, gf[l, i] = d_l f_i, on the ky >= 0 columns to_physical reads
    spec = work.spec
    c = np.multiply(dt, u[..., :h], out=spec[:2])
    if xi is not None:
        np.add(c, ctx.epsilon * xi[..., :h], out=c)
    gf = spec[2:].reshape(2, k, grid.n_modes, h)
    np.multiply(grid.ikx, f[..., :h], out=gf[0])
    np.multiply(grid.iky[:, :h], f[..., :h], out=gf[1])
    phys = to_physical(grid, spec, m, work.inverse)
    cp, gf = phys[:2], phys[2:].reshape(2, k, m, m)
    prod = work.prod
    if ctx.noisy:  # (a grad f)_{j i}, before gf[1] is overwritten
        tensor_flux_physical(ctx.a_pad, gf, out=prod[k:].reshape(2, k, m, m))
    np.multiply(cp[0], gf[0], out=prod[:k])                     # (c.grad) f
    np.add(prod[:k], np.multiply(cp[1], gf[1], out=gf[1]), out=prod[:k])
    return from_physical(grid, prod, work.forward)


def step(state: np.ndarray, ctx: OperatorContext, dbeta: np.ndarray | None,
         dt: float) -> np.ndarray:
    """One Euler-Maruyama step with integrating-factor Stokes treatment.

    Fused form of exp(-dt|k|^2/Re) P[v - dt (B(v,v) + F(v)) + G(v) dbeta]:
    ``_transport`` of w = v + eps^2 u_s by c = dt v + eps xi, 12 real
    transforms on the padded grid with noise, 8 without.  Its workspace,
    ``_workspace(ctx)``, is kept in the context's cache (shared by contexts
    made with ``dataclasses.replace``), so a warm step allocates only its
    grid-sized result and small temporaries.  The workspace makes ``step`` not
    reentrant: contexts that share a cache must not step in two threads at
    once.  The returned state never aliases the workspace.
    """
    grid = ctx.grid
    n = grid.n_modes
    noisy = ctx.noisy
    work = _workspace(ctx)
    eps = ctx.epsilon
    us = ctx.noise.ito_stokes_drift
    xi = ctx.noise_field(dbeta, out=work.xi) if noisy and dbeta is not None else None
    # w on the ky >= 0 columns only, the ones _transport reads
    w = state[..., :n // 2] + eps**2 * us[..., :n // 2] if noisy else state
    hat = _transport(ctx, work, state, w, xi, dt)
    rhs = state - hat[:2]
    factor, a_diag = work.stokes(grid, dt, ctx.reynolds)
    if noisy:  # + (eps^2 dt / 2) div(a grad w) + eps^2 dt A u_s - eps A xi
        flux = hat[2:].reshape(2, 2, n, n)
        div = np.multiply(grid.ikx, flux[0], out=flux[0])
        np.add(div, np.multiply(grid.iky, flux[1], out=flux[1]), out=div)
        np.multiply(0.5 * eps**2 * dt, div, out=div)
        stokes_arg = np.multiply(eps**2 * dt, us, out=hat[:2])
        if xi is not None:
            np.subtract(stokes_arg, np.multiply(eps, xi, out=flux[1]), out=stokes_arg)
        np.add(div, np.multiply(a_diag, stokes_arg, out=stokes_arg), out=div)
        rhs += div
    return leray_project(grid, np.multiply(factor, rhs, out=rhs), out=rhs)


def _record(grid: TorusGrid, v: np.ndarray) -> tuple:
    hn = h_norm(grid, v)
    vn = v_norm(grid, v)
    return (0.5 * hn**2, 0.5 * vn**2, hn, vn, max_divergence(grid, v))


def _setup(config: SolverConfig, ctx: OperatorContext | None, path: WienerPath | None,
           member: int = 0) -> tuple:
    """(ctx, path) of a trajectory of ``config``: each is derived from the
    config when None, else checked against it, or ValueError names the field.
    The derived path is member's, from (config.seed, member), and None when
    the noise of ctx is off.  A longer path is used from its start; its dt
    must match to 1e-9 relative, the tolerance of ``config._step_count``."""
    ctx = ctx or build_context(config)
    noise = ctx.noise
    for name, got, want in (("epsilon", ctx.epsilon, config.epsilon),
                            ("reynolds", ctx.reynolds, config.reynolds),
                            ("n_modes", ctx.grid.n_modes, config.n_modes),
                            ("k_modes", noise.k_modes, config.k_modes),
                            ("spectrum_exponent", noise.spectrum_exponent,
                             config.spectrum_exponent),
                            ("amplitude", noise.amplitude, config.amplitude),
                            ("noise_mixing", noise.mix_shells, config.noise_mixing)):
        if got != want:
            raise ValueError(f"context {name} {got!r} disagrees with config {want!r}")
    if path is None:
        if ctx.noisy:
            path = WienerPath(config.seed, config.dt, config.n_steps, config.k_modes,
                              member=member)
        return ctx, path
    for name, got, want, fits in (
            ("n_steps", path.n_steps, config.n_steps, path.n_steps >= config.n_steps),
            ("dt", path.dt, config.dt, abs(path.dt - config.dt) <= 1e-9 * config.dt),
            ("k_modes", path.k_modes, config.k_modes, path.k_modes == config.k_modes)):
        if not fits:
            raise ValueError(f"path {name} {got!r} does not fit the run's {want!r}")
    return ctx, path


# A diverging (or non-finite initial) state overflows before the loop raises
# BlowUpError, and TrajectoryRecord rejects any non-finite record, so
# floating-point warnings would add nothing.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _integrate(state, advance, path: WienerPath | None, config: SolverConfig,
               names: tuple, measure, observe=None) -> TrajectoryRecord:
    """Step ``state`` config.n_steps times by ``advance(state, dbeta)``, which
    returns a new state, with the increments of ``path`` (None without a
    path).  At t = 0, every config.record_every steps and at the last, append
    ``measure(state)``, one value per name of ``names``, and call
    ``observe(t, state)`` when given; return the record of those times and
    values.  Raises BlowUpError at the first state that is not finite."""
    n_steps, dt = config.n_steps, config.dt
    times, rows = [], []

    def record(t, state):
        times.append(t)
        rows.append(measure(state))
        if observe is not None:
            observe(t, state)

    record(0.0, state)
    for i in range(n_steps):
        state = advance(state, None if path is None else path.increments[i])
        t = (i + 1) * dt
        if not np.isfinite(state).all():
            raise BlowUpError(i + 1, t)
        if (i + 1) % config.record_every == 0 or i + 1 == n_steps:
            record(t, state)
    diags = {name: np.array([r[j] for r in rows]) for j, name in enumerate(names)}
    return TrajectoryRecord(np.array(times), diags)


@_quiet_overflow
def run(config: SolverConfig, member_index: int = 0, *,
        ctx: OperatorContext | None = None, path: WienerPath | None = None,
        v0: np.ndarray | None = None, observe=None,
        warn_cfl: bool = True) -> TrajectoryRecord:
    """Integrate the stochastic system from t = 0 to t_end.

    The member's Brownian path is derived from (config.seed, member_index)
    unless an explicit ``path`` (e.g. a refined/coarsened one) is supplied.
    Bit-reproducible for a fixed config and member index.  A given ``ctx``
    must match the config in eps, Re, N and every noise parameter, and a
    given ``path`` must fit its steps, dt and K, or ``ValueError`` names the
    field.
    ``observe(t, state)``, when given, sees each recorded state (``v0`` itself
    at t = 0) and may keep it; the record holds only the diagnostics.
    """
    ctx, path = _setup(config, ctx, path, member_index)
    state = v0 if v0 is not None else make_initial(
        config.initial_kind, ctx.grid, config.initial_params)
    if warn_cfl:
        check_cfl(config, ctx.grid, state)
    # step is looked up at each call: perfbench/hook.py's one-shot timer rebinds it
    return _integrate(state, lambda v, dbeta: step(v, ctx, dbeta, config.dt), path, config,
                      RECORD_NAMES, partial(_record, ctx.grid), observe)


@_quiet_overflow
def run_scalar_transport(config: SolverConfig, q0: np.ndarray, velocity: np.ndarray, *,
                         ctx: OperatorContext | None = None,
                         path: WienerPath | None = None) -> TrajectoryRecord:
    """Euler-Maruyama integration of the stochastic tracer equation

        d q = -(u - eps^2 u_s).grad q dt - eps (sigma dW).grad q
              + (eps^2/2) div(a grad q) dt

    in a steady velocity u: q+ = q - (c.grad) q + (eps^2 dt / 2) div(a grad q),
    c = dt (u - eps^2 u_s) + eps xi, by ``_transport`` through the context's
    one-component workspace (7 real transforms with noise, 5 without).
    The steps, dt and record cadence are the config's; ``ctx`` and ``path``
    (member 0's by default) are set up as in ``run``.  Raises BlowUpError at
    the first step whose tracer is not finite.  Returns the record of the
    diagnostic "energy", 0.5 |q|_H^2.
    """
    ctx, path = _setup(config, ctx, path)
    grid = ctx.grid
    eps = ctx.epsilon
    dt = config.dt
    noisy = ctx.noisy
    u_adv = velocity - (eps**2) * ctx.us
    work = _workspace(ctx, k=1)

    def advance(q, dbeta):
        xi = ctx.noise_field(dbeta, out=work.xi) if noisy else None
        hat = _transport(ctx, work, u_adv, q[None], xi, dt)
        q = q - hat[0]
        if noisy:
            q += (0.5 * eps**2 * dt) * divergence(grid, hat[1:])
        return q

    return _integrate(q0, advance, path, config, ("energy",), lambda q: (energy(grid, q),))
