"""Time integration of the Galerkin SDE and its deterministic limit.

Scheme: Euler-Maruyama for the nonlinear, drift-correction and noise terms
with exact integrating-factor treatment of the Stokes operator,

    v+ = exp(-dt |k|^2 / Re) * [v - dt (B(v) + F(v)) + G(v) dW].

Every eps-term of F and G is linear in w = v + eps^2 u_s (u_s the raw
Ito-Stokes drift) and the projections commute with the integrating factor,
so ``step`` evaluates the bracket as one fused expression,

    v+ = E P [v - (c.grad) w + (eps^2 dt / 2) div(a grad w)
              + eps^2 dt A u_s - eps A xi],

with c = dt v + eps xi, xi = sum_k phi_k dbeta_k and E = exp(-dt A): one
batched inverse real FFT of c and grad w on the padded grid, one batched
forward real FFT of (c.grad) w and the flux a grad w.  The multipliers that
depend only on (dt, Re, eps) are made once and kept with the step's
workspace: E P as one symmetric 2 x 2 multiplier, applied by
``spectral.leray_project`` in place of a separate projection, eps^2 u_s,
the constant eps^2 dt A u_s, and (eps^2 dt / 2) i k for the divergence.
xi enters c and -eps A xi only on its support, a few dozen coefficients.
The kernel of the transforms, ``_transport``, also steps the tracer.

Both drivers keep their state in the half layout of ``spectral``, which
``step`` and ``_transport`` take and return: the retained ky >= 0 columns
with the kx rows at their padded-grid positions, so the inverse input is one
multiply per field and the forward result is read in place.  The state stays
real because only the ky = 0 column holds conjugate pairs, which
``from_physical`` writes exactly and the even multipliers keep.  The full
(2, n, n) layout is met only at the edges: the initial field, the records,
``observe`` and ``check_cfl``.  The per-operator functions of ``operators``
are the reference this step is tested against.  The integrating factor
removes the stiff linear stability constraint; only an advective CFL
condition remains and is warned about.

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
    compress,
    energy,
    expand,
    from_physical,
    h_norm,
    hermitian_symmetrize,
    leray_multiplier,
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
    ``SolverConfig`` has checked.  ConfigError here is what only the disk
    can show: a snapshot with no field on ``grid``."""
    params = params or {}
    if kind == "taylor_green":
        scale = params.get("scale", 1.0)
        ux = scale * np.cos(grid.x) * np.sin(grid.y)
        uy = -scale * np.sin(grid.x) * np.cos(grid.y)
        return leray_project(grid, expand(grid, from_physical(grid, np.stack([ux, uy]))))
    if kind == "random_band":
        rng_seed = params.get("seed", 0)
        gen = np.random.Generator(np.random.Philox(key=[rng_seed % 2**64, 2**32]))
        coeffs = random_solenoidal(grid, gen, params.get("k_min", 1),
                                   params.get("k_max", grid.n_modes // 4))
        coeffs *= np.sqrt(params.get("energy", 1.0) / energy(grid, coeffs))
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
    the velocity, 1 for a tracer), all in the half layout: c and grad f,
    their transform buffers (shared by the forward pass when its batch is as
    large), the padded product batch, w = v + eps^2 u_s, the flat indices of
    xi's support and the multipliers of the last (dt, Re, eps).  The support
    is taken from the model when the workspace is made: contexts that share
    a cache share their model."""

    def __init__(self, ctx: OperatorContext, k: int):
        grid = ctx.grid
        n, m, h = grid.n_modes, grid.pad_size, grid.n_modes // 2
        n_in, n_out = 2 + 2 * k, 3 * k if ctx.noisy else k
        self.spec = np.empty((n_in, m, h), dtype=complex)
        self.inverse = TransformBuffers(grid, (n_in,), m)
        self.forward = self.inverse if n_out == n_in else TransformBuffers(grid, (n_out,), m)
        self.prod = np.empty((n_out, m, m))
        self.ikx, self.iky = 1j * grid.half_kx, 1j * grid.half_ky
        self.key = None
        if ctx.noisy:
            self.w = np.empty((2, m, h), dtype=complex)
            # the ky >= 0 part of the joint support of the phi_k, as flat
            # indices of the half layout and the (K, 2S) real view of its values
            idx, values = ctx.noise.phi_support
            comp, row, col = np.unravel_index(idx, (2, n, n))
            kept = col < h
            row = np.where(row < h, row, row - n + m)[kept]
            self.xi_idx = np.ravel_multi_index((comp[kept], row, col[kept]), (2, m, h))
            self.xi_values = np.ascontiguousarray(values.view(complex)[:, kept]).view(float)

    def noise_values(self, dbeta: np.ndarray) -> np.ndarray:
        """xi = sum_k dbeta_k phi_k on the ``xi_idx`` coefficients."""
        return np.dot(dbeta, self.xi_values).view(complex)

    def multipliers(self, ctx: OperatorContext, dt: float) -> "_StepWorkspace":
        """Make the multipliers of (dt, Re, eps) unless they are the last
        ones: ``proj`` = E P for ``leray_project``; with noise ``us2`` =
        eps^2 u_s, ``drift`` = eps^2 dt A u_s, ``div`` = (eps^2 dt / 2) i k
        and ``a_xi`` = eps A on the support of xi."""
        key = (dt, ctx.reynolds, ctx.epsilon)
        if self.key != key:
            grid = ctx.grid
            a_diag = grid.half_k_sq / ctx.reynolds
            self.proj = leray_multiplier(grid, np.exp(-dt * a_diag))
            if ctx.noisy:
                eps = ctx.epsilon
                self.us2 = eps**2 * compress(grid, ctx.noise.ito_stokes_drift)
                self.drift = (dt * a_diag) * self.us2
                self.div = (0.5 * eps**2 * dt) * self.ikx, (0.5 * eps**2 * dt) * self.iky
                self.a_xi = eps * np.broadcast_to(a_diag, self.w.shape).reshape(-1)[self.xi_idx]
            self.key = key
        return self


def _workspace(ctx: OperatorContext, k: int = 2) -> _StepWorkspace:
    """The workspace of ``ctx`` for f of k components, made on first use and
    kept in ``ctx._cache`` under (noisy, k)."""
    key = (ctx.noisy, k)
    if key not in ctx._cache:
        ctx._cache[key] = _StepWorkspace(ctx, k)
    return ctx._cache[key]


def _transport(ctx: OperatorContext, work: _StepWorkspace, u: np.ndarray, f: np.ndarray,
               xi: np.ndarray | None, dt: float) -> np.ndarray:
    """(c.grad) f for c = dt u + eps xi and f of k components, (k, m, n/2),
    then with noise the flux a grad f as (2k, m, n/2), from one batched
    inverse and one forward real FFT through ``work`` (a view of it,
    overwritten by the next call).  u and f are in the half layout, xi is
    given by its values on ``work.xi_idx``."""
    grid = ctx.grid
    m = grid.pad_size
    k = f.shape[0]
    spec = work.spec  # c and grad f, gf[l, i] = d_l f_i
    c = np.multiply(dt, u, out=spec[:2])
    if xi is not None:
        c.reshape(-1)[work.xi_idx] += ctx.epsilon * xi
    gf = spec[2:].reshape(2, k, m, grid.n_modes // 2)
    np.multiply(work.ikx, f, out=gf[0])
    np.multiply(work.iky, f, out=gf[1])
    phys = to_physical(grid, spec, m, work.inverse)
    cp, gf = phys[:2], phys[2:].reshape(2, k, m, m)
    prod = work.prod
    np.einsum("l...,li...->i...", cp, gf, out=prod[:k])        # (c.grad) f
    if ctx.noisy:                                               # (a grad f)_{j i}
        tensor_flux_physical(ctx.a_pad, gf, out=prod[k:].reshape(2, k, m, m))
    return from_physical(grid, prod, work.forward)


def step(state: np.ndarray, ctx: OperatorContext, dbeta: np.ndarray | None,
         dt: float) -> np.ndarray:
    """One Euler-Maruyama step with integrating-factor Stokes treatment, on
    a state in the half layout of ``spectral`` ((2, m, n/2), see ``compress``).

    Fused form of exp(-dt|k|^2/Re) P[v - dt (B(v,v) + F(v)) + G(v) dbeta]:
    ``_transport`` of w = v + eps^2 u_s by c = dt v + eps xi, 12 real
    transforms on the padded grid with noise, 8 without, then one
    ``leray_project`` with E P as its multiplier.  Its workspace,
    ``_workspace(ctx)``, is kept in the context's cache (shared by contexts
    made with ``dataclasses.replace``), so a warm step allocates only its
    result and small temporaries.  The workspace makes ``step`` not
    reentrant: contexts that share a cache must not step in two threads at
    once.  The returned state never aliases the workspace.
    """
    noisy = ctx.noisy
    work = _workspace(ctx).multipliers(ctx, dt)
    xi = work.noise_values(dbeta) if noisy and dbeta is not None else None
    f = np.add(state, work.us2, out=work.w) if noisy else state
    hat = _transport(ctx, work, state, f, xi, dt)
    rhs = np.subtract(state, hat[:2], out=hat[:2])
    if noisy:  # + (eps^2 dt / 2) div(a grad w) + eps^2 dt A u_s - eps A xi
        flux = hat[2:].reshape((2,) + rhs.shape)
        for d, flux_d in zip(work.div, flux):
            rhs += np.multiply(d, flux_d, out=flux_d)
        rhs += work.drift
        if xi is not None:
            rhs.reshape(-1)[work.xi_idx] -= work.a_xi * xi
    return leray_project(ctx.grid, rhs, np.empty_like(rhs), work.proj)


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


def _integrate(grid: TorusGrid, state, advance, path: WienerPath | None,
               config: SolverConfig, names: tuple, measure, observe=None) -> TrajectoryRecord:
    """Step ``state``, a field in the full layout of ``grid``, config.n_steps
    times by ``advance(state, dbeta)``, which takes and returns the half
    layout, with the increments of ``path`` (None without a path).  At t = 0,
    every config.record_every steps and at the last, expand the state, append
    ``measure(state)``, one value per name of ``names``, and call
    ``observe(t, state)`` when given; return the record of those times and
    values.  Raises BlowUpError at the first state that is not finite."""
    n_steps, dt = config.n_steps, config.dt
    times, rows = [], []

    def record(t, state):
        full = expand(grid, state)
        times.append(t)
        rows.append(measure(full))
        if observe is not None:
            observe(t, full)

    state = compress(grid, state)
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
    ``observe(t, state)``, when given, sees each recorded state, a fresh
    array in the full layout, and may keep it; the record holds only the
    diagnostics.
    """
    ctx, path = _setup(config, ctx, path, member_index)
    state = v0 if v0 is not None else make_initial(
        config.initial_kind, ctx.grid, config.initial_params)
    if warn_cfl:
        check_cfl(config, ctx.grid, state)
    # step is looked up at each call: perfbench/hook.py's one-shot timer rebinds it
    return _integrate(ctx.grid, state, lambda v, dbeta: step(v, ctx, dbeta, config.dt), path,
                      config, RECORD_NAMES, partial(_record, ctx.grid), observe)


@_quiet_overflow
def run_scalar_transport(config: SolverConfig, q0: np.ndarray, velocity: np.ndarray, *,
                         ctx: OperatorContext | None = None,
                         path: WienerPath | None = None) -> TrajectoryRecord:
    """Euler-Maruyama integration of the stochastic tracer equation

        d q = -(u - eps^2 u_s).grad q dt - eps (sigma dW).grad q
              + (eps^2/2) div(a grad q) dt

    in a steady velocity u: q+ = q - (c.grad) q + (eps^2 dt / 2) div(a grad q),
    c = dt (u - eps^2 u_s) + eps xi, by ``_transport`` through the context's
    one-component workspace (7 real transforms with noise, 5 without), on the
    half layout; ``q0`` and ``velocity`` are full coefficient arrays.
    The steps, dt and record cadence are the config's; ``ctx`` and ``path``
    (member 0's by default) are set up as in ``run``.  Raises BlowUpError at
    the first step whose tracer is not finite.  Returns the record of the
    diagnostic "energy", 0.5 |q|_H^2.
    """
    ctx, path = _setup(config, ctx, path)
    grid = ctx.grid
    noisy = ctx.noisy
    u_adv = compress(grid, velocity - ctx.epsilon**2 * ctx.us)
    work = _workspace(ctx, k=1).multipliers(ctx, config.dt)

    def advance(q, dbeta):
        xi = work.noise_values(dbeta) if noisy else None
        hat = _transport(ctx, work, u_adv, q[None], xi, config.dt)
        q = q - hat[0]
        if noisy:
            for d, flux_d in zip(work.div, hat[1:]):
                q += d * flux_d
        return q

    return _integrate(grid, q0, advance, path, config, ("energy",), lambda q: (energy(grid, q),))
