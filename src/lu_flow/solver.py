"""Time integration of the Galerkin SDE and its deterministic limit.

Scheme: Euler-Maruyama for the nonlinear, drift-correction and noise terms
with exact integrating-factor treatment of the Stokes operator,

    v+ = exp(-dt |k|^2 / Re) * [v - dt (B(v) + F(v)) + G(v) dW].

Every eps-term of F and G is linear in w = v + eps^2 u_s (u_s the raw
Ito-Stokes drift) and the projections commute with the integrating factor,
so the step is one fused expression,

    v+ = E P [v - (c.grad) w + (eps^2 dt / 2) div(a grad w)
              + eps^2 dt A u_s - eps A xi],

with c = dt v + eps xi, xi = sum_k phi_k dbeta_k and E = exp(-dt A).  c is
solenoidal, so transport and LU diffusion are the divergence of one flux,
G_ji = -c_j w_i + (eps^2 dt / 2)(a grad w)_ji, and in 2D the projection of
div G keeps only its curl.  ``run`` therefore steps the stream function psi
of v, v = (-d_y psi, d_x psi), with no projection in the step:

    psi+ = E psi + E (kx^2 H0 - ky^2 H1 + kx ky H2) / |k|^2 + C
           - eps E A psi_xi,

H0 = G_xy, H1 = G_yx and H2 = G_yy - G_xx formed on the padded grid and C
the constant drift terms.  A noisy step takes 8 real transforms: v and the
three second derivatives of psi inverse (d_y v_y = -d_x v_x), the H's
forward; at eps = 0, G = -dt v v is symmetric, so H0 = H1 and it takes 4.
xi reaches the padded grid by a separable transform of the small block of
modes that holds it, and the a grad u_s part of G is in C.  The
eps-independent fields the step reads (u_s on the padded grid, the stream
functions of the parts of C and the separable tables of xi) are the noise
model's, made once per model; the multipliers of (dt, Re, eps) and the
buffers are made once per run.  The tracer steps the same way, with 5 real
transforms with noise and 3 without.

Both drivers keep their state in the half layout of ``spectral``: the
retained ky >= 0 columns with the kx rows at their padded-grid positions,
so the inverse input is one multiply per field and the forward result is
read in place.  The state stays real because only the ky = 0 column holds
conjugate pairs, which ``from_physical`` writes exactly and the even
multipliers keep.  The full (2, n, n) velocity is met only at the edges:
the initial field, the records, ``observe`` and ``check_cfl``.  The
per-operator functions of ``operators`` are the reference this step is
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
    compress,
    energy,
    expand,
    from_physical,
    h_norm,
    hermitian_symmetrize,
    inverse_k_sq,
    leray_project,
    load_snapshot,
    max_divergence,
    random_solenoidal,
    stream_function,
    stream_velocity,
    tensor_flux_curl,
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

    def __reduce__(self):  # a pool worker's error reaches the parent by pickle
        return type(self), (self.step, self.time)


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


# A diverging state, or an initial field too large for its transforms,
# overflows before the loop raises BlowUpError (as it does for a record that
# overflows), so floating-point warnings would add nothing.  A context whose
# noise overflows (a huge noise.amp) makes every noisy run blow up at step 1.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def build_context(config: SolverConfig) -> OperatorContext:
    grid = TorusGrid(config.n_modes)
    # mode weights use the unit-viscosity eigenvalue |k|^2; the Reynolds
    # factor of the Stokes spectrum would only rescale the overall amplitude
    model = build_noise_model(grid, config.k_modes, config.spectrum_exponent,
                              config.amplitude, mix_shells=config.noise_mixing)
    return OperatorContext(model, config.epsilon, config.reynolds)


@_quiet_overflow
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
    """What one velocity run keeps between its steps: the transform buffers
    and the padded product batch, the multipliers of its (dt, Re, eps) and,
    with noise, the curl coefficients of the variance tensor a.  The
    eps-independent fields the step reads are the noise model's.  Made once
    when the run starts: ``in_mult`` of the inverse input, ``out_mult`` of
    the forward results and ``keep`` = E = exp(-dt A) of the state; with
    noise ``wy_step``, the scale of xi in c folded into the model's ``wy``,
    ``us2`` = eps^2 u_s on the padded grid, ``const`` = E psi(eps^4 dt / 2
    div(a grad u_s) + eps^2 dt A u_s) and ``xi_mult`` = -eps E A on the block
    of xi."""

    def __init__(self, ctx: OperatorContext, dt: float):
        grid = ctx.grid
        m, h = grid.pad_size, grid.n_modes // 2
        self.noisy = ctx.noisy
        # inverse: v and with noise three second derivatives of psi;
        # forward: the H's
        n_in, n_out = (5, 3) if self.noisy else (2, 2)
        self.spec = np.empty((n_in, m, h), dtype=complex)
        self.inverse = TransformBuffers(grid, (n_in,), m)
        self.forward = self.inverse if n_out == n_in else TransformBuffers(grid, (n_out,), m)
        self.prod = np.empty((n_out, m, m))
        kx, ky = grid.half_kx, grid.half_ky
        ikx, iky = 1j * kx, 1j * ky
        a_diag = grid.half_k_sq / ctx.reynolds
        self.keep = np.exp(-dt * a_diag) * grid.half_retained
        weight = (dt * self.keep) * inverse_k_sq(grid)
        if not self.noisy:  # G = -dt v v: H0 = H1 and H2 are -dt (v_x v_y, v_y^2 - v_x^2)
            self.in_mult = np.stack([-iky, ikx])
            self.out_mult = np.stack([-weight * (kx * kx - ky * ky), -weight * kx * ky])
            return
        noise, eps = ctx.noise, ctx.epsilon
        self.c, self.w, self.cw = np.empty((3, 2, m, m))
        self.a_curl = tensor_flux_curl(ctx.a_pad)
        # G / dt = -(v + (eps / dt) xi)_j w_i + (eps^2 / 2)(a grad v)_ji;
        # the a grad u_s part of w is in const
        half_eps2 = 0.5 * eps**2
        self.in_mult = np.stack([-iky, ikx, (half_eps2 * kx * ky).astype(complex),
                                 (half_eps2 * ky * ky).astype(complex),
                                 (-half_eps2 * kx * kx).astype(complex)])
        self.out_mult = np.stack([weight * kx * kx, -weight * ky * ky, weight * kx * ky])
        self.us2 = eps**2 * noise.drift_pad
        self.const = (eps**2 * dt) * self.keep * (half_eps2 * noise.psi_div_a_grad_us
                                                   + a_diag * noise.psi_us)
        self.xi_mult = (-eps * self.keep * a_diag).reshape(-1)[noise.block_idx]
        self.wy_step = (eps / dt) * noise.wy


def _flux_curl(work: _StepWorkspace, v: np.ndarray, g: np.ndarray, c: np.ndarray) -> None:
    """H = (G_xy, G_yx, G_yy - G_xx) into ``work.prod`` for G / dt =
    -c_j w_i + (a g)_ji with w = v + eps^2 u_s, on the padded grid; g holds
    (eps^2 / 2)(d_x v_x, d_y v_x, d_x v_y), and d_y v_y = -d_x v_x."""
    h = work.prod
    np.einsum("hf...,f...->h...", work.a_curl, g, out=h)
    w = np.add(v, work.us2, out=work.w)
    cw = np.multiply(c, w[::-1], out=work.cw)        # c_x w_y, c_y w_x
    h[:2] -= cw
    np.multiply(c, w, out=cw)                        # c_x w_x, c_y w_y
    h[2] += cw[0]
    h[2] -= cw[1]


def step(psi: np.ndarray, ctx: OperatorContext, dbeta: np.ndarray | None,
         dt: float, work: _StepWorkspace | None = None) -> np.ndarray:
    """One Euler-Maruyama step with integrating-factor Stokes treatment of
    the velocity's stream function psi, (m, n/2) in the half layout of
    ``spectral``: psi+ = E psi + E (kx^2 H0 - ky^2 H1 + kx ky H2) / |k|^2 + C
    - eps E A psi_xi of the module docstring, 8 real transforms with noise
    and 4 without.  ``work`` is the workspace of a run of ``ctx`` and ``dt``,
    ``_StepWorkspace(ctx, dt)``, made here when None; with a warm one a step
    allocates only its result and small temporaries.  The returned state
    never aliases the workspace.
    """
    grid = ctx.grid
    if work is None:
        work = _StepWorkspace(ctx, dt)
    spec = np.multiply(work.in_mult, psi, out=work.spec)
    phys = to_physical(grid, spec, grid.pad_size, work.inverse)
    v = phys[:2]
    if not work.noisy:
        (h0, h1), (vx, vy) = work.prod, v
        np.multiply(vx, vy, out=h0)
        np.subtract(vy, vx, out=h1)
        h1 *= np.add(vy, vx, out=vy)  # v is not read again
    else:
        c = v
        if dbeta is not None:
            psi_xi, c = ctx.noise.separable_xi(dbeta, work.wy_step, work.c)
            c += v
        _flux_curl(work, v, phys[2:], c)
    hat = from_physical(grid, work.prod, work.forward)
    np.multiply(work.out_mult, hat, out=hat)
    out = work.keep * psi
    for part in hat:
        out += part
    if work.noisy:
        out += work.const
        if dbeta is not None:
            out.reshape(-1)[ctx.noise.block_idx] += work.xi_mult * psi_xi
    return out


def _record(grid: TorusGrid, v: np.ndarray) -> tuple:
    hn = h_norm(grid, v)
    vn = v_norm(grid, v)
    return (0.5 * hn**2, 0.5 * vn**2, hn, vn, max_divergence(grid, v))


def member_path(config: SolverConfig, member: int) -> WienerPath:
    """The Brownian path of ``member`` under ``config``, from (config.seed,
    member).  A table that does not fit in memory is a ConfigError that
    names the fields fixing its size."""
    try:
        return WienerPath(config.seed, config.dt, config.n_steps, config.k_modes,
                          member=member)
    except MemoryError:
        gib = config.n_steps * config.k_modes * 8 / 2**30
        raise ConfigError(f"fields 'T', 'dt' and 'noise.K' ask for a Brownian table of "
                          f"{config.n_steps} steps x {config.k_modes} increments "
                          f"({gib:.1f} GiB), more than the memory holds") from None


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
        return ctx, member_path(config, member) if ctx.noisy else None
    for name, got, want, fits in (
            ("n_steps", path.n_steps, config.n_steps, path.n_steps >= config.n_steps),
            ("dt", path.dt, config.dt, abs(path.dt - config.dt) <= 1e-9 * config.dt),
            ("k_modes", path.k_modes, config.k_modes, path.k_modes == config.k_modes)):
        if not fits:
            raise ValueError(f"path {name} {got!r} does not fit the run's {want!r}")
    return ctx, path


def _integrate(grid: TorusGrid, state, advance, path: WienerPath | None,
               config: SolverConfig, names: tuple, measure, observe=None, *,
               stream: bool = False) -> TrajectoryRecord:
    """Step ``state``, a field in the full layout of ``grid``, config.n_steps
    times by ``advance(state, dbeta)``, which takes and returns the half
    layout (a velocity's stream function when ``stream``), with the
    increments of ``path`` (None without a path).  At t = 0 (the given
    field), every config.record_every steps and at the last, expand the
    state, append ``measure(state)``, one value per name of ``names``, and
    call ``observe(t, state)`` when given; return the record of those times
    and values.  Raises BlowUpError at the first state that is not finite,
    or, when every state is, at the first record whose values overflow or
    are not finite."""
    n_steps, dt = config.n_steps, config.dt
    steps, rows = [], []

    def record(i, half):
        full = expand(grid, half)
        try:
            rows.append(measure(full))
        except OverflowError:  # a Python float squared past the largest double
            rows.append((np.inf,))
        steps.append(i)
        if observe is not None:
            observe(i * dt, full)

    state = compress(grid, state)
    record(0, state)
    if stream:
        state = stream_function(grid, state)
    for i in range(n_steps):
        state = advance(state, None if path is None else path.increments[i])
        if not np.isfinite(state).all():
            raise BlowUpError(i + 1, (i + 1) * dt)
        if (i + 1) % config.record_every == 0 or i + 1 == n_steps:
            record(i + 1, stream_velocity(grid, state) if stream else state)
    for i, row in zip(steps, rows):
        if not np.isfinite(row).all():
            raise BlowUpError(i, i * dt)
    diags = {name: np.array([r[j] for r in rows]) for j, name in enumerate(names)}
    return TrajectoryRecord(np.array([i * dt for i in steps]), diags)


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
    field.  The velocity is stepped as its stream function, so the first
    step drops the gradient part and the mean of the initial field; the
    record at t = 0 shows the field as given.
    ``observe(t, state)``, when given, sees each recorded state, a fresh
    array in the full layout, and may keep it; the record holds only the
    diagnostics.
    """
    ctx, path = _setup(config, ctx, path, member_index)
    state = v0 if v0 is not None else make_initial(
        config.initial_kind, ctx.grid, config.initial_params)
    if warn_cfl:
        check_cfl(config, ctx.grid, state)
    work = _StepWorkspace(ctx, config.dt)
    # step is looked up at each call: perfbench/hook.py's one-shot timer rebinds it
    return _integrate(ctx.grid, state, lambda psi, dbeta: step(psi, ctx, dbeta, config.dt, work),
                      path, config, RECORD_NAMES, partial(_record, ctx.grid), observe,
                      stream=True)


@_quiet_overflow
def run_scalar_transport(config: SolverConfig, q0: np.ndarray, velocity: np.ndarray, *,
                         ctx: OperatorContext | None = None,
                         path: WienerPath | None = None) -> TrajectoryRecord:
    """Euler-Maruyama integration of the stochastic tracer equation

        d q = -(u - eps^2 u_s).grad q dt - eps (sigma dW).grad q
              + (eps^2/2) div(a grad q) dt

    in a steady velocity u: q+ = q - (c.grad) q + (eps^2 dt / 2) div(a grad q),
    c = dt (u - eps^2 u_s) + eps xi, with dt (u - eps^2 u_s) on the padded grid,
    the buffers and the multipliers made once per call and xi from the noise
    model's separable tables (5 real transforms with noise, 3 without), on
    the half layout; ``q0`` and ``velocity`` are full coefficient arrays.
    The steps, dt and record cadence are the config's; ``ctx`` and ``path``
    (member 0's by default) are set up as in ``run``.  Raises BlowUpError at
    the first step whose tracer is not finite.  Returns the record of the
    diagnostic "energy", 0.5 |q|_H^2.
    """
    ctx, path = _setup(config, ctx, path)
    grid, noisy = ctx.grid, ctx.noisy
    m = grid.pad_size
    # q+ = q - T[(c.grad) q] + (eps^2 dt / 2) i k . T[a grad q]; inverse:
    # grad q; forward: (c.grad) q and with noise the flux a grad q
    n_out = 3 if noisy else 1
    in_mult = np.stack([1j * grid.half_kx, 1j * grid.half_ky])
    spec = np.empty((2, m, grid.n_modes // 2), dtype=complex)
    inverse, forward = TransformBuffers(grid, (2,), m), TransformBuffers(grid, (n_out,), m)
    prod = np.empty((n_out, m, m))
    u_pad = to_physical(grid, config.dt * (velocity - ctx.epsilon**2 * ctx.us), m)
    if noisy:
        c_buf = np.empty((2, m, m))
        wy = ctx.epsilon * ctx.noise.wy
        div = (0.5 * ctx.epsilon**2 * config.dt) * in_mult

    def advance(q, dbeta):
        grad = to_physical(grid, np.multiply(in_mult, q, out=spec), m, inverse)
        c = u_pad
        if noisy:
            c = ctx.noise.separable_xi(dbeta, wy, c_buf)[1]
            c += u_pad
        np.einsum("l...,l...->...", c, grad, out=prod[0])  # (c.grad) q
        if noisy:                                           # a grad q
            tensor_flux_physical(ctx.a_pad, grad, out=prod[1:])
        hat = from_physical(grid, prod, forward)
        q = q - hat[0]
        if noisy:
            flux = np.multiply(div, hat[1:], out=hat[1:])
            q += flux[0]
            q += flux[1]
        return q

    return _integrate(grid, q0, advance, path, config, ("energy",), lambda q: (energy(grid, q),))
