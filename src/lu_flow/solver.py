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
           - (eps / Re) E curl xi,

H0 = G_xy, H1 = G_yx, H2 = G_yy - G_xx formed on the padded grid, C the
constant drift terms and curl xi = i (ky xi_x - kx xi_y) = |k|^2 psi_xi,
minus the vorticity of xi.  A noisy step takes 8 real transforms: v and the
three second derivatives of psi inverse (d_y v_y = -d_x v_x), the H's
forward; at eps = 0, G = -dt v v is symmetric, so H0 = H1 and it takes 4.
xi reaches the padded grid by a separable transform of the block of modes
that holds it; the a grad u_s part of G is in C.  The eps-independent
fields are the noise model's, the multipliers and buffers the run's.  The
tracer steps the same way: 5 real transforms with noise, 3 without.

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

from .config import ConfigError, SolverConfig, band_bounds
from .noise import NoiseModel, WienerPath, _quiet_overflow, build_noise_model, philox
from .operators import OperatorContext
from .spectral import (
    TorusGrid,
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
class TrajectoryRecord:  # made by _integrate: times i dt, diagnostics finite (else BlowUpError)
    times: np.ndarray
    diagnostics: dict  # one array per diagnostic name, in record order
    # never set by run (states go to its observer); read by perfbench/hook.py
    snapshots: list | None = None


# A diverging state, or an initial field too large for its transforms,
# overflows before the loop raises BlowUpError (as it does for a record that
# overflows), so floating-point warnings would add nothing (_quiet_overflow).
# A noisy run whose noise overflows (a huge noise.amp) blows up at step 1.
@_quiet_overflow
def build_context(config: SolverConfig) -> OperatorContext:
    """The context of ``config``: its noise model and (eps, Re).  A grid or
    a model that does not fit in memory is a ConfigError that names the
    fields fixing their size."""
    try:
        grid = TorusGrid(config.n_modes)
        model = build_noise_model(grid, config.k_modes, config.spectrum_exponent,
                                  config.amplitude, mix_shells=config.noise_mixing)
    except MemoryError:
        raise ConfigError(f"fields 'N' and 'noise.K' ask for a grid of N={config.n_modes} "
                          f"and a noise model of {config.k_modes} modes, more than the "
                          f"memory holds") from None
    return OperatorContext(model, config.epsilon, config.reynolds)


@_quiet_overflow
def make_initial(kind: str, grid: TorusGrid, params: dict | None = None) -> np.ndarray:
    """Initial velocity: the Taylor-Green vortex, a random banded field
    normalized to a target energy, or a loaded snapshot, from parameters that
    ``SolverConfig`` has checked.  ConfigError here is what only the disk
    can show: a snapshot ``load_snapshot`` refuses on ``grid``, or not of 2 components."""
    params = params or {}
    if kind == "taylor_green":
        scale = params.get("scale", 1.0)
        ux = scale * np.cos(grid.x) * np.sin(grid.y)
        uy = -scale * np.sin(grid.x) * np.cos(grid.y)
        return leray_project(grid, expand(grid, from_physical(grid, np.stack([ux, uy]))))
    if kind == "random_band":
        gen = philox(params.get("seed", 0), 2**32)
        coeffs = random_solenoidal(grid, gen, *band_bounds(params, grid.n_modes))
        coeffs *= np.sqrt(params.get("energy", 1.0) / energy(grid, coeffs))
        return coeffs
    if kind == "file":
        path = params["path"]
        try:
            coeffs = load_snapshot(path, grid)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"initial.path: cannot load {path!r}: {exc}") from exc
        if coeffs.shape[0] != 2:
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
    """What one velocity run keeps between its steps, made once when it
    starts for its ctx and dt, and the only source of both for ``step``:
    ``ctx``, and dt through the multipliers.  The buffers hold only what a
    step writes: ``cols`` the inverse input, transformed in place, and the
    forward result; ``phys`` v and the three second derivatives of psi, then
    w = v + eps^2 u_s and the products c_j w_i; ``prod`` the H's, ``rows``
    their y-pass, and with noise ``c``.  With noise ``prod`` and
    ``rows`` are the heads of ``cols`` and ``phys``, last read before they
    are written (17.7 to 17.8 padded fields); at eps = 0 (two fields in), as
    in the tracer, they do not fit.  The multipliers of (dt, Re, eps):
    ``in_mult`` of the inverse input, ``out_mult`` of the forward results
    and ``keep`` = E = exp(-dt A) of the state; with noise ``wy_step``, the
    scale of xi in c folded into the model's ``wy``, ``us2`` = eps^2 u_s on
    the padded grid, ``const`` = E psi(eps^4 dt / 2 div(a grad u_s) + eps^2
    dt A u_s) and ``xi_mult`` = -(eps / Re) E (i ky, -i kx) on the block of
    xi.  The eps-independent fields, a on the padded grid among them, are
    the noise model's."""

    def __init__(self, ctx: OperatorContext, dt: float):
        grid = ctx.grid
        m, h = grid.pad_size, grid.n_modes // 2
        self.ctx, self.noisy = ctx, ctx.noisy
        n_in, n_out = (5, 3) if self.noisy else (2, 2)
        self.cols = np.empty((n_in, m, h), dtype=complex)
        self.phys = np.empty((n_in, m, m))
        prod, rows = ((self.cols.view(float), self.phys) if self.noisy
                      else (np.empty(n_out * m * m), np.empty(n_out * m * (m + 2))))
        self.prod = prod.reshape(-1)[:n_out * m * m].reshape(n_out, m, m)
        self.rows = rows.reshape(-1)[:n_out * m * (m + 2)].view(complex).reshape(n_out, m, -1)
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
        self.c = np.empty((2, m, m))
        self.a_pad = ctx.a_pad
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
        curl = (-eps / ctx.reynolds) * self.keep * np.stack([iky, -ikx])
        self.xi_mult = curl.reshape(2, -1)[:, noise.block_idx]
        self.wy_step = (eps / dt) * noise.wy


def _flux_curl(work: _StepWorkspace, phys: np.ndarray, c: np.ndarray) -> None:
    """H = (G_xy, G_yx, G_yy - G_xx) into ``work.prod`` for G / dt =
    -c_j w_i + (a g)_ji with w = v + eps^2 u_s, on the padded grid; ``phys``
    holds v and g = (eps^2 / 2)(d_x v_x, d_y v_x, d_x v_y), d_y v_y = -d_x v_x.
    w is written over v and the products c_j w_i over g."""
    h = tensor_flux_curl(work.a_pad, phys[2:], work.prod)
    w = np.add(phys[:2], work.us2, out=phys[:2])
    cw = np.multiply(c, w[::-1], out=phys[2:4])      # c_x w_y, c_y w_x
    h[:2] -= cw
    np.multiply(c, w, out=cw)                        # c_x w_x, c_y w_y
    h[2] += cw[0]
    h[2] -= cw[1]


def step(psi: np.ndarray, work: _StepWorkspace, dbeta: np.ndarray | None) -> np.ndarray:
    """One Euler-Maruyama step with integrating-factor Stokes treatment of
    the velocity's stream function psi, (m, n/2) in the half layout of
    ``spectral``: psi+ = E psi + E (kx^2 H0 - ky^2 H1 + kx ky H2) / |k|^2 + C
    - (eps / Re) E curl xi of the module docstring, 8 real transforms with
    noise and 4 without.  ``work``, the run's ``_StepWorkspace(ctx, dt)``, is
    the only source of the step's context and dt.  ``dbeta``, the K
    increments, may be None only for a deterministic workspace, which
    ignores it.  With a warm workspace a step allocates only its result and
    small temporaries.  The returned state never aliases the workspace.
    """
    ctx = work.ctx
    grid = ctx.grid
    cols = np.multiply(work.in_mult, psi, out=work.cols)
    phys = to_physical(grid, cols, grid.pad_size, cols, work.phys)
    v = phys[:2]
    if not work.noisy:
        (h0, h1), (vx, vy) = work.prod, v
        np.multiply(vx, vy, out=h0)
        np.subtract(vy, vx, out=h1)
        h1 *= np.add(vy, vx, out=vy)  # v is not read again
    else:
        xi, c = ctx.noise.separable_xi(dbeta, work.wy_step, work.c)
        c += v
        _flux_curl(work, phys, c)
    hat = from_physical(grid, work.prod, work.rows, work.cols[:len(work.prod)])
    np.multiply(work.out_mult, hat, out=hat)
    out = work.keep * psi
    for part in hat:
        out += part
    if work.noisy:
        out += work.const
        out.reshape(-1)[ctx.noise.block_idx] += (work.xi_mult * xi).sum(axis=0)
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


def _setup(config: SolverConfig, model: NoiseModel | None, path: WienerPath | None,
           member: int = 0) -> tuple:
    """(ctx, path) of a trajectory of ``config``.  The context takes eps and
    Re from the config and its noise model from ``model``, or from the
    config when None; the path is derived when None.  A given model is
    checked against the config's N and noise parameters, a given path
    against its steps, dt and K, or ValueError names the field.  The derived
    path is member's, from (config.seed, member), and None when the noise of
    ctx is off.  A longer path is used from its start; its dt must match to
    1e-9 relative, the tolerance of ``config._step_count``."""
    ctx = (build_context(config) if model is None
           else OperatorContext(model, config.epsilon, config.reynolds))
    model = ctx.noise
    for name, got, want in (("n_modes", model.grid.n_modes, config.n_modes),
                            ("k_modes", model.k_modes, config.k_modes),
                            ("spectrum_exponent", model.spectrum_exponent,
                             config.spectrum_exponent),
                            ("amplitude", model.amplitude, config.amplitude),
                            ("noise_mixing", model.mix_shells, config.noise_mixing)):
        if got != want:
            raise ValueError(f"model {name} {got!r} disagrees with config {want!r}")
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
    and values.  Raises BlowUpError at the first state that is not finite
    (step 0 for a given field that is not), or, when every state is, at the
    first record whose values overflow or are not finite."""
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
    if not np.isfinite(state).all():
        raise BlowUpError(0, 0.0)
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
        model: NoiseModel | None = None, path: WienerPath | None = None,
        v0: np.ndarray | None = None, observe=None,
        warn_cfl: bool = True) -> TrajectoryRecord:
    """Integrate the stochastic system from t = 0 to t_end.

    The member's Brownian path is derived from (config.seed, member_index)
    unless an explicit ``path`` (e.g. a refined/coarsened one) is supplied.
    Bit-reproducible for a fixed config and member index.  eps, Re and dt
    are the config's alone.  A given noise ``model``, which runs of one
    model at several eps share, must match the config in N and every noise
    parameter, and a given ``path`` must fit its steps, dt and K, or
    ``ValueError`` names the field.  The velocity is stepped as its stream
    function, so the first step drops the gradient part and the mean of the
    initial field; the record at t = 0 shows the field as given.
    ``observe(t, state)``, when given, sees each recorded state, a fresh
    array in the full layout, and may keep it; the record holds only the
    diagnostics.
    """
    ctx, path = _setup(config, model, path, member_index)
    state = v0 if v0 is not None else make_initial(
        config.initial_kind, ctx.grid, config.initial_params)
    if warn_cfl:
        check_cfl(config, ctx.grid, state)
    work = _StepWorkspace(ctx, config.dt)
    # step is looked up at each call: perfbench/hook.py's one-shot timer rebinds it
    return _integrate(ctx.grid, state, lambda psi, dbeta: step(psi, work, dbeta),
                      path, config, RECORD_NAMES, partial(_record, ctx.grid), observe,
                      stream=True)


@_quiet_overflow
def run_scalar_transport(config: SolverConfig, q0: np.ndarray, velocity: np.ndarray, *,
                         model: NoiseModel | None = None,
                         path: WienerPath | None = None) -> TrajectoryRecord:
    """Euler-Maruyama integration of the stochastic tracer equation

        d q = -(u - eps^2 u_s).grad q dt - eps (sigma dW).grad q
              + (eps^2/2) div(a grad q) dt

    in a steady velocity u: q+ = q - (c.grad) q + (eps^2 dt / 2) div(a grad q),
    c = dt (u - eps^2 u_s) + eps xi, with dt (u - eps^2 u_s) on the padded grid,
    the buffers and the multipliers made once per call and xi from the noise
    model's separable tables (5 real transforms with noise, 3 without), on
    the half layout; ``q0`` and ``velocity`` are full coefficient arrays.
    eps, Re, the steps, dt and record cadence are the config's; ``model``
    and ``path`` (member 0's by default) are set up as in ``run``.  Raises
    BlowUpError at step 0 when ``q0`` or ``velocity`` is not finite, else at
    the first step whose tracer is not finite.  Returns the record of the diagnostic
    "energy", 0.5 |q|_H^2.
    """
    ctx, path = _setup(config, model, path)
    if not np.isfinite(velocity).all():
        raise BlowUpError(0, 0.0)
    grid, noisy = ctx.grid, ctx.noisy
    m = grid.pad_size
    # q+ = q - T[(c.grad) q] + (eps^2 dt / 2) i k . T[a grad q]; inverse:
    # grad q; forward: (c.grad) q and with noise the flux a grad q, through
    # one buffer set like the velocity step's
    n_out = 3 if noisy else 1
    in_mult = np.stack([1j * grid.half_kx, 1j * grid.half_ky])
    cols = np.empty((max(2, n_out), m, grid.n_modes // 2), dtype=complex)
    phys = np.empty((2, m, m))
    rows = np.empty((n_out, m, m // 2 + 1), dtype=complex)
    prod = np.empty((n_out, m, m))
    u_pad = to_physical(grid, config.dt * (velocity - ctx.epsilon**2 * ctx.us), m)
    if noisy:
        c_buf = np.empty((2, m, m))
        wy = ctx.epsilon * ctx.noise.wy
        div = (0.5 * ctx.epsilon**2 * config.dt) * in_mult

    def advance(q, dbeta):
        grad_hat = np.multiply(in_mult, q, out=cols[:2])
        grad = to_physical(grid, grad_hat, m, grad_hat, phys)
        c = u_pad
        if noisy:
            c = ctx.noise.separable_xi(dbeta, wy, c_buf)[1]
            c += u_pad
        np.einsum("l...,l...->...", c, grad, out=prod[0])  # (c.grad) q
        if noisy:                                           # a grad q
            tensor_flux_physical(ctx.a_pad, grad, out=prod[1:])
        hat = from_physical(grid, prod, rows, cols[:n_out])
        q = q - hat[0]
        if noisy:
            flux = np.multiply(div, hat[1:], out=hat[1:])
            q += flux[0]
            q += flux[1]
        return q

    return _integrate(grid, q0, advance, path, config, ("energy",), lambda q: (energy(grid, q),))
