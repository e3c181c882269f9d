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

import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .noise import WienerPath, build_noise_model
from .operators import OperatorContext
from .spectral import (
    SpectralScalar,
    SpectralVelocity,
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

INITIAL_KINDS = ("taylor_green", "random_band", "file")


class BlowUpError(RuntimeError):
    """Raised when the state leaves the space of finite fields."""

    def __init__(self, step: int, time: float):
        super().__init__(f"solution blew up at step {step} (t = {time:.6g})")
        self.step = step
        self.time = time


def _step_count(dt: float, t_end: float) -> int:
    """Steps of size dt to t_end; ValueError unless t_end = n dt, n >= 1."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not t_end >= dt:
        raise ValueError("t_end must be at least dt")
    n_steps = t_end / dt
    if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
        raise ValueError("t_end must be an integer multiple of dt")
    return int(round(n_steps))


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
    record_every: int = 10
    initial_kind: str = "taylor_green"
    initial_params: dict = field(default_factory=dict)
    noise_mixing: bool = False

    def __post_init__(self):
        _step_count(self.dt, self.t_end)
        if self.initial_kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial condition {self.initial_kind!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        return _step_count(self.dt, self.t_end)

    def with_epsilon(self, epsilon: float) -> "SolverConfig":
        return replace(self, epsilon=epsilon)


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    diagnostics: dict  # arrays: energy, enstrophy, h_norm, v_norm, max_div
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
    return OperatorContext(grid, model, config.epsilon, config.reynolds)


class InitialConditionError(ValueError):
    """The ``initial`` parameters give no field on the run grid (unknown key,
    unreadable or mismatched snapshot, null random field)."""


def make_initial(kind: str, grid: TorusGrid, params: dict | None = None) -> SpectralVelocity:
    """Initial velocity: the Taylor-Green vortex, a random banded field
    normalized to a target energy, or a loaded snapshot.  Bad parameters
    raise ``InitialConditionError``."""
    params = dict(params or {})
    if kind == "taylor_green":
        scale = _finite_param(kind, params, "scale", 1.0)
        _no_extra(kind, params)
        ux = scale * np.cos(grid.x) * np.sin(grid.y)
        uy = -scale * np.sin(grid.x) * np.cos(grid.y)
        coeffs = leray_project(grid, from_physical(grid, np.stack([ux, uy])))
        return SpectralVelocity(grid, coeffs)
    if kind == "random_band":
        k_min = _finite_param(kind, params, "k_min", 1)
        k_max = _finite_param(kind, params, "k_max", grid.n_modes // 4)
        target_energy = _finite_param(kind, params, "energy", 1.0)
        if target_energy <= 0:
            raise InitialConditionError(f"initial: random_band 'energy' must be positive, "
                                        f"got {target_energy!r}")
        rng_seed = params.pop("seed", 0)
        if not isinstance(rng_seed, int) or isinstance(rng_seed, bool) or rng_seed < 0:
            raise InitialConditionError(f"initial: random_band 'seed' must be an integer "
                                        f">= 0, got {rng_seed!r}")
        _no_extra(kind, params)
        gen = np.random.Generator(np.random.Philox(key=[rng_seed % 2**64, 2**32]))
        coeffs = random_solenoidal(grid, gen, k_min, k_max)
        e = energy(SpectralVelocity(grid, coeffs))
        if e == 0.0:
            raise InitialConditionError("initial: random_band produced a null field; "
                                        "widen the band")
        coeffs *= np.sqrt(target_energy / e)
        return SpectralVelocity(grid, coeffs)
    if kind == "file":
        if "path" not in params:
            raise InitialConditionError("initial: kind 'file' needs 'path'")
        path = params.pop("path")
        _no_extra(kind, params)
        if not isinstance(path, str):  # an int would be opened as a file descriptor
            raise InitialConditionError(f"initial.path must be a string, got {path!r}")
        try:
            file_grid, coeffs = load_snapshot(path)
        except (OSError, ValueError) as exc:
            raise InitialConditionError(f"initial.path: cannot load {path!r}: {exc}") from exc
        if file_grid != grid:
            raise InitialConditionError(
                f"initial.path: snapshot grid N={file_grid.n_modes} does not match "
                f"run grid N={grid.n_modes}")
        if coeffs.ndim != 3 or coeffs.shape[0] != 2:
            raise InitialConditionError("initial.path: snapshot does not hold a "
                                        "2-component field")
        # the transforms read only the ky >= 0 half, so outside data is made Hermitian
        return SpectralVelocity(grid, hermitian_symmetrize(grid, coeffs))
    raise InitialConditionError(f"initial: unknown kind {kind!r}")


def _finite_param(kind: str, params: dict, key: str, default):
    """Take ``key`` out of ``params``: a finite number (NaN fails the bound)."""
    value = params.pop(key, default)
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not abs(value) <= sys.float_info.max):
        raise InitialConditionError(f"initial: {kind} {key!r} must be a finite number, "
                                    f"got {value!r}")
    return value


def _no_extra(kind: str, params: dict) -> None:
    if params:
        raise InitialConditionError(f"initial: unknown {kind} parameters {sorted(params)}")


def check_cfl(config: SolverConfig, v: SpectralVelocity) -> None:
    grid = v.grid
    h = 2.0 * np.pi / grid.n_modes
    umax = float(np.max(np.abs(to_physical(grid, v.coeffs))))
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

    def __init__(self, grid: TorusGrid, noisy: bool, k: int = 2):
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


def step(state: SpectralVelocity, ctx: OperatorContext, dbeta: np.ndarray | None,
         dt: float) -> SpectralVelocity:
    """One Euler-Maruyama step with integrating-factor Stokes treatment.

    Fused form of exp(-dt|k|^2/Re) P[v - dt (B(v,v) + F(v)) + G(v) dbeta]:
    ``_transport`` of w = v + eps^2 u_s by c = dt v + eps xi, 12 real
    transforms on the padded grid with noise, 8 without.  Its workspace is
    kept in the context's cache (shared by contexts made with
    ``dataclasses.replace``), so a warm step allocates only its grid-sized
    result and small temporaries.  The workspace makes ``step`` not
    reentrant: contexts that share a cache must not step in two threads at
    once.  The returned state never aliases the workspace.
    """
    grid = ctx.grid
    n = grid.n_modes
    v = state.coeffs
    noisy = ctx.noisy
    work = ctx.step_workspace(_StepWorkspace)
    eps = ctx.epsilon
    xi = ctx.noise_field(dbeta, out=work.xi) if noisy and dbeta is not None else None
    # w on the ky >= 0 columns only, the ones _transport reads
    w = v[..., :n // 2] + eps**2 * ctx.us_raw[..., :n // 2] if noisy else v
    hat = _transport(ctx, work, v, w, xi, dt)
    rhs = v - hat[:2]
    factor, a_diag = work.stokes(grid, dt, ctx.reynolds)
    if noisy:  # + (eps^2 dt / 2) div(a grad w) + eps^2 dt A u_s - eps A xi
        flux = hat[2:].reshape(2, 2, n, n)
        div = np.multiply(grid.ikx, flux[0], out=flux[0])
        np.add(div, np.multiply(grid.iky, flux[1], out=flux[1]), out=div)
        np.multiply(0.5 * eps**2 * dt, div, out=div)
        stokes_arg = np.multiply(eps**2 * dt, ctx.us_raw, out=hat[:2])
        if xi is not None:
            np.subtract(stokes_arg, np.multiply(eps, xi, out=flux[1]), out=stokes_arg)
        np.add(div, np.multiply(a_diag, stokes_arg, out=stokes_arg), out=div)
        rhs += div
    return SpectralVelocity(grid, leray_project(grid, np.multiply(factor, rhs, out=rhs), out=rhs))


def _record(field: SpectralVelocity) -> tuple:
    hn = h_norm(field.grid, field.coeffs)
    vn = v_norm(field.grid, field.coeffs)
    return (0.5 * hn**2, 0.5 * vn**2, hn, vn, max_divergence(field.grid, field.coeffs))


def member_path(config: SolverConfig, ctx: OperatorContext, member: int = 0) -> WienerPath | None:
    """The Brownian path of ``member`` derived from (config.seed, member), or
    None when the noise of ``ctx`` is off."""
    if not ctx.noisy:
        return None
    return WienerPath(config.seed, config.dt, config.n_steps, config.k_modes, member=member)


# A diverging (or non-finite initial) state overflows before the loop raises
# BlowUpError, and TrajectoryRecord rejects any non-finite record, so
# floating-point warnings would add nothing.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _integrate(state, advance, path: WienerPath | None, n_steps: int, dt: float,
               record_every: int, observe) -> np.ndarray:
    """Step ``state`` n_steps times by ``advance(state, dbeta)``, which returns
    a new state, with the increments of ``path`` (None without a path), and
    call ``observe(t, state)`` at t = 0, every ``record_every`` steps and at
    the last; return those times.  Raises BlowUpError at the first state
    that is not finite."""
    times = [0.0]
    observe(0.0, state)
    for i in range(n_steps):
        state = advance(state, None if path is None else path.increments[i])
        t = (i + 1) * dt
        if not np.isfinite(state.coeffs).all():
            raise BlowUpError(i + 1, t)
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            times.append(t)
            observe(t, state)
    return np.array(times)


@_quiet_overflow
def run(config: SolverConfig, member_index: int = 0, *,
        ctx: OperatorContext | None = None, path: WienerPath | None = None,
        v0: SpectralVelocity | None = None, observe=None,
        warn_cfl: bool = True) -> TrajectoryRecord:
    """Integrate the stochastic system from t = 0 to t_end.

    The member's Brownian path is derived from (config.seed, member_index)
    unless an explicit ``path`` (e.g. a refined/coarsened one) is supplied.
    Bit-reproducible for a fixed config and member index.  A given ``ctx``
    must match the config in eps, Re, N and K, or ``ValueError`` names the field.
    ``observe(t, state)``, when given, sees each recorded state (``v0`` itself
    at t = 0) and may keep it; the record holds only the diagnostics.
    """
    ctx = ctx or build_context(config)
    for name, got, want in (("epsilon", ctx.epsilon, config.epsilon),
                            ("reynolds", ctx.reynolds, config.reynolds),
                            ("n_modes", ctx.grid.n_modes, config.n_modes),
                            ("k_modes", ctx.noise.k_modes, config.k_modes)):
        if got != want:
            raise ValueError(f"context {name} {got!r} disagrees with config {want!r}")
    if path is None:
        path = member_path(config, ctx, member_index)
    state = v0 if v0 is not None else make_initial(
        config.initial_kind, ctx.grid, config.initial_params)
    if warn_cfl:
        check_cfl(config, state)
    rows = []

    def record(t, state):
        rows.append(_record(state))
        if observe is not None:
            observe(t, state)

    # step is looked up at each call: perfbench/hook.py's one-shot timer rebinds it
    times = _integrate(state, lambda v, dbeta: step(v, ctx, dbeta, config.dt), path,
                       config.n_steps, config.dt, config.record_every, record)
    names = ("energy", "enstrophy", "h_norm", "v_norm", "max_div")
    diags = {name: np.array([r[j] for r in rows]) for j, name in enumerate(names)}
    return TrajectoryRecord(times, diags)


@_quiet_overflow
def run_scalar_transport(q0: SpectralScalar, velocity: SpectralVelocity,
                         ctx: OperatorContext, dt: float, t_end: float,
                         path: WienerPath | None, record_every: int = 1) -> dict:
    """Euler-Maruyama integration of the stochastic tracer equation

        d q = -(u - eps^2 u_s).grad q dt - eps (sigma dW).grad q
              + (eps^2/2) div(a grad q) dt

    in a steady velocity u: q+ = q - (c.grad) q + (eps^2 dt / 2) div(a grad q),
    c = dt (u - eps^2 u_s) + eps xi, by ``_transport`` through one workspace
    per call (7 real transforms with noise, 5 without).  Raises ValueError
    unless t_end is a positive integer multiple of dt, and BlowUpError at the
    first step whose tracer is not finite.  Returns {"times", "energies"}
    with 0.5 |q|_H^2 recorded.
    """
    grid = ctx.grid
    eps = ctx.epsilon
    n_steps = _step_count(dt, t_end)
    noisy = ctx.noisy
    if noisy and path is None:
        raise ValueError("a WienerPath is required when the noise is active")
    u_adv = velocity.coeffs - (eps**2) * ctx.us
    work = _StepWorkspace(grid, noisy, k=1)
    energies = []

    def advance(q, dbeta):
        xi = ctx.noise_field(dbeta, out=work.xi) if noisy else None
        hat = _transport(ctx, work, u_adv, q.coeffs[None], xi, dt)
        coeffs = q.coeffs - hat[0]
        if noisy:
            coeffs += (0.5 * eps**2 * dt) * divergence(grid, hat[1:])
        return SpectralScalar(grid, coeffs)

    times = _integrate(q0, advance, path, n_steps, dt, record_every,
                       lambda t, q: energies.append(0.5 * h_norm(grid, q.coeffs) ** 2))
    return {"times": times, "energies": np.array(energies)}
