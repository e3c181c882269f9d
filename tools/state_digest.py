"""SHA-256 digests of fixed solver runs and noise models, one JSON line per case.

    PYTHONPATH=<checkout>/src python tools/state_digest.py

Run it in two checkouts and diff the output: equal lines mean the solver
produced the same bits for every recorded state and field.  The sweep is
fixed:

- velocity runs: N in (32, 48, 64, 96, 128), eps in (0.1, 0), pure and mixed
  noise bases, K = 8, then N = 64, eps = 0.1 and K = 64 and 256 (modes that
  fill many rows and columns) on both bases, all with seed 7, a random_band
  initial field and 300 steps of dt = 1e-3, every state digested;
- tracer runs: the energy record (times and values) of
  ``run_scalar_transport`` at N = 64, K = 8 mixed, eps in (0.1, 0), the
  ``transport`` command's tracer in the random_band velocity, 300 steps;
- noise models: every field of ``NoiseModel``, stored or made when first
  read, at N = 16 and 64 on both bases, with K = 8 and the largest K whose
  modes' wavevector sums and differences stay inside the N grid (44 and 792
  pure, 22 and 396 mixed), and at N = 16 with the largest K the config
  accepts (224 pure, 112 mixed), whose sums leave the grid and fold into a,
  all with amplitude 1 and r = 3;
- a Brownian path: the increments of ``WienerPath`` at seed 2^63 + 5,
  member 0, 300 steps of dt = 1e-3 and K = 8;
- grids: the Leray multiplier ``_projection`` and the coordinates ``x`` and
  ``y`` at N = 16 and 64;
- a snapshot: the random_band field (seed 7) at N = 16, written with
  ``save_snapshot`` and read back by ``make_initial("file", ...)``;
- studies, each at K = 8 with seed 7, a random_band initial field and 50
  steps of dt = 1e-3: every array and the slope of
  ``epsilon_convergence_study`` at N = 16, eps (0.2, 0.1) and 4 members on
  both bases; the ``contraction_test`` report at N = 16, eps = 0.1, mixed,
  for delta 1e-3 and 0; the records of ensemble members 0 to 3 run by the
  CLI's worker functions on one noise model at N = 32, eps = 0.1, mixed;
- the details of ``run_validation_suite`` on the default config and on
  K = 8 mixed, as printed (they keep three significant digits).

Digests depend on the host (the Brownian increments take their logarithms
from the C library), so compare checkouts on one machine.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from lu_flow import cli
from lu_flow.diagnostics import contraction_test, epsilon_convergence_study
from lu_flow.noise import WienerPath, build_noise_model, max_modes
from lu_flow.solver import SolverConfig, make_initial, run, run_scalar_transport
from lu_flow.spectral import TorusGrid, _projection, expand, from_physical, save_snapshot
from lu_flow.validation import run_validation_suite

SWEEP_N = (32, 48, 64, 96, 128)
SWEEP_EPS = (0.1, 0.0)
SWEEP_STEPS = 300
SWEEP = ([(n, eps, mix, 8) for n in SWEEP_N for eps in SWEEP_EPS for mix in (False, True)]
         + [(64, 0.1, mix, k) for k in (64, 256) for mix in (False, True)])
MODEL_SWEEP = ([(n, mix, k) for n, bound in ((16, 22), (64, 396)) for mix in (False, True)
                for k in (8, bound if mix else 2 * bound)]
               + [(16, mix, max_modes(16, mix)) for mix in (False, True)])
PATH_SEED = 2**63 + 5
MODEL_FIELDS = ("entries", "a_pad", "drift_projected", "drift_pad", "psi_us",
                "psi_div_a_grad_us", "block_idx", "xi_terms", "ex", "wy", "phi",
                "variance_tensor", "variance_hat", "ito_stokes_drift", "div_a_grad_us")


def _config(n: int, eps: float, mix: bool, steps: int, k: int) -> SolverConfig:
    return SolverConfig(n_modes=n, epsilon=eps, dt=1e-3, t_end=steps * 1e-3,
                        record_every=1, k_modes=k, noise_mixing=mix, seed=7,
                        initial_kind="random_band", initial_params={"seed": 7})


def _sha(*arrays) -> str:
    """Hex SHA-256 of the dtype, shape and bytes of each array (None, and
    nested tuples or generators of arrays, allowed)."""
    sha = hashlib.sha256()

    def feed(a):
        if a is None:
            sha.update(b"None")
        elif isinstance(a, np.ndarray):
            sha.update(f"{a.dtype.str}{a.shape}".encode())
            sha.update(np.ascontiguousarray(a).tobytes())
        else:
            for item in a:
                feed(item)

    feed(arrays)
    return sha.hexdigest()


def digest(n: int, eps: float, mix: bool, steps: int, k: int = 8) -> str:
    """Hex SHA-256 of the bytes of every state of a ``steps``-step run at
    N = n with K = k modes, recorded at each step, t = 0 included."""
    sha = hashlib.sha256()
    run(_config(n, eps, mix, steps, k), observe=lambda t, state: sha.update(state.tobytes()),
        warn_cfl=False)
    return sha.hexdigest()


def transport_digest(n: int, eps: float, mix: bool, steps: int, k: int = 8) -> str:
    """Hex SHA-256 of the energy record of a ``steps``-step tracer run: the
    tracer sin(x) sin(2y) + 0.5 cos(2x) of ``lu-flow transport`` in the
    random_band velocity."""
    config = _config(n, eps, mix, steps, k)
    grid = TorusGrid(n)
    q0 = expand(grid, from_physical(
        grid, np.sin(grid.x) * np.sin(2 * grid.y) + 0.5 * np.cos(2 * grid.x)))
    velocity = make_initial(config.initial_kind, grid, config.initial_params)
    record = run_scalar_transport(config, q0, velocity)
    return _sha(record.times, record.diagnostics["energy"])


def _modes(model):
    """Each mode's (2, n, n) coefficients in turn, its entries put into zeros."""
    n = model.grid.n_modes
    for idx, values in model.entries:
        coeffs = np.zeros((2, n, n), dtype=complex)
        coeffs.put(idx, values)
        yield coeffs


def model_digests(n: int, mix: bool, k: int) -> dict:
    """Hex SHA-256 of each field of the noise model at N = n with K = k;
    ``phi``, (K, 2, n, n), is digested as its modes in turn, each one (2, n,
    n) and made from the entries here, so that the stack (103 MiB at N = 64,
    K = 792) is never made."""
    model = build_noise_model(TorusGrid(n), k, 3.0, 1.0, mix_shells=mix)
    return {name: _sha(_modes(model) if name == "phi" else getattr(model, name))
            for name in MODEL_FIELDS}


def grid_digests(n: int) -> dict:
    grid = TorusGrid(n)
    return {"projection": _sha(_projection(grid.kx, grid.ky)), "x": _sha(grid.x),
            "y": _sha(grid.y)}


def snapshot_digest(n: int) -> str:
    """Hex SHA-256 of the random_band field at N = n (seed 7) after a round
    trip through a snapshot file and the ``file`` initial condition."""
    grid = TorusGrid(n)
    field = make_initial("random_band", grid, {"seed": 7})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.lufs"
        save_snapshot(path, grid, field)
        return _sha(make_initial("file", grid, {"path": str(path)}))


def study_digests() -> dict:
    """Hex SHA-256 of the convergence studies, the contraction reports and
    the ensemble members of the module docstring, by name."""
    out = {}
    for mix in (False, True):
        report = epsilon_convergence_study(_config(16, 0.1, mix, 50, 8), (0.2, 0.1), 4)
        out[f"converge_mix={mix}"] = _sha(
            report.epsilons, report.errors_h, report.errors_v_sq, report.per_member_h,
            np.array([report.fitted_slope, report.ensemble_size]))
    for delta in (1e-3, 0.0):
        report = contraction_test(_config(16, 0.1, True, 50, 8), delta)
        out[f"contraction_delta={delta}"] = _sha(
            report.times, report.weighted_diffs, report.bound_curve,
            np.array([report.alpha, report.fitted_C, report.bitwise_identical]))
    config = _config(32, 0.1, True, 50, 8)
    cli._init_worker(config)
    records = [cli._member_job(config, m) for m in range(4)]
    out["ensemble_members"] = _sha((r.times, *r.diagnostics.values()) for r in records)
    return out


def main() -> None:
    for n, eps, mix, k in SWEEP:
        print(json.dumps({"N": n, "eps": eps, "mix": mix, "K": k, "steps": SWEEP_STEPS,
                          "sha256": digest(n, eps, mix, SWEEP_STEPS, k)}), flush=True)
    for eps in SWEEP_EPS:
        print(json.dumps({"transport": True, "N": 64, "eps": eps, "mix": True, "K": 8,
                          "steps": SWEEP_STEPS,
                          "sha256": transport_digest(64, eps, True, SWEEP_STEPS)}), flush=True)
    for n, mix, k in MODEL_SWEEP:
        print(json.dumps({"model": True, "N": n, "mix": mix, "K": k,
                          "sha256": model_digests(n, mix, k)}), flush=True)
    path = WienerPath(PATH_SEED, 1e-3, SWEEP_STEPS, 8)
    print(json.dumps({"path": True, "seed": PATH_SEED, "sha256": _sha(path.increments)}),
          flush=True)
    for n in (16, 64):
        print(json.dumps({"grid": True, "N": n, "sha256": grid_digests(n)}), flush=True)
    print(json.dumps({"snapshot": True, "N": 16, "sha256": snapshot_digest(16)}), flush=True)
    print(json.dumps({"studies": True, "sha256": study_digests()}), flush=True)
    for config in (SolverConfig(), SolverConfig(k_modes=8, noise_mixing=True)):
        print(json.dumps({"validate": True, "K": config.k_modes, "mix": config.noise_mixing,
                          "details": [[name, bool(ok), detail] for name, ok, detail
                                      in run_validation_suite(config)]}),
              flush=True)


if __name__ == "__main__":
    main()
