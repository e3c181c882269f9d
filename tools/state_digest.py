"""SHA-256 digests of every state of fixed solver runs, one JSON line per case.

    PYTHONPATH=<checkout>/src python tools/state_digest.py

Run it in two checkouts and diff the output: equal lines mean the solver
produced the same bits for every recorded state.  The sweep is fixed: N in
(32, 48, 64, 96, 128), eps in (0.1, 0), pure and mixed noise bases, K = 8,
seed 7, a random_band initial field and 300 steps of dt = 1e-3.  Digests
depend on the host (the Brownian increments take their logarithms from the
C library), so compare checkouts on one machine.
"""

from __future__ import annotations

import hashlib
import json

from lu_flow.solver import SolverConfig, run

SWEEP_N = (32, 48, 64, 96, 128)
SWEEP_EPS = (0.1, 0.0)
SWEEP_STEPS = 300


def digest(n: int, eps: float, mix: bool, steps: int) -> str:
    """Hex SHA-256 of the bytes of every state of a ``steps``-step run at
    N = n, recorded at each step, t = 0 included."""
    config = SolverConfig(n_modes=n, epsilon=eps, dt=1e-3, t_end=steps * 1e-3,
                          record_every=1, k_modes=8, noise_mixing=mix, seed=7,
                          initial_kind="random_band", initial_params={"seed": 7})
    sha = hashlib.sha256()
    run(config, observe=lambda t, state: sha.update(state.tobytes()), warn_cfl=False)
    return sha.hexdigest()


def main() -> None:
    for n in SWEEP_N:
        for eps in SWEEP_EPS:
            for mix in (False, True):
                print(json.dumps({"N": n, "eps": eps, "mix": mix, "steps": SWEEP_STEPS,
                                  "sha256": digest(n, eps, mix, SWEEP_STEPS)}), flush=True)


if __name__ == "__main__":
    main()
