"""lu-flow command line: simulate | ensemble | converge | transport | validate.

Exit codes: 0 success, 1 config error (usage errors too), 2 blow-up,
3 validation failure.  All numeric outputs are byte-identical across
repeated invocations with the same config on the same platform; wall-clock
timestamps live only in the manifest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .config import ConfigError, make_manifest, parse_config
from .solver import (
    RECORD_NAMES,
    BlowUpError,
    SolverConfig,
    build_context,
    make_initial,
    run,
    run_scalar_transport,
)
from .spectral import TorusGrid, expand, from_physical


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _trajectory_rows(record):
    columns = [record.times, *record.diagnostics.values()]
    for row in zip(*columns):
        yield tuple(map(float, row))


def _plot(path: Path, xs, curves: dict, xlabel: str, ylabel: str, loglog=False) -> bool:
    """Write a best-effort PNG; whether it was written.  Decoration only:
    acceptance reads CSV, never pixels."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots()
        for label, ys in curves.items():
            (ax.loglog if loglog else ax.plot)(xs, ys, marker="o" if loglog else None,
                                               label=label)
        ax.set_xlabel(xlabel)
        ax.set_ylabel(ylabel)
        ax.legend()
        fig.savefig(path, dpi=120)
        plt.close(fig)
        return True
    except Exception as exc:  # pragma: no cover - best effort
        print(f"plot skipped: {exc}", file=sys.stderr)
        return False


def cmd_simulate(config: SolverConfig, study: dict, out: Path, jobs: int) -> int:
    record = run(config, member_index=0)
    _write_csv(out / "trajectory.csv", ("time", *RECORD_NAMES), _trajectory_rows(record))
    outputs = ["trajectory.csv", "manifest.json"]
    make_manifest(config, None, outputs).write(out / "manifest.json")
    print(f"simulate: {len(record.times)} records -> {out / 'trajectory.csv'}")
    return 0


def ProcessPoolExecutor(*args, **kwargs):
    """``concurrent.futures.ProcessPoolExecutor``, imported when a pool is made:
    a command without one never loads the pool or ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(*args, **kwargs)


_worker_context = None  # the process's one OperatorContext, set by _init_worker


def _init_worker(config: SolverConfig) -> None:
    global _worker_context
    _worker_context = build_context(config)


def _member_job(config: SolverConfig, member: int):
    # run once per member: the benchmark counts member-steps per run call
    return run(config, member_index=member, ctx=_worker_context)


def cmd_ensemble(config: SolverConfig, study: dict, out: Path, jobs: int) -> int:
    members = list(range(int(study["ensemble_size"])))
    if len(members) < 2:
        raise ConfigError("field 'study.ensemble_size' must be >= 2 for ensemble "
                          f"(std_energy is a sample standard deviation), got {len(members)}")
    # one context (noise model, padded caches, step workspace) per process;
    # a pool starts all its workers, so it gets no more than there are members
    configs = [config] * len(members)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(members)),
                                 initializer=_init_worker, initargs=(config,)) as pool:
            records = list(pool.map(_member_job, configs, members))
    else:
        _init_worker(config)
        records = list(map(_member_job, configs, members))
    rows = [(m, *row) for m, record in zip(members, records) for row in _trajectory_rows(record)]
    _write_csv(out / "members.csv", ("member", "time", *RECORD_NAMES), rows)

    times = records[0].times
    energies = np.stack([r.diagnostics["energy"] for r in records])
    enstrophies = np.stack([r.diagnostics["enstrophy"] for r in records])
    agg = [(float(t), float(energies[:, i].mean()), float(energies[:, i].std(ddof=1)),
            float(enstrophies[:, i].mean())) for i, t in enumerate(times)]
    _write_csv(out / "aggregate.csv",
               ("time", "mean_energy", "std_energy", "mean_enstrophy"), agg)
    outputs = ["members.csv", "aggregate.csv", "manifest.json"]
    make_manifest(config, study, outputs).write(out / "manifest.json")
    print(f"ensemble: {len(members)} members -> {out / 'aggregate.csv'}")
    return 0


def cmd_converge(config: SolverConfig, study: dict, out: Path, jobs: int) -> int:
    epsilons = study["epsilons"]
    report = diag.epsilon_convergence_study(config, epsilons, int(study["ensemble_size"]))
    rows = list(zip(report.epsilons.tolist(), report.errors_h.tolist(),
                    report.errors_v_sq.tolist()))
    _write_csv(out / "convergence.csv",
               ("epsilon", "rms_sup_h_error", "rms_int_v_sq_error"), rows)
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"fitted_slope {report.fitted_slope!r}\n")
        fh.write(f"ensemble_size {report.ensemble_size}\n")
        fh.write(f"shared_path {str(report.shared_path).lower()}\n")
    plotted = _plot(out / "convergence.png", report.epsilons,
                    {"RMS sup_t H-error": report.errors_h}, "epsilon", "error", loglog=True)
    png = ["convergence.png"] if plotted else []
    outputs = ["convergence.csv", "summary.txt", *png, "manifest.json"]
    make_manifest(config, study, outputs).write(out / "manifest.json")
    print(f"converge: fitted slope {report.fitted_slope:.3f} -> {out / 'convergence.csv'}")
    return 0


def cmd_transport(config: SolverConfig, study: dict, out: Path, jobs: int) -> int:
    ctx = build_context(config)
    grid = ctx.grid
    q0 = expand(grid, from_physical(
        grid, np.sin(grid.x) * np.sin(2 * grid.y) + 0.5 * np.cos(2 * grid.x)))
    budget = diag.energy_budget_transport(q0, ctx.noise, config.epsilon)
    velocity = make_initial(config.initial_kind, grid, config.initial_params)
    record = run_scalar_transport(config, q0, velocity, ctx=ctx)
    _write_csv(out / "transport.csv", ("time", "tracer_energy"), _trajectory_rows(record))
    with open(out / "summary.txt", "w") as fh:
        for key in ("diffusion_loss", "noise_intake", "residual"):
            fh.write(f"{key} {budget[key]!r}\n")
        energies = record.diagnostics["energy"]
        drift = abs(energies[-1] - energies[0]) / energies[0]
        fh.write(f"relative_energy_drift {float(drift)!r}\n")
    outputs = ["transport.csv", "summary.txt", "manifest.json"]
    make_manifest(config, study, outputs).write(out / "manifest.json")
    print(f"transport: residual {budget['residual']:.3e} -> {out / 'transport.csv'}")
    return 0


def cmd_validate(config: SolverConfig, study: dict, out: Path, jobs: int) -> int:
    from .validation import run_validation_suite

    # the suite uses no initial field, but an unusable snapshot is a config error here too
    make_initial(config.initial_kind, TorusGrid(config.n_modes), config.initial_params)
    results = run_validation_suite(config)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += 0 if ok else 1
    make_manifest(config, study, ["manifest.json"]).write(out / "manifest.json")
    if failed:
        print(f"validate: {failed} invariant(s) failed")
        return 3
    print(f"validate: all {len(results)} invariants passed")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "converge": cmd_converge,
    "transport": cmd_transport,
    "validate": cmd_validate,
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error: exit 2 means blow-up
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(prog="lu-flow")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="ensemble fan-out bound, >= 1")
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        config, study = parse_config(Path(args.config).read_text())
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)  # fails when --out names a file
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](config, study, out, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
