"""lu-flow command line: simulate | ensemble | converge | transport | validate.

Exit codes: 0 success, 1 config error, 2 blow-up, 3 validation failure.
All numeric outputs are byte-identical across repeated invocations with the
same config on the same platform; wall-clock timestamps live only in the
manifest.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .config import ConfigError, make_manifest, parse_config
from .noise import WienerPath
from .solver import (
    BlowUpError,
    SolverConfig,
    build_context,
    make_initial,
    run,
    run_scalar_transport,
)
from .spectral import SpectralScalar, from_physical

TRAJECTORY_COLUMNS = ("time", "energy", "enstrophy", "h_norm", "v_norm", "max_div")


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _trajectory_rows(record):
    d = record.diagnostics
    for i, t in enumerate(record.times):
        yield (float(t), float(d["energy"][i]), float(d["enstrophy"][i]),
               float(d["h_norm"][i]), float(d["v_norm"][i]), float(d["max_div"][i]))


def _plot(path: Path, xs, curves: dict, xlabel: str, ylabel: str, loglog=False) -> None:
    # decoration only; acceptance reads CSV, never pixels
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
    except Exception as exc:  # pragma: no cover - best effort
        print(f"plot skipped: {exc}", file=sys.stderr)


def cmd_simulate(config: SolverConfig, study: dict, out: Path, jobs: int) -> int:
    record = run(config, member_index=0)
    _write_csv(out / "trajectory.csv", TRAJECTORY_COLUMNS, _trajectory_rows(record))
    outputs = ["trajectory.csv", "manifest.json"]
    make_manifest(config, None, outputs).write(out / "manifest.json")
    print(f"simulate: {len(record.times)} records -> {out / 'trajectory.csv'}")
    return 0


def _member_job(args):
    config, member = args
    record = run(config, member_index=member)
    return member, list(_trajectory_rows(record))


def cmd_ensemble(config: SolverConfig, study: dict, out: Path, jobs: int) -> int:
    members = list(range(int(study["ensemble_size"])))
    if len(members) < 2:
        raise ConfigError("field 'study.ensemble_size' must be >= 2 for ensemble "
                          f"(std_energy is a sample standard deviation), got {len(members)}")
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_member_job, [(config, m) for m in members]))
        results.sort(key=lambda r: r[0])
    else:
        results = [_member_job((config, m)) for m in members]
    rows = [(m, *row) for m, member_rows in results for row in member_rows]
    _write_csv(out / "members.csv", ("member", *TRAJECTORY_COLUMNS), rows)

    times = np.array([row[0] for row in results[0][1]])
    energies = np.stack([[row[1] for row in r[1]] for r in results])
    enstrophies = np.stack([[row[2] for row in r[1]] for r in results])
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
    _plot(out / "convergence.png", report.epsilons,
          {"RMS sup_t H-error": report.errors_h}, "epsilon", "error", loglog=True)
    outputs = ["convergence.csv", "summary.txt", "convergence.png", "manifest.json"]
    make_manifest(config, study, outputs).write(out / "manifest.json")
    print(f"converge: fitted slope {report.fitted_slope:.3f} -> {out / 'convergence.csv'}")
    return 0


def cmd_transport(config: SolverConfig, study: dict, out: Path, jobs: int) -> int:
    ctx = build_context(config)
    grid = ctx.grid
    q0 = SpectralScalar(grid, from_physical(grid, np.sin(grid.x) * np.sin(2 * grid.y)
                                            + 0.5 * np.cos(2 * grid.x)))
    budget = diag.energy_budget_transport(q0, ctx.noise, config.epsilon)
    velocity = make_initial(config.initial_kind, grid, config.initial_params)
    path = None
    if config.epsilon > 0 and config.amplitude != 0:
        path = WienerPath(config.seed, config.dt, config.n_steps, config.k_modes)
    result = run_scalar_transport(q0, velocity, ctx, config.dt, config.t_end, path,
                                  record_every=config.record_every)
    _write_csv(out / "transport.csv", ("time", "tracer_energy"),
               list(zip(result["times"].tolist(), result["energies"].tolist())))
    with open(out / "summary.txt", "w") as fh:
        for key in ("diffusion_loss", "noise_intake", "residual"):
            fh.write(f"{key} {budget[key]!r}\n")
        drift = abs(result["energies"][-1] - result["energies"][0]) / result["energies"][0]
        fh.write(f"relative_energy_drift {float(drift)!r}\n")
    outputs = ["transport.csv", "summary.txt", "manifest.json"]
    make_manifest(config, study, outputs).write(out / "manifest.json")
    print(f"transport: residual {budget['residual']:.3e} -> {out / 'transport.csv'}")
    return 0


def cmd_validate(config: SolverConfig, study: dict, out: Path, jobs: int) -> int:
    from .validation import run_validation_suite

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lu-flow")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="ensemble fan-out bound")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        config, study = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](config, study, out, max(1, args.jobs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
