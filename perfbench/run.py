"""lu-flow benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding ``src/lu_flow``).
The runner is one process issuing one ``lu-flow`` command at a time (a closed
loop) until ``--seconds`` have passed.  Each command is a fresh interpreter
running ``perfbench/hook.py``, which calls ``lu_flow.cli.main`` as the
``lu-flow`` console script does.  After each command the runner checks its
outputs; a command that raises, exits non-zero or fails its check is a failed
operation.

``--trace 0`` reports the end-to-end metrics of the workload over its
successful commands: ``steps_per_s`` as all their member-steps over all their
solve time, the others as medians.  ``--trace 1`` runs the traced layer pass
instead, whatever the workload: an untraced and a traced ``simulate_n64``
command, then traced ``converge_n32`` and ``ensemble_n32_jobs2`` commands,
repeated until ``--seconds`` have passed; each per-layer metric is the median
over passes of its value on the workload named in ``LAYER_METRICS``.

Inputs come from ``--seed`` alone: the seed picks one of ``VARIANTS`` initial
fields and noise paths, and the program sees only the generated config.  The
runner sets no thread variable; it records them, with the machine and library
versions, in its output.  Everything it writes goes to ``.perfbench/`` in the
checkout.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
VARIANTS = 16
RUN_LIMIT_S = 170.0  # every run must end within 180 s
REFERENCE_RTOL = 1e-8
MAX_DIV_LIMIT = 1e-12
AGGREGATE_RTOL = 1e-9
SLOPE_RANGE = (0.8, 1.2)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    command: str
    n_modes: int
    t_end: float
    members: int = 1
    jobs: int = 1


# Shared physics for every workload: Re = 100, eps = 0.1, dt = 1e-3, K = 8
# noise modes with r = 3 and cross-shell mixing, a random_band field with
# k <= N/4 and energy 1.  Sizes keep one command to a few seconds on two
# cores, so a 50 s run holds about a dozen commands.
WORKLOADS = {
    "simulate_n64": Workload("simulate", 64, 0.3),
    "converge_n32": Workload("converge", 32, 0.1, members=4),
    "ensemble_n32_jobs2": Workload("ensemble", 32, 0.1, members=8, jobs=2),
    "simulate_n128": Workload("simulate", 128, 0.1),
}

END_TO_END = {
    "steps_per_s": "member-steps/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYERS = ("spectral", "noise", "operators", "solver", "diagnostics", "cli")  # config counts as cli

# name -> (unit, workload it is measured on in the traced pass)
LAYER_METRICS = {
    "spectral.fft2d_per_step": ("count", "simulate_n64"),
    "spectral.fft_bytes_per_step": ("B", "simulate_n64"),
    "spectral.transform_ms_per_step": ("ms", "simulate_n64"),
    "spectral.project_ms_per_step": ("ms", "simulate_n64"),
    "operators.B_ms_per_step": ("ms", "simulate_n64"),
    "operators.F_ms_per_step": ("ms", "simulate_n64"),
    "operators.noise_ms_per_step": ("ms", "simulate_n64"),
    "solver.step_self_ms": ("ms", "simulate_n64"),
    "solver.step_ms_p50": ("ms", "simulate_n64"),
    "solver.step_ms_p90": ("ms", "simulate_n64"),
    "solver.run_self_ms_per_step": ("ms", "converge_n32"),
    "noise.context_ms": ("ms", "converge_n32"),
    "noise.context_builds": ("count", "converge_n32"),
    "noise.path_ms_per_member": ("ms", "converge_n32"),
    "diagnostics.study_self_s": ("s", "converge_n32"),
    "diagnostics.snapshot_mb": ("MiB", "converge_n32"),
    "cli.parse_ms": ("ms", "simulate_n64"),
    "cli.write_s": ("s", "ensemble_n32_jobs2"),
    "cli.pool_wait_s": ("s", "ensemble_n32_jobs2"),
    "cli.worker_cpu_s_per_member": ("s", "ensemble_n32_jobs2"),
    "cli.inproc_cpu_s_per_member": ("s", "converge_n32"),
    **{f"{layer}.{kind}": (unit, "converge_n32")
       for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "trace.overhead_pct": ("%", "simulate_n64"),
    "trace.unattributed_pct": ("%", "simulate_n64"),
}

TRACE_PASS = (("simulate_n64", "time"), ("simulate_n64", "trace"),
              ("converge_n32", "trace"), ("ensemble_n32_jobs2", "trace"))


class CheckFailed(Exception):
    """An output of the program is missing or outside its tolerance."""


# ---------------------------------------------------------------------------
# inputs

def make_config(workload: Workload, seed: int) -> dict:
    variant = seed % VARIANTS
    n = workload.n_modes
    doc = {
        "N": n, "Re": 100.0, "eps": 0.1, "dt": 1e-3, "T": workload.t_end,
        "record_every": 10,
        "initial": {"kind": "random_band", "k_min": 1, "k_max": n // 4, "energy": 1.0,
                    "seed": variant},
        "noise": {"K": 8, "r": 3.0, "amp": 1.0, "seed": 1000 + variant, "mix": True},
    }
    if workload.command != "simulate":
        doc["study"] = {"epsilons": [0.2, 0.1, 0.05], "ensemble_size": workload.members}
    return doc


def n_records(workload: Workload) -> int:
    return round(workload.t_end / 1e-3) // 10 + 1


# ---------------------------------------------------------------------------
# output checks

def _read_csv(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b) + atol


def check_simulate(name: str, workload: Workload, seed: int, out: Path) -> None:
    rows = _read_csv(out / "trajectory.csv")
    ref_path = HERE / "reference" / f"{name}.json"
    try:
        ref = json.loads(ref_path.read_text())["variants"][str(seed % VARIANTS)]
    except (OSError, KeyError) as exc:
        raise CheckFailed(f"no reference trajectory for variant {seed % VARIANTS}: {exc}") from exc
    if len(rows) != n_records(workload) or [r["time"] for r in rows] != ref["time"]:
        raise CheckFailed(f"trajectory.csv has {len(rows)} records, expected {len(ref['time'])}")
    for row, energy, enstrophy in zip(rows, ref["energy"], ref["enstrophy"]):
        if not row["max_div"] <= MAX_DIV_LIMIT:
            raise CheckFailed(f"max_div {row['max_div']!r} at t={row['time']} above {MAX_DIV_LIMIT}")
        if not (_close(row["energy"], energy, REFERENCE_RTOL)
                and _close(row["enstrophy"], enstrophy, REFERENCE_RTOL)):
            raise CheckFailed(f"energy/enstrophy at t={row['time']} differ from the reference "
                              f"by more than {REFERENCE_RTOL} relative")


def check_converge(name: str, workload: Workload, seed: int, out: Path) -> None:
    rows = _read_csv(out / "convergence.csv")
    if [r["epsilon"] for r in rows] != [0.2, 0.1, 0.05]:
        raise CheckFailed(f"convergence.csv epsilons {[r['epsilon'] for r in rows]}")
    for col in ("rms_sup_h_error", "rms_int_v_sq_error"):
        errs = [r[col] for r in rows]
        if not all(a > b > 0 for a, b in zip(errs, errs[1:])):
            raise CheckFailed(f"{col} does not fall with epsilon: {errs}")
    try:
        summary = dict(line.split(" ", 1) for line in
                       (out / "summary.txt").read_text().splitlines())
        slope = float(summary["fitted_slope"])
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"summary.txt: {exc}") from exc
    if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        raise CheckFailed(f"fitted_slope {slope} outside {SLOPE_RANGE}")
    if summary.get("ensemble_size") != str(workload.members) or summary.get("shared_path") != "true":
        raise CheckFailed(f"summary.txt: {summary}")


def check_ensemble(name: str, workload: Workload, seed: int, out: Path) -> None:
    rows = _read_csv(out / "members.csv")
    agg = _read_csv(out / "aggregate.csv")
    per_member = {m: [r for r in rows if r["member"] == m] for m in range(workload.members)}
    times = [r["time"] for r in agg]
    if len(rows) != workload.members * n_records(workload) or len(times) != n_records(workload):
        raise CheckFailed(f"members.csv has {len(rows)} rows, aggregate.csv {len(times)}")
    for m, member_rows in per_member.items():
        if [r["time"] for r in member_rows] != times:
            raise CheckFailed(f"member {m} rows missing or out of step with aggregate.csv")
    for i, row in enumerate(agg):
        energies = [per_member[m][i]["energy"] for m in per_member]
        enstrophies = [per_member[m][i]["enstrophy"] for m in per_member]
        expected = (statistics.fmean(energies), statistics.stdev(energies),
                    statistics.fmean(enstrophies))
        got = (row["mean_energy"], row["std_energy"], row["mean_enstrophy"])
        if not all(_close(g, e, AGGREGATE_RTOL, 1e-12) for g, e in zip(got, expected)):
            raise CheckFailed(f"aggregate.csv at t={row['time']} is {got}, mean over "
                              f"members.csv gives {expected}")


CHECKS = {"simulate": check_simulate, "converge": check_converge, "ensemble": check_ensemble}


# ---------------------------------------------------------------------------
# one command

@dataclass
class Op:
    workload: str
    mode: str
    ok: bool
    error: str | None
    metrics: dict


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_op(root: Path, name: str, seed: int, mode: str, opdir: Path, timeout: float) -> Op:
    workload = WORKLOADS[name]
    out = opdir / "out"
    out.mkdir(parents=True)
    config = opdir / "config.json"
    config.write_text(json.dumps(make_config(workload, seed)))
    argv = [workload.command, "--config", str(config), "--out", str(out)]
    if workload.jobs > 1:
        argv += ["--jobs", str(workload.jobs)]
    env = dict(os.environ)
    env.pop("LU_FLOW_SEED", None)  # the generated config alone sets the seeds
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "hook.py"), mode, str(opdir), *argv],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        return Op(name, mode, False, f"timeout after {timeout:.0f} s", {})
    _kill_group(proc)  # leftover pool workers, if any
    if proc.returncode != 0:
        lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
        error = lines[-1] if lines else "no message"
        return Op(name, mode, False, f"exit {proc.returncode}: {error}", {})
    try:
        CHECKS[workload.command](name, workload, seed, out)
        metrics = (op_metrics if mode == "time" else trace_metrics)(opdir, proc.pid, t_spawn)
    except CheckFailed as exc:
        return Op(name, mode, False, f"check failed: {exc}", {})
    return Op(name, mode, True, None, metrics)


def _timing_lines(opdir: Path) -> dict[int, list]:
    return {int(p.suffix[1:]): [json.loads(line) for line in p.read_text().splitlines()]
            for p in opdir.glob("timing.*")}


def op_metrics(opdir: Path, pid: int, t_spawn: float) -> dict:
    lines = _timing_lines(opdir)
    main_end = next(ln for ln in lines[pid] if ln[0] == "main_end")
    first = min(ln[1] for lns in lines.values() for ln in lns if ln[0] == "first_step")
    runs = [ln for lns in lines.values() for ln in lns if ln[0] == "run_end"]
    worker_rss = sum(max(ln[3] for ln in lns if ln[0] == "run_end")
                     for p, lns in lines.items() if p != pid)
    steps, solve = sum(ln[2] for ln in runs), max(ln[1] for ln in runs) - first
    return {
        "member_steps": steps,
        "solve_s": solve,
        "steps_per_s": steps / solve,
        "wall_s": main_end[1] - t_spawn,
        "setup_s": first - t_spawn,
        "peak_rss_mb": (main_end[2]["self"]["maxrss_kib"] + worker_rss) / 1024.0,
    }


# ---------------------------------------------------------------------------
# traced commands

def _layer(span_name: str) -> str:
    module = span_name.split(".", 1)[0]
    return "cli" if module == "config" else module


def trace_metrics(opdir: Path, pid: int, t_spawn: float) -> dict:
    """Per-layer figures of one traced command, from its spans."""
    doc = json.loads((opdir / "spans.json").read_text())
    spans = doc["spans"]
    main_end = next(ln for ln in _timing_lines(opdir)[pid] if ln[0] == "main_end")
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_step = [False] * n
    in_context = [False] * n  # inside a build_context or a first cache fill
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            child[parent] += dur[i]
            in_step[i] = in_step[parent] or spans[parent][0] == "solver.step"
            in_context[i] = in_context[parent] or _is_context(spans[parent][0])
    self_t = [d - c for d, c in zip(dur, child)]
    # per-step work: inside a step, but not the one-off cache fills of the first step
    per_step = [a and not (b or _is_context(s[0])) for a, b, s in zip(in_step, in_context, spans)]
    steps = [i for i, s in enumerate(spans) if s[0] == "solver.step"]

    def step_self(*names):
        return sum(self_t[i] for i in range(n) if per_step[i] and spans[i][0] in names)

    def total(name):
        return sum(dur[i] for i in range(n) if spans[i][0] == name)

    m = {"cpu_self_s": main_end[2]["self"]["cpu_s"],
         "cpu_children_s": main_end[2]["children"]["cpu_s"],
         "parse_ms": 1e3 * total("config.parse_config"),
         "write_s": total("cli._write_csv") + total("config.RunManifest.write"),
         "pool_wait_s": total("cli.pool")}
    for layer in LAYERS:
        idx = [i for i in range(n) if _layer(spans[i][0]) == layer]
        m[f"{layer}.self_s"] = sum(self_t[i] for i in idx)
        m[f"{layer}.calls"] = len(idx)
    runs = [i for i in range(n) if spans[i][0] == "solver.run"]
    m["member_runs"] = len(runs)
    m["snapshot_mb"] = sum(spans[i][6] for i in runs) / 2**20
    m["path_ms"] = [1e3 * dur[i] for i in range(n) if spans[i][0] == "noise.WienerPath"]
    m["context_ms"] = 1e3 * sum(dur[i] for i in range(n)
                                if _is_context(spans[i][0]) and not in_context[i])
    m["context_builds"] = sum(1 for s in spans if s[0] == "solver.build_context")
    solver_children = {"solver.run", "solver.run_deterministic", "solver.build_context"}
    m["study_self_s"] = sum(dur[i] - sum(dur[j] for j in range(n) if spans[j][3] == i
                                         and spans[j][0] in solver_children)
                            for i in range(n) if spans[i][0] == "diagnostics.epsilon_convergence_study")
    if not steps:
        return m
    k = len(steps)
    step_ms = sorted(1e3 * dur[i] for i in steps)
    solve = max(spans[i][2] for i in runs) - spans[steps[0]][1]
    covered = sum(dur[i] for i in range(n) if spans[i][3] < 0) + (doc["import"][1] - doc["import"][0])
    m.update({
        "steps": k,
        "steps_per_s": k / solve,
        "fft2d_per_step": sum(spans[i][4] for i in range(n) if per_step[i]) / k,
        "fft_bytes_per_step": sum(spans[i][5] for i in range(n) if per_step[i]) / k,
        "transform_ms_per_step": 1e3 * step_self("spectral.to_physical", "spectral.from_physical") / k,
        "project_ms_per_step": 1e3 * step_self("spectral.leray_project",
                                               "spectral.hermitian_symmetrize") / k,
        "B_ms_per_step": 1e3 * step_self("operators.apply_B") / k,
        "F_ms_per_step": 1e3 * step_self("operators.apply_F") / k,
        "noise_ms_per_step": 1e3 * step_self("operators.noise_increment") / k,
        "step_self_ms": 1e3 * sum(self_t[i] for i in steps) / k,
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": statistics.quantiles(step_ms, n=10)[8],
        "run_self_ms_per_step": 1e3 * sum(self_t[i] for i in runs) / k,
        "unattributed_pct": 100.0 * ((main_end[1] - t_spawn) - covered) / solve,
    })
    return m


def _is_context(name: str) -> bool:
    return name == "solver.build_context" or name.startswith("operators.OperatorContext.")


def layer_pass_metrics(ops: dict[tuple, Op]) -> dict:
    """The per-layer metrics of one traced pass, keyed as in LAYER_METRICS."""
    sim = ops[("simulate_n64", "trace")].metrics
    conv = ops[("converge_n32", "trace")].metrics
    ens = ops[("ensemble_n32_jobs2", "trace")].metrics
    untraced = ops[("simulate_n64", "time")].metrics
    out = {f"spectral.{k}": sim[k] for k in ("fft2d_per_step", "fft_bytes_per_step",
                                              "transform_ms_per_step", "project_ms_per_step")}
    out.update({f"operators.{k}": sim[k] for k in ("B_ms_per_step", "F_ms_per_step",
                                                    "noise_ms_per_step")})
    out.update({f"solver.{k}": sim[k] for k in ("step_self_ms", "step_ms_p50", "step_ms_p90")})
    out["solver.run_self_ms_per_step"] = conv["run_self_ms_per_step"]
    out["noise.context_ms"] = conv["context_ms"]
    out["noise.context_builds"] = conv["context_builds"]
    out["noise.path_ms_per_member"] = statistics.fmean(conv["path_ms"])
    out["diagnostics.study_self_s"] = conv["study_self_s"]
    out["diagnostics.snapshot_mb"] = conv["snapshot_mb"]
    out["cli.parse_ms"] = sim["parse_ms"]
    out["cli.write_s"] = ens["write_s"]
    out["cli.pool_wait_s"] = ens["pool_wait_s"]
    out["cli.worker_cpu_s_per_member"] = ens["cpu_children_s"] / WORKLOADS["ensemble_n32_jobs2"].members
    out["cli.inproc_cpu_s_per_member"] = conv["cpu_self_s"] / conv["member_runs"]
    for layer in LAYERS:
        for kind in ("self_s", "calls"):
            out[f"{layer}.{kind}"] = conv[f"{layer}.{kind}"]
    out["trace.overhead_pct"] = 100.0 * (untraced["steps_per_s"] / sim["steps_per_s"] - 1.0)
    out["trace.unattributed_pct"] = sim["unattributed_pct"]
    out["solver.step_samples"] = sim["steps"]
    return out


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "platform": platform.platform(),
           "cpu_model": None,
           "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES}}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name")), None)
    except OSError:
        pass
    for lib in ("numpy", "scipy"):
        try:
            mod = __import__(lib)
            env[lib] = mod.__version__
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[f"{lib}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        except (ImportError, KeyError, TypeError) as exc:
            env.setdefault(lib, f"unavailable: {exc}")
    return env


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "lu_flow" / "cli.py").is_file():
        print(f"perfbench: no lu_flow sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    rundir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    plan = TRACE_PASS if args.trace else ((args.workload, "time"),)
    ops: list[Op] = []
    passes: list[dict] = []
    while True:
        done = {}
        for name, mode in plan:
            opdir = rundir / f"op{len(ops):03d}-{name}-{mode}"
            op = run_op(root, name, args.seed, mode, opdir,
                        RUN_LIMIT_S - (time.monotonic() - t0))
            ops.append(op)
            done[(name, mode)] = op
            print(f"op {len(ops)}: {name} [{mode}] "
                  + ("ok" if op.ok else f"FAILED {op.error}"), flush=True)
            if op.ok and mode == "time":
                shutil.rmtree(opdir)  # keep spans and failed outputs only
        if args.trace and all(op.ok for op in done.values()):
            passes.append(layer_pass_metrics(done))
        if time.monotonic() - t0 >= args.seconds:
            break

    failed = [op for op in ops if not op.ok]
    if args.trace:
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        values = {k: statistics.median(p[k] for p in passes) for k in units} if passes else {}
        samples = {k: len(passes) for k in units}
    else:
        good = [op.metrics for op in ops if op.ok]
        units = END_TO_END
        values = {k: statistics.median(m[k] for m in good) for k in units} if good else {}
        if good:  # throughput over the whole run: all member-steps over all solve time
            values["steps_per_s"] = (sum(m["member_steps"] for m in good)
                                     / sum(m["solve_s"] for m in good))
        samples = {k: len(good) for k in units}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": make_config(WORKLOADS[args.workload], args.seed),
              "environment": env, "error_rate": len(failed) / len(ops),
              "errors": sorted({op.error for op in failed}),
              "metrics": metrics, "passes": passes,
              "ops": [{"workload": op.workload, "mode": op.mode, "ok": op.ok,
                       "error": op.error, "metrics": op.metrics} for op in ops]}
    (rundir / "result.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"\nenvironment: {json.dumps(env)}")
    print(f"{'metric':34} {'value':>16}  unit            samples  measured on")
    print(f"{'error_rate':34} {report['error_rate']:>16.4g}  failed/attempted {len(ops)}")
    for name, unit in units.items():
        where = LAYER_METRICS[name][1] if args.trace else args.workload
        value = f"{values[name]:16.6g}" if name in values else f"{'-':>16}"
        print(f"{name:34} {value}  {unit:15} {samples[name]:7}  {where}")
    if args.trace and passes:
        steps = statistics.median(p["solver.step_samples"] for p in passes)
        print(f"solver.step_ms_p50/p90 are over {steps:.0f} steps per traced simulate command")
    for error in report["errors"]:
        print(f"error: {error}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
