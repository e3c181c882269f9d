"""The benchmark's correctness gate, run on this code.

``perfbench/run.py`` counts an operation as failed when its outputs fail
the workload's check, and its metrics need the timing lines that
``perfbench/hook.py`` writes.  This runs one ``time`` operation of each
gated workload, ``simulate_n64`` and ``converge_n32``, as the runner does
and applies the same check, so a change that would fail the benchmark fails
here first.  It reads ``perfbench/`` and writes only under the test's
temporary directory.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_runner(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it loads
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _passes_the_benchmark_check(tmp_path, monkeypatch, name, run_steps):
    """One ``time`` operation of workload ``name``: its check passes, and its
    runs log one first step and, in order, ``run_steps`` steps each."""
    bench = _load_runner(monkeypatch)
    seed = 1
    workload = bench.WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bench.make_config(workload, seed)))
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    env.pop("LU_FLOW_SEED", None)  # as the runner does: the config alone sets the seeds
    proc = subprocess.run([sys.executable, str(PERFBENCH / "hook.py"), "time", str(tmp_path),
                           workload.command, "--config", str(config), "--out", str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    bench.CHECKS[workload.command](name, workload, seed, out)  # raises CheckFailed
    lines = [json.loads(line) for path in tmp_path.glob("timing.*")
             for line in path.read_text().splitlines()]
    assert [ln[0] for ln in lines].count("first_step") == 1
    assert [ln[2] for ln in lines if ln[0] == "run_end"] == run_steps


def test_simulate_n64_passes_the_benchmark_check(tmp_path, monkeypatch):
    _passes_the_benchmark_check(tmp_path, monkeypatch, "simulate_n64", [300])


def test_converge_n32_passes_the_benchmark_check(tmp_path, monkeypatch):
    # the eps = 0 reference, then 4 members at each of 3 eps, all on shared paths
    _passes_the_benchmark_check(tmp_path, monkeypatch, "converge_n32", [100] * 13)
