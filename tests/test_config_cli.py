"""Config parsing, manifests, and the lu-flow command line."""

import json
import os
import pickle
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lu_flow.cli import main
from lu_flow.config import ConfigError, config_hash, make_manifest, parse_config
from lu_flow.solver import SolverConfig
from lu_flow.spectral import SNAPSHOT_MAGIC, SNAPSHOT_VERSION, TorusGrid, save_snapshot


def test_parse_minimal_defaults():
    config, study = parse_config("{}")
    assert config.n_modes == 32
    assert config.reynolds == 100.0
    assert config.epsilon == 0.1
    assert config.dt == 1e-3
    assert config.t_end == 1.0
    assert config.k_modes == 4
    assert config.spectrum_exponent == 3.0
    assert config.amplitude == 1.0
    assert config.seed == 0
    assert config.noise_mixing is False
    assert config.initial_kind == "taylor_green"
    assert study["ensemble_size"] == 64
    assert config == SolverConfig()  # the defaults are SolverConfig's


def test_parse_overrides():
    text = json.dumps({
        "N": 16, "Re": 50.0, "eps": 0.2, "dt": 2e-3, "T": 0.5,
        "noise": {"K": 2, "r": 2.0, "amp": 0.5, "seed": 7, "mix": True},
        "initial": {"kind": "random_band", "k_min": 1, "k_max": 3},
        "study": {"epsilons": [0.1, 0.05], "ensemble_size": 8},
    })
    config, study = parse_config(text)
    assert config.n_modes == 16 and config.reynolds == 50.0
    assert config.k_modes == 2 and config.seed == 7 and config.noise_mixing
    assert config.initial_kind == "random_band"
    assert config.initial_params == {"k_min": 1, "k_max": 3}
    assert study["epsilons"] == [0.1, 0.05] and study["ensemble_size"] == 8


def test_invalid_json_names_line():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{\n  bad\n}")


# (config, the field its test id names, the full message)
BAD_VALUES = [
    ({"dt": -1.0}, "dt", "field 'dt' must be positive, got -1.0"),
    ({"T": 0}, "T", "field 'T' must be positive, got 0"),
    ({"N": 13}, "N", "field 'N' must be even, got 13"),
    ({"N": 4}, "N", "field 'N' must be >= 8, got 4"),
    ({"eps": 2.0}, "eps", "field 'eps' must lie in [0, 1], got 2.0"),
    ({"Re": -5.0}, "Re", "field 'Re' must be positive, got -5.0"),
    ({"record_every": 0}, "record_every", "field 'record_every' must be >= 1, got 0"),
    ({"noise": {"K": 0}}, "noise.K", "field 'noise.K' must be >= 1, got 0"),
    ({"noise": {"seed": -1}}, "noise.seed", "field 'noise.seed' must be >= 0, got -1"),
    ({"noise": {"mix": 1}}, "noise.mix", "field 'noise.mix' must be a boolean, got 1"),
    ({"eps": float("nan")}, "eps", "field 'eps' must be a finite number, got nan"),
    ({"Re": float("nan")}, "Re", "field 'Re' must be a finite number, got nan"),
    ({"Re": float("inf")}, "Re", "field 'Re' must be a finite number, got inf"),
    ({"noise": [1]}, "noise", "field 'noise' must be a JSON object, got [1]"),
    ({"initial": "taylor_green"}, "initial",
     "field 'initial' must be a JSON object, got 'taylor_green'"),
    ({"study": 3}, "study", "field 'study' must be a JSON object, got 3"),
    ({"T": 1e300, "dt": 1e-300}, "T",
     "fields 'T' and 'dt' give more steps than a float holds: T = 1e+300, dt = 1e-300"),
    ({"N": 16.0}, "N", "field 'N' must be an integer, got 16.0"),
    ({"N": True}, "N", "field 'N' must be numeric, got True"),
    ({"Re": 0}, "Re", "field 'Re' must be positive, got 0"),
    ({"noise": {"r": 0}}, "noise.r", "field 'noise.r' must be positive, got 0"),
    ({"noise": {"amp": -1}}, "noise.amp", "field 'noise.amp' must be >= 0.0, got -1"),
    ({"noise": {"seed": 1.5}}, "noise.seed", "field 'noise.seed' must be an integer, got 1.5"),
    ({"N": 16, "noise": {"K": 500}}, "noise.K", "field 'noise.K' must be <= 224 at N=16, got 500"),
    ({"T": 0.05, "dt": 0.03}, "T", "t_end must be an integer multiple of dt"),
    ({"T": 0.01, "dt": 0.03}, "T", "t_end must be at least dt"),
    ({"initial": {"kind": ["x"]}}, "initial.kind", "unknown initial condition ['x']"),
    ({"initial": {"kind": "random_band", "energy": -1}}, "initial.energy",
     "field 'initial.energy' must be positive, got -1"),
    ({"initial": {"kind": "file"}}, "initial.path",
     "field 'initial.path' is required for kind 'file'"),
]


@pytest.mark.parametrize("doc,message", [
    pytest.param(doc, message, id=f"doc{i}-{field}")
    for i, (doc, field, message) in enumerate(BAD_VALUES)])
def test_bad_values_name_field(doc, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(json.dumps(doc))


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key 'viscosity'"):
        parse_config('{"viscosity": 1.0}')
    with pytest.raises(ConfigError, match="noise.bogus"):
        parse_config('{"noise": {"bogus": 1}}')


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("LU_FLOW_SEED", "99")
    config, _ = parse_config('{"noise": {"seed": 3}}')
    assert config.seed == 99
    manifest = make_manifest(config, None, [])
    assert manifest.seed == 99 and manifest.seed_overridden


def test_config_hash_canonicalization():
    a, sa = parse_config('{"N": 32, "Re": 100.0}')
    b, sb = parse_config('{"Re": 100.0, "N": 32}')
    c, sc = parse_config('{"Re": 200.0}')
    assert config_hash(a, sa) == config_hash(b, sb)
    assert config_hash(a, sa) != config_hash(c, sc)
    # round trip: hashing the canonicalized config of a parsed manifest matches
    manifest = make_manifest(a, sa, [])
    reparsed, restudy = parse_config(json.dumps(manifest.config))
    assert config_hash(reparsed, restudy) == manifest.config_hash


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL = {"N": 16, "T": 0.02, "dt": 2e-3, "record_every": 2,
         "noise": {"K": 2, "seed": 5}}


def test_cli_simulate_deterministic(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    csv1 = (out1 / "trajectory.csv").read_bytes()
    assert csv1 == (out2 / "trajectory.csv").read_bytes()
    header = csv1.decode().splitlines()[0]
    assert header == "time,energy,enstrophy,h_norm,v_norm,max_div"
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert manifest["seed"] == 5
    assert "trajectory.csv" in manifest["outputs"]
    assert manifest["config"]["noise"]["seed"] == 5


def test_cli_ensemble(tmp_path):
    doc = dict(SMALL, study={"ensemble_size": 3})
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    members = (out / "members.csv").read_text().splitlines()
    assert members[0] == "member,time,energy,enstrophy,h_norm,v_norm,max_div"
    member_ids = {row.split(",")[0] for row in members[1:]}
    assert member_ids == {"0", "1", "2"}
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "time,mean_energy,std_energy,mean_enstrophy"
    assert len(agg) - 1 == (len(members) - 1) // 3


def _count_context_builds(monkeypatch) -> list:
    """Rebind build_context in every lu_flow module to a counting wrapper."""
    import lu_flow.solver as solver
    import lu_flow.validation  # noqa: F401  (cli imports it only when validate runs)

    real, calls = solver.build_context, []

    def counting(config):
        calls.append(config)
        return real(config)

    for name, mod in list(sys.modules.items()):
        if (name == "lu_flow" or name.startswith("lu_flow.")) and \
                getattr(mod, "build_context", None) is real:
            monkeypatch.setattr(mod, "build_context", counting)
    return calls


def test_cli_ensemble_builds_one_context(tmp_path, monkeypatch):
    calls = _count_context_builds(monkeypatch)
    cfg = _write_config(tmp_path, dict(SMALL, study={"ensemble_size": 4}))
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "ens"),
                 "--jobs", "1"]) == 0
    assert len(calls) == 1


def test_cli_validate_builds_one_context(tmp_path, monkeypatch):
    calls = _count_context_builds(monkeypatch)
    cfg = _write_config(tmp_path, SMALL)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) in (0, 3)
    assert len(calls) == 1


def test_cli_ensemble_jobs_agree_bytewise(tmp_path):
    cfg = _write_config(tmp_path, dict(SMALL, study={"ensemble_size": 4},
                                       noise={"K": 4, "seed": 3, "mix": True}))
    for jobs in ("1", "2"):
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    for name in ("members.csv", "aggregate.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_cli_ensemble_pool_is_capped_at_the_member_count(tmp_path, monkeypatch):
    # a pool starts all its workers, so --jobs 64 for 3 members must ask for 3;
    # the fake pool maps in this process and starts none
    import lu_flow.cli as cli
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    cfg = _write_config(tmp_path, dict(SMALL, study={"ensemble_size": 3}))
    for jobs in ("64", "1"):
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    assert sizes == [3]
    for name in ("members.csv", "aggregate.csv"):
        assert (tmp_path / "64" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_cli_converge(tmp_path):
    doc = dict(SMALL, T=0.02, study={"epsilons": [0.2, 0.1, 0.05],
                                     "ensemble_size": 4})
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "conv"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "epsilon,rms_sup_h_error,rms_int_v_sq_error"
    assert len(rows) == 4
    summary = (out / "summary.txt").read_text()
    assert "fitted_slope" in summary and "ensemble_size 4" in summary
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert "convergence.csv" in outputs
    assert all((out / name).exists() for name in outputs)


def test_cli_transport(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "tr"
    assert main(["transport", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "transport.csv").read_text().splitlines()
    assert rows[0] == "time,tracer_energy"
    # the header, t = 0 and one row per record_every steps
    assert len(rows) == 1 + round(SMALL["T"] / (SMALL["dt"] * SMALL["record_every"])) + 1
    summary = dict(line.split(" ", 1) for line in
                   (out / "summary.txt").read_text().splitlines())
    assert set(summary) == {"diffusion_loss", "noise_intake", "residual",
                            "relative_energy_drift"}
    assert abs(float(summary["residual"])) <= 1e-9
    assert float(summary["relative_energy_drift"]) < 0.5


def test_cli_validate(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(SMALL, noise={"K": 8, "seed": 5}))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    captured = capsys.readouterr().out
    assert "[PASS]" in captured and "[FAIL]" not in captured


def test_cli_validate_fails_a_model_that_overflowed(tmp_path, capsys):
    # amp 1e300 with mixing makes the modes NaN; their regularity must fail
    cfg = _write_config(tmp_path, {"N": 16, "T": 0.01,
                                   "noise": {"amp": 1e300, "mix": True}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) == 3
    assert "[FAIL] noise_regularity: tail ratio nan" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"dt": -1.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("argv,code", [
    (["simulate"], 1),
    (["simulate", "--config", "config.json", "--jobs", "two"], 1),
    (["evolve", "--config", "config.json"], 1),
    (["--help"], 0),
], ids=["missing-config", "non-integer-jobs", "unknown-command", "help"])
def test_cli_usage_errors_are_config_errors(capsys, argv, code):
    # exit code 2 is a blow-up, so argparse's usage errors must not use it
    try:
        got = main(argv)
    except SystemExit as exc:  # --help prints the usage and exits
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    if code:
        assert captured.err.startswith("config error: ")
    else:
        assert captured.out.startswith("usage: lu-flow") and captured.err == ""


def test_cli_non_utf8_config_is_config_error(tmp_path):
    # in a subprocess, so that an uncaught decode error shows as a traceback
    cfg = tmp_path / "config.json"
    cfg.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x7B]))
    proc = subprocess.run([sys.executable, "-m", "lu_flow.cli", "simulate", "--config",
                           str(cfg), "--out", str(tmp_path / "o")], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_cli_jobs_below_one_is_config_error(tmp_path, capsys, monkeypatch, jobs):
    # rejected before any command runs, so no pool is started
    monkeypatch.setattr("lu_flow.cli.ProcessPoolExecutor", None)
    cfg = _write_config(tmp_path, dict(SMALL, study={"ensemble_size": 2}))
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--jobs", jobs]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_blow_up_exit_code(tmp_path, capsys):
    # save_snapshot refuses a field complex64 cannot hold, so the snapshot is
    # written by hand: the header, then (k1, k2, component) complex64 with
    # one infinite coefficient
    payload = np.zeros((16, 16, 2), np.complex64)
    payload[1, 0, 0] = np.inf
    snap = tmp_path / "huge.npz"
    snap.write_bytes(SNAPSHOT_MAGIC + struct.pack("<III", SNAPSHOT_VERSION, 16, 2)
                     + payload.tobytes())
    doc = dict(SMALL, initial={"kind": "file", "path": str(snap)})
    cfg = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "blow-up" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"N": 16, "T": 1e300}, {"N": 16, "T": 1e15, "dt": 1e-3}],
                         ids=["T1e300", "steps1e18"])
def test_cli_step_count_beyond_an_array_is_config_error(tmp_path, capsys, doc):
    # n_steps x K increments of 8 bytes that numpy cannot index are refused
    # with the config, before --out is made; the Brownian table is never asked for
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: fields 'T', 'dt' and 'noise.K'")
    assert not out.exists()


@pytest.mark.parametrize("mix", [False, True], ids=["pure", "mix"])
@pytest.mark.parametrize("argv,code", [
    (["simulate"], 2), (["ensemble"], 2), (["ensemble", "--jobs", "2"], 2), (["converge"], 2),
    (["transport"], 2), (["validate"], 3),
], ids=["simulate", "ensemble", "ensemble-jobs2", "converge", "transport", "validate"])
def test_cli_overflowing_noise_ends_without_warning(tmp_path, capsys, argv, code, mix):
    # noise.amp 1e300 overflows the noise fields: every noisy run blows up at
    # its first step (exit 2, also through a pool) and validate fails its
    # invariants (exit 3), with no floating-point warning (an error here)
    cfg = _write_config(tmp_path, {"N": 16, "T": 0.01, "noise": {"amp": 1e300, "mix": mix},
                                   "study": {"epsilons": [0.2, 0.1], "ensemble_size": 2}})
    assert main([argv[0], "--config", cfg, "--out", str(tmp_path / "o"), *argv[1:]]) == code
    err = capsys.readouterr().err
    assert ("blow-up: solution blew up at step 1" in err) == (code == 2)


_RUN_COMMANDS = [["simulate"], ["converge"], ["ensemble"], ["ensemble", "--jobs", "2"],
                  ["transport"]]
_RUN_IDS = ["simulate", "converge", "ensemble", "ensemble-jobs2", "transport"]


@pytest.mark.parametrize("argv", _RUN_COMMANDS, ids=_RUN_IDS)
@pytest.mark.parametrize("noise", [{"amp": 5e-324}, {"amp": 1e-200, "mix": True, "K": 8}],
                         ids=["amp-underflow", "mix-weights-underflow"])
def test_cli_noise_whose_modes_underflow_is_no_noise(tmp_path, argv, noise):
    # weights that underflow zero every mode: the run is the one at amp 0,
    # byte for byte, with no error and no floating-point warning
    outputs = []
    for amp in (noise["amp"], 0.0):
        doc = {"N": 16, "T": 0.002, "noise": {**noise, "amp": amp},
               "study": {"epsilons": [0.2, 0.1], "ensemble_size": 2}}
        out = tmp_path / f"o{amp}"
        cfg = _write_config(tmp_path, doc, name=f"config{amp}.json")
        assert main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                        if f.name != "manifest.json"})
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", _RUN_COMMANDS, ids=_RUN_IDS)
@pytest.mark.parametrize("initial", [{"kind": "random_band", "energy": 1e308},
                                     {"kind": "taylor_green", "scale": 1e308}],
                         ids=["energy", "scale"])
def test_cli_overflowing_field_is_blow_up(tmp_path, argv, initial):
    # a field whose diagnostics or transforms overflow ends as a blow-up
    # (exit 2) with no traceback and no floating-point warning; the solver's
    # own CFL warning may show
    cfg = _write_config(tmp_path, {"N": 16, "T": 0.002, "initial": initial,
                                   "study": {"epsilons": [0.2, 0.1], "ensemble_size": 2}})
    proc = subprocess.run([sys.executable, "-m", "lu_flow.cli", argv[0], "--config", cfg,
                           "--out", str(tmp_path / "o"), *argv[1:]], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "blow-up: solution blew up at step" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "encountered in" not in proc.stderr


_BAD_INITIAL = {
    "bogus": ({"kind": "random_band", "bogus": 1}, "bogus"),
    "k_min": ({"kind": "random_band", "k_min": "a"}, "k_min"),
    "k_max": ({"kind": "random_band", "k_max": float("nan")}, "k_max"),
    "scale": ({"kind": "taylor_green", "scale": "x"}, "scale"),
    "energy": ({"kind": "random_band", "energy": -1}, "energy"),
    "energy_inf": ({"kind": "random_band", "energy": float("inf")}, "energy"),
    "seed": ({"kind": "random_band", "seed": 1.5}, "seed"),
    "seed_negative": ({"kind": "random_band", "seed": -1}, "seed"),
    "file_no_path": ({"kind": "file"}, "initial.path"),
    # bands that hold no nonzero, non-Nyquist mode of N = 16 (|k|^2 <= 98)
    "empty_band": ({"kind": "random_band", "k_min": 5, "k_max": 2}, "initial.k_min"),
    "band_beyond_grid": ({"kind": "random_band", "k_min": 10, "k_max": 1e300}, "initial.k_max"),
}


@pytest.mark.parametrize("command,initial,key", [
    pytest.param(command, initial, key, id=name if command == "simulate" else f"{command}-{name}")
    for command in ("simulate", "validate", "converge")
    for name, (initial, key) in _BAD_INITIAL.items()])
def test_cli_unknown_random_band_key_is_config_error(tmp_path, capsys, command, initial, key):
    cfg = _write_config(tmp_path, dict(SMALL, initial=initial))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err
    assert not out.exists()  # the config is refused before any output is made


def test_initial_params_cannot_change_and_pickle():
    # the checked parameters cannot be changed behind the checks, the config
    # still pickles (ensemble --jobs sends it to its workers) and hashes as before
    params = {"k_max": 4, "energy": 2.0}
    config = SolverConfig(n_modes=16, t_end=0.01, initial_kind="random_band",
                          initial_params=params)
    params["energy"] = -1.0  # the config holds its own copy
    changes = (lambda p: p.__setitem__("energy", -1.0), lambda p: p.__delitem__("k_max"),
               lambda p: p.update(energy=-1.0), lambda p: p.pop("energy"), lambda p: p.clear(),
               lambda p: p.popitem(), lambda p: p.setdefault("seed", 3),
               lambda p: p.__ior__({"energy": -1.0}))
    for change in changes:
        with pytest.raises(TypeError, match="cannot be changed"):
            change(config.initial_params)
    assert config.initial_params == {"k_max": 4, "energy": 2.0}
    assert config_hash(config) == "332b3508d6b9df58"  # the hash of the same config as a dict
    again = pickle.loads(pickle.dumps(config))
    assert again == config and config_hash(again) == config_hash(config)
    with pytest.raises(TypeError, match="cannot be changed"):
        again.initial_params["energy"] = -1.0


def test_random_band_bound_too_large_to_square_runs():
    # k_max = 1e300 keeps every mode, as any bound above the grid's |k| does
    from lu_flow.solver import make_initial

    huge = SolverConfig(n_modes=16, initial_kind="random_band", initial_params={"k_max": 1e300})
    grid = TorusGrid(16)
    assert np.array_equal(make_initial("random_band", grid, huge.initial_params),
                          make_initial("random_band", grid, {"k_max": 100}))


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_cli_missing_initial_path_is_config_error(tmp_path, capsys, command):
    doc = dict(SMALL, initial={"kind": "file", "path": str(tmp_path / "nope.bin")})
    cfg = _write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "initial.path" in err and "nope.bin" in err


@pytest.mark.parametrize("path", [2, 0, 3.5, ["x"]], ids=["fd2", "fd0", "float", "list"])
def test_cli_non_string_initial_path_is_config_error(tmp_path, path):
    # in a subprocess: an int path opened as a file descriptor would close
    # the test process's own stdin or stderr.  stdin holds a valid snapshot,
    # so reading fd 0 would succeed.
    snap = tmp_path / "n16.lufs"
    save_snapshot(str(snap), TorusGrid(16), np.zeros((2, 16, 16), complex))
    cfg = _write_config(tmp_path, dict(SMALL, initial={"kind": "file", "path": path}))
    with open(snap, "rb") as stdin:
        proc = subprocess.run([sys.executable, "-m", "lu_flow.cli", "simulate", "--config",
                               cfg, "--out", str(tmp_path / "o")], env=_src_env(),
                              stdin=stdin, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "config error" in proc.stderr and "initial.path" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_out_naming_a_file_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["simulate", "--config", cfg, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert taken.read_text() == ""


def test_cli_snapshot_grid_mismatch_is_config_error(tmp_path, capsys):
    snap = tmp_path / "n32.lufs"
    save_snapshot(str(snap), TorusGrid(32), np.zeros((2, 32, 32), complex))
    doc = dict(SMALL, initial={"kind": "file", "path": str(snap)})  # SMALL runs at N = 16
    cfg = _write_config(tmp_path, doc)
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "N=32" in err and "N=16" in err


@pytest.mark.parametrize("seed", ["abc", "-3"])
def test_cli_bad_env_seed_is_config_error(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.setenv("LU_FLOW_SEED", seed)
    cfg = _write_config(tmp_path, SMALL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "LU_FLOW_SEED" in err


@pytest.mark.parametrize("size", [0, -2, 1.5, "8", True, 1])
def test_cli_bad_ensemble_size_is_config_error(tmp_path, capsys, size):
    # 1 parses, but ensemble reports a sample standard deviation
    cfg = _write_config(tmp_path, dict(SMALL, study={"ensemble_size": size}))
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "study.ensemble_size" in err


@pytest.mark.parametrize("doc,key", [
    ({"study": {"delta": "abc"}}, "study.delta"),
    ({"study": {"dt_coarse": [1, 2]}}, "study.dt_coarse"),
    ({"scheme": "euler_maruyama_semi_implicit"}, "scheme"),
], ids=["delta-abc", "dt_coarse-value1", "scheme"])
def test_cli_removed_study_keys_rejected(tmp_path, capsys, doc, key):
    cfg = _write_config(tmp_path, dict(SMALL, **doc))
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown key '{key}'" in err


@pytest.mark.parametrize("eps", [{}, {"eps": 0}], ids=["noisy", "eps0"])
def test_cli_too_many_noise_modes_is_config_error(tmp_path, capsys, eps):
    # N = 16 holds 224 modes; the noise model is built even when eps = 0
    cfg = _write_config(tmp_path, {"N": 16, "T": 0.01, "noise": {"K": 500}, **eps})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "noise.K" in err and "224" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("epsilons", [["a"], [0.1], [0.1, 0.1], [0.2, 0.0], [1.5, 0.1],
                                      0.1, [0.2, True]])
def test_cli_bad_epsilons_is_config_error(tmp_path, capsys, epsilons):
    cfg = _write_config(tmp_path, dict(SMALL, study={"epsilons": epsilons}))
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "study.epsilons" in err


def test_manifest_tool_version_is_package_version():
    import lu_flow

    config, _ = parse_config("{}")
    assert make_manifest(config, None, []).tool_version == lu_flow.__version__ == "0.1.0"


def test_manifest_records_software_environment(tmp_path):
    import platform

    cfg = _write_config(tmp_path, SMALL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    env = json.loads((tmp_path / "o" / "manifest.json").read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["platform"].startswith(platform.system())


ROOT = Path(__file__).resolve().parents[1]


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def test_cli_import_does_not_load_scipy():
    # no module of the package imports scipy, a test dependency only
    code = "import sys, lu_flow.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_does_not_load_the_process_pool():
    # only a pool that --jobs makes imports concurrent.futures and multiprocessing
    code = ("import sys, lu_flow.cli; "
            "print(any(m.split('.')[0] in ('concurrent', 'multiprocessing') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("jobs,loaded", [("1", False), ("2", True)])
def test_cli_ensemble_loads_the_pool_only_for_jobs(tmp_path, jobs, loaded):
    cfg = _write_config(tmp_path, dict(SMALL, study={"ensemble_size": 2}))
    code = ("import sys, lu_flow.cli; "
            f"code = lu_flow.cli.main(['ensemble', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / 'o')!r}, '--jobs', {jobs!r}]); "
            "print(code, 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", str(loaded)]


def _limit_address_space():
    # in the child only: the table below must fail to allocate, not page out
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("argv", [["simulate"], ["converge"], ["ensemble", "--jobs", "2"]],
                         ids=["simulate", "converge", "ensemble-jobs2"])
def test_cli_brownian_table_beyond_memory_is_config_error(tmp_path, argv):
    # 4e8 steps x 4 increments is an 11.9 GiB table: a config error, also
    # when a pool worker is the one that fails to allocate it
    cfg = _write_config(tmp_path, {"N": 16, "T": 40, "dt": 1e-7,
                                   "study": {"epsilons": [0.2, 0.1], "ensemble_size": 2}})
    proc = subprocess.run([sys.executable, "-m", "lu_flow.cli", argv[0], "--config", cfg,
                           "--out", str(tmp_path / "o"), *argv[1:]], env=_src_env(),
                          preexec_fn=_limit_address_space, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: fields 'T', 'dt' and 'noise.K' ask for a "
                                  "Brownian table of 400000000 steps x 4 increments (11.9 GiB)")


@pytest.mark.parametrize("argv,spans,builds", [
    (["simulate"], {"solver.run", "solver.step", "operators.OperatorContext.a_pad"}, 1),
    (["converge"], {"solver.step", "operators.OperatorContext.a_pad"}, 1),
    (["transport"], {"solver.run_scalar_transport", "operators.OperatorContext.a_pad",
                     "operators.OperatorContext.us"}, 1),
    # the pool is the one patched into cli.ProcessPoolExecutor; its forked
    # workers untrace themselves, so their contexts and runs record no span
    (["ensemble", "--jobs", "2"], {"cli.pool"}, 0),
], ids=["simulate", "converge", "transport", "ensemble-jobs2"])
def test_benchmark_trace_hook_runs(tmp_path, argv, spans, builds):
    # perfbench/hook.py patches lu_flow functions, OperatorContext properties
    # and the CLI's process pool by name, so a rename must fail here, not only
    # in a traced benchmark run
    cfg = _write_config(tmp_path, {"N": 16, "T": 0.01, "dt": 1e-3,
                                   "noise": {"K": 4, "mix": True},
                                   "study": {"epsilons": [0.2, 0.1], "ensemble_size": 2}})
    opdir = tmp_path / "op"
    opdir.mkdir()
    proc = subprocess.run([sys.executable, "perfbench/hook.py", "trace", str(opdir),
                           argv[0], "--config", cfg, "--out", str(tmp_path / "o"), *argv[1:]],
                          cwd=ROOT, env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads((opdir / "spans.json").read_text())["spans"]]
    assert spans <= set(names)
    assert names.count("solver.build_context") == builds
