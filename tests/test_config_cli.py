"""Config parsing, manifests, and the lu-flow command line."""

import json

import numpy as np
import pytest

from lu_flow.cli import main
from lu_flow.config import ConfigError, config_hash, make_manifest, parse_config
from lu_flow.spectral import TorusGrid, save_snapshot


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


@pytest.mark.parametrize("doc,field", [
    ({"dt": -1.0}, "dt"),
    ({"T": 0}, "T"),
    ({"N": 13}, "N"),
    ({"N": 4}, "N"),
    ({"eps": 2.0}, "eps"),
    ({"Re": -5.0}, "Re"),
    ({"record_every": 0}, "record_every"),
    ({"noise": {"K": 0}}, "noise.K"),
    ({"noise": {"seed": -1}}, "noise.seed"),
    ({"noise": {"mix": 1}}, "noise.mix"),
])
def test_bad_values_name_field(doc, field):
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
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


def test_cli_transport(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "tr"
    assert main(["transport", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "transport.csv").read_text().splitlines()
    assert rows[0] == "time,tracer_energy"
    assert len(rows) > 2
    summary = dict(line.split(" ", 1) for line in
                   (out / "summary.txt").read_text().splitlines())
    assert abs(float(summary["residual"])) <= 1e-9
    assert float(summary["relative_energy_drift"]) < 0.5


def test_cli_validate(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(SMALL, noise={"K": 8, "seed": 5}))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    captured = capsys.readouterr().out
    assert "[PASS]" in captured and "[FAIL]" not in captured


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"dt": -1.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_blow_up_exit_code(tmp_path, capsys):
    grid = TorusGrid(16)
    coeffs = np.zeros((2, 16, 16), complex)
    coeffs[0, 1, 0] = 1e200
    snap = tmp_path / "huge.npz"
    with pytest.warns(RuntimeWarning, match="overflow"):  # complex64 payload holds inf
        save_snapshot(str(snap), grid, coeffs)
    doc = dict(SMALL, initial={"kind": "file", "path": str(snap)})
    cfg = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "blow-up" in capsys.readouterr().err


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


@pytest.mark.parametrize("key,value", [("delta", "abc"), ("dt_coarse", [1, 2])])
def test_cli_removed_study_keys_rejected(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, dict(SMALL, study={key: value}))
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown key 'study.{key}'" in err


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
