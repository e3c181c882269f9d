"""Run configuration parsing, canonical hashing and run manifests.

The config file is JSON.  Schema (defaults in parentheses):

    {
      "N": int (32),            # grid modes per dimension, even, >= 8
      "Re": float (100.0),
      "eps": float (0.1),
      "dt": float (1e-3),
      "T": float (1.0),
      "scheme": str ("euler_maruyama_semi_implicit"),
      "record_every": int (10),
      "initial": {"kind": "taylor_green" | "random_band" | "file", ...},
      "noise": {"K": int (4), "r": float (3.0), "amp": float (1.0),
                "seed": int (0), "mix": bool (false)},
      "study": {"epsilons": [float, ...] ([0.2, 0.1, 0.05]),
                "ensemble_size": int (64)}   # optional
    }

``study.epsilons`` holds at least two distinct numbers in (0, 1];
``study.ensemble_size`` is an integer >= 1 (>= 2 for ``ensemble``).
Unknown keys are rejected.
The LU_FLOW_SEED environment variable, when set, overrides the noise seed
(recorded in the manifest); it must be an integer >= 0.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
from dataclasses import dataclass, field

from . import __version__
from .solver import SolverConfig


class ConfigError(ValueError):
    """Schema or physical-validity violation, with the offending field."""


_TOP_DEFAULTS = {
    "N": 32,
    "Re": 100.0,
    "eps": 0.1,
    "dt": 1e-3,
    "T": 1.0,
    "scheme": "euler_maruyama_semi_implicit",
    "record_every": 10,
}
_NOISE_DEFAULTS = {"K": 4, "r": 3.0, "amp": 1.0, "seed": 0, "mix": False}
_INITIAL_DEFAULTS = {"kind": "taylor_green"}
_STUDY_DEFAULTS = {"epsilons": [0.2, 0.1, 0.05], "ensemble_size": 64}


def _take(section: dict, defaults: dict, where: str, extra_ok=()) -> dict:
    out = dict(defaults)
    for key, value in section.items():
        if key not in defaults and key not in extra_ok:
            raise ConfigError(f"unknown key '{where}{key}'")
        out[key] = value
    return out


def _require_number(value, name, *, positive=False, integer=False, minimum=None):
    if integer and not isinstance(value, int):
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be numeric, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"field {name!r} must be positive, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field {name!r} must be >= {minimum}, got {value!r}")
    return value


def _check_epsilons(value) -> None:
    """study.epsilons: at least two distinct numbers in (0, 1]."""
    ok = (isinstance(value, list) and len(value) >= 2
          and all(isinstance(e, (int, float)) and not isinstance(e, bool) and 0 < e <= 1
                  for e in value)
          and len(set(value)) == len(value))
    if not ok:
        raise ConfigError("field 'study.epsilons' must be a list of at least two distinct "
                          f"numbers in (0, 1], got {value!r}")


def _env_seed(default: int) -> int:
    """The LU_FLOW_SEED override if set, else ``default``."""
    raw = os.environ.get("LU_FLOW_SEED")
    if raw is None:
        return default
    error = ConfigError(f"environment variable 'LU_FLOW_SEED' must be an integer >= 0, "
                        f"got {raw!r}")
    try:
        seed = int(raw)
    except ValueError:
        raise error from None
    if seed < 0:
        raise error
    return seed


def parse_config(text: str) -> tuple[SolverConfig, dict]:
    """Validate a JSON config and return (SolverConfig, study parameters)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")

    body = dict(raw)
    noise = _take(body.pop("noise", {}), _NOISE_DEFAULTS, "noise.")
    initial = dict(body.pop("initial", {}))
    if "kind" not in initial:
        initial["kind"] = _INITIAL_DEFAULTS["kind"]
    study = _take(body.pop("study", {}), _STUDY_DEFAULTS, "study.")
    top = _take(body, _TOP_DEFAULTS, "")

    n = _require_number(top["N"], "N", integer=True, minimum=8)
    if n % 2 != 0:
        raise ConfigError(f"field 'N' must be even, got {n}")
    _require_number(top["Re"], "Re", positive=True)
    _require_number(top["dt"], "dt", positive=True)
    _require_number(top["T"], "T", positive=True)
    eps = _require_number(top["eps"], "eps", minimum=0.0)
    if eps > 1.0:
        raise ConfigError(f"field 'eps' must lie in [0, 1], got {eps}")
    _require_number(top["record_every"], "record_every", integer=True, minimum=1)
    _require_number(noise["K"], "noise.K", integer=True, minimum=1)
    _require_number(noise["r"], "noise.r", positive=True)
    _require_number(noise["amp"], "noise.amp", minimum=0.0)
    _require_number(noise["seed"], "noise.seed", integer=True, minimum=0)
    if not isinstance(noise["mix"], bool):
        raise ConfigError(f"field 'noise.mix' must be a boolean, got {noise['mix']!r}")
    _require_number(study["ensemble_size"], "study.ensemble_size", integer=True, minimum=1)
    _check_epsilons(study["epsilons"])
    kind = initial.pop("kind")

    seed = _env_seed(int(noise["seed"]))

    try:
        config = SolverConfig(
            n_modes=int(n), reynolds=float(top["Re"]), epsilon=float(eps),
            dt=float(top["dt"]), t_end=float(top["T"]), k_modes=int(noise["K"]),
            spectrum_exponent=float(noise["r"]), amplitude=float(noise["amp"]),
            seed=seed, scheme=top["scheme"], record_every=int(top["record_every"]),
            initial_kind=kind, initial_params=initial,
            noise_mixing=bool(noise["mix"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, study


def canonical_dict(config: SolverConfig, study: dict | None = None) -> dict:
    doc = {
        "N": config.n_modes, "Re": config.reynolds, "eps": config.epsilon,
        "dt": config.dt, "T": config.t_end, "scheme": config.scheme,
        "record_every": config.record_every,
        "initial": {"kind": config.initial_kind, **config.initial_params},
        "noise": {"K": config.k_modes, "r": config.spectrum_exponent,
                  "amp": config.amplitude, "seed": config.seed,
                  "mix": config.noise_mixing},
    }
    if study is not None:
        doc["study"] = dict(sorted(study.items()))
    return doc


def config_hash(config: SolverConfig, study: dict | None = None) -> str:
    """Stable hex digest of the canonicalized config."""
    payload = json.dumps(canonical_dict(config, study), sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    config_hash: str
    tool_version: str = __version__
    seed: int = 0
    seed_overridden: bool = False
    created_at: str = ""
    outputs: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def write(self, path) -> None:
        doc = dataclasses.asdict(self)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def make_manifest(config: SolverConfig, study: dict | None, outputs: list[str]) -> RunManifest:
    return RunManifest(
        config_hash=config_hash(config, study),
        seed=config.seed,
        seed_overridden="LU_FLOW_SEED" in os.environ,
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs=list(outputs),
        config=canonical_dict(config, study),
    )
