"""Run configuration parsing, canonical hashing and run manifests.

The config file is JSON.  Schema (defaults in parentheses):

    {
      "N": int (32),            # grid modes per dimension, even, >= 8
      "Re": float (100.0),
      "eps": float (0.1),
      "dt": float (1e-3),
      "T": float (1.0),
      "record_every": int (10),
      "initial": {"kind": "taylor_green" | "random_band" | "file", ...},
      "noise": {"K": int (4), "r": float (3.0), "amp": float (1.0),
                "seed": int (0), "mix": bool (false)},
      "study": {"epsilons": [float, ...] ([0.2, 0.1, 0.05]),
                "ensemble_size": int (64)}   # optional
    }

``study.epsilons`` holds at least two distinct numbers in (0, 1];
``study.ensemble_size`` is an integer >= 1 (>= 2 for ``ensemble``).
Unknown keys are rejected; every number must be finite.
The LU_FLOW_SEED environment variable, when set, overrides the noise seed
(recorded in the manifest); it must be an integer >= 0.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .noise import max_modes
from .solver import SolverConfig


class ConfigError(ValueError):
    """Schema or physical-validity violation, with the offending field."""


# the SolverConfig field of each top-level ("") and "noise" key; the defaults,
# and the type a value is cast to, are SolverConfig's
_FIELDS = {
    "": {"N": "n_modes", "Re": "reynolds", "eps": "epsilon", "dt": "dt", "T": "t_end",
         "record_every": "record_every"},
    "noise": {"K": "k_modes", "r": "spectrum_exponent", "amp": "amplitude", "seed": "seed",
              "mix": "noise_mixing"},
}
_STUDY_DEFAULTS = {"epsilons": [0.2, 0.1, 0.05], "ensemble_size": 64}


def _section(body: dict, name: str) -> dict:
    """The JSON object under ``name`` (empty when absent), taken out of ``body``."""
    value = body.pop(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"field {name!r} must be a JSON object, got {value!r}")
    return value


def _defaults(section: str) -> dict:
    return {key: getattr(SolverConfig, name) for key, name in _FIELDS[section].items()}


def _take(section: dict, defaults: dict, where: str) -> dict:
    out = dict(defaults)
    for key, value in section.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{where}{key}'")
        out[key] = value
    return out


def _require_number(value, name, *, positive=False, integer=False, minimum=None):
    if integer and not isinstance(value, int):
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be numeric, got {value!r}")
    # json accepts NaN and Infinity; NaN fails every comparison
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"field {name!r} must be a finite number, got {value!r}")
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
    noise = _take(_section(body, "noise"), _defaults("noise"), "noise.")
    initial = dict(_section(body, "initial"))
    kind = initial.pop("kind", SolverConfig.initial_kind)
    study = _take(_section(body, "study"), _STUDY_DEFAULTS, "study.")
    top = _take(body, _defaults(""), "")

    n = _require_number(top["N"], "N", integer=True, minimum=8)
    if n % 2 != 0:
        raise ConfigError(f"field 'N' must be even, got {n}")
    _require_number(top["Re"], "Re", positive=True)
    _require_number(top["dt"], "dt", positive=True)
    _require_number(top["T"], "T", positive=True)
    if top["T"] / top["dt"] > sys.float_info.max:
        raise ConfigError(f"fields 'T' and 'dt' give more steps than a float holds: "
                          f"T = {top['T']!r}, dt = {top['dt']!r}")
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
    limit = max_modes(n, noise["mix"])
    if noise["K"] > limit:
        raise ConfigError(f"field 'noise.K' must be <= {limit} at N={n}"
                          f"{' with mix: true' if noise['mix'] else ''}, got {noise['K']}")
    _require_number(study["ensemble_size"], "study.ensemble_size", integer=True, minimum=1)
    _check_epsilons(study["epsilons"])
    noise["seed"] = _env_seed(noise["seed"])

    values = {name: type(getattr(SolverConfig, name))(given[key])
              for section, given in (("", top), ("noise", noise))
              for key, name in _FIELDS[section].items()}
    try:
        config = SolverConfig(**values, initial_kind=kind, initial_params=initial)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, study


def canonical_dict(config: SolverConfig, study: dict | None = None) -> dict:
    doc = {key: getattr(config, name) for key, name in _FIELDS[""].items()}
    doc["initial"] = {"kind": config.initial_kind, **config.initial_params}
    doc["noise"] = {key: getattr(config, name) for key, name in _FIELDS["noise"].items()}
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
    environment: dict = field(default_factory=dict)

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
        environment=software_environment(),
    )


def software_environment() -> dict:
    """Interpreter, numpy and scipy versions and the platform, for the manifest."""
    import scipy  # here, not at module level: the import would cost every command's start

    uname = platform.uname()  # platform.platform() would also scan the interpreter for libc
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": f"{uname.system}-{uname.release}-{uname.machine}"}
